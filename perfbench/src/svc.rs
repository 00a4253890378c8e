//! The keyed-counter service workloads: `svc-native` (shared-memory
//! atomics, no network) and `svc-quorum` (the same service over 3 ABD
//! replicas).
//!
//! Both run **closed loop**: every worker owns a block of clients, each
//! with one op in flight; a worker packs the next op of `burst`
//! consecutive clients into one burst, announces it
//! (`ServiceWorker::enqueue_burst`) and drives it to commit
//! (`ServiceWorker::drive`) before that block's clients issue again.
//! Every 16th client adds to the shared key 0; the others add to keys
//! private to their worker. Keys, amounts, the router and the network's
//! link streams all derive from the seed.

use crate::probe::{take_tally, CountingSpace, Tally};
use crate::spans::{self, SpanTable};
use crate::stats::{self, ratio, Windows};
use crate::{Layers, Phase, Report};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfr_core::universal::Counter;
use tfr_net::{NetConfig, NetControl, Network};
use tfr_registers::rng::SplitMix64;
use tfr_registers::space::{NativeSpace, RegisterSpace};
use tfr_registers::ProcId;
use tfr_service::{ObjectService, ServiceConfig};
use tfr_telemetry::{with_pid, EventKind, Span, Trace, Tracer};

/// One service workload's shape.
pub struct Shape {
    /// Run on the ABD quorum space instead of native atomics.
    quorum: bool,
    workers: usize,
    shards: usize,
    clients: usize,
    burst: usize,
    /// Worker-private keys each worker's clients spread over.
    keys_per_worker: u64,
    /// Log slots per shard, allocated at construction.
    capacity: usize,
    delta: Duration,
    /// Latency tail reported end to end.
    tail_q: f64,
    /// Window the end-to-end figures are taken over (`None`: whole
    /// segments).
    window: Option<Duration>,
    /// Tracer capacity per lane, and events one op may leave on a lane.
    events_per_lane: usize,
    events_per_op: usize,
}

pub const NATIVE: Shape = Shape {
    quorum: false,
    workers: 2,
    shards: 4,
    clients: 2048,
    burst: 16,
    keys_per_worker: 64,
    capacity: 1 << 16,
    delta: Duration::from_micros(20),
    tail_q: 0.90,
    window: Some(Duration::from_millis(500)),
    events_per_lane: 1 << 20,
    events_per_op: 4,
};

pub const QUORUM: Shape = Shape {
    quorum: true,
    workers: 2,
    shards: 2,
    clients: 2048,
    burst: 16,
    keys_per_worker: 64,
    capacity: 1 << 13,
    delta: Duration::from_micros(200),
    tail_q: 0.90,
    window: None,
    events_per_lane: 1 << 18,
    events_per_op: 640,
};

/// Freshly built services an end-to-end run is split over.
const SEGMENTS: usize = 8;

/// Every `SHARED_EVERY`-th client addresses the shared key 0.
const SHARED_EVERY: usize = 16;

/// Slots kept free below the capacity: a worker stops issuing once the
/// committed batches (over all shards) reach `capacity - SLOT_MARGIN`,
/// so no shard's log can fill mid-drive.
const SLOT_MARGIN: u64 = 4096;

/// The seeded op generator: which key client `c` addresses, and what it
/// adds in its round `j`.
#[derive(Clone, Copy)]
struct Gen {
    seed: u64,
    clients_per_worker: usize,
    keys_per_worker: u64,
}

impl Gen {
    fn mix(&self, a: u64, b: u64) -> u64 {
        SplitMix64::new(self.seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(32))
            .next_u64()
    }

    fn key(&self, c: usize) -> u64 {
        if c.is_multiple_of(SHARED_EVERY) {
            return 0;
        }
        let w = (c / self.clients_per_worker) as u64;
        1 + w * self.keys_per_worker + self.mix(c as u64, u64::MAX) % self.keys_per_worker
    }

    fn amount(&self, c: usize, j: u64) -> u64 {
        1 + self.mix(c as u64, j) % 8
    }
}

/// A built service, with its network when it runs on quorums.
struct Built<S: RegisterSpace> {
    svc: ObjectService<Counter, S>,
    net: Option<Arc<Network>>,
}

/// What one worker did in a phase.
#[derive(Default)]
struct WorkerOut {
    ops: u64,
    /// Ops whose response carried their position and key.
    answered: u64,
    /// Per-op latency, enqueue of the burst to its responses.
    lat_ns: Vec<u64>,
    done_ns: Vec<u64>,
    batches: u64,
    expected: BTreeMap<u64, u64>,
    tally: Tally,
    wall: Duration,
}

/// What a phase measured.
struct PhaseOut {
    ops: u64,
    answered: u64,
    elapsed: Duration,
    lat_ns: Vec<u64>,
    done_ns: Vec<u64>,
    batches: u64,
    tally: Tally,
    worker_wall_ns: u64,
    /// Network counters and the tracer clock, read at quiescence before
    /// the audit adds traffic.
    delivered: u64,
    delivery_batches: u64,
    end_ns: u64,
    integrity: Result<(), String>,
}

/// Builds one service and times it: the whole set-up (network boot
/// included) and the service construction alone, in seconds.
fn setup<S: RegisterSpace + 'static>(
    shape: &Shape,
    seed: u64,
    space: impl FnOnce(Option<&Arc<Network>>) -> S,
    trace: &Trace,
) -> (Built<S>, f64, f64) {
    let start = Instant::now();
    let net = shape.quorum.then(|| {
        let cfg = NetConfig::new(shape.workers, 3, seed);
        Arc::new(Network::with_trace(cfg, trace.clone()))
    });
    let space = Arc::new(space(net.as_ref()));
    let cfg = ServiceConfig {
        shards: shape.shards,
        workers: shape.workers,
        capacity_per_shard: shape.capacity,
        delta: shape.delta,
        max_batch: 64,
        router_seed: seed,
    };
    let service_start = Instant::now();
    let svc = ObjectService::on(space, || Counter, &cfg).with_trace(trace.clone());
    let service = service_start.elapsed().as_secs_f64();
    (Built { svc, net }, start.elapsed().as_secs_f64(), service)
}

fn run_phase<S: RegisterSpace + 'static>(
    shape: &Shape,
    gen: Gen,
    built: &Built<S>,
    seconds: f64,
    max_ops_per_worker: u64,
    trace: &Trace,
) -> PhaseOut {
    let svc = &built.svc;
    let committed_batches = AtomicU64::new(0);
    let slot_budget = shape.capacity as u64 - SLOT_MARGIN;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.workers)
            .map(|w| {
                let committed_batches = &committed_batches;
                s.spawn(move || {
                    with_pid(ProcId(w), || {
                        let mut out = WorkerOut::default();
                        let mut worker = svc.worker(ProcId(w));
                        let clients = (w * gen.clients_per_worker)
                            ..((w + 1) * gen.clients_per_worker).min(shape.clients);
                        let mut burst: Vec<(u64, u64)> = Vec::with_capacity(shape.burst);
                        let mut j = 0u64;
                        'run: loop {
                            let mut c = clients.start;
                            while c < clients.end {
                                let hi = (c + shape.burst).min(clients.end);
                                burst.clear();
                                burst.extend((c..hi).map(|cl| (gen.key(cl), gen.amount(cl, j))));
                                let t0 = Instant::now();
                                let base = {
                                    let _span = Span::enter(trace, "bench.enqueue");
                                    worker.enqueue_burst(&burst)
                                };
                                let done = {
                                    let _span = Span::enter(trace, "bench.drive");
                                    worker.drive()
                                };
                                let t1 = Instant::now();
                                let lat = (t1 - t0).as_nanos() as u64;
                                for (i, &(key, amount)) in burst.iter().enumerate() {
                                    *out.expected.entry(key).or_insert(0) += amount;
                                    let ok = done.get(i).is_some_and(|r| {
                                        r.pos == base + i as u64 && r.key == key && r.resp >= amount
                                    });
                                    out.answered += ok as u64;
                                    out.lat_ns.push(lat);
                                    out.done_ns.push((t1 - start).as_nanos() as u64);
                                }
                                out.ops += burst.len() as u64;
                                let won = worker.take_batch_sizes().len() as u64;
                                out.batches += won;
                                let total =
                                    committed_batches.fetch_add(won, Ordering::Relaxed) + won;
                                if t1 >= until
                                    || total >= slot_budget
                                    || out.ops >= max_ops_per_worker
                                {
                                    break 'run;
                                }
                                c = hi;
                            }
                            j += 1;
                        }
                        out.wall = start.elapsed();
                        out.tally = take_tally();
                        out
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a service worker panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let control: Option<NetControl> = built.net.as_ref().map(|n| n.control());
    if control.is_some() {
        // Let the slowest replica's late acks land before reading counters.
        std::thread::sleep(Duration::from_millis(5));
    }
    let delivered = control.as_ref().map_or(0, NetControl::delivered_messages);
    let delivery_batches = control.as_ref().map_or(0, NetControl::delivery_batches);
    let end_ns = trace.now_ns().unwrap_or(0);

    let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
    let mut phase = PhaseOut {
        ops: 0,
        answered: 0,
        elapsed,
        lat_ns: Vec::new(),
        done_ns: Vec::new(),
        batches: 0,
        tally: Tally::default(),
        worker_wall_ns: 0,
        delivered,
        delivery_batches,
        end_ns,
        integrity: Ok(()),
    };
    for out in outs {
        phase.ops += out.ops;
        phase.answered += out.answered;
        phase.done_ns.extend(out.done_ns);
        phase.lat_ns.extend(out.lat_ns);
        phase.batches += out.batches;
        phase.tally.merge(&out.tally);
        phase.worker_wall_ns += out.wall.as_nanos() as u64;
        for (k, v) in out.expected {
            *expected.entry(k).or_insert(0) += v;
        }
    }
    phase.integrity = check(svc, &expected);
    phase
}

/// The integrity gate: every shard's log audits complete, and the final
/// per-key totals equal the generator's.
fn check<S: RegisterSpace>(
    svc: &ObjectService<Counter, S>,
    expected: &BTreeMap<u64, u64>,
) -> Result<(), String> {
    for (shard, audit) in svc.audit().iter().enumerate() {
        if !audit.complete() {
            return Err(format!(
                "shard {shard} audit incomplete: committed {:?}, announced {:?}",
                audit.committed, audit.announced
            ));
        }
    }
    let mut actual = BTreeMap::new();
    for shard in 0..svc.shards() {
        actual.extend(svc.snapshot(shard));
    }
    if &actual != expected {
        let bad = expected
            .iter()
            .find(|(k, v)| actual.get(k) != Some(v))
            .map(|(k, v)| format!("key {k}: expected {v}, got {:?}", actual.get(k)));
        return Err(format!(
            "final totals differ from the generator's ({bad:?})"
        ));
    }
    Ok(())
}

fn gen(shape: &Shape, seed: u64) -> Gen {
    Gen {
        seed,
        clients_per_worker: shape.clients.div_ceil(shape.workers),
        keys_per_worker: shape.keys_per_worker,
    }
}

/// Runs one service workload in `phase` for `seconds`.
pub fn run(shape: &Shape, phase: Phase, seed: u64, seconds: f64) -> Report {
    if shape.quorum {
        run_on(shape, phase, seed, seconds, |net: Option<&Arc<Network>>| {
            net.expect("a quorum shape boots a network").space()
        })
    } else {
        run_on(shape, phase, seed, seconds, |_: Option<&Arc<Network>>| {
            NativeSpace::with_capacity(1024)
        })
    }
}

fn run_on<S, F>(shape: &Shape, phase: Phase, seed: u64, seconds: f64, space: F) -> Report
where
    S: RegisterSpace + 'static,
    F: Fn(Option<&Arc<Network>>) -> S + Copy,
{
    let gen = gen(shape, seed);
    let mut report = Report::default();
    match phase {
        Phase::EndToEnd => {
            // The run is split into segments, each on a freshly built
            // service: set-up is measured once per segment, and no
            // shard's preallocated log has to hold the whole run. An
            // unmeasured warm-up segment first grows the heap, so no
            // measured segment pays first-touch page faults that later
            // ones do not.
            let segment = seconds / SEGMENTS as f64;
            let mut windows = Windows::new(shape.window, shape.tail_q);
            let (mut setups, mut ops, mut batches) = (Vec::new(), 0, 0);
            for warm_up in std::iter::once(true).chain([false; SEGMENTS]) {
                let (built, setup_s, _) = setup(shape, seed, space, &Trace::disabled());
                let p = run_phase(shape, gen, &built, segment, u64::MAX, &Trace::disabled());
                report.gate(&p.integrity);
                report.count(p.ops, p.answered);
                if !warm_up {
                    setups.push(setup_s);
                    (ops, batches) = (ops + p.ops, batches + p.batches);
                    windows.add(&p.done_ns, &p.lat_ns, p.elapsed, 1);
                }
            }
            report.end_to_end(
                stats::median(&setups),
                windows.rate(),
                windows.p50() / 1e3,
                windows.tail() / 1e3,
            );
            report.note(format!(
                "{ops} ops, {batches} batches; {}",
                windows.describe()
            ));
        }
        Phase::Traced => {
            // Thirds: an untraced warm-up, the untraced base the overhead
            // is taken against, then the traced phase.
            let third = seconds / 3.0;
            let mut base = None;
            for _ in 0..2 {
                let (built, _, _) = setup(shape, seed, space, &Trace::disabled());
                let p = run_phase(shape, gen, &built, third, u64::MAX, &Trace::disabled());
                report.gate(&p.integrity);
                report.count(p.ops, p.answered);
                base = Some(p);
            }
            let base = base.expect("the base phase ran");

            let lanes = if shape.quorum {
                NetConfig::new(shape.workers, 3, seed).tracer_processes()
            } else {
                shape.workers
            };
            let (tracer, trace) = spans::tracer(lanes, shape.events_per_lane);
            let counted = move |net: Option<&Arc<Network>>| CountingSpace::new(space(net), true);
            let (built, _, service_s) = setup(shape, seed, counted, &trace);
            let cap = (shape.events_per_lane / shape.events_per_op) as u64;
            let p = run_phase(shape, gen, &built, third, cap, &trace);
            report.gate(&p.integrity);
            report.count(p.ops, p.answered);
            report.layers(layers(shape, &p, &tracer, service_s, &base));
        }
    }
    report
}

/// The per-layer metrics of a traced phase.
fn layers(shape: &Shape, p: &PhaseOut, tracer: &Tracer, service_s: f64, base: &PhaseOut) -> Layers {
    let events = tracer.events();
    let spans = SpanTable::from_events(&events);
    let ops = p.ops as f64;
    let mut l = Layers::default();
    l.set("registers.reads_per_op", ratio(p.tally.reads as f64, ops));
    l.set("registers.writes_per_op", ratio(p.tally.writes as f64, ops));
    l.set("registers.access_ns_p50", p.tally.access_ns.quantile(0.5));
    l.set("core.decisions_per_op", ratio(p.batches as f64, ops));
    l.set(
        "core.proposals_per_decision",
        ratio(spans.count("consensus") as f64, p.batches as f64),
    );
    l.set("core.decide_us_p50", spans.quantile_us("consensus", 0.5));
    l.set("core.decide_us_p99", spans.quantile_us("consensus", 0.99));
    l.set("service.batch_mean", ratio(ops, p.batches as f64));
    l.set(
        "service.enqueue_us_p50",
        spans.quantile_us("bench.enqueue", 0.5),
    );
    l.set(
        "service.drive_us_p50",
        spans.quantile_us("bench.drive", 0.5),
    );
    l.set(
        "service.drive_us_p99",
        spans.quantile_us("bench.drive", 0.99),
    );
    l.set("service.setup_s", service_s);
    if shape.quorum {
        let cfg = NetConfig::new(shape.workers, 3, 0);
        let accesses = (spans.count("quorum.read") + spans.count("quorum.write")) as f64;
        let phases = (spans.count("quorum.phase1") + spans.count("quorum.phase2")) as f64;
        let is_client = |pid: ProcId| pid.0 < cfg.clients;
        let sends = spans::count(&events, p.end_ns, |e| {
            matches!(e.kind, EventKind::MsgSend { .. })
        });
        let client_sends = spans::count(&events, p.end_ns, |e| {
            matches!(e.kind, EventKind::MsgSend { .. }) && is_client(e.pid)
        });
        let msgs_per_op = ratio(p.delivered as f64, ops);
        let msgs_per_access = ratio(sends as f64, accesses);
        l.set("net.msgs_per_op", msgs_per_op);
        l.set("net.msgs_per_access", msgs_per_access);
        l.set("net.phases_per_access", ratio(phases, accesses));
        l.set(
            "net.delivery_batch_mean",
            ratio(p.delivered as f64, p.delivery_batches as f64),
        );
        l.set(
            "net.retransmits_per_op",
            ratio(client_sends as f64 - (cfg.replicas as f64 * phases), ops),
        );
        l.set("net.read_us_p50", spans.quantile_us("quorum.read", 0.5));
        l.set("net.read_us_p99", spans.quantile_us("quorum.read", 0.99));
        l.set("net.write_us_p50", spans.quantile_us("quorum.write", 0.5));
        l.set("net.write_us_p99", spans.quantile_us("quorum.write", 0.99));
        // The ledger identity: messages per op must equal register
        // accesses per op times messages per access.
        let predicted = ratio(p.tally.accesses() as f64, ops) * msgs_per_access;
        l.note(format!(
            "net ledger: {msgs_per_op:.1} msgs/op delivered vs {predicted:.1} predicted \
             ({:.1} accesses/op x {msgs_per_access:.2} msgs/access); probe counted {} accesses, \
             quorum spans {accesses}",
            ratio(p.tally.accesses() as f64, ops),
            p.tally.accesses()
        ));
        if (msgs_per_op - predicted).abs() > 0.05 * predicted {
            l.fail(format!(
                "net ledger does not balance: {msgs_per_op:.1} msgs/op vs {predicted:.1} predicted"
            ));
        }
    }
    let covered = spans.total_ns("bench.enqueue") + spans.total_ns("bench.drive");
    l.telemetry(
        tracer,
        base.ops as f64 / base.elapsed.as_secs_f64(),
        ops / p.elapsed.as_secs_f64(),
        1.0 - ratio(covered as f64, p.worker_wall_ns as f64),
    );
    l
}
