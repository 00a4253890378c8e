//! The `log-pipeline` workload: `tfr-log` state-machine replication of a
//! counter on native atomics — one proposing `LogWorker` and one passive
//! `LogReplica` on its own thread, pipeline window 4, batches of 8.
//!
//! The proposer runs **closed loop**: it keeps `window` batches
//! outstanding, enqueueing the next as soon as one's responses come back
//! from `take_responses`. Each batch takes one consensus decision (one
//! height). Op amounts derive from the seed.

use crate::probe::{take_tally, CountingSpace, Tally};
use crate::spans::{self, SpanTable};
use crate::stats::{self, quantile, ratio, Histogram, Windows};
use crate::{Layers, Phase, Report};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tfr_core::universal::Counter;
use tfr_log::{LogConfig, LogReplica, LogWorker, ReplicatedLog};
use tfr_registers::rng::SplitMix64;
use tfr_registers::space::{NativeSpace, RegisterSpace};
use tfr_registers::ProcId;
use tfr_telemetry::{with_pid, Trace};

const WINDOW: u64 = 4;
/// Freshly built logs an end-to-end run is split over.
const SEGMENTS: usize = 8;
const BATCH: usize = 8;
/// Heights allocated per second of the run: room for 60k commits/s.
const HEIGHTS_PER_SECOND: f64 = 60_000.0;
/// Window the end-to-end figures are taken over.
const WINDOW_LEN: Duration = Duration::from_millis(500);
/// How long the replica sleeps after a poll that applied nothing.
const REPLICA_POLL: Duration = Duration::from_micros(50);
/// Tracer capacity per lane, and events one height may leave on a lane.
const EVENTS_PER_LANE: usize = 1 << 20;
const EVENTS_PER_HEIGHT: usize = 16;

type Log<S> = ReplicatedLog<Counter, S>;

fn log_config(heights: usize) -> LogConfig {
    LogConfig {
        n: 1,
        replicas: 1,
        heights,
        max_batch: BATCH,
        window: WINDOW,
        delta: Duration::from_micros(10),
    }
}

/// Registers the log's three regions use at `heights`, as
/// `ReplicatedLog::new` preallocates them.
fn space_capacity(heights: usize) -> usize {
    3 * (heights * (BATCH + 1) + 1024)
}

/// The proposer's `pump` calls: how many, how many advanced nothing,
/// and (traced runs only) their durations.
struct Pumping {
    count: u64,
    idle: u64,
    ns: Histogram,
    total_ns: u64,
}

/// What a phase measured.
struct PhaseOut {
    batches: u64,
    elapsed: Duration,
    /// Per-batch latency, enqueue to responses, and when each batch's
    /// responses arrived (since the phase started).
    lat_ns: Vec<u64>,
    done_ns: Vec<u64>,
    tally: Tally,
    pumping: Pumping,
    proposer_wall_ns: u64,
    polls: u64,
    empty_polls: u64,
    /// Frontier minus replica applied length, sampled at every poll.
    lag: Vec<u64>,
    integrity: Result<(), String>,
}

/// Builds one log and times its construction, in seconds.
fn setup<S: RegisterSpace>(heights: usize, space: S, trace: &Trace) -> (Arc<Log<S>>, f64) {
    let t = Instant::now();
    let log =
        ReplicatedLog::on(Counter, log_config(heights), Arc::new(space)).with_trace(trace.clone());
    (Arc::new(log), t.elapsed().as_secs_f64())
}

fn run_phase<S: RegisterSpace + 'static>(
    log: &Arc<Log<S>>,
    seed: u64,
    seconds: f64,
    max_batches: u64,
    trace: &Trace,
) -> PhaseOut {
    let budget = max_batches.min(log.config().heights as u64 - WINDOW - 1);
    let stop = AtomicBool::new(false);
    let frontier = AtomicU64::new(0);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let (proposer, replica) = std::thread::scope(|s| {
        let replica = s.spawn(|| {
            with_pid(ProcId(1), || {
                let mut replica = LogReplica::new(Arc::clone(log), 0);
                let (mut polls, mut empty, mut lag) = (0u64, 0u64, Vec::new());
                loop {
                    let done = stop.load(Ordering::Acquire);
                    let target = frontier.load(Ordering::Acquire);
                    if done && replica.applied_len() >= target {
                        break;
                    }
                    polls += 1;
                    if trace.is_enabled() {
                        lag.push(target.saturating_sub(replica.applied_len()));
                    }
                    if replica.poll() == 0 {
                        empty += 1;
                        std::thread::sleep(REPLICA_POLL);
                    }
                }
                (replica, polls, empty, lag, take_tally())
            })
        });
        let proposer = with_pid(ProcId(0), || {
            let mut rng = SplitMix64::new(seed);
            let mut worker = LogWorker::new(Arc::clone(log), ProcId(0));
            let mut outstanding: VecDeque<Instant> = VecDeque::new();
            let (mut enqueued, mut expected, mut answered) = (0u64, 0u64, 0u64);
            let (mut pumps, mut idle) = (0u64, 0u64);
            let (mut lat_ns, mut done_ns) = (Vec::new(), Vec::new());
            let (mut pump_ns, mut pump_total_ns) = (Histogram::default(), 0u64);
            let mut ops = [0u64; BATCH];
            loop {
                let now = Instant::now();
                let open = now < until && enqueued < budget;
                while open && (outstanding.len() as u64) < WINDOW {
                    for op in &mut ops {
                        *op = rng.random_range(1..=100);
                        expected += *op;
                    }
                    worker.enqueue(&ops);
                    outstanding.push_back(Instant::now());
                    enqueued += 1;
                }
                if outstanding.is_empty() {
                    break;
                }
                // Pumps are mostly idle polls, too many to trace as spans:
                // the traced run times them into a histogram instead.
                let t0 = trace.is_enabled().then(Instant::now);
                let progressed = worker.pump();
                if let Some(t0) = t0 {
                    let ns = t0.elapsed().as_nanos() as u64;
                    pump_ns.record(ns);
                    pump_total_ns += ns;
                }
                pumps += 1;
                frontier.store(worker.frontier(), Ordering::Release);
                if !progressed {
                    idle += 1;
                    std::thread::yield_now();
                    continue;
                }
                answered += worker.take_responses().len() as u64;
                let done = Instant::now();
                while answered >= BATCH as u64 {
                    let t0 = outstanding.pop_front().expect("a response answers a batch");
                    lat_ns.push((done - t0).as_nanos() as u64);
                    done_ns.push((done - start).as_nanos() as u64);
                    answered -= BATCH as u64;
                }
            }
            let wall = start.elapsed();
            stop.store(true, Ordering::Release);
            let pumping = Pumping {
                count: pumps,
                idle,
                ns: pump_ns,
                total_ns: pump_total_ns,
            };
            (
                worker,
                expected,
                (lat_ns, done_ns),
                pumping,
                wall,
                take_tally(),
            )
        });
        (proposer, replica.join().expect("the replica panicked"))
    });
    let elapsed = start.elapsed();
    let (worker, expected, (lat_ns, done_ns), pumping, wall, worker_tally) = proposer;
    let (replica, polls, empty_polls, mut lag, replica_tally) = replica;
    lag.sort_unstable();
    let mut tally = worker_tally;
    tally.merge(&replica_tally);
    let batches = lat_ns.len() as u64;

    let audit = log.audit(&[worker.applied_log(), replica.applied_log()]);
    let integrity = if !audit.converged() || audit.heights_decided != batches {
        Err(format!(
            "log audit: converged {}, {} heights decided for {batches} batches ({:?})",
            audit.converged(),
            audit.heights_decided,
            audit.divergence
        ))
    } else if *worker.state() != expected || *replica.state() != expected {
        Err(format!(
            "lane states {} / {} differ from the generated sum {expected}",
            worker.state(),
            replica.state()
        ))
    } else {
        Ok(())
    };
    PhaseOut {
        batches,
        elapsed,
        lat_ns,
        done_ns,
        tally,
        pumping,
        proposer_wall_ns: wall.as_nanos() as u64,
        polls,
        empty_polls,
        lag,
        integrity,
    }
}

/// Runs `log-pipeline` in `phase` for `seconds`.
pub fn run(phase: Phase, seed: u64, seconds: f64) -> Report {
    let heights = |secs: f64| (secs * HEIGHTS_PER_SECOND) as usize;
    let native = |heights| NativeSpace::with_capacity(space_capacity(heights));
    let mut report = Report::default();
    match phase {
        Phase::EndToEnd => {
            // Split into segments, each on a freshly built log, so set-up
            // is measured once per segment; an unmeasured warm-up segment
            // first grows the heap (see the service workloads).
            let segment = seconds / SEGMENTS as f64;
            let heights = heights(segment);
            let mut windows = Windows::new(Some(WINDOW_LEN), 0.99);
            let (mut setups, mut batches) = (Vec::new(), 0);
            for warm_up in std::iter::once(true).chain([false; SEGMENTS]) {
                let (log, setup_s) = setup(heights, native(heights), &Trace::disabled());
                let p = run_phase(&log, seed, segment, u64::MAX, &Trace::disabled());
                report.gate(&p.integrity);
                report.count(p.batches * BATCH as u64, p.batches * BATCH as u64);
                if !warm_up {
                    setups.push(setup_s);
                    batches += p.batches;
                    windows.add(&p.done_ns, &p.lat_ns, p.elapsed, BATCH as u64);
                }
            }
            let ops = batches * BATCH as u64;
            report.end_to_end(
                stats::median(&setups),
                windows.rate(),
                windows.p50() / 1e3,
                windows.tail() / 1e3,
            );
            report.note(format!(
                "{batches} commits ({ops} ops), {:.0} commits/s; {}",
                windows.rate() / BATCH as f64,
                windows.describe()
            ));
        }
        Phase::Traced => {
            // Thirds: an untraced warm-up, the untraced base the overhead
            // is taken against, then the traced phase.
            let third = seconds / 3.0;
            let heights = heights(third);
            let mut base = None;
            for _ in 0..2 {
                let (log, _) = setup(heights, native(heights), &Trace::disabled());
                let p = run_phase(&log, seed, third, u64::MAX, &Trace::disabled());
                report.gate(&p.integrity);
                report.count(p.batches * BATCH as u64, p.batches * BATCH as u64);
                base = Some(p);
            }
            let base = base.expect("the base phase ran");

            let (tracer, trace) = spans::tracer(2, EVENTS_PER_LANE);
            let (log, _) = setup(heights, CountingSpace::new(native(heights), true), &trace);
            let cap = (EVENTS_PER_LANE / EVENTS_PER_HEIGHT) as u64;
            let p = run_phase(&log, seed, third, cap, &trace);
            report.gate(&p.integrity);
            report.count(p.batches * BATCH as u64, p.batches * BATCH as u64);

            let spans = SpanTable::from_events(&tracer.events());
            let ops = (p.batches * BATCH as u64) as f64;
            let mut l = Layers::default();
            l.set("registers.reads_per_op", ratio(p.tally.reads as f64, ops));
            l.set("registers.writes_per_op", ratio(p.tally.writes as f64, ops));
            l.set("registers.access_ns_p50", p.tally.access_ns.quantile(0.5));
            l.set("core.decisions_per_op", ratio(p.batches as f64, ops));
            l.set(
                "core.proposals_per_decision",
                ratio(spans.count("height.decide") as f64, p.batches as f64),
            );
            l.set(
                "core.decide_us_p50",
                spans.quantile_us("height.decide", 0.5),
            );
            l.set(
                "core.decide_us_p99",
                spans.quantile_us("height.decide", 0.99),
            );
            l.set("log.pump_us_p50", p.pumping.ns.quantile(0.5) / 1e3);
            l.set("log.pump_us_p99", p.pumping.ns.quantile(0.99) / 1e3);
            l.set(
                "log.idle_pump_ratio",
                ratio(p.pumping.idle as f64, p.pumping.count as f64),
            );
            l.set(
                "log.replica_empty_poll_ratio",
                ratio(p.empty_polls as f64, p.polls as f64),
            );
            l.set("log.replica_lag_p99", quantile(&p.lag, 0.99));
            l.note(format!(
                "traced: {} commits, {} register writes ({:.3} per commit)",
                p.batches,
                p.tally.writes,
                ratio(p.tally.writes as f64, p.batches as f64)
            ));
            l.telemetry(
                &tracer,
                base.batches as f64 / base.elapsed.as_secs_f64(),
                p.batches as f64 / p.elapsed.as_secs_f64(),
                1.0 - ratio(p.pumping.total_ns as f64, p.proposer_wall_ns as f64),
            );
            report.layers(l);
        }
    }
    report
}
