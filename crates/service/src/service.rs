//! The sharded object service proper: one register space, tiled into
//! per-shard regions, each region running its own replicated log over a
//! key-multiplexed object.
//!
//! # Shape
//!
//! * [`ObjectService::on`] splits the supplied space into `shards`
//!   disjoint [`SubSpace`] regions with [`SubSpace::tile`] — shard `t`
//!   owns exactly the parent registers `t, t+shards, t+2·shards, …`, so
//!   shards can never alias each other's registers.
//! * Each region hosts a [`ReplicatedLog`]`<`[`Keyed`]`<T>>` whose lanes
//!   are the workers (no passive replicas): a worker is one process id
//!   valid on *every* shard, because its keys hash across all of them.
//!   The log's pipeline window is its whole height capacity, so the
//!   applied floor never gates a proposal and a crash-stopped worker
//!   cannot stall its peers.
//! * A [`ServiceWorker`] holds one [`LogWorker`] per shard: route and
//!   announce a burst ([`ServiceWorker::enqueue_burst`]), then pump the
//!   shards round-robin until every own op has committed
//!   ([`ServiceWorker::drive`]) — one consensus decision per *height*,
//!   whose record carries every announced op of every worker the
//!   proposer found (helping), not one per operation.
//!
//! Telemetry: every per-shard announce of a burst emits one
//! [`EventKind::ServiceEnqueue`] carrying its op count; each shard log
//! emits its `HeightDecide` (by the winning worker, so each height is
//! counted once) and `LogApply` events stamped with the shard as log id,
//! and one `"consensus"` span per proposal.

use crate::keyed::{encode_op, Keyed};
use crate::router::Router;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;
use tfr_core::universal::Sequential;
use tfr_log::{LogAudit, LogConfig, LogWorker, ReplicatedLog};
use tfr_registers::space::{NativeSpace, RegisterSpace, SubSpace};
use tfr_registers::ProcId;
use tfr_telemetry::{EventKind, Span, Trace};

/// A shard: one replicated log over the shard's register tile.
type Shard<T, S> = ReplicatedLog<Keyed<T>, SubSpace<Arc<S>>>;

/// Construction parameters for an [`ObjectService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards the key space is routed over.
    pub shards: usize,
    /// Number of worker processes (each holds one pid valid on every
    /// shard). At most 255.
    pub workers: usize,
    /// Height capacity of each shard's log (upper bound on batches a
    /// shard can commit; every committed batch holds at least one op, so
    /// ops per shard is always a safe bound).
    pub capacity_per_shard: usize,
    /// The consensus `delay(Δ)` estimate.
    pub delta: Duration,
    /// Largest batch one height may commit.
    pub max_batch: usize,
    /// Seed of the key → shard router.
    pub router_seed: u64,
}

impl ServiceConfig {
    /// A config with workspace-default tuning (1024 heights per shard,
    /// Δ = 50 µs, batches of up to 64).
    pub fn new(shards: usize, workers: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            workers,
            capacity_per_shard: 1024,
            delta: Duration::from_micros(50),
            max_batch: 64,
            router_seed: 0x5eed,
        }
    }
}

/// A completed operation returned by [`ServiceWorker::drive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResponse {
    /// The operation's position in this worker's enqueue order (0-based,
    /// monotone across bursts).
    pub pos: u64,
    /// The key the operation addressed.
    pub key: u64,
    /// The shard it was routed to.
    pub shard: usize,
    /// The object's response.
    pub resp: u64,
}

/// A sharded wait-free object service over any [`RegisterSpace`]
/// backend: native shared memory or the quorum-replicated network space,
/// unchanged.
pub struct ObjectService<T: Sequential, S: RegisterSpace = NativeSpace> {
    shards: Vec<Arc<Shard<T, S>>>,
    router: Router,
    workers: usize,
    trace: Trace,
}

impl<T: Sequential> ObjectService<T, NativeSpace> {
    /// A service over fresh native shared memory.
    pub fn new(make: impl Fn() -> T, cfg: &ServiceConfig) -> ObjectService<T, NativeSpace> {
        ObjectService::on(Arc::new(NativeSpace::with_capacity(1024)), make, cfg)
    }
}

impl<T: Sequential, S: RegisterSpace> ObjectService<T, S> {
    /// A service tiling `space` into `cfg.shards` disjoint regions;
    /// `make` builds each shard's prototype object.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is 0 or `cfg.workers` is not in 1..=255.
    pub fn on(space: Arc<S>, make: impl Fn() -> T, cfg: &ServiceConfig) -> ObjectService<T, S> {
        assert!(cfg.shards > 0, "a service needs at least one shard");
        let log_cfg = LogConfig {
            n: cfg.workers,
            replicas: 0,
            heights: cfg.capacity_per_shard,
            max_batch: cfg.max_batch,
            // The workers are the only lanes: a window as wide as the
            // log never binds, so a crash-stopped worker stalls no one
            // (and the log writes no acks).
            window: cfg.capacity_per_shard as u64,
            delta: cfg.delta,
        };
        let shards = SubSpace::tile(space, cfg.shards as u64)
            .into_iter()
            .enumerate()
            .map(|(t, tile)| {
                let log = ReplicatedLog::on(Keyed::new(make()), log_cfg, Arc::new(tile));
                Arc::new(log.with_id(t as u32))
            })
            .collect();
        ObjectService {
            shards,
            router: Router::new(cfg.shards, cfg.router_seed),
            workers: cfg.workers,
            trace: Trace::default(),
        }
    }

    /// Attaches a telemetry trace: enqueues, height decisions and
    /// applies are emitted through it, and every proposal is wrapped in
    /// a `"consensus"` span — the middle of the causal chain
    /// client.enqueue → batch.drive → consensus → quorum phases.
    pub fn with_trace(mut self, trace: Trace) -> ObjectService<T, S> {
        self.shards = self
            .shards
            .into_iter()
            .map(|log| {
                // Workers borrow the service, so none holds a shard here.
                let log = Arc::into_inner(log).expect("no worker outlives the service");
                Arc::new(log.with_trace(trace.clone()))
            })
            .collect();
        self.trace = trace;
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of worker processes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The key → shard router (pure; share it freely).
    pub fn router(&self) -> Router {
        self.router
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        self.router.route(key)
    }

    /// A driving handle for worker `pid`, holding one log worker per
    /// shard. Each resynchronises from the registers (the decided prefix
    /// and the lane's announce counter), so a handle for a pid whose
    /// previous incarnation crashed picks up where the registers say —
    /// its predecessor's announced ops commit with its next proposals.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a worker id.
    pub fn worker(&self, pid: ProcId) -> ServiceWorker<'_, T, S> {
        assert!(pid.0 < self.workers, "unknown worker pid");
        let shards = self.shards.len();
        ServiceWorker {
            svc: self,
            pid,
            logs: self
                .shards
                .iter()
                .map(|log| LogWorker::resumed(Arc::clone(log), pid))
                .collect(),
            pending: (0..shards).map(|_| VecDeque::new()).collect(),
            issued: 0,
            scratch: vec![Vec::new(); shards],
        }
    }

    /// The current committed state of shard `shard`, keyed by object key
    /// (a fresh replay; intended for post-run verification).
    pub fn snapshot(&self, shard: usize) -> BTreeMap<u64, T::State> {
        self.shards[shard].snapshot()
    }

    /// Audits of every shard's log, read straight from the registers:
    /// [`LogAudit::complete`] is the zero-lost-ops verdict.
    pub fn audit(&self) -> Vec<LogAudit> {
        self.shards.iter().map(|log| log.audit(&[])).collect()
    }

    /// Ground truth for lost-op accounting: what worker `p` announced on
    /// `shard` at sequence number `seq`, straight from the registers.
    pub fn announced_op(&self, shard: usize, p: usize, seq: u64) -> Option<u64> {
        self.shards[shard].announced_op(p, seq)
    }
}

/// A per-worker driving handle: enqueue bursts, drive the shards with
/// pending work, collect responses. Created by [`ObjectService::worker`].
pub struct ServiceWorker<'s, T: Sequential, S: RegisterSpace> {
    svc: &'s ObjectService<T, S>,
    pid: ProcId,
    logs: Vec<LogWorker<Keyed<T>, SubSpace<Arc<S>>>>,
    /// Announced-but-unanswered ops per shard: `(seq, pos, key)` in
    /// announce order.
    pending: Vec<VecDeque<(u64, u64, u64)>>,
    /// Ops enqueued by this worker so far (assigns [`OpResponse::pos`]).
    issued: u64,
    /// Per shard: the burst's encoded ops.
    scratch: Vec<Vec<u64>>,
}

impl<T: Sequential, S: RegisterSpace> ServiceWorker<'_, T, S> {
    /// This worker's process id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Routes and announces a burst of `(key, inner_op)` pairs — one
    /// announce publication per shard touched. Returns the position of
    /// the first op (positions are consecutive within the burst, in the
    /// given order).
    ///
    /// The ops are *not* yet linearized; call [`ServiceWorker::drive`].
    pub fn enqueue_burst(&mut self, ops: &[(u64, u64)]) -> u64 {
        let trace = &self.svc.trace;
        let _span = Span::enter(trace, "client.enqueue");
        let first_pos = self.issued;
        for (i, &(key, inner)) in ops.iter().enumerate() {
            let shard = self.svc.router.route(key);
            let encoded = &mut self.scratch[shard];
            let seq = self.logs[shard].announced() + encoded.len() as u64;
            self.pending[shard].push_back((seq, first_pos + i as u64, key));
            encoded.push(encode_op(key, inner));
        }
        for (shard, (log, encoded)) in self.logs.iter_mut().zip(&mut self.scratch).enumerate() {
            if !encoded.is_empty() {
                trace.emit(
                    self.pid,
                    EventKind::ServiceEnqueue {
                        shard: shard as u32,
                        ops: encoded.len() as u32,
                    },
                );
                log.enqueue(encoded);
                encoded.clear();
            }
        }
        self.issued += ops.len() as u64;
        first_pos
    }

    /// Convenience: enqueue a single operation.
    pub fn enqueue(&mut self, key: u64, inner: u64) -> u64 {
        self.enqueue_burst(&[(key, inner)])
    }

    /// Pumps every shard with own ops outstanding, round-robin and one
    /// effect at a time — so no shard blocks the others — until all of
    /// them have committed (along with whatever other workers announced
    /// that the records picked up), and returns the completed
    /// operations, in enqueue order.
    pub fn drive(&mut self) -> Vec<OpResponse> {
        let _span = Span::enter(&self.svc.trace, "batch.drive");
        let mut out = Vec::new();
        loop {
            let mut outstanding = false;
            let mut progressed = false;
            for (shard, log) in self.logs.iter_mut().enumerate() {
                if log.pending() == 0 {
                    continue;
                }
                outstanding = true;
                progressed |= log.pump();
                for (seq, resp) in log.take_responses() {
                    // A seq older than our oldest pending entry is an
                    // orphan a previous incarnation of this pid
                    // announced: committed on its behalf, awaited by
                    // nobody here.
                    let pending = &mut self.pending[shard];
                    if pending.front().is_some_and(|&(front, _, _)| front == seq) {
                        let (_, pos, key) = pending.pop_front().expect("front was just seen");
                        out.push(OpResponse {
                            pos,
                            key,
                            shard,
                            resp,
                        });
                    }
                }
            }
            if !outstanding {
                break;
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
        out.sort_by_key(|r| r.pos);
        out
    }

    /// Takes the sizes of the batches whose proposal this worker won
    /// since the last take — each decided height is reported by exactly
    /// one worker, so concatenating all workers' takes counts every
    /// batch once.
    pub fn take_batch_sizes(&mut self) -> Vec<usize> {
        self.logs
            .iter_mut()
            .flat_map(LogWorker::take_batch_sizes)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_core::universal::Counter;

    fn small_cfg(shards: usize, workers: usize) -> ServiceConfig {
        ServiceConfig {
            capacity_per_shard: 256,
            delta: Duration::from_micros(10),
            ..ServiceConfig::new(shards, workers)
        }
    }

    #[test]
    fn bursts_commit_and_respond_in_enqueue_order() {
        let svc = ObjectService::new(|| Counter, &small_cfg(2, 1));
        let mut w = svc.worker(ProcId(0));
        let first = w.enqueue_burst(&[(0, 5), (1, 7), (0, 5), (2, 1)]);
        assert_eq!(first, 0);
        let out = w.drive();
        assert_eq!(out.len(), 4);
        assert_eq!(
            out[0],
            OpResponse {
                pos: 0,
                key: 0,
                shard: svc.shard_of(0),
                resp: 5
            }
        );
        assert_eq!(out[2].resp, 10, "same-key ops accumulate");
        assert_eq!(out[3].resp, 1, "distinct keys are independent");
        // A second burst continues the positions and totals.
        let first = w.enqueue_burst(&[(0, 1)]);
        assert_eq!(first, 4);
        assert_eq!(w.drive()[0].resp, 11);
    }

    #[test]
    fn shards_hold_disjoint_keys_and_audit_clean() {
        let svc = ObjectService::new(|| Counter, &small_cfg(3, 2));
        let mut a = svc.worker(ProcId(0));
        let mut b = svc.worker(ProcId(1));
        for key in 0..30u64 {
            a.enqueue(key, 1);
            b.enqueue(key, 2);
        }
        a.drive();
        b.drive();
        // Every key's total landed on exactly the routed shard.
        for key in 0..30u64 {
            let shard = svc.shard_of(key);
            for s in 0..svc.shards() {
                let got = svc.snapshot(s).get(&key).copied();
                if s == shard {
                    assert_eq!(got, Some(3), "key {key} total on its shard");
                } else {
                    assert_eq!(got, None, "key {key} must not leak to shard {s}");
                }
            }
        }
        for audit in svc.audit() {
            assert!(audit.complete(), "committed == announced on every shard");
        }
    }

    #[test]
    fn workers_combine_each_others_bursts() {
        let svc = ObjectService::new(|| Counter, &small_cfg(1, 4));
        std::thread::scope(|s| {
            for w in 0..4 {
                let svc = &svc;
                s.spawn(move || {
                    let mut worker = svc.worker(ProcId(w));
                    for _ in 0..8 {
                        worker.enqueue_burst(&[(0, 1), (1, 1)]);
                        worker.drive();
                    }
                });
            }
        });
        let state = svc.snapshot(0);
        assert_eq!(state.get(&0), Some(&32));
        assert_eq!(state.get(&1), Some(&32));
        let audit = svc.audit().remove(0);
        assert!(audit.complete());
        assert_eq!(audit.total_ops, 64);
    }

    #[test]
    fn reincarnated_worker_tolerates_orphaned_announces() {
        let svc = ObjectService::new(|| Counter, &small_cfg(2, 2));
        // Incarnation 1 announces and dies before driving (the handle is
        // dropped with ops announced but uncommitted).
        let mut first = svc.worker(ProcId(0));
        first.enqueue_burst(&[(0, 5), (1, 7)]);
        drop(first);
        // Incarnation 2 resynchronises from the registers: its drive
        // commits the orphans (they count for the log) but reports only
        // its own ops.
        let mut second = svc.worker(ProcId(0));
        second.enqueue(0, 3);
        let out = second.drive();
        assert_eq!(out.len(), 1, "only the new incarnation's op returns");
        assert_eq!(out[0].key, 0);
        assert_eq!(out[0].resp, 8, "orphaned 5 applied before our 3");
        for audit in svc.audit() {
            assert!(audit.complete(), "orphans commit, nothing is lost");
        }
        assert_eq!(svc.snapshot(svc.shard_of(1)).get(&1), Some(&7));
    }

    #[test]
    fn a_silent_workers_ops_commit_through_helping() {
        // Worker 0 announces and never drives again (a crash-stop, as far
        // as the log can tell); its lane never applies a height. Worker
        // 1's drives commit worker 0's ops anyway, and keep committing
        // past the dead lane: nothing waits on it.
        let cfg = ServiceConfig {
            capacity_per_shard: 32,
            ..small_cfg(1, 2)
        };
        let svc = ObjectService::new(|| Counter, &cfg);
        let mut silent = svc.worker(ProcId(0));
        silent.enqueue_burst(&[(7, 40), (7, 2)]);
        let mut helper = svc.worker(ProcId(1));
        for round in 0..20u64 {
            helper.enqueue(9, 1);
            assert_eq!(helper.drive().len(), 1, "round {round}");
        }
        assert!(svc.audit()[0].complete(), "the silent lane's ops committed");
        let state = svc.snapshot(0);
        assert_eq!(state.get(&7), Some(&42));
        assert_eq!(state.get(&9), Some(&20));
        assert_eq!(silent.logs[0].applied_len(), 0, "lane 0 never applied");
        assert!(svc.audit()[0].heights_decided >= 20);
    }

    #[test]
    fn proposer_reports_each_batch_exactly_once() {
        let svc = ObjectService::new(|| Counter, &small_cfg(2, 2));
        let mut a = svc.worker(ProcId(0));
        let mut b = svc.worker(ProcId(1));
        a.enqueue_burst(&[(0, 1), (1, 1), (2, 1)]);
        a.drive();
        b.enqueue_burst(&[(3, 1)]);
        b.drive();
        let sizes: Vec<usize> = a
            .take_batch_sizes()
            .into_iter()
            .chain(b.take_batch_sizes())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 4, "every op in one batch");
        let heights: u64 = svc.audit().iter().map(|a| a.heights_decided).sum();
        assert_eq!(sizes.len() as u64, heights, "one report per height");
    }
}
