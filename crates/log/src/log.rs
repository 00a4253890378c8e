//! The replicated log substrate: a height-indexed sequence of
//! [`MultiConsensus`] instances over one shared register space, plus the
//! impure drivers ([`LogWorker`], [`LogReplica`]) that execute the pure
//! [`HeightStateMachine`]'s effects against it.
//!
//! # Register layout
//!
//! The log tiles its parent space into three disjoint stride-3 regions:
//!
//! * **lanes** (offset 0) — applier `a`'s applied-prefix length (its
//!   ack) at local index `a`, for the `L = n + R` appliers: the `n`
//!   workers (lanes `0..n`) followed by the `R` passive replicas. The
//!   cluster *floor* is the minimum over all acks; the pipeline window
//!   is enforced against it. A window at least as wide as the height
//!   capacity can never bind, so such a log writes no acks. Then the
//!   announce state: worker `p`'s announce counter at `L + p`, and its
//!   op `seq` (stored as `op + 1`) at `L + n + p + seq·n`. Payloads are
//!   written before the counter that publishes them.
//! * **records** (offset 1) — the batch record proposer `q` built for
//!   height `h`: `n` cells at `(h·n + q)·n`, cell `p` holding (+1) the
//!   end seq the record commits for lane `p`. A record starts where the
//!   applied prefix below `h` ends, so it needs no start cells.
//! * **slots** (offset 2) — height `h`'s consensus instance over the
//!   stride-`heights` subspace based at `h`; the decided value is the
//!   winning proposer's pid (width 8, so `n ≤ 255`).
//!
//! # Helping
//!
//! A proposer builds its record for height `h` by scanning the announce
//! counters from lane `h mod n`, taking every announced op not yet in
//! the log until the record holds `max_batch` ops. So every worker's
//! announced ops gain priority at one height in every `n`, and a worker
//! that stops driving — crash-stopped, or simply idle — still has its
//! announced ops committed by whoever proposes next: the log is the
//! batched form of the §1.4 universal construction, and wait-free the
//! same way.
//!
//! # Why a decided record is always readable
//!
//! A proposer writes its record *before* it proposes, and
//! [`MultiConsensus`] announces a proposal before anything can adopt it.
//! So if height `h` decides proposer `w`, then `w`'s announce happened,
//! which happened after its record write completed — any reader that
//! sees the decision reads a fully written record, and every op the
//! record names was announced (payload before counter) before `w` read
//! the counter. A `(height, proposer)` record never changes once a
//! proposal could name it: within an incarnation the frontier is
//! monotone and decided heights are never re-proposed, and the only
//! undecided height a lost incarnation can have proposed at is the first
//! one its successor sees undecided. There the first proposal of
//! [`LogWorker::resumed`] re-proposes a fully written predecessor record
//! unchanged; a partly written one proves no proposal was made, so it is
//! rebuilt.

use std::sync::Arc;
use std::time::Duration;

use tfr_core::universal::{MultiConsensus, Sequential};
use tfr_registers::chaos::{self, points};
use tfr_registers::space::{NativeSpace, RegisterSpace, SubSpace};
use tfr_registers::ProcId;
use tfr_telemetry::event::EventKind;
use tfr_telemetry::{Span, Trace};

use crate::audit::{digest_entry, digest_op, AppliedEntry, LogAudit};
use crate::machine::{Effect, HeightStateMachine};

/// The three disjoint stride-3 regions of the parent space.
const REGIONS: u64 = 3;
const REGION_LANES: u64 = 0;
const REGION_RECORDS: u64 = 1;
const REGION_SLOTS: u64 = 2;

/// Decision values are proposer pids: 8 bits caps the cluster at 255.
const DECIDE_WIDTH: u32 = 8;

/// Per-height consensus space: the stride-`heights` view of the slots
/// region — two nested [`SubSpace`]s over the shared parent.
type HeightSpace<S> = SubSpace<SubSpace<Arc<S>>>;

/// Shape of a [`ReplicatedLog`].
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Proposing workers (each is also an applier lane).
    pub n: usize,
    /// Passive replicas (applier lanes `n..n+replicas`).
    pub replicas: usize,
    /// Height capacity of the log.
    pub heights: usize,
    /// Maximum ops one height's record commits.
    pub max_batch: usize,
    /// Pipeline window: how far the decision frontier may run ahead of
    /// the cluster applied floor (1 = sequential heights).
    pub window: u64,
    /// The `delay(Δ)` estimate handed to every height's consensus.
    pub delta: Duration,
}

impl LogConfig {
    /// A small default shape: `n` workers, one replica, 64 heights,
    /// records of up to 8 ops, window 4.
    pub fn new(n: usize, delta: Duration) -> LogConfig {
        LogConfig {
            n,
            replicas: 1,
            heights: 64,
            max_batch: 8,
            window: 4,
            delta,
        }
    }

    /// Total applier lanes (workers + replicas).
    pub fn lanes(&self) -> usize {
        self.n + self.replicas
    }
}

/// One applier lane's copy of the log: the replayed object state, how
/// many ops of each worker lane the applied prefix holds, the chained
/// digest, and the trail of applied entries.
pub(crate) struct Lane<St> {
    pub(crate) pid: ProcId,
    pub(crate) state: St,
    pub(crate) done: Vec<u64>,
    pub(crate) digest: u64,
    pub(crate) applied: Vec<AppliedEntry>,
}

/// A multi-height replicated log over any [`RegisterSpace`]: height `h`
/// commits one proposer's batch record via consensus, and every applier
/// lane applies committed records in strict height order.
pub struct ReplicatedLog<T: Sequential, S: RegisterSpace = NativeSpace> {
    object: T,
    cfg: LogConfig,
    /// Stamped on this log's height events (a sharded service runs one
    /// log per shard).
    id: u32,
    lanes: SubSpace<Arc<S>>,
    records: SubSpace<Arc<S>>,
    slots: Vec<MultiConsensus<HeightSpace<S>>>,
    trace: Trace,
}

impl<T: Sequential> ReplicatedLog<T> {
    /// A log over a fresh native shared-memory space.
    pub fn new(object: T, cfg: LogConfig) -> ReplicatedLog<T> {
        let per_height = (cfg.n * cfg.n + cfg.max_batch) as u64;
        let capacity = REGIONS * (cfg.heights as u64 * per_height + 1024);
        ReplicatedLog::on(
            object,
            cfg,
            Arc::new(NativeSpace::with_capacity(capacity as usize)),
        )
    }
}

impl<T: Sequential, S: RegisterSpace> ReplicatedLog<T, S> {
    /// A log over an arbitrary fresh register space — e.g. a `tfr-net`
    /// quorum space. The algorithms are identical on every backend.
    ///
    /// # Panics
    ///
    /// Panics if the shape is degenerate (`n` 0 or > 255, no heights,
    /// zero-op records, zero window).
    pub fn on(object: T, cfg: LogConfig, space: Arc<S>) -> ReplicatedLog<T, S> {
        assert!(cfg.n > 0 && cfg.n <= 255, "1..=255 proposers required");
        assert!(cfg.heights > 0, "a log needs at least one height");
        assert!(cfg.max_batch > 0, "records must hold at least one op");
        assert!(cfg.window > 0, "a zero window can never commit");
        let region = |offset| SubSpace::new(Arc::clone(&space), offset, REGIONS);
        let slot_region = region(REGION_SLOTS);
        let slots = (0..cfg.heights)
            .map(|h| {
                let height_space = SubSpace::new(slot_region.clone(), h as u64, cfg.heights as u64);
                MultiConsensus::on(Arc::new(height_space), cfg.n, DECIDE_WIDTH, cfg.delta)
            })
            .collect();
        ReplicatedLog {
            object,
            cfg,
            id: 0,
            lanes: region(REGION_LANES),
            records: region(REGION_RECORDS),
            slots,
            trace: Trace::default(),
        }
    }

    /// Attaches a telemetry trace (height decisions, applies, and one
    /// `"consensus"` span per proposal).
    pub fn with_trace(mut self, trace: Trace) -> ReplicatedLog<T, S> {
        self.trace = trace;
        self
    }

    /// Sets the id this log stamps on its `HeightDecide` / `LogApply`
    /// events (default 0), so monitors can tell several logs apart on
    /// one trace.
    pub fn with_id(mut self, id: u32) -> ReplicatedLog<T, S> {
        self.id = id;
        self
    }

    /// The log's shape.
    pub fn config(&self) -> &LogConfig {
        &self.cfg
    }

    /// The decided winner at `height`, if any. Heights at or beyond the
    /// capacity read as undecided.
    pub fn decision(&self, height: u64) -> Option<usize> {
        self.slots
            .get(height as usize)?
            .decision()
            .map(|w| w as usize)
    }

    /// How many ops worker lane `p` has announced.
    pub fn announced_count(&self, p: usize) -> u64 {
        assert!(p < self.cfg.n, "lane out of range");
        self.lanes.read(self.counter_idx(p))
    }

    /// Worker lane `p`'s `seq`-th announced op, if it has been written.
    pub fn announced_op(&self, p: usize, seq: u64) -> Option<u64> {
        assert!(p < self.cfg.n, "lane out of range");
        self.lanes.read(self.op_idx(p, seq)).checked_sub(1)
    }

    fn counter_idx(&self, p: usize) -> u64 {
        (self.cfg.lanes() + p) as u64
    }

    fn op_idx(&self, p: usize, seq: u64) -> u64 {
        (self.cfg.lanes() + self.cfg.n + p) as u64 + seq * self.cfg.n as u64
    }

    fn record_idx(&self, height: u64, proposer: usize, lane: usize) -> u64 {
        (height * self.cfg.n as u64 + proposer as u64) * self.cfg.n as u64 + lane as u64
    }

    /// Announces `ops` on worker lane `pid` from seq `first`: payloads
    /// first, then the counter that publishes them.
    fn announce(&self, pid: ProcId, first: u64, ops: &[u64]) {
        chaos::point(points::LOG_ANNOUNCE);
        for (i, &op) in ops.iter().enumerate() {
            assert!(op < u64::MAX, "op encoding must leave room for +1");
            self.lanes
                .write(self.op_idx(pid.0, first + i as u64), op + 1);
        }
        self.lanes
            .write(self.counter_idx(pid.0), first + ops.len() as u64);
    }

    /// Writes `pid`'s batch record for `height`: starting at lane
    /// `height mod n`, every announced op past the applied prefix `done`
    /// (`announced` is `pid`'s own counter), up to `max_batch` ops.
    /// With `reuse`, a record a predecessor incarnation fully wrote is
    /// kept as it is (a proposal may already name it). Returns the
    /// record's op count. Must precede the proposal.
    fn write_record(
        &self,
        pid: ProcId,
        height: u64,
        done: &[u64],
        announced: u64,
        reuse: bool,
    ) -> usize {
        let n = self.cfg.n;
        if reuse {
            let cells: Vec<u64> = (0..n)
                .map(|p| self.records.read(self.record_idx(height, pid.0, p)))
                .collect();
            if cells.iter().all(|&raw| raw != 0) {
                return cells
                    .iter()
                    .zip(done)
                    .map(|(raw, d)| raw - 1 - d)
                    .sum::<u64>() as usize;
            }
        }
        let mut room = self.cfg.max_batch as u64;
        let mut ends = done.to_vec();
        for off in 0..n {
            let p = (height as usize + off) % n;
            let high = if p == pid.0 {
                announced
            } else {
                self.announced_count(p)
            };
            let take = high.saturating_sub(done[p]).min(room);
            ends[p] += take;
            room -= take;
            if room == 0 {
                break;
            }
        }
        for (p, &end) in ends.iter().enumerate() {
            self.records
                .write(self.record_idx(height, pid.0, p), end + 1);
        }
        self.cfg.max_batch - room as usize
    }

    /// Proposes `pid` at `height`; blocks until the height decides and
    /// returns the winner.
    ///
    /// # Panics
    ///
    /// Panics if `height` exceeds the log's capacity.
    fn propose(&self, pid: ProcId, height: u64) -> usize {
        let slot = self
            .slots
            .get(height as usize)
            .unwrap_or_else(|| panic!("log height capacity ({}) exceeded", self.cfg.heights));
        slot.propose(pid, pid.0 as u64) as usize
    }

    /// Visits the ops of `winner`'s record at `height` in application
    /// order (lanes from `height mod n`, each lane's ops by seq),
    /// advancing `done` past them. Errors on a malformed record — one
    /// not written, or ending before the applied prefix.
    pub(crate) fn visit(
        &self,
        height: u64,
        winner: usize,
        done: &mut [u64],
        mut on_op: impl FnMut(usize, u64, u64),
    ) -> Result<(), String> {
        let n = self.cfg.n;
        let mut ends = Vec::with_capacity(n);
        for (p, &start) in done.iter().enumerate() {
            match self.records.read(self.record_idx(height, winner, p)) {
                raw if raw > start => ends.push(raw - 1),
                _ => {
                    return Err(format!(
                        "height {height}: p{winner}'s record cell for lane {p} is unwritten \
                         or behind the applied prefix"
                    ))
                }
            }
        }
        for off in 0..n {
            let p = (height as usize + off) % n;
            for seq in done[p]..ends[p] {
                let op = self
                    .announced_op(p, seq)
                    .ok_or_else(|| format!("height {height} commits unannounced op {p}/{seq}"))?;
                on_op(p, seq, op);
            }
            done[p] = ends[p];
        }
        Ok(())
    }

    /// Extends `lane` by the entry `winner` committed at `height`: its
    /// ops applied to the state (each `(lane, seq, response)` reported
    /// to `on_op`), the chained digest, the applied trail.
    fn extend(
        &self,
        lane: &mut Lane<T::State>,
        height: u64,
        winner: usize,
        mut on_op: impl FnMut(usize, u64, u64),
    ) -> Result<(), String> {
        let mut digest = digest_entry(lane.digest, height, winner as u64);
        let state = &mut lane.state;
        self.visit(height, winner, &mut lane.done, |p, seq, op| {
            digest = digest_op(digest, op);
            on_op(p, seq, self.object.apply(state, op));
        })?;
        lane.digest = digest;
        lane.applied.push(AppliedEntry {
            height,
            winner,
            digest,
        });
        Ok(())
    }

    /// Applies the entry `winner` committed at `height` to `lane`,
    /// pushing `(seq, response)` for the lane's own ops onto `responses`.
    /// Emits the `LogApply` event and fires the `log.apply-entry` chaos
    /// point.
    pub(crate) fn apply(
        &self,
        lane: &mut Lane<T::State>,
        height: u64,
        winner: usize,
        responses: &mut Vec<(u64, u64)>,
    ) {
        chaos::point(points::LOG_APPLY);
        let own = lane.pid.0;
        self.extend(lane, height, winner, |p, seq, response| {
            if p == own {
                responses.push((seq, response));
            }
        })
        .unwrap_or_else(|e| panic!("applying a decided height: {e}"));
        self.trace.emit(
            lane.pid,
            EventKind::LogApply {
                log: self.id,
                height,
                digest: lane.digest,
            },
        );
    }

    /// Records applier `lane`'s applied-prefix length in its ack register,
    /// unless the window can never bind (the frontier stops at the
    /// height capacity, so nothing would read the floor).
    pub(crate) fn set_applied(&self, lane: usize, count: u64) {
        debug_assert!(lane < self.cfg.lanes());
        if self.cfg.window < self.cfg.heights as u64 {
            self.lanes.write(lane as u64, count);
        }
    }

    /// The cluster-wide applied floor: min over every applier lane (0 on
    /// a log whose window is at least its height capacity: it writes no
    /// acks).
    pub fn applied_floor(&self) -> u64 {
        (0..self.cfg.lanes() as u64)
            .map(|a| self.lanes.read(a))
            .min()
            .expect("at least one lane")
    }

    /// A fresh applier lane (nothing applied).
    pub(crate) fn lane(&self, pid: ProcId) -> Lane<T::State> {
        Lane {
            pid,
            state: self.object.initial(),
            done: vec![0; self.cfg.n],
            digest: 0,
            applied: Vec::new(),
        }
    }

    /// Replays the decided prefix straight from the registers into a
    /// fresh lane, without telemetry or chaos points. Stops at the first
    /// undecided height, or at a malformed record (returned as the
    /// error).
    fn replay(&self, pid: ProcId) -> (Lane<T::State>, Option<String>) {
        let mut lane = self.lane(pid);
        let mut h = 0u64;
        while let Some(winner) = self.decision(h) {
            if let Err(e) = self.extend(&mut lane, h, winner, |_, _, _| {}) {
                return (lane, Some(e));
            }
            h += 1;
        }
        (lane, None)
    }

    /// The canonical applied sequence reconstructed from the registers,
    /// and the total op count across it.
    pub fn truth(&self) -> (Vec<AppliedEntry>, u64) {
        let (lane, _) = self.replay(ProcId(0));
        (lane.applied, lane.done.iter().sum())
    }

    /// The object state after the decided prefix, replayed from the
    /// registers (a read-only snapshot; not linearized against in-flight
    /// proposals).
    pub fn snapshot(&self) -> T::State {
        self.replay(ProcId(0)).0.state
    }

    /// Every committed op, in log order.
    pub fn committed_ops(&self) -> Vec<u64> {
        let mut ops = Vec::new();
        let mut done = vec![0; self.cfg.n];
        let mut h = 0;
        while let Some(winner) = self.decision(h) {
            if self
                .visit(h, winner, &mut done, |_, _, op| ops.push(op))
                .is_err()
            {
                break;
            }
            h += 1;
        }
        ops
    }

    /// Audits applier `lanes` against the register ground truth: every
    /// lane must be an in-order prefix of the one canonical sequence,
    /// and [`LogAudit::complete`] also asks every announced op to be
    /// committed.
    pub fn audit(&self, lanes: &[&[AppliedEntry]]) -> LogAudit {
        let (truth, malformed) = self.replay(ProcId(0));
        let announced = (0..self.cfg.n).map(|p| self.announced_count(p)).collect();
        let mut audit = LogAudit::check(truth.applied, truth.done, announced, lanes);
        if let Some(e) = malformed {
            audit.divergence.get_or_insert(e);
        }
        audit
    }
}

/// A proposing worker: announces ops on its lane, owns a
/// [`HeightStateMachine`], executes its effects against the log, and
/// applies committed entries in height order (applier lane = its pid).
pub struct LogWorker<T: Sequential, S: RegisterSpace = NativeSpace> {
    log: Arc<ReplicatedLog<T, S>>,
    machine: HeightStateMachine,
    lane: Lane<T::State>,
    responses: Vec<(u64, u64)>,
    batch_sizes: Vec<usize>,
    /// Until the first proposal: the height at which a lost predecessor
    /// incarnation may have left a record (see the module docs).
    prior_record: Option<u64>,
}

impl<T: Sequential, S: RegisterSpace> LogWorker<T, S> {
    /// A worker for proposer `pid` on a lane that has never announced
    /// (a fresh log). Use [`LogWorker::resumed`] to restart a lane.
    pub fn new(log: Arc<ReplicatedLog<T, S>>, pid: ProcId) -> LogWorker<T, S> {
        assert!(pid.0 < log.cfg.n, "worker pid out of range");
        let machine = HeightStateMachine::new(log.cfg.window);
        let lane = log.lane(pid);
        LogWorker {
            log,
            machine,
            lane,
            responses: Vec::new(),
            batch_sizes: Vec::new(),
            prior_record: None,
        }
    }

    /// A recovered incarnation of proposer `pid`: resynchronises from
    /// the registers by replaying the decided prefix into a fresh local
    /// state and reading the lane's announce counter. Ops the old
    /// incarnation announced but never saw committed stay pending and
    /// commit with this incarnation's next proposal (nobody awaits their
    /// responses); ops it *did* commit are in the replayed prefix,
    /// exactly once. If the old incarnation was lost mid-proposal, its
    /// record is re-proposed unchanged.
    pub fn resumed(log: Arc<ReplicatedLog<T, S>>, pid: ProcId) -> LogWorker<T, S> {
        assert!(pid.0 < log.cfg.n, "worker pid out of range");
        let (lane, malformed) = log.replay(pid);
        if let Some(e) = malformed {
            panic!("resuming over a malformed log: {e}");
        }
        let frontier = lane.applied.len() as u64;
        log.set_applied(pid.0, frontier);
        let machine = HeightStateMachine::resumed(
            log.cfg.window,
            frontier,
            lane.done[pid.0],
            log.announced_count(pid.0),
        );
        LogWorker {
            log,
            machine,
            lane,
            responses: Vec::new(),
            batch_sizes: Vec::new(),
            prior_record: Some(frontier),
        }
    }

    /// Announces `ops` on this worker's lane; returns the seq of the
    /// first (seqs are consecutive). A height's record commits at most
    /// `max_batch` ops, so a large enqueue spans several heights, and
    /// several small ones may share a height.
    pub fn enqueue(&mut self, ops: &[u64]) -> u64 {
        let first = self.machine.announced();
        self.log.announce(self.lane.pid, first, ops);
        self.machine.announce(ops.len() as u64);
        first
    }

    /// Ops announced on this lane (the next enqueue's first seq).
    pub fn announced(&self) -> u64 {
        self.machine.announced()
    }

    /// Ops announced on this lane but not yet committed.
    pub fn pending(&self) -> u64 {
        self.machine.pending()
    }

    /// This worker's decision frontier.
    pub fn frontier(&self) -> u64 {
        self.machine.frontier()
    }

    /// This worker's applied-prefix length.
    pub fn applied_len(&self) -> u64 {
        self.machine.applied()
    }

    /// The entries this worker has applied, in application order.
    pub fn applied_log(&self) -> &[AppliedEntry] {
        &self.lane.applied
    }

    /// The replicated object's local state (derived purely from the
    /// applied prefix).
    pub fn state(&self) -> &T::State {
        &self.lane.state
    }

    /// `(seq, response)` pairs for this lane's committed ops, in seq
    /// order, drained — whichever proposer's record committed them.
    pub fn take_responses(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.responses)
    }

    /// Op counts of the heights this worker's proposal won, drained —
    /// each decided height is reported by exactly one worker.
    pub fn take_batch_sizes(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.batch_sizes)
    }

    /// Applies decided height `height`, won by `winner`, locally.
    fn apply(&mut self, height: u64, winner: usize) {
        self.log
            .apply(&mut self.lane, height, winner, &mut self.responses);
        self.machine
            .observe_applied(height, self.lane.done[self.lane.pid.0]);
        self.log
            .set_applied(self.lane.pid.0, self.machine.applied());
    }

    /// Executes the state machine's next effect. Returns whether
    /// anything advanced (false = idle; the caller may yield).
    pub fn pump(&mut self) -> bool {
        match self.machine.next_effect() {
            Effect::Apply { height } => {
                let winner = self
                    .log
                    .decision(height)
                    .expect("applying a decided height");
                self.apply(height, winner);
                true
            }
            Effect::Publish { height } => {
                let pid = self.lane.pid;
                let winner = match self.log.decision(height) {
                    // Another proposer beat us to the frontier: our
                    // pending ops ride the next height.
                    Some(winner) => winner,
                    None => {
                        chaos::point(points::LOG_PROPOSE);
                        let reuse = self.prior_record.take() == Some(height);
                        let size = self.log.write_record(
                            pid,
                            height,
                            &self.lane.done,
                            self.machine.announced(),
                            reuse,
                        );
                        let winner = {
                            let _consensus = Span::enter(&self.log.trace, "consensus");
                            self.log.propose(pid, height)
                        };
                        if winner == pid.0 {
                            self.log.trace.emit(
                                pid,
                                EventKind::HeightDecide {
                                    log: self.log.id,
                                    height,
                                    winner: winner as u64,
                                    size: size as u64,
                                },
                            );
                            self.batch_sizes.push(size);
                        }
                        winner
                    }
                };
                self.machine.observe_decided(height);
                self.apply(height, winner);
                true
            }
            Effect::Poll { height } => {
                let decided = self.log.decision(height).is_some();
                if decided {
                    self.machine.observe_decided(height);
                }
                decided
            }
            Effect::RefreshFloor => {
                let heights = self.log.cfg.heights;
                if self.machine.frontier() >= heights as u64 {
                    panic!("log height capacity ({heights}) exceeded");
                }
                let before = self.machine.in_flight();
                self.machine.observe_floor(self.log.applied_floor());
                self.machine.in_flight() != before
            }
        }
    }

    /// Pumps until every announced op has committed and the local
    /// applied prefix has caught up with the frontier.
    ///
    /// When the pipeline window binds, progress requires every other
    /// applier lane (workers *and* replicas) to keep advancing the floor
    /// concurrently — in a single-threaded setting, interleave
    /// [`LogWorker::pump`] with the other lanes' polls instead.
    pub fn drive(&mut self) {
        while self.machine.pending() > 0 || self.machine.applied() < self.machine.frontier() {
            if !self.pump() {
                std::thread::yield_now();
            }
        }
    }

    /// Keeps replicating (polling and applying other proposers'
    /// decisions) until `target` heights are applied locally.
    pub fn sync_to(&mut self, target: u64) {
        while self.machine.applied() < target {
            if !self.pump() {
                std::thread::yield_now();
            }
        }
    }
}

/// A passive replica: applies committed entries in height order on its
/// own applier lane (`n + rid`), never proposes.
pub struct LogReplica<T: Sequential, S: RegisterSpace = NativeSpace> {
    log: Arc<ReplicatedLog<T, S>>,
    lane: Lane<T::State>,
}

impl<T: Sequential, S: RegisterSpace> LogReplica<T, S> {
    /// Replica `rid`'s applier, on lane `n + rid`.
    pub fn new(log: Arc<ReplicatedLog<T, S>>, rid: usize) -> LogReplica<T, S> {
        assert!(rid < log.cfg.replicas, "replica id out of range");
        let lane = log.lane(ProcId(log.cfg.n + rid));
        LogReplica { log, lane }
    }

    /// Applies every currently decided, not-yet-applied height in
    /// order; returns how many entries were applied.
    pub fn poll(&mut self) -> usize {
        let start = self.applied_len();
        let mut next = start;
        while let Some(winner) = self.log.decision(next) {
            self.log
                .apply(&mut self.lane, next, winner, &mut Vec::new());
            next += 1;
            self.log.set_applied(self.lane.pid.0, next);
        }
        (next - start) as usize
    }

    /// This replica's applied-prefix length.
    pub fn applied_len(&self) -> u64 {
        self.lane.applied.len() as u64
    }

    /// The entries this replica has applied, in application order.
    pub fn applied_log(&self) -> &[AppliedEntry] {
        &self.lane.applied
    }

    /// The replicated object's local state.
    pub fn state(&self) -> &T::State {
        &self.lane.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_core::universal::{Counter, FifoQueue};

    fn cfg(n: usize) -> LogConfig {
        LogConfig {
            n,
            replicas: 2,
            heights: 32,
            max_batch: 4,
            window: 2,
            delta: Duration::from_micros(10),
        }
    }

    #[test]
    fn solo_worker_commits_and_applies_in_order() {
        let mut c = cfg(1);
        c.max_batch = 2;
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        assert_eq!(w.enqueue(&[5, 7]), 0);
        assert_eq!(w.enqueue(&[1]), 2);
        w.drive();
        assert_eq!(*w.state(), 13);
        assert_eq!(
            w.take_responses(),
            vec![(0, 5), (1, 12), (2, 13)],
            "responses carry the running total in seq order"
        );
        assert_eq!(w.take_batch_sizes(), vec![2, 1], "max_batch splits");
        let heights: Vec<u64> = w.applied_log().iter().map(|e| e.height).collect();
        assert_eq!(heights, vec![0, 1]);
    }

    #[test]
    fn replicas_converge_to_the_worker_prefix() {
        let mut c = cfg(1);
        c.max_batch = 1;
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        let mut r0 = LogReplica::new(Arc::clone(&log), 0);
        let mut r1 = LogReplica::new(Arc::clone(&log), 1);
        for b in 0..6u64 {
            w.enqueue(&[b + 1]);
        }
        // Single-threaded: interleave the lanes so the replicas keep the
        // applied floor (and with it the pipeline window) moving.
        while w.pending() > 0 || w.applied_len() < 6 {
            w.pump();
            r0.poll();
            r1.poll();
        }
        r0.poll();
        r1.poll();
        assert_eq!(*r0.state(), 21);
        assert_eq!(*r1.state(), 21);
        let audit = log.audit(&[w.applied_log(), r0.applied_log(), r1.applied_log()]);
        assert!(audit.complete(), "{:?}", audit.divergence);
        assert_eq!(audit.heights_decided, 6);
        assert_eq!(audit.total_ops, 6);
        assert_eq!(log.snapshot(), 21);
    }

    #[test]
    fn contending_workers_serialize_every_op_exactly_once() {
        // No passive replicas: the worker threads themselves are the
        // applier lanes advancing the floor, so each keeps applying
        // until all 12 heights (one op each) are in.
        let mut c = cfg(3);
        c.replicas = 0;
        c.max_batch = 1;
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        let total: u64 = std::thread::scope(|s| {
            (0..3)
                .map(|p| {
                    let log = Arc::clone(&log);
                    s.spawn(move || {
                        let mut w = LogWorker::new(log, ProcId(p));
                        for b in 0..4u64 {
                            w.enqueue(&[100 * p as u64 + b + 1]);
                        }
                        w.drive();
                        w.sync_to(12);
                        assert_eq!(w.applied_len(), 12);
                        *w.state()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<u64>()
        });
        let expected: u64 = (0..3)
            .flat_map(|p| (0..4).map(move |b| 100 * p + b + 1))
            .sum();
        // All three workers applied all 12 ops: same final total.
        assert_eq!(total, 3 * expected);
        let audit = log.audit(&[]);
        assert!(audit.complete(), "{audit:?}");
        assert_eq!((audit.heights_decided, audit.total_ops), (12, 12));
    }

    #[test]
    fn a_silent_lanes_announced_ops_commit_through_helping() {
        let mut c = cfg(2);
        c.replicas = 0;
        c.window = c.heights as u64;
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        let mut silent = LogWorker::new(Arc::clone(&log), ProcId(0));
        silent.enqueue(&[40, 2]);
        let mut helper = LogWorker::new(Arc::clone(&log), ProcId(1));
        helper.enqueue(&[100]);
        helper.drive();
        assert_eq!(*helper.state(), 142, "lane 0's ops rode lane 1's record");
        assert_eq!(helper.take_responses(), vec![(0, 142)]);
        assert!(log.audit(&[helper.applied_log()]).complete());
    }

    #[test]
    fn queue_object_replicates_fifo_order() {
        let log = Arc::new(ReplicatedLog::new(FifoQueue, cfg(1)));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        w.enqueue(&[FifoQueue::enqueue_op(11), FifoQueue::enqueue_op(22)]);
        w.enqueue(&[FifoQueue::DEQUEUE, FifoQueue::DEQUEUE, FifoQueue::DEQUEUE]);
        w.drive();
        let resps: Vec<u64> = w.take_responses().into_iter().map(|(_, r)| r).collect();
        // Dequeues return value + 1 (0 = empty): FIFO order, then empty.
        assert_eq!(resps[2..], [12, 23, 0]);
    }

    #[test]
    fn resumed_incarnation_replays_the_prefix_and_commits_orphans() {
        let mut c = cfg(1);
        c.replicas = 0; // the worker is the only applier lane
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        w.enqueue(&[3]);
        w.drive();
        w.enqueue(&[4]); // announced, then the incarnation "crashes"
        drop(w);
        let mut w2 = LogWorker::resumed(Arc::clone(&log), ProcId(0));
        assert_eq!(*w2.state(), 3, "recovered state replays the prefix");
        assert_eq!(w2.frontier(), 1);
        assert_eq!(w2.pending(), 1, "the orphaned announce is still pending");
        assert_eq!(w2.enqueue(&[10]), 2, "seqs continue from the registers");
        w2.drive();
        assert_eq!(*w2.state(), 17);
        let audit = log.audit(&[w2.applied_log()]);
        assert!(audit.complete(), "{:?}", audit.divergence);
    }

    #[test]
    fn a_record_named_by_a_lost_proposal_never_changes() {
        use std::sync::mpsc;
        use std::sync::Mutex;
        use tfr_registers::chaos::{
            install_point_observer, run_as, ChaosSession, Fault, FaultAction, PointObserver,
            ThreadOutcome,
        };

        /// At pid 0's next `log.propose-batch` visit, lets the peer run
        /// and waits until it is done.
        struct Handoff(Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>);
        impl PointObserver for Handoff {
            fn point_hit(&self, pid: ProcId, point: &'static str) {
                if pid.0 != 0 || point != points::LOG_PROPOSE {
                    return;
                }
                if let Some((go, done)) = self.0.lock().unwrap().take() {
                    go.send(()).unwrap();
                    done.recv().unwrap();
                }
            }
            fn fault_fired(&self, _: ProcId, _: &'static str, _: Duration, _: bool) {}
        }

        let mut c = cfg(2);
        c.replicas = 0;
        c.window = c.heights as u64;
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        // A solo bit passes `consensus.round` twice, so pid 0's 16th
        // visit comes after all 8 bits of height 0 decided its pid but
        // before the result is written: a proposal names its record,
        // and the height is still undecided.
        let _session = ChaosSession::install(&[Fault {
            pid: ProcId(0),
            point: points::CONSENSUS_ROUND,
            nth: 16,
            action: FaultAction::CrashRecover(Duration::ZERO),
        }]);
        let lost = run_as(ProcId(0), || {
            let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
            w.enqueue(&[1, 2]);
            w.drive();
        });
        assert!(matches!(lost, ThreadOutcome::CrashedRecoverable(_)));
        assert_eq!(log.decision(0), None);

        let (go_tx, go_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let _observer =
            install_point_observer(Arc::new(Handoff(Mutex::new(Some((go_tx, done_rx))))));
        let (mut resumed, mut peer) = std::thread::scope(|s| {
            // The peer (unregistered, so unobserved) proposes at height
            // 0 while the resumed incarnation sits between its decision
            // check and its record write, adopts pid 0 and applies the
            // lost proposal's record.
            let log = &log;
            let peer = s.spawn(move || {
                go_rx.recv().unwrap();
                let mut peer = LogWorker::new(Arc::clone(log), ProcId(1));
                peer.enqueue(&[100]);
                assert!(peer.pump());
                assert_eq!(log.decision(0), Some(0), "the peer adopted pid 0");
                done_tx.send(()).unwrap();
                peer
            });
            let resumed = run_as(ProcId(0), || {
                let mut w = LogWorker::resumed(Arc::clone(log), ProcId(0));
                w.enqueue(&[10, 20]);
                assert!(w.pump(), "publishes at height 0, decided meanwhile");
                w
            });
            let ThreadOutcome::Completed(resumed) = resumed else {
                panic!("no fault left for the resumed incarnation")
            };
            (resumed, peer.join().unwrap())
        });
        assert_eq!(*peer.state(), 3, "the peer applied the lost record");
        assert_eq!(*resumed.state(), 3, "height 0's record did not change");
        resumed.drive();
        peer.drive();
        let top = resumed.frontier().max(peer.frontier());
        resumed.sync_to(top);
        peer.sync_to(top);
        assert_eq!((*resumed.state(), *peer.state()), (133, 133));
        let audit = log.audit(&[resumed.applied_log(), peer.applied_log()]);
        assert!(audit.complete(), "{:?}", audit.divergence);
    }

    #[test]
    #[should_panic(expected = "log height capacity (2) exceeded")]
    fn a_full_log_panics_even_when_a_lane_never_applies() {
        // Window = capacity: no acks, the floor reads 0, and lane 1
        // never applies — the third op must fail loudly, not spin on
        // the floor.
        let mut c = cfg(2);
        c.replicas = 0;
        c.heights = 2;
        c.window = 2;
        c.max_batch = 1;
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        let mut w = LogWorker::new(log, ProcId(0));
        w.enqueue(&[1, 2, 3]);
        w.drive();
    }

    /// A native space that counts every access reaching it.
    #[derive(Default)]
    struct CountingSpace {
        inner: NativeSpace,
        reads: std::sync::atomic::AtomicU64,
        writes: std::sync::atomic::AtomicU64,
    }

    impl CountingSpace {
        /// `(reads, writes)` since the last call.
        fn take(&self) -> (u64, u64) {
            use std::sync::atomic::Ordering::SeqCst;
            (self.reads.swap(0, SeqCst), self.writes.swap(0, SeqCst))
        }
    }

    impl RegisterSpace for CountingSpace {
        fn read(&self, index: u64) -> u64 {
            self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.read(index)
        }
        fn write(&self, index: u64, value: u64) {
            self.writes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.write(index, value);
        }
    }

    #[test]
    fn a_solo_height_costs_exactly_announce_record_decision_apply() {
        let space = Arc::new(CountingSpace::default());
        let mut c = cfg(1);
        c.replicas = 0;
        let log = Arc::new(ReplicatedLog::on(Counter, c, Arc::clone(&space)));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        w.enqueue(&[5, 7]);
        assert_eq!(space.take(), (0, 3), "announce: 2 payloads, 1 counter");
        assert!(w.pump(), "one pump proposes, decides and applies");
        assert_eq!(*w.state(), 12);
        // A solo Algorithm 1 instance: read decide, write x, read y,
        // write y, read x[other], write decide, read decide — 4R + 3W,
        // and the height's 8-bit pid decision runs one per bit.
        let (bit_r, bit_w) = (4, 3);
        // Publish: read the height's decision (undecided), write the
        // 1-cell record; MultiConsensus: write its announce, 8 bits,
        // write its result. Apply: read the record cell and the 2
        // payloads (the winner came back from the proposal), write the
        // ack.
        let reads = 1 + 8 * bit_r + 3;
        let writes = 1 + (1 + 8 * bit_w + 1) + 1;
        assert_eq!(space.take(), (reads, writes));
    }

    #[test]
    fn window_one_keeps_frontier_at_the_floor() {
        // With a replica that never polls, a window-1 worker must stall
        // after one height rather than run ahead.
        let mut c = cfg(1);
        c.window = 1;
        c.replicas = 1;
        c.max_batch = 1;
        let log = Arc::new(ReplicatedLog::new(Counter, c));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        let mut r = LogReplica::new(Arc::clone(&log), 0);
        w.enqueue(&[1]);
        w.enqueue(&[2]);
        for _ in 0..64 {
            w.pump();
        }
        assert_eq!(w.frontier(), 1, "window 1 stalls until the replica acks");
        r.poll();
        w.drive();
        assert_eq!(w.frontier(), 2);
    }
}
