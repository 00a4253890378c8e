//! Intentionally broken log appliers, used to prove the verifiers have
//! teeth: if an applier can violate the prefix-order contract without
//! the audit *and* the online monitor both flagging it, the checks are
//! vacuous.

use std::sync::Arc;

use tfr_core::universal::Sequential;
use tfr_registers::rng::SplitMix64;
use tfr_registers::space::{NativeSpace, RegisterSpace};
use tfr_registers::ProcId;

use crate::audit::AppliedEntry;
use crate::log::{Lane, ReplicatedLog};

/// A replica that applies one pair of adjacent committed heights in the
/// wrong order — `h + 1` before `h` — at a seeded opportunity, then
/// behaves correctly forever after.
///
/// The bug models the classic pipelining mistake: applying a decision
/// as soon as it lands instead of waiting for the height below it. Each
/// of the two entries still commits its own ops, so the final state of
/// a commutative object is right; but one swap is enough to diverge the
/// chained prefix digest at the swap point, so [`crate::LogAudit`]
/// rejects the lane (out-of-order heights) and the prefix monitor flags
/// both the height-sequence skip and the digest mismatch online.
pub struct ReorderingApplier<T: Sequential, S: RegisterSpace = NativeSpace> {
    log: Arc<ReplicatedLog<T, S>>,
    lane: Lane<T::State>,
    rng: SplitMix64,
    fired: bool,
}

impl<T: Sequential, S: RegisterSpace> ReorderingApplier<T, S> {
    /// A buggy replica on lane `n + rid`, with the swap opportunity
    /// chosen by `seed`.
    pub fn new(log: Arc<ReplicatedLog<T, S>>, rid: usize, seed: u64) -> ReorderingApplier<T, S> {
        assert!(rid < log.config().replicas, "replica id out of range");
        let lane = log.lane(ProcId(log.config().n + rid));
        ReorderingApplier {
            log,
            lane,
            rng: SplitMix64::new(seed),
            fired: false,
        }
    }

    /// Whether the seeded swap has happened yet.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The entries this applier actually applied, in its (possibly
    /// wrong) application order.
    pub fn applied_log(&self) -> &[AppliedEntry] {
        &self.lane.applied
    }

    /// The (possibly corrupted) local object state.
    pub fn state(&self) -> &T::State {
        &self.lane.state
    }

    fn apply_one(&mut self, height: u64, winner: usize) {
        self.log
            .apply(&mut self.lane, height, winner, &mut Vec::new());
    }

    /// Like [`crate::LogReplica::poll`], but with the seeded swap:
    /// whenever two adjacent heights are both decided and the coin
    /// fires (once), they are applied in the wrong order.
    pub fn poll(&mut self) -> usize {
        let start = self.lane.applied.len() as u64;
        let mut next = start;
        while let Some(w0) = self.log.decision(next) {
            match self.log.decision(next + 1) {
                Some(w1) if !self.fired && self.rng.random_bool(0.5) => {
                    // The bug: h+1 applied before h. The cursor first
                    // skips h's record so h+1 commits its own ops.
                    let before = self.lane.done.clone();
                    self.log
                        .visit(next, w0, &mut self.lane.done, |_, _, _| {})
                        .expect("a decided height has a record");
                    self.apply_one(next + 1, w1);
                    let after = std::mem::replace(&mut self.lane.done, before);
                    self.apply_one(next, w0);
                    self.lane.done = after;
                    self.fired = true;
                    next += 2;
                }
                _ => {
                    self.apply_one(next, w0);
                    next += 1;
                }
            }
            self.log.set_applied(self.lane.pid.0, next);
        }
        (next - start) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogConfig, LogWorker};
    use std::time::Duration;
    use tfr_core::universal::Counter;

    #[test]
    fn the_swap_eventually_fires_and_the_audit_rejects_it() {
        let cfg = LogConfig {
            n: 1,
            replicas: 1,
            heights: 32,
            max_batch: 1,
            window: 4,
            delta: Duration::from_micros(10),
        };
        let log = Arc::new(ReplicatedLog::new(Counter, cfg));
        let mut w = LogWorker::new(Arc::clone(&log), ProcId(0));
        let mut bad = ReorderingApplier::new(Arc::clone(&log), 0, 0xBAD5EED);
        for b in 0..10u64 {
            w.enqueue(&[b + 1]);
        }
        // Interleave, but poll the mutant only every few pumps so it
        // regularly finds two decided heights at once (the window keeps
        // the worker at most 4 ahead, so the floor still moves).
        let mut i = 0u32;
        while w.pending() > 0 || w.applied_len() < 10 {
            w.pump();
            if i.is_multiple_of(4) {
                bad.poll();
            }
            i += 1;
        }
        bad.poll();
        assert!(bad.fired(), "ten adjacent pairs: the coin must fire");
        let audit = log.audit(&[w.applied_log(), bad.applied_log()]);
        assert!(!audit.converged(), "the audit must reject the mutant");
        assert!(!audit.in_order, "the swap is an ordering violation");
        assert_eq!(*bad.state(), 55, "each entry still committed its own op");
    }
}
