//! The pure height state machine: all pipelining decisions, no substrate.
//!
//! Following the height/round architecture of Malachite-style consensus
//! engines, every decision about *what to do next* — propose at which
//! height, apply which committed entry, stall on the pipeline window —
//! lives in a deterministic, I/O-free state machine. The impure driver
//! ([`crate::LogWorker`]) merely executes the returned [`Effect`] against
//! the register space and feeds observations back. That separation is
//! what makes the pipelining logic unit-testable: the tests below
//! exercise window bounding, in-order application, and re-proposing
//! uncommitted ops without a single register or thread.
//!
//! # The pipeline
//!
//! Heights are decided in order (a proposer only ever proposes at the
//! lowest height it has not seen decided, and only after applying every
//! height below it), but *application lags decision* on the other lanes:
//! the machine allows the decision frontier to run up to `window`
//! heights ahead of the slowest applier in the cluster. With
//! `window = 1` the machine is the sequential-heights baseline — every
//! replica must apply height `h` before anyone proposes at `h + 1`.
//! With `window = w > 1`, consensus on `h + 1` overlaps the propagation
//! (replica application) of `h` — commit pipelining.
//!
//! # Pending ops
//!
//! The machine tracks its own lane's announced ops and how many of them
//! the applied prefix already holds. Whoever wins a height commits ops
//! of every lane (helping), so "pending" is simply announced minus
//! committed: there is no per-batch bookkeeping to requeue when another
//! proposer wins.

/// What the driver must do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Write this proposer's batch record for `height` and propose it at
    /// that height's consensus instance. The driver reports the outcome
    /// via [`HeightStateMachine::observe_decided`].
    Publish {
        /// The height to propose at (the machine's decision frontier).
        height: u64,
    },
    /// Read the decision register at `height` and report a decision, if
    /// any, via [`HeightStateMachine::observe_decided`]. Emitted when
    /// the lane has nothing to propose but the frontier may have been
    /// advanced by other proposers.
    Poll {
        /// The frontier height to poll.
        height: u64,
    },
    /// Apply the committed entry at `height` to the local state machine
    /// and report completion via [`HeightStateMachine::observe_applied`].
    Apply {
        /// The next unapplied height (always sequential).
        height: u64,
    },
    /// The pipeline window is full: re-read the cluster-wide applied
    /// floor (min over all ack registers) and report it via
    /// [`HeightStateMachine::observe_floor`].
    RefreshFloor,
}

/// The pure replicated-log proposer/applier state machine.
///
/// # Example
///
/// ```
/// use tfr_log::machine::{Effect, HeightStateMachine};
///
/// let mut m = HeightStateMachine::new(2); // pipeline window 2
/// m.announce(16); // this lane announced 16 ops
/// // Nothing applied anywhere yet, but the window lets height 0 fly.
/// assert_eq!(m.next_effect(), Effect::Publish { height: 0 });
/// m.observe_decided(0);
/// assert_eq!(m.next_effect(), Effect::Apply { height: 0 });
/// m.observe_applied(0, 8); // height 0 committed 8 of our ops
/// // The cluster floor is still 0 — no *other* applier has applied
/// // height 0 — yet the window lets height 1 fly: commit pipelining.
/// assert_eq!(m.next_effect(), Effect::Publish { height: 1 });
/// ```
#[derive(Debug, Clone)]
pub struct HeightStateMachine {
    /// Lowest height not known decided (the proposal frontier).
    frontier: u64,
    /// Next height to apply locally (applied prefix = `0..next_apply`).
    next_apply: u64,
    /// Last observed cluster-wide applied floor (min over ack registers).
    floor: u64,
    /// Max heights the frontier may run ahead of the floor (≥ 1).
    window: u64,
    /// Ops this lane has announced.
    announced: u64,
    /// Ops of this lane the local applied prefix holds.
    committed: u64,
}

impl HeightStateMachine {
    /// A machine with the given pipeline window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (window 1 is the sequential baseline).
    pub fn new(window: u64) -> HeightStateMachine {
        HeightStateMachine::resumed(window, 0, 0, 0)
    }

    /// Resumes a machine from a recovered register scan: `frontier`
    /// heights are known decided and applied locally, holding
    /// `committed` of this lane's `announced` ops (a fresh incarnation
    /// replays the registers, then resumes here; its predecessor's
    /// uncommitted announces are still pending).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `committed > announced`.
    pub fn resumed(
        window: u64,
        frontier: u64,
        committed: u64,
        announced: u64,
    ) -> HeightStateMachine {
        assert!(window > 0, "a zero window can never commit anything");
        assert!(
            committed <= announced,
            "cannot have committed an unannounced op"
        );
        HeightStateMachine {
            frontier,
            next_apply: frontier,
            floor: 0,
            window,
            announced,
            committed,
        }
    }

    /// The lane announced `count` more ops.
    pub fn announce(&mut self, count: u64) {
        self.announced += count;
    }

    /// Ops this lane has announced.
    pub fn announced(&self) -> u64 {
        self.announced
    }

    /// Ops announced but not yet in the local applied prefix.
    pub fn pending(&self) -> u64 {
        self.announced - self.committed
    }

    /// The proposal frontier: lowest height not known decided.
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// The local applied prefix length.
    pub fn applied(&self) -> u64 {
        self.next_apply
    }

    /// Heights decided but not yet applied by the slowest applier — the
    /// pipeline depth currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.frontier.saturating_sub(self.floor)
    }

    /// The driver observed the cluster-wide applied floor (min over all
    /// appliers' ack registers, including this one).
    pub fn observe_floor(&mut self, floor: u64) {
        // The floor is monotone; a stale read can only lower it, and
        // lowering would re-tighten the window for no reason.
        self.floor = self.floor.max(floor);
    }

    /// The driver observed that `height` is decided. Heights are
    /// observed in order (the driver polls/proposes only at the
    /// frontier).
    ///
    /// # Panics
    ///
    /// Panics if `height` is not the frontier — the driver must never
    /// skip a height, that is the prefix-order contract.
    pub fn observe_decided(&mut self, height: u64) {
        assert_eq!(
            height, self.frontier,
            "decisions must be observed in height order"
        );
        self.frontier += 1;
    }

    /// The driver finished applying `height` locally; the applied prefix
    /// now holds `committed` of this lane's ops.
    ///
    /// # Panics
    ///
    /// Panics if `height` is out of order — application is strictly
    /// sequential, that is the safety argument for pipelining — or the
    /// prefix claims ops the lane never announced.
    pub fn observe_applied(&mut self, height: u64, committed: u64) {
        assert_eq!(height, self.next_apply, "entries apply in height order");
        assert!(
            committed <= self.announced,
            "a height committed an unannounced op"
        );
        self.next_apply += 1;
        self.committed = committed;
    }

    /// What the driver should do now. Pure: no observation, no I/O —
    /// call again after feeding the observation back.
    pub fn next_effect(&self) -> Effect {
        // Apply anything decided-but-unapplied first: a record is built
        // from the applied prefix, so a proposer must be caught up.
        if self.next_apply < self.frontier {
            return Effect::Apply {
                height: self.next_apply,
            };
        }
        if self.pending() == 0 {
            // Nothing to propose: watch the frontier for other
            // proposers' decisions so this applier keeps replicating.
            return Effect::Poll {
                height: self.frontier,
            };
        }
        // Propose only inside the pipeline window. The frontier may run
        // at most `window` heights past the slowest applier: with
        // window 1, every replica must finish h before h+1 starts
        // (sequential heights); larger windows overlap consensus on
        // h+1 with the propagation of h.
        if self.frontier < self.floor + self.window {
            Effect::Publish {
                height: self.frontier,
            }
        } else {
            Effect::RefreshFloor
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the machine with an in-memory "cluster" where every height
    /// commits up to `per_height` of our ops and the slowest other
    /// applier trails by `applier_lag` heights; returns the max
    /// in-flight depth ever reached.
    fn drive_to_completion(mut m: HeightStateMachine, ops: u64, applier_lag: u64) -> u64 {
        const PER_HEIGHT: u64 = 2;
        m.announce(ops);
        let mut max_depth = 0;
        let mut committed = 0;
        let mut guard = 0;
        while m.pending() > 0 || m.applied() < m.frontier() {
            guard += 1;
            assert!(guard < 10_000, "machine livelocked");
            match m.next_effect() {
                Effect::Publish { height } => {
                    m.observe_decided(height);
                    max_depth = max_depth.max(m.in_flight());
                }
                Effect::Apply { height } => {
                    committed = (committed + PER_HEIGHT).min(ops);
                    m.observe_applied(height, committed);
                    let cluster_applied = (height + 1).saturating_sub(applier_lag);
                    m.observe_floor(cluster_applied.min(m.applied()));
                }
                Effect::RefreshFloor => {
                    // Simulate the laggard eventually catching up.
                    m.observe_floor(m.applied());
                }
                Effect::Poll { .. } => {}
            }
        }
        max_depth
    }

    #[test]
    fn window_bounds_in_flight_depth() {
        for window in 1..=4u64 {
            let depth = drive_to_completion(HeightStateMachine::new(window), 24, 2);
            assert!(
                depth <= window,
                "window {window} exceeded: depth {depth} in flight"
            );
        }
    }

    #[test]
    fn sequential_window_never_overlaps() {
        // Window 1: the frontier never gets more than one height past
        // the slowest applier — the sequential-heights baseline.
        assert_eq!(drive_to_completion(HeightStateMachine::new(1), 16, 0), 1);
    }

    #[test]
    fn pipelined_window_actually_pipelines() {
        // With a laggy applier and window 3, the machine must drive the
        // frontier ahead of the floor — that is the whole point.
        let depth = drive_to_completion(HeightStateMachine::new(3), 24, 2);
        assert!(depth >= 2, "pipelining never engaged (depth {depth})");
    }

    #[test]
    fn a_proposer_applies_up_to_the_frontier_before_publishing() {
        let mut m = HeightStateMachine::new(4);
        m.announce(3);
        // Two heights decided by others before we got to propose.
        m.observe_decided(0);
        m.observe_decided(1);
        assert_eq!(m.next_effect(), Effect::Apply { height: 0 });
        m.observe_applied(0, 0);
        assert_eq!(m.next_effect(), Effect::Apply { height: 1 });
        m.observe_applied(1, 1); // height 1 helped one of our ops
        assert_eq!(m.pending(), 2);
        assert_eq!(m.next_effect(), Effect::Publish { height: 2 });
    }

    #[test]
    #[should_panic(expected = "height order")]
    fn out_of_order_apply_is_rejected() {
        let mut m = HeightStateMachine::new(4);
        m.announce(1);
        m.observe_decided(0);
        m.observe_applied(1, 1); // skips height 0
    }

    #[test]
    fn ops_left_out_of_a_lost_height_ride_the_next_proposal() {
        let mut m = HeightStateMachine::new(8);
        m.announce(5);
        assert_eq!(m.next_effect(), Effect::Publish { height: 0 });
        // Another proposer won height 0 and its record held 2 of our 5.
        m.observe_decided(0);
        m.observe_applied(0, 2);
        assert_eq!(m.next_effect(), Effect::Publish { height: 1 });
        m.observe_decided(1);
        m.observe_applied(1, 5);
        assert_eq!(m.pending(), 0);
        assert_eq!(m.next_effect(), Effect::Poll { height: 2 });
    }

    #[test]
    fn window_stall_asks_for_a_floor_refresh() {
        let mut m = HeightStateMachine::new(1);
        m.announce(2);
        m.observe_decided(0);
        m.observe_applied(0, 1);
        // Locally applied, but the cluster floor is still 0: with
        // window 1 the machine must wait for the floor, not propose.
        assert_eq!(m.next_effect(), Effect::RefreshFloor);
        m.observe_floor(1);
        assert_eq!(m.next_effect(), Effect::Publish { height: 1 });
    }

    #[test]
    fn idle_machine_polls_the_frontier() {
        let m = HeightStateMachine::new(2);
        assert_eq!(m.next_effect(), Effect::Poll { height: 0 });
    }

    #[test]
    fn resumed_machine_keeps_its_predecessors_pending_ops() {
        let m = HeightStateMachine::resumed(8, 5, 3, 4);
        assert_eq!(m.frontier(), 5);
        assert_eq!(m.applied(), 5);
        assert_eq!(m.pending(), 1, "the orphaned announce still commits");
        assert_eq!(m.next_effect(), Effect::Publish { height: 5 });
    }

    #[test]
    fn floor_is_monotone_under_stale_reads() {
        let mut m = HeightStateMachine::new(2);
        m.observe_floor(4);
        m.observe_floor(2); // a stale ack-register scan
        m.announce(1);
        // Frontier 0 < floor 4 + window: still proposable, the stale
        // read did not re-tighten the window.
        assert!(matches!(m.next_effect(), Effect::Publish { .. }));
    }
}
