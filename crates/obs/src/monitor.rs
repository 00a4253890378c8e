//! Online invariant monitors: streaming checkers that consume the event
//! stream *while the workload runs* and flag safety violations the moment
//! the evidence arrives.
//!
//! # Soundness contract
//!
//! Every monitor here is **sound but not complete**: a raised
//! [`Violation`] is a true violation of the stated invariant (assuming
//! honest event emission), but the *absence* of a flag proves nothing —
//! the violating events may have been dropped by a full ring, pruned from
//! a monitor's bounded memory, or simply never sampled. This is the only
//! honest contract an online checker over a lossy, multi-lane event
//! stream can offer; quiescent-state proofs stay with the audit and the
//! linearizability checkers.
//!
//! A check whose flag rests on an event *not* having happened (a height
//! skip: "this lane never applied the height in between") cannot be
//! proven once the ring has dropped events, so the bank is told the
//! tracer's drop count ([`MonitorBank::note_dropped`]) and such checks
//! stand down and report their verdict as unknown
//! ([`MonitorBank::unknown`]) instead of flagging.
//!
//! # Arrival-order robustness
//!
//! Monitors receive events lane by lane (per-process order preserved, no
//! cross-lane merge — the contract of
//! [`tfr_telemetry::Tracer::drain_new`]). Each monitor therefore keys its
//! state per process where per-lane order suffices
//! ([`QuorumMonitor`], [`RecoveryMonitor`]), or reasons only about
//! *completed* intervals with explicit timestamps where cross-lane
//! comparison is needed ([`MutexMonitor`]), or uses order-free set logic
//! ([`LogPrefixMonitor`]'s digest and winner checks). None of them can be
//! fooled into a false positive by lanes arriving in any interleaving.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use tfr_telemetry::json::Json;
use tfr_telemetry::{Event, EventKind};

/// Completed critical-section intervals kept for cross-lane overlap
/// checks before old ones are pruned. Bounds memory; pruning can only
/// cost detections, never invent them.
const MUTEX_INTERVALS_KEPT: usize = 4096;

/// A monitor's verdict that an invariant was violated, with the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which monitor raised it (`"mutex"`, `"quorum"`, `"recovery"`,
    /// `"log"`).
    pub monitor: &'static str,
    /// Timestamp of the event that completed the evidence.
    pub ts_ns: u64,
    /// Human-readable description of the violated invariant instance.
    pub detail: String,
}

impl Violation {
    fn json(&self) -> Json {
        Json::obj([
            ("monitor", Json::str(self.monitor)),
            ("ts_ns", Json::Num(self.ts_ns as f64)),
            ("detail", Json::str(&self.detail)),
        ])
    }
}

/// Streams lock events and flags **mutual-exclusion intrusions**: two
/// completed critical-section intervals on different processes that
/// strictly overlap in time.
///
/// An interval opens at `LockAcquired` and closes at the same lane's next
/// `LockReleased`. Only *completed* intervals are compared, so a lane
/// drained late can never produce a false positive — at worst a real
/// overlap goes unflagged until its release event arrives.
#[derive(Debug, Default)]
pub struct MutexMonitor {
    /// Open critical section per process: acquisition timestamp.
    open: HashMap<u32, u64>,
    /// Completed `(pid, start, end)` intervals, oldest first.
    done: Vec<(u32, u64, u64)>,
}

impl MutexMonitor {
    fn observe(&mut self, e: &Event, out: &mut Vec<Violation>) {
        match e.kind {
            EventKind::LockAcquired { .. } => {
                self.open.insert(e.pid.0 as u32, e.ts_ns);
            }
            EventKind::LockReleased => {
                let Some(start) = self.open.remove(&(e.pid.0 as u32)) else {
                    return;
                };
                let (pid, end) = (e.pid.0 as u32, e.ts_ns);
                for &(q, qs, qe) in &self.done {
                    if q != pid && start < qe && qs < end {
                        out.push(Violation {
                            monitor: "mutex",
                            ts_ns: end,
                            detail: format!(
                                "critical sections overlap: p{pid} [{start}, {end}] ∩ \
                                 p{q} [{qs}, {qe}]"
                            ),
                        });
                    }
                }
                if self.done.len() == MUTEX_INTERVALS_KEPT {
                    self.done.remove(0);
                }
                self.done.push((pid, start, end));
            }
            _ => {}
        }
    }
}

/// Streams `QuorumVersion` events and flags **version regressions**: a
/// client lane whose completed quorum operation on a register returned a
/// version `(ts, wid)` lexicographically *below* one the same lane saw
/// earlier on the same register — the new/old inversion ABD's write-back
/// phase exists to prevent. Per-lane order is exactly what
/// `drain_new` guarantees, so this check needs no cross-lane reasoning.
#[derive(Debug, Default)]
pub struct QuorumMonitor {
    /// Per `(pid, reg)`: the highest `(ts, wid)` observed.
    floor: HashMap<(u32, u64), (u64, u64)>,
}

impl QuorumMonitor {
    fn observe(&mut self, e: &Event, out: &mut Vec<Violation>) {
        if let EventKind::QuorumVersion { reg, ts, wid } = e.kind {
            let key = (e.pid.0 as u32, reg);
            let seen = self.floor.entry(key).or_insert((ts, wid));
            if (ts, wid) < *seen {
                out.push(Violation {
                    monitor: "quorum",
                    ts_ns: e.ts_ns,
                    detail: format!(
                        "p{} register {reg} regressed: saw v{ts}.{wid} after v{}.{}",
                        key.0, seen.0, seen.1
                    ),
                });
            } else {
                *seen = (ts, wid);
            }
        }
    }
}

/// Streams `Recovered` events and flags **non-monotone incarnations**: a
/// process whose recovery section installed an incarnation number not
/// strictly above its previous one — which would mean two incarnations
/// could be alive under the same identity, the failure mode the
/// recoverable-mutex incarnation counter exists to exclude.
#[derive(Debug, Default)]
pub struct RecoveryMonitor {
    /// Per process: the last installed incarnation.
    last: HashMap<u32, u64>,
}

impl RecoveryMonitor {
    fn observe(&mut self, e: &Event, out: &mut Vec<Violation>) {
        if let EventKind::Recovered { incarnation, .. } = e.kind {
            let pid = e.pid.0 as u32;
            if let Some(&prev) = self.last.get(&pid) {
                if incarnation <= prev {
                    out.push(Violation {
                        monitor: "recovery",
                        ts_ns: e.ts_ns,
                        detail: format!(
                            "p{pid} incarnation went {prev} → {incarnation} (not increasing)"
                        ),
                    });
                    return;
                }
            }
            self.last.insert(pid, incarnation);
        }
    }
}

/// Streams replicated-log events and flags **applied-prefix
/// divergence** — the replicated log's core safety property, checked
/// online in three sound, per-lane/order-free ways. Every key includes
/// the log id the events carry, so the logs of a sharded service (one
/// per shard, all applied by the same worker lanes) never mix.
///
/// * **height sequence** — an applier lane must apply a log's heights
///   in order, `h, h + 1, h + 2, …`, with no skip or swap
///   ([`EventKind::LogApply`] events on one lane arrive in per-lane
///   order, which `drain_new` guarantees). A lane's first apply may land
///   at any height — a worker that joins or restarts replays the decided
///   prefix from the registers without events and resumes at its
///   frontier — and so may its first apply after a `CrashRecover`; from
///   there the sequence is strict. A *forward* skip is only
///   evidence while no event was dropped — with drops it may just be a
///   missing `LogApply` — so under loss it is counted, not flagged, and
///   the verdict reads unknown.
/// * **digest agreement** — two lanes applying the same height must
///   report the same chained prefix digest. The digest is
///   order-sensitive, so this is cross-lane prefix equality in an
///   order-free, set-logic form: no lane-arrival interleaving can fake
///   a mismatch.
/// * **winner uniqueness** — [`EventKind::HeightDecide`] is emitted
///   exactly once, by the winning proposer; a height announced twice
///   means two proposers both believe their batch committed there.
#[derive(Debug, Default)]
pub struct LogPrefixMonitor {
    /// Per `(log, lane)`: the next in-order height (`None` = the lane
    /// may have resumed from the registers: accept any height once).
    expected: HashMap<(u32, u32), Option<u64>>,
    /// Per `(log, height)`: the first reported `(digest, lane)`.
    digests: HashMap<(u32, u64), (u64, u32)>,
    /// Per `(log, height)`: the winning proposer that announced it.
    winners: HashMap<(u32, u64), u32>,
    /// The tracer has dropped events: skips are unprovable.
    lossy: bool,
    /// Forward skips seen while lossy (not flagged).
    unproven: u64,
}

impl LogPrefixMonitor {
    fn observe(&mut self, e: &Event, out: &mut Vec<Violation>) {
        let pid = e.pid.0 as u32;
        match e.kind {
            EventKind::LogApply {
                log,
                height,
                digest,
            } => {
                let slot = self.expected.entry((log, pid)).or_insert(None);
                match *slot {
                    Some(exp) if height > exp && self.lossy => self.unproven += 1,
                    Some(exp) if height != exp => out.push(Violation {
                        monitor: "log",
                        ts_ns: e.ts_ns,
                        detail: format!(
                            "p{pid} applied log {log} height {height} but its next \
                             in-order height is {exp}"
                        ),
                    }),
                    _ => {}
                }
                *slot = Some(height + 1);
                match self.digests.entry((log, height)) {
                    Entry::Occupied(seen) => {
                        let &(first_digest, first_pid) = seen.get();
                        if first_digest != digest {
                            out.push(Violation {
                                monitor: "log",
                                ts_ns: e.ts_ns,
                                detail: format!(
                                    "applied-prefix divergence at log {log} height \
                                     {height}: p{pid} digest {digest:#x} ≠ p{first_pid} \
                                     digest {first_digest:#x}"
                                ),
                            });
                        }
                    }
                    Entry::Vacant(slot) => {
                        slot.insert((digest, pid));
                    }
                }
            }
            EventKind::HeightDecide {
                log,
                height,
                winner,
                ..
            } => match self.winners.entry((log, height)) {
                Entry::Occupied(prev) => out.push(Violation {
                    monitor: "log",
                    ts_ns: e.ts_ns,
                    detail: format!(
                        "log {log} height {height} decided twice (winner p{}, then p{winner})",
                        prev.get()
                    ),
                }),
                Entry::Vacant(slot) => {
                    slot.insert(winner as u32);
                }
            },
            EventKind::CrashRecover { .. } => {
                // The lane's next incarnation replays from the registers
                // and resumes wherever its recovered frontier is, on
                // every log.
                for (&(_, lane), next) in self.expected.iter_mut() {
                    if lane == pid {
                        *next = None;
                    }
                }
            }
            _ => {}
        }
    }

    /// Whether the verdict is unknown: events were dropped and the
    /// monitor saw log traffic, so its silence on skips proves nothing.
    fn unknown(&self) -> bool {
        self.lossy && !self.expected.is_empty()
    }
}

/// All four monitors behind one `observe` call, accumulating violations.
///
/// Feed it every drained event (irrelevant kinds are ignored), tell it
/// the tracer's drop count after each drain, then read
/// [`MonitorBank::violations`] and [`MonitorBank::unknown`].
///
/// # Example
///
/// ```
/// use tfr_obs::MonitorBank;
/// use tfr_registers::ProcId;
/// use tfr_telemetry::{Event, EventKind};
///
/// let mut bank = MonitorBank::new();
/// // Two workers both claim height 3 of log 0: a commit bug.
/// for pid in [0, 1] {
///     bank.observe(&Event {
///         ts_ns: 10 + pid as u64,
///         pid: ProcId(pid),
///         kind: EventKind::HeightDecide { log: 0, height: 3, winner: pid as u64, size: 4 },
///     });
/// }
/// assert!(!bank.clean());
/// assert_eq!(bank.violations()[0].monitor, "log");
/// ```
#[derive(Debug, Default)]
pub struct MonitorBank {
    mutex: MutexMonitor,
    quorum: QuorumMonitor,
    recovery: RecoveryMonitor,
    log: LogPrefixMonitor,
    violations: Vec<Violation>,
}

impl MonitorBank {
    /// A bank with every monitor armed and no violations yet.
    pub fn new() -> MonitorBank {
        MonitorBank::default()
    }

    /// Feeds one event to every monitor.
    pub fn observe(&mut self, e: &Event) {
        self.mutex.observe(e, &mut self.violations);
        self.quorum.observe(e, &mut self.violations);
        self.recovery.observe(e, &mut self.violations);
        self.log.observe(e, &mut self.violations);
    }

    /// The tracer has dropped `dropped` events so far. Call it after
    /// draining and before observing what was drained: any event seen
    /// then was emitted after every drop the count includes from its
    /// own lane, so a nonzero count makes the checks that rest on
    /// absence stand down before they could be fooled.
    pub fn note_dropped(&mut self, dropped: u64) {
        self.log.lossy |= dropped > 0;
    }

    /// Monitors whose clean verdict is unknown because evidence they
    /// need may have been dropped.
    pub fn unknown(&self) -> Vec<&'static str> {
        if self.log.unknown() {
            vec!["log"]
        } else {
            Vec::new()
        }
    }

    /// Every violation flagged so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no monitor has flagged anything.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations as a JSON array (for run summaries and CI gates).
    pub fn violations_json(&self) -> Json {
        Json::Arr(self.violations.iter().map(Violation::json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::ProcId;

    fn ev(ts_ns: u64, pid: usize, kind: EventKind) -> Event {
        Event {
            ts_ns,
            pid: ProcId(pid),
            kind,
        }
    }

    #[test]
    fn mutex_overlap_is_flagged_and_disjoint_is_clean() {
        let mut bank = MonitorBank::new();
        // p0 holds [10, 20]; p1 holds [30, 40]: disjoint, clean.
        bank.observe(&ev(10, 0, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(20, 0, EventKind::LockReleased));
        bank.observe(&ev(30, 1, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(40, 1, EventKind::LockReleased));
        assert!(bank.clean());
        // p2 holds [35, 50]: overlaps p1's completed [30, 40].
        bank.observe(&ev(35, 2, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(50, 2, EventKind::LockReleased));
        assert_eq!(bank.violations().len(), 1);
        assert_eq!(bank.violations()[0].monitor, "mutex");
    }

    #[test]
    fn mutex_is_robust_to_lane_arrival_order() {
        // The same overlap, but p2's lane drains first: still exactly one
        // flag (raised when the second interval completes), no false
        // positive from the order change.
        let mut bank = MonitorBank::new();
        bank.observe(&ev(35, 2, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(50, 2, EventKind::LockReleased));
        bank.observe(&ev(30, 1, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(40, 1, EventKind::LockReleased));
        assert_eq!(bank.violations().len(), 1);
    }

    #[test]
    fn touching_intervals_do_not_count_as_overlap() {
        // p0 releases at the very instant p1 acquires: a hand-off, not an
        // intrusion (strict inequality in the check).
        let mut bank = MonitorBank::new();
        bank.observe(&ev(10, 0, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(20, 0, EventKind::LockReleased));
        bank.observe(&ev(20, 1, EventKind::LockAcquired { wait_ns: 1 }));
        bank.observe(&ev(30, 1, EventKind::LockReleased));
        assert!(bank.clean());
    }

    #[test]
    fn quorum_regression_on_one_lane_is_flagged() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::QuorumVersion {
                reg: 7,
                ts: 3,
                wid: 1,
            },
        ));
        bank.observe(&ev(
            2,
            0,
            EventKind::QuorumVersion {
                reg: 7,
                ts: 3,
                wid: 2,
            },
        ));
        // A different lane at a lower version is fine (lanes race).
        bank.observe(&ev(
            3,
            1,
            EventKind::QuorumVersion {
                reg: 7,
                ts: 1,
                wid: 1,
            },
        ));
        assert!(bank.clean());
        // The same lane regressing is the ABD inversion.
        bank.observe(&ev(
            4,
            0,
            EventKind::QuorumVersion {
                reg: 7,
                ts: 2,
                wid: 9,
            },
        ));
        assert_eq!(bank.violations().len(), 1);
        assert_eq!(bank.violations()[0].monitor, "quorum");
    }

    #[test]
    fn recovery_incarnations_must_strictly_increase() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::Recovered {
                incarnation: 1,
                repaired: false,
            },
        ));
        bank.observe(&ev(
            2,
            0,
            EventKind::Recovered {
                incarnation: 2,
                repaired: true,
            },
        ));
        bank.observe(&ev(
            3,
            1,
            EventKind::Recovered {
                incarnation: 1,
                repaired: false,
            },
        ));
        assert!(bank.clean(), "per-process counters are independent");
        bank.observe(&ev(
            4,
            0,
            EventKind::Recovered {
                incarnation: 2,
                repaired: false,
            },
        ));
        assert_eq!(bank.violations().len(), 1);
        assert_eq!(bank.violations()[0].monitor, "recovery");
    }

    #[test]
    fn log_out_of_order_apply_is_flagged() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::LogApply {
                log: 0,
                height: 0,
                digest: 0xA,
            },
        ));
        bank.observe(&ev(
            2,
            0,
            EventKind::LogApply {
                log: 0,
                height: 1,
                digest: 0xB,
            },
        ));
        assert!(bank.clean(), "in-order applies are fine");
        // Lane 1 applies height 1 before height 0: the pipelining bug.
        for (ts, height, digest) in [(3, 1, 0xC), (4, 0, 0xD)] {
            bank.observe(&ev(
                ts,
                1,
                EventKind::LogApply {
                    log: 0,
                    height,
                    digest,
                },
            ));
        }
        // Both digest mismatches flag, and so does the step back to 0.
        assert_eq!(bank.violations().len(), 3);
        assert!(bank.violations().iter().all(|v| v.monitor == "log"));
        assert!(bank.violations()[0].detail.contains("divergence"));
        assert!(bank
            .violations()
            .iter()
            .any(|v| v.detail.contains("next in-order height is 2")));
    }

    #[test]
    fn log_digest_divergence_is_flagged_even_in_order() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::LogApply {
                log: 0,
                height: 0,
                digest: 0xA,
            },
        ));
        bank.observe(&ev(
            2,
            1,
            EventKind::LogApply {
                log: 0,
                height: 0,
                digest: 0xA,
            },
        ));
        assert!(bank.clean(), "identical digests agree");
        bank.observe(&ev(
            3,
            2,
            EventKind::LogApply {
                log: 0,
                height: 0,
                digest: 0xF,
            },
        ));
        assert_eq!(bank.violations().len(), 1);
        assert!(bank.violations()[0]
            .detail
            .contains("divergence at log 0 height 0"));
    }

    #[test]
    fn log_lane_recovery_resets_the_height_expectation() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::LogApply {
                log: 0,
                height: 0,
                digest: 0xA,
            },
        ));
        bank.observe(&ev(
            2,
            0,
            EventKind::LogApply {
                log: 0,
                height: 1,
                digest: 0xB,
            },
        ));
        // p0 crashes and its next incarnation resumes past heights other
        // proposers decided meanwhile (it replayed them from registers).
        bank.observe(&ev(
            3,
            0,
            EventKind::CrashRecover {
                point: "log.propose-batch",
                down_ns: 500,
            },
        ));
        bank.observe(&ev(
            9,
            0,
            EventKind::LogApply {
                log: 0,
                height: 5,
                digest: 0xD,
            },
        ));
        bank.observe(&ev(
            10,
            0,
            EventKind::LogApply {
                log: 0,
                height: 6,
                digest: 0xE,
            },
        ));
        assert!(bank.clean(), "a recovered lane may resume at any height");
        // …but it is strict again after the resume point.
        bank.observe(&ev(
            11,
            0,
            EventKind::LogApply {
                log: 0,
                height: 9,
                digest: 0xF,
            },
        ));
        assert_eq!(bank.violations().len(), 1);
    }

    #[test]
    fn log_double_height_decide_is_flagged() {
        let mut bank = MonitorBank::new();
        bank.observe(&ev(
            1,
            0,
            EventKind::HeightDecide {
                log: 0,
                height: 3,
                winner: 0,
                size: 2,
            },
        ));
        assert!(bank.clean());
        bank.observe(&ev(
            2,
            1,
            EventKind::HeightDecide {
                log: 0,
                height: 3,
                winner: 1,
                size: 1,
            },
        ));
        assert_eq!(bank.violations().len(), 1);
        assert!(bank.violations()[0].detail.contains("decided twice"));
    }

    #[test]
    fn logs_are_checked_independently_on_one_lane() {
        // One worker lane applying two shard logs interleaved: each log
        // is in order on its own.
        let mut bank = MonitorBank::new();
        for (ts, log, height) in [(1, 0, 0), (2, 1, 0), (3, 1, 1), (4, 0, 1)] {
            bank.observe(&ev(
                ts,
                0,
                EventKind::LogApply {
                    log,
                    height,
                    digest: 10 * log as u64 + height,
                },
            ));
        }
        assert!(bank.clean(), "{:?}", bank.violations());
        // The same height on different logs is two heights.
        for log in [0, 1] {
            bank.observe(&ev(
                5,
                1,
                EventKind::HeightDecide {
                    log,
                    height: 0,
                    winner: 1,
                    size: 1,
                },
            ));
        }
        assert!(bank.clean(), "{:?}", bank.violations());
    }

    #[test]
    fn a_skip_under_loss_is_unknown_not_a_violation() {
        let apply = |height| EventKind::LogApply {
            log: 0,
            height,
            digest: height,
        };
        let mut lossless = MonitorBank::new();
        let mut lossy = MonitorBank::new();
        lossy.note_dropped(3);
        for bank in [&mut lossless, &mut lossy] {
            bank.observe(&ev(1, 0, apply(0)));
            bank.observe(&ev(2, 0, apply(2))); // height 1 not seen
        }
        assert_eq!(lossless.violations().len(), 1, "no drops: a real skip");
        assert!(lossless.unknown().is_empty());
        assert!(lossy.clean(), "the missing apply may have been dropped");
        assert_eq!(lossy.unknown(), vec!["log"]);
        // A swap backwards is provable even under loss.
        lossy.observe(&ev(3, 0, apply(1)));
        assert_eq!(lossy.violations().len(), 1);
    }

    #[test]
    fn violations_serialize() {
        let mut bank = MonitorBank::new();
        for pid in 0..2 {
            bank.observe(&ev(
                1,
                pid,
                EventKind::HeightDecide {
                    log: 1,
                    height: 0,
                    winner: pid as u64,
                    size: 1,
                },
            ));
        }
        let json = bank.violations_json().to_string();
        let parsed = Json::parse(&json).expect("violations serialize to valid JSON");
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("monitor").unwrap().as_str().unwrap(), "log");
    }
}
