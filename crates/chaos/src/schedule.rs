//! Fault schedules: seeded random generation and greedy shrinking.
//!
//! A schedule is a plain `Vec<Fault>` — the unit the nemesis installs,
//! replays, and shrinks. Everything here is a pure function of its seed,
//! so a printed seed *is* the schedule.

use std::time::Duration;
use tfr_registers::chaos::{points, Fault, FaultAction};
use tfr_registers::rng::SplitMix64;
use tfr_registers::ProcId;

/// Shape of a random schedule: which points may stall, which may
/// crash-stop, how hard and how often.
#[derive(Debug, Clone)]
pub struct ScheduleConfig {
    /// Number of participating processes (faults target pids `0..n`).
    pub n: usize,
    /// Number of faults to draw.
    pub max_faults: usize,
    /// Points eligible for [`FaultAction::Stall`] faults.
    pub stall_points: Vec<&'static str>,
    /// Points eligible for [`FaultAction::Crash`] faults. Empty disables
    /// crashes entirely.
    pub crash_points: Vec<&'static str>,
    /// Visit numbers are drawn from `1..=max_nth`.
    pub max_nth: u64,
    /// Stall durations are drawn from `[min_stall, max_stall]`.
    pub min_stall: Duration,
    /// See `min_stall`.
    pub max_stall: Duration,
    /// Probability that a drawn fault is a crash (when `crash_points` is
    /// nonempty).
    pub crash_prob: f64,
    /// Points eligible for [`FaultAction::CrashRecover`] faults. Empty
    /// disables crash-recoveries entirely (and leaves the RNG stream of
    /// pre-recovery configs untouched, so old seeds replay unchanged).
    pub crash_recover_points: Vec<&'static str>,
    /// Probability that a drawn fault is a crash-recovery (when
    /// `crash_recover_points` is nonempty). Tried before `crash_prob`.
    pub recover_prob: f64,
    /// Down times for crash-recoveries are drawn from
    /// `[min_down, max_down]`.
    pub min_down: Duration,
    /// See `min_down`.
    pub max_down: Duration,
}

impl ScheduleConfig {
    /// A schedule shape for native mutex workloads under Δ-estimate
    /// `delta`: stalls of 1–8Δ land in the timing-sensitive windows
    /// (the Fischer-stage read→write gap, the delay, the raw array ops),
    /// crash-stops only between iterations ([`points::WORKLOAD_NCS`]) —
    /// a crash while *holding* a lock blocks every survivor by
    /// construction, which is not the claim a mutex nemesis tests.
    pub fn mutex(n: usize, delta: Duration) -> ScheduleConfig {
        ScheduleConfig {
            n,
            max_faults: 4,
            stall_points: vec![
                points::FISCHER_WRITE_X,
                points::FISCHER_CHECK_X,
                points::RESILIENT_WRITE_X,
                points::RESILIENT_INNER,
                points::RESILIENT_EXIT,
                points::DELAY,
                points::ARRAY_LOAD,
                points::ARRAY_STORE,
                points::WORKLOAD_NCS,
            ],
            crash_points: vec![points::WORKLOAD_NCS],
            max_nth: 4,
            min_stall: delta,
            max_stall: delta * 8,
            crash_prob: 0.2,
            crash_recover_points: Vec::new(),
            recover_prob: 0.0,
            min_down: Duration::ZERO,
            max_down: Duration::ZERO,
        }
    }

    /// A schedule shape for native consensus: Algorithm 1 is wait-free,
    /// so crash-stops are legal *anywhere* — mid-round, even between
    /// seeing `x[r, v̄] = 0` and writing `decide`.
    pub fn consensus(n: usize, delta: Duration) -> ScheduleConfig {
        let anywhere = vec![
            points::CONSENSUS_ROUND,
            points::CONSENSUS_DECIDE,
            points::DELAY,
            points::ARRAY_LOAD,
            points::ARRAY_STORE,
        ];
        ScheduleConfig {
            n,
            max_faults: 6,
            stall_points: anywhere.clone(),
            crash_points: anywhere,
            // Wait-free runs are short — a proposer often decides within a
            // round or two, so high visit numbers never arrive.
            max_nth: 2,
            min_stall: delta,
            max_stall: delta * 8,
            crash_prob: 0.3,
            crash_recover_points: Vec::new(),
            recover_prob: 0.0,
            min_down: Duration::ZERO,
            max_down: Duration::ZERO,
        }
    }

    /// A schedule shape for the derived wait-free objects (election,
    /// test-and-set, renaming, set consensus, universal objects): they
    /// bottom out in Algorithm 1 instances, so the consensus points are
    /// the timing-sensitive ones, and — being wait-free — crash-stops are
    /// legal anywhere. Visit numbers range higher than for bare consensus
    /// because one object operation drives many consensus instances.
    ///
    /// # Example
    ///
    /// ```
    /// use std::time::Duration;
    /// use tfr_chaos::{random_schedule, ScheduleConfig};
    ///
    /// let cfg = ScheduleConfig::objects(3, Duration::from_micros(50));
    /// let schedule = random_schedule(42, &cfg);
    /// assert_eq!(schedule, random_schedule(42, &cfg), "seed determines all");
    /// assert!(schedule.iter().all(|f| f.pid.0 < 3));
    /// ```
    pub fn objects(n: usize, delta: Duration) -> ScheduleConfig {
        let anywhere = vec![
            points::CONSENSUS_ROUND,
            points::CONSENSUS_DECIDE,
            points::DELAY,
            points::ARRAY_LOAD,
            points::ARRAY_STORE,
        ];
        ScheduleConfig {
            n,
            max_faults: 5,
            stall_points: anywhere.clone(),
            crash_points: anywhere,
            max_nth: 6,
            min_stall: delta,
            max_stall: delta * 8,
            crash_prob: 0.25,
            crash_recover_points: Vec::new(),
            recover_prob: 0.0,
            min_down: Duration::ZERO,
            max_down: Duration::ZERO,
        }
    }

    /// A schedule shape for the sharded object service: every shard is a
    /// replicated log, so its heights bottom out in consensus instances
    /// (those points stay timing-sensitive) and the log adds its announce
    /// ([`points::LOG_ANNOUNCE`]) and record proposal
    /// ([`points::LOG_PROPOSE`]) points. Announced ops are committed by
    /// whichever worker proposes next (helping), so permanent crash-stops
    /// are legal anywhere; crash-*recoveries* are confined to the two log
    /// points, because both sit before any register write of the step
    /// they guard and a fresh incarnation resynchronises its announce
    /// counter and applied prefix from the registers.
    pub fn service(n: usize, delta: Duration) -> ScheduleConfig {
        let anywhere = vec![
            points::CONSENSUS_ROUND,
            points::CONSENSUS_DECIDE,
            points::DELAY,
            points::ARRAY_LOAD,
            points::ARRAY_STORE,
            points::LOG_ANNOUNCE,
            points::LOG_PROPOSE,
        ];
        ScheduleConfig {
            n,
            max_faults: 6,
            stall_points: anywhere.clone(),
            crash_points: anywhere,
            max_nth: 6,
            min_stall: delta,
            max_stall: delta * 8,
            crash_prob: 0.15,
            crash_recover_points: vec![points::LOG_ANNOUNCE, points::LOG_PROPOSE],
            recover_prob: 0.35,
            min_down: delta,
            max_down: delta * 8,
        }
    }

    /// A schedule shape for the replicated log: height decisions bottom
    /// out in consensus instances (their points stay timing-sensitive)
    /// and the log adds its own two — the batch publication before a
    /// height proposal ([`points::LOG_PROPOSE`]) and the in-order entry
    /// application ([`points::LOG_APPLY`]). Stalls at those points land
    /// exactly on height transitions, mid-pipeline. Crash-*recoveries*
    /// are confined to the two log points: both sit before any record or
    /// ack write of the step they guard, so a fresh incarnation provably
    /// resynchronises by replaying the decided registers (crashing
    /// *inside* a proposal could otherwise let a later incarnation
    /// overwrite a record a concurrent adopter already decided on). Permanent crash-stops are deliberately absent: the commit
    /// pipeline bounds how far the frontier may run ahead of the
    /// *cluster* applied floor, so every lane's progress is load-bearing
    /// for liveness — a lane that dies for good is a reconfiguration
    /// problem, not a timing failure, and safety under it is already
    /// covered by the window stalling rather than committing.
    pub fn log(n: usize, delta: Duration) -> ScheduleConfig {
        let anywhere = vec![
            points::CONSENSUS_ROUND,
            points::CONSENSUS_DECIDE,
            points::DELAY,
            points::ARRAY_LOAD,
            points::ARRAY_STORE,
            points::LOG_PROPOSE,
            points::LOG_APPLY,
        ];
        ScheduleConfig {
            n,
            max_faults: 6,
            stall_points: anywhere,
            crash_points: Vec::new(),
            max_nth: 6,
            min_stall: delta,
            max_stall: delta * 8,
            crash_prob: 0.0,
            crash_recover_points: vec![points::LOG_PROPOSE, points::LOG_APPLY],
            recover_prob: 0.45,
            min_down: delta,
            max_down: delta * 8,
        }
    }

    /// A schedule shape for *recoverable* mutex workloads under
    /// Δ-estimate `delta`: crash-recoveries land both **inside** the
    /// critical section ([`points::WORKLOAD_CS`], [`points::RECOVERABLE_CS`])
    /// and outside it (the acquire/release windows, the recovery section
    /// itself, and the remainder section), because the recoverable lock's
    /// whole claim is that an orphaned CS gets repaired. Down times of
    /// 1–8Δ keep the survivors contending while the victim is away.
    /// Permanent crash-stops stay confined to [`points::WORKLOAD_NCS`].
    pub fn recoverable_mutex(n: usize, delta: Duration) -> ScheduleConfig {
        ScheduleConfig {
            n,
            max_faults: 6,
            stall_points: vec![
                points::RECOVERABLE_ACQUIRE,
                points::RECOVERABLE_RELEASE,
                points::RESILIENT_WRITE_X,
                points::RESILIENT_INNER,
                points::DELAY,
                points::WORKLOAD_NCS,
            ],
            crash_points: vec![points::WORKLOAD_NCS],
            max_nth: 4,
            min_stall: delta,
            max_stall: delta * 8,
            crash_prob: 0.1,
            crash_recover_points: vec![
                points::WORKLOAD_CS,
                points::RECOVERABLE_CS,
                points::RECOVERABLE_ACQUIRE,
                points::RECOVERABLE_RELEASE,
                points::RECOVERY_SECTION,
                points::WORKLOAD_NCS,
            ],
            recover_prob: 0.5,
            min_down: delta,
            max_down: delta * 8,
        }
    }
}

/// Draws a fault schedule from `seed`. Equal seeds yield equal schedules;
/// that is the whole replay story.
///
/// At most one *permanent* crash per pid is drawn (a crash-stopped thread
/// cannot crash again); crash-recoveries may repeat on a pid (the process
/// comes back). Duplicate `(pid, point, nth)` triples are dropped. All
/// crash-recovery draws are gated on `crash_recover_points` being
/// nonempty, so configs without them consume the exact RNG stream they
/// always did — old seeds replay unchanged.
pub fn random_schedule(seed: u64, cfg: &ScheduleConfig) -> Vec<Fault> {
    assert!(cfg.n > 0, "at least one process is required");
    assert!(!cfg.stall_points.is_empty(), "no stall points to aim at");
    assert!(cfg.min_stall <= cfg.max_stall, "stall range is inverted");
    assert!(cfg.min_down <= cfg.max_down, "down-time range is inverted");
    let mut rng = SplitMix64::new(seed);
    let mut faults: Vec<Fault> = Vec::new();
    let mut crashed: Vec<usize> = Vec::new();
    for _ in 0..cfg.max_faults {
        let pid = rng.index(cfg.n);
        let recover = !cfg.crash_recover_points.is_empty() && rng.random_bool(cfg.recover_prob);
        let crash = !recover
            && !cfg.crash_points.is_empty()
            && !crashed.contains(&pid)
            && rng.random_bool(cfg.crash_prob);
        let (point, action) = if recover {
            let span = (cfg.max_down - cfg.min_down).as_micros() as u64;
            let down = cfg.min_down + Duration::from_micros(rng.random_range(0..=span));
            (
                cfg.crash_recover_points[rng.index(cfg.crash_recover_points.len())],
                FaultAction::CrashRecover(down),
            )
        } else if crash {
            crashed.push(pid);
            (
                cfg.crash_points[rng.index(cfg.crash_points.len())],
                FaultAction::Crash,
            )
        } else {
            let span = (cfg.max_stall - cfg.min_stall).as_micros() as u64;
            let stall = cfg.min_stall + Duration::from_micros(rng.random_range(0..=span));
            (
                cfg.stall_points[rng.index(cfg.stall_points.len())],
                FaultAction::Stall(stall),
            )
        };
        let nth = rng.random_range(1..=cfg.max_nth);
        let duplicate = faults
            .iter()
            .any(|f| f.pid.0 == pid && f.point == point && f.nth == nth);
        if !duplicate {
            faults.push(Fault {
                pid: ProcId(pid),
                point,
                nth,
                action,
            });
        }
    }
    faults
}

/// Greedily shrinks a failing schedule to a (locally) minimal one.
///
/// `still_fails` re-runs the experiment with a candidate schedule and
/// reports whether the violation still occurs. Two passes:
///
/// 1. **Remove** faults one at a time, restarting until a fixpoint —
///    every remaining fault is necessary (removing any one makes the
///    violation vanish).
/// 2. **Halve** each remaining stall while the violation persists —
///    durations end within 2× of the smallest failing stall.
///
/// The result is minimal for this greedy order, not globally minimal —
/// the standard delta-debugging trade.
pub fn shrink(schedule: Vec<Fault>, mut still_fails: impl FnMut(&[Fault]) -> bool) -> Vec<Fault> {
    let mut schedule = schedule;
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < schedule.len() {
            let mut candidate = schedule.clone();
            candidate.remove(i);
            if still_fails(&candidate) {
                schedule = candidate;
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    for i in 0..schedule.len() {
        while let FaultAction::Stall(d) = schedule[i].action {
            let halved = d / 2;
            if halved < Duration::from_micros(50) {
                break;
            }
            let mut candidate = schedule.clone();
            candidate[i].action = FaultAction::Stall(halved);
            if still_fails(&candidate) {
                schedule = candidate;
            } else {
                break;
            }
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_replay_from_their_seed() {
        let cfg = ScheduleConfig::mutex(4, Duration::from_micros(500));
        assert_eq!(random_schedule(7, &cfg), random_schedule(7, &cfg));
        assert_ne!(random_schedule(7, &cfg), random_schedule(8, &cfg));
    }

    #[test]
    fn mutex_schedules_crash_only_between_iterations() {
        let cfg = ScheduleConfig::mutex(4, Duration::from_micros(500));
        for seed in 0..200 {
            for f in random_schedule(seed, &cfg) {
                if f.action == FaultAction::Crash {
                    assert_eq!(f.point, points::WORKLOAD_NCS, "seed {seed}");
                }
                assert!(f.pid.0 < 4 && f.nth >= 1, "seed {seed}");
            }
        }
    }

    #[test]
    fn at_most_one_crash_per_pid() {
        let mut cfg = ScheduleConfig::consensus(2, Duration::from_micros(300));
        cfg.max_faults = 12;
        cfg.crash_prob = 1.0;
        for seed in 0..100 {
            let schedule = random_schedule(seed, &cfg);
            for pid in 0..2 {
                let crashes = schedule
                    .iter()
                    .filter(|f| f.pid.0 == pid && f.action == FaultAction::Crash)
                    .count();
                assert!(
                    crashes <= 1,
                    "seed {seed}: pid {pid} crashes {crashes} times"
                );
            }
        }
    }

    #[test]
    fn stall_durations_respect_the_configured_range() {
        let cfg = ScheduleConfig::mutex(3, Duration::from_micros(400));
        for seed in 0..100 {
            for f in random_schedule(seed, &cfg) {
                if let FaultAction::Stall(d) = f.action {
                    assert!(
                        d >= cfg.min_stall && d <= cfg.max_stall,
                        "seed {seed}: {d:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shrink_removes_irrelevant_faults() {
        // Oracle: the experiment "fails" iff the schedule contains the one
        // load-bearing fault (p0 stalls at FISCHER_WRITE_X).
        let essential = Fault {
            pid: ProcId(0),
            point: points::FISCHER_WRITE_X,
            nth: 1,
            action: FaultAction::Stall(Duration::from_millis(40)),
        };
        let noise: Vec<Fault> = (1..4)
            .map(|i| Fault {
                pid: ProcId(i),
                point: points::DELAY,
                nth: i as u64,
                action: FaultAction::Stall(Duration::from_millis(5)),
            })
            .collect();
        let mut schedule = noise.clone();
        schedule.insert(1, essential);
        let minimal = shrink(schedule, |s| {
            s.iter().any(|f| {
                f.pid == essential.pid
                    && f.point == essential.point
                    && matches!(f.action, FaultAction::Stall(d) if d >= Duration::from_millis(10))
            })
        });
        assert_eq!(
            minimal.len(),
            1,
            "only the essential fault survives: {minimal:?}"
        );
        assert_eq!(minimal[0].pid, essential.pid);
        assert_eq!(minimal[0].point, essential.point);
        // Pass 2 halved the stall down to the smallest still-failing size.
        match minimal[0].action {
            FaultAction::Stall(d) => {
                assert!(
                    d >= Duration::from_millis(10) && d <= Duration::from_millis(20),
                    "{d:?}"
                )
            }
            _ => panic!("stall must stay a stall"),
        }
    }

    #[test]
    fn shrink_of_an_all_essential_schedule_is_identity_sized() {
        let faults: Vec<Fault> = (0..3)
            .map(|i| Fault {
                pid: ProcId(i),
                point: points::DELAY,
                nth: 1,
                action: FaultAction::Crash,
            })
            .collect();
        let n = faults.len();
        let minimal = shrink(faults, |s| s.len() == n);
        assert_eq!(minimal.len(), n);
    }

    #[test]
    fn shrink_of_an_empty_schedule_terminates_empty() {
        let mut calls = 0;
        let minimal = shrink(Vec::new(), |_| {
            calls += 1;
            true
        });
        assert!(minimal.is_empty());
        assert_eq!(calls, 0, "nothing to remove, nothing to probe");
    }

    #[test]
    fn shrink_of_a_single_fault_schedule_keeps_or_drops_it() {
        let fault = Fault {
            pid: ProcId(0),
            point: points::DELAY,
            nth: 1,
            action: FaultAction::Crash,
        };
        // The fault is essential: removing it makes the failure vanish.
        let kept = shrink(vec![fault], |s| !s.is_empty());
        assert_eq!(kept, vec![fault]);
        // The fault is irrelevant: the empty schedule still fails.
        let dropped = shrink(vec![fault], |_| true);
        assert!(dropped.is_empty());
    }

    #[test]
    fn shrink_with_an_accept_everything_predicate_terminates_minimal() {
        // A predicate that accepts every candidate must not loop: the
        // removal pass empties the schedule (the global minimum) and the
        // halving pass has nothing left to probe.
        let cfg = ScheduleConfig::recoverable_mutex(4, Duration::from_millis(1));
        let schedule = random_schedule(11, &cfg);
        assert!(!schedule.is_empty());
        let minimal = shrink(schedule, |_| true);
        assert!(minimal.is_empty(), "accept-everything shrinks to nothing");
    }

    #[test]
    fn recoverable_schedules_draw_crash_recover_faults_deterministically() {
        let cfg = ScheduleConfig::recoverable_mutex(4, Duration::from_micros(500));
        assert_eq!(random_schedule(5, &cfg), random_schedule(5, &cfg));
        let mut saw_recover = 0;
        for seed in 0..100 {
            for f in random_schedule(seed, &cfg) {
                match f.action {
                    FaultAction::CrashRecover(down) => {
                        saw_recover += 1;
                        assert!(
                            down >= cfg.min_down && down <= cfg.max_down,
                            "seed {seed}: down {down:?} outside [{:?}, {:?}]",
                            cfg.min_down,
                            cfg.max_down
                        );
                        assert!(
                            cfg.crash_recover_points.contains(&f.point),
                            "seed {seed}: crash-recover at unexpected point {}",
                            f.point
                        );
                    }
                    FaultAction::Crash => {
                        assert_eq!(f.point, points::WORKLOAD_NCS, "seed {seed}")
                    }
                    FaultAction::Stall(_) => {}
                }
            }
        }
        assert!(
            saw_recover > 50,
            "recover_prob 0.5 must bite: {saw_recover}"
        );
    }

    #[test]
    fn recovery_free_configs_keep_their_historical_rng_stream() {
        // Adding the crash-recover draw must not shift the stream of a
        // config without crash_recover_points: same seed, same schedule,
        // with or without the (disabled) recovery fields in play.
        let base = ScheduleConfig::mutex(4, Duration::from_micros(500));
        let mut probed = base.clone();
        probed.recover_prob = 0.9; // ignored: no points to aim at
        for seed in 0..50 {
            assert_eq!(
                random_schedule(seed, &base),
                random_schedule(seed, &probed),
                "seed {seed}"
            );
        }
    }
}
