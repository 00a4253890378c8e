//! Chaos harness for the native (`real threads + real atomics`) stack:
//! seeded fault schedules, an invariant-checking nemesis, deterministic
//! replay, schedule shrinking, and native resilience reports.
//!
//! The simulator (`tfr-sim`) and the model checker (`tfr-modelcheck`)
//! already script adversarial *virtual* schedules. This crate injects the
//! same adversities — timing failures (stalls) and crash-stops — into the
//! **native** implementations, through the injection points of
//! [`tfr_registers::chaos`]:
//!
//! * [`schedule`] — fault schedules as pure functions of a seed
//!   ([`schedule::random_schedule`]), plus greedy shrinking of a failing
//!   schedule to a minimal one ([`schedule::shrink`]).
//! * [`nemesis`] — workload drivers with online invariant checking:
//!   mutual exclusion via an intruder counter
//!   ([`nemesis::run_mutex_chaos`]), consensus agreement/validity
//!   ([`nemesis::run_consensus_chaos`]), and the paper's §2 headline as a
//!   seeded one-liner: [`nemesis::run_fischer_violation`] makes two real
//!   threads hold Fischer's lock at once by stalling one inside the
//!   read→write window for longer than Δ. Every experiment is a pure
//!   function of its seed: print the seed, replay the violation.
//! * [`fromcex`] — compiles a `tfr-modelcheck` counterexample
//!   (an abstract violating interleaving) into a native fault schedule
//!   that reproduces the same violation on real threads
//!   ([`fromcex::fischer_faults_from_counterexample`]), closing the loop
//!   between the exhaustive tier and the native tier.
//! * [`assess`] — the §1.3 three-part resilience assessment over native
//!   runs ([`assess::assess_native_mutex`]), producing the same
//!   [`tfr_core::resilience::ResilienceReport`] as the simulator
//!   assessment (1 tick = 1 µs).
//! * [`recovery`] — the crash-*recovery* nemesis: `CrashRecover` faults
//!   unwind a worker anywhere on the recoverable crash surface — inside
//!   the critical section included — and the worker rejoins mid-workload
//!   as a new incarnation that runs the lock's recovery section first
//!   ([`recovery::run_recovery_chaos`]). Crash-stopped pids are
//!   deregistered so no later fault is wasted on them.
//! * [`storm`] — large-n *simulated* chaos at 10^5–10^6 processes:
//!   seeded timing-failure storms and crash waves scripted through the
//!   scaled `tfr-sim` timer-wheel engine, plus the Δ-sweep runner behind
//!   experiment E25 ([`storm::delta_sweep`]).
//! * [`netfault`] — the network nemesis for the quorum stack: seeded
//!   schedules of delay spikes, message drops, partitions, and heals
//!   ([`netfault::random_net_schedule`]) applied through a
//!   [`tfr_net::NetControl`] handle while algorithms run unchanged over
//!   `tfr_net::QuorumSpace`. Every schedule ends healed, so experiments
//!   finish on a connected network and convergence can be measured.
//!
//! There is one runner per workload, and each takes one [`Observe`]
//! option: none, traced into a `tfr_telemetry::Tracer` (injection points
//! double as trace points, fired faults become timeline events), or
//! observed — traced with a live `tfr_obs::Collector` streaming the run
//! through the online monitors, whose `ObsReport` the runner returns.
//! The traced assessment (`assess_native_mutex_traced`) also reports its
//! convergence time measured off the event stream.
//!
//! # Example: break Fischer, spare Algorithm 3
//!
//! ```
//! use tfr_chaos::nemesis;
//!
//! // Any seed defines a complete experiment; nearly all of them break
//! // native Fischer.
//! let (seed, report) = nemesis::hunt_fischer_violation(1, 16).expect("a violating seed");
//! assert!(report.mutual_exclusion_violated());
//!
//! // Replaying the same seed reproduces the violation…
//! let (_, again) = nemesis::run_fischer_violation(seed);
//! assert!(again.mutual_exclusion_violated());
//!
//! // …while Algorithm 3 shrugs off the same schedule.
//! let resilient = nemesis::run_resilient_under_violation_schedule(seed);
//! assert!(!resilient.mutual_exclusion_violated());
//! ```

pub mod assess;
pub mod fromcex;
pub mod nemesis;
pub mod netfault;
pub mod recovery;
pub mod schedule;
pub mod storm;

pub use assess::{
    assess_native_mutex, assess_native_mutex_traced, NativeAssessConfig, TracedAssessment,
};
pub use fromcex::{fischer_faults_from_counterexample, CompiledViolation};
pub use nemesis::{
    hunt_fischer_violation, run_consensus_chaos, run_fischer_violation, run_mutex_chaos,
    ConsensusChaosReport, MutexChaosConfig, MutexChaosReport, Observe, ViolationSetup,
};
pub use netfault::{
    apply_net_op, apply_net_schedule, random_net_schedule, NetFaultOp, NetFaultStep,
};
pub use recovery::{run_recovery_chaos, RecoveryChaosReport, RecoverySample};
pub use schedule::{random_schedule, shrink, ScheduleConfig};
