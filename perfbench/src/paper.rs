//! The paper's cost claims for Algorithm 1 (Theorem 2.1), checked at the
//! consensus layer in every traced run:
//!
//! * a solo `propose` decides in exactly 7 register accesses,
//! * without executing `delay(Δ)`,
//! * and without timing failures every process decides within 15Δ.
//!
//! A count that disagrees with the paper fails the run.

use crate::probe::{take_tally, CountingSpace};
use crate::spans;
use crate::Layers;
use std::time::Duration;
use tfr_core::consensus::{ConsensusSpec, NativeConsensus};
use tfr_registers::space::NativeSpace;
use tfr_registers::{Delta, ProcId};
use tfr_sim::metrics::consensus_stats;
use tfr_sim::timing::standard_no_failures;
use tfr_sim::{RunConfig, Sim};
use tfr_telemetry::{with_pid, EventKind};

/// Fixed seeds of the failure-free decision-time check.
const NOFAIL_SEEDS: u64 = 64;

/// Runs the three checks and records them into `layers`.
pub fn check(layers: &mut Layers) {
    let _ = take_tally();
    let (tracer, trace) = spans::tracer(1, 64);
    let consensus = NativeConsensus::on(
        CountingSpace::new(NativeSpace::with_capacity(128), false),
        Duration::from_micros(10),
    )
    .with_trace(trace);
    let decided = with_pid(ProcId(0), || consensus.propose(true));
    let accesses = take_tally().accesses();
    let delays = spans::count(&tracer.events(), u64::MAX, |e| {
        matches!(e.kind, EventKind::DelayStart { .. })
    });
    layers.set("core.solo_accesses", accesses as f64);
    layers.set("core.solo_delays", delays as f64);
    if !decided || accesses != 7 || delays != 0 {
        layers.fail(format!(
            "solo propose: decided {decided} in {accesses} accesses and {delays} delays \
             (paper: own input, 7 accesses, 0 delays)"
        ));
    }

    let delta = Delta::from_ticks(100);
    let mut worst = 0.0f64;
    for n in [2usize, 8] {
        for seed in 0..NOFAIL_SEEDS {
            let inputs = (0..n)
                .map(|i| (i as u64 + seed).is_multiple_of(2))
                .collect();
            let spec = ConsensusSpec::new(inputs).with_delta(delta.ticks());
            let run = Sim::new(
                spec,
                RunConfig::new(n, delta),
                standard_no_failures(delta, seed),
            )
            .run();
            let stats = consensus_stats(&run);
            match stats.all_decided_by {
                Some(t) if stats.agreement && run.all_halted() => {
                    worst = worst.max(t.in_deltas(delta));
                }
                _ => layers.fail(format!(
                    "failure-free consensus n={n} seed={seed}: agreement {}, all decided {}",
                    stats.agreement,
                    run.all_halted()
                )),
            }
        }
    }
    layers.set("core.nofail_decide_deltas_max", worst);
    if worst > 15.0 {
        layers.fail(format!(
            "failure-free decision took {worst:.2} delta (paper: at most 15)"
        ));
    }
}
