//! Native chaos harness walkthrough: break Fischer's lock on real
//! threads with a seeded timing failure, replay the violation from the
//! printed seed, shrink the schedule to its essence, and show that
//! Algorithm 3 and Algorithm 1 shrug off the same adversity — finishing
//! with a native §1.3 resilience report.
//!
//! ```text
//! cargo run --release --example chaos_nemesis [seed]
//! ```
//!
//! Pass the seed a previous run printed to replay its exact experiment.

use std::time::Duration;
use tfr::chaos::nemesis::{self, run_consensus_chaos, run_mutex_chaos, Observe};
use tfr::chaos::{assess_native_mutex, shrink, NativeAssessConfig};
use tfr::core::mutex::fischer::Fischer;
use tfr::core::mutex::resilient::ResilientMutex;
use tfr::registers::chaos::Fault;

fn main() {
    let replay_seed: Option<u64> = std::env::args().nth(1).map(|s| {
        s.parse()
            .unwrap_or_else(|_| panic!("seed must be a u64, got {s:?}"))
    });

    // ── 1. Break Fischer ────────────────────────────────────────────────
    println!("== 1. Breaking Fischer's lock with a seeded timing failure ==");
    let (seed, report) = match replay_seed {
        Some(seed) => (seed, nemesis::run_fischer_violation(seed).1),
        None => nemesis::hunt_fischer_violation(1, 64)
            .expect("the violation construction should find a seed quickly"),
    };
    let setup = nemesis::violation_setup_from_seed(seed);
    println!("   Δ = {:?}, schedule:", setup.delta);
    for f in &setup.faults {
        println!("     {f}");
    }
    println!(
        "   result: max_in_cs = {}, intrusions = {} → mutual exclusion {}",
        report.max_in_cs,
        report.intrusions,
        if report.mutual_exclusion_violated() {
            "VIOLATED"
        } else {
            "held"
        },
    );
    println!("   SEED {seed}  (re-run with this argument to replay)\n");

    // ── 2. Deterministic replay ─────────────────────────────────────────
    println!("== 2. Replaying seed {seed} ==");
    let (_, again) = nemesis::run_fischer_violation(seed);
    println!(
        "   replay: max_in_cs = {}, intrusions = {} → {}\n",
        again.max_in_cs,
        again.intrusions,
        if again.mutual_exclusion_violated() {
            "same violation, reproduced"
        } else {
            "no violation (timing jitter — try again)"
        },
    );

    // ── 3. Shrink the schedule ──────────────────────────────────────────
    println!("== 3. Shrinking the failing schedule ==");
    let still_fails = |faults: &[Fault]| {
        let lock = Fischer::new(2, setup.delta);
        run_mutex_chaos(&lock, &setup.config, faults, Observe::None)
            .0
            .mutual_exclusion_violated()
    };
    let minimal = shrink(setup.faults.clone(), still_fails);
    println!(
        "   {} fault(s) → {} fault(s):",
        setup.faults.len(),
        minimal.len()
    );
    for f in &minimal {
        println!("     {f}");
    }
    println!();

    // ── 4. The resilient mutex under the same schedule ─────────────────
    println!("== 4. Algorithm 3 under the same schedule ==");
    let resilient = nemesis::run_resilient_under_violation_schedule(seed);
    println!(
        "   max_in_cs = {}, intrusions = {}, completed = {} → mutual exclusion {}\n",
        resilient.max_in_cs,
        resilient.intrusions,
        resilient.completed.len(),
        if resilient.mutual_exclusion_violated() {
            "VIOLATED"
        } else {
            "held"
        },
    );

    // ── 5. Consensus under random stalls and crash-stops ───────────────
    println!("== 5. Algorithm 1 under random stalls + crash-stops ==");
    let delta = Duration::from_micros(200);
    for s in seed..seed + 4 {
        let faults = nemesis::random_consensus_schedule(s, 3, delta);
        let (r, _) = run_consensus_chaos(delta, &[true, false, true], &faults, Observe::None);
        println!(
            "   seed {s}: {} fault(s) installed, {} fired, {} crashed → decision {:?}, \
             agreement {}, validity {}",
            faults.len(),
            r.fired.len(),
            r.crashed.len(),
            r.final_decision,
            r.agreement,
            r.validity,
        );
    }
    println!();

    // ── 6. Native resilience report ────────────────────────────────────
    println!("== 6. Native §1.3 resilience assessment of Algorithm 3 ==");
    let cfg = NativeAssessConfig::new(3, delta);
    let assessment = assess_native_mutex(|| ResilientMutex::standard(3, delta), &cfg);
    println!("   {assessment}");
    println!(
        "   → {}",
        if assessment.resilient() {
            "RESILIENT"
        } else {
            "not resilient"
        }
    );
}
