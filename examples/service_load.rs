//! The sharded object service under load: thousands of simulated clients
//! driving keyed counters through flat-combining batches, with
//! linearizability sampled *while the load runs* — and proof the sampler
//! has teeth (it rejects a seeded lost-op mutant of the batcher).
//!
//! ```sh
//! cargo run --release --example service_load
//! ```

use tfr::service::{run_load_native, CombinerKind, LoadConfig, SamplingConfig};
use tfr::telemetry::Trace;

fn main() {
    // 2 000 simulated clients (each with one op in flight), multiplexed
    // onto 4 worker threads, addressing keyed counters routed over 4
    // shards — every shard is an independent replicated log, and one
    // timing-resilient consensus decision commits a whole batch.
    let mut cfg = LoadConfig::new(2_000, 4, 4);
    cfg.sampling = Some(SamplingConfig::default());
    let report = run_load_native(&cfg, &Trace::default());
    let sampling = report.sampling.as_ref().expect("sampling was on");
    println!(
        "flat-combining: {} ops at {:.0} ops/sec ({} batches, mean size {:.1})",
        report.ops, report.ops_per_sec, report.batches, report.mean_batch_size
    );
    println!(
        "  audit: lost ops {}, state {}, sampler checked {} ops in {} quiescent segments → {}",
        report.lost_ops,
        if report.state_ok { "exact" } else { "DIVERGED" },
        sampling.ops_checked,
        sampling.segments,
        if sampling.passed() { "PASS" } else { "FAIL" }
    );
    assert!(sampling.passed(), "the real batcher must linearize");

    // The same harness, same sampler, but the batcher silently drops one
    // announced op and answers as if it applied. A state audit alone
    // would need the ground truth; the history sampler catches the lie
    // from the recorded responses.
    let mut mutant = LoadConfig::new(2_000, 4, 4);
    mutant.combiner = CombinerKind::LostOp;
    mutant.sampling = Some(SamplingConfig::default());
    let report = run_load_native(&mutant, &Trace::default());
    let sampling = report.sampling.as_ref().expect("sampling was on");
    println!(
        "lost-op mutant: dropped {} op(s) → sampler verdict {}",
        report.lost_ops,
        if sampling.passed() {
            "PASS (bad!)"
        } else {
            "REJECTED"
        }
    );
    assert!(!sampling.passed(), "the sampler must reject the mutant");
    if let Some(v) = &sampling.violation {
        println!("  violation: {}", v.lines().next().unwrap_or(v));
    }
}
