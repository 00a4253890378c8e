//! The repository benchmark: four seeded workloads driven from outside
//! the program through its public APIs, measured end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <svc-native|svc-quorum|log-pipeline|sim-storm> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs untraced and reports the end-to-end metrics;
//! `--trace 1` runs the workload twice — untraced, then with the
//! program's tracer, the register probe and the benchmark's own spans
//! attached — and reports the per-layer metrics, the tracing overhead
//! and the paper's cost checks. Every run checks the program's results
//! and prints one JSON line last:
//!
//! ```text
//! {"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//! ```
//!
//! Human-readable notes go to standard error.

mod logpipe;
mod paper;
mod probe;
mod spans;
mod stats;
mod storm;
mod svc;

use std::collections::BTreeMap;
use std::process::ExitCode;
use tfr_telemetry::Tracer;

/// The end-to-end metrics, each reported by every workload. What the
/// work unit and the tail are depends on the workload; see `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, each reported by every traced run. A layer a
/// workload does not exercise did no work there and reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("registers.reads_per_op", "count"),
    ("registers.writes_per_op", "count"),
    ("registers.access_ns_p50", "ns"),
    ("core.decisions_per_op", "count"),
    ("core.proposals_per_decision", "count"),
    ("core.decide_us_p50", "us"),
    ("core.decide_us_p99", "us"),
    ("core.solo_accesses", "count"),
    ("core.solo_delays", "count"),
    ("core.nofail_decide_deltas_max", "delta"),
    ("service.batch_mean", "count"),
    ("service.enqueue_us_p50", "us"),
    ("service.drive_us_p50", "us"),
    ("service.drive_us_p99", "us"),
    ("service.setup_s", "s"),
    ("net.msgs_per_op", "count"),
    ("net.msgs_per_access", "count"),
    ("net.phases_per_access", "count"),
    ("net.delivery_batch_mean", "count"),
    ("net.retransmits_per_op", "count"),
    ("net.read_us_p50", "us"),
    ("net.read_us_p99", "us"),
    ("net.write_us_p50", "us"),
    ("net.write_us_p99", "us"),
    ("log.pump_us_p50", "us"),
    ("log.pump_us_p99", "us"),
    ("log.idle_pump_ratio", "ratio"),
    ("log.replica_empty_poll_ratio", "ratio"),
    ("log.replica_lag_p99", "count"),
    ("sim.model_s", "s"),
    ("sim.start_s", "s"),
    ("sim.loop_s", "s"),
    ("sim.finish_s", "s"),
    ("sim.loop_events_per_s", "1/s"),
    ("sim.steps", "count"),
    ("sim.timing_failures", "count"),
    ("chaos.crashed", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.dropped", "count"),
    ("telemetry.unattributed_share", "ratio"),
];

/// Which half of the protocol a run performs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untraced: end-to-end metrics.
    EndToEnd,
    /// Untraced then traced: per-layer metrics.
    Traced,
}

/// Per-layer values of a traced run, plus the gates it failed.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Layers {
    /// Sets metric `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a human-readable observation.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a failed per-layer gate: the run reports `correct: false`.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// The tracing accounting every traced run reports: the overhead
    /// (untraced rate over traced rate, minus 1), the events the tracer
    /// dropped (any drop fails the run), and the share of wall time the
    /// benchmark's layer spans did not cover.
    pub fn telemetry(&mut self, tracer: &Tracer, untraced_rate: f64, traced_rate: f64, gap: f64) {
        self.set(
            "telemetry.overhead_ratio",
            stats::ratio(untraced_rate, traced_rate) - 1.0,
        );
        let dropped = tracer.dropped();
        self.set("telemetry.dropped", dropped as f64);
        if dropped > 0 {
            self.fail(format!("the tracer dropped {dropped} events"));
        }
        self.set("telemetry.unattributed_share", gap);
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    failures: Vec<String>,
    attempted: u64,
    answered: u64,
    end_to_end: Vec<(&'static str, f64)>,
    layers: Option<Layers>,
    notes: Vec<String>,
}

impl Report {
    /// Applies an integrity gate: a failure fails the whole run.
    pub fn gate(&mut self, result: &Result<(), String>) {
        if let Err(why) = result {
            self.failures.push(why.clone());
        }
    }

    /// Adds `attempted` ops, of which `answered` committed correctly.
    pub fn count(&mut self, attempted: u64, answered: u64) {
        self.attempted += attempted;
        self.answered += answered;
    }

    /// Records the end-to-end metrics measured by the workload.
    pub fn end_to_end(&mut self, setup_s: f64, throughput: f64, p50_us: f64, tail_us: f64) {
        self.end_to_end = vec![
            ("setup_s", setup_s),
            ("throughput_per_s", throughput),
            ("latency_p50_us", p50_us),
            ("latency_tail_us", tail_us),
        ];
    }

    /// Records the per-layer metrics of a traced run.
    pub fn layers(&mut self, layers: Layers) {
        self.layers = Some(layers);
    }

    /// Records a human-readable observation.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Renders a metric value; a non-finite value is a benchmark bug.
fn number(name: &str, v: f64) -> String {
    assert!(v.is_finite(), "metric {name} is not finite: {v}");
    format!("{v}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let phase = if args.trace {
        Phase::Traced
    } else {
        Phase::EndToEnd
    };
    let seconds = args.seconds as f64;
    let mut report = match args.workload.as_str() {
        "svc-native" => svc::run(&svc::NATIVE, phase, args.seed, seconds),
        "svc-quorum" => svc::run(&svc::QUORUM, phase, args.seed, seconds),
        "log-pipeline" => logpipe::run(phase, args.seed, seconds),
        "sim-storm" => storm::run(phase, args.seed, seconds),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    match phase {
        Phase::EndToEnd => {
            report
                .end_to_end
                .push(("peak_rss_mb", stats::peak_rss_mb()));
            for &(name, unit) in END_TO_END {
                let value = report
                    .end_to_end
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("{} did not measure {name}", args.workload));
                metrics.push((name, value, unit));
            }
        }
        Phase::Traced => {
            let mut layers = report
                .layers
                .take()
                .expect("a traced run reports its layers");
            paper::check(&mut layers);
            for &(name, unit) in PER_LAYER {
                metrics.push((name, layers.values.get(name).copied().unwrap_or(0.0), unit));
            }
            report.failures.append(&mut layers.failures);
            report.notes.append(&mut layers.notes);
        }
    }

    let correct = report.failures.is_empty() && report.attempted > 0;
    let failed = if correct {
        report.attempted - report.answered
    } else {
        report.attempted.max(1)
    };
    for note in &report.notes {
        eprintln!("perfbench: {}: {note}", args.workload);
    }
    for why in &report.failures {
        eprintln!("perfbench: {}: FAILED: {why}", args.workload);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, v, unit)| {
            eprintln!("perfbench: {}: {name} = {v} {unit}", args.workload);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(name, v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
