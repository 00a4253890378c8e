//! OBS (E23): what the live observability pipeline costs and what it
//! catches — service throughput with observability off / passive (rings
//! recording, nobody draining) / full (a background [`tfr_obs::Collector`]
//! streaming the rings through the online invariant monitors), the
//! per-stage latency tracks the full pipeline produces as a by-product,
//! and the monitor verdicts: the real combiner runs CLEAN while both
//! seeded combiner mutants are flagged *during* the run.

use crate::Table;
use std::sync::Arc;
use std::time::Duration;
use tfr_obs::{Collector, CollectorConfig, ObsReport};
use tfr_service::{run_load_native, CombinerKind, LoadConfig, LoadReport};
use tfr_telemetry::{Trace, Tracer};

/// The common workload for the overhead comparison: enough clients that
/// the combiner actually combines, consensus-delay-dominated so the
/// numbers are about the pipeline, not allocator noise.
fn workload() -> LoadConfig {
    LoadConfig {
        ops_per_client: 4,
        delta: Duration::from_micros(20),
        ..LoadConfig::new(4_096, 4, 4)
    }
}

/// Ring capacity per worker lane for traced runs — generous, so the
/// overhead rows measure tracing, not overflow-and-drop short-circuits.
const RING_CAPACITY: usize = 1 << 16;

fn collector_cfg() -> CollectorConfig {
    CollectorConfig {
        poll_interval: Duration::from_millis(2),
        window: Duration::from_millis(100),
    }
}

/// One rep of the workload in the given mode. Returns the load report
/// plus (events, dropped) for traced modes and the `ObsReport` when a
/// collector was attached.
fn run_mode(mode: &str, cfg: &LoadConfig) -> (LoadReport, u64, u64, Option<ObsReport>) {
    match mode {
        "off" => (run_load_native(cfg, &Trace::disabled()), 0, 0, None),
        "passive" => {
            let tracer = Arc::new(Tracer::with_capacity(cfg.workers, RING_CAPACITY));
            let report = run_load_native(cfg, &Trace::attached(Arc::clone(&tracer)));
            let events = tracer.events().len() as u64;
            (report, events, tracer.dropped(), None)
        }
        "full" => {
            let tracer = Arc::new(Tracer::with_capacity(cfg.workers, RING_CAPACITY));
            let collector = Collector::spawn(Arc::clone(&tracer), collector_cfg());
            let report = run_load_native(cfg, &Trace::attached(Arc::clone(&tracer)));
            let obs = collector.finish();
            (report, obs.events, obs.dropped, Some(obs))
        }
        other => unreachable!("unknown mode {other}"),
    }
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

/// OBS — see module docs.
pub fn obs() -> Vec<Table> {
    // -----------------------------------------------------------------
    // Table 1: throughput with observability off / passive / full.
    // Best-of-3 per mode so a single scheduler hiccup cannot fake a
    // regression; overhead is relative to the best "off" rep.
    // -----------------------------------------------------------------
    const REPS: usize = 3;
    let cfg = workload();
    let mut t1 = Table::new(
        "E23",
        "observability overhead: off vs passive rings vs full live pipeline",
        &[
            "mode",
            "ops",
            "ops/sec (best of 3)",
            "overhead %",
            "events",
            "dropped",
            "monitors",
        ],
    );
    let mut best_off = 0.0f64;
    let mut full_obs: Option<ObsReport> = None;
    for mode in ["off", "passive", "full"] {
        let mut best: Option<(LoadReport, u64, u64, Option<ObsReport>)> = None;
        for _ in 0..REPS {
            let rep = run_mode(mode, &cfg);
            assert!(
                rep.0.state_ok && rep.0.audit_complete,
                "E23 workload must stay correct in mode {mode}"
            );
            if best
                .as_ref()
                .is_none_or(|b| rep.0.ops_per_sec > b.0.ops_per_sec)
            {
                best = Some(rep);
            }
        }
        let (report, events, dropped, obs) = best.expect("at least one rep ran");
        if mode == "off" {
            best_off = report.ops_per_sec;
        }
        let overhead = 100.0 * (best_off - report.ops_per_sec) / best_off.max(1e-9);
        let monitors = match &obs {
            None => "—".to_string(),
            Some(o) if o.clean() => "CLEAN".to_string(),
            Some(o) => format!("VIOLATION ({})", o.violations.len()),
        };
        t1.row(vec![
            mode.to_string(),
            report.ops.to_string(),
            format!("{:.0}", report.ops_per_sec),
            if mode == "off" {
                "0.0".into()
            } else {
                format!("{overhead:.1}")
            },
            events.to_string(),
            dropped.to_string(),
            monitors,
        ]);
        if let Some(o) = obs {
            full_obs = Some(o);
        }
    }
    t1.note("passive = rings recording with nobody draining; full = background collector");
    t1.note("streaming the rings through the online invariant monitors while the run goes.");
    t1.note("CI gates the full-pipeline overhead at ≤10% of the observability-off rate.");

    // -----------------------------------------------------------------
    // Table 2: the per-stage latency tracks the full pipeline measured
    // as a by-product — the causal-span histogram per stage label.
    // -----------------------------------------------------------------
    let mut t2 = Table::new(
        "E23",
        "per-stage latency from the live collector (full mode, best rep)",
        &["stage", "count", "p50 µs", "p99 µs", "max µs"],
    );
    let obs_report = full_obs.expect("the full mode ran");
    for stage in &obs_report.stages {
        t2.row(vec![
            stage.label.to_string(),
            stage.count.to_string(),
            fmt_us(stage.p50_ns),
            fmt_us(stage.p99_ns),
            fmt_us(stage.max_ns),
        ]);
    }
    t2.note("Stages are paired SpanStart/SpanEnd events: client.op → client.enqueue /");
    t2.note("batch.drive → consensus. Histograms are log2-bucketed (§ metrics).");

    // -----------------------------------------------------------------
    // Table 3: monitor teeth. The real path must run CLEAN; both seeded
    // combiner mutants claim the same (log, height) decisions across
    // workers and must be flagged by the log monitor — online, while the
    // mutant is still running, not in a post-mortem.
    // -----------------------------------------------------------------
    let mut t3 = Table::new(
        "E23",
        "online monitor verdicts: real combiner vs seeded mutants",
        &[
            "combiner",
            "ops",
            "violations",
            "first monitor",
            "flagged",
            "verdict",
        ],
    );
    for kind in [
        CombinerKind::FlatCombining,
        CombinerKind::Reordering,
        CombinerKind::LostOp,
    ] {
        let cfg = LoadConfig {
            combiner: kind,
            ops_per_client: 16,
            delta: Duration::from_micros(20),
            ..LoadConfig::new(1_024, 4, 4)
        };
        let tracer = Arc::new(Tracer::with_capacity(cfg.workers, RING_CAPACITY));
        let collector = Collector::spawn(
            Arc::clone(&tracer),
            CollectorConfig {
                poll_interval: Duration::from_millis(1),
                ..collector_cfg()
            },
        );
        let report = run_load_native(&cfg, &Trace::attached(Arc::clone(&tracer)));
        let obs = collector.finish();
        if kind.is_mutant() {
            assert!(
                !obs.clean(),
                "the {} mutant must be flagged by the monitors",
                kind.name()
            );
        } else {
            assert!(
                obs.clean(),
                "the real combiner must run CLEAN: {:?}",
                obs.violations
            );
        }
        t3.row(vec![
            kind.name().to_string(),
            report.ops.to_string(),
            obs.violations.len().to_string(),
            obs.violations
                .first()
                .map_or("—".to_string(), |v| v.monitor.to_string()),
            if obs.clean() {
                "—".into()
            } else if obs.flagged_live {
                "live".into()
            } else {
                "at quiescence".into()
            },
            if obs.clean() { "CLEAN" } else { "VIOLATION" }.to_string(),
        ]);
    }
    t3.note("Both mutants keep per-worker height counters, so concurrent workers claim");
    t3.note("the same (log, height) — the log monitor's double-decide check fires on the spot.");
    t3.note("Monitors are sound, not complete: a flag is a true violation; CLEAN proves");
    t3.note("nothing beyond what was observed.");

    vec![t1, t2, t3]
}
