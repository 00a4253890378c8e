//! Unified telemetry export: one Chrome-trace/Perfetto timeline from both
//! execution stacks.
//!
//! Run 1 is **native**: Algorithm 3 (the resilient mutex) with an adaptive
//! `optimistic(Δ)` estimator, driven by the chaos nemesis under injected
//! stalls longer than Δ — the trace shows the fault instants, the Fischer
//! retries, every `delay(Δ)` span, and the AIMD estimate reacting.
//!
//! Run 2 is **simulated**: Algorithm 1 (consensus) in virtual time,
//! converted to the same event schema (1 tick = 1 µs).
//!
//! Run 3 is the **network stack**: ABD quorum reads and writes over the
//! emulated cluster, with causal spans (`quorum.read`/`quorum.write` and
//! their phases) and per-message flow arrows connecting each client
//! phase to the replica lanes it touched.
//!
//! Outputs:
//! * `trace_export.json` — open in <https://ui.perfetto.dev> or
//!   `chrome://tracing`;
//! * `BENCH_telemetry.json` — machine-readable summary with the measured
//!   convergence time (last fault → first clean fast-path acquisition).
//!
//! ```text
//! cargo run --release --example trace_export
//! ```

use std::sync::Arc;
use std::time::Duration;
use tfr::asynclock::bar_david::StarvationFree;
use tfr::chaos::{run_mutex_chaos, MutexChaosConfig, Observe};
use tfr::core::adaptive::AdaptiveDelta;
use tfr::core::consensus::ConsensusSpec;
use tfr::core::mutex::resilient::ResilientMutex;
use tfr::net::{NetConfig, Network};
use tfr::registers::chaos::{points, Fault, FaultAction};
use tfr::registers::space::RegisterSpace;
use tfr::registers::{Delta, ProcId};
use tfr::sim::timing::standard_no_failures;
use tfr::sim::{RunConfig, Sim};
use tfr::telemetry::sim::events_from_run;
use tfr::telemetry::summary::run_summary_json;
use tfr::telemetry::{
    convergence_from_events, with_pid, ChromeTraceBuilder, EventKind, Json, Trace, Tracer,
};

fn main() {
    // ---------------------------------------------------------------
    // Run 1: native resilient mutex under chaos, fully traced.
    // ---------------------------------------------------------------
    let n = 2;
    let delta = Duration::from_micros(100);
    let tracer = Arc::new(Tracer::new(n));

    // The adaptive estimator and the lock share the tracer: Δ changes and
    // lock events land on one timeline.
    let est = Arc::new(
        AdaptiveDelta::new(delta, Duration::from_micros(10), Duration::from_millis(10))
            .with_trace(Trace::attached(Arc::clone(&tracer))),
    );
    let lock = ResilientMutex::with_delay_source(
        StarvationFree::over_lamport_fast(n),
        n,
        Arc::clone(&est),
    )
    .with_trace(Trace::attached(Arc::clone(&tracer)));

    // Two genuine timing failures (stalls ≫ Δ), early in the run so the
    // tail shows convergence back to the fast path.
    let faults = [
        Fault {
            pid: ProcId(0),
            point: points::RESILIENT_WRITE_X,
            nth: 2,
            action: FaultAction::Stall(delta * 8),
        },
        Fault {
            pid: ProcId(1),
            point: points::DELAY,
            nth: 3,
            action: FaultAction::Stall(delta * 8),
        },
    ];
    let cfg = MutexChaosConfig {
        n,
        iterations: 30,
        cs_hold: Duration::from_micros(20),
        ncs_hold: Duration::from_micros(20),
    };
    let (report, _) = run_mutex_chaos(&lock, &cfg, &faults, Observe::Traced(&tracer));
    assert!(
        !report.mutual_exclusion_violated(),
        "Algorithm 3 stays exclusive under timing failures"
    );

    let native_events = tracer.events();
    let fault_events = native_events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultFired { .. }))
        .count();
    let delta_events = native_events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DeltaChanged { .. }))
        .count();
    assert!(
        fault_events >= 1,
        "the injected stalls must be on the trace"
    );
    assert!(delta_events >= 1, "the AIMD estimator must visibly adapt");

    // Convergence: first acquisition after the last fault whose entry
    // wait is back under a small multiple of Δ.
    let target_wait_ns = (delta * 10).as_nanos() as u64;
    let convergence = convergence_from_events(&native_events, target_wait_ns);

    // ---------------------------------------------------------------
    // Run 2: simulated consensus, converted to the same schema.
    // ---------------------------------------------------------------
    let sim_delta = Delta::from_ticks(100);
    let sim_run = Sim::new(
        ConsensusSpec::new(vec![true, false, true]),
        RunConfig::new(3, sim_delta).record_trace(),
        standard_no_failures(sim_delta, 7),
    )
    .run();
    let sim_events = events_from_run(&sim_run);
    assert!(
        sim_events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Decided { .. })),
        "the simulated consensus must decide"
    );
    let sim_convergence = convergence_from_events(&sim_events, 0);

    // ---------------------------------------------------------------
    // Run 3: quorum registers over the emulated network, spans + flows.
    // ---------------------------------------------------------------
    let net_cfg = NetConfig::new(1, 3, 0x7ace);
    let net_tracer = Arc::new(Tracer::new(net_cfg.tracer_processes()));
    let net = Arc::new(Network::with_trace(
        net_cfg,
        Trace::attached(Arc::clone(&net_tracer)),
    ));
    let space = net.space();
    with_pid(ProcId(0), || {
        space.write(3, 41);
        space.write(3, 42);
        assert_eq!(space.read(3), 42);
    });
    drop(space);
    drop(net); // quiesce the router before merging the rings
    let net_events = net_tracer.events();
    assert!(
        net_events
            .iter()
            .any(|e| matches!(e.kind, EventKind::MsgSend { span, .. } if span != 0)),
        "quorum messages must carry their causal span"
    );
    assert!(
        net_events.iter().any(|e| matches!(
            e.kind,
            EventKind::SpanStart {
                label: "quorum.phase1",
                ..
            }
        )),
        "quorum phases must appear as spans"
    );

    // ---------------------------------------------------------------
    // Export: one Chrome trace with all three runs, plus the summary.
    // ---------------------------------------------------------------
    let mut builder = ChromeTraceBuilder::new();
    builder.add_run("native resilient-mutex (chaos)", &native_events);
    builder.add_run("sim consensus (virtual time)", &sim_events);
    builder.add_run("net quorum registers (ABD)", &net_events);
    let trace_json = builder.render();
    let parsed = Json::parse(&trace_json).expect("exporter must emit valid JSON");
    let track_events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!track_events.is_empty(), "the trace must be non-empty");
    let flows = track_events
        .iter()
        .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("s") | Some("f")))
        .count();
    assert!(
        flows >= 2,
        "the net run must contribute message flow arrows (got {flows})"
    );
    std::fs::write("trace_export.json", &trace_json).expect("write trace_export.json");

    let summary = Json::obj([
        (
            "native",
            run_summary_json(
                "native resilient-mutex (chaos)",
                n,
                delta.as_nanos() as u64,
                target_wait_ns,
                &native_events,
                tracer.dropped(),
                &convergence,
            ),
        ),
        (
            "sim",
            run_summary_json(
                "sim consensus (virtual time)",
                3,
                sim_delta.ticks().0 * 1_000,
                0,
                &sim_events,
                0,
                &sim_convergence,
            ),
        ),
    ]);
    let summary_text = summary.to_string();
    Json::parse(&summary_text).expect("summary must be valid JSON");
    std::fs::write("BENCH_telemetry.json", &summary_text).expect("write BENCH_telemetry.json");

    println!(
        "native run : {} events ({} fault, {} Δ-change), {} acquisitions, dropped {}",
        native_events.len(),
        fault_events,
        delta_events,
        report.entries.len(),
        tracer.dropped(),
    );
    match convergence.convergence_ns {
        Some(ns) => println!(
            "convergence: {:.1} µs after the last fault (target wait ≤ {:.1} µs)",
            ns as f64 / 1_000.0,
            target_wait_ns as f64 / 1_000.0
        ),
        None => println!("convergence: not reached within the run"),
    }
    let decided: Vec<u64> = sim_run.decisions().iter().map(|&(_, _, v)| v).collect();
    println!(
        "sim run    : {} events, decisions = {decided:?}",
        sim_events.len()
    );
    println!(
        "net run    : {} events, {} flow arrows across client/replica lanes",
        net_events.len(),
        flows
    );
    println!(
        "wrote trace_export.json ({} trace events)",
        track_events.len()
    );
    println!("wrote BENCH_telemetry.json");
    println!("open trace_export.json in https://ui.perfetto.dev or chrome://tracing");
}
