//! Recoverable mutual exclusion end to end: crash a lock holder *inside*
//! its critical section, watch the next incarnation's recovery section
//! repair the orphaned lock, and let the process rejoin mid-workload —
//! with the whole run on one telemetry timeline.
//!
//! Two parts:
//!
//! 1. **Hand-placed faults** — one crash-recover inside the CS (the
//!    orphaned-lock case the recoverable transformation exists for) and
//!    one in the remainder section (recovery finds nothing to repair).
//!    Recovery times are measured off the trace: every `CrashRecover`
//!    fault instant is paired with the matching `Recovered` event.
//! 2. **A seeded schedule** — `ScheduleConfig::recoverable_mutex` drawn
//!    from a seed and run twice: equal seeds, equal schedules, equal
//!    recovery counts. Print the seed, replay the experiment.
//!
//! Outputs:
//! * `recoverable_lock_trace.json` — open in <https://ui.perfetto.dev>;
//! * `BENCH_recovery.json` — machine-readable summary: per-recovery
//!   spans (scheduled down time vs measured crash→rejoin time, repair
//!   verdicts) and the seeded-replay verdict.
//!
//! ```text
//! cargo run --release --example recoverable_lock
//! ```

use std::sync::Arc;
use std::time::Duration;
use tfr::chaos::recovery::RecoveryChaosReport;
use tfr::chaos::{random_schedule, run_recovery_chaos, MutexChaosConfig, Observe, ScheduleConfig};
use tfr::core::mutex::recoverable::RecoverableMutex;
use tfr::registers::chaos::{points, Fault, FaultAction};
use tfr::registers::ProcId;
use tfr::telemetry::summary::recovery_spans_from_events;
use tfr::telemetry::{ChromeTraceBuilder, Json, Trace, Tracer};

fn main() {
    let n = 4;
    let delta = Duration::from_micros(100);
    let cfg = MutexChaosConfig {
        n,
        iterations: 15,
        cs_hold: Duration::from_micros(40),
        ncs_hold: Duration::from_micros(40),
    };

    // ---------------------------------------------------------------
    // Part 1: hand-placed crash-recoveries, fully traced.
    // ---------------------------------------------------------------
    let faults = [
        // The tentpole case: p0 dies while HOLDING the lock. Its second
        // incarnation must find the orphaned critical section and
        // release it before anyone can make progress again.
        Fault {
            pid: ProcId(0),
            point: points::RECOVERABLE_CS,
            nth: 2,
            action: FaultAction::CrashRecover(delta * 4),
        },
        // The benign case: p1 dies in its remainder section; recovery
        // finds nothing to repair and the incarnation just rejoins.
        Fault {
            pid: ProcId(1),
            point: points::WORKLOAD_NCS,
            nth: 3,
            action: FaultAction::CrashRecover(delta * 2),
        },
    ];
    let tracer = Arc::new(Tracer::new(n));
    let lock =
        RecoverableMutex::standard(n, delta).with_trace(Trace::attached(Arc::clone(&tracer)));
    let (report, _) = run_recovery_chaos(&lock, &cfg, &faults, Observe::Traced(&tracer));

    assert!(
        !report.mutual_exclusion_violated(),
        "an orphaned CS is repaired, never intruded on (max in CS = {})",
        report.max_in_cs
    );
    assert_eq!(report.completed.len(), n, "every process finishes");
    assert_eq!(report.recoveries.len(), 2, "both crash-recoveries fired");
    assert_eq!(
        report.cs_repairs(),
        1,
        "exactly the in-CS crash needed a repair"
    );

    // Recovery time, measured off the event stream: crash instant →
    // the new incarnation's `Recovered` event.
    let events = tracer.events();
    let spans = recovery_spans_from_events(&events);
    assert_eq!(spans.len(), 2, "every crash pairs with a recovery");
    for s in &spans {
        assert!(
            s.recovery_ns() >= s.scheduled_down_ns,
            "measured recovery includes the scheduled down time"
        );
    }
    let span_rows: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("pid", Json::Num(s.pid.0 as f64)),
                ("incarnation", Json::Num(s.incarnation as f64)),
                ("repaired", Json::Bool(s.repaired)),
                ("scheduled_down_ns", Json::Num(s.scheduled_down_ns as f64)),
                ("measured_recovery_ns", Json::Num(s.recovery_ns() as f64)),
            ])
        })
        .collect();

    // ---------------------------------------------------------------
    // Part 2: a seeded schedule, run twice — determinism by replay.
    // ---------------------------------------------------------------
    let seed = 11u64;
    let schedule_cfg = ScheduleConfig::recoverable_mutex(n, delta);
    let schedule = random_schedule(seed, &schedule_cfg);
    let crash_recovers = schedule
        .iter()
        .filter(|f| matches!(f.action, FaultAction::CrashRecover(_)))
        .count();
    assert!(crash_recovers >= 1, "the seed must draw crash-recoveries");
    let run = |faults: &[Fault]| -> RecoveryChaosReport {
        let lock = RecoverableMutex::standard(n, delta);
        run_recovery_chaos(&lock, &cfg, faults, Observe::None).0
    };
    let first = run(&schedule);
    let replay_schedule = random_schedule(seed, &schedule_cfg);
    assert_eq!(schedule, replay_schedule, "equal seeds, equal schedules");
    let replay = run(&replay_schedule);
    assert!(!first.mutual_exclusion_violated());
    assert!(!replay.mutual_exclusion_violated());
    let replay_agrees = first.recoveries.len() == replay.recoveries.len()
        && first.cs_repairs() == replay.cs_repairs()
        && first.fired.len() == replay.fired.len();
    assert!(replay_agrees, "the run is a pure function of its seed");

    // ---------------------------------------------------------------
    // Export: Chrome trace + machine-readable summary.
    // ---------------------------------------------------------------
    let mut builder = ChromeTraceBuilder::new();
    builder.add_run("recoverable mutex (crash-recovery chaos)", &events);
    let trace_json = builder.render();
    Json::parse(&trace_json).expect("exporter must emit valid JSON");
    std::fs::write("recoverable_lock_trace.json", &trace_json)
        .expect("write recoverable_lock_trace.json");

    let summary = Json::obj([
        (
            "hand_placed",
            Json::obj([
                ("n", Json::Num(n as f64)),
                ("delta_ns", Json::Num(delta.as_nanos() as f64)),
                ("recoveries", Json::Arr(span_rows)),
                ("cs_repairs", Json::Num(report.cs_repairs() as f64)),
                ("intrusions", Json::Num(report.intrusions as f64)),
                ("max_in_cs", Json::Num(report.max_in_cs as f64)),
            ]),
        ),
        (
            "seeded",
            Json::obj([
                ("seed", Json::Num(seed as f64)),
                ("faults", Json::Num(schedule.len() as f64)),
                ("crash_recovers", Json::Num(crash_recovers as f64)),
                ("recoveries", Json::Num(first.recoveries.len() as f64)),
                ("cs_repairs", Json::Num(first.cs_repairs() as f64)),
                ("intrusions", Json::Num(first.intrusions as f64)),
                ("replay_agrees", Json::Bool(replay_agrees)),
            ]),
        ),
    ]);
    let summary_text = summary.to_string();
    Json::parse(&summary_text).expect("summary must be valid JSON");
    std::fs::write("BENCH_recovery.json", &summary_text).expect("write BENCH_recovery.json");

    for s in &spans {
        println!(
            "p{} incarnation {}: down {:.1} µs scheduled, back in {:.1} µs, {}",
            s.pid.0,
            s.incarnation,
            s.scheduled_down_ns as f64 / 1_000.0,
            s.recovery_ns() as f64 / 1_000.0,
            if s.repaired {
                "repaired an orphaned CS"
            } else {
                "nothing to repair"
            }
        );
    }
    println!(
        "hand-placed: {} recoveries, {} CS repair(s), max in CS = {}, intrusions = {}",
        report.recoveries.len(),
        report.cs_repairs(),
        report.max_in_cs,
        report.intrusions
    );
    println!(
        "seeded (seed {seed}): {} faults ({crash_recovers} crash-recover), \
         {} recoveries, {} CS repair(s), replay agrees = {replay_agrees}",
        schedule.len(),
        first.recoveries.len(),
        first.cs_repairs()
    );
    println!("wrote recoverable_lock_trace.json and BENCH_recovery.json");
    println!("open recoverable_lock_trace.json in https://ui.perfetto.dev or chrome://tracing");
}
