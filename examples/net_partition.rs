//! The quorum stack under partitions: Algorithm 3 (the resilient mutex)
//! and Algorithm 1 (consensus) running **unchanged** over ABD-emulated
//! registers while a seeded network nemesis injects delay spikes, message
//! drops, and partitions — including cuts that strand the clients without
//! a majority — and finally heals the cluster.
//!
//! Three independent oracles watch the same run:
//!
//! 1. the chaos harness's intruder counter (mutual exclusion, online);
//! 2. consensus agreement/validity across the proposers;
//! 3. the linearizability checker, fed a register-level history captured
//!    by a [`RecordingSpace`] between the algorithms and the network —
//!    every emulated register must behave as an atomic register.
//!
//! Outputs:
//! * `net_partition_trace.json` — Perfetto/Chrome timeline with message
//!   sends/drops, quorum spans, and the nemesis marks;
//! * `BENCH_net.json` — machine-readable summary with the telemetry-
//!   measured convergence after heal (how long stranded quorum operations
//!   took to drain once the partition lifted).
//!
//! ```text
//! cargo run --release --example net_partition [seed]
//! ```

use std::sync::Arc;
use std::time::Duration;
use tfr::chaos::netfault::{apply_net_schedule, random_net_schedule};
use tfr::chaos::{run_mutex_chaos, MutexChaosConfig, Observe};
use tfr::core::consensus::NativeConsensus;
use tfr::core::mutex::resilient::ResilientMutex;
use tfr::linearize::register::{RecordingSpace, RegisterModel};
use tfr::linearize::{check_history, Recorder};
use tfr::net::{NetConfig, Network};
use tfr::registers::space::SubSpace;
use tfr::registers::ProcId;
use tfr::telemetry::summary::run_summary_json;
use tfr::telemetry::{
    heal_convergence_from_events, with_pid, ChromeTraceBuilder, EventKind, Json, Trace, Tracer,
};

const LOCK_WORKERS: usize = 2;
const PROPOSERS: usize = 3;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(13); // drops + minority cut + client-isolating cut

    // One client identity per worker thread keeps the telemetry rings
    // single-writer: client pids 0..5 are the workers, replica pids 5..10
    // belong to the router thread, pid 10 to the nemesis marks.
    let cfg = NetConfig::new(LOCK_WORKERS + PROPOSERS, 5, seed);
    let tracer = Arc::new(Tracer::new(cfg.tracer_processes()));
    let net = Arc::new(Network::with_trace(
        cfg.clone(),
        Trace::attached(Arc::clone(&tracer)),
    ));

    // The recording wrapper sits between the algorithms and the quorum
    // backend: every read/write lands in the history with the *physical*
    // register index as its object id.
    let recorder = Arc::new(Recorder::new(LOCK_WORKERS + PROPOSERS));
    let space = Arc::new(RecordingSpace::new(net.space(), Arc::clone(&recorder)));

    // Two disjoint register banks over one cluster: even registers carry
    // the mutex, odd ones the consensus object.
    let delta = Duration::from_millis(1);
    let lock =
        ResilientMutex::standard_on(SubSpace::new(Arc::clone(&space), 0, 2), LOCK_WORKERS, delta);
    let consensus = Arc::new(NativeConsensus::on(
        SubSpace::new(Arc::clone(&space), 1, 2),
        delta,
    ));

    // The nemesis: a seeded fault schedule, applied while both workloads
    // run. Every schedule ends with a heal, so the run finishes on a
    // connected cluster.
    let schedule = random_net_schedule(seed, net.config());
    println!("nemesis schedule (seed {seed:#x}):");
    for step in &schedule {
        println!("  {:?} for {:?}", step.op, step.dwell);
    }
    let control = net.control();
    let nemesis = {
        let schedule = schedule.clone();
        std::thread::spawn(move || apply_net_schedule(&control, &schedule))
    };

    // Workload A: consensus proposers on their own client identities.
    let proposer_handles: Vec<_> = (0..PROPOSERS)
        .map(|i| {
            let consensus = Arc::clone(&consensus);
            std::thread::spawn(move || {
                with_pid(ProcId(LOCK_WORKERS + i), || consensus.propose(i % 2 == 0))
            })
        })
        .collect();

    // Workload B: the mutex chaos driver (no thread-level faults — the
    // network *is* the adversary here), with its online intruder counter.
    let mut mutex_cfg = MutexChaosConfig::new(LOCK_WORKERS);
    mutex_cfg.iterations = 4;
    let (report, _) = run_mutex_chaos(&lock, &mutex_cfg, &[], Observe::None);

    let decisions: Vec<bool> = proposer_handles
        .into_iter()
        .map(|h| h.join().expect("proposer panicked"))
        .collect();
    nemesis.join().expect("nemesis panicked");

    // Oracle 1: mutual exclusion held through every partition.
    assert!(
        !report.mutual_exclusion_violated(),
        "mutual exclusion violated over the quorum backend"
    );
    assert_eq!(report.completed.len(), LOCK_WORKERS, "all workers finished");

    // Oracle 2: agreement and validity across the proposers.
    assert!(
        decisions.windows(2).all(|w| w[0] == w[1]),
        "consensus agreement violated: {decisions:?}"
    );
    assert_eq!(consensus.decision(), Some(decisions[0]));

    // Oracle 3: every emulated register linearizes as an atomic register.
    assert_eq!(recorder.dropped(), 0, "history buffers overflowed");
    let history = recorder.history();
    let lin = check_history(&history, &RegisterModel)
        .expect("ABD registers must linearize as atomic registers");

    // Telemetry: the timeline and the measured convergence after heal.
    let events = tracer.events();
    let sent = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MsgSend { .. }))
        .count();
    let dropped = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MsgDropped { .. }))
        .count();
    let quorum_ops = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::QuorumEnd { .. }))
        .count();
    let convergence = heal_convergence_from_events(&events);

    let mut builder = ChromeTraceBuilder::new();
    builder.add_run("quorum stack under partitions", &events);
    let trace_json = builder.render();
    Json::parse(&trace_json).expect("exporter must emit valid JSON");
    std::fs::write("net_partition_trace.json", &trace_json).expect("write trace");

    let summary = Json::obj([(
        "net",
        run_summary_json(
            "net partition-heal (quorum registers)",
            cfg.clients,
            delta.as_nanos() as u64,
            0,
            &events,
            tracer.dropped(),
            &convergence,
        ),
    )]);
    let summary_text = summary.to_string();
    Json::parse(&summary_text).expect("summary must be valid JSON");
    std::fs::write("BENCH_net.json", &summary_text).expect("write BENCH_net.json");

    println!(
        "cluster    : {} clients, {} replicas (majority {}), seed {seed:#x}",
        cfg.clients,
        cfg.replicas,
        cfg.majority()
    );
    println!(
        "mutex      : {} acquisitions, max occupancy {}, intrusions {}",
        report.entries.len(),
        report.max_in_cs,
        report.intrusions
    );
    println!(
        "consensus  : decisions {decisions:?} (register: {:?})",
        consensus.decision()
    );
    println!(
        "registers  : {} ops over {} registers — linearizable ({} object(s) checked)",
        history.len(),
        history.split_objects().len(),
        lin.objects.len()
    );
    println!("network    : {sent} sends, {dropped} drops, {quorum_ops} quorum ops");
    match convergence.convergence_ns {
        Some(0) => println!("convergence: nothing straddled the heal — immediate"),
        Some(ns) => println!(
            "convergence: stranded quorum ops drained {:.1} µs after heal",
            ns as f64 / 1_000.0
        ),
        None => println!("convergence: not measured"),
    }
    println!("wrote net_partition_trace.json and BENCH_net.json");
}
