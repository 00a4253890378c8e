//! LOG (E24): the multi-height replicated log — SMR commit throughput
//! by batch size and pipeline window on both execution stacks, the
//! pipelined-vs-sequential speedup claim (the window hides decision
//! propagation), and the audit/mutant verdict table (the honest replica
//! passes; the seeded reordering applier is rejected by the same
//! checks).

use crate::Table;
use std::sync::Arc;
use std::time::Duration;
use tfr_core::universal::Counter;
use tfr_log::{run_smr, LogConfig, LogWorker, ReorderingApplier, ReplicatedLog, SmrConfig};
use tfr_net::{NetConfig, Network};
use tfr_registers::space::NativeSpace;
use tfr_registers::ProcId;
use tfr_telemetry::Trace;

/// One native SMR point: 2 proposers, 2 passive replicas, 48 heights.
/// The replica poll interval *is* the modelled propagation latency the
/// pipeline window exists to hide.
fn native_cfg(batch: usize, window: u64) -> SmrConfig {
    SmrConfig {
        workers: 2,
        replicas: 2,
        batches_per_worker: 24,
        batch,
        window,
        delta: Duration::from_micros(10),
        replica_poll: Duration::from_micros(100),
        seed: 0x10C + batch as u64 * 16 + window,
    }
}

fn run_native(cfg: &SmrConfig) -> tfr_log::SmrReport {
    run_smr(
        Arc::new(NativeSpace::with_capacity(1 << 17)),
        cfg,
        Trace::default(),
    )
}

fn integrity(report: &tfr_log::SmrReport) -> String {
    if report.converged && report.state_ok {
        "ok".into()
    } else {
        "DIVERGED".into()
    }
}

/// LOG — see module docs.
pub fn log() -> Vec<Table> {
    // -----------------------------------------------------------------
    // Table 1: commit throughput by batch size and window on both
    // substrates. Native sweeps the batch × window grid; quorum runs
    // keep a small height count (every log register access is an ABD
    // majority round trip) and show the same window effect.
    // -----------------------------------------------------------------
    let mut t1 = Table::new(
        "E24",
        "SMR commit throughput by batch size, window, and backend",
        &[
            "backend",
            "workers",
            "replicas",
            "batch",
            "window",
            "commits",
            "commits/sec",
            "ops/sec",
            "integrity",
        ],
    );
    for batch in [4usize, 8] {
        for window in [1u64, 2, 4] {
            let cfg = native_cfg(batch, window);
            let report = run_native(&cfg);
            t1.row(vec![
                "native".into(),
                cfg.workers.to_string(),
                cfg.replicas.to_string(),
                batch.to_string(),
                window.to_string(),
                report.commits.to_string(),
                format!("{:.0}", report.commits_per_sec()),
                format!("{:.0}", report.ops_per_sec()),
                integrity(&report),
            ]);
        }
    }
    for window in [1u64, 4] {
        let cfg = SmrConfig {
            workers: 2,
            replicas: 1,
            batches_per_worker: 3,
            batch: 4,
            window,
            delta: Duration::from_micros(200),
            replica_poll: Duration::from_micros(200),
            seed: 0x9E7 + window,
        };
        let lanes = cfg.workers + cfg.replicas;
        let net = Arc::new(Network::new(NetConfig::new(lanes, 3, 0x5eed ^ window)));
        let report = run_smr(Arc::new(net.space()), &cfg, Trace::default());
        t1.row(vec![
            "net".into(),
            cfg.workers.to_string(),
            cfg.replicas.to_string(),
            cfg.batch.to_string(),
            window.to_string(),
            report.commits.to_string(),
            format!("{:.0}", report.commits_per_sec()),
            format!("{:.0}", report.ops_per_sec()),
            integrity(&report),
        ]);
    }
    t1.note("Same ReplicatedLog, two substrates: native atomics vs ABD majority quorums —");
    t1.note("the log is backend-blind (RegisterSpace). window = 1 is sequential heights.");

    // -----------------------------------------------------------------
    // Table 2: the pipelining claim — identical workload with the
    // frontier window open (4) vs sequential (1). The window overlaps
    // consensus on height h+1 with the propagation of h's decision to
    // the applied floor, so the sequential run pays the poll interval
    // per height and the pipelined run amortises it. CI gates on the
    // speedup row (>= 1.5x) via BENCH_log.json.
    // -----------------------------------------------------------------
    let mut t2 = Table::new(
        "E24",
        "commit pipelining speedup (native, batch 8)",
        &[
            "backend",
            "batch",
            "window",
            "commits",
            "commits/sec",
            "speedup",
        ],
    );
    let pipelined = run_native(&native_cfg(8, 4));
    let sequential = run_native(&native_cfg(8, 1));
    let speedup = pipelined.commits_per_sec() / sequential.commits_per_sec().max(1e-9);
    for (report, window, s) in [
        (&pipelined, 4u64, format!("{speedup:.2}")),
        (&sequential, 1, "1.00".into()),
    ] {
        t2.row(vec![
            "native".into(),
            "8".into(),
            window.to_string(),
            report.commits.to_string(),
            format!("{:.0}", report.commits_per_sec()),
            s,
        ]);
    }
    t2.note("Application stays strictly sequential in both runs — the window reorders");
    t2.note("*deciding*, never *applying*; the audit below is what makes that claim safe.");

    // -----------------------------------------------------------------
    // Table 3: verdicts. The honest replica's lane converges under the
    // full audit; the seeded ReorderingApplier (h+1 before h, once) is
    // rejected by the same audit. A PASS row is only meaningful because
    // the mutant row is REJECTED.
    // -----------------------------------------------------------------
    let mut t3 = Table::new(
        "E24",
        "prefix audit and mutant verdicts (native)",
        &["applier", "heights", "in order", "divergence", "verdict"],
    );
    let honest = run_native(&native_cfg(4, 4));
    t3.row(vec![
        "honest replica".into(),
        honest.commits.to_string(),
        "yes".into(),
        honest.divergence.clone().unwrap_or_else(|| "none".into()),
        if honest.converged && honest.state_ok {
            "PASS".into()
        } else {
            "DIVERGED".into()
        },
    ]);
    let cfg = LogConfig {
        n: 1,
        replicas: 1,
        heights: 32,
        max_batch: 1,
        window: 4,
        delta: Duration::from_micros(10),
    };
    let mutant_log = Arc::new(ReplicatedLog::new(Counter, cfg));
    let mut worker = LogWorker::new(Arc::clone(&mutant_log), ProcId(0));
    let mut bad = ReorderingApplier::new(Arc::clone(&mutant_log), 0, 0xBAD5EED);
    for b in 0..12u64 {
        worker.enqueue(&[b + 1]);
    }
    let mut i = 0u32;
    while worker.pending() > 0 || worker.applied_len() < 12 {
        worker.pump();
        if i.is_multiple_of(4) {
            bad.poll();
        }
        i += 1;
    }
    bad.poll();
    let audit = mutant_log.audit(&[worker.applied_log(), bad.applied_log()]);
    t3.row(vec![
        "reordering mutant".into(),
        audit.heights_decided.to_string(),
        if audit.in_order { "yes" } else { "NO" }.into(),
        audit.divergence.clone().unwrap_or_else(|| "none".into()),
        if audit.converged() {
            "PASS (BUG: mutant escaped)".into()
        } else {
            "REJECTED".into()
        },
    ]);
    t3.note("The mutant applies one adjacent pair in the wrong order at a seeded point;");
    t3.note("the chained prefix digest diverges there and the audit rejects the lane.");

    vec![t1, t2, t3]
}
