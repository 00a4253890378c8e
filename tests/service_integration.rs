//! End-to-end acceptance for the sharded object service under chaos:
//! seeded schedules of stalls, permanent crash-stops, and
//! crash-recoveries (confined to the log's announce and propose points,
//! where a fresh incarnation provably resynchronises from the registers)
//! against four workers driving batched shard logs on two shards —
//! with **zero lost operations**: at quiescence every announced op is
//! committed and the shard states equal the register-backed announce
//! ground truth exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tfr::chaos::{random_schedule, ScheduleConfig};
use tfr::core::universal::Counter;
use tfr::registers::chaos::{points, run_as, ChaosSession, Fault, FaultAction, ThreadOutcome};
use tfr::registers::ProcId;
use tfr::service::{decode_op, ObjectService, ServiceConfig};

const N: usize = 4;
const SHARDS: usize = 2;
const ROUNDS: u64 = 6;
const BURST: usize = 4;
const KEYS: u64 = 8;

fn delta() -> Duration {
    Duration::from_micros(100)
}

fn service() -> ObjectService<Counter> {
    let cfg = ServiceConfig {
        capacity_per_shard: 512,
        delta: delta(),
        max_batch: 8,
        ..ServiceConfig::new(SHARDS, N)
    };
    ObjectService::new(|| Counter, &cfg)
}

/// What one chaos run produced, per worker: incarnation restarts and
/// whether the pid ended crash-stopped for good.
struct RunStats {
    recoveries: usize,
    crashed: Vec<usize>,
}

/// Runs the standard workload under an installed fault plan: each worker
/// drives [`ROUNDS`] bursts of [`BURST`] ops over [`KEYS`] keys,
/// restarting as a new incarnation after every recoverable crash (a
/// round interrupted mid-flight is redone — re-announcing is legal, and
/// the invariant checked afterwards is against what was *actually*
/// announced, not the intended workload).
fn drive_workload(svc: &ObjectService<Counter>, faults: &[Fault]) -> RunStats {
    let session = ChaosSession::install(faults);
    let stats: Vec<(usize, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N)
            .map(|w| {
                s.spawn(move || {
                    let pid = ProcId(w);
                    let progress = AtomicU64::new(0);
                    let mut recoveries = 0usize;
                    loop {
                        let outcome = run_as(pid, || {
                            let mut worker = svc.worker(pid);
                            for r in progress.load(Ordering::SeqCst)..ROUNDS {
                                let burst: Vec<(u64, u64)> = (0..BURST)
                                    .map(|i| {
                                        let key = (w as u64 + i as u64 * N as u64) % KEYS;
                                        let amount = 1 + ((w as u64 + r + i as u64) % 4);
                                        (key, amount)
                                    })
                                    .collect();
                                worker.enqueue_burst(&burst);
                                worker.drive();
                                progress.store(r + 1, Ordering::SeqCst);
                            }
                        });
                        match outcome {
                            ThreadOutcome::Completed(()) => return (recoveries, false),
                            ThreadOutcome::Crashed => return (recoveries, true),
                            ThreadOutcome::CrashedRecoverable(down) => {
                                recoveries += 1;
                                std::thread::sleep(down);
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a service chaos worker panicked"))
            .collect()
    });
    drop(session);
    RunStats {
        recoveries: stats.iter().map(|&(r, _)| r).sum(),
        crashed: stats
            .iter()
            .enumerate()
            .filter(|(_, &(_, c))| c)
            .map(|(w, _)| w)
            .collect(),
    }
}

/// Flushes announced-but-uncommitted leftovers (e.g. a crash-stopped
/// worker's final burst) by enqueueing zero-amount ops on every shard
/// from outside the chaos regime — a proposer's record takes *everyone's*
/// pending ops, so a few flush rounds drain any backlog.
fn flush(svc: &ObjectService<Counter>) {
    let mut flusher = svc.worker(ProcId(0));
    for _ in 0..64 {
        if svc.audit().iter().all(|a| a.complete()) {
            return;
        }
        let one_per_shard: Vec<(u64, u64)> = (0..SHARDS)
            .map(|shard| {
                let key = (0..KEYS)
                    .find(|&k| svc.shard_of(k) == shard)
                    .expect("8 keys over 2 shards hit both");
                (key, 0)
            })
            .collect();
        flusher.enqueue_burst(&one_per_shard);
        flusher.drive();
    }
    panic!("flush did not reach quiescence in 64 rounds");
}

/// Asserts the zero-lost-ops invariant from register ground truth: every
/// shard's log is contiguous and complete (committed == announced for
/// every worker), and the replayed state equals the sum of exactly the
/// announced amounts, per key.
fn assert_nothing_lost(svc: &ObjectService<Counter>, ctx: &str) {
    let audits = svc.audit();
    for (shard, audit) in audits.iter().enumerate() {
        assert!(audit.converged(), "{ctx}: shard {shard} log not contiguous");
        assert!(
            audit.complete(),
            "{ctx}: shard {shard} lost ops (committed {:?} != announced {:?})",
            audit.committed,
            audit.announced
        );
        let mut expected = std::collections::BTreeMap::new();
        for p in 0..N {
            for seq in 0..audit.announced[p] {
                let raw = svc
                    .announced_op(shard, p, seq)
                    .unwrap_or_else(|| panic!("{ctx}: announced op {p}/{seq} unreadable"));
                let (key, amount) = decode_op(raw);
                *expected.entry(key).or_insert(0u64) += amount;
            }
        }
        assert_eq!(
            svc.snapshot(shard),
            expected,
            "{ctx}: shard {shard} state diverged from the announce ground truth"
        );
    }
}

/// The acceptance sweep: twenty seeded service schedules, each drawing up
/// to six faults. Zero lost operations on every seed, and — across the
/// sweep — real crash-recovery traffic: incarnations must actually
/// restart at the log points and resume to a complete log.
#[test]
fn seeded_service_schedules_lose_no_ops() {
    let mut total_recoveries = 0usize;
    let mut total_crashes = 0usize;
    for seed in 0..20u64 {
        let faults = random_schedule(seed, &ScheduleConfig::service(N, delta()));
        let svc = service();
        let stats = drive_workload(&svc, &faults);
        flush(&svc);
        assert_nothing_lost(&svc, &format!("seed {seed}"));
        total_recoveries += stats.recoveries;
        total_crashes += stats.crashed.len();
    }
    assert!(
        total_recoveries >= 5,
        "the sweep must exercise recovery (got {total_recoveries} restarts)"
    );
    assert!(
        total_crashes >= 1,
        "the sweep must include a permanent crash-stop (got {total_crashes})"
    );
}

/// Service schedules are a pure function of their seed, and their
/// crash-recoveries stay confined to the two points a fresh incarnation
/// can resynchronise from.
#[test]
fn service_schedules_replay_and_confine_recoveries() {
    let cfg = ScheduleConfig::service(N, delta());
    assert_eq!(random_schedule(9, &cfg), random_schedule(9, &cfg));
    assert_ne!(random_schedule(9, &cfg), random_schedule(10, &cfg));
    let mut saw_recover = 0usize;
    for seed in 0..200u64 {
        for f in random_schedule(seed, &cfg) {
            if let FaultAction::CrashRecover(down) = f.action {
                saw_recover += 1;
                assert!(
                    f.point == points::LOG_ANNOUNCE || f.point == points::LOG_PROPOSE,
                    "seed {seed}: crash-recover at unsafe point {}",
                    f.point
                );
                assert!(
                    down >= cfg.min_down && down <= cfg.max_down,
                    "seed {seed}: down time {down:?} out of range"
                );
            }
        }
    }
    assert!(
        saw_recover > 100,
        "recover_prob must bite across the sweep (got {saw_recover})"
    );
}

/// A handcrafted plan that *guarantees* recoveries fire mid-protocol:
/// worker 1 dies at its second announce publication, worker 2 at its
/// first — both come back as new incarnations, resynchronise their
/// announce counters from the registers, redo the interrupted round, and
/// the log still ends complete.
#[test]
fn crash_recovered_incarnations_resume_to_a_complete_log() {
    let faults = vec![
        Fault {
            pid: ProcId(1),
            point: points::LOG_ANNOUNCE,
            nth: 2,
            action: FaultAction::CrashRecover(Duration::from_micros(200)),
        },
        Fault {
            pid: ProcId(2),
            point: points::LOG_ANNOUNCE,
            nth: 1,
            action: FaultAction::CrashRecover(Duration::from_micros(200)),
        },
        Fault {
            pid: ProcId(3),
            point: points::LOG_PROPOSE,
            nth: 2,
            action: FaultAction::CrashRecover(Duration::from_micros(150)),
        },
    ];
    let svc = service();
    let stats = drive_workload(&svc, &faults);
    flush(&svc);
    assert!(
        stats.recoveries >= 2,
        "both announce-point faults must fire (got {})",
        stats.recoveries
    );
    assert!(
        stats.crashed.is_empty(),
        "no permanent crashes were planned"
    );
    assert_nothing_lost(&svc, "handcrafted recovery plan");
}

/// Fault-free baseline under the same harness: the workload completes
/// with no restarts, and the intended totals are exactly what the
/// announce ground truth reconstructs (nothing was redone, nothing
/// lost).
#[test]
fn fault_free_service_runs_match_the_intended_workload() {
    let svc = service();
    let stats = drive_workload(&svc, &[]);
    assert_eq!(stats.recoveries, 0);
    assert!(stats.crashed.is_empty());
    flush(&svc);
    assert_nothing_lost(&svc, "fault-free");
    // The intended workload is reconstructible: every worker did all its
    // rounds, once.
    let mut intended = std::collections::BTreeMap::new();
    for w in 0..N {
        for r in 0..ROUNDS {
            for i in 0..BURST {
                let key = (w as u64 + i as u64 * N as u64) % KEYS;
                *intended.entry(key).or_insert(0u64) += 1 + ((w as u64 + r + i as u64) % 4);
            }
        }
    }
    let mut actual = std::collections::BTreeMap::new();
    for shard in 0..SHARDS {
        for (key, total) in svc.snapshot(shard) {
            if total > 0 {
                actual.insert(key, total);
            }
        }
    }
    let intended: std::collections::BTreeMap<u64, u64> =
        intended.into_iter().filter(|&(_, v)| v > 0).collect();
    assert_eq!(actual, intended, "fault-free totals are the workload's");
}
