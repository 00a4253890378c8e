//! Property-based tests over the whole stack: randomized timing models,
//! inputs, and workloads must never shake a safety property loose.
//!
//! Each test draws its cases from a fixed-seed [`SplitMix64`] stream, so
//! any failure replays exactly; the case index is included in assertion
//! messages for bisection.

use tfr::asynclock::bakery::BakerySpec;
use tfr::asynclock::bar_david::StarvationFreeSpec;
use tfr::asynclock::bw_bakery::BwBakerySpec;
use tfr::asynclock::lamport_fast::LamportFastSpec;
use tfr::asynclock::peterson::PetersonSpec;
use tfr::asynclock::workload::LockLoop;
use tfr::core::consensus::ConsensusSpec;
use tfr::core::mutex::resilient::standard_resilient_spec;
use tfr::registers::rng::SplitMix64;
use tfr::registers::spec::Obs;
use tfr::registers::{Delta, ProcId, Ticks};
use tfr::sim::metrics::{consensus_stats, mutex_stats};
use tfr::sim::timing::{CrashSchedule, UniformAccess};
use tfr::sim::{RunConfig, Sim};

/// Agreement and validity of Algorithm 1 hold for arbitrary process
/// counts, inputs, timing distributions (including failure-heavy ones),
/// and crash schedules.
#[test]
fn consensus_safety_under_arbitrary_timing_and_crashes() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    for case in 0..64 {
        let n = rng.random_range(1..=5) as usize;
        let inputs_seed = rng.next_u64();
        let timing_seed = rng.next_u64();
        let hi = rng.random_range(20..=999);
        let crash = if rng.random_bool(0.5) {
            Some((rng.random_range(0..=5) as usize, rng.random_range(0..=1999)))
        } else {
            None
        };
        let d = Delta::from_ticks(100);
        let inputs: Vec<bool> = (0..n).map(|i| (inputs_seed >> (i % 64)) & 1 == 1).collect();
        let valid: Vec<u64> = inputs.iter().map(|&b| b as u64).collect();
        let base = UniformAccess::new(Ticks(10), Ticks(hi), timing_seed);
        let crashes = crash
            .into_iter()
            .filter(|(p, _)| *p < n)
            .map(|(p, t)| (ProcId(p), Ticks(t)))
            .collect();
        let model = CrashSchedule::new(base, crashes);
        let config = RunConfig::new(n, d).max_steps(50_000);
        let result = Sim::new(ConsensusSpec::new(inputs).max_rounds(30), config, model).run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement, "case {case}: agreement violated");
        assert!(
            stats.valid_against(&valid),
            "case {case}: validity violated"
        );
    }
}

/// When the timing constraints hold (durations ≤ Δ), Algorithm 1 always
/// terminates within the 15Δ bound.
#[test]
fn consensus_terminates_within_bound_when_constraints_hold() {
    let mut rng = SplitMix64::new(0x5EED_0002);
    for case in 0..64 {
        let n = rng.random_range(1..=7) as usize;
        let inputs_seed = rng.next_u64();
        let timing_seed = rng.next_u64();
        let d = Delta::from_ticks(100);
        let inputs: Vec<bool> = (0..n).map(|i| (inputs_seed >> (i % 64)) & 1 == 1).collect();
        let model = UniformAccess::new(Ticks(1), d.ticks(), timing_seed);
        let result = Sim::new(
            ConsensusSpec::new(inputs).with_delta(d.ticks()),
            RunConfig::new(n, d),
            model,
        )
        .run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement, "case {case}: agreement violated");
        let t = stats.all_decided_by;
        assert!(t.is_some(), "case {case}: must decide without failures");
        assert!(
            t.unwrap() <= d.times(15),
            "case {case}: decided at {} > 15Δ",
            t.unwrap()
        );
    }
}

/// Mutual exclusion of Algorithm 3 holds under arbitrary random timing,
/// and so does the per-process workload event discipline
/// (trying → critical → exit → remainder, cyclically).
#[test]
fn resilient_mutex_safety_and_event_discipline() {
    let mut rng = SplitMix64::new(0x5EED_0003);
    for case in 0..64 {
        let n = rng.random_range(1..=4) as usize;
        let timing_seed = rng.next_u64();
        let hi = rng.random_range(20..=599);
        let cs = rng.random_range(1..=59);
        let ncs = rng.random_range(1..=59);
        let d = Delta::from_ticks(100);
        let automaton = LockLoop::new(standard_resilient_spec(n, 0, d.ticks()), 3)
            .cs_ticks(Ticks(cs))
            .ncs_ticks(Ticks(ncs));
        let model = UniformAccess::new(Ticks(10), Ticks(hi), timing_seed);
        let result = Sim::new(automaton, RunConfig::new(n, d), model).run();
        assert!(
            result.all_halted(),
            "case {case}: random fair schedules must complete"
        );
        let stats = mutex_stats(&result, Ticks::ZERO);
        assert!(
            !stats.mutual_exclusion_violated,
            "case {case}: mutex violated"
        );
        assert_eq!(stats.cs_entries, n as u64 * 3, "case {case}");

        // Event discipline per process.
        for p in 0..n {
            let seq: Vec<Obs> = result
                .obs
                .iter()
                .filter(|e| e.pid == ProcId(p))
                .filter(|e| {
                    matches!(
                        e.obs,
                        Obs::EnterTrying
                            | Obs::EnterCritical
                            | Obs::ExitCritical
                            | Obs::EnterRemainder
                    )
                })
                .map(|e| e.obs)
                .collect();
            let expected = [
                Obs::EnterTrying,
                Obs::EnterCritical,
                Obs::ExitCritical,
                Obs::EnterRemainder,
            ];
            assert_eq!(seq.len(), 12, "case {case}: 3 iterations × 4 phase events");
            for (i, o) in seq.iter().enumerate() {
                assert_eq!(
                    *o,
                    expected[i % 4],
                    "case {case}: process {p} event {i} out of phase"
                );
            }
        }
    }
}

/// Every asynchronous lock in the zoo is safe and live under arbitrary
/// random timing (they make no timing assumptions at all).
#[test]
fn async_lock_zoo_safety() {
    let mut rng = SplitMix64::new(0x5EED_0004);
    for case in 0..64 {
        let which = rng.index(5);
        let n = rng.random_range(1..=4) as usize;
        let timing_seed = rng.next_u64();
        let hi = rng.random_range(20..=599);
        let d = Delta::from_ticks(100);
        let model = UniformAccess::new(Ticks(10), Ticks(hi), timing_seed);
        let config = RunConfig::new(n, d);
        let result = match which {
            0 => Sim::new(LockLoop::new(LamportFastSpec::new(n, 0), 3), config, model).run(),
            1 => Sim::new(LockLoop::new(BakerySpec::new(n, 0), 3), config, model).run(),
            2 => Sim::new(LockLoop::new(BwBakerySpec::new(n, 0), 3), config, model).run(),
            3 => Sim::new(LockLoop::new(PetersonSpec::new(n, 0), 3), config, model).run(),
            _ => Sim::new(
                LockLoop::new(
                    StarvationFreeSpec::<LamportFastSpec>::over_lamport_fast(n, 0),
                    3,
                ),
                config,
                model,
            )
            .run(),
        };
        assert!(result.all_halted(), "case {case} (lock {which})");
        let stats = mutex_stats(&result, Ticks::ZERO);
        assert!(
            !stats.mutual_exclusion_violated,
            "case {case} (lock {which})"
        );
        assert_eq!(stats.cs_entries, n as u64 * 3, "case {case} (lock {which})");
    }
}

/// Simulation runs are exactly reproducible from their seed.
#[test]
fn simulation_is_deterministic() {
    let mut rng = SplitMix64::new(0x5EED_0005);
    for case in 0..64 {
        let n = rng.random_range(1..=4) as usize;
        let seed = rng.next_u64();
        let d = Delta::from_ticks(100);
        let run = || {
            let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let model = UniformAccess::new(Ticks(10), Ticks(300), seed);
            Sim::new(
                ConsensusSpec::new(inputs).max_rounds(30),
                RunConfig::new(n, d).max_steps(50_000),
                model,
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.obs, b.obs, "case {case}");
        assert_eq!(a.steps, b.steps, "case {case}");
        assert_eq!(a.end_time, b.end_time, "case {case}");
    }
}

/// Bounded-failure consensus: whenever the failure window actually
/// respects the promised bound B, every process decides within the
/// finite round/register budget.
#[test]
fn bounded_consensus_decides_within_promise() {
    use tfr::core::bounded::BoundedConsensusSpec;
    use tfr::sim::timing::{FailureWindows, Window};
    let mut rng = SplitMix64::new(0x5EED_0006);
    for case in 0..48 {
        let bound_deltas = rng.random_range(0..=5);
        let inputs_seed = rng.next_u64();
        let timing_seed = rng.next_u64();
        let slow_pid = rng.index(3);
        let d = Delta::from_ticks(100);
        let bound = Ticks(d.ticks().0 * bound_deltas);
        let inputs: Vec<bool> = (0..3).map(|i| (inputs_seed >> i) & 1 == 1).collect();
        let spec = BoundedConsensusSpec::new(inputs.clone(), bound, d);
        let model = FailureWindows::new(
            UniformAccess::new(Ticks(10), d.ticks(), timing_seed),
            vec![Window {
                from: Ticks::ZERO,
                to: bound,
                pids: Some(vec![ProcId(slow_pid)]),
                inflated: Ticks(350),
            }],
        );
        let result = Sim::new(spec, RunConfig::new(3, d), model).run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement, "case {case}");
        assert!(
            stats.all_decided_by.is_some(),
            "case {case}: failures within the bound ⇒ the finite budget must suffice"
        );
        let gave_up = result
            .events(|o| match o {
                Obs::Note("round-bound-exceeded", r) => Some(*r),
                _ => None,
            })
            .count();
        assert_eq!(gave_up, 0, "case {case}");
    }
}

/// Spec-form leader election: under arbitrary random timing (failures
/// included), whoever elects agrees on one real participant.
#[test]
fn election_spec_safety() {
    use tfr::core::election_spec::ElectionSpec;
    let mut rng = SplitMix64::new(0x5EED_0007);
    for case in 0..48 {
        let n = rng.random_range(1..=4) as usize;
        let timing_seed = rng.next_u64();
        let hi = rng.random_range(20..=599);
        let d = Delta::from_ticks(100);
        let spec = ElectionSpec::new(n, 0, d.ticks()).inner_rounds(30);
        let model = UniformAccess::new(Ticks(10), Ticks(hi), timing_seed);
        let config = RunConfig::new(n, d).max_steps(300_000);
        let result = Sim::new(spec, config, model).run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement, "case {case}");
        if let Some(leader) = stats.decided_value {
            assert!(
                leader < n as u64,
                "case {case}: the leader must be a participant"
            );
        }
    }
}

/// The PRNG underneath every test above: equal seeds give equal streams,
/// `reseed` restarts a stream exactly, and small seed perturbations give
/// unrelated streams.
#[test]
fn rng_seed_determinism() {
    let mut outer = SplitMix64::new(0x5EED_0009);
    for case in 0..32 {
        let seed = outer.next_u64();
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        let stream: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        for (i, &v) in stream.iter().enumerate() {
            assert_eq!(v, b.next_u64(), "case {case}: draw {i} diverged");
        }
        a.reseed(seed);
        for (i, &v) in stream.iter().enumerate() {
            assert_eq!(v, a.next_u64(), "case {case}: reseed draw {i} diverged");
        }
        let mut c = SplitMix64::new(seed ^ 1);
        let agree = stream.iter().filter(|&&v| v == c.next_u64()).count();
        assert!(agree <= 1, "case {case}: adjacent seeds nearly collide");
    }
}

/// Streams split off with `fork` are independent of the parent and of
/// each other: no draw-for-draw correlation, and forking is itself
/// deterministic (the whole tree replays from the master seed).
#[test]
fn rng_fork_stream_independence() {
    let mut outer = SplitMix64::new(0x5EED_000A);
    for case in 0..32 {
        let seed = outer.next_u64();
        let mut parent = SplitMix64::new(seed);
        let mut child_a = parent.fork();
        let mut child_b = parent.fork();

        // Replaying the master seed replays the whole tree.
        let mut parent2 = SplitMix64::new(seed);
        assert_eq!(parent2.fork(), child_a, "case {case}");
        assert_eq!(parent2.fork(), child_b, "case {case}");

        // No draw-for-draw matches across the three streams.
        let pa: Vec<u64> = (0..64).map(|_| parent.next_u64()).collect();
        let ca: Vec<u64> = (0..64).map(|_| child_a.next_u64()).collect();
        let cb: Vec<u64> = (0..64).map(|_| child_b.next_u64()).collect();
        for i in 0..64 {
            assert_ne!(pa[i], ca[i], "case {case}: parent/child correlate at {i}");
            assert_ne!(pa[i], cb[i], "case {case}: parent/child correlate at {i}");
            assert_ne!(ca[i], cb[i], "case {case}: siblings correlate at {i}");
        }
    }
}

/// Chi-square sanity check: bucketing `next_u64` draws 16 ways stays
/// comfortably inside the χ²(15) tail — the generator is not grossly
/// non-uniform, in its raw stream or in a forked child.
#[test]
fn rng_chi_square_uniformity() {
    let mut master = SplitMix64::new(0x5EED_000B);
    let mut child = master.fork();
    for (name, rng) in [("master", &mut master), ("forked child", &mut child)] {
        const BUCKETS: usize = 16;
        const DRAWS: usize = 10_000;
        let mut counts = [0u64; BUCKETS];
        for _ in 0..DRAWS {
            counts[(rng.next_u64() >> 60) as usize] += 1;
        }
        let expected = DRAWS as f64 / BUCKETS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // χ²(15): p = 0.001 at 37.7. A generous 45 keeps the test
        // deterministic-signal only — it fails for broken generators
        // (constant, counter, low-entropy), not for unlucky streams
        // (there is no luck: the seed is fixed).
        assert!(chi2 < 45.0, "{name}: chi-square {chi2:.1} ≥ 45");
    }
}

/// AAT baseline safety matches Algorithm 1 under the same adversaries.
#[test]
fn aat_safety_under_arbitrary_timing() {
    use tfr::baselines::aat::{AatConsensusSpec, DelaySchedule};
    let mut rng = SplitMix64::new(0x5EED_0008);
    for case in 0..48 {
        let n = rng.random_range(1..=4) as usize;
        let inputs_seed = rng.next_u64();
        let timing_seed = rng.next_u64();
        let hi = rng.random_range(20..=799);
        let initial = rng.random_range(1..=199);
        let d = Delta::from_ticks(100);
        let inputs: Vec<bool> = (0..n).map(|i| (inputs_seed >> (i % 64)) & 1 == 1).collect();
        let valid: Vec<u64> = inputs.iter().map(|&b| b as u64).collect();
        let spec =
            AatConsensusSpec::new(inputs, DelaySchedule::doubling(Ticks(initial))).max_rounds(30);
        let model = UniformAccess::new(Ticks(10), Ticks(hi), timing_seed);
        let config = RunConfig::new(n, d).max_steps(100_000);
        let result = Sim::new(spec, config, model).run();
        let stats = consensus_stats(&result);
        assert!(stats.agreement, "case {case}");
        assert!(stats.valid_against(&valid), "case {case}");
    }
}

/// The service router is total, stable, and in-range for arbitrary
/// shard counts, seeds, and keys: every key routes, the same key always
/// routes to the same shard, and no draw ever leaves `0..shards`.
#[test]
fn service_router_is_total_stable_and_in_range() {
    use tfr::service::Router;
    let mut rng = SplitMix64::new(0x5EED_0022);
    for case in 0..64 {
        let shards = rng.random_range(1..=64) as usize;
        let router = Router::new(shards, rng.next_u64());
        for _ in 0..128 {
            let key = rng.next_u64();
            let shard = router.route(key);
            assert!(shard < shards, "case {case}: shard {shard} of {shards}");
            assert_eq!(router.route(key), shard, "case {case}: routing is stable");
        }
        // Keys spread: with plenty of keys, every shard of a small count
        // is hit (splitmix64 is a full-period mixer).
        if shards <= 8 {
            let mut hit = vec![false; shards];
            for key in 0..512u64 {
                hit[router.route(key)] = true;
            }
            assert!(hit.iter().all(|&h| h), "case {case}: a shard never hit");
        }
    }
}

/// Shard tiles never alias: writes through every tile land on disjoint
/// parent registers, so one shard can never clobber another's state.
#[test]
fn service_shard_tiles_never_alias_registers() {
    use std::sync::Arc;
    use tfr::registers::space::{NativeSpace, RegisterSpace, SubSpace};
    let mut rng = SplitMix64::new(0x5EED_0023);
    for case in 0..64 {
        let shards = rng.random_range(1..=9);
        let per_tile = rng.random_range(4..=40);
        let space = Arc::new(NativeSpace::new());
        let tiles = SubSpace::tile(Arc::clone(&space), shards);
        for (t, tile) in tiles.iter().enumerate() {
            for i in 0..per_tile {
                tile.write(i, (t as u64) << 32 | (i + 1));
            }
        }
        // Every tile still reads back exactly what it wrote: no other
        // tile's writes overlapped it.
        for (t, tile) in tiles.iter().enumerate() {
            for i in 0..per_tile {
                assert_eq!(
                    tile.read(i),
                    (t as u64) << 32 | (i + 1),
                    "case {case}: tile {t} index {i} was clobbered"
                );
            }
        }
    }
}

/// Cross-shard conservation: for arbitrary routed workloads, the union
/// of per-shard counter snapshots equals the sequentially computed
/// totals — no op lands on the wrong shard, none is double-counted.
#[test]
fn service_cross_shard_totals_equal_sequential_sums() {
    use std::collections::BTreeMap;
    use tfr::core::universal::Counter;
    use tfr::registers::ProcId;
    use tfr::service::{ObjectService, ServiceConfig};
    let mut rng = SplitMix64::new(0x5EED_0024);
    for case in 0..64 {
        let shards = rng.random_range(1..=4) as usize;
        let cfg = ServiceConfig {
            capacity_per_shard: 128,
            delta: std::time::Duration::from_micros(10),
            router_seed: rng.next_u64(),
            ..ServiceConfig::new(shards, 1)
        };
        let svc = ObjectService::new(|| Counter, &cfg);
        let mut worker = svc.worker(ProcId(0));
        let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
        let burst: Vec<(u64, u64)> = (0..32)
            .map(|_| {
                let key = rng.random_range(0..=11);
                let amount = rng.random_range(1..=9);
                *expected.entry(key).or_insert(0) += amount;
                (key, amount)
            })
            .collect();
        worker.enqueue_burst(&burst);
        worker.drive();
        let mut actual: BTreeMap<u64, u64> = BTreeMap::new();
        for shard in 0..shards {
            for (key, total) in svc.snapshot(shard) {
                assert_eq!(
                    svc.shard_of(key),
                    shard,
                    "case {case}: key {key} leaked to shard {shard}"
                );
                assert!(
                    actual.insert(key, total).is_none(),
                    "case {case}: key {key} double-counted across shards"
                );
            }
        }
        assert_eq!(actual, expected, "case {case}: totals must be conserved");
    }
}

/// The replicated log's register layout — three stride-3 regions
/// (lanes: acks, announce counters and seq-strided op payloads; records;
/// slots), per-`(height, proposer)` records of `n`
/// cells, and per-height consensus subspaces at stride `heights` —
/// never aliases two logical cells onto one parent register, for
/// arbitrary shapes. An overlap would let one announce or record write
/// clobber another's decided batch, so this is the layout's
/// load-bearing fact.
#[test]
fn log_register_tiling_is_disjoint_across_heights_and_regions() {
    use std::collections::HashSet;
    use std::sync::Arc;
    use tfr::registers::space::{NativeSpace, SubSpace};

    let mut rng = SplitMix64::new(0x7113_1135);
    for case in 0..64 {
        let n = rng.random_range(1..=8);
        let replicas = rng.random_range(0..=3);
        let heights = rng.random_range(1..=24);
        let seqs = rng.random_range(1..=16); // ops announced per lane
        let slot_cells = rng.random_range(1..=32); // consensus registers probed per height

        let parent = Arc::new(NativeSpace::new());
        let region = |offset| SubSpace::new(Arc::clone(&parent), offset, 3);
        let (lanes, records) = (region(0), region(1));
        let appliers = n + replicas;
        let mut seen = HashSet::new();
        let mut claim = |root: u64, what: String| {
            assert!(
                seen.insert(root),
                "case {case}: {what} aliases another cell"
            );
        };
        for lane in 0..appliers {
            claim(lanes.parent_index(lane), format!("ack lane {lane}"));
        }
        for p in 0..n {
            claim(
                lanes.parent_index(appliers + p),
                format!("lane {p}'s counter"),
            );
            for seq in 0..seqs {
                let idx = appliers + n + p + seq * n;
                claim(lanes.parent_index(idx), format!("op {p}/{seq}"));
            }
        }
        for h in 0..heights {
            for q in 0..n {
                for p in 0..n {
                    let idx = (h * n + q) * n + p;
                    claim(
                        records.parent_index(idx),
                        format!("record h{h} p{q} cell {p}"),
                    );
                }
            }
            let slots = SubSpace::new(region(2), h, heights);
            for i in 0..slot_cells {
                // `parent_index` maps one nesting level at a time:
                // height-local → region-local → root.
                let root = region(2).parent_index(slots.parent_index(i));
                claim(root, format!("height {h} slot register {i}"));
            }
        }
    }
}

/// Parallel shard execution is only sound if the tiling is: for 64
/// random plan shapes, `Region::tile` tiles are pairwise disjoint,
/// `certify` accepts the plan with every sampled footprint contained in
/// its shard's declared region, and puncturing the tiling (one shard's
/// region shifted into a neighbor's) is rejected — the preflight half
/// of the independence argument the runtime fence then backs.
#[test]
fn sim_shard_tiling_is_disjoint_and_certifiable() {
    use tfr::sim::shard::{certify, Region, ShardPlan, ShardSpec};
    use tfr::sim::timing::standard_no_failures;
    use tfr::sim::workload::ScaleLoop;
    use tfr::sim::RunConfig;

    let d = Delta::from_ticks(60);
    let mut rng = SplitMix64::new(0x5AA2_D15C);
    for case in 0..64u64 {
        let shards = rng.random_range(2..=8) as usize;
        let width = rng.random_range(2..=32);
        let base = rng.random_range(0..=1_000_000);
        let procs = rng.random_range(1..=width) as usize;

        let regions: Vec<Region> = (0..shards).map(|i| Region::tile(base, i, width)).collect();
        for i in 0..shards {
            for j in i + 1..shards {
                assert!(
                    regions[i].is_disjoint(&regions[j]),
                    "case {case}: tiles {i} and {j} overlap"
                );
            }
            assert_eq!(regions[i].len(), width, "case {case}: tile {i} width");
        }

        let plan = ShardPlan {
            shards: (0..shards)
                .map(|i| ShardSpec {
                    automaton: ScaleLoop::new(2, procs, regions[i].lo).salt(case ^ i as u64),
                    model: standard_no_failures(d, case.wrapping_add(i as u64)),
                    config: RunConfig::new(procs, d),
                    region: regions[i],
                })
                .collect(),
            shared: None,
            epoch: None,
        };
        let cert = certify(&plan, 32)
            .unwrap_or_else(|e| panic!("case {case}: disjoint tiling must certify, got {e}"));
        assert_eq!(cert.footprints.len(), shards);
        assert!(
            cert.footprints.iter().all(|fp| !fp.is_empty()),
            "case {case}: sampling must observe each shard's accesses"
        );

        // Puncture the tiling: shift shard 1 to straddle shard 0's tile.
        let mut bad = plan;
        bad.shards[1].region = Region::new(base + width / 2, base + width / 2 + width);
        assert!(
            certify(&bad, 32).is_err(),
            "case {case}: punctured tiling must be rejected"
        );
    }
}
