//! The `sim-storm` workload: seeded `chaos::storm` points — n = 250 000
//! simulated processes, Δ = 100 ticks, the default slowdown bursts and
//! crash wave — each run on the timer-wheel engine through `Sim::start`,
//! `Engine::run_until` and `Engine::finish`. Single-threaded.
//!
//! How fast the engine runs depends on the storm's shape (how many
//! accesses its bursts inflate), so one run measures several distinct
//! storms derived from the seed and reports their aggregate. The first
//! storm is then replayed: its step, timing-failure and crash counts
//! must repeat exactly.

use crate::spans::{self, SpanTable};
use crate::stats::{median, quantile, ratio};
use crate::{Layers, Phase, Report};
use std::time::{Duration, Instant};
use tfr_chaos::storm::{storm_model, StormConfig};
use tfr_registers::rng::SplitMix64;
use tfr_registers::{Delta, ProcId, Ticks};
use tfr_sim::workload::ScaleLoop;
use tfr_sim::{RunConfig, Sim};
use tfr_telemetry::{with_pid, Span, Trace};

const N: usize = 250_000;
const DELTA_TICKS: u64 = 100;
/// Distinct storms per second of `--seconds`; a point takes about 1.3 s
/// on a 2-core x86-64 host.
const STORMS_PER_SECOND: f64 = 0.65;
/// Distinct storms a run measures at least.
const MIN_STORMS: usize = 3;

/// One storm point's timings (s) and counts.
struct Point {
    model: f64,
    start: f64,
    run: f64,
    finish: f64,
    steps: u64,
    timing_failures: u64,
    crashed: usize,
    timed_out: bool,
}

impl Point {
    /// The counts a replay of the same storm must repeat.
    fn counts(&self) -> (u64, u64, usize) {
        (self.steps, self.timing_failures, self.crashed)
    }
}

fn point(storm_seed: u64, trace: &Trace) -> Point {
    let cfg = StormConfig::new(N, Delta::from_ticks(DELTA_TICKS));
    let t0 = Instant::now();
    let model = {
        let _span = Span::enter(trace, "bench.model");
        storm_model(storm_seed, &cfg)
    };
    let t1 = Instant::now();
    let mut engine = {
        let _span = Span::enter(trace, "bench.start");
        let workload = ScaleLoop::new(cfg.rounds, 64.min(cfg.n), 0).salt(storm_seed);
        Sim::new(workload, RunConfig::new(cfg.n, cfg.delta), model).start()
    };
    let t2 = Instant::now();
    {
        let _span = Span::enter(trace, "bench.loop");
        engine.run_until(Ticks::NEVER);
    }
    let t3 = Instant::now();
    let result = {
        let _span = Span::enter(trace, "bench.finish");
        engine.finish()
    };
    let t4 = Instant::now();
    Point {
        model: (t1 - t0).as_secs_f64(),
        start: (t2 - t1).as_secs_f64(),
        run: (t3 - t2).as_secs_f64(),
        finish: (t4 - t3).as_secs_f64(),
        steps: result.steps,
        timing_failures: result.timing_failures,
        crashed: result.crashed.iter().filter(|&&c| c).count(),
        timed_out: result.timed_out,
    }
}

/// The seeds of the run's distinct storms.
fn storm_seeds(seed: u64, storms: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..storms).map(|_| rng.next_u64()).collect()
}

/// Runs one point per storm seed, then replays the first storm. Returns
/// the points (the replay last) and the phase's wall time.
fn run_phase(seeds: &[u64], trace: &Trace) -> (Vec<Point>, Duration) {
    let start = Instant::now();
    let points = with_pid(ProcId(0), || {
        let mut points: Vec<Point> = seeds.iter().map(|&s| point(s, trace)).collect();
        points.push(point(seeds[0], trace));
        points
    });
    (points, start.elapsed())
}

/// The integrity gate: no point hit its budget, and the replay of the
/// first storm counted the same steps, timing failures and crashes.
fn check(points: &[Point]) -> Result<(), String> {
    if let Some(i) = points.iter().position(|p| p.timed_out) {
        return Err(format!("storm point {i} hit its budget"));
    }
    let (first, replay) = (&points[0], &points[points.len() - 1]);
    if first.counts() != replay.counts() {
        return Err(format!(
            "a replay of one storm seed diverged: (steps, timing failures, crashed) {:?} vs {:?}",
            first.counts(),
            replay.counts()
        ));
    }
    Ok(())
}

fn med(points: &[Point], f: impl Fn(&Point) -> f64) -> f64 {
    median(&points.iter().map(f).collect::<Vec<_>>())
}

/// Linearized events per second over `run_until` + `finish`, aggregated
/// over the distinct storms (the replay excluded).
fn events_per_s(points: &[Point]) -> f64 {
    let storms = &points[..points.len() - 1];
    let steps: u64 = storms.iter().map(|p| p.steps).sum();
    let secs: f64 = storms.iter().map(|p| p.run + p.finish).sum();
    steps as f64 / secs
}

fn count(report: &mut Report, points: &[Point], integrity: &Result<(), String>) {
    report.gate(integrity);
    let ok = if integrity.is_ok() { points.len() } else { 0 };
    report.count(points.len() as u64, ok as u64);
}

/// Runs `sim-storm` in `phase` for about `seconds`.
pub fn run(phase: Phase, seed: u64, seconds: f64) -> Report {
    let storms = ((seconds * STORMS_PER_SECOND) as usize).max(MIN_STORMS);
    let mut report = Report::default();
    match phase {
        Phase::EndToEnd => {
            let (points, elapsed) = run_phase(&storm_seeds(seed, storms), &Trace::disabled());
            let integrity = check(&points);
            count(&mut report, &points, &integrity);
            let mut point_ns: Vec<u64> = points[..storms]
                .iter()
                .map(|p| ((p.run + p.finish) * 1e9) as u64)
                .collect();
            point_ns.sort_unstable();
            report.end_to_end(
                med(&points, |p| p.model + p.start),
                events_per_s(&points),
                quantile(&point_ns, 0.5) / 1e3,
                quantile(&point_ns, 0.9) / 1e3,
            );
            report.note(format!(
                "{storms} storms and a replay in {:.2} s; the first: {} steps, {} timing failures, \
                 {} crashed",
                elapsed.as_secs_f64(),
                points[0].steps,
                points[0].timing_failures,
                points[0].crashed
            ));
        }
        Phase::Traced => {
            // The same storms twice: untraced, then traced.
            let seeds = storm_seeds(seed, (storms / 2).max(MIN_STORMS));
            let (base, _) = run_phase(&seeds, &Trace::disabled());
            let integrity = check(&base);
            count(&mut report, &base, &integrity);

            let (tracer, trace) = spans::tracer(1, 1024);
            let (points, elapsed) = run_phase(&seeds, &trace);
            let mut integrity = check(&points);
            if integrity.is_ok() && points[0].counts() != base[0].counts() {
                integrity = Err("traced and untraced runs of one storm seed diverged".into());
            }
            count(&mut report, &points, &integrity);

            let spans = SpanTable::from_events(&tracer.events());
            let covered: u64 = ["bench.model", "bench.start", "bench.loop", "bench.finish"]
                .iter()
                .map(|l| spans.total_ns(l))
                .sum();
            let mut l = Layers::default();
            l.set("sim.model_s", med(&points, |p| p.model));
            l.set("sim.start_s", med(&points, |p| p.start));
            l.set("sim.loop_s", med(&points, |p| p.run));
            l.set("sim.finish_s", med(&points, |p| p.finish));
            l.set(
                "sim.loop_events_per_s",
                med(&points, |p| p.steps as f64 / p.run),
            );
            l.set("sim.steps", points[0].steps as f64);
            l.set("sim.timing_failures", points[0].timing_failures as f64);
            l.set("chaos.crashed", points[0].crashed as f64);
            l.telemetry(
                &tracer,
                events_per_s(&base),
                events_per_s(&points),
                1.0 - ratio(covered as f64, elapsed.as_nanos() as f64),
            );
            report.layers(l);
        }
    }
    report
}
