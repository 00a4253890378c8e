//! The metrics registry: atomic counters and log-bucketed histograms,
//! updatable inline from any thread or derived after the fact from a
//! recorded event stream.

use crate::event::{Event, EventKind};
use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
///
/// # Example
///
/// ```
/// use tfr_telemetry::Counter;
///
/// let c = Counter::default();
/// c.incr();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per power of two of `u64`, plus a
/// zero bucket at index 0.
const BUCKETS: usize = 65;

/// A lock-free histogram over `u64` samples with power-of-two buckets.
///
/// Bucket `i ≥ 1` covers `[2^(i−1), 2^i)`; bucket 0 holds exact zeros.
/// Log bucketing trades precision for a fixed footprint and wait-free
/// recording — the right trade for latency distributions spanning
/// nanoseconds to seconds.
///
/// # Example
///
/// ```
/// use tfr_telemetry::Histogram;
///
/// let h = Histogram::default();
/// for v in [100u64, 200, 400, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.sum(), 10_700);
/// // Quantiles report the upper edge of the owning bucket.
/// assert!(h.quantile(0.5) >= 200);
/// assert!(h.quantile(1.0) >= 10_000);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        match v {
            0 => 0,
            v => 64 - v.leading_zeros() as usize,
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum() as f64 / n as f64,
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`); 0 when empty. Within-bucket position is unknown,
    /// so this overestimates by at most 2×.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    i => 1u64 << i,
                };
            }
        }
        self.max()
    }

    /// `(bucket upper bound, count)` for every non-empty bucket.
    pub fn nonempty_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| match b.load(Ordering::Relaxed) {
                0 => None,
                c => Some((
                    match i {
                        0 => 0,
                        64 => u64::MAX,
                        i => 1u64 << i,
                    },
                    c,
                )),
            })
            .collect()
    }

    /// A JSON snapshot: count, sum, mean, max, p50/p99, buckets.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count() as f64)),
            ("sum", Json::Num(self.sum() as f64)),
            ("mean", Json::Num(self.mean())),
            ("max", Json::Num(self.max() as f64)),
            ("p50", Json::Num(self.quantile(0.5) as f64)),
            ("p99", Json::Num(self.quantile(0.99) as f64)),
            (
                "buckets",
                Json::Arr(
                    self.nonempty_buckets()
                        .into_iter()
                        .map(|(le, c)| {
                            Json::obj([
                                ("le", Json::Num(le as f64)),
                                ("count", Json::Num(c as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A named registry of counters and histograms.
///
/// Handles are `Arc`s: get one once, update it lock-free forever after —
/// the registry lock is only taken at get-or-create and snapshot time.
///
/// # Example
///
/// ```
/// use tfr_telemetry::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// reg.counter("retries").incr();
/// reg.histogram("entry_wait_ns").record(1_500);
/// let snapshot = reg.to_json();
/// assert!(snapshot.get("counters").unwrap().get("retries").is_some());
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// A JSON snapshot of every metric, keys sorted.
    pub fn to_json(&self) -> Json {
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Json::obj([
            (
                "counters",
                Json::Obj(
                    counters
                        .iter()
                        .map(|(k, c)| (k.clone(), Json::Num(c.get() as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Derives the standard metrics from a recorded event stream:
    ///
    /// * `entry_wait_ns` — histogram of lock entry latencies;
    /// * `delay_ns` — histogram of requested `delay(d)` durations;
    /// * `rounds_to_decide` — histogram of the round each decider was in;
    /// * `retries`, `faults_fired`, `delta_changes`, `cs_entries`,
    ///   `decisions` — counters.
    ///
    /// Network-backend streams additionally yield `msgs_sent`,
    /// `msgs_dropped` and `quorum_ops` counters plus
    /// `quorum_read_rtt_ns` / `quorum_write_rtt_ns` histograms; these are
    /// created lazily on the first network event, so shared-memory runs
    /// keep their exact metric set.
    pub fn from_events(events: &[Event]) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        let entry_wait = reg.histogram("entry_wait_ns");
        let delay = reg.histogram("delay_ns");
        let rounds = reg.histogram("rounds_to_decide");
        let retries = reg.counter("retries");
        let faults = reg.counter("faults_fired");
        let delta_changes = reg.counter("delta_changes");
        let cs_entries = reg.counter("cs_entries");
        let decisions = reg.counter("decisions");
        let mut last_round: BTreeMap<usize, u64> = BTreeMap::new();
        let mut down_since: BTreeMap<usize, u64> = BTreeMap::new();
        for e in events {
            match e.kind {
                EventKind::LockAcquired { wait_ns } => {
                    cs_entries.incr();
                    entry_wait.record(wait_ns);
                }
                EventKind::DelayStart { requested_ns } => delay.record(requested_ns),
                EventKind::Retry { .. } => retries.incr(),
                EventKind::FaultFired { .. } => faults.incr(),
                EventKind::DeltaChanged { .. } => delta_changes.incr(),
                EventKind::RoundStart { round } => {
                    last_round.insert(e.pid.0, round);
                }
                EventKind::Decided { .. } => {
                    decisions.incr();
                    rounds.record(last_round.get(&e.pid.0).copied().unwrap_or(1));
                }
                // Recovery metrics are created lazily on the first
                // crash-recover event, like the network set, so runs
                // without recoveries keep their exact metric set.
                EventKind::CrashRecover { .. } => {
                    reg.counter("crash_recoveries").incr();
                    down_since.insert(e.pid.0, e.ts_ns);
                }
                EventKind::Recovered { repaired, .. } => {
                    if let Some(t0) = down_since.remove(&e.pid.0) {
                        reg.histogram("recovery_ns")
                            .record(e.ts_ns.saturating_sub(t0));
                    }
                    if repaired {
                        reg.counter("cs_repairs").incr();
                    }
                }
                // Service metrics are created lazily on the first service
                // event, like the network set.
                EventKind::ServiceEnqueue { ops, .. } => {
                    reg.counter("service_enqueues").add(u64::from(ops))
                }
                EventKind::HeightDecide { size, .. } => {
                    reg.counter("batch_commits").incr();
                    reg.histogram("batch_size").record(size);
                }
                EventKind::MsgSend { .. } => reg.counter("msgs_sent").incr(),
                EventKind::MsgDropped { .. } => reg.counter("msgs_dropped").incr(),
                EventKind::QuorumEnd { write, rtt_ns, .. } => {
                    reg.counter("quorum_ops").incr();
                    let name = if write {
                        "quorum_write_rtt_ns"
                    } else {
                        "quorum_read_rtt_ns"
                    };
                    reg.histogram(name).record(rtt_ns);
                }
                _ => {}
            }
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::ProcId;

    #[test]
    fn bucket_edges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(10); // bucket [8, 16) → upper bound 16
        }
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), 16);
        assert!(h.quantile(1.0) >= 1_000_000);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonempty_buckets().is_empty());
    }

    #[test]
    fn bucket_boundaries_hold_for_every_power_of_two() {
        // Bucket i ≥ 1 covers [2^(i−1), 2^i): an exact power of two is the
        // *lowest* value of its bucket, and the value just below it is the
        // highest value of the previous one.
        for k in 1..64usize {
            let v = 1u64 << k;
            assert_eq!(
                Histogram::bucket_of(v),
                k + 1,
                "2^{k} opens bucket {}",
                k + 1
            );
            assert_eq!(Histogram::bucket_of(v - 1), k, "2^{k}−1 closes bucket {k}");
        }
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Single-sample histograms at the edges: the quantile must be an
        // upper bound of the recorded value.
        for v in [0u64, 1, 2, u64::MAX, u64::MAX - 1, 1u64 << 63] {
            let h = Histogram::default();
            h.record(v);
            assert!(h.quantile(1.0) >= v, "quantile bound broken for {v}");
            assert_eq!(h.max(), v);
        }
    }

    #[test]
    fn quantiles_are_monotone_over_seeded_samples() {
        use tfr_registers::rng::SplitMix64;
        // 64 seeded sample sets spanning the full u64 range: quantiles
        // must be monotone in q, bounded by the bucket guarantee (at most
        // 2× above the true max), and p100 must cover every sample.
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(seed);
            let h = Histogram::default();
            let mut true_max = 0u64;
            for _ in 0..512 {
                // A random magnitude keeps all 65 buckets reachable.
                let shift = rng.random_range(0..=63) as u32;
                let v = rng.random_range(0..=u64::MAX) >> shift;
                h.record(v);
                true_max = true_max.max(v);
            }
            let qs: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
            assert!(
                qs.windows(2).all(|w| w[0] <= w[1]),
                "quantiles regress for seed {seed}: {qs:?}"
            );
            assert!(
                h.quantile(1.0) >= true_max,
                "p100 below max for seed {seed}"
            );
            assert_eq!(h.max(), true_max);
            assert_eq!(h.count(), 512);
        }
    }

    #[test]
    fn registry_returns_shared_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        assert_eq!(b.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn concurrent_recording_is_exact_for_counts() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = reg.histogram("lat");
                let c = reg.counter("ops");
                s.spawn(move || {
                    for v in 0..1_000u64 {
                        h.record(v);
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(reg.histogram("lat").count(), 4_000);
        assert_eq!(reg.counter("ops").get(), 4_000);
    }

    #[test]
    fn from_events_derives_the_standard_metrics() {
        let mk = |ts_ns, kind| Event {
            ts_ns,
            pid: ProcId(0),
            kind,
        };
        let events = vec![
            mk(0, EventKind::LockWaitStart),
            mk(
                10,
                EventKind::Retry {
                    point: "fischer.check-x",
                },
            ),
            mk(
                20,
                EventKind::DeltaChanged {
                    estimate_ns: 100,
                    contended: true,
                },
            ),
            mk(30, EventKind::LockAcquired { wait_ns: 30 }),
            mk(40, EventKind::DelayStart { requested_ns: 500 }),
            mk(
                50,
                EventKind::FaultFired {
                    point: "delay.pre",
                    stall_ns: 9,
                    crashed: false,
                },
            ),
            mk(60, EventKind::RoundStart { round: 2 }),
            mk(70, EventKind::Decided { value: 1 }),
        ];
        let reg = MetricsRegistry::from_events(&events);
        assert_eq!(reg.counter("retries").get(), 1);
        assert_eq!(reg.counter("faults_fired").get(), 1);
        assert_eq!(reg.counter("delta_changes").get(), 1);
        assert_eq!(reg.counter("cs_entries").get(), 1);
        assert_eq!(reg.histogram("entry_wait_ns").sum(), 30);
        assert_eq!(reg.histogram("delay_ns").sum(), 500);
        assert_eq!(reg.histogram("rounds_to_decide").sum(), 2);
    }
}
