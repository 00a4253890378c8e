//! Small statistics helpers: exact quantiles over sorted samples, the
//! windowed aggregation of a run's timings, a log-linear histogram for
//! high-volume samples, and the process's peak resident memory.

use std::time::Duration;

/// The `q`-quantile of ascending `sorted` by nearest rank (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Timings collected over several timed segments. Each segment is cut
/// into windows (or taken whole, for segments too thin to split) and
/// reports its median window; the run reports the median segment. Host
/// interference that slows a few windows, or a few segments, moves
/// neither median.
pub struct Windows {
    window: Option<Duration>,
    tail_q: f64,
    /// Per segment: median window rate, latency median and tail.
    segments: Vec<[f64; 3]>,
    windows: usize,
    /// Fewest samples any window held.
    min_samples: usize,
}

impl Windows {
    /// Windows of `window` each (whole segments when `None`), reporting
    /// the `tail_q` latency tail.
    pub fn new(window: Option<Duration>, tail_q: f64) -> Windows {
        Windows {
            window,
            tail_q,
            segments: Vec::new(),
            windows: 0,
            min_samples: usize::MAX,
        }
    }

    /// Adds one timed segment of `elapsed`: sample `i` completed
    /// `done_ns[i]` after the segment started, after `lat_ns[i]`, and
    /// each sample is `work` units. A trailing partial window is dropped.
    pub fn add(&mut self, done_ns: &[u64], lat_ns: &[u64], elapsed: Duration, work: u64) {
        let window_ns = self.window.unwrap_or(elapsed).as_nanos() as u64;
        let full = (elapsed.as_nanos() as u64 / window_ns) as usize;
        let mut units = vec![0u64; full];
        let mut lats: Vec<Vec<u64>> = vec![Vec::new(); full];
        for (&d, &l) in done_ns.iter().zip(lat_ns) {
            // A whole segment keeps the samples that finished after its
            // deadline too: they are the bursts in flight at it.
            let w = if self.window.is_some() {
                (d / window_ns) as usize
            } else {
                0
            };
            if w < full {
                units[w] += work;
                lats[w].push(l);
            }
        }
        let secs = window_ns as f64 / 1e9;
        let (mut rates, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
        for (u, mut l) in units.into_iter().zip(lats) {
            l.sort_unstable();
            self.min_samples = self.min_samples.min(l.len());
            rates.push(u as f64 / secs);
            p50s.push(quantile(&l, 0.5));
            tails.push(quantile(&l, self.tail_q));
        }
        self.windows += full;
        self.segments
            .push([median(&rates), median(&p50s), median(&tails)]);
    }

    fn figure(&self, i: usize) -> f64 {
        median(&self.segments.iter().map(|s| s[i]).collect::<Vec<_>>())
    }

    /// Work units per second.
    pub fn rate(&self) -> f64 {
        self.figure(0)
    }

    /// Latency median.
    pub fn p50(&self) -> f64 {
        self.figure(1)
    }

    /// Latency tail.
    pub fn tail(&self) -> f64 {
        self.figure(2)
    }

    /// A one-line account of the windows: how many, and how many
    /// samples the thinnest held beyond the reported tail.
    pub fn describe(&self) -> String {
        format!(
            "{} segments, {} windows, the thinnest with {} samples ({} beyond the q{} tail)",
            self.segments.len(),
            self.windows,
            self.min_samples,
            (self.min_samples as f64 * (1.0 - self.tail_q)).floor(),
            self.tail_q
        )
    }
}

/// Sub-buckets per power of two: quantiles read back within 1/16.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of `u64` samples: exact below 16, then 16
/// buckets per power of two. Fixed size, so recording never allocates.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (((shift as u64 + 1) << SUB_BITS) + ((v >> shift) - SUB)) as usize
    }

    /// The smallest value bucket `b` holds, and how many values it holds.
    fn span(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < SUB {
            return (b as f64, 1.0);
        }
        let shift = (b >> SUB_BITS) - 1;
        (
            ((SUB + (b & (SUB - 1))) << shift) as f64,
            (1u64 << shift) as f64,
        )
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile by nearest rank, interpolated linearly inside its
    /// bucket (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = Self::span(b);
                return lo + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank is at most the total count")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_land_within_a_sixteenth() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 10_000.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact / 16.0,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(Histogram::bucket(15), 15);
        assert_eq!(Histogram::span(Histogram::bucket(7)), (7.0, 1.0));
        assert_eq!(Histogram::span(Histogram::bucket(35)), (34.0, 2.0));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
