//! The register-layer probe: a [`RegisterSpace`] wrapper that counts
//! reads and writes and, when built timed, records each access's
//! latency. It wraps whatever space the workload hands the program —
//! native atomics or the ABD quorum space — so the counts are the
//! register traffic the layers above actually generated.
//!
//! Tallies are thread-local: a worker's accesses cost no shared-cache
//! traffic, and each thread collects its own tally with [`take_tally`]
//! when its phase ends.

use crate::stats::Histogram;
use std::cell::RefCell;
use std::time::Instant;
use tfr_registers::space::RegisterSpace;

/// Register accesses made by one thread since its last [`take_tally`].
#[derive(Clone, Default)]
pub struct Tally {
    pub reads: u64,
    pub writes: u64,
    /// Per-access latency in ns (empty unless the probe is timed).
    pub access_ns: Histogram,
}

impl Tally {
    /// Adds `other`'s counts and samples.
    pub fn merge(&mut self, other: &Tally) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.access_ns.merge(&other.access_ns);
    }

    /// Reads plus writes.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

thread_local! {
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Takes (and resets) the calling thread's tally.
pub fn take_tally() -> Tally {
    TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Counts (and optionally times) every access made through it.
pub struct CountingSpace<S> {
    inner: S,
    timed: bool,
}

impl<S: RegisterSpace> CountingSpace<S> {
    /// Wraps `inner`; `timed` adds a clock read around each access.
    pub fn new(inner: S, timed: bool) -> CountingSpace<S> {
        CountingSpace { inner, timed }
    }

    #[inline]
    fn record<T>(&self, write: bool, access: impl FnOnce() -> T) -> T {
        let start = self.timed.then(Instant::now);
        let out = access();
        let ns = start.map(|s| s.elapsed().as_nanos() as u64);
        TALLY.with(|t| {
            let mut t = t.borrow_mut();
            if write {
                t.writes += 1;
            } else {
                t.reads += 1;
            }
            if let Some(ns) = ns {
                t.access_ns.record(ns);
            }
        });
        out
    }
}

impl<S: RegisterSpace> RegisterSpace for CountingSpace<S> {
    fn read(&self, index: u64) -> u64 {
        self.record(false, || self.inner.read(index))
    }

    fn write(&self, index: u64, value: u64) {
        self.record(true, || self.inner.write(index, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfr_registers::space::NativeSpace;

    #[test]
    fn counts_reads_and_writes_per_thread() {
        let _ = take_tally();
        let space = CountingSpace::new(NativeSpace::new(), true);
        space.write(3, 7);
        assert_eq!(space.read(3), 7);
        assert_eq!(space.read(4), 0);
        let t = take_tally();
        assert_eq!((t.reads, t.writes), (2, 1));
        assert!(t.access_ns.quantile(0.5) >= 0.0);
        assert_eq!(take_tally().accesses(), 0, "taking resets the tally");
    }
}
