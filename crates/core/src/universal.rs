//! Universality (§1.4): from the wait-free time-resilient binary consensus
//! of Algorithm 1, build (a) **multivalued consensus** and (b) a
//! Herlihy-style **universal construction** — a wait-free, time-resilient
//! implementation of *any* object with a sequential specification, using
//! atomic registers only.
//!
//! The paper invokes Herlihy's universality result \[24\]: since Algorithm 1
//! is wait-free consensus from registers, every sequential object has a
//! wait-free register-only implementation that is resilient to timing
//! failures (w.r.t. *some* ψ). This module makes that concrete.
//!
//! # Multivalued from binary
//!
//! [`MultiConsensus`] agrees on a `width`-bit value bit by bit (one
//! Algorithm 1 instance per bit, most significant first). Every proposer
//! first *announces* its value; whenever a decided bit contradicts the
//! proposer's current candidate, it adopts some announced value matching
//! the decided prefix — one always exists, because each decided bit was
//! proposed by a process whose (announced) candidate matched the prefix.
//!
//! # The universal object
//!
//! [`Universal`] keeps a log of consensus *slots* over an arbitrary
//! [`RegisterSpace`] — every piece of its state (announce counters, op
//! payloads, the slots themselves) lives in registers, so the same object
//! runs over shared memory or a quorum-emulated space.
//!
//! An invocation first *announces* its operation, then walks the log
//! from slot 0, applying every decided slot to a local replica. At the
//! first undecided slot `s` it proposes on behalf of process `s mod n`
//! if that process has an announced operation not yet in the log, and
//! its own operation otherwise — Herlihy's helping rule, which gives
//! every announced operation a slot within `n` slots of its announce:
//! the construction is wait-free. Slot `s` decides a process id `p`
//! (8 bits); the operation it commits is `p`'s next one not yet in the
//! log, which every replayer agrees on because they all replay the same
//! prefix.
//!
//! Batched state-machine replication over the same consensus — many
//! operations per decision, pipelined heights, passive replicas — is the
//! `tfr-log` crate's job; this module stays the paper's construction.

use crate::consensus::NativeConsensus;
use crate::probe::{OpProbe, Probe};
use std::sync::Arc;
use std::time::Duration;
use tfr_registers::space::{NativeSpace, RegisterSpace, SubSpace};
use tfr_registers::ProcId;

/// Wait-free multivalued consensus on `width`-bit values, built from
/// `width` binary Algorithm 1 instances.
///
/// One-shot per process: each of the `n` processes calls
/// [`MultiConsensus::propose`] at most once.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tfr_core::universal::MultiConsensus;
/// use tfr_registers::ProcId;
///
/// let mc = MultiConsensus::new(3, 8, Duration::from_micros(10));
/// let winner = mc.propose(ProcId(0), 42);
/// assert_eq!(winner, 42, "a solo proposer wins with its own value");
/// assert_eq!(mc.propose(ProcId(1), 7), 42, "later proposers adopt it");
/// ```
pub struct MultiConsensus<S: RegisterSpace = NativeSpace> {
    n: usize,
    width: u32,
    /// The shared space. Layout: `result` (final decision, +1; 0 =
    /// undecided) at 0; `announce[i]` (process `i`'s proposal, +1) at
    /// `1 + i`; bit `k`'s Algorithm 1 instance over the strided region
    /// `1 + n + k + j·width` — the `width` regions tile the remaining
    /// indices disjointly.
    space: Arc<S>,
    /// `bits[k]` decides bit `k` (bit 0 = least significant).
    bits: Vec<NativeConsensus<SubSpace<Arc<S>>>>,
}

impl MultiConsensus {
    /// A multivalued consensus object for `n` processes on values
    /// `< 2^width`, with `delay(Δ)` estimate `delta`, over shared memory.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `width` is 0 or greater than 63.
    pub fn new(n: usize, width: u32, delta: Duration) -> MultiConsensus {
        MultiConsensus::on(Arc::new(NativeSpace::with_capacity(256)), n, width, delta)
    }
}

impl<S: RegisterSpace> MultiConsensus<S> {
    /// A multivalued consensus object over an arbitrary (fresh) register
    /// space — e.g. a `tfr-net` quorum space.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `width` is 0 or greater than 63.
    pub fn on(space: Arc<S>, n: usize, width: u32, delta: Duration) -> MultiConsensus<S> {
        assert!(n > 0, "at least one process is required");
        assert!(width > 0 && width <= 63, "width must be in 1..=63");
        let first_free = 1 + n as u64;
        let bits = (0..width)
            .map(|k| {
                let region = SubSpace::new(Arc::clone(&space), first_free + k as u64, width as u64);
                NativeConsensus::on(region, delta)
            })
            .collect();
        MultiConsensus {
            n,
            width,
            space,
            bits,
        }
    }

    #[inline]
    fn result_idx() -> u64 {
        0
    }

    #[inline]
    fn announce_idx(pid: usize) -> u64 {
        1 + pid as u64
    }

    /// Proposes `value`; blocks until the common decision is known and
    /// returns it. Wait-free once timing constraints hold.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or `value` does not fit in `width`
    /// bits.
    pub fn propose(&self, pid: ProcId, value: u64) -> u64 {
        assert!(pid.0 < self.n, "pid out of range");
        assert!(value < 1u64 << self.width, "value exceeds width");
        self.space.write(Self::announce_idx(pid.0), value + 1);

        let mut candidate = value;
        for k in (0..self.width).rev() {
            let my_bit = (candidate >> k) & 1 == 1;
            let decided = self.bits[k as usize].propose(my_bit);
            if decided != my_bit {
                candidate = self.adopt(candidate, k, decided);
            }
        }
        self.space.write(Self::result_idx(), candidate + 1);
        candidate
    }

    /// The decision, if some proposer has completed.
    pub fn decision(&self) -> Option<u64> {
        match self.space.read(Self::result_idx()) {
            0 => None,
            v => Some(v - 1),
        }
    }

    /// Finds an announced value that matches `candidate` on bits above
    /// `k` and has bit `k` equal to `decided_bit`.
    fn adopt(&self, candidate: u64, k: u32, decided_bit: bool) -> u64 {
        let target_prefix = (candidate >> (k + 1) << 1) | decided_bit as u64;
        for i in 0..self.n {
            let raw = self.space.read(Self::announce_idx(i));
            if raw != 0 {
                let v = raw - 1;
                if v >> k == target_prefix {
                    return v;
                }
            }
        }
        unreachable!(
            "bit {k} decided {decided_bit} but no announced value matches prefix \
             {target_prefix:#b} — violates the announce-before-propose invariant"
        );
    }
}

impl<S: RegisterSpace> std::fmt::Debug for MultiConsensus<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiConsensus")
            .field("n", &self.n)
            .field("width", &self.width)
            .field("decision", &self.decision())
            .finish()
    }
}

/// A sequential object specification for [`Universal`].
///
/// Operations and responses are encoded as `u64` (they travel through
/// atomic registers). The `apply` function must be deterministic.
pub trait Sequential: Send + Sync {
    /// The object's sequential state.
    type State: Clone + Send;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Applies `op`, mutating the state and returning the response.
    fn apply(&self, state: &mut Self::State, op: u64) -> u64;
}

/// The parent-space regions [`Universal`] tiles via stride-2
/// [`SubSpace`]s.
const REGIONS: u64 = 2;
const REGION_ANNOUNCE: u64 = 0;
const REGION_SLOTS: u64 = 1;
/// A slot decides a process id: 8 bits caps the object at 255 processes.
const SLOT_WIDTH: u32 = 8;

type SlotSpace<S> = SubSpace<SubSpace<Arc<S>>>;

/// Wait-free linearizable implementation of any [`Sequential`] object from
/// atomic registers and Algorithm 1 consensus (Herlihy's universal
/// construction): one announced operation per consensus slot, with
/// helping.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use tfr_core::universal::{Counter, Universal};
/// use tfr_registers::ProcId;
///
/// let obj = Universal::new(Counter, 2, 16, Duration::from_micros(10));
/// assert_eq!(obj.invoke(ProcId(0), 5), 5);  // add 5 → counter = 5
/// assert_eq!(obj.invoke(ProcId(1), 3), 8);  // add 3 → counter = 8
/// ```
pub struct Universal<T: Sequential, S: RegisterSpace = NativeSpace> {
    object: T,
    n: usize,
    /// Region 0 — announce state. `announced[p]` at `p`; `p`'s `seq`-th
    /// op payload, +1, at `n + p + seq·n`.
    announce: SubSpace<Arc<S>>,
    /// Region 1 — slot `s` decides whose next announced operation
    /// occupies log position `s`.
    slots: Vec<MultiConsensus<SlotSpace<S>>>,
    probe: Probe,
}

impl<T: Sequential> Universal<T> {
    /// A universal object for `n` processes over shared memory, accepting
    /// at most `capacity` operations in total; `delta` is the consensus
    /// `delay(Δ)` estimate.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or above 255, or `capacity` is 0.
    pub fn new(object: T, n: usize, capacity: usize, delta: Duration) -> Universal<T> {
        Universal::on(
            Arc::new(NativeSpace::with_capacity(256)),
            object,
            n,
            capacity,
            delta,
        )
    }
}

impl<T: Sequential, S: RegisterSpace> Universal<T, S> {
    /// A universal object over an arbitrary **fresh** register space (the
    /// construction owns all of it; use [`SubSpace`] tiling to share one
    /// backend among several objects).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or above 255, or `capacity` is 0.
    pub fn on(
        space: Arc<S>,
        object: T,
        n: usize,
        capacity: usize,
        delta: Duration,
    ) -> Universal<T, S> {
        assert!(n > 0 && n <= 255, "n must be in 1..=255");
        assert!(capacity > 0, "capacity must be positive");
        let announce = SubSpace::new(Arc::clone(&space), REGION_ANNOUNCE, REGIONS);
        let slot_region = SubSpace::new(space, REGION_SLOTS, REGIONS);
        let slots = (0..capacity)
            .map(|s| {
                let region = SubSpace::new(slot_region.clone(), s as u64, capacity as u64);
                MultiConsensus::on(Arc::new(region), n, SLOT_WIDTH, delta)
            })
            .collect();
        Universal {
            object,
            n,
            announce,
            slots,
            probe: Probe::disabled(),
        }
    }

    /// Attaches an operation probe; `invoke` records an invoke/response
    /// pair (op = the raw payload, response = the raw response) around
    /// each operation.
    pub fn with_probe(mut self, probe: Arc<dyn OpProbe>) -> Universal<T, S> {
        self.probe = Probe::attached(probe);
        self
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of log slots (the total operation capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn idx_op(&self, p: usize, seq: u64) -> u64 {
        (self.n + p) as u64 + seq * self.n as u64
    }

    /// Invokes `op` (at most 2^64−2) as process `pid`; blocks until the
    /// operation is linearized and returns its response.
    ///
    /// Wait-free once timing constraints hold: the helping rule commits
    /// every announced operation within `n` slots of its announce.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or the object's slot capacity is
    /// exhausted.
    pub fn invoke(&self, pid: ProcId, op: u64) -> u64 {
        assert!(pid.0 < self.n, "pid out of range");
        assert!(op < u64::MAX, "op encoding must leave room for +1");
        let token = self.probe.begin(pid, op);
        // Announce: the payload first, then the counter that publishes it.
        let seq = self.announce.read(pid.0 as u64);
        self.announce.write(self.idx_op(pid.0, seq), op + 1);
        self.announce.write(pid.0 as u64, seq + 1);

        let mut state = self.object.initial();
        let mut done = vec![0u64; self.n];
        for (s, slot) in self.slots.iter().enumerate() {
            let winner = match slot.decision() {
                Some(w) => w as usize,
                None => slot.propose(pid, self.helped(s, pid, &done)) as usize,
            };
            let mine = winner == pid.0 && done[winner] == seq;
            let response = self.apply_slot(winner, &mut state, &mut done);
            if mine {
                self.probe.end(pid, token, response);
                return response;
            }
        }
        panic!("universal object capacity exhausted before the operation was linearized");
    }

    /// Whose operation `pid` proposes at slot `s`: process `s mod n`'s,
    /// if it has an announced operation not yet in the log (`done` is
    /// the log prefix's per-process count), else `pid`'s own.
    fn helped(&self, s: usize, pid: ProcId, done: &[u64]) -> u64 {
        let p = s % self.n;
        if p != pid.0 && self.announce.read(p as u64) > done[p] {
            p as u64
        } else {
            pid.0 as u64
        }
    }

    /// Applies the slot won by `winner` — its next operation not yet in
    /// the log — and returns the response.
    fn apply_slot(&self, winner: usize, state: &mut T::State, done: &mut [u64]) -> u64 {
        let payload = self.announce.read(self.idx_op(winner, done[winner]));
        debug_assert!(payload != 0, "a slot only decides an announced op");
        done[winner] += 1;
        self.object.apply(state, payload - 1)
    }

    /// Replays the committed prefix of the log and returns the current
    /// state (a read-only snapshot; not linearized against in-flight
    /// operations).
    pub fn snapshot(&self) -> T::State {
        let mut state = self.object.initial();
        let mut done = vec![0u64; self.n];
        for slot in &self.slots {
            let Some(winner) = slot.decision() else { break };
            self.apply_slot(winner as usize, &mut state, &mut done);
        }
        state
    }
}

// ---------------------------------------------------------------------
// Example sequential objects
// ---------------------------------------------------------------------

/// A counter: `op` is the amount to add; the response is the new total.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter;

impl Sequential for Counter {
    type State = u64;
    fn initial(&self) -> u64 {
        0
    }
    fn apply(&self, state: &mut u64, op: u64) -> u64 {
        *state += op;
        *state
    }
}

/// A FIFO queue of `u32`s. Encode `enqueue(v)` as `(v << 1) | 1` and
/// `dequeue` as `0`; `dequeue` responds with `value + 1`, or 0 when empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoQueue;

impl FifoQueue {
    /// Encodes an enqueue operation.
    pub fn enqueue_op(v: u32) -> u64 {
        ((v as u64) << 1) | 1
    }
    /// The dequeue operation.
    pub const DEQUEUE: u64 = 0;
    /// Decodes a dequeue response.
    pub fn decode_dequeue(resp: u64) -> Option<u32> {
        resp.checked_sub(1).map(|v| v as u32)
    }
}

impl Sequential for FifoQueue {
    type State = std::collections::VecDeque<u32>;
    fn initial(&self) -> Self::State {
        std::collections::VecDeque::new()
    }
    fn apply(&self, state: &mut Self::State, op: u64) -> u64 {
        if op & 1 == 1 {
            state.push_back((op >> 1) as u32);
            0
        } else {
            match state.pop_front() {
                Some(v) => v as u64 + 1,
                None => 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const D: Duration = Duration::from_micros(5);

    #[test]
    fn multi_solo_wins() {
        let mc = MultiConsensus::new(2, 16, D);
        assert_eq!(mc.propose(ProcId(0), 12345), 12345);
        assert_eq!(mc.decision(), Some(12345));
        assert_eq!(mc.propose(ProcId(1), 54), 12345);
    }

    #[test]
    fn multi_concurrent_agreement_and_validity() {
        for trial in 0..20 {
            let n = 6;
            let mc = Arc::new(MultiConsensus::new(n, 12, D));
            let inputs: Vec<u64> = (0..n).map(|i| (i as u64 * 37 + trial) % 4096).collect();
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let mc = Arc::clone(&mc);
                    std::thread::spawn(move || mc.propose(ProcId(i), v))
                })
                .collect();
            let outs: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                outs.windows(2).all(|w| w[0] == w[1]),
                "trial {trial}: {outs:?}"
            );
            assert!(
                inputs.contains(&outs[0]),
                "trial {trial}: decided a non-input"
            );
        }
    }

    #[test]
    fn multi_boundary_values() {
        let mc = MultiConsensus::new(1, 8, D);
        assert_eq!(mc.propose(ProcId(0), 255), 255);
        let mc2 = MultiConsensus::new(1, 8, D);
        assert_eq!(mc2.propose(ProcId(0), 0), 0);
    }

    #[test]
    #[should_panic(expected = "value exceeds width")]
    fn multi_rejects_oversized_value() {
        let mc = MultiConsensus::new(1, 4, D);
        let _ = mc.propose(ProcId(0), 16);
    }

    #[test]
    fn universal_counter_sequential() {
        let obj = Universal::new(Counter, 1, 8, D);
        assert_eq!(obj.invoke(ProcId(0), 5), 5);
        assert_eq!(obj.invoke(ProcId(0), 7), 12);
        assert_eq!(obj.snapshot(), 12);
    }

    #[test]
    fn universal_counter_concurrent_total_is_exact() {
        for _ in 0..5 {
            let n = 4;
            let per = 8;
            let obj = Arc::new(Universal::new(Counter, n, n * per + 4, D));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let obj = Arc::clone(&obj);
                    std::thread::spawn(move || {
                        for _ in 0..per {
                            obj.invoke(ProcId(i), 1);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(obj.snapshot(), (n * per) as u64);
        }
    }

    #[test]
    fn universal_counter_responses_are_distinct_and_dense() {
        // Each +1 returns the counter value at its linearization point:
        // the multiset of responses must be exactly {1..=total}.
        let n = 4;
        let per = 6;
        let obj = Arc::new(Universal::new(Counter, n, n * per + 4, D));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let obj = Arc::clone(&obj);
                std::thread::spawn(move || {
                    (0..per)
                        .map(|_| obj.invoke(ProcId(i), 1))
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (1..=(n * per) as u64).collect();
        assert_eq!(all, expected, "responses must form a dense linearization");
    }

    #[test]
    fn universal_queue_fifo_single_process() {
        let obj = Universal::new(FifoQueue, 1, 16, D);
        obj.invoke(ProcId(0), FifoQueue::enqueue_op(10));
        obj.invoke(ProcId(0), FifoQueue::enqueue_op(20));
        let r1 = obj.invoke(ProcId(0), FifoQueue::DEQUEUE);
        let r2 = obj.invoke(ProcId(0), FifoQueue::DEQUEUE);
        let r3 = obj.invoke(ProcId(0), FifoQueue::DEQUEUE);
        assert_eq!(FifoQueue::decode_dequeue(r1), Some(10));
        assert_eq!(FifoQueue::decode_dequeue(r2), Some(20));
        assert_eq!(FifoQueue::decode_dequeue(r3), None);
    }

    #[test]
    fn universal_queue_concurrent_no_loss_no_dup() {
        let n = 3;
        let per = 5;
        let obj = Arc::new(Universal::new(FifoQueue, n, 2 * n * per + 8, D));
        // Phase 1: concurrent enqueues of distinct values.
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let obj = Arc::clone(&obj);
                std::thread::spawn(move || {
                    for k in 0..per {
                        obj.invoke(ProcId(i), FifoQueue::enqueue_op((i * 100 + k) as u32));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Phase 2: concurrent dequeues drain exactly the enqueued set.
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let obj = Arc::clone(&obj);
                std::thread::spawn(move || {
                    (0..per)
                        .filter_map(|_| {
                            FifoQueue::decode_dequeue(obj.invoke(ProcId(i), FifoQueue::DEQUEUE))
                        })
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        let mut got: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        got.sort_unstable();
        let mut want: Vec<u32> = (0..n)
            .flat_map(|i| (0..per).map(move |k| (i * 100 + k) as u32))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "every enqueued value dequeued exactly once");
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn universal_capacity_exhaustion_panics() {
        let obj = Universal::new(Counter, 1, 2, D);
        obj.invoke(ProcId(0), 1);
        obj.invoke(ProcId(0), 1);
        obj.invoke(ProcId(0), 1);
    }

    #[test]
    fn helping_commits_a_silent_process_within_n_slots() {
        // Process 1 announces (by hand, as a crashed invoker would) and
        // never drives; process 0's own invoke proposes for it at the
        // first slot `s` with `s mod 2 == 1`.
        let obj = Universal::new(Counter, 2, 8, D);
        obj.announce.write(obj.idx_op(1, 0), 100 + 1);
        obj.announce.write(1, 1);
        assert_eq!(obj.invoke(ProcId(0), 1), 1, "slot 0 is p0's own");
        assert_eq!(obj.invoke(ProcId(0), 1), 102, "slot 1 helps p1 first");
        assert_eq!(obj.snapshot(), 102);
    }

    #[test]
    fn universal_over_explicit_space_matches_native() {
        use tfr_registers::space::NativeSpace;
        let space = Arc::new(NativeSpace::new());
        let obj = Universal::on(Arc::clone(&space), Counter, 2, 8, D);
        assert_eq!(obj.invoke(ProcId(0), 3), 3);
        assert_eq!(obj.invoke(ProcId(1), 4), 7);
        assert_eq!(obj.snapshot(), 7);
        // The construction's state genuinely lives in the space.
        assert!(
            (0..64).any(|i| space.read(i) != 0),
            "register-resident state"
        );
    }
}
