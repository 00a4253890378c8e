//! Seeded combiner bugs — the teeth check for under-load sampling.
//!
//! A verification layer is only trustworthy if it *rejects* broken
//! implementations, so the load harness can swap the real flat-combining
//! batcher for one of two deliberately buggy ones and feed the same
//! windowed sampler:
//!
//! * [`CombinerKind::Reordering`] — applies each batch **against**
//!   announce order (per key) but hands responses back positionally, the
//!   classic combiner bug of walking the announce array in one order and
//!   the response array in another. The final state is perfectly correct
//!   — a state audit sees nothing — but two same-key operations with
//!   distinct amounts get each other's running totals, which no
//!   linearization order can explain.
//! * [`CombinerKind::LostOp`] — drops exactly one announced operation
//!   (the first sampled one of round 0) while *answering as if it
//!   applied*. Locally the fabricated response is plausible; the lie
//!   only surfaces because every later response on that key is short by
//!   the lost amount — the lost-update anomaly the sampler exists to
//!   catch.
//!
//! Both bugs are deterministic under a fixed [`crate::load::LoadConfig`]
//! and both are invisible to per-operation spot checks: they need
//! *histories* checked against a sequential model, which is exactly what
//! the windowed sampler does. The tests in [`crate::load`] prove the
//! sampler accepts the real batcher and rejects both mutants.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Which batching implementation the load harness drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinerKind {
    /// The real path: announce bursts into the shard's replicated log and
    /// let one consensus decision commit the whole batch.
    FlatCombining,
    /// The baseline: batching off (`max_batch = 1`, burst of 1) — one
    /// consensus decision per operation. The denominator of the
    /// flat-combining speedup claim.
    PerOp,
    /// Mutant: commits batches against announce order across same-key
    /// dependencies (responses crossed positionally).
    Reordering,
    /// Mutant: drops one announced operation but responds as if it
    /// applied.
    LostOp,
}

impl CombinerKind {
    /// Stable display name (used in reports and bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            CombinerKind::FlatCombining => "flat-combining",
            CombinerKind::PerOp => "per-op",
            CombinerKind::Reordering => "reordering",
            CombinerKind::LostOp => "lost-op",
        }
    }

    /// Whether this is one of the deliberately broken batchers.
    pub fn is_mutant(&self) -> bool {
        matches!(self, CombinerKind::Reordering | CombinerKind::LostOp)
    }
}

/// Applies one batch to a shard's counter table with the requested bug.
///
/// `batch` is `(key, amount)` in announce order; `responses[i]` receives
/// the response handed back for `batch[i]`. `lose` marks operations the
/// [`CombinerKind::LostOp`] bug may drop (at most one ever fires, gated
/// by `lost_fired`); `lost` counts how many it dropped in this batch.
pub(crate) fn apply_mutant_batch(
    kind: CombinerKind,
    totals: &mut BTreeMap<u64, u64>,
    batch: &[(u64, u64)],
    responses: &mut [u64],
    lose: impl Fn(u64) -> bool,
    lost_fired: &AtomicBool,
) -> u64 {
    debug_assert_eq!(batch.len(), responses.len());
    match kind {
        CombinerKind::Reordering => {
            // Per key: apply in REVERSE announce order, hand responses
            // back in announce order — positions cross whenever a key
            // has two ops with distinct amounts.
            let mut by_key: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            for (i, &(key, _)) in batch.iter().enumerate() {
                by_key.entry(key).or_default().push(i);
            }
            for (key, idxs) in by_key {
                let mut running = totals.get(&key).copied().unwrap_or(0);
                let mut applied = Vec::with_capacity(idxs.len());
                for &i in idxs.iter().rev() {
                    running += batch[i].1;
                    applied.push(running);
                }
                for (p, &i) in idxs.iter().enumerate() {
                    responses[i] = applied[p];
                }
                totals.insert(key, running);
            }
            0
        }
        CombinerKind::LostOp => {
            let mut lost = 0;
            for (i, &(key, amount)) in batch.iter().enumerate() {
                let t = totals.get(&key).copied().unwrap_or(0);
                if lose(key) && !lost_fired.swap(true, Ordering::SeqCst) {
                    // Fabricate the response the op WOULD have produced,
                    // but never apply it: a plausible lie, caught only
                    // when later history contradicts it.
                    responses[i] = t + amount;
                    lost += 1;
                } else {
                    totals.insert(key, t + amount);
                    responses[i] = t + amount;
                }
            }
            lost
        }
        CombinerKind::FlatCombining | CombinerKind::PerOp => {
            // The honest apply — mutant plumbing shared with the buggy
            // paths so tests can diff behaviours directly.
            for (i, &(key, amount)) in batch.iter().enumerate() {
                let t = totals.get(&key).copied().unwrap_or(0);
                totals.insert(key, t + amount);
                responses[i] = t + amount;
            }
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reordering_crosses_same_key_responses_but_keeps_state() {
        let mut totals = BTreeMap::new();
        let batch = [(7, 2), (9, 1), (7, 3)];
        let mut resp = [0u64; 3];
        let fired = AtomicBool::new(false);
        apply_mutant_batch(
            CombinerKind::Reordering,
            &mut totals,
            &batch,
            &mut resp,
            |_| false,
            &fired,
        );
        // Key 7 applied 3-then-2, responses handed back positionally:
        // the +2 op reports 3 (impossible under any order of {+2, +3}).
        assert_eq!(resp, [3, 1, 5]);
        // …while the final state is flawless — only a history check can
        // see this bug.
        assert_eq!(totals.get(&7), Some(&5));
        assert_eq!(totals.get(&9), Some(&1));
    }

    #[test]
    fn lost_op_drops_exactly_one_and_lies_plausibly() {
        let mut totals = BTreeMap::new();
        let batch = [(4, 2), (4, 3), (4, 1)];
        let mut resp = [0u64; 3];
        let fired = AtomicBool::new(false);
        let lost = apply_mutant_batch(
            CombinerKind::LostOp,
            &mut totals,
            &batch,
            &mut resp,
            |key| key == 4,
            &fired,
        );
        assert_eq!(lost, 1, "one victim, gated by the fired flag");
        // The victim's response (2) is locally plausible; the later ops
        // are short by the lost amount.
        assert_eq!(resp, [2, 3, 4]);
        assert_eq!(totals.get(&4), Some(&4), "state is missing the 2");
    }

    #[test]
    fn honest_apply_matches_sequential_counter() {
        let mut totals = BTreeMap::new();
        let batch = [(1, 5), (1, 5), (2, 1)];
        let mut resp = [0u64; 3];
        let fired = AtomicBool::new(false);
        apply_mutant_batch(
            CombinerKind::FlatCombining,
            &mut totals,
            &batch,
            &mut resp,
            |_| true,
            &fired,
        );
        assert_eq!(resp, [5, 10, 1]);
        assert!(!fired.load(Ordering::SeqCst), "honest path never loses");
    }
}
