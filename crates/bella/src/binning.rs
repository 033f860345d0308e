//! Seed choice by binning (BELLA §V of the LOGAN paper).
//!
//! Every shared k-mer between two reads implies an overlap *offset*
//! (`pos1 − pos2`) and an estimated overlap length; BELLA bins k-mers by
//! offset and extends from a k-mer of the consensus bin. With the two
//! witnesses the SpGEMM retains, the consensus rule reduces to: prefer
//! the witness whose implied overlap is longest (a repeat-induced
//! witness implies a short, off-consensus overlap).

use crate::spgemm::CandidatePair;
use logan_seq::Seed;

/// Estimated overlap length if reads of lengths `len1`, `len2` truly
/// overlap with the exact k-mer anchored at `pos1` / `pos2`: the anchor
/// plus what both reads can cover on each side.
///
/// A *degenerate* witness — one whose k-mer window does not fit inside
/// its read (`pos + k > len`) — yields an estimate of 0 rather than
/// panicking or wrapping: such a witness carries no usable geometry, so
/// [`choose_seed`] never prefers it over a valid one, and the pair's
/// `kept` flag fails any positive `min_overlap` floor. (An unchecked
/// `len - pos - k` would wrap to a huge value in release builds,
/// turning the corrupt witness into a maximally *attractive* seed.)
pub(crate) fn overlap_estimate(
    len1: usize,
    len2: usize,
    pos1: usize,
    pos2: usize,
    k: usize,
) -> usize {
    let (Some(r1), Some(r2)) = (
        len1.checked_sub(pos1).and_then(|f| f.checked_sub(k)),
        len2.checked_sub(pos2).and_then(|f| f.checked_sub(k)),
    ) else {
        return 0;
    };
    pos1.min(pos2) + k + r1.min(r2)
}

/// Choose the extension seed for a candidate pair. Returns the seed and
/// its estimated overlap length. Panics when the candidate carries no
/// witnesses (the SpGEMM never emits such pairs).
///
/// Ties are broken deterministically toward the *earliest* witness in
/// discovery order (`>` comparison, so an equal later estimate never
/// displaces an earlier one) — the streaming and monolithic pipelines
/// rely on this to produce bit-identical seeds. Degenerate witnesses
/// estimate 0 (see `overlap_estimate`), and a valid witness always
/// estimates at least `k`, so a degenerate witness is never preferred
/// over a valid one. If *every* witness is degenerate (corrupt input —
/// the in-repo SpGEMM cannot produce one), the first witness is used
/// with its positions clamped into both reads: the pipelines align
/// every candidate before filtering, so the returned seed must be
/// in-bounds for the extension stage, and the 0 estimate then fails
/// any positive `min_overlap` floor at the keep step.
pub fn choose_seed(len1: usize, len2: usize, cand: &CandidatePair, k: usize) -> (Seed, usize) {
    let witnesses = cand.witnesses();
    assert!(!witnesses.is_empty(), "candidate without witnesses");
    let mut best = (0usize, 0usize); // (witness index, estimate)
    for (i, &(p1, p2)) in witnesses.iter().enumerate() {
        let est = overlap_estimate(len1, len2, p1 as usize, p2 as usize, k);
        if est > best.1 {
            best = (i, est);
        }
    }
    let (p1, p2) = witnesses[best.0];
    let (mut qpos, mut tpos, mut len) = (p1 as usize, p2 as usize, k);
    if best.1 == 0 {
        // All witnesses degenerate (a valid one would estimate >= k):
        // clamp so `qpos + len <= len1 && tpos + len <= len2` holds.
        len = k.min(len1).min(len2);
        qpos = qpos.min(len1 - len);
        tpos = tpos.min(len2 - len);
    }
    (Seed { qpos, tpos, len }, best.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(witnesses: Vec<(u32, u32)>) -> CandidatePair {
        CandidatePair::new(0, 1, witnesses.len() as u32, &witnesses)
    }

    #[test]
    fn estimate_full_containment() {
        // Same positions, same lengths: the whole read overlaps.
        assert_eq!(overlap_estimate(100, 100, 40, 40, 10), 100);
    }

    #[test]
    fn estimate_staggered_overlap() {
        // Read 1 hangs left, read 2 hangs right: the overlap is bounded
        // by the shorter flanks on each side.
        // len1=100, pos1=80; len2=100, pos2=10, k=10.
        // left = min(80,10)=10, right = min(10, 80)=10 → 30.
        assert_eq!(overlap_estimate(100, 100, 80, 10, 10), 30);
    }

    #[test]
    fn estimate_is_symmetric() {
        assert_eq!(
            overlap_estimate(120, 90, 30, 60, 15),
            overlap_estimate(90, 120, 60, 30, 15)
        );
    }

    #[test]
    fn seed_prefers_longer_estimate() {
        // Witness A in the middle (long overlap), witness B near the end
        // (short, repeat-like).
        let c = cand(vec![(90, 5), (50, 50)]);
        let (seed, est) = choose_seed(100, 100, &c, 10);
        assert_eq!((seed.qpos, seed.tpos), (50, 50));
        assert_eq!(est, 100);
        assert_eq!(seed.len, 10);
    }

    #[test]
    fn single_witness_is_used_directly() {
        let c = cand(vec![(12, 34)]);
        let (seed, est) = choose_seed(80, 80, &c, 10);
        assert_eq!((seed.qpos, seed.tpos), (12, 34));
        assert_eq!(est, overlap_estimate(80, 80, 12, 34, 10));
    }

    #[test]
    #[should_panic(expected = "without witnesses")]
    fn empty_witnesses_panics() {
        let c = cand(vec![]);
        let _ = choose_seed(10, 10, &c, 4);
    }

    /// Regression for the release-mode underflow: a witness whose k-mer
    /// window does not fit in the read must estimate 0, not wrap
    /// `len - pos - k` around to ~usize::MAX. This test runs in every
    /// profile (`cargo test` and `cargo test --release`); before the
    /// checked-math fix it would panic in debug and return ~2^64 in
    /// release.
    #[test]
    fn degenerate_witness_estimates_zero() {
        // pos + k == len + 1: one base short on read 1.
        assert_eq!(overlap_estimate(10, 100, 6, 50, 5), 0);
        // Degenerate on read 2 only.
        assert_eq!(overlap_estimate(100, 10, 50, 6, 5), 0);
        // Degenerate on both, and the extreme pos > len case.
        assert_eq!(overlap_estimate(4, 4, 2, 2, 5), 0);
        assert_eq!(overlap_estimate(4, 4, 9, 9, 5), 0);
        // The boundary case pos + k == len is *not* degenerate.
        assert_eq!(overlap_estimate(10, 10, 5, 5, 5), 10);
    }

    #[test]
    fn degenerate_witness_never_chosen_over_real_one() {
        // A corrupt witness (would wrap without checked math) must lose
        // to any real witness regardless of order.
        for ws in [vec![(96, 50), (20, 20)], vec![(20, 20), (96, 50)]] {
            let c = cand(ws);
            let (seed, est) = choose_seed(100, 100, &c, 10);
            assert_eq!((seed.qpos, seed.tpos), (20, 20));
            assert_eq!(est, 100);
        }
        // All-degenerate: fall back to the first witness, clamped into
        // bounds so the downstream extension stage (which aligns every
        // candidate *before* the min_overlap filter) cannot be handed an
        // out-of-range seed.
        let c = cand(vec![(98, 99), (99, 98)]);
        let (seed, est) = choose_seed(100, 100, &c, 10);
        assert_eq!(est, 0, "degenerate geometry keeps the 0 estimate");
        assert_eq!(seed.len, 10);
        assert!(seed.qpos + seed.len <= 100 && seed.tpos + seed.len <= 100);
        assert_eq!((seed.qpos, seed.tpos), (90, 90), "clamped to fit");
        // Reads shorter than k shrink the seed instead of overflowing.
        let c = cand(vec![(7, 2)]);
        let (seed, est) = choose_seed(6, 4, &c, 10);
        assert_eq!(est, 0);
        assert_eq!(seed.len, 4);
        assert!(seed.qpos + seed.len <= 6 && seed.tpos + seed.len <= 4);
    }

    #[test]
    fn equal_estimates_break_ties_to_the_first_witness() {
        // Both witnesses imply the same full-containment estimate; the
        // earliest in discovery order must win, deterministically.
        let c = cand(vec![(40, 40), (60, 60)]);
        let (seed, est) = choose_seed(100, 100, &c, 10);
        assert_eq!((seed.qpos, seed.tpos), (40, 40));
        assert_eq!(est, 100);
        // And the reversed discovery order flips the choice with it.
        let c = cand(vec![(60, 60), (40, 40)]);
        let (seed, _) = choose_seed(100, 100, &c, 10);
        assert_eq!((seed.qpos, seed.tpos), (60, 60));
    }
}
