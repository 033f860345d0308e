//! A ksw2-style extension aligner: affine gaps, Z-drop termination,
//! Z-derived band.
//!
//! This reproduces the behaviour of `ksw2_extz` (Suzuki & Kasahara 2018;
//! minimap2's alignment kernel), the paper's CPU baseline for Table III /
//! Fig. 9. Differences from X-drop that matter for the reproduction:
//!
//! * **Affine gaps** — a gap of length `l` costs `open + l·extend`;
//! * **Z-drop** — the search stops when the score falls more than
//!   `Z + extend·|Δdiagonal|` below the best seen, where `Δdiagonal`
//!   discounts the drop expected from a plain indel (ksw2's rule);
//! * **Static band derived from Z** — minimap2 sizes the DP band from the
//!   maximal gap that could survive the Z-drop test
//!   (`w ≈ Z / gap_extend`), so unlike X-drop the *entire* band is
//!   computed every row until Z-drop fires. This is why ksw2's runtime
//!   explodes as Z grows on well-matching pairs (paper Table III:
//!   7 s → 3213 s from Z=10 to Z=5000) while LOGAN's X-drop band stays
//!   score-adaptive.

use crate::result::ExtensionResult;
use crate::NEG_INF;
use logan_seq::{AffineScoring, Seq};

/// Parameters of the ksw2-style extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ksw2Params {
    /// Affine scoring scheme.
    pub scoring: AffineScoring,
    /// The Z-drop threshold (non-negative).
    pub zdrop: i32,
    /// Band half-width. `None` derives `zdrop / gap_extend + 1`, the
    /// widest band on which a surviving alignment can live.
    pub band: Option<usize>,
}

impl Ksw2Params {
    /// minimap2-like defaults with the given Z-drop.
    pub fn with_zdrop(zdrop: i32) -> Ksw2Params {
        assert!(zdrop >= 0, "zdrop must be non-negative");
        Ksw2Params {
            scoring: AffineScoring::default(),
            zdrop,
            band: None,
        }
    }

    /// The effective band half-width.
    pub fn effective_band(&self) -> usize {
        self.band
            .unwrap_or_else(|| (self.zdrop / self.scoring.gap_extend.max(1)) as usize + 1)
    }
}

/// Extend a prefix of `query` against a prefix of `target` with affine
/// gaps and Z-drop termination. Semantics follow `ksw2_extz`: the band is
/// fixed around the main diagonal and the alignment is abandoned when the
/// Z-drop test fires.
pub fn ksw2_extend(query: &Seq, target: &Seq, params: Ksw2Params) -> ExtensionResult {
    let m = query.len();
    let n = target.len();
    if m == 0 || n == 0 {
        return ExtensionResult::zero();
    }
    let q = query.as_slice();
    let t = target.as_slice();
    let sc = params.scoring;
    let (o, e) = (sc.gap_open, sc.gap_extend);
    let w = params.effective_band();
    let zdrop = params.zdrop;

    // Row 0: leading gaps in the query, within the band.
    let mut h_prev = vec![NEG_INF; n + 1];
    let mut h_cur = vec![NEG_INF; n + 1];
    let mut f = vec![NEG_INF; n + 1];
    h_prev[0] = 0;
    for j in 1..=w.min(n) {
        h_prev[j] = -(o + j as i32 * e);
    }

    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    let mut cells = 0u64;
    let mut iterations = 0u64;
    let mut max_width = 0usize;
    let mut dropped = false;

    for i in 1..=m {
        let jlo = i.saturating_sub(w).max(1);
        let jhi = (i + w).min(n);
        if jlo > jhi {
            break;
        }
        iterations += 1;
        max_width = max_width.max(jhi - jlo + 1);
        h_cur[0] = if i <= w { -(o + i as i32 * e) } else { NEG_INF };
        let mut e_run = NEG_INF; // E(i, jlo-1): no horizontal gap enters the band edge.
        let mut row_max = NEG_INF;
        let mut row_arg = jlo;
        let qi = q[i - 1];
        for j in jlo..=jhi {
            e_run = (e_run - e).max(h_cur[j - 1] - o - e);
            f[j] = (f[j] - e).max(h_prev[j] - o - e);
            let diag = h_prev[j - 1] + sc.substitution(qi == t[j - 1]);
            let h = diag.max(e_run).max(f[j]);
            h_cur[j] = h;
            cells += 1;
            if h > row_max {
                row_max = h;
                row_arg = j;
            }
            if h > best {
                best = h;
                best_i = i;
                best_j = j;
            }
        }
        // Seal the right edge so the next row's diagonal read does not
        // pick up a stale value from two rows ago.
        if jhi < n {
            h_cur[jhi + 1] = NEG_INF;
            f[jhi + 1] = NEG_INF;
        }

        // Z-drop test (ksw2): allow the score to fall further when the
        // current cell sits off the best cell's diagonal, since a plain
        // indel of that size already costs `e` per base.
        let diag_diff = (i as i64 - best_i as i64) - (row_arg as i64 - best_j as i64);
        if (best - row_max) as i64 > zdrop as i64 + e as i64 * diag_diff.abs() {
            dropped = true;
            break;
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
    }

    ExtensionResult {
        score: best,
        query_end: best_i,
        target_end: best_j,
        cells,
        iterations,
        max_width,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_seq::readsim::random_seq;
    use logan_seq::{ErrorModel, ErrorProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(s: &str) -> Seq {
        Seq::from_str_strict(s).unwrap()
    }

    #[test]
    fn empty_inputs() {
        let p = Ksw2Params::with_zdrop(100);
        assert_eq!(
            ksw2_extend(&Seq::new(), &seq("ACGT"), p),
            ExtensionResult::zero()
        );
        assert_eq!(
            ksw2_extend(&seq("ACGT"), &Seq::new(), p),
            ExtensionResult::zero()
        );
    }

    #[test]
    fn identical_sequences_full_score() {
        let s = seq("ACGTACGTACGTACGTACGT");
        let r = ksw2_extend(&s, &s, Ksw2Params::with_zdrop(100));
        assert_eq!(r.score, 2 * s.len() as i32);
        assert_eq!((r.query_end, r.target_end), (s.len(), s.len()));
        assert!(!r.dropped);
    }

    #[test]
    fn single_mismatch_score() {
        // 10 matches, 1 mismatch in the middle: 10*2 - 4 = 16.
        let a = seq("AAAAACAAAAA");
        let b = seq("AAAAAGAAAAA");
        let r = ksw2_extend(&a, &b, Ksw2Params::with_zdrop(100));
        assert_eq!(r.score, 16);
    }

    #[test]
    fn single_deletion_affine_cost() {
        // 12 matches and one length-1 gap: 12*2 - (4 + 2) = 18.
        let a = seq("ACGTACGTACGT");
        let b = seq("ACGTACGTACG"); // last base deleted
        let mut bb = b.clone();
        bb.push(logan_seq::Base::T); // restore; build interior deletion instead
        let q = seq("ACGTAACGTACGT"); // extra A inserted at position 5
        let r = ksw2_extend(&q, &a, Ksw2Params::with_zdrop(100));
        assert_eq!(r.score, 12 * 2 - (4 + 2));
        drop(bb);
    }

    #[test]
    fn gap_length_scales_with_extend_penalty() {
        // A 3-gap: 12*2 - (4 + 3*2) = 14.
        let q = seq("ACGTAAAACGTACGTA"); // 3 extra As after position 4
        let t = seq("ACGTACGTACGTA");
        let r = ksw2_extend(&q, &t, Ksw2Params::with_zdrop(200));
        assert_eq!(r.score, 13 * 2 - (4 + 3 * 2));
    }

    /// The independent oracle check: with a free gap open the affine
    /// recurrence is the linear one, so a band wider than the matrix and
    /// a Z-drop that can never fire must reproduce the exact linear-gap
    /// extension optimum of [`crate::full::extension_oracle`]. (Affine
    /// costs proper are pinned by the hand-computed cases above.)
    #[test]
    fn unconstrained_free_open_equals_linear_extension_oracle() {
        use logan_seq::{AffineScoring, Scoring};
        let mut rng = StdRng::seed_from_u64(2);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.15));
        for trial in 0..25 {
            let len = 20 + (trial * 11) % 120;
            let template = random_seq(len, &mut rng);
            let (a, _) = model.corrupt(&template, &mut rng);
            let (b, _) = model.corrupt(&template, &mut rng);
            let params = Ksw2Params {
                scoring: AffineScoring::new(2, -4, 0, 2),
                band: Some(a.len() + b.len()),
                zdrop: i32::MAX / 4,
            };
            let k = ksw2_extend(&a, &b, params);
            let oracle = crate::full::extension_oracle(&a, &b, Scoring::new(2, -4, -2));
            assert_eq!(k.score, oracle.score, "trial {trial}");
        }
    }

    #[test]
    fn zdrop_terminates_divergent_tail() {
        // A matching prefix followed by unrelated sequence: the aligner
        // should keep the prefix score and stop in the junk.
        let mut rng = StdRng::seed_from_u64(1);
        let prefix = random_seq(200, &mut rng);
        let mut a = prefix.clone();
        a.extend_from(&random_seq(600, &mut rng));
        let mut b = prefix.clone();
        b.extend_from(&random_seq(600, &mut rng));
        let r = ksw2_extend(&a, &b, Ksw2Params::with_zdrop(50));
        assert!(r.dropped, "zdrop must fire in the divergent tail");
        assert!(r.score >= 2 * 180, "prefix score retained, got {}", r.score);
        assert!(r.query_end <= 260);
    }

    #[test]
    fn work_grows_with_zdrop_band() {
        // On a well-matching pair Z-drop never fires, so work is governed
        // by the Z-derived band — the mechanism behind Table III's blow-up.
        let mut rng = StdRng::seed_from_u64(2);
        let template = random_seq(2000, &mut rng);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.08));
        let (a, _) = model.corrupt(&template, &mut rng);
        let (b, _) = model.corrupt(&template, &mut rng);
        let small = ksw2_extend(&a, &b, Ksw2Params::with_zdrop(10));
        let large = ksw2_extend(&a, &b, Ksw2Params::with_zdrop(1000));
        assert!(large.cells > 10 * small.cells, "band must dominate work");
    }

    #[test]
    fn explicit_band_overrides_derived() {
        let p = Ksw2Params {
            band: Some(3),
            ..Ksw2Params::with_zdrop(5000)
        };
        assert_eq!(p.effective_band(), 3);
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_seq(500, &mut rng);
        let r = ksw2_extend(&a, &a, p);
        // Band 3 → at most 7 cells per row.
        assert!(r.cells <= 500 * 7);
        assert_eq!(r.score, 2 * 500);
    }

    #[test]
    fn score_never_negative() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let a = random_seq(100, &mut rng);
            let b = random_seq(100, &mut rng);
            let r = ksw2_extend(&a, &b, Ksw2Params::with_zdrop(20));
            assert!(r.score >= 0);
        }
    }

    #[test]
    fn deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_seq(300, &mut rng);
        let b = random_seq(300, &mut rng);
        let p = Ksw2Params::with_zdrop(100);
        assert_eq!(ksw2_extend(&a, &b, p), ksw2_extend(&a, &b, p));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_zdrop_rejected() {
        let _ = Ksw2Params::with_zdrop(-5);
    }
}
