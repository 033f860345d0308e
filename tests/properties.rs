//! Property-based tests (proptest) over the core alignment invariants.

use logan::prelude::*;
use logan_align::{full::extension_oracle, xdrop_extend};
use logan_core::kernel::{logan_block_extend, KernelPolicy};
use logan_gpusim::BlockCtx;
use proptest::prelude::*;

fn arb_seq(max_len: usize) -> impl Strategy<Value = Seq> {
    proptest::collection::vec(0u8..4, 0..max_len)
        .prop_map(|codes| codes.into_iter().map(logan::seq::Base::from_code).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The GPU kernel is bit-equivalent to the scalar reference for any
    /// input pair, X, and thread count.
    #[test]
    fn kernel_matches_reference(
        q in arb_seq(160),
        t in arb_seq(160),
        x in 0i32..200,
        threads_pow in 0u32..6,
    ) {
        let threads = 32usize << threads_pow;
        let mut ctx = BlockCtx::new(threads, 32, 96 * 1024);
        let gpu = logan_block_extend(
            &mut ctx, &q, &t, Scoring::default(), x, &KernelPolicy::new(threads),
            &mut AlignWorkspace::new(),
        );
        let cpu = xdrop_extend(&q, &t, Scoring::default(), x);
        prop_assert_eq!(gpu, cpu);
    }

    /// With unbounded X the X-drop extension equals the exact
    /// semi-global optimum.
    #[test]
    fn unbounded_x_is_exact(q in arb_seq(80), t in arb_seq(80)) {
        let xd = xdrop_extend(&q, &t, Scoring::default(), i32::MAX / 4);
        let oracle = extension_oracle(&q, &t, Scoring::default());
        prop_assert_eq!(xd.score, oracle.score);
    }

    /// X-drop scores are monotone non-decreasing in X and never negative
    /// (the origin always scores 0); explored cells are monotone too.
    #[test]
    fn monotone_in_x(q in arb_seq(120), t in arb_seq(120), x1 in 0i32..100, dx in 0i32..100) {
        let scoring = Scoring::default();
        let lo = xdrop_extend(&q, &t, scoring, x1);
        let hi = xdrop_extend(&q, &t, scoring, x1 + dx);
        prop_assert!(lo.score >= 0);
        prop_assert!(hi.score >= lo.score);
        prop_assert!(hi.cells >= lo.cells);
    }

    /// Extension is symmetric in its arguments.
    #[test]
    fn symmetric(q in arb_seq(100), t in arb_seq(100), x in 0i32..80) {
        let a = xdrop_extend(&q, &t, Scoring::default(), x);
        let b = xdrop_extend(&t, &q, Scoring::default(), x);
        prop_assert_eq!(a.score, b.score);
        prop_assert_eq!(a.cells, b.cells);
        // Ties on an anti-diagonal break toward the smallest query
        // index, which is *not* swap-symmetric — but the winning cell
        // always lies on the same anti-diagonal.
        prop_assert_eq!(
            a.query_end + a.target_end,
            b.query_end + b.target_end
        );
    }

    /// The extension score never exceeds the perfect score of the
    /// shorter prefix and is bounded below by the oracle relationship:
    /// score <= min(m, n) * match.
    #[test]
    fn score_bounds(q in arb_seq(120), t in arb_seq(120), x in 0i32..200) {
        let r = xdrop_extend(&q, &t, Scoring::default(), x);
        let cap = q.len().min(t.len()) as i32;
        prop_assert!(r.score <= cap);
        prop_assert!(r.query_end <= q.len());
        prop_assert!(r.target_end <= t.len());
        // Explored area is bounded by the full matrix plus boundary.
        prop_assert!(r.cells <= (q.len() as u64 + 1) * (t.len() as u64 + 1));
    }

    /// ksw2's score is bounded by the perfect affine score and its
    /// explored band obeys the Z-derived width.
    #[test]
    fn ksw2_bounds(q in arb_seq(100), t in arb_seq(100), z in 0i32..150) {
        let params = Ksw2Params::with_zdrop(z);
        let r = ksw2_extend(&q, &t, params);
        prop_assert!(r.score >= 0);
        prop_assert!(r.score <= 2 * q.len().min(t.len()) as i32);
        let w = params.effective_band();
        prop_assert!(r.max_width <= 2 * w + 1);
    }

    /// Reversing both sequences of a pair reverses the alignment
    /// geometry but cannot change the DP cell count of an unbounded
    /// extension (the matrix is the same size).
    #[test]
    fn full_matrix_cells_layout_invariant(q in arb_seq(60), t in arb_seq(60)) {
        let big = i32::MAX / 4;
        let fwd = xdrop_extend(&q, &t, Scoring::default(), big);
        let rev = xdrop_extend(&q.reversed(), &t.reversed(), Scoring::default(), big);
        prop_assert_eq!(fwd.cells, rev.cells);
    }

    /// Clones share their codes (DESIGN.md §8), so every mutator must
    /// write somewhere the other owners cannot see. Any sequence of
    /// mutations applied to a clone — sources being the original, whose
    /// storage the clone may still share, or a clone of the clone itself
    /// — tracks a plain `Vec<u8>` model and never changes the original.
    #[test]
    fn mutating_a_clone_never_changes_the_original(
        original in arb_seq(40),
        ops in proptest::collection::vec((0u8..5, 0usize..64, 0usize..64, 0u8..4), 0..12),
    ) {
        let before = original.as_slice().to_vec();
        let mut copy = original.clone();
        let mut model = before.clone();
        for (op, a, b, pick) in ops {
            // The source: the original, or the copy's own current codes.
            let src = if pick % 2 == 0 { original.clone() } else { copy.clone() };
            let codes = src.as_slice().to_vec();
            let (a, b) = (a % (codes.len() + 1), b % (codes.len() + 1));
            let (lo, hi) = (a.min(b), a.max(b));
            match op {
                0 => {
                    copy.push(logan::seq::Base::from_code(pick));
                    model.push(pick);
                }
                1 => {
                    copy.extend_from(&src);
                    model.extend_from_slice(&codes);
                }
                2 => {
                    copy.clear();
                    model.clear();
                }
                3 => {
                    copy.assign_range(&src, lo, hi);
                    model = codes[lo..hi].to_vec();
                }
                _ => {
                    copy.assign_reversed_range(&src, lo, hi);
                    model = codes[lo..hi].iter().rev().copied().collect();
                }
            }
            prop_assert_eq!(copy.as_slice(), &model[..]);
            prop_assert_eq!(src.as_slice(), &codes[..]);
            prop_assert_eq!(original.as_slice(), &before[..]);
        }
    }
}
