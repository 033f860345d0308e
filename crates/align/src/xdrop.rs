//! The X-drop extension algorithm (Zhang et al. 2000; SeqAn
//! `extendSeedL`; paper §III, Algorithm 1).
//!
//! Semi-global extension: find the best-scoring alignment of *some*
//! prefix of the query against *some* prefix of the target, walking the
//! DP matrix one anti-diagonal at a time. Only three anti-diagonals are
//! live at any moment (`current`, `previous`, `two-prior` — paper
//! Fig. 1). After an anti-diagonal is computed:
//!
//! 1. every cell scoring below `best − X` is overwritten with −∞
//!    (the *X-drop* condition, applied with the best score known when
//!    the anti-diagonal started, exactly as the GPU kernel does);
//! 2. −∞ runs are trimmed from both ends, which yields the bounds of the
//!    next anti-diagonal (`ReduceAntiDiagFromStart/End` in Algorithm 1);
//! 3. the global best is raised to the anti-diagonal maximum.
//!
//! Termination: the trimmed anti-diagonal is empty (the alignment
//! *dropped*), or the last anti-diagonal (`m + n`) was computed.
//!
//! This scalar routine is the semantic ground truth every lane tier is
//! tested against, and the scalar tier the simulated GPU kernel in
//! `logan-core` runs (charging each anti-diagonal's SIMT costs from the
//! [`DiagStats`] it hands its sink).

use crate::result::ExtensionResult;
use crate::simd::{DiagStats, Engine, StepSink};
use crate::workspace::{AlignWorkspace, ScalarRings};
use crate::NEG_INF;
use logan_seq::{ScoreProfile, Seq};

/// Extend from the origin: best semi-global alignment of a prefix of
/// `query` against a prefix of `target` under the X-drop condition.
///
/// `x` must be non-negative; `x = i32::MAX / 4` effectively disables
/// pruning and yields the exact semi-global optimum (used by the oracle
/// tests).
///
/// Accepts anything convertible into a [`ScoreProfile`] — a plain
/// [`logan_seq::Scoring`] runs the historical DNA match/mismatch fast path
/// (bit-identical to the pre-profile code), a matrix profile runs the
/// same control flow with dense substitution lookups.
///
/// Thin allocating wrapper over [`xdrop_extend_with`]; hot callers hold
/// an [`AlignWorkspace`] and call that directly.
pub fn xdrop_extend(
    query: &Seq,
    target: &Seq,
    profile: impl Into<ScoreProfile>,
    x: i32,
) -> ExtensionResult {
    xdrop_extend_with(query, target, profile, x, &mut AlignWorkspace::new())
}

/// [`xdrop_extend`] computing into caller-owned scratch: all three
/// anti-diagonal rings live in `ws` (DESIGN.md §7), so a warm workspace
/// makes the call allocation-free. Results are bit-identical to a
/// fresh-workspace run regardless of what `ws` was previously used for.
pub fn xdrop_extend_with(
    query: &Seq,
    target: &Seq,
    profile: impl Into<ScoreProfile>,
    x: i32,
    ws: &mut AlignWorkspace,
) -> ExtensionResult {
    xdrop_run(query, target, profile.into(), x, ws, &mut ())
}

/// [`xdrop_extend_with`] behind its generic argument, handing every
/// anti-diagonal's statistics to `sink` — the scalar tier of
/// [`Engine::extend_with_sink`].
pub(crate) fn xdrop_run(
    query: &Seq,
    target: &Seq,
    profile: ScoreProfile,
    x: i32,
    ws: &mut AlignWorkspace,
    sink: &mut impl StepSink,
) -> ExtensionResult {
    // Dispatch once, outside the hot loop: each variant monomorphizes
    // the core with an inlined substitution scorer, so the DNA path
    // compiles to exactly the pre-profile loop.
    match profile {
        ScoreProfile::MatchMismatch(s) => xdrop_core(
            query,
            target,
            |a, b| s.substitution(a == b),
            s.gap,
            x,
            ws,
            sink,
        ),
        ScoreProfile::Matrix(m) => {
            xdrop_core(query, target, |a, b| m.score(a, b), m.gap, x, ws, sink)
        }
    }
}

/// The anti-diagonal X-drop recurrence, generic over the per-cell
/// substitution scorer and the per-step sink. `sub` receives the two
/// symbol *codes* at the cell (query, target).
fn xdrop_core(
    query: &Seq,
    target: &Seq,
    sub: impl Fn(u8, u8) -> i32,
    gap: i32,
    x: i32,
    ws: &mut AlignWorkspace,
    sink: &mut impl StepSink,
) -> ExtensionResult {
    assert!(x >= 0, "X-drop parameter must be non-negative");
    let m = query.len();
    let n = target.len();
    if m == 0 || n == 0 {
        return ExtensionResult::zero();
    }
    let q = query.as_slice();
    let t = target.as_slice();
    ws.tally.scalar += 1;

    let mut best: i32 = 0;
    let mut best_i: usize = 0;
    let mut best_d: usize = 0;
    let mut cells: u64 = 0;
    let mut iterations: u64 = 0;
    let mut max_width: usize = 1;
    let mut dropped = false;

    // d = 0 holds the single origin cell with score 0; the rings keep
    // their allocations across calls (the reuse this module is for).
    ws.rings.reset();
    let ScalarRings { prev2, prev, cur } = &mut ws.rings;

    for d in 1..=(m + n) {
        // Candidate bounds derive from the previous live range (Algorithm
        // 1: the trimmed anti-diagonal defines the next one), clamped to
        // the matrix.
        let lo = prev.lo().max(d.saturating_sub(n));
        let hi = (prev.lo() + prev.live_len()).min(d).min(m);
        if lo > hi {
            // The band slid off the matrix edge; nothing left to compute.
            break;
        }
        let width = hi - lo + 1;
        let threshold = best - x;
        let out = cur.begin(lo, width);

        // Boundary cells, peeled so the interior loop is branch-free on
        // move legality. At i = 0 (j = d) only the horizontal move — a
        // gap consuming target bases — can reach the cell; at i = d
        // (j = 0) only the vertical move.
        if lo == 0 {
            let mut v = prev.get(0) + gap;
            if v < threshold {
                v = NEG_INF;
            }
            out[0] = v;
        }
        if hi == d {
            let mut v = prev.get(d - 1) + gap;
            if v < threshold {
                v = NEG_INF;
            }
            out[d - lo] = v;
        }

        // Interior cells have i ≥ 1 and j ≥ 1: all three moves are in
        // play unconditionally.
        let ilo = lo.max(1);
        let ihi = hi.min(d - 1);
        for i in ilo..=ihi {
            // Diagonal move: consume one base of each sequence.
            let diag = prev2.get(i - 1) + sub(q[i - 1], t[d - i - 1]);
            // Vertical move: gap in the target (consume query base).
            let up = prev.get(i - 1) + gap;
            // Horizontal move: gap in the query (consume target base).
            let left = prev.get(i) + gap;
            let mut val = diag.max(up).max(left);
            if val < threshold {
                val = NEG_INF;
            }
            out[i - lo] = val;
        }
        cells += width as u64;
        iterations += 1;

        // Trim -inf runs from both ends (ReduceAntiDiagFromStart/End) —
        // offset moves only, no memmove.
        let computed = cur.computed();
        let Some(kf) = computed.iter().position(|&v| v > NEG_INF) else {
            sink.diag(&DiagStats::dropped(width));
            dropped = true;
            break;
        };
        let kl = computed.iter().rposition(|&v| v > NEG_INF).unwrap();
        cur.trim(kf, kl);
        max_width = max_width.max(cur.live_len());

        // Raise the global best to this anti-diagonal's maximum, taking
        // the smallest i on the earliest anti-diagonal as the tie-break —
        // the same rule the kernel's reduction follows.
        let (mut row_max, mut row_arg) = (NEG_INF, 0usize);
        for (k, &v) in cur.live().iter().enumerate() {
            if v > row_max {
                row_max = v;
                row_arg = cur.lo() + k;
            }
        }
        if row_max > best {
            best = row_max;
            best_i = row_arg;
            best_d = d;
        }
        sink.diag(&DiagStats {
            width,
            live_width: cur.live_len(),
            trim_front: kf,
            trim_back: width - 1 - kl,
            row_max,
        });

        // Rotate buffers: reuse allocations, as the GPU reuses its three
        // HBM anti-diagonal buffers.
        std::mem::swap(prev2, prev);
        std::mem::swap(prev, cur);
    }

    ExtensionResult {
        score: best,
        query_end: best_i,
        target_end: best_d - best_i,
        cells,
        iterations,
        max_width,
        dropped,
    }
}

/// The parameters of an X-drop extension — substitution model, X and
/// compute [`Engine`] — bound into one value: what
/// [`seed_extend_with`](crate::seed_extend::seed_extend_with) runs both
/// flanks of a pair under, and what a
/// [`CpuBatchAligner`](crate::batch::CpuBatchAligner) maps over a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XDropExtender {
    /// The substitution model (linear gaps): a plain [`logan_seq::Scoring`] is the
    /// DNA match/mismatch fast path, a matrix profile BLOSUM-style.
    pub profile: ScoreProfile,
    /// The X-drop threshold.
    pub x: i32,
    /// Which kernel computes each extension (bit-identical results
    /// either way; see [`crate::simd`]).
    pub engine: Engine,
}

impl XDropExtender {
    /// Create an extender running the scalar reference engine.
    pub fn new(profile: impl Into<ScoreProfile>, x: i32) -> XDropExtender {
        XDropExtender::with_engine(profile, x, Engine::Scalar)
    }

    /// Create an extender with an explicit compute engine.
    pub fn with_engine(profile: impl Into<ScoreProfile>, x: i32, engine: Engine) -> XDropExtender {
        XDropExtender {
            profile: profile.into(),
            x,
            engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::extension_oracle;
    use logan_seq::readsim::random_seq;
    use logan_seq::{ErrorModel, ErrorProfile, Scoring};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BIG_X: i32 = i32::MAX / 4;

    fn seq(s: &str) -> Seq {
        Seq::from_str_strict(s).unwrap()
    }

    #[test]
    fn empty_inputs_score_zero() {
        let s = seq("ACGT");
        let e = Seq::new();
        assert_eq!(
            xdrop_extend(&e, &s, Scoring::default(), 10),
            ExtensionResult::zero()
        );
        assert_eq!(
            xdrop_extend(&s, &e, Scoring::default(), 10),
            ExtensionResult::zero()
        );
    }

    #[test]
    fn identical_sequences_reach_the_corner() {
        let s = seq("ACGTACGTACGTACGT");
        let r = xdrop_extend(&s, &s, Scoring::default(), 5);
        assert_eq!(r.score, s.len() as i32);
        assert_eq!(r.query_end, s.len());
        assert_eq!(r.target_end, s.len());
        assert!(!r.dropped);
    }

    #[test]
    fn single_base() {
        let r = xdrop_extend(&seq("A"), &seq("A"), Scoring::default(), 3);
        assert_eq!(r.score, 1);
        assert_eq!((r.query_end, r.target_end), (1, 1));
        let r2 = xdrop_extend(&seq("A"), &seq("C"), Scoring::default(), 3);
        assert_eq!(r2.score, 0);
        assert_eq!((r2.query_end, r2.target_end), (0, 0));
    }

    #[test]
    fn divergent_sequences_drop_early() {
        // Query all-A, target all-T: every path scores negatively, so the
        // search dies once the score falls X below zero.
        let a: Seq = std::iter::repeat_n(logan_seq::Base::A, 500).collect();
        let t: Seq = std::iter::repeat_n(logan_seq::Base::T, 500).collect();
        let r = xdrop_extend(&a, &t, Scoring::default(), 10);
        assert_eq!(r.score, 0);
        assert!(r.dropped);
        // The explored region must be tiny compared to the full matrix.
        assert!(r.cells < 1_000, "explored {} cells", r.cells);
    }

    #[test]
    fn work_grows_with_x_on_divergent_input() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_seq(800, &mut rng);
        let b = random_seq(800, &mut rng);
        let mut last = 0u64;
        for x in [5, 20, 80, 320] {
            let r = xdrop_extend(&a, &b, Scoring::default(), x);
            assert!(r.cells >= last, "cells must grow with X");
            last = r.cells;
        }
    }

    #[test]
    fn big_x_matches_full_semiglobal_oracle() {
        let mut rng = StdRng::seed_from_u64(2);
        for trial in 0..30 {
            let n = 10 + (trial * 7) % 80;
            let a = random_seq(n, &mut rng);
            let template = random_seq(n, &mut rng);
            let (b, _) = ErrorModel::new(ErrorProfile::pacbio(0.15)).corrupt(&template, &mut rng);
            let r = xdrop_extend(&a, &b, Scoring::default(), BIG_X);
            let oracle = extension_oracle(&a, &b, Scoring::default());
            assert_eq!(r.score, oracle.score, "trial {trial}");
        }
    }

    #[test]
    fn score_monotone_in_x() {
        let mut rng = StdRng::seed_from_u64(3);
        let template = random_seq(600, &mut rng);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.15));
        let (a, _) = model.corrupt(&template, &mut rng);
        let (b, _) = model.corrupt(&template, &mut rng);
        let mut prev_score = i32::MIN;
        for x in [2, 5, 10, 25, 50, 100, 400] {
            let r = xdrop_extend(&a, &b, Scoring::default(), x);
            assert!(
                r.score >= prev_score,
                "score should not decrease as X grows (x={x})"
            );
            prev_score = r.score;
        }
        // And with a generous X the noisy pair must align most of its span.
        let r = xdrop_extend(&a, &b, Scoring::default(), 400);
        assert!(r.score > (template.len() as f64 * 0.3) as i32);
    }

    #[test]
    fn symmetric_in_arguments() {
        let mut rng = StdRng::seed_from_u64(4);
        let template = random_seq(300, &mut rng);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.12));
        let (a, _) = model.corrupt(&template, &mut rng);
        let (b, _) = model.corrupt(&template, &mut rng);
        for x in [10, 50, 200] {
            let fwd = xdrop_extend(&a, &b, Scoring::default(), x);
            let rev = xdrop_extend(&b, &a, Scoring::default(), x);
            assert_eq!(fwd.score, rev.score);
            assert_eq!(fwd.cells, rev.cells);
            // The best cell is on the same anti-diagonal; exact
            // coordinates may differ when ties break toward smallest i.
            assert_eq!(
                fwd.query_end + fwd.target_end,
                rev.query_end + rev.target_end
            );
        }
    }

    #[test]
    fn repeat_trap_is_cut_by_small_x() {
        // S = A-B-C vs R = A-D-C (paper §I, Frith et al. argument): with a
        // huge X the aligner bridges the unrelated middle and glues the
        // two matching flanks; a small X refuses the bridge. BLAST-like
        // scoring is required for the trap to exist at all: under the
        // unit scheme (+1/-1/-1) two *random* sequences drift upward
        // (~+0.3/base, Chvátal–Sankoff), so nothing ever drops.
        let scoring = Scoring::new(1, -2, -2);
        let mut rng = StdRng::seed_from_u64(5);
        let flank_a = random_seq(200, &mut rng);
        let flank_c = random_seq(200, &mut rng);
        let mid_b = random_seq(40, &mut rng);
        let mid_d = random_seq(40, &mut rng);
        let mut s = flank_a.clone();
        s.extend_from(&mid_b);
        s.extend_from(&flank_c);
        let mut r = flank_a.clone();
        r.extend_from(&mid_d);
        r.extend_from(&flank_c);

        let glued = xdrop_extend(&s, &r, scoring, BIG_X);
        let cut = xdrop_extend(&s, &r, scoring, 15);
        assert!(
            glued.score > flank_a.len() as i32 + 20,
            "large X should bridge the gap (score {})",
            glued.score
        );
        assert!(
            cut.score <= flank_a.len() as i32 + 10,
            "small X must stop at the first flank (score {})",
            cut.score
        );
        assert!(cut.dropped);
    }

    #[test]
    fn cells_bounded_by_full_matrix() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random_seq(200, &mut rng);
        let b = random_seq(150, &mut rng);
        let r = xdrop_extend(&a, &b, Scoring::default(), BIG_X);
        assert!(r.cells <= 200 * 150 + 200 + 150);
        assert_eq!(r.iterations, (200 + 150) as u64);
    }

    #[test]
    fn zero_x_terminates_on_the_first_antidiagonal() {
        // X = 0 prunes the two gap cells of anti-diagonal 1 (both score
        // -1 < best - 0), so the search dies before ever reaching the
        // first diagonal match — faithful Algorithm-1 behaviour.
        let s = seq("ACGTACGTAC");
        let r = xdrop_extend(&s, &s, Scoring::default(), 0);
        assert_eq!(r.score, 0);
        assert!(r.dropped);
        assert_eq!(r.cells, 2);
    }

    #[test]
    fn x_one_follows_perfect_match_diagonal() {
        // X = 1 keeps the gap cells alive just long enough for the
        // diagonal to take over; the band then collapses to (nearly) the
        // diagonal and the full match score is reached.
        let s = seq("ACGTACGTAC");
        let r = xdrop_extend(&s, &s, Scoring::default(), 1);
        assert_eq!(r.score, s.len() as i32);
        assert!(
            r.cells < (s.len() as u64 + 1).pow(2) / 2,
            "band must stay narrow"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_x_rejected() {
        let _ = xdrop_extend(&seq("A"), &seq("A"), Scoring::default(), -1);
    }

    /// Golden regression for the offset-based trimming rewrite: results
    /// on trim-heavy inputs, captured from the `drain(..k)`
    /// implementation this replaced (seed 77; see the construction in
    /// each case). Any change to bounds, pruning or trimming
    /// arithmetic — not just scores, but cells/iterations/widths — trips
    /// this without needing an oracle.
    #[test]
    fn offset_trim_matches_drain_golden_results() {
        use logan_seq::Base;
        let mut rng = StdRng::seed_from_u64(77);
        let golden =
            |score, query_end, target_end, cells, iterations, max_width, dropped| ExtensionResult {
                score,
                query_end,
                target_end,
                cells,
                iterations,
                max_width,
                dropped,
            };

        // Case 1: a 120-base mismatch prefix before a shared template —
        // the live band must slide along the query edge (heavy front
        // trimming) before locking onto the match diagonal.
        let template = random_seq(300, &mut rng);
        let mut q1: Seq = std::iter::repeat_n(Base::A, 120).collect();
        q1.extend_from(&template);
        let t1 = template.clone();
        let mut ws = AlignWorkspace::new();
        for (x, want) in [
            (50, golden(0, 0, 0, 6892, 193, 52, true)),
            (150, golden(180, 420, 300, 96650, 720, 221, false)),
            (400, golden(180, 420, 300, 126192, 720, 301, false)),
        ] {
            let scoring = Scoring::new(1, -1, -1);
            assert_eq!(xdrop_extend(&q1, &t1, scoring, x), want, "case1 x={x}");
            // The same through a reused workspace.
            assert_eq!(
                xdrop_extend_with(&q1, &t1, scoring, x, &mut ws),
                want,
                "case1 (reused ws) x={x}"
            );
        }

        // Case 2: shared flanks around divergent middles — the band
        // repeatedly widens and collapses (trims on both ends).
        let a = random_seq(200, &mut rng);
        let mut q2 = a.clone();
        q2.extend_from(&random_seq(60, &mut rng));
        q2.extend_from(&a);
        let mut t2 = a.clone();
        t2.extend_from(&random_seq(60, &mut rng));
        t2.extend_from(&a);
        for (x, want) in [
            (20, golden(202, 202, 202, 4286, 458, 12, true)),
            (120, golden(364, 460, 460, 47672, 920, 78, false)),
        ] {
            let scoring = Scoring::new(1, -2, -2);
            assert_eq!(xdrop_extend(&q2, &t2, scoring, x), want, "case2 x={x}");
            assert_eq!(
                xdrop_extend_with(&q2, &t2, scoring, x, &mut ws),
                want,
                "case2 (reused ws) x={x}"
            );
        }

        // Case 3: pure divergence under BLAST-like scoring — everything
        // trims away and the extension drops.
        let b = random_seq(250, &mut rng);
        let c = random_seq(250, &mut rng);
        let want = golden(1, 1, 1, 999, 93, 16, true);
        assert_eq!(xdrop_extend(&b, &c, Scoring::new(1, -2, -2), 25), want);
        assert_eq!(
            xdrop_extend_with(&b, &c, Scoring::new(1, -2, -2), 25, &mut ws),
            want
        );
    }

    /// Single-cell-wide anti-diagonals: with a one-base sequence on
    /// either side, every anti-diagonal past the first collapses to
    /// `lo == hi`, hugging the `i == 0` / `i == d` matrix edges where
    /// the boundary-peel writes and the interior loop vanishes. Both
    /// engines must agree with each other and (at large X) with the full
    /// semi-global oracle on these shapes.
    #[test]
    fn single_cell_antidiagonals_match_across_engines() {
        let shapes: Vec<(Seq, Seq)> = vec![
            // m = 1: the band rides the query edge; anti-diagonal d has
            // candidate cells {d-1, d} clipped to i <= 1, and once the
            // gap run prunes, lo == hi == 1 for every remaining d.
            (seq("A"), seq("AAAAAAAA")),
            (seq("C"), seq("AAAAAAAA")),
            (seq("G"), seq("AATGATTA")),
            // n = 1: mirrored along the target edge; the i == d
            // (j == 0) vertical-peel corner is exercised on every
            // anti-diagonal while the band survives.
            (seq("AAAAAAAA"), seq("A")),
            (seq("AAAAAAAA"), seq("C")),
            (seq("TTACGTTA"), seq("T")),
            // m = n = 1: d = 1 fires both peels (lo == 0 and hi == d)
            // with an empty interior; d = 2 is a lone interior cell.
            (seq("A"), seq("A")),
            (seq("A"), seq("C")),
        ];
        for (q, t) in &shapes {
            for x in [0, 1, 2, 5, BIG_X] {
                let scalar = Engine::Scalar.extend(q, t, Scoring::default(), x);
                let simd = Engine::Simd.extend(q, t, Scoring::default(), x);
                assert_eq!(scalar, simd, "engines diverge on {q:?}/{t:?} x={x}");
                if x == BIG_X {
                    let oracle = extension_oracle(q, t, Scoring::default());
                    assert_eq!(scalar.score, oracle.score, "oracle {q:?}/{t:?}");
                }
            }
        }
        // Spot-check the degenerate-band semantics directly: "A" against
        // poly-A earns the single match and then pays gaps; X = 1 lets
        // exactly the match survive.
        let r = xdrop_extend(&seq("A"), &seq("AAAAAAAA"), Scoring::default(), 1);
        assert_eq!(r.score, 1);
        assert_eq!((r.query_end, r.target_end), (1, 1));
        // Width never exceeds 2 on a 1 x n matrix.
        let r = xdrop_extend(&seq("A"), &seq("AAAAAAAA"), Scoring::default(), BIG_X);
        assert!(r.max_width <= 2, "max_width {}", r.max_width);
        assert_eq!(r.iterations, 9, "all m + n anti-diagonals visited");
    }

    #[test]
    fn max_width_tracks_band() {
        let mut rng = StdRng::seed_from_u64(7);
        let template = random_seq(400, &mut rng);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.15));
        let (a, _) = model.corrupt(&template, &mut rng);
        let (b, _) = model.corrupt(&template, &mut rng);
        let narrow = xdrop_extend(&a, &b, Scoring::default(), 10);
        let wide = xdrop_extend(&a, &b, Scoring::default(), 200);
        assert!(narrow.max_width <= wide.max_width);
        assert!(wide.max_width <= 401);
    }
}
