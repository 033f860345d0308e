//! Differential test harness for the kernel tier ladder (PR 10): the
//! 32-lane i8 tier (`Engine::I8`), the 16-lane i16 tier
//! (`Engine::Simd`) and the per-pair adaptive selector
//! (`Engine::Adaptive`) must all be bit-identical to the scalar ground
//! truth — scores, end positions, cell counts, iteration counts, band
//! widths and the dropped flag.
//!
//! This is the premerge gate's `engine-tiers` step. Coverage is chosen
//! so every dispatch path provably runs:
//!
//! * random DNA and BLOSUM62 workloads with X values straddling *both*
//!   eligibility boundaries (i8's `x + max_score ≤ 63` window and the
//!   i16 window behind `SIMD_MAX_X`), so each tier's fallback edge is
//!   exercised from both sides;
//! * forced saturation-escalation: pairs whose running best score
//!   provably outgrows the i8 window mid-extension, checked through the
//!   [`TierTally`] escalation counter;
//! * the adaptive selector's tier choice, pinned through the tally;
//! * band edges of the row kernel (its masked last chunk): interior
//!   widths pinned on both sides of every chunk boundary, flanks and
//!   profiles shorter than a chunk, boundary cells inside the masked
//!   store, masked lanes over live parents, escalation onto a
//!   sub-chunk band — each witnessed through the per-step statistics
//!   the engines hand their sink, so the case cannot silently stop
//!   being exercised;
//! * the structured inputs random pairs miss (ROADMAP item 6(a)):
//!   homopolymers, all-`N` pairs, seeds at offset 0 and `len − k`,
//!   X = 0 and X past the full score, best scores exactly on the i8 and
//!   i16 ceilings, bands of L − 1, L, L + 1 cells right after a trim.
//!
//! The lane kernels exist in two compilations of one source — the
//! build target's baseline vectors and AVX2, picked per CPU at run time
//! (DESIGN.md §14). Every comparison here runs an engine through the
//! dispatched entry point *and* through the portable body
//! (`logan_align::simd::extend_portable`, the test seam) and diffs both
//! against scalar, tier tallies included; on a CPU without AVX2 the two
//! are the same code and [`both_compilations_are_named`] says so.

use logan::align::{simd8_eligible, simd_eligible};
use logan::prelude::*;
use logan::seq::readsim::Seed;
use logan::seq::{Alphabet, ScoreProfile};
use logan_align::simd::{extend_portable, kernel_isa, SIMD8_MAX_SCORE, SIMD_MAX_SCORE, SIMD_MAX_X};
use logan_align::{DiagStats, StepSink};
use logan_core::kernel::{logan_block_extend, KernelPolicy};
use logan_gpusim::BlockCtx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_seq(max_len: usize) -> impl Strategy<Value = Seq> {
    proptest::collection::vec(0u8..4, 0..max_len)
        .prop_map(|codes| codes.into_iter().map(logan::seq::Base::from_code).collect())
}

fn random_protein(n: usize, rng: &mut StdRng) -> Seq {
    Seq::from_codes(
        (0..n).map(|_| rng.gen_range(0..20u8)).collect(),
        Alphabet::Protein,
    )
}

/// A homolog of `q`: `sub_rate` of the residues resampled.
fn mutate(q: &Seq, sub_rate: f64, rng: &mut StdRng) -> Seq {
    let mut codes = q.as_slice().to_vec();
    for c in codes.iter_mut() {
        if rng.gen_bool(sub_rate) {
            *c = rng.gen_range(0..20u8);
        }
    }
    Seq::from_codes(codes, Alphabet::Protein)
}

/// One engine through both compilations of its lane kernel — the
/// dispatched entry point and the portable body — each on a fresh
/// workspace: the results (asserted equal) and the tier tally (asserted
/// equal too: same dispatch, same escalation).
fn both_compilations(
    engine: Engine,
    q: &Seq,
    t: &Seq,
    profile: impl Into<ScoreProfile> + Copy,
    x: i32,
) -> (ExtensionResult, TierTally) {
    let (mut ws, mut ws_portable) = (AlignWorkspace::new(), AlignWorkspace::new());
    let dispatched = engine.extend_with(q, t, profile, x, &mut ws);
    let portable = extend_portable(engine, q, t, profile, x, &mut ws_portable, &mut ());
    assert_eq!(
        dispatched,
        portable,
        "{engine}: the {} and portable compilations disagree (x = {x})",
        kernel_isa()
    );
    assert_eq!(ws.tally, ws_portable.tally, "{engine} (x = {x})");
    (dispatched, ws.tally)
}

/// Assert every tier matches scalar on one input, in both compilations,
/// and return the scalar result.
fn all_tiers_agree(
    q: &Seq,
    t: &Seq,
    profile: impl Into<ScoreProfile> + Copy,
    x: i32,
) -> ExtensionResult {
    let want = Engine::Scalar.extend(q, t, profile, x);
    for engine in [Engine::Simd, Engine::I8, Engine::Adaptive] {
        assert_eq!(
            both_compilations(engine, q, t, profile, x).0,
            want,
            "{engine} diverged from scalar (x = {x})"
        );
    }
    want
}

/// Which compilation the dispatched half of every comparison in this
/// suite ran; without AVX2 both halves are the portable body.
#[test]
fn both_compilations_are_named() {
    match kernel_isa() {
        "avx2" => println!("engine_tiers: dispatched = avx2, seam = portable"),
        "portable" => {
            println!("engine_tiers: no AVX2 on this CPU — every comparison is portable vs portable")
        }
        other => panic!("unknown kernel ISA {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Headline property, DNA: for random pairs, scoring schemes and X
    /// values, every tier is bit-equal to scalar. The X range straddles
    /// the i8 eligibility boundary (`x + max_score ≤ 63`), so both the
    /// 32-lane kernel and its fallback run; high-scoring long pairs
    /// exercise the i8 → i16 escalation path.
    #[test]
    fn dna_tiers_are_bit_equal_to_scalar(
        q in arb_seq(260),
        t in arb_seq(260),
        x in 0i32..130,
        mat in 1i32..5,
        mis in -5i32..0,
        gap in -5i32..0,
    ) {
        all_tiers_agree(&q, &t, Scoring::new(mat, mis, gap), x);
    }

    /// Headline property, BLOSUM62: random homolog pairs under the
    /// matrix profile, X straddling the i8 window (`x ≤ 52` with
    /// BLOSUM62's max score of 11).
    #[test]
    fn blosum62_tiers_are_bit_equal_to_scalar(
        seed in 0u64..1_000_000,
        n in 1usize..420,
        sub_pct in 5u32..60,
        x in 0i32..110,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_protein(n, &mut rng);
        let t = mutate(&q, sub_pct as f64 / 100.0, &mut rng);
        all_tiers_agree(&q, &t, ScoreProfile::blosum62(-6), x);
    }

    /// Workspace-reuse across tiers: interleaving all four engines on
    /// one warm workspace leaks no state between extensions.
    #[test]
    fn interleaved_tiers_share_a_workspace(
        pairs in proptest::collection::vec(
            (arb_seq(160), arb_seq(160), 0i32..120), 1..6),
    ) {
        let scoring = Scoring::default();
        let mut ws = AlignWorkspace::new();
        for (q, t, x) in &pairs {
            let fresh = Engine::Scalar.extend(q, t, scoring, *x);
            prop_assert_eq!(xdrop_extend_with(q, t, scoring, *x, &mut ws), fresh);
            prop_assert_eq!(Engine::I8.extend_with(q, t, scoring, *x, &mut ws), fresh);
            prop_assert_eq!(Engine::Simd.extend_with(q, t, scoring, *x, &mut ws), fresh);
            prop_assert_eq!(Engine::Adaptive.extend_with(q, t, scoring, *x, &mut ws), fresh);
            // Both compilations of a kernel share the scratch, too.
            prop_assert_eq!(extend_portable(Engine::I8, q, t, scoring, *x, &mut ws, &mut ()), fresh);
            prop_assert_eq!(Engine::I8.extend_with(q, t, scoring, *x, &mut ws), fresh);
            prop_assert_eq!(extend_portable(Engine::Simd, q, t, scoring, *x, &mut ws, &mut ()), fresh);
        }
    }
}

/// Walk X across the i8 eligibility boundary (`x + max_score ≤ 63`):
/// eligibility must flip exactly at the boundary and every tier must
/// stay bit-identical on both sides.
#[test]
fn x_straddles_the_i8_boundary() {
    let mut rng = StdRng::seed_from_u64(1001);
    let pairs = PairSet::generate_with_lengths(3, 0.15, 150, 300, 7).pairs;
    let scoring = Scoring::default(); // match = +1
    let boundary = SIMD8_MAX_SCORE - 1; // largest eligible X: x + 1 ≤ 63
    for p in &pairs {
        for dx in -2i32..=2 {
            let x = boundary + dx;
            assert_eq!(
                simd8_eligible(&p.query, &p.target, scoring, x),
                dx <= 0,
                "i8 eligibility must flip at x = {boundary} (dx = {dx})"
            );
            all_tiers_agree(&p.query, &p.target, scoring, x);
        }
    }
    // Same walk under BLOSUM62 (max score 11 → boundary at x = 52).
    let q = random_protein(220, &mut rng);
    let t = mutate(&q, 0.2, &mut rng);
    let p = ScoreProfile::blosum62(-6);
    let b62 = SIMD8_MAX_SCORE - 11;
    for dx in -2i32..=2 {
        let x = b62 + dx;
        assert_eq!(simd8_eligible(&q, &t, p, x), dx <= 0);
        all_tiers_agree(&q, &t, p, x);
    }
}

/// Walk X across the i16 eligibility boundary (`x + max_score ≤
/// SIMD_MAX_X`): above it every SIMD tier must fall back to scalar —
/// and still agree bit for bit.
#[test]
fn x_straddles_the_i16_boundary() {
    let pairs = PairSet::generate_with_lengths(3, 0.15, 150, 300, 8).pairs;
    let scoring = Scoring::default();
    let boundary = SIMD_MAX_X - 1; // largest eligible X: x + 1 ≤ SIMD_MAX_X
    for p in &pairs {
        for dx in -2i32..=2 {
            let x = boundary + dx;
            assert_eq!(
                simd_eligible(&p.query, &p.target, scoring, x),
                dx <= 0,
                "i16 eligibility must flip at x = {boundary} (dx = {dx})"
            );
            // Far outside the i8 window, so I8 and Adaptive take their
            // fallback edges here.
            assert!(!simd8_eligible(&p.query, &p.target, scoring, x));
            all_tiers_agree(&p.query, &p.target, scoring, x);
        }
    }
}

/// Forced saturation-escalation: a long identical pair's best score
/// provably outgrows the i8 window mid-extension. The i8 kernel must
/// hand over to i16 (counted in the tally), never drop to scalar, and
/// the result must stay bit-identical.
#[test]
fn saturation_escalation_is_counted_and_bit_identical() {
    let scoring = Scoring::default();
    for n in [200usize, 600, 1500] {
        let q: Seq = (0..n)
            .map(|i| logan::seq::Base::from_code((i % 4) as u8))
            .collect();
        let x = 30;
        assert!(simd8_eligible(&q, &q, scoring, x));
        let want = all_tiers_agree(&q, &q, scoring, x);
        assert_eq!(want.score, n as i32, "perfect pair must score n");

        let mut ws = AlignWorkspace::new();
        Engine::I8.extend_with(&q, &q, scoring, x, &mut ws);
        assert_eq!(ws.tally.lanes8, 1, "i8 must dispatch its tier (n = {n})");
        assert_eq!(
            ws.tally.escalations, 1,
            "i8 must escalate exactly once (n = {n})"
        );
        assert_eq!(ws.tally.scalar, 0, "i8 must not touch scalar");
        // Adaptive never starts in i8, so it has nothing to escalate.
        let mut ws = AlignWorkspace::new();
        Engine::Adaptive.extend_with(&q, &q, scoring, x, &mut ws);
        assert_eq!(
            (ws.tally.lanes16, ws.tally.lanes8, ws.tally.escalations),
            (1, 0, 0),
            "adaptive must run i16 from the start (n = {n})"
        );
    }
}

/// The adaptive selector chooses from what it can observe, pinned
/// through the tally: i16 wherever its window holds — inside the i8
/// window too, where escalation would be the rule — and scalar beyond.
#[test]
fn adaptive_picks_i16_when_eligible_else_scalar() {
    let pairs = PairSet::generate_with_lengths(2, 0.15, 200, 400, 9).pairs;
    let scoring = Scoring::default();
    // (x, expected tier) spanning the ladder.
    let cases = [
        (40, (0u64, 1u64)),             // i8 window → still lanes16
        (SIMD8_MAX_SCORE + 20, (0, 1)), // past i8, inside i16 → lanes16
        (SIMD_MAX_X + 20, (1, 0)),      // past both → scalar
    ];
    for p in &pairs {
        for (x, (scalar, lanes16)) in cases {
            let mut ws = AlignWorkspace::new();
            let got = Engine::Adaptive.extend_with(&p.query, &p.target, scoring, x, &mut ws);
            assert_eq!(got, Engine::Scalar.extend(&p.query, &p.target, scoring, x));
            assert_eq!(
                (ws.tally.scalar, ws.tally.lanes16),
                (scalar, lanes16),
                "adaptive dispatched the wrong tier at x = {x}"
            );
            assert_eq!((ws.tally.lanes8, ws.tally.escalations), (0, 0));
            assert_eq!(ws.tally.total(), 1);
        }
    }
}

// ---------------------------------------------------------------------
// Band edges: the row kernel rounds every anti-diagonal's interior up to
// whole chunks (16 i16 lanes, 32 i8 lanes) and masks the lanes past its
// end. The cases below sit on both sides of each chunk boundary.
// ---------------------------------------------------------------------

/// [`all_tiers_agree`] plus the simulated GPU's block path under every
/// engine: the same results, and the same SIMT counters.
fn all_paths_agree(
    q: &Seq,
    t: &Seq,
    profile: impl Into<ScoreProfile> + Copy,
    x: i32,
) -> ExtensionResult {
    let want = all_tiers_agree(q, t, profile, x);
    let threads = 128;
    let mut counters = None;
    for engine in [Engine::Scalar, Engine::Simd, Engine::I8, Engine::Adaptive] {
        let mut ctx = BlockCtx::new(threads, 32, 96 * 1024);
        let policy = KernelPolicy {
            engine,
            ..KernelPolicy::new(threads)
        };
        let mut ws = AlignWorkspace::new();
        assert_eq!(
            logan_block_extend(&mut ctx, q, t, profile, x, &policy, &mut ws),
            want,
            "gpusim {engine} diverged from scalar (x = {x})"
        );
        let first = counters.get_or_insert(ctx.counters);
        assert_eq!(&ctx.counters, first, "gpusim {engine} counters (x = {x})");
    }
    want
}

/// Every anti-diagonal an extension computed, as its sink saw them;
/// each must be live + trimmed cells.
#[derive(Default)]
struct Steps(Vec<DiagStats>);

impl StepSink for Steps {
    fn diag(&mut self, s: &DiagStats) {
        assert_eq!(s.width, s.live_width + s.trim_front + s.trim_back);
        self.0.push(*s);
    }
}

/// One engine's steps through both compilations of its kernel (asserted
/// equal, like the results and tallies), checked to add up to the
/// result's cells and iterations.
fn steps_of(
    engine: Engine,
    q: &Seq,
    t: &Seq,
    profile: impl Into<ScoreProfile> + Copy,
    x: i32,
) -> (Vec<DiagStats>, ExtensionResult, TierTally) {
    let (mut ws, mut ws_portable) = (AlignWorkspace::new(), AlignWorkspace::new());
    let (mut steps, mut steps_portable) = (Steps::default(), Steps::default());
    let r = engine.extend_with_sink(q, t, profile, x, &mut ws, &mut steps);
    let portable = extend_portable(
        engine,
        q,
        t,
        profile,
        x,
        &mut ws_portable,
        &mut steps_portable,
    );
    assert_eq!(r, portable, "{engine} (x = {x})");
    assert_eq!(ws.tally, ws_portable.tally, "{engine} (x = {x})");
    assert_eq!(
        steps.0,
        steps_portable.0,
        "{engine}: the {} and portable compilations stepped apart (x = {x})",
        kernel_isa()
    );
    let cells: u64 = steps.0.iter().map(|s| s.width as u64).sum();
    assert_eq!((r.cells, r.iterations), (cells, steps.0.len() as u64));
    (steps.0, r, ws.tally)
}

/// Per-step statistics of the i16 kernel, run to completion.
fn i16_steps(q: &Seq, t: &Seq, profile: impl Into<ScoreProfile> + Copy, x: i32) -> Vec<DiagStats> {
    assert!(simd_eligible(q, t, profile, x), "i16-eligible");
    steps_of(Engine::Simd, q, t, profile, x).0
}

/// Per-step statistics of the i8 kernel up to its end or its hand-over
/// to i16: the steps before the first one whose values the best so far
/// could have lifted past the i8 window.
fn i8_steps(q: &Seq, t: &Seq, profile: impl Into<ScoreProfile> + Copy, x: i32) -> Vec<DiagStats> {
    assert!(simd8_eligible(q, t, profile, x), "i8-eligible");
    let (mut steps, _, tally) = steps_of(Engine::I8, q, t, profile, x);
    let max_sub = profile.into().max_score();
    let mut best = 0;
    let in_window = steps
        .iter()
        .take_while(|s| {
            let stay = best + max_sub <= SIMD8_MAX_SCORE;
            best = best.max(s.row_max);
            stay
        })
        .count();
    // A hand-over can come after the last step; one before it cannot
    // go uncounted.
    assert!(in_window == steps.len() || tally.escalations == 1);
    steps.truncate(in_window);
    steps
}

/// A random DNA sequence over the given base codes.
fn random_dna(n: usize, bases: &[u8], rng: &mut StdRng) -> Seq {
    (0..n)
        .map(|_| logan::seq::Base::from_code(bases[rng.gen_range(0..bases.len())]))
        .collect()
}

const ACGT: &[u8] = &[0, 1, 2, 3];
/// A query over {A, C} never matches a target over {G, T}, so under
/// unit scoring the best score stays 0, cell `(i, j)` scores
/// `−max(i, j)` and nothing within `max(i, j) ≤ X` is pruned —
/// anti-diagonal widths follow from the lengths alone.
const AC: &[u8] = &[0, 1];
const GT: &[u8] = &[2, 3];

/// Interior widths pinned at 1, L − 1, L, L + 1, 2L − 1 and 2L for both
/// chunk widths. With `m = W < n` and nothing pruned, anti-diagonals
/// `m < d ≤ n` hold the `i = 0` boundary cell plus exactly `W` interior
/// cells; the per-step statistics witness it.
#[test]
fn interior_widths_pinned_at_chunk_edges() {
    let mut rng = StdRng::seed_from_u64(1201);
    let unit = Scoring::default();
    // i16 tier: X far above any reachable drop, random DNA.
    for w in [1usize, 15, 16, 17, 31, 32, 33, 63, 64] {
        let n = w + 40;
        let q = random_dna(w, ACGT, &mut rng);
        let t = random_dna(n, ACGT, &mut rng);
        let x = 1000;
        let pinned = i16_steps(&q, &t, unit, x)
            .iter()
            .filter(|s| s.width == w + 1)
            .count();
        assert!(pinned >= n - w, "i16: interior width {w} not pinned");
        all_paths_agree(&q, &t, unit, x);
        // The transpose pins the same widths against the j = 0 cell.
        all_paths_agree(&t, &q, unit, x);
    }
    // i8 tier: X = 62 is the widest window at match = +1, so the
    // never-matching pair keeps every cell with max(i, j) ≤ 62 alive.
    let x = SIMD8_MAX_SCORE - 1;
    for w in [1usize, 15, 16, 17, 31, 32, 33] {
        let n = x as usize;
        let q = random_dna(w, AC, &mut rng);
        let t = random_dna(n, GT, &mut rng);
        assert!(simd8_eligible(&q, &t, unit, x));
        let pinned = i8_steps(&q, &t, unit, x)
            .iter()
            .filter(|s| s.width == w + 1)
            .count();
        assert!(pinned >= n - w, "i8: interior width {w} not pinned");
        all_paths_agree(&q, &t, unit, x);
        all_paths_agree(&t, &q, unit, x);
    }
    // 2L − 1 = 63 is the widest interior the i8 window admits: with
    // both flanks past X, anti-diagonal d = 64 computes i = 1..=63.
    // (2L = 64 is out of the i8 tier's reach; the i16 rows above run
    // the same kernel code across it.)
    let q = random_dna(80, AC, &mut rng);
    let t = random_dna(90, GT, &mut rng);
    let steps = i8_steps(&q, &t, unit, x);
    assert_eq!(
        steps[63].width, 63,
        "anti-diagonal 64 must be 63 interior cells"
    );
    all_paths_agree(&q, &t, unit, x);
}

/// While `d ≤ min(m, n)` an unpruned anti-diagonal runs from `lo = 0`
/// to `hi = d`: `d − 1` interior cells, so the masked part of the last
/// chunk covers the `j = 0` boundary cell. That cell is alive here
/// (`−d ≥ −X`); had the masked store clobbered it, the live width
/// would come out one short.
#[test]
fn boundary_cells_survive_the_masked_store() {
    let mut rng = StdRng::seed_from_u64(1202);
    let unit = Scoring::default();
    let x = SIMD8_MAX_SCORE - 1;
    let q = random_dna(50, AC, &mut rng);
    let t = random_dna(50, GT, &mut rng);
    for steps in [i16_steps(&q, &t, unit, x), i8_steps(&q, &t, unit, x)] {
        for (k, s) in steps.iter().take(50).enumerate() {
            let d = k + 1;
            assert_eq!((s.width, s.live_width), (d + 1, d + 1), "d = {d}");
        }
    }
    all_paths_agree(&q, &t, unit, x);
}

/// Flanks shorter than one chunk on either side, so the masked lanes
/// load the padding behind the sequences — DNA, and BLOSUM62 where they
/// also gather from the profile's padding rows.
#[test]
fn flanks_shorter_than_a_chunk() {
    let mut rng = StdRng::seed_from_u64(1203);
    let p62 = ScoreProfile::blosum62(-6);
    for m in [1usize, 2, 5, 15, 16, 31] {
        for n in [1usize, 3, 15, 33, 70] {
            let q = random_dna(m, ACGT, &mut rng);
            let t = random_dna(n, ACGT, &mut rng);
            for x in [0, 3, 20, 62, 300] {
                all_paths_agree(&q, &t, Scoring::default(), x);
                all_paths_agree(&t, &q, Scoring::new(2, -3, -2), x);
            }
            let pq = random_protein(m, &mut rng);
            let pt = if n % 2 == 0 {
                random_protein(n, &mut rng)
            } else {
                mutate(&random_protein(n.max(m), &mut rng), 0.3, &mut rng)
            };
            // 52 is the last i8-eligible X under BLOSUM62.
            for x in [0, 10, 52, 53, 400] {
                all_paths_agree(&pq, &pt, p62, x);
                all_paths_agree(&pt, &pq, p62, x);
            }
        }
    }
}

/// The case that makes the mask mandatory: when anti-diagonal `d − 1`
/// is trimmed by two or more cells at its high end, the first masked
/// lane of anti-diagonal `d` reads a diagonal parent that is still
/// inside `d − 2`'s live window. Seeded noisy pairs at small X hit it
/// constantly; the per-step statistics prove they did.
#[test]
fn masked_lanes_over_live_parents() {
    let pairs = PairSet::generate_with_lengths(12, 0.15, 150, 400, 1204).pairs;
    let scoring = Scoring::default();
    let exposed = |steps: &[DiagStats]| steps.windows(2).filter(|w| w[0].trim_back >= 2).count();
    let (mut hits16, mut hits8) = (0, 0);
    for p in &pairs {
        for x in [3, 6, 12] {
            hits16 += exposed(&i16_steps(&p.query, &p.target, scoring, x));
            hits8 += exposed(&i8_steps(&p.query, &p.target, scoring, x));
            all_paths_agree(&p.query, &p.target, scoring, x);
        }
    }
    assert!(hits16 > 0, "no i16 step ran under a high-end trim of >= 2");
    assert!(hits8 > 0, "no i8 step ran under a high-end trim of >= 2");
}

/// An i8 run that escalates while its band is narrower than either
/// chunk: the i16 stepper takes over rows that are a single, mostly
/// masked chunk, over buffers widened from the i8 scratch.
#[test]
fn escalation_onto_a_sub_chunk_band() {
    let q: Seq = (0..300)
        .map(|i| logan::seq::Base::from_code((i % 4) as u8))
        .collect();
    let p62 = ScoreProfile::blosum62(-6);
    let mut rng = StdRng::seed_from_u64(1205);
    let prot = random_protein(120, &mut rng);
    let cases: [(&Seq, ScoreProfile, i32); 2] =
        [(&q, Scoring::default().into(), 4), (&prot, p62, 12)];
    for (s, profile, x) in cases {
        let want = all_paths_agree(s, s, profile, x);
        assert!(
            want.max_width < 16,
            "band {} is not sub-chunk",
            want.max_width
        );
        let mut ws = AlignWorkspace::new();
        assert_eq!(Engine::I8.extend_with(s, s, profile, x, &mut ws), want);
        assert_eq!((ws.tally.lanes8, ws.tally.escalations), (1, 1));
    }
}

// ---------------------------------------------------------------------
// Band shapes of the lean step: anti-diagonals indexed by absolute query
// position in buffers that are never cleared, boundary cells computed by
// the general recurrence, and windows of at most one chunk stepped
// without the row machinery. Each case collects every engine's
// per-step statistics through its sink and checks them against each
// other and the result, on top of every engine agreeing with scalar.
// ---------------------------------------------------------------------

/// [`all_paths_agree`], plus every engine's steps through its sink in
/// both compilations: the same anti-diagonals whichever tier computes
/// them — across an i8 → i16 hand-over too — adding up to the result.
/// Returns them.
fn shapes_agree(
    q: &Seq,
    t: &Seq,
    profile: impl Into<ScoreProfile> + Copy,
    x: i32,
) -> Vec<DiagStats> {
    assert!(simd_eligible(q, t, profile, x), "i16-eligible");
    let want = all_paths_agree(q, t, profile, x);
    let (steps, r, _) = steps_of(Engine::Scalar, q, t, profile, x);
    assert_eq!(r, want);
    for engine in [Engine::Simd, Engine::I8, Engine::Adaptive] {
        let (tier_steps, r, _) = steps_of(engine, q, t, profile, x);
        assert_eq!(r, want, "{engine} (x = {x})");
        assert_eq!(tier_steps, steps, "{engine} walked another band (x = {x})");
    }
    steps
}

/// One extension whose window grows past a chunk and shrinks back
/// below it, one cell a step: with nothing matching and unit costs,
/// anti-diagonal `d` keeps the cells with `max(i, d − i) ≤ X` — `d + 1`
/// of them up to `d = X`, `2X − d + 1` after. The step therefore
/// switches from the single chunk to the row of chunks and back, at
/// widths L − 1, L, L + 1 in both directions.
#[test]
fn window_crosses_the_one_chunk_switch_both_ways() {
    let mut rng = StdRng::seed_from_u64(1301);
    let unit = Scoring::default();
    for (lanes, x) in [(16usize, 20), (32, 40)] {
        let q = random_dna(x as usize + 30, AC, &mut rng);
        let t = random_dna(x as usize + 25, GT, &mut rng);
        let widths: Vec<usize> = shapes_agree(&q, &t, unit, x)
            .iter()
            .map(|s| s.width)
            .collect();
        for pair in [[lanes - 1, lanes], [lanes, lanes + 1]] {
            let up = widths.windows(2).any(|w| w == pair);
            let down = widths
                .windows(2)
                .any(|w| w[0] == pair[1] && w[1] == pair[0]);
            assert!(
                up && down,
                "widths {pair:?} not crossed both ways (x = {x})"
            );
        }
        shapes_agree(&t, &q, unit, x);
    }
}

/// Both boundary cells (`i = 0` and `j = 0`) alive on the same
/// anti-diagonal, for more than a chunk of steps — a perfect pair keeps
/// cell `(0, d)` at `−d` above `d/2 − X` while `1.5 d ≤ X` — and then
/// neither, for the rest of the extension. They come out of the same
/// recurrence as every other cell: the window's statistics must say
/// `lo = 0, hi = d`, all alive.
#[test]
fn both_boundary_cells_alive_then_neither() {
    let q: Seq = (0..200)
        .map(|i| logan::seq::Base::from_code((i * 7 % 4) as u8))
        .collect();
    for (lanes, x) in [(16usize, 30), (32, 54)] {
        let steps = shapes_agree(&q, &q, Scoring::default(), x);
        for (k, s) in steps.iter().take(lanes + 2).enumerate() {
            let d = k + 1;
            assert_eq!((s.width, s.live_width), (d + 1, d + 1), "d = {d}, x = {x}");
        }
        // Long after, the band is strictly inside the matrix.
        let late = &steps[150];
        assert!(late.width < 100, "band did not leave the boundaries");
    }
    // The same under BLOSUM62, where the i = 0 cell reads the pad row
    // in front of the query profile.
    let mut rng = StdRng::seed_from_u64(1302);
    let p = random_protein(120, &mut rng);
    let steps = shapes_agree(&p, &p, ScoreProfile::blosum62(-6), 52);
    assert!(steps
        .iter()
        .take(5)
        .enumerate()
        .all(|(k, s)| s.width == k + 2));
    shapes_agree(
        &p,
        &mutate(&p, 0.3, &mut rng),
        ScoreProfile::blosum62(-6),
        300,
    );
}

/// The smallest matrices, and bands that run along a matrix edge: one
/// sequence exhausted long before the other, so the window's low end
/// is clamped (`lo = d − n`) and moves every step.
#[test]
fn degenerate_and_edge_hugging_pairs() {
    let mut rng = StdRng::seed_from_u64(1303);
    let one = random_dna(1, ACGT, &mut rng);
    let long = random_dna(90, ACGT, &mut rng);
    for x in [0, 1, 7, 40, 200] {
        shapes_agree(&one, &one, Scoring::default(), x);
        shapes_agree(&one, &long, Scoring::default(), x);
        shapes_agree(&long, &one, Scoring::default(), x);
        // A perfect prefix against the whole: the band reaches the
        // short sequence's end and slides along it.
        let prefix: Seq = long.as_slice()[..25]
            .iter()
            .map(|&c| logan::seq::Base::from_code(c))
            .collect();
        shapes_agree(&prefix, &long, Scoring::default(), x);
        shapes_agree(&long, &prefix, Scoring::default(), x);
    }
    // Both flanks empty: the seed is the whole pair, no kernel runs.
    let seed = Seed {
        qpos: 0,
        tpos: 0,
        len: long.len(),
    };
    for engine in [Engine::Scalar, Engine::Simd, Engine::I8, Engine::Adaptive] {
        let ext = XDropExtender::with_engine(Scoring::default(), 20, engine);
        let mut ws = AlignWorkspace::new();
        let r = seed_extend_with(&long, &long, seed, &ext, &mut ws);
        assert_eq!((r.score, r.cells()), (long.len() as i32, 0), "{engine}");
        assert_eq!(ws.tally.total(), 0, "{engine} ran a kernel on empty flanks");
    }
}

/// The stale-cell case of absolute indexing: the band's top collapses —
/// by two cells, by more than a chunk — and the band then grows back
/// over positions whose buffers still hold the live values of three
/// anti-diagonals ago. Nothing matches except one planted pair of
/// symbols worth a large score: the step after it raises the threshold
/// past every other cell at once.
#[test]
fn band_top_collapses_and_regrows() {
    let mut rng = StdRng::seed_from_u64(1304);
    // (match score, X, planted query position): the first is
    // i16-only and collapses by more than a chunk; the second fits the
    // i8 window, whose 63-point range cannot hold so steep a collapse.
    for (mat, x, plant, collapse) in [(100, 40, 3usize, 16usize), (31, 31, 11, 8)] {
        let scoring = Scoring::new(mat, -1, -1);
        // A query over {A, C} against a target of G's, except for one
        // T in each, which meet at cell (plant, tpos) while it is alive.
        let tpos = if mat == 100 { 38 } else { 11 };
        let mut q = random_dna(120, AC, &mut rng).as_slice().to_vec();
        let mut t = vec![2u8; 110];
        (q[plant - 1], t[tpos - 1]) = (3, 3);
        let [q, t] = [q, t]
            .map(|codes| -> Seq { codes.into_iter().map(logan::seq::Base::from_code).collect() });
        let steps = shapes_agree(&q, &t, scoring, x);
        let fell = steps
            .iter()
            .position(|s| s.trim_back >= collapse)
            .unwrap_or_else(|| panic!("no collapse by >= {collapse} (mat = {mat})"));
        assert!(steps.iter().any(|s| s.trim_back >= 2));
        let narrow = steps[fell].live_width;
        assert!(
            steps[fell..]
                .iter()
                .any(|s| s.live_width >= narrow + collapse),
            "band did not grow back (mat = {mat})"
        );
        shapes_agree(&t, &q, scoring, x);
    }
}

// ---------------------------------------------------------------------
// Structured oracle inputs (ROADMAP item 6(a)): what random pairs miss.
// Every case goes through `all_tiers_agree` — scalar against each engine
// in both compilations of its kernel — usually by way of `shapes_agree`,
// which adds the simulated GPU's block path and every engine's steps.
// ---------------------------------------------------------------------

fn dna(s: &str) -> Seq {
    Seq::from_str_strict(s).expect("valid DNA")
}

/// Homopolymer runs: every cell of the band ties with its neighbours,
/// so the earliest-`i` tie-break and the trims decide everything; runs
/// of unequal length and a run-length shift around one foreign base add
/// the gapped variants.
#[test]
fn homopolymer_runs() {
    let run = |base: char, n: usize| dna(&base.to_string().repeat(n));
    let shifted = |a: usize, b: usize| dna(&format!("{}C{}", "A".repeat(a), "A".repeat(b)));
    let cases = [
        (run('A', 50), run('A', 50)),
        (run('A', 50), run('A', 37)),
        (run('A', 33), run('T', 33)),
        (shifted(20, 20), shifted(25, 15)),
        (shifted(31, 40), run('A', 72)),
    ];
    for (q, t) in &cases {
        for x in [0, 1, 5, 15, 31, 62, 200] {
            shapes_agree(q, t, Scoring::default(), x);
            shapes_agree(t, q, Scoring::new(2, -3, -2), x);
        }
    }
    // A perfect homopolymer pair reaches the corner whatever the ties.
    let r = all_tiers_agree(&cases[0].0, &cases[0].1, Scoring::default(), 5);
    assert_eq!((r.score, r.query_end, r.target_end), (50, 50, 50));
}

/// All-`N` pairs. The DNA alphabet has no `N` — the parser rejects it,
/// so no kernel ever sees one — which leaves the protein alphabet's
/// poly-asparagine: a homopolymer under BLOSUM62 (`N`/`N` scores 6),
/// against itself, a shorter run and a run of a residue it scores
/// negatively with.
#[test]
fn all_n_pairs() {
    assert!(Seq::from_ascii(b"NNNNNNNN").is_err());
    let poly = |residue: u8, n: usize| {
        Seq::from_protein_ascii(&vec![residue; n]).expect("a valid residue")
    };
    let p62 = ScoreProfile::blosum62(-6);
    for n in [1usize, 15, 16, 17, 40, 90] {
        let q = poly(b'N', n);
        for t in [poly(b'N', n), poly(b'N', n / 2 + 1), poly(b'W', n)] {
            // 52 is the last i8-eligible X under BLOSUM62.
            for x in [0, 6, 12, 52, 53, 400] {
                shapes_agree(&q, &t, p62, x);
                shapes_agree(&t, &q, p62, x);
            }
        }
    }
    let n40 = poly(b'N', 40);
    assert_eq!(all_tiers_agree(&n40, &n40, p62, 20).score, 240);
}

/// Seeds at offset 0 and at `len − k`, on one sequence or both: the
/// flank on that side is empty, no kernel runs for it (pinned through
/// the tally), and the other flank is an ordinary extension — checked
/// per engine through `seed_extend_with` and per compilation on the
/// flanks themselves.
#[test]
fn seeds_at_offset_zero_and_at_the_last_kmer() {
    let k = 17;
    let p = &PairSet::generate_with_lengths(1, 0.1, 400, 400, 1401).pairs[0];
    // A read and a noisy copy of it cut to the same length, with the
    // read's k-mer at `qpos` planted at `tpos` of the copy.
    let read = &p.query;
    let len = read.len();
    let last = len - k;
    let planted = |qpos: usize, tpos: usize| -> Seq {
        let mut codes = p.target.as_slice().to_vec();
        codes.resize(len, 0);
        codes[tpos..tpos + k].copy_from_slice(&read.as_slice()[qpos..qpos + k]);
        codes.into_iter().map(logan::seq::Base::from_code).collect()
    };
    // (qpos, tpos): both at the start, both on the last k-mer, and the
    // mixed cases where only one sequence has an empty flank.
    for (qpos, tpos) in [
        (0, 0),
        (last, last),
        (0, 40),
        (40, 0),
        (last, 60),
        (60, last),
    ] {
        let target = planted(qpos, tpos);
        let seed = Seed { qpos, tpos, len: k };
        let empty_sides =
            usize::from(qpos == 0 || tpos == 0) + usize::from(qpos == last || tpos == last);
        let want = seed_extend(
            read,
            &target,
            seed,
            &XDropExtender::with_engine(Scoring::default(), 30, Engine::Scalar),
        );
        for engine in [Engine::Simd, Engine::I8, Engine::Adaptive] {
            let ext = XDropExtender::with_engine(Scoring::default(), 30, engine);
            let mut ws = AlignWorkspace::new();
            assert_eq!(
                seed_extend_with(read, &target, seed, &ext, &mut ws),
                want,
                "{engine}, seed at ({qpos}, {tpos})"
            );
            assert_eq!(
                ws.tally.total() as usize,
                2 - empty_sides,
                "{engine} ran a kernel on an empty flank, seed at ({qpos}, {tpos})"
            );
        }
        // The flanks themselves, through both compilations.
        let left = all_tiers_agree(
            &read.subseq(0, qpos).reversed(),
            &target.subseq(0, tpos).reversed(),
            Scoring::default(),
            30,
        );
        let right = all_tiers_agree(
            &read.subseq(qpos + k, len),
            &target.subseq(tpos + k, len),
            Scoring::default(),
            30,
        );
        assert_eq!((left, right), (want.left, want.right));
    }
}

/// X = 0 (the first anti-diagonal that does not raise the best ends the
/// extension) and X at and past the full score, where nothing is ever
/// pruned and the band is the whole matrix.
#[test]
fn x_zero_and_x_past_the_full_score() {
    let mut rng = StdRng::seed_from_u64(1402);
    let unit = Scoring::default();
    let q = random_dna(14, ACGT, &mut rng);
    let t = random_dna(11, ACGT, &mut rng);
    for (a, b) in [(&q, &t), (&t, &q), (&q, &q)] {
        let zero = shapes_agree(a, b, unit, 0);
        assert!(zero.len() <= 2 * a.len().min(b.len()));
        // No cell scores below −(m + n) and the best is at most
        // min(m, n): from X = m + n + min(m, n) on, X-drop prunes
        // nothing. 36 + 1 is still inside the i8 window.
        let full = (a.len() + b.len() + a.len().min(b.len())) as i32;
        for x in [full, full + 1, SIMD8_MAX_SCORE - 1, 5_000] {
            let r = all_paths_agree(a, b, unit, x);
            assert_eq!(
                r.cells as usize,
                (a.len() + 1) * (b.len() + 1) - 1,
                "x = {x} must fill the matrix"
            );
            assert!(!r.dropped);
            shapes_agree(a, b, unit, x);
        }
    }
    // X exactly the full score of a perfect pair, one below, one above.
    let s = random_dna(40, ACGT, &mut rng);
    for x in [39, 40, 41] {
        assert_eq!(shapes_agree(&s, &s, unit, x).len(), 80);
    }
}

/// Best scores exactly on the tiers' ceilings. A perfect pair of `n`
/// symbols scores `n · match` on its last anti-diagonal, `2n`; the i8
/// stepper hands over before the first step that could pass
/// [`SIMD8_MAX_SCORE`], that is once the best exceeds
/// `SIMD8_MAX_SCORE − match`. So a pair ending one match short of the
/// ceiling must finish in i8, a pair ending *on* it must hand over —
/// with nothing left to compute — and both compilations must agree on
/// which, or their hand-overs sit on different anti-diagonals.
#[test]
fn best_scores_on_the_tier_ceilings() {
    let perfect = |n: usize| -> Seq {
        (0..n)
            .map(|i| logan::seq::Base::from_code((i * 5 % 4) as u8))
            .collect()
    };
    let ceiling = SIMD8_MAX_SCORE as usize;
    for (mat, x) in [(1, 20), (3, 20), (7, 20)] {
        let scoring = Scoring::new(mat, -mat, -mat);
        let per_match = mat as usize;
        // `on`: the length whose full score is the last multiple of
        // `match` at or below the ceiling; `hand_over_at`: the first
        // length whose full score exceeds `ceiling − match`.
        let on = ceiling / per_match;
        let hand_over_at = (ceiling - per_match) / per_match + 1;
        for n in [on - 1, on, on + 1] {
            let s = perfect(n);
            let want = all_paths_agree(&s, &s, scoring, x);
            assert_eq!(want.score, n as i32 * mat);
            let (_, tally) = both_compilations(Engine::I8, &s, &s, scoring, x);
            let escalates = n >= hand_over_at;
            assert_eq!(
                (tally.lanes8, tally.escalations),
                (1, u64::from(escalates)),
                "match = {mat}, n = {n}: full score {} vs ceiling {ceiling}",
                want.score
            );
        }
        // On the ceiling mid-extension: the run continues in i16 through
        // a tail that drops.
        let mut codes = perfect(on).as_slice().to_vec();
        let mut other = codes.clone();
        codes.extend(std::iter::repeat_n(0, 60));
        other.extend(std::iter::repeat_n(3, 60));
        let [q, t] = [codes, other]
            .map(|c| -> Seq { c.into_iter().map(logan::seq::Base::from_code).collect() });
        let r = all_paths_agree(&q, &t, scoring, x);
        assert_eq!(r.score, on as i32 * mat);
        assert!(r.dropped);
    }
    // The i16 ceiling: a full score of exactly i16::MAX is exact in
    // both compilations (32 767 = 7 · 4 681); one symbol more is outside
    // the window and every SIMD engine falls back to scalar.
    for (mat, n) in [(1, SIMD_MAX_SCORE as usize), (7, 4_681)] {
        let scoring = Scoring::new(mat, -mat, -mat);
        let s = perfect(n);
        assert!(simd_eligible(&s, &s, scoring, 20));
        let r = all_tiers_agree(&s, &s, scoring, 20);
        assert_eq!((r.score, r.dropped), (SIMD_MAX_SCORE, false));
        assert_eq!(
            both_compilations(Engine::Simd, &s, &s, scoring, 20)
                .1
                .lanes16,
            1
        );
        let over = perfect(n + 1);
        assert!(!simd_eligible(&over, &over, scoring, 20));
        all_tiers_agree(&over, &over, scoring, 20);
        assert_eq!(
            both_compilations(Engine::Simd, &over, &over, scoring, 20)
                .1
                .scalar,
            1
        );
    }
}

/// Bands of L − 1, L and L + 1 cells on the step right after a trim,
/// for both chunk widths: the window moved *and* sits on the one-chunk
/// switch, so the lane mask, the rounded-up store and the re-sentinelled
/// neighbours all change at once. Noisy pairs at the X values that put
/// the band near a chunk produce them constantly; the per-step
/// statistics prove they did.
#[test]
fn chunk_wide_bands_right_after_a_trim() {
    let scoring = Scoring::new(1, -1, -1);
    let after_trim = |steps: &[DiagStats], width: usize| {
        steps
            .windows(2)
            .filter(|p| p[0].trim_front + p[0].trim_back > 0 && p[1].width == width)
            .count()
    };
    for (lanes, xs) in [(16usize, [8, 9, 10]), (32, [20, 22, 24])] {
        // At 30 % error under (1, −1, −1) the best grows slowly, so the
        // i8 stepper walks hundreds of anti-diagonals before it
        // escalates.
        let pairs = PairSet::generate_with_lengths(6, 0.30, 300, 500, 1403 + lanes as u64).pairs;
        let mut hits = [[0usize; 3]; 2];
        for p in &pairs {
            for x in xs {
                let steps16 = shapes_agree(&p.query, &p.target, scoring, x);
                let steps8 = i8_steps(&p.query, &p.target, scoring, x);
                for (k, width) in [lanes - 1, lanes, lanes + 1].into_iter().enumerate() {
                    hits[0][k] += after_trim(&steps16, width);
                    hits[1][k] += after_trim(&steps8, width);
                }
            }
        }
        assert!(
            hits.iter().flatten().all(|&n| n > 0),
            "L = {lanes}: widths L − 1, L, L + 1 after a trim seen [i16, i8] = {hits:?}"
        );
    }
}
