//! Differential test harness pinning the lane-parallel i16 kernel
//! (`Engine::Simd`) bit-for-bit to the scalar ground truth
//! (`Engine::Scalar`), and both to the simulated GPU kernel — random
//! sequences, random scorings, random X values, plus the executor-level
//! engine comparisons folded in from `tests/equivalence.rs`.
//!
//! This suite is the premerge gate's "differential" step: any change to
//! any engine that shifts a single score, end position or cell count
//! fails here first.
//!
//! The i16 kernel is one source compiled twice (portable vectors and
//! AVX2, picked per CPU; DESIGN.md §14): every host-engine comparison
//! below runs it through the dispatched entry point *and* the portable
//! body ([`simd_both`]), on the same workspace where one is reused.

use logan::prelude::*;
use logan_align::simd::{extend_portable, kernel_isa, SIMD_MAX_X};
use logan_align::xdrop_extend;
use logan_core::kernel::{logan_block_extend, KernelPolicy};
use logan_gpusim::BlockCtx;
use proptest::prelude::*;

fn arb_seq(max_len: usize) -> impl Strategy<Value = Seq> {
    proptest::collection::vec(0u8..4, 0..max_len)
        .prop_map(|codes| codes.into_iter().map(logan::seq::Base::from_code).collect())
}

/// `Engine::Simd` through both compilations of its kernel on one
/// workspace — the dispatched entry point, then the portable body —
/// asserted equal (on a CPU without AVX2: portable twice).
fn simd_both(
    q: &Seq,
    t: &Seq,
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
) -> ExtensionResult {
    let dispatched = Engine::Simd.extend_with(q, t, scoring, x, ws);
    assert_eq!(
        extend_portable(Engine::Simd, q, t, scoring, x, ws, &mut ()),
        dispatched,
        "the portable and {} compilations disagree (x = {x})",
        kernel_isa()
    );
    dispatched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Workspace-reuse property (DESIGN.md §7): one `AlignWorkspace`
    /// run over a whole sequence of differently-shaped pairs must be
    /// bit-identical to fresh-workspace runs — no state may leak from
    /// one extension into the next, under either engine, even when the
    /// engines are interleaved on the same workspace.
    #[test]
    fn workspace_reuse_matches_fresh_runs(
        pairs in proptest::collection::vec(
            (arb_seq(180), arb_seq(180), 0i32..250), 1..8),
    ) {
        let scoring = Scoring::default();
        let mut ws = AlignWorkspace::new();
        for (q, t, x) in &pairs {
            let fresh = Engine::Scalar.extend(q, t, scoring, *x);
            prop_assert_eq!(xdrop_extend_with(q, t, scoring, *x, &mut ws), fresh);
            prop_assert_eq!(simd_both(q, t, scoring, *x, &mut ws), fresh);
        }
    }

    /// The headline property: for any pair, scoring scheme and X, the
    /// SIMD engine's `ExtensionResult` is bit-equal to the scalar
    /// engine's — scores, end positions, cell counts, iteration counts,
    /// band widths and the dropped flag.
    #[test]
    fn simd_is_bit_equal_to_scalar(
        q in arb_seq(220),
        t in arb_seq(220),
        x in 0i32..400,
        mat in 1i32..5,
        mis in -5i32..0,
        gap in -5i32..0,
    ) {
        let scoring = Scoring::new(mat, mis, gap);
        prop_assert_eq!(
            simd_both(&q, &t, scoring, x, &mut AlignWorkspace::new()),
            Engine::Scalar.extend(&q, &t, scoring, x)
        );
    }

    /// X values straddling the i16 eligibility boundary: the SIMD
    /// engine must fall back to scalar exactly where required, and the
    /// result must not depend on which side of the boundary it lands.
    #[test]
    fn simd_matches_scalar_across_the_eligibility_boundary(
        q in arb_seq(120),
        t in arb_seq(120),
        dx in 0i32..6,
    ) {
        let scoring = Scoring::default();
        // Walk X across the boundary (x + match <= SIMD_MAX_X).
        let x = SIMD_MAX_X - 3 + dx;
        let simd = simd_both(&q, &t, scoring, x, &mut AlignWorkspace::new());
        let scalar = Engine::Scalar.extend(&q, &t, scoring, x);
        prop_assert_eq!(simd, scalar);
    }

    /// Three-way agreement with the simulated GPU kernel: the scalar
    /// block path, the SIMD block path and the scalar reference all
    /// produce the same result for arbitrary inputs and thread counts
    /// (folds the scalar-vs-gpusim property in with the new engine).
    #[test]
    fn gpusim_block_paths_agree_with_reference(
        q in arb_seq(160),
        t in arb_seq(160),
        x in 0i32..200,
        threads_pow in 0u32..6,
    ) {
        let threads = 32usize << threads_pow;
        let scoring = Scoring::default();
        let policy = KernelPolicy::new(threads);
        let mut c_scalar = BlockCtx::new(threads, 32, 96 * 1024);
        let mut ws = AlignWorkspace::new();
        let gpu_scalar = logan_block_extend(&mut c_scalar, &q, &t, scoring, x, &policy, &mut ws);
        let mut c_simd = BlockCtx::new(threads, 32, 96 * 1024);
        let simd_policy = KernelPolicy { engine: Engine::Simd, ..policy };
        let gpu_simd = logan_block_extend(&mut c_simd, &q, &t, scoring, x, &simd_policy, &mut ws);
        let reference = xdrop_extend(&q, &t, scoring, x);
        prop_assert_eq!(gpu_scalar, reference);
        prop_assert_eq!(gpu_simd, reference);
        // The SIMT cost model must not notice the engine either.
        prop_assert_eq!(c_simd.counters, c_scalar.counters);
    }
}

/// Executor-level differential run: whole batches through the simulated
/// device with each engine — results, simulated time and cell counts
/// must be indistinguishable, and both must equal the CPU seed-extend
/// reference (the `tests/equivalence.rs` three-way check, per engine).
#[test]
fn executor_engines_are_indistinguishable() {
    let pairs = PairSet::generate_with_lengths(24, 0.15, 600, 1200, 6).pairs;
    for x in [10, 100] {
        let mut cfg = LoganConfig::with_x(x);
        cfg.engine = Engine::Scalar;
        let (r_scalar, rep_scalar) =
            LoganExecutor::new(DeviceSpec::v100(), cfg).align_pairs(&pairs);
        cfg.engine = Engine::Simd;
        let (r_simd, rep_simd) = LoganExecutor::new(DeviceSpec::v100(), cfg).align_pairs(&pairs);
        assert_eq!(r_scalar, r_simd, "x {x}");
        assert_eq!(rep_scalar.sim_time_s, rep_simd.sim_time_s, "x {x}");
        assert_eq!(rep_scalar.total_cells, rep_simd.total_cells, "x {x}");

        let ext = XDropExtender::with_engine(Scoring::default(), x, Engine::Simd);
        for (i, p) in pairs.iter().enumerate() {
            let reference = seed_extend(&p.query, &p.target, p.seed, &ext);
            assert_eq!(
                r_simd[i], reference,
                "executor vs reference, pair {i}, x {x}"
            );
        }
    }
}

/// The CPU batch aligner with each engine, across thread counts.
#[test]
fn cpu_batch_engines_agree() {
    let pairs = PairSet::generate_with_lengths(10, 0.15, 500, 900, 7).pairs;
    let aligner = CpuBatchAligner::new(4);
    for x in [20, 150] {
        let run = |engine| {
            aligner.run(
                &pairs,
                &XDropExtender::with_engine(Scoring::default(), x, engine),
            )
        };
        let scalar = run(Engine::Scalar);
        let simd = run(Engine::Simd);
        assert_eq!(scalar.results, simd.results, "x {x}");
        assert_eq!(scalar.total_cells, simd.total_cells, "x {x}");
    }
}

/// Directed workspace-reuse shapes: a deliberately adversarial sequence
/// of calls through ONE workspace — large band, then tiny, then empty,
/// then dropping, then the i16-eligibility boundary (engine fallback),
/// then large again — each compared against a fresh-workspace run.
/// Catches stale-buffer leaks that random shapes may miss (e.g. a small
/// extension reading a big predecessor's cells).
#[test]
fn workspace_reuse_survives_adversarial_shape_sequence() {
    use logan::seq::readsim::random_seq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(21);
    let model = ErrorModel::new(ErrorProfile::pacbio(0.15));
    let big_template = random_seq(900, &mut rng);
    let (big_a, _) = model.corrupt(&big_template, &mut rng);
    let (big_b, _) = model.corrupt(&big_template, &mut rng);
    let tiny = random_seq(3, &mut rng);
    let divergent_a = random_seq(300, &mut rng);
    let divergent_b = random_seq(300, &mut rng);

    let unit = Scoring::default();
    let blast = Scoring::new(1, -2, -2);
    let cases: Vec<(&Seq, &Seq, Scoring, i32)> = vec![
        (&big_a, &big_b, unit, 400),             // wide band
        (&tiny, &tiny, unit, 5),                 // tiny after wide
        (&big_a, &tiny, unit, 10),               // asymmetric
        (&divergent_a, &divergent_b, blast, 15), // drops early
        (&big_a, &big_b, unit, SIMD_MAX_X - 1),  // largest i16 X
        (&big_a, &big_b, unit, SIMD_MAX_X),      // scalar fallback
        (&big_a, &big_b, blast, 100),            // big again
    ];

    let mut ws = AlignWorkspace::new();
    for (k, (q, t, scoring, x)) in cases.iter().enumerate() {
        let fresh = Engine::Scalar.extend(q, t, *scoring, *x);
        assert_eq!(
            xdrop_extend_with(q, t, *scoring, *x, &mut ws),
            fresh,
            "scalar reuse, case {k}"
        );
        assert_eq!(
            simd_both(q, t, *scoring, *x, &mut ws),
            fresh,
            "simd reuse, case {k}"
        );
    }
    // Empty inputs mid-sequence must not disturb the workspace either.
    let empty = Seq::new();
    assert_eq!(
        Engine::Simd.extend_with(&empty, &big_a, unit, 10, &mut ws),
        ExtensionResult::zero()
    );
    let fresh = Engine::Scalar.extend(&big_a, &big_b, unit, 200);
    assert_eq!(xdrop_extend_with(&big_a, &big_b, unit, 200, &mut ws), fresh);
}

/// Whole seed-extends through one reused workspace, against the
/// allocating wrapper — covers the reversed-prefix / suffix sequence
/// scratch on top of the DP rings.
#[test]
fn seed_extend_workspace_reuse_is_bit_identical() {
    let pairs = PairSet::generate_with_lengths(12, 0.15, 200, 1100, 9).pairs;
    for engine in [Engine::Scalar, Engine::Simd] {
        let ext = XDropExtender::with_engine(Scoring::default(), 80, engine);
        let mut ws = AlignWorkspace::new();
        for p in &pairs {
            let fresh = seed_extend(&p.query, &p.target, p.seed, &ext);
            assert_eq!(
                seed_extend_with(&p.query, &p.target, p.seed, &ext, &mut ws),
                fresh,
                "engine {engine}"
            );
        }
    }
}

/// BLAST-like scoring on divergent pairs exercises the drop path under
/// both engines (unit scoring drifts upward on random pairs and never
/// drops — see the repeat-trap test in `logan-align`).
#[test]
fn divergent_pairs_drop_identically() {
    use logan::seq::readsim::random_seq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(8);
    let scoring = Scoring::new(1, -2, -2);
    for _ in 0..20 {
        let a = random_seq(400, &mut rng);
        let b = random_seq(450, &mut rng);
        for x in [0, 5, 30] {
            let scalar = Engine::Scalar.extend(&a, &b, scoring, x);
            let simd = simd_both(&a, &b, scoring, x, &mut AlignWorkspace::new());
            assert_eq!(scalar, simd);
            assert!(simd.dropped, "x {x} should drop on divergent input");
        }
    }
}
