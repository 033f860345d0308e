//! The LOGAN X-drop GPU kernel (paper §IV-A, Algorithms 1–2).
//!
//! One block per alignment (inter-sequence parallelism); inside a block,
//! each anti-diagonal is computed by a grid-stride loop whose segments
//! are as wide as the block (intra-sequence parallelism, Fig. 3); the
//! anti-diagonal maximum is found with an in-warp shuffle reduction; the
//! bounds update runs on thread 0. Only three anti-diagonals are live,
//! stored in HBM (or in shared memory under the §IV-B ablation).
//!
//! The kernel's *results* are computed exactly — cell by cell, with the
//! same recurrence, pruning, trimming, tie-breaks and termination as the
//! scalar reference [`logan_align::xdrop_extend`]; the property tests in
//! this module assert bit-equality. Its *costs* are accounted through
//! [`BlockCtx`] and the constants in [`crate::calibration`].

use crate::calibration::*;
use logan_align::simd::{simd_eligible, SimdState, SimdStep};
use logan_align::workspace::{with_thread_workspace, ScalarRings};
use logan_align::{AlignWorkspace, Engine, ExtensionResult, NEG_INF};
use logan_gpusim::{AccessPattern, BlockCtx, BlockKernel};
use logan_seq::{ScoreProfile, Seq};

/// One extension problem: align a prefix of `query` against a prefix of
/// `target` (both already oriented by the host — left extensions arrive
/// reversed).
#[derive(Debug, Clone)]
pub struct ExtensionJob {
    /// Query sequence (vertical axis).
    pub query: Seq,
    /// Target sequence (horizontal axis).
    pub target: Seq,
}

/// Per-launch execution policy resolved by the host executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPolicy {
    /// Threads per block (the executor sets this ∝ X, §IV-B).
    pub threads: usize,
    /// Whether the host reversed the target's memory layout so both
    /// sequences stream forward (Fig. 6). Off = strided ablation.
    pub reversed_layout: bool,
    /// Keep the three anti-diagonals in shared memory instead of HBM
    /// (the §IV-B ablation that caps SM residency).
    pub antidiag_in_shared: bool,
    /// Fraction of streaming anti-diagonal/character traffic charged to
    /// HBM (the remainder hits L2); the executor derives it from the
    /// estimated hot working set across resident blocks.
    pub hbm_charge_fraction: f64,
    /// Which host engine computes the block's results. Results and
    /// accounted costs are identical across every engine (asserted by
    /// the engine-equivalence tests); the choice only changes how fast
    /// the simulation itself runs on the host. The SIMD tiers
    /// ([`Engine::Simd`] / [`Engine::I8`] / [`Engine::Adaptive`]) all
    /// drive the same per-anti-diagonal stepper accounting, so the
    /// simulated device sees one int16 kernel regardless of which host
    /// lane width computed it.
    pub engine: Engine,
}

impl KernelPolicy {
    /// Policy with the paper's defaults for a given thread count.
    pub fn new(threads: usize) -> KernelPolicy {
        KernelPolicy {
            threads,
            reversed_layout: true,
            antidiag_in_shared: false,
            hbm_charge_fraction: 0.0,
            engine: Engine::Scalar,
        }
    }
}

/// The kernel: a batch of jobs, one block each.
pub struct LoganKernel<'a> {
    /// The extension problems, indexed by block id.
    pub jobs: &'a [ExtensionJob],
    /// Substitution model with linear gaps: the DNA match/mismatch fast
    /// path or a dense matrix (e.g. BLOSUM62 for translated search).
    pub profile: ScoreProfile,
    /// X-drop threshold.
    pub x: i32,
    /// Execution policy.
    pub policy: KernelPolicy,
}

impl BlockKernel for LoganKernel<'_> {
    type Output = ExtensionResult;

    fn run_block(&self, ctx: &mut BlockCtx, block_id: usize) -> ExtensionResult {
        let job = &self.jobs[block_id];
        // One reused workspace per host worker thread: the simulated
        // device allocates its anti-diagonal buffers once (as the real
        // kernel does in HBM), not once per block. Accounted SIMT costs
        // are independent of the workspace, so this is purely a host
        // wall-clock optimisation.
        with_thread_workspace(|ws| {
            logan_block_extend(
                ctx,
                &job.query,
                &job.target,
                self.profile,
                self.x,
                &self.policy,
                ws,
            )
        })
    }
}

/// Per-block cost constants and one-time charges resolved from the
/// policy — shared by the scalar and SIMD block paths so the two
/// engines account *identical* SIMT costs (asserted by the
/// engine-equivalence tests).
struct BlockCosts {
    instr_per_cell: u32,
    iter_stall: u64,
    char_pattern: AccessPattern,
}

/// Book the kernel prologue: anti-diagonal buffer allocation (shared or
/// HBM), reduction scratch, and the cold sequence load.
fn block_prologue(ctx: &mut BlockCtx, m: usize, n: usize, policy: &KernelPolicy) -> BlockCosts {
    let cap = m.min(n) + 1;
    // Anti-diagonal storage: three buffers of capacity `cap`.
    if policy.antidiag_in_shared {
        ctx.alloc_shared(3 * cap * 4)
            .expect("anti-diagonals exceed shared memory: the shared-memory ablation only supports short reads");
    } else {
        // Cold allocation traffic: the buffers are written once up front.
        ctx.hbm_write(3 * cap as u64 * 4, AccessPattern::Coalesced, 4);
    }
    // Reduction scratch: one (value, index) partial per warp.
    ctx.alloc_shared(ctx.warps() * 8)
        .expect("reduction scratch always fits");
    let char_pattern = if policy.reversed_layout {
        AccessPattern::Coalesced
    } else {
        AccessPattern::Strided
    };
    // Cold sequence load (both sequences stream in once; reuse is L2's
    // job and is charged via hbm_charge_fraction below). The query
    // streams forward; the target's pattern depends on whether the host
    // reversed its layout (Fig. 6) — an un-reversed target is walked
    // backwards along every anti-diagonal and pays per-element sectors.
    ctx.hbm_read(m as u64, AccessPattern::Coalesced, 1);
    ctx.hbm_read(n as u64, char_pattern, 1);
    BlockCosts {
        instr_per_cell: if policy.reversed_layout {
            LOGAN_INSTR_PER_CELL
        } else {
            LOGAN_INSTR_PER_CELL + STRIDED_REPLAY_INSTR
        },
        iter_stall: if policy.antidiag_in_shared {
            ITER_STALL_CYCLES_SHARED
        } else {
            ITER_STALL_CYCLES_HBM
        },
        char_pattern,
    }
}

/// Streaming traffic for one anti-diagonal: two reads + one write of
/// score words, plus one character of each sequence per cell. Only the
/// L2-spilled fraction reaches HBM.
fn charge_streaming(ctx: &mut BlockCtx, policy: &KernelPolicy, width: usize, costs: &BlockCosts) {
    let f = policy.hbm_charge_fraction;
    if !policy.antidiag_in_shared && f > 0.0 {
        let score_read = (2 * width * 4) as f64 * f;
        let score_write = (width * 4) as f64 * f;
        ctx.hbm_read(score_read as u64, AccessPattern::Coalesced, 4);
        ctx.hbm_write(score_write as u64, AccessPattern::Coalesced, 4);
    }
    if f > 0.0 {
        let q_bytes = (width as f64 * f) as u64;
        ctx.hbm_read(q_bytes, AccessPattern::Coalesced, 1);
        ctx.hbm_read(q_bytes, costs.char_pattern, 1);
    }
}

/// Execute one X-drop extension inside a block context, accounting SIMT
/// costs as it goes — the kernel's one entry point. Results equal
/// `logan_align::xdrop_extend` bit for bit and the accounted costs are
/// the same whichever host engine `policy.engine` names (both asserted
/// by the equivalence tests); the engine only decides how the host
/// computes the cell values:
///
/// * [`Engine::Scalar`] mirrors the scalar reference statement for
///   statement (`block_core`);
/// * every SIMD tier drives the lane-parallel i16 stepper of
///   `logan-align` (`block_stepper`) — per-anti-diagonal widths and
///   trim counts are tier-invariant, so narrower host lanes are a
///   CPU-backend concern, not a simulated-kernel one — and falls back to
///   the scalar body outside the i16 exactness window
///   (`logan_align::simd::simd_eligible`).
///
/// All scratch — the three anti-diagonal rings, the stepper's buffers
/// and the per-lane reduction scratch — comes from `ws`, the host
/// mirror of the kernel's preallocated HBM buffers (the executor hands
/// in one per host worker thread); accounted costs do not depend on it.
#[allow(clippy::too_many_arguments)]
pub fn logan_block_extend(
    ctx: &mut BlockCtx,
    query: &Seq,
    target: &Seq,
    profile: impl Into<ScoreProfile>,
    x: i32,
    policy: &KernelPolicy,
    ws: &mut AlignWorkspace,
) -> ExtensionResult {
    let profile = profile.into();
    if policy.engine != Engine::Scalar
        && !query.is_empty()
        && !target.is_empty()
        && simd_eligible(query, target, profile, x)
    {
        return block_stepper(ctx, query, target, profile, x, policy, ws);
    }
    // Dispatch on the substitution model once, outside the cell loop:
    // each arm monomorphizes the block core with an inlined scorer, so
    // the DNA arm compiles to the exact pre-profile loop. (An empty job
    // books nothing and scores zero there.)
    match profile {
        ScoreProfile::MatchMismatch(s) => block_core(
            ctx,
            query,
            target,
            |a, b| s.substitution(a == b),
            s.gap,
            x,
            policy,
            ws,
        ),
        ScoreProfile::Matrix(m) => block_core(
            ctx,
            query,
            target,
            |a, b| m.score(a, b),
            m.gap,
            x,
            policy,
            ws,
        ),
    }
}

/// The scalar block body, generic over the substitution scorer.
#[allow(clippy::too_many_arguments)]
fn block_core(
    ctx: &mut BlockCtx,
    query: &Seq,
    target: &Seq,
    sub: impl Fn(u8, u8) -> i32,
    gap: i32,
    x: i32,
    policy: &KernelPolicy,
    ws: &mut AlignWorkspace,
) -> ExtensionResult {
    assert!(x >= 0, "X-drop parameter must be non-negative");
    let m = query.len();
    let n = target.len();
    if m == 0 || n == 0 {
        return ExtensionResult::zero();
    }
    let q = query.as_slice();
    let t = target.as_slice();
    let threads = ctx.threads();
    let costs = block_prologue(ctx, m, n, policy);

    let mut best: i32 = 0;
    let mut best_i: usize = 0;
    let mut best_d: usize = 0;
    let mut cells: u64 = 0;
    let mut iterations: u64 = 0;
    let mut max_width: usize = 1;
    let mut dropped = false;

    ws.rings.reset();
    let ScalarRings { prev2, prev, cur } = &mut ws.rings;
    // Per-lane local maxima for the reduction, reused across iterations
    // (and across blocks, via the workspace).
    let lane_best = &mut ws.lanes;

    for d in 1..=(m + n) {
        let lo = prev.lo().max(d.saturating_sub(n));
        let hi = (prev.lo() + prev.live_len()).min(d).min(m);
        if lo > hi {
            break;
        }
        let width = hi - lo + 1;

        // --- Phase 1: grid-stride cell computation (Algorithm 2). ---
        let out = cur.begin(lo, width);
        lane_best.clear();
        lane_best.resize(width.min(threads), (NEG_INF, usize::MAX));
        let threshold = best - x;
        for (k, cell) in out.iter_mut().enumerate() {
            let i = lo + k;
            let j = d - i;
            let diag = if i >= 1 && j >= 1 {
                prev2.get(i - 1) + sub(q[i - 1], t[j - 1])
            } else {
                NEG_INF
            };
            let up = if i >= 1 {
                prev.get(i - 1) + gap
            } else {
                NEG_INF
            };
            let left = if j >= 1 { prev.get(i) + gap } else { NEG_INF };
            let mut val = diag.max(up).max(left);
            if val < threshold {
                val = NEG_INF;
            }
            *cell = val;
            // Thread k % threads keeps its running maximum in a register;
            // strictly-greater keeps the earliest (smallest i) per lane.
            let lane = k % threads;
            if val > lane_best[lane].0 {
                lane_best[lane] = (val, i);
            }
        }
        cells += width as u64;
        iterations += 1;
        ctx.record_iteration(width.min(threads));
        ctx.strided_loop(width, costs.instr_per_cell);
        charge_streaming(ctx, policy, width, &costs);
        ctx.sync_threads();

        // --- Phase 2: trim −∞ runs (thread 0, Algorithm 1 lines 10–15)
        // --- — offset moves only, no memmove.
        let computed = cur.computed();
        let (trim_front, trim_back) = match computed.iter().position(|&v| v > NEG_INF) {
            None => {
                ctx.thread0(BOUNDS_UPDATE_BASE_INSTR + TRIM_INSTR_PER_CELL * width as u32);
                dropped = true;
                break;
            }
            Some(kf) => {
                let kl = computed.iter().rposition(|&v| v > NEG_INF).unwrap();
                cur.trim(kf, kl);
                (kf, width - 1 - kl)
            }
        };
        ctx.thread0(
            BOUNDS_UPDATE_BASE_INSTR + TRIM_INSTR_PER_CELL * (trim_front + trim_back) as u32,
        );
        max_width = max_width.max(cur.live_len());

        // --- Phase 3: block-wide max reduction (in-warp shuffles). ---
        let live_lanes = width.min(threads);
        let (row_max, row_arg) = ctx.block_reduce_max_idx(&lane_best[..live_lanes]);
        if row_max > best {
            best = row_max;
            best_i = row_arg;
            best_d = d;
        }

        // Serial dependency to the next anti-diagonal.
        ctx.stall(costs.iter_stall);

        // Rotate buffers.
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

/// The SIMD-engine block body for an eligible, non-empty job: the
/// per-cell values come from the lane-parallel i16 stepper in
/// `logan-align`, while every SIMT cost is booked through the same
/// helpers and in the same order as [`block_core`]. Because the stepper
/// reports the exact per-anti-diagonal widths and trim counts — and the
/// engines are bit-identical — the accounted counters (and hence
/// simulated time) are equal between engines; only host wall-clock
/// differs.
fn block_stepper(
    ctx: &mut BlockCtx,
    query: &Seq,
    target: &Seq,
    profile: ScoreProfile,
    x: i32,
    policy: &KernelPolicy,
    ws: &mut AlignWorkspace,
) -> ExtensionResult {
    let mut state = SimdState::new(query, target, profile, x, &mut ws.simd)
        .expect("caller checked eligibility");
    let (m, n) = (query.len(), target.len());
    let threads = ctx.threads();
    let costs = block_prologue(ctx, m, n, policy);
    // Scratch handed to the reduction cost model. Its *cost* depends
    // only on the lane count; the stepper already performed the exact
    // max/argmax, so lane 0 carries the row maximum and the rest are
    // idle sentinels.
    let lane_vals = &mut ws.lanes;

    loop {
        match state.step() {
            SimdStep::Finished => break,
            SimdStep::Dropped { width } => {
                ctx.record_iteration(width.min(threads));
                ctx.strided_loop(width, costs.instr_per_cell);
                charge_streaming(ctx, policy, width, &costs);
                ctx.sync_threads();
                // Thread 0 scans the whole (dead) anti-diagonal before
                // concluding the drop, as in the scalar path.
                ctx.thread0(BOUNDS_UPDATE_BASE_INSTR + TRIM_INSTR_PER_CELL * width as u32);
                break;
            }
            SimdStep::Advanced(stats) => {
                ctx.record_iteration(stats.width.min(threads));
                ctx.strided_loop(stats.width, costs.instr_per_cell);
                charge_streaming(ctx, policy, stats.width, &costs);
                ctx.sync_threads();
                ctx.thread0(
                    BOUNDS_UPDATE_BASE_INSTR
                        + TRIM_INSTR_PER_CELL * (stats.trim_front + stats.trim_back) as u32,
                );
                let live_lanes = stats.width.min(threads);
                lane_vals.clear();
                lane_vals.resize(live_lanes, (NEG_INF, usize::MAX));
                lane_vals[0] = (stats.row_max, 0);
                ctx.block_reduce_max_idx(lane_vals);
                ctx.stall(costs.iter_stall);
            }
        }
    }
    state.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_align::xdrop_extend;
    use logan_seq::readsim::{random_seq, PairSet};
    use logan_seq::{ErrorModel, ErrorProfile, Scoring};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx(threads: usize) -> BlockCtx {
        BlockCtx::new(threads, 32, 96 * 1024)
    }

    /// The kernel entry point on a fresh workspace.
    fn extend(
        ctx: &mut BlockCtx,
        q: &Seq,
        t: &Seq,
        profile: impl Into<ScoreProfile>,
        x: i32,
        policy: &KernelPolicy,
    ) -> ExtensionResult {
        logan_block_extend(ctx, q, t, profile, x, policy, &mut AlignWorkspace::new())
    }

    fn run(q: &Seq, t: &Seq, x: i32, threads: usize) -> ExtensionResult {
        let mut c = ctx(threads);
        extend(
            &mut c,
            q,
            t,
            Scoring::default(),
            x,
            &KernelPolicy::new(threads),
        )
    }

    #[test]
    fn kernel_equals_reference_on_random_pairs() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.15));
        for trial in 0..40 {
            let len = 50 + (trial * 13) % 400;
            let template = random_seq(len, &mut rng);
            let (a, _) = model.corrupt(&template, &mut rng);
            let (b, _) = model.corrupt(&template, &mut rng);
            for x in [5, 25, 100] {
                for threads in [32, 128, 1024] {
                    let gpu = run(&a, &b, x, threads);
                    let cpu = xdrop_extend(&a, &b, Scoring::default(), x);
                    assert_eq!(gpu, cpu, "trial {trial} x {x} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn kernel_equals_reference_on_divergent_pairs() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let a = random_seq(200, &mut rng);
            let b = random_seq(220, &mut rng);
            let gpu = run(&a, &b, 20, 64);
            let cpu = xdrop_extend(&a, &b, Scoring::default(), 20);
            assert_eq!(gpu, cpu);
        }
    }

    #[test]
    fn kernel_counters_populated() {
        let mut rng = StdRng::seed_from_u64(3);
        let template = random_seq(500, &mut rng);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.1));
        let (a, _) = model.corrupt(&template, &mut rng);
        let (b, _) = model.corrupt(&template, &mut rng);
        let mut c = ctx(128);
        let r = extend(
            &mut c,
            &a,
            &b,
            Scoring::default(),
            50,
            &KernelPolicy::new(128),
        );
        assert!(c.counters.warp_instructions > 0);
        assert!(c.counters.iterations == r.iterations);
        assert!(c.counters.stall_cycles >= r.iterations * ITER_STALL_CYCLES_HBM);
        assert!(c.counters.hbm_read_bytes > 0, "cold sequence load counted");
        assert!(c.counters.barriers > 0);
        assert!(c.counters.thread_ops >= r.cells * LOGAN_INSTR_PER_CELL as u64);
    }

    #[test]
    fn simd_block_path_matches_scalar_results_and_counters() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.15));
        for trial in 0..10 {
            let len = 60 + trial * 47;
            let template = random_seq(len, &mut rng);
            let (a, _) = model.corrupt(&template, &mut rng);
            let (b, _) = model.corrupt(&template, &mut rng);
            for x in [0, 10, 100] {
                for threads in [32, 256] {
                    let mut pol = KernelPolicy::new(threads);
                    pol.hbm_charge_fraction = 0.5;
                    let mut c_scalar = ctx(threads);
                    let r_scalar = extend(&mut c_scalar, &a, &b, Scoring::default(), x, &pol);
                    pol.engine = Engine::Simd;
                    let mut c_simd = ctx(threads);
                    let r_simd = extend(&mut c_simd, &a, &b, Scoring::default(), x, &pol);
                    assert_eq!(r_simd, r_scalar, "results: trial {trial} x {x} t {threads}");
                    assert_eq!(
                        c_simd.counters, c_scalar.counters,
                        "counters: trial {trial} x {x} t {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_profile_block_path_matches_reference_and_counters() {
        use logan_seq::Alphabet;
        use rand::Rng;
        let p = ScoreProfile::blosum62(-6);
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..8 {
            let n = 40 + trial * 37;
            let a = Seq::from_codes(
                (0..n).map(|_| rng.gen_range(0..20u8)).collect(),
                Alphabet::Protein,
            );
            let mut hom = a.as_slice().to_vec();
            for c in hom.iter_mut() {
                if rng.gen_bool(0.2) {
                    *c = rng.gen_range(0..20u8);
                }
            }
            let b = Seq::from_codes(hom, Alphabet::Protein);
            for x in [10, 60] {
                let pol = KernelPolicy::new(64);
                let mut c1 = ctx(64);
                let r1 = extend(&mut c1, &a, &b, p, x, &pol);
                let want = xdrop_extend(&a, &b, p, x);
                assert_eq!(r1, want, "block vs reference, trial {trial} x {x}");
                let mut pol_simd = pol;
                pol_simd.engine = Engine::Simd;
                let mut c2 = ctx(64);
                let r2 = extend(&mut c2, &a, &b, p, x, &pol_simd);
                assert_eq!(r2, r1, "simd block path, trial {trial} x {x}");
                assert_eq!(c2.counters, c1.counters, "counters, trial {trial} x {x}");
            }
        }
    }

    #[test]
    fn simd_block_path_falls_back_when_ineligible() {
        // X beyond the i16 window: the SIMD path must defer to the
        // scalar block kernel (identical results and counters).
        let mut rng = StdRng::seed_from_u64(10);
        let a = random_seq(150, &mut rng);
        let b = random_seq(150, &mut rng);
        let x = i32::MAX / 4;
        let pol = KernelPolicy::new(64);
        let mut c1 = ctx(64);
        let r1 = extend(&mut c1, &a, &b, Scoring::default(), x, &pol);
        let mut pol_simd = pol;
        pol_simd.engine = Engine::Simd;
        let mut c2 = ctx(64);
        let r2 = extend(&mut c2, &a, &b, Scoring::default(), x, &pol_simd);
        assert_eq!(r1, r2);
        assert_eq!(c1.counters, c2.counters);
    }

    #[test]
    fn kernel_dispatch_selects_engine() {
        let set = PairSet::generate_with_lengths(4, 0.15, 200, 400, 8);
        let jobs: Vec<ExtensionJob> = set
            .pairs
            .iter()
            .map(|p| ExtensionJob {
                query: p.query.clone(),
                target: p.target.clone(),
            })
            .collect();
        let mut pol = KernelPolicy::new(128);
        pol.engine = Engine::Simd;
        let kernel = LoganKernel {
            jobs: &jobs,
            profile: Scoring::default().into(),
            x: 50,
            policy: pol,
        };
        for (i, job) in jobs.iter().enumerate() {
            let mut c = ctx(128);
            let got = kernel.run_block(&mut c, i);
            let want = xdrop_extend(&job.query, &job.target, Scoring::default(), 50);
            assert_eq!(got, want, "job {i}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let set = PairSet::generate_with_lengths(5, 0.15, 300, 500, 4);
        for p in &set.pairs {
            let base = run(&p.query, &p.target, 50, 32);
            for threads in [64, 256, 512, 1024] {
                assert_eq!(run(&p.query, &p.target, 50, threads), base);
            }
        }
    }

    #[test]
    fn strided_layout_costs_more() {
        let mut rng = StdRng::seed_from_u64(5);
        let template = random_seq(400, &mut rng);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.12));
        let (a, _) = model.corrupt(&template, &mut rng);
        let (b, _) = model.corrupt(&template, &mut rng);

        let mut pol = KernelPolicy::new(128);
        pol.hbm_charge_fraction = 1.0;
        let mut c_rev = ctx(128);
        let r_rev = extend(&mut c_rev, &a, &b, Scoring::default(), 50, &pol);

        pol.reversed_layout = false;
        let mut c_str = ctx(128);
        let r_str = extend(&mut c_str, &a, &b, Scoring::default(), 50, &pol);

        assert_eq!(r_rev, r_str, "layout must not change results");
        assert!(
            c_str.counters.hbm_read_bytes > 2 * c_rev.counters.hbm_read_bytes,
            "strided char reads must inflate traffic"
        );
        assert!(c_str.counters.warp_instructions > c_rev.counters.warp_instructions);
    }

    #[test]
    fn shared_ablation_uses_shared_memory_and_less_stall() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random_seq(300, &mut rng);
        let b = random_seq(300, &mut rng);
        let mut pol = KernelPolicy::new(64);
        pol.antidiag_in_shared = true;
        let mut c = ctx(64);
        let r = extend(&mut c, &a, &b, Scoring::default(), 30, &pol);
        assert!(c.shared_used() >= 3 * (a.len().min(b.len()) + 1) * 4);
        assert_eq!(
            c.counters.stall_cycles,
            r.iterations * ITER_STALL_CYCLES_SHARED
        );
    }

    #[test]
    fn empty_job_is_free() {
        let mut c = ctx(32);
        let r = extend(
            &mut c,
            &Seq::new(),
            &random_seq(10, &mut StdRng::seed_from_u64(7)),
            Scoring::default(),
            10,
            &KernelPolicy::new(32),
        );
        assert_eq!(r, ExtensionResult::zero());
        assert_eq!(c.counters.warp_instructions, 0);
    }

    #[test]
    fn hbm_fraction_scales_traffic() {
        let mut rng = StdRng::seed_from_u64(8);
        let template = random_seq(600, &mut rng);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.1));
        let (a, _) = model.corrupt(&template, &mut rng);
        let (b, _) = model.corrupt(&template, &mut rng);
        let traffic = |frac: f64| {
            let mut pol = KernelPolicy::new(128);
            pol.hbm_charge_fraction = frac;
            let mut c = ctx(128);
            extend(&mut c, &a, &b, Scoring::default(), 100, &pol);
            c.counters.hbm_bytes()
        };
        let t0 = traffic(0.0);
        let t_half = traffic(0.5);
        let t1 = traffic(1.0);
        assert!(t0 < t_half && t_half < t1);
    }
}
