//! The LOGAN X-drop GPU kernel (paper §IV-A, Algorithms 1–2).
//!
//! One block per alignment (inter-sequence parallelism); inside a block,
//! each anti-diagonal is computed by a grid-stride loop whose segments
//! are as wide as the block (intra-sequence parallelism, Fig. 3); the
//! anti-diagonal maximum is found with an in-warp shuffle reduction; the
//! bounds update runs on thread 0. Only three anti-diagonals are live,
//! stored in HBM (or in shared memory under the §IV-B ablation).
//!
//! The kernel holds no recurrence of its own. Its *results* come from
//! the host engine `policy.engine` names — the same dispatched kernels
//! the CPU backends run ([`Engine::extend_with_sink`]) — so they equal
//! the scalar reference [`logan_align::xdrop_extend`] by construction.
//! Its *costs* are a function of each anti-diagonal's shape alone
//! (width, trims, whether it dropped): the engine hands the
//! [`DiagStats`] of every anti-diagonal to a sink that books them
//! through [`BlockCtx`] and the constants in [`crate::calibration`], so
//! they are the same whichever engine computed the cells.

use crate::calibration::*;
use logan_align::workspace::with_thread_workspace;
use logan_align::{AlignWorkspace, DiagStats, Engine, ExtensionResult, StepSink};
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
    /// Which host engine computes the block's results: dispatched
    /// exactly as on the CPU path (i16, i8 with escalation, adaptive, or
    /// the scalar reference; every lane tier falls back to scalar
    /// outside its window). Results and accounted costs are identical
    /// across every engine (asserted by the engine-equivalence tests):
    /// costs are charged from per-anti-diagonal statistics every tier
    /// reports alike, so the simulated device sees one kernel whichever
    /// host lane width computed it, and the choice only changes how fast
    /// the simulation itself runs on the host.
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
pub(crate) struct LoganKernel<'a> {
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

/// The block's SIMT costs, charged one anti-diagonal at a time from the
/// [`DiagStats`] the host engine reports — the kernel's [`StepSink`].
/// The per-cell and per-step constants are resolved from the policy
/// once, by [`BlockCharger::prologue`].
struct BlockCharger<'c> {
    ctx: &'c mut BlockCtx,
    policy: &'c KernelPolicy,
    instr_per_cell: u32,
    iter_stall: u64,
    char_pattern: AccessPattern,
}

impl<'c> BlockCharger<'c> {
    /// Book the kernel prologue — anti-diagonal buffer allocation
    /// (shared or HBM), reduction scratch, and the cold sequence load —
    /// and return the charger for its anti-diagonals.
    fn prologue(
        ctx: &'c mut BlockCtx,
        m: usize,
        n: usize,
        policy: &'c KernelPolicy,
    ) -> BlockCharger<'c> {
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
        BlockCharger {
            ctx,
            policy,
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
    /// score words, plus one character of each sequence per cell. Only
    /// the L2-spilled fraction reaches HBM.
    fn charge_streaming(&mut self, width: usize) {
        let f = self.policy.hbm_charge_fraction;
        if !self.policy.antidiag_in_shared && f > 0.0 {
            let score_read = (2 * width * 4) as f64 * f;
            let score_write = (width * 4) as f64 * f;
            self.ctx
                .hbm_read(score_read as u64, AccessPattern::Coalesced, 4);
            self.ctx
                .hbm_write(score_write as u64, AccessPattern::Coalesced, 4);
        }
        if f > 0.0 {
            let q_bytes = (width as f64 * f) as u64;
            self.ctx.hbm_read(q_bytes, AccessPattern::Coalesced, 1);
            self.ctx.hbm_read(q_bytes, self.char_pattern, 1);
        }
    }
}

impl StepSink for BlockCharger<'_> {
    /// One anti-diagonal of Algorithms 1–2: the grid-stride compute
    /// (Algorithm 2), thread 0's scan and trim of the −∞ runs (Algorithm
    /// 1 lines 10–15; on the anti-diagonal that drops, it scans all of
    /// it) and — while the extension lives — the block-wide max
    /// reduction (in-warp shuffles) and the serial dependency to the
    /// next anti-diagonal.
    #[inline]
    fn diag(&mut self, s: &DiagStats) {
        let lanes = s.width.min(self.ctx.threads());
        self.ctx.record_iteration(lanes);
        self.ctx.strided_loop(s.width, self.instr_per_cell);
        self.charge_streaming(s.width);
        self.ctx.sync_threads();
        self.ctx.thread0(
            BOUNDS_UPDATE_BASE_INSTR + TRIM_INSTR_PER_CELL * (s.trim_front + s.trim_back) as u32,
        );
        if s.live_width > 0 {
            self.ctx.charge_block_reduce(lanes);
            self.ctx.stall(self.iter_stall);
        }
    }
}

/// Execute one X-drop extension inside a block context, accounting SIMT
/// costs as it goes — the kernel's one entry point. The host engine
/// `policy.engine` names computes the result exactly as on the CPU path
/// (so it equals `logan_align::xdrop_extend` bit for bit), handing each
/// anti-diagonal's statistics to a sink that charges `ctx`; the accounted
/// costs are therefore the same whichever engine runs (asserted by the
/// equivalence tests), and an empty job books nothing.
///
/// All scratch comes from `ws`, the host mirror of the kernel's
/// preallocated HBM buffers (the executor hands in one per host worker
/// thread); accounted costs do not depend on it.
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
    assert!(x >= 0, "X-drop parameter must be non-negative");
    if query.is_empty() || target.is_empty() {
        return ExtensionResult::zero();
    }
    let mut charger = BlockCharger::prologue(ctx, query.len(), target.len(), policy);
    policy
        .engine
        .extend_with_sink(query, target, profile, x, ws, &mut charger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_align::{simd8_eligible, simd_eligible, xdrop_extend};
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

    const ENGINES: [Engine; 4] = [Engine::Scalar, Engine::Simd, Engine::I8, Engine::Adaptive];

    /// The block path under every engine: results equal to the scalar
    /// reference and counters equal across engines; returns them.
    fn engines_agree(
        a: &Seq,
        b: &Seq,
        profile: impl Into<ScoreProfile> + Copy,
        x: i32,
        pol: KernelPolicy,
    ) -> (ExtensionResult, logan_gpusim::BlockCounters) {
        let want = xdrop_extend(a, b, profile, x);
        let mut first = None;
        for engine in ENGINES {
            let mut c = ctx(pol.threads);
            let r = extend(&mut c, a, b, profile, x, &KernelPolicy { engine, ..pol });
            assert_eq!(r, want, "{engine}: result, x {x} t {}", pol.threads);
            let counters = first.get_or_insert(c.counters);
            assert_eq!(&c.counters, counters, "{engine}: counters, x {x}");
        }
        (want, first.unwrap())
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
                    engines_agree(&a, &b, Scoring::default(), x, pol);
                }
            }
        }
        // An i8 run that escalates: a perfect pair outscores the i8
        // window mid-extension and continues in i16.
        let s = random_seq(300, &mut rng);
        assert!(simd8_eligible(&s, &s, Scoring::default(), 20));
        let mut ws = AlignWorkspace::new();
        let mut c = ctx(64);
        let pol = KernelPolicy {
            engine: Engine::I8,
            ..KernelPolicy::new(64)
        };
        logan_block_extend(&mut c, &s, &s, Scoring::default(), 20, &pol, &mut ws);
        assert_eq!((ws.tally.lanes8, ws.tally.escalations), (1, 1));
        let (r, _) = engines_agree(&s, &s, Scoring::default(), 20, KernelPolicy::new(64));
        assert_eq!(r.score, 300);
        // Past the i16 bound (a perfect 17-base run at match = 2000
        // scores 34 000): every engine falls back to scalar.
        let big = Scoring::new(2000, -2000, -2000);
        let t = random_seq(17, &mut rng);
        assert!(!simd_eligible(&t, &t, big, 50));
        engines_agree(&t, &t, big, 50, KernelPolicy::new(32));
    }

    /// Fixed blocks covering every charge: live and dropped anti-diagonals,
    /// L2-spilled streaming, the strided layout, the shared-memory ablation
    /// and a matrix profile.
    fn golden_cases() -> Vec<(Seq, Seq, ScoreProfile, i32, KernelPolicy)> {
        use logan_seq::readsim::random_seq;
        use logan_seq::{ErrorModel, ErrorProfile, Scoring};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2929);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.15));
        let template = random_seq(400, &mut rng);
        let (a, _) = model.corrupt(&template, &mut rng);
        let (b, _) = model.corrupt(&template, &mut rng);
        let (c, d) = (random_seq(300, &mut rng), random_seq(300, &mut rng));
        let protein = |rng: &mut StdRng| {
            let codes = (0..150).map(|_| rng.gen_range(0..20u8)).collect();
            Seq::from_codes(codes, logan_seq::Alphabet::Protein)
        };
        let (p, q) = (protein(&mut rng), protein(&mut rng));
        let dna: ScoreProfile = Scoring::default().into();
        let spilled = KernelPolicy {
            hbm_charge_fraction: 0.5,
            ..KernelPolicy::new(128)
        };
        let strided = KernelPolicy {
            reversed_layout: false,
            hbm_charge_fraction: 1.0,
            ..KernelPolicy::new(256)
        };
        let shared = KernelPolicy {
            antidiag_in_shared: true,
            ..KernelPolicy::new(64)
        };
        vec![
            (a.clone(), b.clone(), dna, 50, spilled),
            (
                c.clone(),
                d.clone(),
                Scoring::new(1, -2, -2).into(),
                20,
                spilled,
            ),
            (a.clone(), b.clone(), dna, 0, KernelPolicy::new(32)),
            (a, b, dna, 100, strided),
            (c, d, dna, 30, shared),
            (
                p.clone(),
                p,
                ScoreProfile::blosum62(-6),
                60,
                KernelPolicy::new(64),
            ),
            (
                q.clone(),
                q.reversed(),
                ScoreProfile::blosum62(-6),
                40,
                spilled,
            ),
        ]
    }

    /// The SIMT counters of [`golden_cases`], captured from the kernel
    /// before it charged from the engines' per-step statistics (when it
    /// held its own copy of the recurrence): whatever computes the
    /// cells, the charges must not move.
    #[test]
    fn counters_match_the_recorded_kernel() {
        const GOLDEN: [[u64; 10]; 7] = [
            [
                349582, 215488, 91488, 9593, 25080, 2430, 831, 37257, 2396506, 166200,
            ],
            [25185, 8832, 5920, 461, 568, 143, 72, 603, 55396, 14200],
            [332, 832, 4992, 182, 0, 1, 1, 2, 374, 0],
            [
                421370, 2810624, 287552, 96818, 37112, 2430, 831, 67802, 4710176, 166200,
            ],
            [260680, 640, 0, 20, 17568, 1732, 600, 32864, 2260703, 36000],
            [103752, 320, 1824, 67, 2400, 600, 300, 2380, 223192, 60000],
            [
                104920, 36192, 11424, 1488, 2400, 600, 300, 2796, 247288, 60000,
            ],
        ];
        for (k, ((q, t, profile, x, policy), want)) in
            golden_cases().into_iter().zip(GOLDEN).enumerate()
        {
            let (_, c) = engines_agree(&q, &t, profile, x, policy);
            let got = [
                c.warp_instructions,
                c.hbm_read_bytes,
                c.hbm_write_bytes,
                c.hbm_transactions,
                c.shared_bytes,
                c.barriers,
                c.iterations,
                c.active_thread_sum,
                c.thread_ops,
                c.stall_cycles,
            ];
            assert_eq!(got, want, "case {k}");
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
                engines_agree(&a, &b, p, x, KernelPolicy::new(64));
            }
        }
    }

    #[test]
    fn simd_block_path_falls_back_when_ineligible() {
        // X beyond the i16 window: every lane tier defers to the scalar
        // engine (identical results and counters).
        let mut rng = StdRng::seed_from_u64(10);
        let a = random_seq(150, &mut rng);
        let b = random_seq(150, &mut rng);
        engines_agree(
            &a,
            &b,
            Scoring::default(),
            i32::MAX / 4,
            KernelPolicy::new(64),
        );
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
