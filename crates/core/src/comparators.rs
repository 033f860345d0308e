//! GPU comparator kernels for Fig. 12: CUDASW++-style full
//! Smith–Waterman and manymap-style banded extension.
//!
//! Both comparators have *input-independent control flow* (no X-drop:
//! the explored area is a pure function of the sequence lengths and the
//! band), so their SIMT cost can be accounted without executing every
//! cell. Each kernel therefore comes in two forms that share one
//! accounting function:
//!
//! * a **real** [`BlockKernel`](logan_gpusim::BlockKernel) that
//!   computes actual alignment scores (validated against the CPU
//!   oracles) *and* runs the accounting — a test-only oracle;
//! * an **analytic** batch report that runs only the accounting — used by
//!   the Fig. 12 harness where executing 2.5 T DP cells on a CPU host is
//!   not feasible. A unit test pins the two forms to identical counters.

use crate::calibration::*;
use logan_gpusim::{
    schedule, AccessPattern, BlockCost, BlockCtx, DeviceSpec, KernelReport, KernelStats,
    LaunchConfig,
};
use rayon::prelude::*;

/// Which comparator to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparator {
    /// CUDASW++-style full-matrix Smith–Waterman (inter-task kernel,
    /// query profile in shared memory, DP rows in global memory).
    FullSw,
    /// manymap-style banded seed-extension with traceback bookkeeping
    /// (Feng et al. 2019).
    Manymap,
}

impl Comparator {
    /// Launch geometry for this comparator.
    pub(crate) fn launch_shape(&self) -> (usize, usize) {
        match self {
            Comparator::FullSw => (FULLSW_THREADS, FULLSW_SHARED_PER_BLOCK),
            Comparator::Manymap => (MANYMAP_THREADS, 0),
        }
    }

    /// DP cells this comparator computes on an `m × n` problem.
    pub(crate) fn cells(&self, m: usize, n: usize) -> u64 {
        match self {
            Comparator::FullSw => m as u64 * n as u64,
            Comparator::Manymap => manymap_cells(m, n, MANYMAP_BAND),
        }
    }
}

/// Cells of a fixed-band DP: `|i - j| <= band`.
fn manymap_cells(m: usize, n: usize, band: usize) -> u64 {
    let mut cells = 0u64;
    for i in 1..=m {
        let jlo = i.saturating_sub(band).max(1);
        let jhi = (i + band).min(n);
        if jlo <= jhi {
            cells += (jhi - jlo + 1) as u64;
        }
    }
    cells
}

/// Account the SIMT cost of a CUDASW++-style full SW block: wavefront
/// over anti-diagonals, DP rows streamed through global memory
/// (12 bytes/cell: H and E read + H write), shuffle reduction at the end.
pub(crate) fn fullsw_account(ctx: &mut BlockCtx, m: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    for d in 1..=(m + n) {
        let lo = d.saturating_sub(n).max(1);
        let hi = d.min(m);
        if lo > hi {
            continue;
        }
        let width = hi - lo + 1;
        ctx.record_iteration(width.min(ctx.threads()));
        ctx.strided_loop(width, FULLSW_INSTR_PER_CELL);
        ctx.hbm_read((width * 8) as u64, AccessPattern::Coalesced, 4);
        ctx.hbm_write((width * 4) as u64, AccessPattern::Coalesced, 4);
        ctx.sync_threads();
        ctx.stall(ITER_STALL_CYCLES_HBM);
    }
    ctx.charge_block_reduce(ctx.threads().min(m.min(n).max(1)));
}

/// Account a manymap-style banded extension block: row-parallel band,
/// packed traceback written per cell (1 byte), rows hot in L2.
pub(crate) fn manymap_account(ctx: &mut BlockCtx, m: usize, n: usize, band: usize) {
    if m == 0 || n == 0 {
        return;
    }
    for i in 1..=m {
        let jlo = i.saturating_sub(band).max(1);
        let jhi = (i + band).min(n);
        if jlo > jhi {
            continue;
        }
        let width = jhi - jlo + 1;
        ctx.record_iteration(width.min(ctx.threads()));
        ctx.strided_loop(width, MANYMAP_INSTR_PER_CELL);
        ctx.hbm_write(width as u64, AccessPattern::Coalesced, 1);
        ctx.sync_threads();
        ctx.stall(ITER_STALL_CYCLES_HBM);
    }
    ctx.charge_block_reduce(ctx.threads().min(m.min(n).max(1)));
}

/// Analytic batch report: account every job without computing scores.
/// `lengths` holds `(m, n)` per alignment.
pub fn analytic_report(
    spec: &DeviceSpec,
    lengths: &[(usize, usize)],
    which: Comparator,
) -> KernelReport {
    let (threads, shared) = which.launch_shape();
    let counters: Vec<_> = lengths
        .par_iter()
        .map(|&(m, n)| {
            let mut ctx = BlockCtx::new(threads, spec.warp_size, spec.shared_mem_per_block_max);
            match which {
                Comparator::FullSw => fullsw_account(&mut ctx, m, n),
                Comparator::Manymap => manymap_account(&mut ctx, m, n, MANYMAP_BAND),
            }
            ctx.counters
        })
        .collect();
    let mut stats = KernelStats::from_blocks(&counters, threads, shared);
    stats.work_items = lengths.iter().map(|&(m, n)| which.cells(m, n)).sum();
    let costs: Vec<BlockCost> = counters
        .iter()
        .map(|c| BlockCost {
            warp_instructions: c.warp_instructions,
            stall_cycles: c.stall_cycles,
        })
        .collect();
    let sched = schedule(spec, &costs, threads, shared, stats.total.hbm_bytes());
    KernelReport {
        stats,
        schedule: sched,
        config: LaunchConfig {
            blocks: lengths.len(),
            threads_per_block: threads,
            shared_per_block: shared,
        },
        block_costs: costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_align::{banded_sw, smith_waterman, AlignmentResult};
    use logan_gpusim::{BlockKernel, Device};
    use logan_seq::readsim::random_seq;
    use logan_seq::{Scoring, Seq};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The real CUDASW++-style kernel: full SW scores plus accounting.
    struct FullSwKernel<'a> {
        /// One (query, target) problem per block.
        jobs: &'a [(Seq, Seq)],
        /// Linear-gap scoring (CUDASW++ is affine for proteins; for the DNA
        /// workloads compared here the linear scheme matches LOGAN's).
        scoring: Scoring,
    }

    impl BlockKernel for FullSwKernel<'_> {
        type Output = AlignmentResult;
        fn run_block(&self, ctx: &mut BlockCtx, block_id: usize) -> AlignmentResult {
            let (q, t) = &self.jobs[block_id];
            fullsw_account(ctx, q.len(), t.len());
            smith_waterman(q, t, self.scoring)
        }
    }

    /// The real manymap-style kernel: banded SW scores plus accounting.
    struct ManymapKernel<'a> {
        /// One (query, target) problem per block.
        jobs: &'a [(Seq, Seq)],
        /// Scoring scheme.
        scoring: Scoring,
    }

    impl BlockKernel for ManymapKernel<'_> {
        type Output = AlignmentResult;
        fn run_block(&self, ctx: &mut BlockCtx, block_id: usize) -> AlignmentResult {
            let (q, t) = &self.jobs[block_id];
            manymap_account(ctx, q.len(), t.len(), MANYMAP_BAND);
            banded_sw(q, t, self.scoring, MANYMAP_BAND)
        }
    }

    /// Run the *real* comparator kernel on a device.
    fn run_real(
        device: &Device,
        jobs: &[(Seq, Seq)],
        scoring: Scoring,
        which: Comparator,
    ) -> (Vec<AlignmentResult>, KernelReport) {
        let (threads, shared) = which.launch_shape();
        let cfg = LaunchConfig {
            blocks: jobs.len(),
            threads_per_block: threads,
            shared_per_block: shared,
        };
        let (out, mut report) = match which {
            Comparator::FullSw => device.launch(cfg, &FullSwKernel { jobs, scoring }),
            Comparator::Manymap => device.launch(cfg, &ManymapKernel { jobs, scoring }),
        };
        report.stats.work_items = jobs
            .iter()
            .map(|(q, t)| which.cells(q.len(), t.len()))
            .sum();
        (out, report)
    }

    fn jobs(n: usize, len: usize) -> Vec<(Seq, Seq)> {
        let mut rng = StdRng::seed_from_u64(9);
        (0..n)
            .map(|_| (random_seq(len, &mut rng), random_seq(len + 7, &mut rng)))
            .collect()
    }

    #[test]
    fn real_and_analytic_counters_agree() {
        let spec = DeviceSpec::v100();
        let device = Device::new(spec.clone());
        let js = jobs(6, 80);
        let lengths: Vec<(usize, usize)> = js.iter().map(|(q, t)| (q.len(), t.len())).collect();
        for which in [Comparator::FullSw, Comparator::Manymap] {
            let (_, real) = run_real(&device, &js, Scoring::default(), which);
            let analytic = analytic_report(&spec, &lengths, which);
            assert_eq!(real.stats, analytic.stats, "{which:?}");
            assert_eq!(real.schedule, analytic.schedule, "{which:?}");
        }
    }

    #[test]
    fn fullsw_scores_match_cpu_oracle() {
        let device = Device::new(DeviceSpec::v100());
        let js = jobs(5, 60);
        let (out, _) = run_real(&device, &js, Scoring::default(), Comparator::FullSw);
        for ((q, t), r) in js.iter().zip(&out) {
            assert_eq!(*r, smith_waterman(q, t, Scoring::default()));
        }
    }

    #[test]
    fn manymap_scores_match_banded_oracle() {
        let device = Device::new(DeviceSpec::v100());
        let js = jobs(5, 60);
        let (out, _) = run_real(&device, &js, Scoring::default(), Comparator::Manymap);
        for ((q, t), r) in js.iter().zip(&out) {
            assert_eq!(*r, banded_sw(q, t, Scoring::default(), MANYMAP_BAND));
        }
    }

    #[test]
    fn fullsw_gcups_lands_near_published() {
        // A saturating batch of paper-sized pairs: CUDASW++ GPU-only sits
        // near 70 GCUPS in Fig. 12.
        let spec = DeviceSpec::v100();
        let lengths = vec![(5000usize, 5000usize); 512];
        let report = analytic_report(&spec, &lengths, Comparator::FullSw);
        let g = report.gcups();
        assert!(g > 45.0 && g < 95.0, "full-SW GCUPS {g}");
    }

    #[test]
    fn manymap_gcups_lands_near_published() {
        let spec = DeviceSpec::v100();
        let lengths = vec![(5000usize, 5000usize); 512];
        let report = analytic_report(&spec, &lengths, Comparator::Manymap);
        let g = report.gcups();
        assert!(g > 70.0 && g < 120.0, "manymap GCUPS {g}");
    }

    #[test]
    fn manymap_cells_formula() {
        // Band wider than the matrix: all cells.
        assert_eq!(manymap_cells(10, 10, 100), 100);
        // Unit band on a square matrix: 3 per row minus edges.
        assert_eq!(manymap_cells(4, 4, 1), 2 + 3 + 3 + 2);
        assert_eq!(manymap_cells(0, 5, 3), 0);
    }

    #[test]
    fn empty_jobs_cost_nothing() {
        let mut ctx = BlockCtx::new(256, 32, 96 * 1024);
        fullsw_account(&mut ctx, 0, 100);
        assert_eq!(ctx.counters.warp_instructions, 0);
        manymap_account(&mut ctx, 10, 0, 5);
        assert_eq!(ctx.counters.warp_instructions, 0);
    }
}
