//! Instruction and memory-traffic counters.
//!
//! Every [`crate::block::BlockCtx`] owns a [`BlockCounters`]; after a
//! launch the per-block counters are folded into a [`KernelStats`], the
//! single source of truth for simulated time, GCUPS and the roofline
//! (the paper's Fig. 13 derives entirely from these numbers).

use serde::Serialize;

/// Counters accumulated by one block during kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BlockCounters {
    /// Warp-level integer instructions issued.
    pub warp_instructions: u64,
    /// Bytes of effective HBM read traffic (after coalescing model).
    pub hbm_read_bytes: u64,
    /// Bytes of effective HBM write traffic.
    pub hbm_write_bytes: u64,
    /// Number of HBM transactions (32-byte sectors touched).
    pub hbm_transactions: u64,
    /// Bytes moved through shared memory.
    pub shared_bytes: u64,
    /// `__syncthreads()` barriers executed.
    pub barriers: u64,
    /// Parallel iterations (anti-diagonals, for LOGAN) executed.
    pub iterations: u64,
    /// Sum over iterations of the number of *active* threads — the
    /// quantity the adapted roofline ceiling (Eq. 1) averages.
    pub active_thread_sum: u64,
    /// Thread-level integer operations (lane work, used for Eq. 1's
    /// `N_op` and for operational-intensity bookkeeping).
    pub thread_ops: u64,
    /// Serial stall cycles: latency of dependent operations that do not
    /// consume issue slots but delay block completion (anti-diagonal
    /// iterations are serially dependent — each must see the previous
    /// one's stores).
    pub stall_cycles: u64,
}

impl BlockCounters {
    /// Fold another block's counters into this one.
    pub(crate) fn merge(&mut self, other: &BlockCounters) {
        self.warp_instructions += other.warp_instructions;
        self.hbm_read_bytes += other.hbm_read_bytes;
        self.hbm_write_bytes += other.hbm_write_bytes;
        self.hbm_transactions += other.hbm_transactions;
        self.shared_bytes += other.shared_bytes;
        self.barriers += other.barriers;
        self.iterations += other.iterations;
        self.active_thread_sum += other.active_thread_sum;
        self.thread_ops += other.thread_ops;
        self.stall_cycles += other.stall_cycles;
    }

    /// Total HBM bytes (read + write).
    pub fn hbm_bytes(&self) -> u64 {
        self.hbm_read_bytes + self.hbm_write_bytes
    }
}

/// Aggregated statistics of one kernel launch.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct KernelStats {
    /// Sum of all block counters.
    pub total: BlockCounters,
    /// Number of blocks launched.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Shared memory reserved per block, bytes.
    pub shared_per_block: usize,
    /// Largest single-block warp-instruction count (tail latency driver).
    pub max_block_instructions: u64,
    /// Work items (e.g. DP cells) the caller attributes to this kernel;
    /// used for the GCUPS metric.
    pub work_items: u64,
}

impl KernelStats {
    /// Build from per-block counters.
    pub fn from_blocks(
        counters: &[BlockCounters],
        threads_per_block: usize,
        shared_per_block: usize,
    ) -> KernelStats {
        let mut total = BlockCounters::default();
        let mut max_block = 0u64;
        for c in counters {
            total.merge(c);
            max_block = max_block.max(c.warp_instructions);
        }
        KernelStats {
            total,
            blocks: counters.len(),
            threads_per_block,
            shared_per_block,
            max_block_instructions: max_block,
            work_items: 0,
        }
    }

    /// Operational intensity in warp instructions per HBM byte — the
    /// x-axis of the instruction roofline (Ding & Williams 2019).
    pub fn operational_intensity(&self) -> f64 {
        let bytes = self.total.hbm_bytes();
        if bytes == 0 {
            return f64::INFINITY;
        }
        self.total.warp_instructions as f64 / bytes as f64
    }

    /// Mean active threads per iteration (for the adapted ceiling).
    pub fn mean_active_threads(&self) -> f64 {
        if self.total.iterations == 0 {
            return 0.0;
        }
        self.total.active_thread_sum as f64 / self.total.iterations as f64
    }

    /// Fold stats of another launch (same grid shape) into this one —
    /// used when a logical batch is split over several launches/streams.
    pub fn merge(&mut self, other: &KernelStats) {
        self.total.merge(&other.total);
        self.blocks += other.blocks;
        self.max_block_instructions = self
            .max_block_instructions
            .max(other.max_block_instructions);
        self.work_items += other.work_items;
        if self.threads_per_block == 0 {
            self.threads_per_block = other.threads_per_block;
        }
        if self.shared_per_block == 0 {
            self.shared_per_block = other.shared_per_block;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(wi: u64, rd: u64, wr: u64) -> BlockCounters {
        BlockCounters {
            warp_instructions: wi,
            hbm_read_bytes: rd,
            hbm_write_bytes: wr,
            hbm_transactions: (rd + wr) / 32,
            shared_bytes: 64,
            barriers: 3,
            iterations: 10,
            active_thread_sum: 500,
            thread_ops: wi * 20,
            stall_cycles: 7,
        }
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = sample(100, 320, 160);
        a.merge(&sample(50, 32, 32));
        assert_eq!(a.warp_instructions, 150);
        assert_eq!(a.hbm_bytes(), 544);
        assert_eq!(a.barriers, 6);
        assert_eq!(a.iterations, 20);
    }

    #[test]
    fn stats_fold_and_max() {
        let blocks = vec![sample(10, 0, 0), sample(99, 0, 0), sample(5, 0, 0)];
        let s = KernelStats::from_blocks(&blocks, 128, 256);
        assert_eq!(s.blocks, 3);
        assert_eq!(s.total.warp_instructions, 114);
        assert_eq!(s.max_block_instructions, 99);
        assert_eq!(s.threads_per_block, 128);
    }

    #[test]
    fn operational_intensity() {
        let blocks = vec![sample(1000, 400, 100)];
        let s = KernelStats::from_blocks(&blocks, 32, 0);
        assert!((s.operational_intensity() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn oi_infinite_without_traffic() {
        let s = KernelStats::from_blocks(&[BlockCounters::default()], 32, 0);
        assert!(s.operational_intensity().is_infinite());
        assert_eq!(s.mean_active_threads(), 0.0);
    }

    #[test]
    fn mean_active_threads_average() {
        let blocks = vec![sample(1, 0, 0), sample(1, 0, 0)];
        let s = KernelStats::from_blocks(&blocks, 64, 0);
        // 2 blocks × 10 iterations, each contributing 500 active-thread units.
        assert!((s.mean_active_threads() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_stats_merge() {
        let mut a = KernelStats::from_blocks(&[sample(10, 32, 0)], 128, 0);
        let b = KernelStats::from_blocks(&[sample(90, 0, 32)], 128, 0);
        a.merge(&b);
        assert_eq!(a.blocks, 2);
        assert_eq!(a.total.warp_instructions, 100);
        assert_eq!(a.max_block_instructions, 90);
    }
}
