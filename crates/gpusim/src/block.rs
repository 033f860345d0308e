//! The block execution context: the CUDA-like API kernels are written
//! against.
//!
//! A kernel implements [`BlockKernel`]; the device runs `run_block` once
//! per block (in parallel on the host). Inside, the kernel does its real
//! computation with ordinary Rust and *accounts* the SIMT cost of each
//! phase through [`BlockCtx`]:
//!
//! * [`BlockCtx::strided_loop`] — a grid-stride loop over `items`
//!   elements (LOGAN's anti-diagonal segments, paper Fig. 3): charges
//!   `ceil(active/32)` warp instructions per instruction per round, so
//!   one active lane in a warp costs as much as thirty-two;
//! * [`BlockCtx::charge_block_reduce`] — the cost of the in-warp
//!   shuffle reduction LOGAN uses for the anti-diagonal maximum (§IV-A),
//!   with the partials staged through shared memory;
//! * [`BlockCtx::hbm_read`] / [`BlockCtx::hbm_write`] — effective DRAM
//!   traffic under the coalescing model;
//! * [`BlockCtx::sync_threads`], [`BlockCtx::thread0`],
//!   [`BlockCtx::alloc_shared`] — barriers, serial sections, shared
//!   memory reservations.

use crate::counters::BlockCounters;
use crate::mem::AccessPattern;

/// A kernel executed one block at a time.
pub trait BlockKernel: Sync {
    /// Per-block result returned to the host.
    type Output: Send;

    /// Execute one block. `block_id` plays the role of `blockIdx.x`.
    fn run_block(&self, ctx: &mut BlockCtx, block_id: usize) -> Self::Output;
}

/// Execution context of a single block.
#[derive(Debug, Clone)]
pub struct BlockCtx {
    threads: usize,
    warp_size: usize,
    shared_limit: usize,
    shared_used: usize,
    /// Cost and traffic accounting for this block.
    pub counters: BlockCounters,
}

/// Error raised when a block over-subscribes shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedMemExceeded {
    /// Bytes requested in the failing allocation.
    pub requested: usize,
    /// Per-block limit.
    pub limit: usize,
    /// Already reserved.
    pub used: usize,
}

impl std::fmt::Display for SharedMemExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shared memory exceeded: requested {} with {} of {} used",
            self.requested, self.used, self.limit
        )
    }
}

impl std::error::Error for SharedMemExceeded {}

impl BlockCtx {
    /// Create a context for a block of `threads` threads.
    pub fn new(threads: usize, warp_size: usize, shared_limit: usize) -> BlockCtx {
        assert!(threads >= 1, "a block needs at least one thread");
        assert!(warp_size >= 1);
        BlockCtx {
            threads,
            warp_size,
            shared_limit,
            shared_used: 0,
            counters: BlockCounters::default(),
        }
    }

    /// Threads in this block (`blockDim.x`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Warps in this block.
    pub fn warps(&self) -> usize {
        self.threads.div_ceil(self.warp_size)
    }

    /// Shared memory bytes reserved so far.
    pub fn shared_used(&self) -> usize {
        self.shared_used
    }

    /// Reserve `bytes` of shared memory for the block's lifetime.
    pub fn alloc_shared(&mut self, bytes: usize) -> Result<(), SharedMemExceeded> {
        if self.shared_used + bytes > self.shared_limit {
            return Err(SharedMemExceeded {
                requested: bytes,
                limit: self.shared_limit,
                used: self.shared_used,
            });
        }
        self.shared_used += bytes;
        Ok(())
    }

    /// Account a grid-stride loop over `items` elements, each costing
    /// `instr_per_item` thread-level instructions. Returns nothing — the
    /// caller performs the actual element computation itself (typically
    /// in one pass over a slice); this method only books the SIMT cost.
    pub fn strided_loop(&mut self, items: usize, instr_per_item: u32) {
        if items == 0 {
            return;
        }
        let t = self.threads;
        let mut remaining = items;
        while remaining > 0 {
            let active = remaining.min(t);
            let warps_issuing = active.div_ceil(self.warp_size) as u64;
            self.counters.warp_instructions += warps_issuing * instr_per_item as u64;
            self.counters.thread_ops += active as u64 * instr_per_item as u64;
            remaining -= active;
        }
    }

    /// Account a serial section executed by thread 0 while the rest of
    /// the block waits (e.g. LOGAN's anti-diagonal bounds update).
    pub fn thread0(&mut self, instructions: u32) {
        self.counters.warp_instructions += instructions as u64;
        self.counters.thread_ops += instructions as u64;
    }

    /// `__syncthreads()`: one barrier instruction per warp.
    pub fn sync_threads(&mut self) {
        self.counters.barriers += 1;
        self.counters.warp_instructions += self.warps() as u64;
    }

    /// Account an HBM read of `bytes` payload with the given pattern and
    /// element size.
    pub fn hbm_read(&mut self, bytes: u64, pattern: AccessPattern, element_size: u64) {
        self.counters.hbm_read_bytes += pattern.effective_bytes(bytes, element_size);
        self.counters.hbm_transactions += pattern.transactions(bytes, element_size);
    }

    /// Account an HBM write.
    pub fn hbm_write(&mut self, bytes: u64, pattern: AccessPattern, element_size: u64) {
        self.counters.hbm_write_bytes += pattern.effective_bytes(bytes, element_size);
        self.counters.hbm_transactions += pattern.transactions(bytes, element_size);
    }

    /// Record one parallel iteration (one anti-diagonal for LOGAN) with
    /// `active` threads doing useful work — feeds the adapted roofline
    /// ceiling (paper Eq. 1).
    pub fn record_iteration(&mut self, active: usize) {
        self.counters.iterations += 1;
        self.counters.active_thread_sum += active.min(self.threads) as u64;
    }

    /// Account `cycles` of serial dependency latency (e.g. the
    /// store→load round trip between consecutive anti-diagonals). Stalls
    /// do not consume issue slots — with enough resident blocks they
    /// hide behind other blocks' work — but they bound how fast a single
    /// block can finish.
    pub fn stall(&mut self, cycles: u64) {
        self.counters.stall_cycles += cycles;
    }

    /// Book the cost of a block-wide max-with-index reduction over
    /// `lanes` participating threads, without computing anything: for
    /// callers that already hold the exact maximum (the kernel's host
    /// engines) or model a reduction whose values do not matter.
    pub fn charge_block_reduce(&mut self, lanes: usize) {
        assert!(lanes <= self.threads, "more lane values than threads");
        assert!(lanes > 0, "reduction over no lanes");

        // Cost model: each shuffle level is shuffle + compare + select
        // (3 warp instructions) per active warp; log2(warp_size) levels.
        let levels = (usize::BITS - (self.warp_size - 1).leading_zeros()) as u64;
        let warps = lanes.div_ceil(self.warp_size) as u64;
        self.counters.warp_instructions += warps * levels * 3;
        self.counters.thread_ops += lanes as u64 * levels * 3;
        // One partial (value + index = 8 bytes) per warp through shared.
        self.counters.shared_bytes += warps * 8;
        self.sync_threads();
        if warps > 1 {
            self.counters.warp_instructions += levels * 3;
            self.counters.shared_bytes += warps * 8;
            self.sync_threads();
        }
    }
}

#[cfg(test)]
impl BlockCtx {
    /// Block-wide max reduction with index, implemented the way the
    /// LOGAN kernel does it: per-warp `__shfl_down` trees, partials in
    /// shared memory, final tree in the first warp. Ties break toward
    /// the smallest index, matching the scalar reference's first-maximum
    /// scan.
    ///
    /// `lane_values` holds one `(value, index)` per participating thread
    /// (at most [`BlockCtx::threads`]); the returned pair is exact. This
    /// is the oracle [`BlockCtx::charge_block_reduce`] is pinned against.
    pub(crate) fn block_reduce_max_idx(&mut self, lane_values: &[(i32, usize)]) -> (i32, usize) {
        self.charge_block_reduce(lane_values.len());

        // Exact result with min-index tie-break.
        let mut best = lane_values[0];
        for &(v, i) in &lane_values[1..] {
            if v > best.0 || (v == best.0 && i < best.1) {
                best = (v, i);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(threads: usize) -> BlockCtx {
        BlockCtx::new(threads, 32, 48 * 1024)
    }

    #[test]
    fn strided_loop_full_warps() {
        let mut c = ctx(128);
        c.strided_loop(128, 10);
        // 128 items, 128 threads: one round, 4 warps, 10 instr each.
        assert_eq!(c.counters.warp_instructions, 40);
        assert_eq!(c.counters.thread_ops, 1280);
    }

    #[test]
    fn strided_loop_partial_warp_costs_full_warp() {
        let mut c = ctx(128);
        c.strided_loop(1, 10);
        // A single active lane still issues on a whole warp.
        assert_eq!(c.counters.warp_instructions, 10);
        assert_eq!(c.counters.thread_ops, 10);
    }

    #[test]
    fn strided_loop_multiple_rounds() {
        let mut c = ctx(64);
        c.strided_loop(130, 1);
        // Rounds: 64 + 64 + 2 → warps issuing 2 + 2 + 1 = 5.
        assert_eq!(c.counters.warp_instructions, 5);
        assert_eq!(c.counters.thread_ops, 130);
    }

    #[test]
    fn strided_loop_zero_items_free() {
        let mut c = ctx(64);
        c.strided_loop(0, 100);
        assert_eq!(c.counters.warp_instructions, 0);
    }

    #[test]
    fn serial_single_thread_is_expensive_per_item() {
        // The Table I "no parallelism" configuration: 1 thread.
        let mut serial = ctx(1);
        serial.strided_loop(1000, 10);
        let mut parallel = ctx(128);
        parallel.strided_loop(1000, 10);
        assert_eq!(serial.counters.warp_instructions, 10_000);
        // 1000 items / 128 threads: 8 rounds — 7 full (4 warps) + 1 with
        // 104 active (4 warps, last partially filled).
        assert_eq!(parallel.counters.warp_instructions, 320);
    }

    #[test]
    fn reduce_exact_and_tiebreak() {
        let mut c = ctx(64);
        let vals: Vec<(i32, usize)> = vec![(3, 5), (9, 7), (9, 2), (1, 0)];
        let (v, i) = c.block_reduce_max_idx(&vals);
        assert_eq!((v, i), (9, 2), "ties break toward the smaller index");
        assert!(c.counters.warp_instructions > 0);
        assert!(c.counters.barriers >= 1);
    }

    #[test]
    fn reduce_cost_scales_with_warps() {
        let mut small = ctx(32);
        let mut big = ctx(1024);
        let vals32: Vec<(i32, usize)> = (0..32).map(|i| (i as i32, i)).collect();
        let vals1024: Vec<(i32, usize)> = (0..1024).map(|i| (i as i32, i)).collect();
        small.block_reduce_max_idx(&vals32);
        big.block_reduce_max_idx(&vals1024);
        assert!(big.counters.warp_instructions > small.counters.warp_instructions);
        assert!(big.counters.shared_bytes > small.counters.shared_bytes);
    }

    #[test]
    fn charged_reduce_costs_what_the_reduction_does() {
        for (threads, lanes) in [(32, 1), (32, 32), (128, 33), (1024, 1024)] {
            let vals: Vec<(i32, usize)> = (0..lanes).map(|i| (i as i32, i)).collect();
            let mut reduced = ctx(threads);
            reduced.block_reduce_max_idx(&vals);
            let mut charged = ctx(threads);
            charged.charge_block_reduce(lanes);
            assert_eq!(charged.counters, reduced.counters, "{lanes} of {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "no lanes")]
    fn reduce_empty_panics() {
        let mut c = ctx(32);
        let _ = c.block_reduce_max_idx(&[]);
    }

    #[test]
    fn shared_memory_limit_enforced() {
        let mut c = ctx(128);
        assert!(c.alloc_shared(40 * 1024).is_ok());
        let err = c.alloc_shared(9 * 1024).unwrap_err();
        assert_eq!(err.used, 40 * 1024);
        assert!(err.to_string().contains("shared memory exceeded"));
        assert_eq!(c.shared_used(), 40 * 1024);
    }

    #[test]
    fn hbm_accounting_patterns() {
        let mut c = ctx(128);
        c.hbm_read(128, AccessPattern::Coalesced, 4);
        c.hbm_write(128, AccessPattern::Strided, 4);
        assert_eq!(c.counters.hbm_read_bytes, 128);
        assert_eq!(c.counters.hbm_write_bytes, 1024);
        assert_eq!(c.counters.hbm_transactions, 4 + 32);
    }

    #[test]
    fn sync_counts_warps() {
        let mut c = ctx(256);
        c.sync_threads();
        assert_eq!(c.counters.warp_instructions, 8);
        assert_eq!(c.counters.barriers, 1);
    }

    #[test]
    fn record_iteration_clamps_to_threads() {
        let mut c = ctx(64);
        c.record_iteration(1000);
        c.record_iteration(10);
        assert_eq!(c.counters.iterations, 2);
        assert_eq!(c.counters.active_thread_sum, 64 + 10);
    }
}
