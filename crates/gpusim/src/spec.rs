//! Device specifications.

/// Static description of a simulated GPU.
///
/// The default, [`DeviceSpec::v100`], mirrors the NVIDIA Tesla V100
/// (16 GB HBM2) of the paper's testbed and of its §VII roofline:
/// 80 SMs × 4 warp schedulers × 1 instruction/cycle × 1.53 GHz
/// = 489.6 warp GIPS peak issue rate; each scheduler's processing block
/// has 16 INT32 cores, so integer code sustains half the issue rate.
///
/// Note: the paper quotes 220.8 integer warp GIPS; the formula it states
/// (`16/32 × 489.6`) evaluates to 244.8. We implement the formula, not
/// the misprint, and say so in EXPERIMENTS.md.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Streaming multiprocessors.
    pub sm_count: usize,
    /// Warp schedulers (processing blocks) per SM.
    pub warp_schedulers_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// INT32 cores per warp scheduler.
    pub int32_cores_per_scheduler: usize,
    /// Shared memory per SM, bytes.
    pub shared_mem_per_sm: usize,
    /// Maximum shared memory a single block may reserve, bytes.
    pub shared_mem_per_block_max: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// HBM capacity in bytes.
    pub hbm_bytes: u64,
    /// HBM bandwidth, GB/s.
    pub hbm_bw_gbps: f64,
    /// L2 cache size, bytes. Working sets that fit in L2 across all
    /// resident blocks do not pay HBM streaming traffic.
    pub l2_bytes: u64,
    /// Host link (PCIe/NVLink) bandwidth, GB/s.
    pub link_bw_gbps: f64,
    /// Fixed kernel launch overhead, microseconds.
    pub launch_overhead_us: f64,
    /// Warps an SM must hold to hide issue latency (occupancy knee).
    pub warps_to_saturate_sm: usize,
}

impl DeviceSpec {
    /// The paper's GPU: NVIDIA Tesla V100 SXM2 16 GB.
    pub fn v100() -> DeviceSpec {
        DeviceSpec {
            name: "Tesla V100-SXM2-16GB (simulated)".to_string(),
            sm_count: 80,
            warp_schedulers_per_sm: 4,
            warp_size: 32,
            clock_ghz: 1.53,
            int32_cores_per_scheduler: 16,
            shared_mem_per_sm: 96 * 1024,
            shared_mem_per_block_max: 64 * 1024,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            max_threads_per_sm: 2048,
            hbm_bytes: 16 * 1024 * 1024 * 1024,
            hbm_bw_gbps: 900.0,
            l2_bytes: 6 * 1024 * 1024,
            link_bw_gbps: 16.0,
            launch_overhead_us: 5.0,
            warps_to_saturate_sm: 16,
        }
    }

    /// A deliberately tiny device for tests (2 SMs): occupancy and wave
    /// effects show up at small block counts.
    pub fn tiny() -> DeviceSpec {
        DeviceSpec {
            name: "TinySim-2SM".to_string(),
            sm_count: 2,
            warp_schedulers_per_sm: 2,
            warp_size: 32,
            clock_ghz: 1.0,
            int32_cores_per_scheduler: 16,
            shared_mem_per_sm: 8 * 1024,
            shared_mem_per_block_max: 4 * 1024,
            max_threads_per_block: 256,
            max_blocks_per_sm: 4,
            max_threads_per_sm: 512,
            hbm_bytes: 64 * 1024 * 1024,
            hbm_bw_gbps: 50.0,
            l2_bytes: 256 * 1024,
            link_bw_gbps: 8.0,
            launch_overhead_us: 5.0,
            warps_to_saturate_sm: 4,
        }
    }

    /// Peak warp-instruction issue rate, GIPS (the paper's 489.6 for the
    /// V100).
    pub fn warp_gips(&self) -> f64 {
        self.sm_count as f64 * self.warp_schedulers_per_sm as f64 * self.clock_ghz
    }

    /// Sustained integer warp GIPS: INT32 cores cover only
    /// `int32_cores_per_scheduler / warp_size` of a warp per cycle.
    pub fn int_warp_gips(&self) -> f64 {
        self.warp_gips() * self.int32_cores_per_scheduler as f64 / self.warp_size as f64
    }

    /// Integer warp GIPS available to a single SM.
    pub(crate) fn sm_int_warp_gips(&self) -> f64 {
        self.int_warp_gips() / self.sm_count as f64
    }

    /// Total INT32 cores on the device (`MAXR` in the paper's Eq. 1).
    pub fn int32_cores_total(&self) -> usize {
        self.sm_count * self.warp_schedulers_per_sm * self.int32_cores_per_scheduler
    }

    /// How many blocks of `threads` threads and `shared` shared bytes can
    /// be resident on one SM at once.
    pub fn blocks_resident_per_sm(&self, threads: usize, shared: usize) -> usize {
        assert!(threads >= 1, "a block needs at least one thread");
        let by_blocks = self.max_blocks_per_sm;
        let by_threads = self.max_threads_per_sm / threads.min(self.max_threads_per_block);
        let by_shared = self
            .shared_mem_per_sm
            .checked_div(shared)
            .unwrap_or(usize::MAX);
        by_blocks.min(by_threads).min(by_shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_matches_paper_figures() {
        let v = DeviceSpec::v100();
        assert!((v.warp_gips() - 489.6).abs() < 1e-9);
        // The honest evaluation of the paper's own formula.
        assert!((v.int_warp_gips() - 244.8).abs() < 1e-9);
        assert_eq!(v.int32_cores_total(), 5120);
        assert_eq!(v.hbm_bytes, 17_179_869_184);
    }

    #[test]
    fn residency_limited_by_threads() {
        let v = DeviceSpec::v100();
        // 1024-thread blocks: only 2 fit (2048-thread SM budget).
        assert_eq!(v.blocks_resident_per_sm(1024, 0), 2);
        // 64-thread blocks: the 32-block cap binds.
        assert_eq!(v.blocks_resident_per_sm(64, 0), 32);
    }

    #[test]
    fn residency_limited_by_shared_memory() {
        let v = DeviceSpec::v100();
        // A block reserving 48 KB leaves room for exactly two on a 96 KB
        // SM — the §IV-B argument for keeping anti-diagonals in HBM.
        assert_eq!(v.blocks_resident_per_sm(128, 48 * 1024), 2);
        assert_eq!(v.blocks_resident_per_sm(128, 64 * 1024), 1);
    }

    #[test]
    fn sm_rate_is_share_of_total() {
        let v = DeviceSpec::v100();
        assert!((v.sm_int_warp_gips() * v.sm_count as f64 - v.int_warp_gips()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_thread_block_rejected() {
        let _ = DeviceSpec::v100().blocks_resident_per_sm(0, 0);
    }
}
