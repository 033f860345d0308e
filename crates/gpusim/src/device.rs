//! The device façade: kernel launches, memory, transfers, timelines.

use crate::block::{BlockCtx, BlockKernel};
use crate::counters::KernelStats;
use crate::mem::{DeviceMemory, OutOfMemory};
use crate::sched::{schedule, BlockCost, ScheduleResult};
use crate::spec::DeviceSpec;
use parking_lot::Mutex;
use rayon::prelude::*;
use serde::Serialize;

/// Grid configuration of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LaunchConfig {
    /// Number of blocks (`gridDim.x`).
    pub blocks: usize,
    /// Threads per block (`blockDim.x`).
    pub threads_per_block: usize,
    /// Shared memory reserved per block, bytes (drives SM residency).
    pub shared_per_block: usize,
}

/// Everything the simulator knows about one completed launch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KernelReport {
    /// Aggregated counters.
    pub stats: KernelStats,
    /// Scheduler outcome.
    pub schedule: ScheduleResult,
    /// The launch configuration.
    pub config: LaunchConfig,
    /// Per-block costs, retained so harnesses can *re-schedule* a
    /// measured batch at a different replication factor (tiling the
    /// block set is how scaled-down benchmark runs are projected to
    /// paper scale without assuming time linearity — occupancy and
    /// stall pipelining are re-simulated, not extrapolated).
    #[serde(skip)]
    pub block_costs: Vec<BlockCost>,
}

impl KernelReport {
    /// Re-run the wave scheduler with the block set tiled `replicas`
    /// times (and HBM traffic scaled accordingly). Returns the projected
    /// kernel time in seconds.
    pub fn reschedule_tiled(&self, spec: &DeviceSpec, replicas: usize) -> f64 {
        assert!(replicas >= 1);
        if self.block_costs.is_empty() {
            return self.schedule.kernel_time_s;
        }
        let mut tiled = Vec::with_capacity(self.block_costs.len() * replicas);
        for _ in 0..replicas {
            tiled.extend_from_slice(&self.block_costs);
        }
        let sched = schedule(
            spec,
            &tiled,
            self.config.threads_per_block,
            self.config.shared_per_block,
            self.stats.total.hbm_bytes() * replicas as u64,
        );
        sched.kernel_time_s
    }
}

impl KernelReport {
    /// Simulated kernel time in seconds.
    pub fn sim_time_s(&self) -> f64 {
        self.schedule.kernel_time_s
    }

    /// Giga cell updates per *simulated* second, using the work items the
    /// kernel attributed to itself.
    pub fn gcups(&self) -> f64 {
        if self.sim_time_s() == 0.0 {
            return 0.0;
        }
        self.stats.work_items as f64 / self.sim_time_s() / 1e9
    }
}

/// A simulated GPU.
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    memory: Mutex<DeviceMemory>,
    /// Ordinal of this device in a multi-GPU system (for reports).
    pub ordinal: usize,
}

impl Device {
    /// Bring up a device of the given spec.
    pub fn new(spec: DeviceSpec) -> Device {
        let memory = Mutex::new(DeviceMemory::new(spec.hbm_bytes));
        Device {
            spec,
            memory,
            ordinal: 0,
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Reserve HBM.
    pub fn alloc(&self, bytes: u64) -> Result<(), OutOfMemory> {
        self.memory.lock().alloc(bytes)
    }

    /// Release HBM.
    pub fn free(&self, bytes: u64) {
        self.memory.lock().free(bytes);
    }

    /// Bytes of HBM currently allocated.
    pub fn mem_used(&self) -> u64 {
        self.memory.lock().used()
    }

    /// Bytes of HBM free.
    pub fn mem_free(&self) -> u64 {
        self.memory.lock().free_bytes()
    }

    /// Time to move `bytes` across the host link, seconds.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.spec.link_bw_gbps * 1e9)
    }

    /// Launch `kernel` over `config.blocks` blocks.
    ///
    /// Blocks execute in parallel on the host thread pool; per-block
    /// outputs come back in block order and the per-block counters are
    /// folded into a [`KernelReport`]. The report's time is *simulated*
    /// device time from the wave scheduler — host wall-clock plays no
    /// part in it.
    pub fn launch<K: BlockKernel>(
        &self,
        config: LaunchConfig,
        kernel: &K,
    ) -> (Vec<K::Output>, KernelReport) {
        assert!(
            config.threads_per_block >= 1
                && config.threads_per_block <= self.spec.max_threads_per_block,
            "threads per block {} outside 1..={}",
            config.threads_per_block,
            self.spec.max_threads_per_block
        );
        assert!(
            config.shared_per_block <= self.spec.shared_mem_per_block_max,
            "shared memory {} exceeds per-block limit {}",
            config.shared_per_block,
            self.spec.shared_mem_per_block_max
        );

        let shared_limit = self.spec.shared_mem_per_block_max;
        let warp = self.spec.warp_size;
        let threads = config.threads_per_block;

        let mut results: Vec<(K::Output, crate::counters::BlockCounters)> = (0..config.blocks)
            .into_par_iter()
            .map(|block_id| {
                let mut ctx = BlockCtx::new(threads, warp, shared_limit);
                let out = kernel.run_block(&mut ctx, block_id);
                (out, ctx.counters)
            })
            .collect();

        let counters: Vec<crate::counters::BlockCounters> =
            results.iter().map(|(_, c)| *c).collect();
        let outputs: Vec<K::Output> = results.drain(..).map(|(o, _)| o).collect();

        let stats = KernelStats::from_blocks(&counters, threads, config.shared_per_block);
        let costs: Vec<BlockCost> = counters
            .iter()
            .map(|c| BlockCost {
                warp_instructions: c.warp_instructions,
                stall_cycles: c.stall_cycles,
            })
            .collect();
        let sched = schedule(
            &self.spec,
            &costs,
            threads,
            config.shared_per_block,
            stats.total.hbm_bytes(),
        );
        (
            outputs,
            KernelReport {
                stats,
                schedule: sched,
                config,
                block_costs: costs,
            },
        )
    }
}

/// A simulated-time accumulator for one device's command queue: kernels
/// execute back to back; host↔device transfers may overlap the previous
/// kernel (LOGAN retrieves results asynchronously, §IV-B).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timeline {
    seconds: f64,
    last_kernel_s: f64,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Enqueue a kernel.
    pub fn add_kernel(&mut self, report: &KernelReport) {
        self.seconds += report.sim_time_s();
        self.last_kernel_s = report.sim_time_s();
    }

    /// Enqueue a transfer of `transfer_s` seconds. When `overlapped`, it
    /// hides behind the previous kernel and only the excess is charged.
    pub fn add_transfer(&mut self, transfer_s: f64, overlapped: bool) {
        if overlapped {
            self.seconds += (transfer_s - self.last_kernel_s).max(0.0);
        } else {
            self.seconds += transfer_s;
        }
        self.last_kernel_s = 0.0;
    }

    /// Total simulated seconds.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AccessPattern;

    /// A toy kernel: each block sums `items` numbers with a strided loop
    /// and returns the sum.
    struct SumKernel {
        items: usize,
    }

    impl BlockKernel for SumKernel {
        type Output = u64;
        fn run_block(&self, ctx: &mut BlockCtx, block_id: usize) -> u64 {
            ctx.strided_loop(self.items, 4);
            ctx.hbm_read((self.items * 4) as u64, AccessPattern::Coalesced, 4);
            ctx.record_iteration(self.items.min(ctx.threads()));
            // Real work: a deterministic sum so outputs are checkable.
            (0..self.items as u64).map(|i| i + block_id as u64).sum()
        }
    }

    #[test]
    fn launch_returns_outputs_in_block_order() {
        let dev = Device::new(DeviceSpec::tiny());
        let (out, report) = dev.launch(
            LaunchConfig {
                blocks: 8,
                threads_per_block: 64,
                shared_per_block: 0,
            },
            &SumKernel { items: 100 },
        );
        assert_eq!(out.len(), 8);
        for (b, &o) in out.iter().enumerate() {
            let expect: u64 = (0..100u64).map(|i| i + b as u64).sum();
            assert_eq!(o, expect);
        }
        assert_eq!(report.stats.blocks, 8);
        assert!(report.sim_time_s() > 0.0);
    }

    #[test]
    fn launch_is_deterministic_despite_parallel_host() {
        let dev = Device::new(DeviceSpec::v100());
        let cfg = LaunchConfig {
            blocks: 500,
            threads_per_block: 128,
            shared_per_block: 0,
        };
        let (_, a) = dev.launch(cfg, &SumKernel { items: 333 });
        let (_, b) = dev.launch(cfg, &SumKernel { items: 333 });
        assert_eq!(a, b);
    }

    #[test]
    fn zero_blocks_allowed() {
        let dev = Device::new(DeviceSpec::tiny());
        let (out, report) = dev.launch(
            LaunchConfig {
                blocks: 0,
                threads_per_block: 32,
                shared_per_block: 0,
            },
            &SumKernel { items: 10 },
        );
        assert!(out.is_empty());
        assert_eq!(report.schedule.waves, 0);
    }

    #[test]
    #[should_panic(expected = "threads per block")]
    fn oversized_block_rejected() {
        let dev = Device::new(DeviceSpec::tiny());
        let _ = dev.launch(
            LaunchConfig {
                blocks: 1,
                threads_per_block: 100_000,
                shared_per_block: 0,
            },
            &SumKernel { items: 1 },
        );
    }

    #[test]
    fn memory_interface() {
        let dev = Device::new(DeviceSpec::tiny());
        dev.alloc(1024).unwrap();
        assert_eq!(dev.mem_used(), 1024);
        dev.free(1024);
        assert_eq!(dev.mem_used(), 0);
        assert!(dev.alloc(u64::MAX).is_err());
    }

    #[test]
    fn gcups_uses_work_items() {
        let dev = Device::new(DeviceSpec::v100());
        let (_, mut report) = dev.launch(
            LaunchConfig {
                blocks: 100,
                threads_per_block: 128,
                shared_per_block: 0,
            },
            &SumKernel { items: 1000 },
        );
        assert_eq!(report.gcups(), 0.0, "no work items attributed yet");
        report.stats.work_items = 100 * 1000;
        assert!(report.gcups() > 0.0);
    }

    #[test]
    fn timeline_overlap_semantics() {
        let mut t = Timeline::new();
        let dev = Device::new(DeviceSpec::v100());
        let (_, report) = dev.launch(
            LaunchConfig {
                blocks: 1000,
                threads_per_block: 128,
                shared_per_block: 0,
            },
            &SumKernel { items: 2000 },
        );
        t.add_kernel(&report);
        let base = t.seconds();
        // A transfer shorter than the kernel fully hides.
        t.add_transfer(report.sim_time_s() * 0.5, true);
        assert!((t.seconds() - base).abs() < 1e-15);
        // A non-overlapped transfer is charged in full.
        t.add_transfer(0.25, false);
        assert!((t.seconds() - base - 0.25).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_matches_link() {
        let dev = Device::new(DeviceSpec::v100());
        // 16 GB/s → 1.6 GB in 0.1 s.
        let t = dev.transfer_time_s(1_600_000_000);
        assert!((t - 0.1).abs() < 1e-12);
    }
}
