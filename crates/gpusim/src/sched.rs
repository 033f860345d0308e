//! The SM wave scheduler: block costs → simulated kernel time.
//!
//! Blocks are dealt round-robin to SMs in launch order (the hardware's
//! work distributor is close to this for uniform grids). Each SM runs a
//! processor-sharing simulation of its queue: up to `resident` blocks
//! co-execute; the SM's integer issue rate is scaled by an occupancy
//! factor `min(1, resident_warps / warps_to_saturate_sm)` — few warps
//! cannot hide issue latency, which is exactly why the paper's
//! intra-sequence-only configuration leaves the GPU idle (Table I) and
//! why LOGAN schedules threads proportional to X (§IV-B).
//!
//! Kernel time is `max(compute, memory) + launch overhead`: compute and
//! HBM traffic overlap on a GPU, so the slower of the two rules — the
//! same bound-and-bottleneck logic as the roofline of §VII.

use crate::spec::DeviceSpec;
use serde::Serialize;

/// Cost summary of one block, fed to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCost {
    /// Warp-level instructions the block issues.
    pub warp_instructions: u64,
    /// Serial dependency stall cycles (do not consume issue slots).
    pub stall_cycles: u64,
}

/// Result of scheduling one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScheduleResult {
    /// Pure compute time (instruction issue), seconds.
    pub compute_time_s: f64,
    /// Pure memory time (HBM traffic / bandwidth), seconds.
    pub mem_time_s: f64,
    /// `max(compute, mem) + launch overhead`, seconds.
    pub kernel_time_s: f64,
    /// Number of waves (ceil(blocks / device-resident capacity)).
    pub waves: usize,
    /// Fraction of the device's integer issue capacity actually used
    /// during `compute_time_s` (1.0 = perfectly saturated).
    pub utilization: f64,
}

/// Schedule `costs` blocks of `threads` threads / `shared` bytes each,
/// with `total_hbm_bytes` of effective DRAM traffic, on `spec`.
pub fn schedule(
    spec: &DeviceSpec,
    costs: &[BlockCost],
    threads: usize,
    shared: usize,
    total_hbm_bytes: u64,
) -> ScheduleResult {
    let overhead = spec.launch_overhead_us * 1e-6;
    if costs.is_empty() {
        return ScheduleResult {
            compute_time_s: 0.0,
            mem_time_s: 0.0,
            kernel_time_s: overhead,
            waves: 0,
            utilization: 0.0,
        };
    }
    let resident = spec.blocks_resident_per_sm(threads, shared).max(1);
    let warps_per_block = threads.div_ceil(spec.warp_size);
    let sm_rate = spec.sm_int_warp_gips() * 1e9; // warp instr / s at full occupancy

    // Deal blocks to SMs round-robin in launch order.
    let sm_count = spec.sm_count;
    let mut queues: Vec<Vec<BlockCost>> = vec![Vec::new(); sm_count];
    for (i, c) in costs.iter().enumerate() {
        queues[i % sm_count].push(*c);
    }

    // Processor-sharing simulation per SM.
    let mut device_time: f64 = 0.0;
    for queue in &queues {
        device_time = device_time.max(sm_time(queue, resident, warps_per_block, spec, sm_rate));
    }

    let total_instr: u64 = costs.iter().map(|c| c.warp_instructions).sum();
    let mem_time_s = total_hbm_bytes as f64 / (spec.hbm_bw_gbps * 1e9);
    let compute_time_s = device_time;
    let kernel_time_s = compute_time_s.max(mem_time_s) + overhead;
    let utilization = if compute_time_s > 0.0 {
        (total_instr as f64 / (spec.int_warp_gips() * 1e9 * compute_time_s)).min(1.0)
    } else {
        0.0
    };
    ScheduleResult {
        compute_time_s,
        mem_time_s,
        kernel_time_s,
        waves: costs.len().div_ceil(resident * sm_count),
        utilization,
    }
}

/// Processor-sharing time for one SM's queue.
///
/// Two bounds combine: (a) issue-slot sharing among co-resident blocks
/// under the occupancy curve; (b) serial stall latency, which pipelines
/// across the `resident` concurrent block slots (independent blocks'
/// stalls overlap) but cannot be compressed below
/// `Σ stalls / resident`.
fn sm_time(
    queue: &[BlockCost],
    resident: usize,
    warps_per_block: usize,
    spec: &DeviceSpec,
    sm_rate: f64,
) -> f64 {
    if queue.is_empty() {
        return 0.0;
    }
    let occupancy = |c: usize| -> f64 {
        let warps = (c * warps_per_block) as f64;
        (warps / spec.warps_to_saturate_sm as f64).min(1.0)
    };

    let mut time = 0.0f64;
    let mut idx = 0usize; // next block to load
    let mut running: Vec<u64> = Vec::with_capacity(resident);
    while idx < queue.len() && running.len() < resident {
        running.push(queue[idx].warp_instructions);
        idx += 1;
    }
    while !running.is_empty() {
        let c = running.len();
        let rate = sm_rate * occupancy(c); // aggregate warp-instr/s
        let per_block_rate = rate / c as f64;
        // Advance until the smallest remaining block finishes.
        let min_rem = *running.iter().min().expect("non-empty");
        let dt = min_rem as f64 / per_block_rate;
        time += dt;
        for r in running.iter_mut() {
            *r -= min_rem;
        }
        running.retain(|&r| r > 0);
        while idx < queue.len() && running.len() < resident {
            running.push(queue[idx].warp_instructions);
            idx += 1;
        }
    }

    let total_stall_cycles: u64 = queue.iter().map(|c| c.stall_cycles).sum();
    let slots = resident.min(queue.len()).max(1);
    let stall_floor = total_stall_cycles as f64 / slots as f64 / (spec.clock_ghz * 1e9);
    time.max(stall_floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, instr: u64) -> Vec<BlockCost> {
        vec![
            BlockCost {
                warp_instructions: instr,
                stall_cycles: 0,
            };
            n
        ]
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let spec = DeviceSpec::v100();
        let r = schedule(&spec, &[], 128, 0, 0);
        assert_eq!(r.compute_time_s, 0.0);
        assert!((r.kernel_time_s - 5e-6).abs() < 1e-12);
        assert_eq!(r.waves, 0);
    }

    #[test]
    fn single_block_uses_one_sm_poorly() {
        let spec = DeviceSpec::v100();
        let one = schedule(&spec, &uniform(1, 1_000_000), 128, 0, 0);
        let many = schedule(&spec, &uniform(12_800, 1_000_000), 128, 0, 0);
        // 12800 blocks spread over 80 SMs at good occupancy should be far
        // less than 12800x the single-block time — inter-sequence
        // parallelism is nearly free (Table I's 22,000x argument).
        assert!(many.compute_time_s < one.compute_time_s * 12_800.0 / 100.0);
        assert!(one.utilization < 0.01);
        assert!(many.utilization > 0.5);
    }

    #[test]
    fn more_threads_saturate_one_sm_better() {
        let spec = DeviceSpec::v100();
        // Same total instructions; one block; more warps hide latency.
        let narrow = schedule(&spec, &uniform(1, 1_000_000), 32, 0, 0);
        let wide = schedule(&spec, &uniform(1, 1_000_000), 512, 0, 0);
        assert!(wide.compute_time_s < narrow.compute_time_s);
    }

    #[test]
    fn compute_scales_inverse_with_blocks_until_saturation() {
        let spec = DeviceSpec::v100();
        let t80 = schedule(&spec, &uniform(80, 1_000_000), 128, 0, 0);
        let t160 = schedule(&spec, &uniform(160, 1_000_000), 128, 0, 0);
        // 80 blocks: one per SM at 4/16 occupancy. 160: two per SM at
        // 8/16 occupancy → same time, not double.
        assert!((t160.compute_time_s - t80.compute_time_s).abs() / t80.compute_time_s < 0.01);
    }

    #[test]
    fn memory_bound_kernel_ruled_by_bandwidth() {
        let spec = DeviceSpec::v100();
        // Tiny compute, huge traffic: 90 GB at 900 GB/s = 0.1 s.
        let r = schedule(&spec, &uniform(1000, 100), 128, 0, 90_000_000_000);
        assert!((r.mem_time_s - 0.1).abs() < 1e-9);
        assert!(r.kernel_time_s >= 0.1);
        assert!(r.compute_time_s < r.mem_time_s);
    }

    #[test]
    fn shared_memory_reduces_residency_and_slows_down() {
        let spec = DeviceSpec::v100();
        let blocks = uniform(2560, 1_000_000);
        // 48KB/block -> 2 resident/SM; 0KB -> 16 resident (thread-bound).
        let hog = schedule(&spec, &blocks, 128, 48 * 1024, 0);
        let lean = schedule(&spec, &blocks, 128, 0, 0);
        assert!(
            hog.compute_time_s > lean.compute_time_s * 1.5,
            "hog {} vs lean {}",
            hog.compute_time_s,
            lean.compute_time_s
        );
        assert!(hog.waves > lean.waves);
    }

    #[test]
    fn waves_counted() {
        let spec = DeviceSpec::v100();
        // resident for 1024-thread blocks = 2/SM → capacity 160.
        let r = schedule(&spec, &uniform(320, 1000), 1024, 0, 0);
        assert_eq!(r.waves, 2);
    }

    #[test]
    fn imbalanced_tail_extends_time() {
        let spec = DeviceSpec::tiny();
        let mut costs = uniform(16, 1000);
        costs.push(BlockCost {
            warp_instructions: 1_000_000,
            stall_cycles: 0,
        });
        let balanced = schedule(&spec, &uniform(17, 1000), 64, 0, 0);
        let skewed = schedule(&spec, &costs, 64, 0, 0);
        assert!(skewed.compute_time_s > 10.0 * balanced.compute_time_s);
    }

    #[test]
    fn utilization_bounded() {
        let spec = DeviceSpec::v100();
        let r = schedule(&spec, &uniform(100_000, 10_000), 128, 0, 0);
        assert!(r.utilization > 0.9 && r.utilization <= 1.0);
    }

    #[test]
    fn deterministic() {
        let spec = DeviceSpec::v100();
        let costs: Vec<BlockCost> = (0..1000)
            .map(|i| BlockCost {
                warp_instructions: 1000 + (i % 37) * 11,
                stall_cycles: i % 5,
            })
            .collect();
        let a = schedule(&spec, &costs, 128, 0, 1 << 20);
        let b = schedule(&spec, &costs, 128, 0, 1 << 20);
        assert_eq!(a, b);
    }

    #[test]
    fn stalls_set_a_latency_floor() {
        let spec = DeviceSpec::v100();
        // One block, almost no instructions, one second of stalls.
        let costs = vec![BlockCost {
            warp_instructions: 10,
            stall_cycles: (spec.clock_ghz * 1e9) as u64,
        }];
        let r = schedule(&spec, &costs, 128, 0, 0);
        assert!((r.compute_time_s - 1.0).abs() < 1e-3);
        // With many such blocks resident together the stalls pipeline.
        let many = vec![
            BlockCost {
                warp_instructions: 10,
                stall_cycles: (spec.clock_ghz * 1e6) as u64,
            };
            1600
        ];
        let rm = schedule(&spec, &many, 128, 0, 0);
        // 1600 blocks / 80 SMs = 20 per SM queue, 16 resident → the
        // 1 ms stalls overlap: well under 20 ms per SM.
        assert!(rm.compute_time_s < 0.005, "got {}", rm.compute_time_s);
    }
}
