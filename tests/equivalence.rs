//! Cross-crate integration tests: the LOGAN GPU pipeline, the CPU batch
//! aligner and the scalar reference must agree bit-for-bit, across
//! devices, GPU counts and chunking boundaries.

use logan::prelude::*;
use logan_align::seed_extend;

fn workload(n: usize, seed: u64) -> Vec<ReadPair> {
    PairSet::generate_with_lengths(n, 0.15, 600, 1200, seed).pairs
}

#[test]
fn gpu_cpu_reference_three_way_agreement() {
    let pairs = workload(32, 1);
    for x in [10, 100] {
        let gpu = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(x));
        let (gpu_res, _) = gpu.align_pairs(&pairs);

        let cpu = CpuBatchAligner::new(4);
        let ext = XDropExtender::new(Scoring::default(), x);
        let cpu_res = cpu.run(&pairs, &ext);

        for (i, p) in pairs.iter().enumerate() {
            let reference = seed_extend(&p.query, &p.target, p.seed, &ext);
            assert_eq!(gpu_res[i], reference, "gpu vs reference, pair {i}, x {x}");
            assert_eq!(
                cpu_res.results[i], reference,
                "cpu vs reference, pair {i}, x {x}"
            );
        }
    }
}

#[test]
fn device_generation_does_not_change_scores() {
    // A tiny 2-SM device and the V100 must produce identical alignment
    // results — only timings may differ.
    let pairs = workload(12, 2);
    let v100 = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50));
    let tiny = LoganExecutor::new(DeviceSpec::tiny(), LoganConfig::with_x(50));
    let (a, rep_a) = v100.align_pairs(&pairs);
    let (b, rep_b) = tiny.align_pairs(&pairs);
    assert_eq!(a, b);
    assert!(
        rep_b.sim_time_s > rep_a.sim_time_s,
        "a 2-SM device must be slower than 80 SMs"
    );
}

#[test]
fn multi_gpu_any_count_matches_single() {
    let pairs = workload(30, 3);
    let single = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(100));
    let (expect, _) = single.align_pairs(&pairs);
    for gpus in [2usize, 3, 5, 8] {
        let multi = Fleet::static_gpus(gpus, DeviceSpec::v100(), LoganConfig::with_x(100));
        let (got, report) = multi.align_pairs_static(&pairs);
        assert_eq!(got, expect, "{gpus} GPUs");
        assert_eq!(report.assignment_sizes.iter().sum::<usize>(), pairs.len());
    }
}

#[test]
fn scores_invariant_under_execution_policies() {
    let pairs = workload(10, 4);
    let baseline = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(40));
    let (expect, _) = baseline.align_pairs(&pairs);

    // Strided layout, fixed threads, shared-memory anti-diagonals: all
    // pure performance knobs.
    let mut variants = Vec::new();
    let mut cfg = LoganConfig::with_x(40);
    cfg.reversed_layout = false;
    variants.push(cfg);
    let mut cfg = LoganConfig::with_x(40);
    cfg.thread_policy = ThreadPolicy::Fixed(1024);
    variants.push(cfg);
    let mut cfg = LoganConfig::with_x(40);
    cfg.thread_policy = ThreadPolicy::Fixed(1);
    variants.push(cfg);
    let mut cfg = LoganConfig::with_x(40);
    cfg.antidiag_in_shared = true; // reads here are short enough
    variants.push(cfg);

    for (vi, cfg) in variants.into_iter().enumerate() {
        let exec = LoganExecutor::new(DeviceSpec::v100(), cfg);
        let (got, _) = exec.align_pairs(&pairs);
        assert_eq!(got, expect, "variant {vi}");
    }
}

#[test]
fn deterministic_across_runs() {
    let pairs = workload(16, 5);
    let exec = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(100));
    let (r1, rep1) = exec.align_pairs(&pairs);
    let (r2, rep2) = exec.align_pairs(&pairs);
    assert_eq!(r1, r2);
    assert_eq!(rep1.sim_time_s, rep2.sim_time_s);
    assert_eq!(rep1.total_cells, rep2.total_cells);
}
