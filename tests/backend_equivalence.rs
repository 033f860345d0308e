//! Differential test harness for the backend/fleet seam: every
//! [`AlignBackend`] — the CPU pool, one simulated GPU, the statically
//! partitioned multi-GPU deployment, and the work-stealing
//! heterogeneous fleet — must produce bit-identical
//! [`SeedExtendResult`]s for the same pairs, and the fleet's dynamic
//! schedule must be unobservable in every output: the results are
//! order-normalized back to input slots no matter which worker took
//! which chunk.
//!
//! The dynamic schedule is one event loop on the virtual clock, so a
//! rerun must reproduce the whole [`FleetReport`] — who took what, every
//! clock, the scoreboard — and not only the results; only the host wall
//! fields may differ. The threads left inside members (the CPU pool,
//! the GPU driver pool) write results back by index, so `logan-serve`'s
//! `Server` is the only real concurrency an outcome can depend on.

use logan::core::FleetReport;
use logan::prelude::*;
use proptest::prelude::*;

/// `r` with its host wall fields zeroed: everything a rerun must
/// reproduce.
fn without_wall(mut r: FleetReport) -> FleetReport {
    r.wall_s = 0.0;
    for w in &mut r.per_worker {
        w.wall_s = 0.0;
    }
    r
}

fn fleet_2gpu_cpu(x: i32) -> Fleet {
    let cfg = LoganConfig::with_x(x);
    Fleet::new(vec![
        Box::new(GpuBackend::new(
            LoganExecutor::new(DeviceSpec::v100(), cfg),
            1,
        )),
        Box::new(GpuBackend::new(
            LoganExecutor::new(DeviceSpec::v100(), cfg),
            1,
        )),
        Box::new(XDropCpuAligner::new(
            2,
            Scoring::default(),
            x,
            Engine::from_env(),
        )),
    ])
}

/// A deliberately skewed workload: a few long, low-error pairs (deep
/// extensions, heavy DP work) scattered among short and junk-identity
/// pairs (X-drop terminates almost immediately). Base counts poorly
/// predict cell counts here — the regime where static partitioning
/// strands devices idle.
fn skewed_pairs(seed: u64) -> Vec<ReadPair> {
    let mut pairs = PairSet::generate_with_lengths(40, 0.30, 400, 3000, seed).pairs;
    pairs.extend(PairSet::generate_with_lengths(6, 0.05, 4000, 6000, seed ^ 0xabcd).pairs);
    pairs.extend(PairSet::generate_with_lengths(20, 0.45, 2000, 5000, seed ^ 0x1234).pairs);
    // Interleave deterministically so heavy pairs are not contiguous.
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by_key(|&i| (i * 7919) % pairs.len());
    order.into_iter().map(|i| pairs[i].clone()).collect()
}

/// The static multi-GPU deployment is the reference: fleet output (dynamic
/// *and* static schedule) must be bit-identical to it, on balanced and
/// skewed workloads.
#[test]
fn fleet_output_is_bit_identical_to_static_multi_gpu() {
    for (name, pairs) in [
        ("balanced", PairSet::generate(32, 0.15, 99).pairs),
        ("skewed", skewed_pairs(7)),
    ] {
        let x = 50;
        let multi = Fleet::static_gpus(3, DeviceSpec::v100(), LoganConfig::with_x(x));
        let (want, want_rep) = multi.align_pairs_static(&pairs);
        // The same devices under the dynamic schedule.
        let (dynamic, dyn_rep) = multi.align_pairs(&pairs);
        assert_eq!(dynamic, want, "{name}: dynamic fleet != static multi-GPU");
        assert_eq!(dyn_rep.total_cells, want_rep.total_cells, "{name}");
        // A heterogeneous fleet, still bit-identical.
        let het = fleet_2gpu_cpu(x);
        let (het_res, _) = het.align_pairs(&pairs);
        assert_eq!(het_res, want, "{name}: heterogeneous fleet diverged");
        let (het_static, _) = het.align_pairs_static(&pairs);
        assert_eq!(het_static, want, "{name}: heterogeneous static diverged");
    }
}

/// Repeated dynamic runs agree with themselves: results, the whole
/// report but its wall fields, and the trace.
#[test]
fn dynamic_schedule_is_deterministic_across_runs() {
    let pairs = skewed_pairs(21);
    let fleet = fleet_2gpu_cpu(30);
    let (first, first_rep) = fleet.align_pairs(&pairs);
    let (first_rep, first_trace) = (without_wall(first_rep), fleet.trace());
    assert_eq!(
        first_rep.assignment_sizes.iter().sum::<usize>(),
        pairs.len()
    );
    for _ in 0..4 {
        let (again, rep) = fleet.align_pairs(&pairs);
        assert_eq!(again, first, "rerun diverged");
        assert_eq!(without_wall(rep), first_rep, "rerun report diverged");
        assert_eq!(fleet.trace(), first_trace);
    }
}

/// The full BELLA pipeline through a fleet backend — monolithic and
/// streaming (which drives all lanes concurrently) — matches the
/// single-backend run on overlaps, stats and metrics.
#[test]
fn bella_pipeline_through_fleet_matches_single_backend() {
    use logan::bella::{BellaConfig, BellaPipeline};
    use logan::seq::readsim::ReadSimulator;

    let sim = ReadSimulator {
        read_len: (800, 1300),
        errors: ErrorProfile::pacbio(0.10),
        ..ReadSimulator::uniform(18_000, 7.0)
    };
    let rs = sim.generate(4242);
    let cfg = BellaConfig {
        error_rate: 0.10,
        min_overlap: 600,
        ..BellaConfig::with_x(50)
    };
    let pipeline = BellaPipeline::new(cfg);
    let single = XDropCpuAligner::new(2, Scoring::default(), 50, Engine::from_env());
    let fleet = fleet_2gpu_cpu(50);
    let (want, want_metrics) = pipeline.run_on_readset(&rs, &single, 600);
    let (mono, mono_metrics) = pipeline.run_on_readset(&rs, &fleet, 600);
    assert_eq!(mono.overlaps, want.overlaps);
    assert_eq!(mono.stats, want.stats);
    assert_eq!(mono_metrics, want_metrics);
    let (stream, stream_metrics) = pipeline.run_streaming_on_readset(&rs, &fleet, 600);
    assert_eq!(
        stream.overlaps, want.overlaps,
        "multi-lane streaming diverged"
    );
    assert_eq!(stream.stats, want.stats);
    assert_eq!(stream_metrics, want_metrics);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across random seeds, sizes, error rates and X values, a
    /// `fleet:2gpu+cpu` run equals the single-backend run bit-for-bit
    /// on all outputs, and a second run reproduces its whole report.
    #[test]
    fn fleet_matches_single_backend_across_seeds(
        seed in 0u64..1_000_000,
        n in 1usize..48,
        err_pct in 2u32..40,
        x in 5i32..200,
    ) {
        let err = err_pct as f64 / 100.0;
        let pairs = PairSet::generate_with_lengths(n, err, 200, 2500, seed).pairs;
        let single = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(x));
        let (want, want_rep) = single.align_pairs(&pairs);
        let fleet = fleet_2gpu_cpu(x);
        let (got, rep) = fleet.align_pairs(&pairs);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(rep.total_cells, want_rep.total_cells);
        prop_assert_eq!(rep.assignment_sizes.iter().sum::<usize>(), pairs.len());
        let (again, again_rep) = fleet.align_pairs(&pairs);
        prop_assert_eq!(again, want);
        prop_assert_eq!(without_wall(again_rep), without_wall(rep));
    }
}
