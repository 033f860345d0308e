//! Simulated-clock layers on a fixed subsample of `overlap_spgemm_x50`'s
//! candidate pairs. These numbers repeat exactly and move only when the
//! cost model moves, so they are reported per layer (the reproduction's
//! fidelity stays visible) and never gate a performance change.

use crate::metrics::Outcome;
use logan_align::{Engine, XDropCpuAligner};
use logan_core::{AlignBackend, Fleet, LoganConfig, LoganExecutor};
use logan_gpusim::{DeviceSpec, KernelStats};
use logan_seq::readsim::ReadPair;
use logan_seq::Scoring;
use std::time::Instant;

pub fn metrics(out: &mut Outcome, sub: &[ReadPair], x: i32) {
    let spec = DeviceSpec::v100();
    // The engine is pinned: `LoganConfig::with_x` would read LOGAN_ENGINE,
    // and the host seconds below must not depend on the environment.
    let config = LoganConfig {
        engine: Engine::Adaptive,
        ..LoganConfig::with_x(x)
    };
    let executor = LoganExecutor::new(spec.clone(), config);
    let start = Instant::now();
    let (results, report) = executor.align_block(sub);
    out.set("core.executor.host_s", start.elapsed().as_secs_f64());
    out.set("core.executor.sim_gcups", report.gcups());
    out.set("core.executor.sim_s", report.sim_time_s);
    out.set("core.executor.launches", report.launches as f64);
    out.set(
        "gpusim.hbm_peak_mib",
        report.hbm_peak_bytes as f64 / (1024.0 * 1024.0),
    );
    let (cpu, _) = XDropCpuAligner::new(1, Scoring::default(), x, Engine::Scalar).align_block(sub);
    out.check(results == cpu, || {
        "simulated executor differs from the scalar CPU engine".into()
    });

    // Fig. 13 operating point: all launches merged into one kernel view.
    let mut stats = KernelStats::default();
    let mut kernel_s = 0.0;
    for kr in &report.kernel_reports {
        stats.merge(&kr.stats);
        kernel_s += kr.sim_time_s();
    }
    let warp_gips = stats.total.warp_instructions as f64 / kernel_s / 1e9;
    out.set("roofline.oi_instr_per_byte", stats.operational_intensity());
    out.set("roofline.warp_gips", warp_gips);
    out.set(
        "roofline.int32_ceiling_share",
        warp_gips / spec.int_warp_gips(),
    );

    let fleet = Fleet::homogeneous_gpus(2, spec, config);
    let (_, report) = fleet.align_pairs_static(sub);
    let worker_s: Vec<f64> = report.per_worker.iter().map(|w| w.sim_time_s).collect();
    let mean = worker_s.iter().sum::<f64>() / worker_s.len() as f64;
    out.set("core.fleet.sim_makespan_s", report.sim_time_s);
    out.set(
        "core.fleet.balance",
        worker_s.iter().copied().fold(0.0, f64::max) / mean,
    );
}
