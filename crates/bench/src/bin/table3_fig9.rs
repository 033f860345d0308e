//! Table III + Fig. 9 — LOGAN vs ksw2 across Z on the 100 K-pair set.
//!
//! ksw2 (minimap2's affine Z-drop kernel) is *executed* for real — its
//! seed-split extensions run on the host, the work is counted in cells,
//! and the Skylake platform model converts cells to the published
//! machine's seconds. The Z-derived band (see `logan_align::ksw2`) is
//! what makes its cost explode on well-matching pairs as Z grows, while
//! LOGAN's score-adaptive band saturates — the central contrast of the
//! paper's Fig. 9.

use logan_align::{ksw2_extend, CpuBatchAligner, Ksw2Params};
use logan_bench::{
    fmt_s, fmt_x, heading, project_gpu_time, project_multi_time, write_json, BenchScale, Table,
};
use logan_core::calibration::BALANCER_SETUP_S_PER_GPU;
use logan_core::{CpuPlatformModel, Fleet, LoganConfig, LoganExecutor};
use logan_gpusim::DeviceSpec;
use logan_seq::PairSet;
use serde::Serialize;

const ZS: [i32; 8] = [10, 20, 50, 100, 500, 1000, 2500, 5000];
// Paper Table III (seconds).
const PAPER_KSW2: [f64; 8] = [6.9, 7.0, 7.7, 10.4, 113.0, 209.5, 1235.8, 3213.1];
const PAPER_L1: [f64; 8] = [2.5, 3.8, 5.8, 7.3, 15.2, 20.4, 25.9, 27.2];
const PAPER_L8: [f64; 8] = [1.7, 1.8, 2.1, 2.4, 3.4, 4.3, 5.2, 5.2];

#[derive(Serialize)]
struct Row {
    z: i32,
    ksw2_cells_measured: u64,
    ksw2_s: f64,
    logan1_s: f64,
    logan8_s: f64,
    speedup1: f64,
    speedup8: f64,
    ksw2_gcups: f64,
    paper_ksw2_s: f64,
    paper_logan1_s: f64,
    paper_logan8_s: f64,
}

fn main() {
    let scale = BenchScale::from_env();
    let set = PairSet::generate(scale.pairs(), 0.15, scale.seed);
    let factor = scale.pair_factor();
    let skylake = CpuPlatformModel::skylake_ksw2();
    let host = CpuBatchAligner::new(std::thread::available_parallelism().map_or(4, |n| n.get()));
    let mut rows = Vec::new();

    for (i, &z) in ZS.iter().enumerate() {
        // ksw2: real execution, seed-split like the X-drop pipeline.
        let params = Ksw2Params::with_zdrop(z);
        let (cells_per_pair, _) = host.run_with(&set.pairs, |p| {
            let s = p.seed;
            let left = ksw2_extend(
                &p.query.subseq(0, s.qpos).reversed(),
                &p.target.subseq(0, s.tpos).reversed(),
                params,
            );
            let right = ksw2_extend(
                &p.query.subseq(s.qpos + s.len, p.query.len()),
                &p.target.subseq(s.tpos + s.len, p.target.len()),
                params,
            );
            left.cells + right.cells
        });
        let ksw2_cells: u64 = cells_per_pair.iter().sum();
        let ksw2_s = skylake.time_s((ksw2_cells as f64 * factor) as u64, 100_000);

        // LOGAN with X = Z (the paper benchmarks both at the same drop).
        let exec = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(z));
        let (_, rep1) = exec.align_pairs(&set.pairs);
        let multi = Fleet::static_gpus(8, DeviceSpec::v100(), LoganConfig::with_x(z));
        let (_, rep8) = multi.align_pairs_static(&set.pairs);
        let logan1_s = project_gpu_time(&DeviceSpec::v100(), &rep1, factor);
        let logan8_s =
            project_multi_time(&DeviceSpec::v100(), &rep8, BALANCER_SETUP_S_PER_GPU, factor);

        rows.push(Row {
            z,
            ksw2_cells_measured: ksw2_cells,
            ksw2_s,
            logan1_s,
            logan8_s,
            speedup1: ksw2_s / logan1_s,
            speedup8: ksw2_s / logan8_s,
            ksw2_gcups: skylake.gcups((ksw2_cells as f64 * factor) as u64, 100_000),
            paper_ksw2_s: PAPER_KSW2[i],
            paper_logan1_s: PAPER_L1[i],
            paper_logan8_s: PAPER_L8[i],
        });
        eprintln!("[table3] z={z} done ({ksw2_cells} ksw2 cells measured)");
    }

    heading(format!(
        "Table III — LOGAN vs ksw2, 100K alignments \
         (measured {} pairs, projected x{:.0}; Skylake model: {})",
        set.len(),
        factor,
        skylake.name
    ));
    let mut t = Table::new(&[
        "X/Z",
        "ksw2 80t (s)",
        "LOGAN 1 GPU (s)",
        "LOGAN 8 GPU (s)",
        "speedup 1G",
        "speedup 8G",
        "ksw2 GCUPS",
        "paper (s/s/s)",
    ]);
    for r in &rows {
        t.row(vec![
            r.z.to_string(),
            fmt_s(r.ksw2_s),
            fmt_s(r.logan1_s),
            fmt_s(r.logan8_s),
            fmt_x(r.speedup1),
            fmt_x(r.speedup8),
            format!("{:.1}", r.ksw2_gcups),
            format!(
                "{}/{}/{}",
                fmt_s(r.paper_ksw2_s),
                fmt_s(r.paper_logan1_s),
                fmt_s(r.paper_logan8_s)
            ),
        ]);
    }
    println!("{}", t.render());

    heading("Fig. 9 — speed-up over ksw2 (log-log; series to plot)");
    let mut f = Table::new(&["X/Z", "1 GPU", "8 GPUs", "paper 1 GPU", "paper 8 GPUs"]);
    for (i, r) in rows.iter().enumerate() {
        f.row(vec![
            r.z.to_string(),
            fmt_x(r.speedup1),
            fmt_x(r.speedup8),
            fmt_x(PAPER_KSW2[i] / PAPER_L1[i]),
            fmt_x(PAPER_KSW2[i] / PAPER_L8[i]),
        ]);
    }
    println!("{}", f.render());
    write_json("table3_fig9", &rows);
}
