//! Table II + Fig. 8 — LOGAN vs SeqAn across X on the 100 K-pair set.
//!
//! SeqAn's work is *measured* (the GPU kernel is bit-equivalent to the
//! scalar reference, so the GPU run's cell count **is** SeqAn's cell
//! count) and converted to POWER9 seconds by the calibrated platform
//! model; LOGAN times come from the device simulator. Paper reference
//! columns are printed alongside.

use logan_bench::{
    fmt_s, fmt_x, heading, project_gpu_time, project_multi_time, write_json, BenchScale, Table,
};
use logan_core::calibration::BALANCER_SETUP_S_PER_GPU;
use logan_core::{CpuPlatformModel, Fleet, LoganConfig, LoganExecutor};
use logan_gpusim::DeviceSpec;
use logan_seq::PairSet;
use serde::Serialize;

const XS: [i32; 8] = [10, 20, 50, 100, 500, 1000, 2500, 5000];
// Paper Table II (seconds).
const PAPER_SEQAN: [f64; 8] = [5.1, 12.7, 29.6, 45.7, 102.6, 133.3, 168.0, 176.6];
const PAPER_L1: [f64; 8] = [2.2, 3.1, 5.0, 7.2, 14.9, 20.2, 25.3, 26.7];
const PAPER_L6: [f64; 8] = [1.9, 2.1, 2.2, 2.7, 4.0, 4.9, 5.6, 5.8];

#[derive(Serialize)]
struct Row {
    x: i32,
    cells_measured: u64,
    cells_projected: f64,
    seqan_s: f64,
    logan1_s: f64,
    logan6_s: f64,
    speedup1: f64,
    speedup6: f64,
    gcups1: f64,
    paper_seqan_s: f64,
    paper_logan1_s: f64,
    paper_logan6_s: f64,
}

fn main() {
    let scale = BenchScale::from_env();
    let set = PairSet::generate(scale.pairs(), 0.15, scale.seed);
    let factor = scale.pair_factor();
    let power9 = CpuPlatformModel::power9_seqan();
    let mut rows = Vec::new();

    for (i, &x) in XS.iter().enumerate() {
        let exec = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(x));
        let (_, rep1) = exec.align_pairs(&set.pairs);
        let multi = Fleet::static_gpus(6, DeviceSpec::v100(), LoganConfig::with_x(x));
        let (_, rep6) = multi.align_pairs_static(&set.pairs);

        let cells_full = rep1.total_cells as f64 * factor;
        let seqan_s = power9.time_s(cells_full as u64, 100_000);
        let logan1_s = project_gpu_time(&DeviceSpec::v100(), &rep1, factor);
        let logan6_s =
            project_multi_time(&DeviceSpec::v100(), &rep6, BALANCER_SETUP_S_PER_GPU, factor);
        rows.push(Row {
            x,
            cells_measured: rep1.total_cells,
            cells_projected: cells_full,
            seqan_s,
            logan1_s,
            logan6_s,
            speedup1: seqan_s / logan1_s,
            speedup6: seqan_s / logan6_s,
            gcups1: cells_full / logan1_s / 1e9,
            paper_seqan_s: PAPER_SEQAN[i],
            paper_logan1_s: PAPER_L1[i],
            paper_logan6_s: PAPER_L6[i],
        });
        eprintln!("[table2] x={x} done ({} cells measured)", rep1.total_cells);
    }

    heading(format!(
        "Table II — LOGAN vs SeqAn, 100K alignments \
         (measured {} pairs, projected x{:.0}; POWER9 model: {})",
        set.len(),
        factor,
        power9.name
    ));
    let mut t = Table::new(&[
        "X",
        "SeqAn 168t (s)",
        "LOGAN 1 GPU (s)",
        "LOGAN 6 GPU (s)",
        "speedup 1G",
        "speedup 6G",
        "GCUPS 1G",
        "paper (s/s/s)",
    ]);
    for r in &rows {
        t.row(vec![
            r.x.to_string(),
            fmt_s(r.seqan_s),
            fmt_s(r.logan1_s),
            fmt_s(r.logan6_s),
            fmt_x(r.speedup1),
            fmt_x(r.speedup6),
            format!("{:.1}", r.gcups1),
            format!(
                "{}/{}/{}",
                fmt_s(r.paper_seqan_s),
                fmt_s(r.paper_logan1_s),
                fmt_s(r.paper_logan6_s)
            ),
        ]);
    }
    println!("{}", t.render());

    heading("Fig. 8 — speed-up over SeqAn (log-log; series to plot)");
    let mut f = Table::new(&["X", "1 GPU", "6 GPUs", "paper 1 GPU", "paper 6 GPUs"]);
    for (i, r) in rows.iter().enumerate() {
        f.row(vec![
            r.x.to_string(),
            fmt_x(r.speedup1),
            fmt_x(r.speedup6),
            fmt_x(PAPER_SEQAN[i] / PAPER_L1[i]),
            fmt_x(PAPER_SEQAN[i] / PAPER_L6[i]),
        ]);
    }
    println!("{}", f.render());
    write_json("table2_fig8", &rows);
}
