//! Shared driver for the BELLA integration tables (IV and V).

use crate::{fmt_s, fmt_x, heading, write_json, BenchScale, Table};
use logan_bench_reexports::*;
use serde::Serialize;

/// Re-exports kept in one place so the driver reads cleanly.
mod logan_bench_reexports {
    pub use logan_bella::{BellaConfig, BellaPipeline};
    pub use logan_core::calibration::{
        BALANCER_SETUP_S_PER_GPU, BELLA_GPU_MARSHAL_S_PER_PAIR, BELLA_OVERLAP_S_PER_PAIR,
    };
    pub use logan_core::{CpuPlatformModel, Fleet, LoganConfig, LoganExecutor};
    pub use logan_gpusim::DeviceSpec;
    pub use logan_seq::DatasetPreset;
}

/// One row of a BELLA table.
#[derive(Serialize)]
pub(crate) struct BellaRow {
    /// The X-drop threshold.
    pub x: i32,
    /// Alignment cells measured at bench scale.
    pub cells_measured: u64,
    /// BELLA + SeqAn-model seconds (projected).
    pub cpu_s: f64,
    /// BELLA + LOGAN 1 GPU seconds (projected).
    pub gpu1_s: f64,
    /// BELLA + LOGAN n-GPU seconds (projected).
    pub gpun_s: f64,
    /// Speed-up of 1 GPU over CPU.
    pub speedup1: f64,
    /// Speed-up of n GPUs over CPU.
    pub speedupn: f64,
    /// Paper's CPU / 1 GPU / n GPU seconds.
    pub paper: (f64, f64, f64),
}

/// Parameters of one BELLA experiment.
pub struct BellaExperiment {
    /// Data-set preset (E. coli-like or C. elegans-like).
    pub preset: DatasetPreset,
    /// GPUs in the multi-GPU column (the paper uses 6).
    pub gpus: usize,
    /// X values (the paper's Table IV/V grid).
    pub xs: &'static [i32],
    /// Paper reference rows `(cpu, 1 gpu, 6 gpu)` aligned with `xs`.
    pub paper: &'static [(f64, f64, f64)],
    /// Paper-scale alignment count (1.82 M for E. coli, 235 M for
    /// C. elegans).
    pub paper_alignments: f64,
    /// Artifact name (e.g. "table4_fig10").
    pub name: &'static str,
    /// Human title.
    pub title: &'static str,
}

/// Run a BELLA experiment and print its table + figure series.
pub fn run(exp: &BellaExperiment) {
    let scale = BenchScale::from_env();
    let rs = exp.preset.read_set(scale.bella_scale, scale.seed);
    let power9 = CpuPlatformModel::power9_seqan();

    // Candidate generation once: it does not depend on X.
    let seqs: Vec<logan_seq::Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
    let mut cfg = BellaConfig::with_x(exp.xs[0]);
    cfg.depth = rs.depth();
    cfg.error_rate = rs.error_rate;
    let pipeline = BellaPipeline::new(cfg);
    let (pairs, _, stats) = pipeline.candidates(&seqs);
    let measured = pairs.len().max(1);
    let factor = exp.paper_alignments / measured as f64;
    eprintln!(
        "[{}] {} reads, {} candidates measured (projection x{:.0}), reliable window {:?}",
        exp.name,
        rs.reads.len(),
        measured,
        factor,
        stats.bounds
    );

    let overlap_stage = BELLA_OVERLAP_S_PER_PAIR * exp.paper_alignments;
    let marshal = BELLA_GPU_MARSHAL_S_PER_PAIR * exp.paper_alignments;
    let mut rows = Vec::new();

    for (i, &x) in exp.xs.iter().enumerate() {
        let exec = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(x));
        let (_, rep1) = exec.align_pairs(&pairs);
        let multi = Fleet::static_gpus(exp.gpus, DeviceSpec::v100(), LoganConfig::with_x(x));
        let (_, repn) = multi.align_pairs_static(&pairs);

        let spec = DeviceSpec::v100();
        let cells_full = rep1.total_cells as f64 * factor;
        let cpu_s = overlap_stage + power9.time_s(cells_full as u64, exp.paper_alignments as usize);
        let gpu1_s = overlap_stage + marshal + crate::project_gpu_time(&spec, &rep1, factor);
        let gpun_s = overlap_stage
            + marshal
            + crate::project_multi_time(&spec, &repn, BALANCER_SETUP_S_PER_GPU, factor);
        rows.push(BellaRow {
            x,
            cells_measured: rep1.total_cells,
            cpu_s,
            gpu1_s,
            gpun_s,
            speedup1: cpu_s / gpu1_s,
            speedupn: cpu_s / gpun_s,
            paper: exp.paper[i],
        });
        eprintln!("[{}] x={x} done", exp.name);
    }

    heading(format!(
        "{} ({} candidates measured, projected to {:.2e} alignments; {} GPUs in the multi column)",
        exp.title, measured, exp.paper_alignments, exp.gpus
    ));
    let mut t = Table::new(&[
        "X",
        "BELLA CPU (s)",
        "LOGAN 1 GPU (s)",
        "LOGAN n GPU (s)",
        "speedup 1G",
        "speedup nG",
        "paper (s/s/s)",
    ]);
    for r in &rows {
        t.row(vec![
            r.x.to_string(),
            fmt_s(r.cpu_s),
            fmt_s(r.gpu1_s),
            fmt_s(r.gpun_s),
            fmt_x(r.speedup1),
            fmt_x(r.speedupn),
            format!(
                "{}/{}/{}",
                fmt_s(r.paper.0),
                fmt_s(r.paper.1),
                fmt_s(r.paper.2)
            ),
        ]);
    }
    println!("{}", t.render());

    heading("Figure series — BELLA speed-up vs X (log-log)");
    let mut f = Table::new(&["X", "1 GPU", "n GPUs", "paper 1 GPU", "paper n GPUs"]);
    for r in &rows {
        f.row(vec![
            r.x.to_string(),
            fmt_x(r.speedup1),
            fmt_x(r.speedupn),
            fmt_x(r.paper.0 / r.paper.1),
            fmt_x(r.paper.0 / r.paper.2),
        ]);
    }
    println!("{}", f.render());
    write_json(exp.name, &rows);
}
