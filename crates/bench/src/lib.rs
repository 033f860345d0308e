//! # logan-bench
//!
//! The harness that regenerates every table and figure of the LOGAN
//! paper (see `DESIGN.md` §5 for the experiment index and
//! `EXPERIMENTS.md` for recorded outcomes).
//!
//! Each `src/bin/*` binary prints one paper artifact as a Markdown table
//! (measured at a CPU-affordable scale, projected to paper scale, with
//! the paper's reference numbers alongside) and dumps the raw rows as
//! JSON under `results/`.
//!
//! Scaling: workloads are i.i.d. over pairs, so cells and kernel time
//! project linearly in the pair count; fixed overheads (kernel launch,
//! balancer setup) are *not* scaled. Control knobs:
//!
//! * `LOGAN_SCALE` — fraction of the paper's 100 K pairs (default 0.002);
//! * `LOGAN_BELLA_SCALE` — fraction of the genome length for the BELLA
//!   data sets (default 0.004);
//! * `LOGAN_SEED` — RNG seed (default 42);
//! * `LOGAN_RESULTS_DIR` — where [`write_json`] puts artifacts
//!   (default `results/` at the repository root).
//!
//! The host engine is not a knob: the binaries run
//! [`LoganConfig::with_x`](logan_core::LoganConfig::with_x)'s
//! `Engine::Adaptive`, and results are engine-independent anyway.
//! `engine_tiers` times every engine side by side instead.
//!
//! # Position in the workspace
//!
//! The leaf of the crate DAG: depends on [`logan_seq`],
//! [`logan_align`], [`logan_gpusim`], [`logan_core`], [`logan_bella`]
//! and [`logan_roofline`]. Its nine binaries are the eight paper
//! artifacts and `engine_tiers`; the repo benchmark (`benchmark/`)
//! times everything else. See `DESIGN.md` for the figure/table →
//! binary index.

#![warn(missing_docs)]

pub mod bella_bench;
pub mod memprobe;

use logan_core::{BackendReport, FleetReport};
use serde::Serialize;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// Scale configuration read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Fraction of the paper's pair count for Tables I–III / Figs 8–9/12–13.
    pub pair_scale: f64,
    /// Fraction of the paper's genome length for Tables IV–V.
    pub bella_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BenchScale {
    /// Read `LOGAN_SCALE` / `LOGAN_BELLA_SCALE` / `LOGAN_SEED`.
    pub fn from_env() -> BenchScale {
        let parse = |k: &str, d: f64| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(d)
        };
        BenchScale {
            pair_scale: parse("LOGAN_SCALE", 0.002).clamp(1e-5, 1.0),
            bella_scale: parse("LOGAN_BELLA_SCALE", 0.004).clamp(1e-4, 1.0),
            seed: std::env::var("LOGAN_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(42),
        }
    }

    /// Measured pair count for the 100 K benchmark.
    pub fn pairs(&self) -> usize {
        ((100_000.0 * self.pair_scale) as usize).max(8)
    }

    /// Linear projection factor from measured pairs to 100 K.
    pub fn pair_factor(&self) -> f64 {
        100_000.0 / self.pairs() as f64
    }
}

/// Project a single-GPU batch report to paper scale by **re-scheduling**
/// the measured per-block costs tiled `factor` times — occupancy, stall
/// pipelining and memory pressure are re-simulated rather than assuming
/// time scales linearly (it does not: a 100-block batch is latency-bound
/// where a 200 K-block batch is throughput-bound).
///
/// For very large factors the tiling is capped once the device is
/// saturated (≥ `SATURATION_BLOCKS` blocks) and the remainder projected
/// linearly, which is exact in the throughput regime.
pub fn project_gpu_time(
    spec: &logan_gpusim::DeviceSpec,
    report: &BackendReport,
    factor: f64,
) -> f64 {
    const SATURATION_BLOCKS: usize = 200_000;
    let mut total = 0.0;
    for kr in &report.kernel_reports {
        let blocks = kr.block_costs.len().max(1);
        let reps_wanted = factor.round().max(1.0) as usize;
        let reps = reps_wanted.min(SATURATION_BLOCKS.div_ceil(blocks)).max(1);
        let t = kr.reschedule_tiled(spec, reps);
        total += t * (factor / reps as f64);
    }
    total
}

/// Project a multi-GPU (static fleet) report: each device's measured
/// batch is re-scheduled at its full-scale share (the balancer splits
/// pairs proportionally, so the per-device factor equals the overall
/// one); the serial per-device setup is added unscaled.
pub fn project_multi_time(
    spec: &logan_gpusim::DeviceSpec,
    report: &FleetReport,
    setup_per_gpu: f64,
    factor: f64,
) -> f64 {
    let max_dev = report
        .per_worker
        .iter()
        .map(|r| project_gpu_time(spec, r, factor))
        .fold(0.0f64, f64::max);
    max_dev + setup_per_gpu * report.per_worker.len() as f64
}

/// A Markdown table builder for the harness binaries.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column names.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as Markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&line(&self.header));
        out.push('\n');
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|", dashes.join("-|-")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with sensible precision.
pub fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

/// Format a speed-up.
pub fn fmt_x(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else {
        format!("{x:.1}x")
    }
}

/// Write a JSON artifact under `results/` (or `LOGAN_RESULTS_DIR` when
/// set — the golden-file regression test points it at a scratch
/// directory so tiny-scale runs don't clobber real artifacts).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::env::var_os("LOGAN_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("results")
        });
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            let _ = fs::write(&path, s);
            eprintln!("[results] wrote {}", path.display());
        }
        Err(e) => eprintln!("[results] failed to serialize {name}: {e}"),
    }
}

/// Print a titled section heading.
pub fn heading(title: impl Display) {
    println!("\n## {title}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(&["X", "time (s)"]);
        t.row(vec!["10".into(), "5.1".into()]);
        t.row(vec!["5000".into(), "176.6".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("time (s)"));
        assert!(lines[1].starts_with("|-"));
        // All lines same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_s(176.64), "177");
        assert_eq!(fmt_s(5.13), "5.1");
        assert_eq!(fmt_s(0.0123), "0.012");
        assert_eq!(fmt_x(6.64), "6.6x");
        assert_eq!(fmt_x(558.5), "558x");
    }

    #[test]
    fn scale_defaults() {
        let s = BenchScale {
            pair_scale: 0.002,
            bella_scale: 0.004,
            seed: 42,
        };
        assert_eq!(s.pairs(), 200);
        assert!((s.pair_factor() - 500.0).abs() < 1e-9);
    }
}
