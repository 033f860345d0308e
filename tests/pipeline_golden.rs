//! Byte-for-byte goldens of the BELLA pipeline's entry points:
//! `run` and `run_streaming` on both seeders, each rendered as its
//! stage statistics, its ground-truth metrics, its backend report and
//! one line per overlap, and compared with `tests/golden/pipeline/`.
//!
//! * `run` is pinned on the scalar CPU aligner and on a static
//!   three-GPU fleet, with the whole [`BackendReport`] but its host wall
//!   clock (and the per-block costs, which the report does not
//!   serialize either).
//! * `run_streaming` on a one-lane backend pins the same, report
//!   included: one lane aligns every block, in production order.
//! * `run_streaming` on the three-lane fleet pins the report's `pairs`
//!   and `total_cells` only: which lane took which block is a race, and
//!   the rest of the report records it.
//!
//! A golden is rewritten only when the pipeline's output is meant to
//! change, and its diff then shows what changed.

use logan::bella::{BellaConfig, BellaOutput, BellaPipeline, Overlap, PipelineBudget, Seeder};
use logan::prelude::*;

fn readset() -> ReadSet {
    ReadSimulator {
        read_len: (900, 1400),
        errors: ErrorProfile::pacbio(0.10),
        ..ReadSimulator::uniform(12_000, 5.0)
    }
    .generate(2024)
}

fn config(seeder: Seeder) -> BellaConfig {
    BellaConfig {
        min_overlap: 700,
        seeder,
        budget: PipelineBudget {
            batch_reads: 8,
            shards: 3,
            inflight_blocks: 2,
        },
        ..BellaConfig::with_x(30)
    }
}

fn cpu() -> XDropCpuAligner {
    XDropCpuAligner::new(2, Scoring::default(), 30, Engine::Scalar)
}

fn gpus() -> Fleet {
    Fleet::static_gpus(3, DeviceSpec::v100(), LoganConfig::with_x(30))
}

fn extension(e: &ExtensionResult) -> String {
    let ExtensionResult {
        score,
        query_end,
        target_end,
        cells,
        iterations,
        max_width,
        dropped,
    } = *e;
    format!(
        "{score}/{query_end}/{target_end}/{cells}/{iterations}/{max_width}/{}",
        dropped as u8
    )
}

/// One overlap per line; the destructuring makes a new field a compile
/// error here rather than a silent gap in the golden.
fn overlap_line(o: &Overlap) -> String {
    let Overlap {
        r1,
        r2,
        seed,
        est_overlap,
        result,
        kept,
    } = o;
    let SeedExtendResult {
        score,
        left,
        right,
        query_start,
        query_end,
        target_start,
        target_end,
    } = result;
    format!(
        "{r1} {r2} seed {}/{}/{} est {est_overlap} score {score} q {query_start}..{query_end} \
         t {target_start}..{target_end} left {} right {} kept {}\n",
        seed.qpos,
        seed.tpos,
        seed.len,
        extension(left),
        extension(right),
        *kept as u8
    )
}

/// How much of the backend report a case pins.
enum Report {
    /// Everything but the host wall clock and the per-block costs.
    Whole,
    /// `pairs` and `total_cells` only.
    Work,
}

fn render(out: &BellaOutput, metrics: &OverlapMetrics, report: Report) -> String {
    let mut s = format!("{:#?}\n{metrics:?}\n", out.stats);
    match report {
        Report::Whole => {
            let mut rep = out.backend.clone();
            rep.wall_s = 0.0;
            for k in &mut rep.kernel_reports {
                k.block_costs.clear();
            }
            s += &format!("{rep:#?}\n");
        }
        Report::Work => {
            s += &format!(
                "pairs {} total_cells {}\n",
                out.backend.pairs, out.backend.total_cells
            );
        }
    }
    s.extend(out.overlaps.iter().map(overlap_line));
    s
}

/// Compare `actual` with `tests/golden/pipeline/<name>.txt`, byte for
/// byte, naming the first line that differs.
fn assert_golden(name: &str, actual: &str) {
    let path = format!(
        "{}/tests/golden/pipeline/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if want != actual {
        let (w, a): (Vec<&str>, Vec<&str>) = (want.lines().collect(), actual.lines().collect());
        let at = (0..w.len().max(a.len()))
            .find(|&i| w.get(i) != a.get(i))
            .unwrap_or(0);
        panic!(
            "{name}: differs from {path} at line {}: want {:?}, got {:?}",
            at + 1,
            w.get(at),
            a.get(at)
        );
    }
}

fn seeders() -> [(&'static str, Seeder); 2] {
    [("spgemm", Seeder::SpGemm), ("minimizer", Seeder::Minimizer)]
}

#[test]
fn run_matches_its_goldens() {
    let rs = readset();
    let (cpu, gpus) = (cpu(), gpus());
    let backends: [(&str, &dyn AlignBackend); 2] = [("cpu", &cpu), ("gpus3", &gpus)];
    for (seeder_name, seeder) in seeders() {
        let pipeline = BellaPipeline::new(config(seeder));
        for (backend_name, backend) in backends {
            let (out, metrics) = pipeline.run_on_readset(&rs, backend, 700);
            assert!(out.stats.kept > 0, "{seeder_name}: the case keeps nothing");
            assert_golden(
                &format!("run_{seeder_name}_{backend_name}"),
                &render(&out, &metrics, Report::Whole),
            );
        }
    }
}

#[test]
fn run_streaming_matches_its_goldens() {
    let rs = readset();
    let (cpu, gpus) = (cpu(), gpus());
    for (seeder_name, seeder) in seeders() {
        let pipeline = BellaPipeline::new(config(seeder));
        let (out, metrics) = pipeline.run_streaming_on_readset(&rs, &cpu, 700);
        assert!(
            out.backend.blocks > 1,
            "{seeder_name}: one block streams nothing"
        );
        assert_golden(
            &format!("stream_{seeder_name}_cpu"),
            &render(&out, &metrics, Report::Whole),
        );
        let (out, metrics) = pipeline.run_streaming_on_readset(&rs, &gpus, 700);
        assert_golden(
            &format!("stream_{seeder_name}_gpus3"),
            &render(&out, &metrics, Report::Work),
        );
    }
}
