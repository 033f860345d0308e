//! `streaming` — peak-memory and wall-clock of the streaming BELLA
//! pipeline against the monolithic one (ISSUE 4's tentpole numbers; not
//! a paper artifact).
//!
//! Two sweeps on E. coli-like read sets:
//!
//! 1. **input sweep** at a fixed batch budget — the monolithic peak
//!    carries the counter's codes for the whole read set and the full
//!    candidate list, while the streaming peak grows only by the
//!    resident read store + index;
//! 2. **batch sweep** at a fixed input — since candidate pairs share
//!    their reads (DESIGN.md §8) a block is a few dozen bytes per pair,
//!    so the streaming peak barely moves with `batch_reads`; the sweep
//!    shows the wall-clock cost of small tiles.
//!
//! Peak memory is measured by a global counting allocator (live bytes,
//! resettable high-water mark), so the numbers are exact allocation
//! peaks rather than RSS snapshots. Neither measured region copies the
//! reads (the monolithic region's `to_vec` and the streaming store both
//! take shared clones), so the comparison is apples to apples.
//!
//! Scale via `LOGAN_BELLA_SCALE` / `LOGAN_SEED` as for table4/table5;
//! results land in `results/streaming.json`.

use logan_bella::{BellaConfig, BellaPipeline, PipelineBudget};
use logan_bench::memprobe::{measure, mib, PeakAlloc};
use logan_bench::{heading, write_json, BenchScale, Table};
use logan_seq::readsim::ReadSimulator;
use logan_seq::{ErrorProfile, Seq};
use serde::Serialize;

#[global_allocator]
static PEAK_ALLOC: PeakAlloc = PeakAlloc;

#[derive(Serialize)]
struct Row {
    mode: String,
    reads: usize,
    candidates: usize,
    batch_reads: usize,
    shards: usize,
    peak_mib: f64,
    wall_s: f64,
}

fn read_seqs(genome_len: usize, seed: u64) -> Vec<Seq> {
    let sim = ReadSimulator {
        read_len: (800, 1600),
        depth: 12.0,
        errors: ErrorProfile::pacbio(0.10),
        ..ReadSimulator::uniform(genome_len, 12.0)
    };
    let rs = sim.generate(seed);
    rs.reads.iter().map(|r| r.seq.clone()).collect()
}

fn config(budget: PipelineBudget) -> BellaConfig {
    BellaConfig {
        error_rate: 0.10,
        depth: 12.0,
        min_overlap: 1000,
        budget,
        ..BellaConfig::with_x(50)
    }
}

fn run_modes(
    seqs: &[Seq],
    budgets: &[PipelineBudget],
    backend: &logan_align::XDropCpuAligner,
    rows: &mut Vec<Row>,
) {
    let (mono, mono_peak, mono_wall) = measure(|| {
        let owned: Vec<Seq> = seqs.to_vec();
        BellaPipeline::new(config(PipelineBudget::default())).run(&owned, backend)
    });
    rows.push(Row {
        mode: "monolithic".into(),
        reads: seqs.len(),
        candidates: mono.stats.candidates,
        batch_reads: 0,
        shards: 0,
        peak_mib: mib(mono_peak),
        wall_s: mono_wall,
    });
    for &budget in budgets {
        let pipeline = BellaPipeline::new(config(budget));
        let (out, peak, wall) = measure(|| {
            pipeline.run_streaming(
                logan_seq::readsim::seq_batches(seqs, budget.batch_reads),
                backend,
            )
        });
        assert_eq!(
            out.overlaps, mono.overlaps,
            "streaming must be bit-identical to monolithic"
        );
        rows.push(Row {
            mode: "streaming".into(),
            reads: seqs.len(),
            candidates: out.stats.candidates,
            batch_reads: budget.batch_reads,
            shards: budget.shards,
            peak_mib: mib(peak),
            wall_s: wall,
        });
    }
}

fn main() {
    let scale = BenchScale::from_env();
    // Base genome ≈ 18.6 kb at the default 0.004 scale; the input sweep
    // doubles it twice.
    let base_len = ((4_641_652f64 * scale.bella_scale) as usize).max(12_000);
    let aligner = logan_align::XDropCpuAligner::new(
        4,
        logan_seq::Scoring::default(),
        50,
        logan_align::Engine::from_env(),
    );
    let mut rows = Vec::new();

    let fixed = PipelineBudget {
        batch_reads: 128,
        shards: 8,
        inflight_blocks: 2,
    };
    for mult in [1usize, 2, 4] {
        let seqs = read_seqs(base_len * mult, scale.seed);
        eprintln!("[streaming] input sweep x{mult}: {} reads", seqs.len());
        run_modes(&seqs, &[fixed], &aligner, &mut rows);
    }
    let seqs = read_seqs(base_len * 4, scale.seed);
    for batch_reads in [32, 512] {
        eprintln!("[streaming] batch sweep: batch_reads={batch_reads}");
        let budget = PipelineBudget {
            batch_reads,
            ..fixed
        };
        run_modes(&seqs[..], &[budget], &aligner, &mut rows);
    }
    // The batch-sweep rows re-measure the monolithic baseline; keep the
    // duplicates out of the artifact (wall jitter aside they repeat).
    let mut seen_mono = std::collections::HashSet::new();
    rows.retain(|r| r.mode != "monolithic" || seen_mono.insert(r.reads));

    heading("Streaming vs monolithic BELLA pipeline (CPU backend, exact allocation peaks)");
    let mut t = Table::new(&[
        "mode",
        "reads",
        "candidates",
        "batch",
        "shards",
        "peak (MiB)",
        "wall (s)",
    ]);
    for r in &rows {
        t.row(vec![
            r.mode.clone(),
            r.reads.to_string(),
            r.candidates.to_string(),
            if r.batch_reads == 0 {
                "-".into()
            } else {
                r.batch_reads.to_string()
            },
            if r.shards == 0 {
                "-".into()
            } else {
                r.shards.to_string()
            },
            format!("{:.1}", r.peak_mib),
            format!("{:.2}", r.wall_s),
        ]);
    }
    println!("{}", t.render());
    write_json("streaming", &rows);
}
