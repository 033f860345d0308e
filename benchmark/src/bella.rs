//! The three FASTA-in workloads: two overlap runs that use the `align`
//! layer in opposite regimes, and candidate generation without it.

use crate::gen::{self, Digest, ReadSet, Rng};
use crate::kernel;
use crate::meter;
use crate::metrics::{Outcome, Request, Scale};
use crate::trace::{Scope, TracedBackend, Tracer, ALIGN_SPAN};
use logan_align::{Engine, SeedExtendResult, XDropCpuAligner};
use logan_bella::binning::choose_seed;
use logan_bella::chain::{chain_candidates, chain_tiles};
use logan_bella::kmer_count::{count_kmers, count_reliable_sharded};
use logan_bella::matrix::KmerMatrix;
use logan_bella::prune::{reliable_bounds, reliable_kmers};
use logan_bella::spgemm::spgemm_candidates;
use logan_bella::threshold::AdaptiveThreshold;
use logan_bella::{
    BellaConfig, BellaPipeline, ChainConfig, MinimizerIndex, Overlap, PipelineBudget, Seeder,
};
use logan_core::{AlignBackend, BackendReport};
use logan_seq::fasta::FastaBatches;
use logan_seq::readsim::{ReadBatch, ReadPair};
use logan_seq::{Scoring, Seed, Seq};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `BellaPipeline::run`.
    Run,
    /// `BellaPipeline::run_streaming`, checked against `run`.
    Stream,
    /// `BellaPipeline::candidates`: no alignment.
    Candidates,
}

/// Frozen load of one workload. Nothing here adapts at run time.
pub struct Spec {
    pub name: &'static str,
    mode: Mode,
    genome: usize,
    depth: usize,
    read_len: (usize, usize),
    error: f64,
    seeder: Seeder,
    x: i32,
    min_overlap: usize,
    batch_reads: usize,
    /// Seconds one repetition took at the commit that froze the sizes.
    nominal_rep_s: f64,
}

pub fn spec(name: &str, scale: Scale) -> Spec {
    let quick = scale == Scale::Quick;
    match name {
        "overlap_spgemm_x50" => Spec {
            name: "overlap_spgemm_x50",
            mode: Mode::Run,
            genome: if quick { 20_000 } else { 100_000 },
            depth: if quick { 8 } else { 20 },
            read_len: (2500, 7500),
            error: 0.15,
            seeder: Seeder::SpGemm,
            x: 50,
            min_overlap: 2000,
            batch_reads: 256,
            nominal_rep_s: 4.5,
        },
        "overlap_minimizer_x7_stream" => Spec {
            name: "overlap_minimizer_x7_stream",
            mode: Mode::Stream,
            genome: if quick { 20_000 } else { 150_000 },
            depth: if quick { 15 } else { 30 },
            read_len: (800, 1600),
            error: 0.10,
            seeder: Seeder::Minimizer,
            x: 7,
            min_overlap: 1000,
            batch_reads: 128,
            nominal_rep_s: 4.5,
        },
        "candidates_spgemm" => Spec {
            name: "candidates_spgemm",
            mode: Mode::Candidates,
            genome: if quick { 30_000 } else { 600_000 },
            depth: 30,
            read_len: (800, 1600),
            error: 0.10,
            seeder: Seeder::SpGemm,
            x: 50,
            min_overlap: 1000,
            batch_reads: 256,
            nominal_rep_s: 3.5,
        },
        other => panic!("{other} is not a FASTA workload"),
    }
}

impl Spec {
    fn config(&self) -> BellaConfig {
        BellaConfig {
            error_rate: self.error,
            depth: self.depth as f64,
            min_overlap: self.min_overlap,
            seeder: self.seeder,
            budget: PipelineBudget {
                batch_reads: self.batch_reads,
                ..PipelineBudget::default()
            },
            ..BellaConfig::with_x(self.x)
        }
    }

    fn backend(&self, engine: Engine) -> XDropCpuAligner {
        XDropCpuAligner::new(1, Scoring::default(), self.x, engine)
    }

    fn inputs(&self, seed: u64) -> (ReadSet, Vec<u8>) {
        let mut rng = Rng::for_workload(seed, self.name);
        let reads = gen::read_set(&mut rng, self.genome, self.depth, self.read_len, self.error);
        let fasta = reads.to_fasta();
        (reads, fasta)
    }
}

/// FASTA bytes to read batches, through the program's streaming reader.
fn batches(fasta: &[u8], batch_reads: usize) -> impl Iterator<Item = ReadBatch> + '_ {
    let mut next_id = 0;
    FastaBatches::new(fasta, batch_reads).map(move |records| {
        let seqs: Vec<Seq> = records
            .expect("generated FASTA parses")
            .into_iter()
            .map(|r| r.seq)
            .collect();
        let start_id = next_id;
        next_id += seqs.len();
        ReadBatch { start_id, seqs }
    })
}

fn parse(fasta: &[u8], batch_reads: usize) -> Vec<Seq> {
    batches(fasta, batch_reads).flat_map(|b| b.seqs).collect()
}

/// What one operation produced, reduced to what the checks need.
#[derive(PartialEq)]
struct Product {
    /// FNV-1a over ids, seeds, estimates, scores, coordinates, `kept`.
    digest: u64,
    /// Pairs the operation reports: kept overlaps, or all candidates.
    reported: Vec<(u32, u32)>,
    /// Per-candidate alignment results (empty without alignment).
    results: Vec<SeedExtendResult>,
}

fn digest_seed(d: &mut Digest, r1: usize, r2: usize, seed: Seed, est: usize) {
    for w in [r1, r2, seed.qpos, seed.tpos, seed.len, est] {
        d.word(w as u64);
    }
}

fn product_of_overlaps(overlaps: &[Overlap]) -> Product {
    let mut d = Digest::new();
    for o in overlaps {
        digest_seed(&mut d, o.r1, o.r2, o.seed, o.est_overlap);
        let r = &o.result;
        d.word(r.score as u64);
        for w in [r.query_start, r.query_end, r.target_start, r.target_end] {
            d.word(w as u64);
        }
        d.word(r.cells());
        d.word(o.kept as u64);
    }
    Product {
        digest: d.finish(),
        reported: overlaps
            .iter()
            .filter(|o| o.kept)
            .map(|o| (o.r1 as u32, o.r2 as u32))
            .collect(),
        results: overlaps.iter().map(|o| o.result).collect(),
    }
}

fn product_of_candidates(pairs: &[ReadPair], meta: &[(usize, usize, usize)]) -> Product {
    let mut d = Digest::new();
    for (p, &(r1, r2, est)) in pairs.iter().zip(meta) {
        digest_seed(&mut d, r1, r2, p.seed, est);
    }
    Product {
        digest: d.finish(),
        reported: meta
            .iter()
            .map(|&(r1, r2, _)| (r1 as u32, r2 as u32))
            .collect(),
        results: Vec::new(),
    }
}

/// One complete operation, FASTA bytes in, product out, with its wall
/// seconds and peak MiB. Only the program's work is inside the clock; the
/// digest is taken after it.
fn operate(spec: &Spec, fasta: &[u8], backend: &dyn AlignBackend) -> (Product, f64, f64) {
    let pipeline = BellaPipeline::new(spec.config());
    meter::reset_peak();
    let start = Instant::now();
    let stop = || (start.elapsed().as_secs_f64(), meter::peak_mib());
    match spec.mode {
        Mode::Run => {
            let out = black_box(pipeline.run(&parse(fasta, spec.batch_reads), backend));
            let (wall_s, peak) = stop();
            (product_of_overlaps(&out.overlaps), wall_s, peak)
        }
        Mode::Stream => {
            let out = black_box(pipeline.run_streaming(batches(fasta, spec.batch_reads), backend));
            let (wall_s, peak) = stop();
            (product_of_overlaps(&out.overlaps), wall_s, peak)
        }
        Mode::Candidates => {
            let out = black_box(pipeline.candidates(&parse(fasta, spec.batch_reads)));
            let (wall_s, peak) = stop();
            (product_of_candidates(&out.0, &out.1), wall_s, peak)
        }
    }
}

/// `(recall, precision)` of sorted `reported` pairs against sorted `truth`.
fn recall_precision(reported: &[(u32, u32)], truth: &[(u32, u32)]) -> (f64, f64) {
    let (mut i, mut j, mut hits) = (0, 0, 0usize);
    while i < reported.len() && j < truth.len() {
        match reported[i].cmp(&truth[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hits += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (
        hits as f64 / truth.len() as f64,
        hits as f64 / reported.len() as f64,
    )
}

/// Set-up shared by the timed and the traced pass: inputs generated and
/// encoded, the backend built (three times, median taken), then one
/// untimed warm-up operation whose product is the oracle for every later
/// repetition. For the streaming workload the warm-up is the monolithic
/// `run`, so streaming output is checked against it.
struct Ready {
    reads: ReadSet,
    fasta: Vec<u8>,
    backend: Arc<XDropCpuAligner>,
    oracle: Product,
    setup_s: f64,
}

fn set_up(spec: &Spec, seed: u64) -> Ready {
    let ((reads, fasta, backend), prep_s) = meter::thrice(|| {
        let (reads, fasta) = spec.inputs(seed);
        (reads, fasta, Arc::new(spec.backend(Engine::Adaptive)))
    });
    let start = Instant::now();
    let oracle = if spec.mode == Mode::Stream {
        let out =
            BellaPipeline::new(spec.config()).run(&parse(&fasta, spec.batch_reads), &*backend);
        product_of_overlaps(&out.overlaps)
    } else {
        operate(spec, &fasta, &*backend).0
    };
    let warm_s = start.elapsed().as_secs_f64();
    Ready {
        reads,
        fasta,
        backend,
        oracle,
        setup_s: prep_s + warm_s,
    }
}

/// Golden digest comparison for the default seed, then agreement of the
/// adaptive engine with the scalar one on a fixed subsample of the
/// candidate pairs.
fn check_outputs(spec: &Spec, ready: &Ready, golden: Option<u64>, out: &mut Outcome) {
    out.output_digest = ready.oracle.digest;
    out.check_golden(spec.name, golden);
    if spec.mode == Mode::Candidates {
        return;
    }
    let reads = parse(&ready.fasta, spec.batch_reads);
    let (pairs, _, _) = BellaPipeline::new(spec.config()).candidates(&reads);
    out.check(pairs.len() == ready.oracle.results.len(), || {
        format!(
            "{}: candidates() and run() disagree on the pair count",
            spec.name
        )
    });
    kernel::check_against_scalar(
        out,
        spec.name,
        &pairs,
        &ready.oracle.results,
        &spec.backend(Engine::Scalar),
    );
}

/// The end-to-end pass.
pub fn run(spec: &Spec, req: &Request, golden: Option<u64>) -> Outcome {
    let mut out = Outcome::default();
    let ready = set_up(spec, req.seed);
    out.input_digest = gen::fnv1a(&ready.fasta);
    out.set("setup_s", ready.setup_s);

    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    for rep in 0..req.reps(spec.nominal_rep_s) {
        let (product, wall_s, peak) = operate(spec, &ready.fasta, &*ready.backend);
        out.check(product == ready.oracle, || {
            format!("{}: repetition {rep} differs from the oracle", spec.name)
        });
        walls.push(wall_s);
        peaks.push(peak);
    }
    out.push_batch_walls(walls);
    out.push("peak_mib", peaks);

    let truth = ready.reads.true_overlaps(spec.min_overlap);
    let mut reported = ready.oracle.reported.clone();
    reported.sort_unstable();
    let (recall, precision) = recall_precision(&reported, &truth);
    out.set("recall", recall);
    out.set("precision", precision);
    check_outputs(spec, &ready, golden, &mut out);
    out
}

/// Counts the traced recomposition reads off the stages as it goes.
#[derive(Default)]
struct StageCounts {
    distinct_kmers: usize,
    reliable_kmers: usize,
    nnz: usize,
    spgemm_candidates: usize,
    chained: usize,
    candidates: usize,
    kept: usize,
}

/// The candidate block of one pass, as the pipeline builds it.
#[derive(Default)]
struct Block {
    pairs: Vec<ReadPair>,
    meta: Vec<(usize, usize, usize)>,
}

impl Block {
    fn push(&mut self, reads: &[Seq], r1: usize, r2: usize, seed: Seed, est: usize) {
        self.pairs.push(ReadPair {
            query: reads[r1].clone(),
            target: reads[r2].clone(),
            seed,
            template_len: est,
        });
        self.meta.push((r1, r2, est));
    }
}

/// Threshold stage: results to overlaps, exactly as `run` assembles them.
fn assemble(
    cfg: &BellaConfig,
    block: Block,
    results: Vec<SeedExtendResult>,
    overlaps: &mut Vec<Overlap>,
    counts: &mut StageCounts,
) {
    let threshold = AdaptiveThreshold::new(cfg.scoring, cfg.error_rate, cfg.delta);
    for (((r1, r2, est), pair), result) in block.meta.into_iter().zip(&block.pairs).zip(results) {
        let kept = est >= cfg.min_overlap && threshold.keep(result.score, est);
        counts.kept += kept as usize;
        overlaps.push(Overlap {
            r1,
            r2,
            seed: pair.seed,
            est_overlap: est,
            result,
            kept,
        });
    }
}

/// `BellaPipeline::candidates` / `run` re-composed from the public stage
/// functions, one span per call.
fn recomposed_monolithic(
    spec: &Spec,
    fasta: &[u8],
    backend: &dyn AlignBackend,
    scope: &Scope,
) -> (Product, StageCounts) {
    let cfg = spec.config();
    let mut counts = StageCounts::default();
    let reads = scope.span("seq.fasta", || parse(fasta, spec.batch_reads));
    let kmers = scope.span("bella.kmer_count", || count_kmers(&reads, cfg.k));
    let reliable = scope.span("bella.prune", || {
        let bounds = reliable_bounds(cfg.depth, cfg.error_rate, cfg.k, cfg.tail);
        reliable_kmers(&kmers, bounds)
    });
    counts.distinct_kmers = kmers.len();
    counts.reliable_kmers = reliable.len();

    let mut block = Block::default();
    match cfg.seeder {
        Seeder::SpGemm => {
            let matrix = scope.span("bella.matrix", || {
                KmerMatrix::build(&reads, cfg.k, &reliable)
            });
            counts.nnz = matrix.nnz();
            let cands = scope.span("bella.spgemm", || spgemm_candidates(&matrix));
            counts.spgemm_candidates = cands.len();
            scope.span("bella.binning", || {
                block.pairs.reserve(cands.len());
                block.meta.reserve(cands.len());
                for c in &cands {
                    let (r1, r2) = (c.r1 as usize, c.r2 as usize);
                    let (seed, est) = choose_seed(reads[r1].len(), reads[r2].len(), c, cfg.k);
                    block.push(&reads, r1, r2, seed, est);
                }
            });
        }
        Seeder::Minimizer => {
            let index = scope.span("bella.chain.sketch", || {
                let mut index = MinimizerIndex::new(cfg.minimizer_w, cfg.k);
                index.push_batch(&reads, &reliable);
                index
            });
            counts.nnz = index.nnz();
            let chained = scope.span("bella.chain.chain", || {
                chain_candidates(&index, ChainConfig::default())
            });
            counts.chained = chained.len();
            scope.span("bella.binning", || {
                for c in chained.iter().filter(|c| c.est >= cfg.min_overlap) {
                    block.push(&reads, c.r1 as usize, c.r2 as usize, c.seed, c.est);
                }
            });
        }
    }
    counts.candidates = block.meta.len();
    if spec.mode == Mode::Candidates {
        return (product_of_candidates(&block.pairs, &block.meta), counts);
    }
    let (results, _) = backend.align_block(&block.pairs);
    let mut overlaps = Vec::with_capacity(results.len());
    scope.span("bella.threshold", || {
        assemble(&cfg, block, results, &mut overlaps, &mut counts)
    });
    (product_of_overlaps(&overlaps), counts)
}

/// `run_streaming`'s stages in sequence (sharded counting, batched
/// sketching, tiled chaining, one backend block per tile), so their busy
/// times can be set against the wall time of the overlapped original.
fn recomposed_streaming(
    spec: &Spec,
    fasta: &[u8],
    backend: &dyn AlignBackend,
    scope: &Scope,
) -> (Product, StageCounts) {
    let cfg = spec.config();
    let mut counts = StageCounts::default();
    let reads = scope.span("seq.fasta", || parse(fasta, spec.batch_reads));
    let reliable = scope.span("bella.kmer_count", || {
        let bounds = reliable_bounds(cfg.depth, cfg.error_rate, cfg.k, cfg.tail);
        let (distinct, reliable) = count_reliable_sharded(&reads, cfg.k, cfg.budget.shards, bounds);
        counts.distinct_kmers = distinct;
        reliable
    });
    counts.reliable_kmers = reliable.len();
    let index = scope.span("bella.chain.sketch", || {
        let mut index = MinimizerIndex::new(cfg.minimizer_w, cfg.k);
        for chunk in reads.chunks(spec.batch_reads) {
            index.push_batch(chunk, &reliable);
        }
        index
    });
    counts.nnz = index.nnz();

    let mut tiles = scope.span("bella.chain.chain", || {
        chain_tiles(&index, spec.batch_reads, ChainConfig::default())
    });
    let mut overlaps = Vec::new();
    while let Some(tile) = scope.span("bella.chain.chain", || tiles.next()) {
        counts.chained += tile.len();
        let mut block = Block::default();
        scope.span("bella.binning", || {
            for c in tile.iter().filter(|c| c.est >= cfg.min_overlap) {
                block.push(&reads, c.r1 as usize, c.r2 as usize, c.seed, c.est);
            }
        });
        if block.meta.is_empty() {
            continue;
        }
        counts.candidates += block.meta.len();
        let (results, _) = backend.align_block_on(0, &block.pairs);
        scope.span("bella.threshold", || {
            assemble(&cfg, block, results, &mut overlaps, &mut counts)
        });
    }
    (product_of_overlaps(&overlaps), counts)
}

fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The real `run_streaming` seen from outside, through a decorated backend
/// and a timed batch iterator.
struct StreamView {
    wall_s: f64,
    fasta_s: f64,
    align_busy_s: f64,
    report: BackendReport,
}

fn traced_streaming(
    spec: &Spec,
    ready: &Ready,
    tracer: &Arc<Tracer>,
    out: &mut Outcome,
) -> StreamView {
    let op = tracer.new_op();
    let backend = TracedBackend::new(
        ready.backend.clone(),
        Scope {
            tracer: tracer.clone(),
            parent: None,
            op,
        },
    );
    let mut fasta_s = 0.0;
    let mut source = batches(&ready.fasta, spec.batch_reads);
    let timed = std::iter::from_fn(|| {
        let start = Instant::now();
        let batch = source.next();
        fasta_s += start.elapsed().as_secs_f64();
        batch
    });
    let root = tracer.enter("bella.run_streaming", None, op);
    let streamed = BellaPipeline::new(spec.config()).run_streaming(timed, &backend);
    tracer.exit(root);
    out.check(
        product_of_overlaps(&streamed.overlaps) == ready.oracle,
        || format!("{}: traced run_streaming differs from run", spec.name),
    );
    StreamView {
        wall_s: tracer.duration(root),
        fasta_s,
        align_busy_s: tracer.busy(ALIGN_SPAN, op),
        report: backend.report(),
    }
}

/// The traced pass: one untraced repetition for reference, then the
/// operation again with spans around every layer.
pub fn trace(spec: &Spec, req: &Request, tracer: &Arc<Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let ready = set_up(spec, req.seed);
    out.input_digest = gen::fnv1a(&ready.fasta);
    out.output_digest = ready.oracle.digest;
    let (_, untraced_wall, _) = operate(spec, &ready.fasta, &*ready.backend);

    let stream =
        (spec.mode == Mode::Stream).then(|| traced_streaming(spec, &ready, tracer, &mut out));

    // Pass 2: the stages re-composed, one span each; its output must be
    // the untraced output, or the trace has drifted from the program.
    let stages_op = tracer.new_op();
    let root = tracer.enter("bella.pipeline", None, stages_op);
    let scope = Scope {
        tracer: tracer.clone(),
        parent: Some(root),
        op: stages_op,
    };
    let staged_backend = TracedBackend::new(ready.backend.clone(), scope.clone());
    let (product, counts) = if spec.mode == Mode::Stream {
        recomposed_streaming(spec, &ready.fasta, &staged_backend, &scope)
    } else {
        recomposed_monolithic(spec, &ready.fasta, &staged_backend, &scope)
    };
    tracer.exit(root);
    out.check(product == ready.oracle, || {
        format!(
            "{}: the recomposed stages differ from the program",
            spec.name
        )
    });

    let busy = |name| tracer.busy(name, stages_op);
    // The align layer and the parse as the workload's own operation used
    // them: inside `run_streaming` for the streaming workload, else in the
    // stages.
    let (fasta_s, align_busy_s, traced_wall, report) = match &stream {
        Some(view) => (
            view.fasta_s,
            view.align_busy_s,
            view.wall_s,
            view.report.clone(),
        ),
        None => (
            busy("seq.fasta"),
            busy(ALIGN_SPAN),
            tracer.duration(root),
            staged_backend.report(),
        ),
    };
    out.set("seq.fasta.busy_s", fasta_s);
    out.set(
        "seq.fasta.mb_per_s",
        ready.fasta.len() as f64 / 1e6 / fasta_s,
    );
    out.set("bella.kmer_count.busy_s", busy("bella.kmer_count"));
    out.set(
        "bella.kmer_count.distinct_kmers",
        counts.distinct_kmers as f64,
    );
    out.set("bella.prune.busy_s", busy("bella.prune"));
    out.set("bella.prune.reliable_kmers", counts.reliable_kmers as f64);
    out.set("bella.matrix.busy_s", busy("bella.matrix"));
    out.set("bella.matrix.nnz", counts.nnz as f64);
    out.set("bella.spgemm.busy_s", busy("bella.spgemm"));
    out.set("bella.spgemm.candidates", counts.spgemm_candidates as f64);
    out.set("bella.chain.sketch_s", busy("bella.chain.sketch"));
    out.set("bella.chain.chain_s", busy("bella.chain.chain"));
    out.set(
        "bella.chain.admitted_share",
        share(counts.candidates, counts.chained),
    );
    out.set("bella.binning.busy_s", busy("bella.binning"));
    out.set("bella.threshold.busy_s", busy("bella.threshold"));
    out.set(
        "bella.threshold.kept_share",
        share(counts.kept, counts.candidates),
    );
    out.set("bella.pipeline.glue_s", tracer.self_time(root));

    if let Some(view) = &stream {
        let stage_busy = tracer.duration(root) - tracer.self_time(root);
        out.set("bella.stream.overlap_ratio", stage_busy / view.wall_s);
    }
    kernel::extend_metrics(&mut out, align_busy_s, &report);
    out.set(
        "trace.overhead_share",
        (traced_wall - untraced_wall) / untraced_wall,
    );
    out.set("trace.wall_s", traced_wall);

    if spec.mode != Mode::Candidates {
        let reads = parse(&ready.fasta, spec.batch_reads);
        let (pairs, _, _) = BellaPipeline::new(spec.config()).candidates(&reads);
        let sub = kernel::subsample(&pairs, kernel::LADDER_PAIRS);
        kernel::ladder_metrics(&mut out, &sub, Scoring::default().into(), spec.x);
        if spec.mode == Mode::Run {
            crate::simlayers::metrics(&mut out, &sub, spec.x);
        }
    }
    out
}
