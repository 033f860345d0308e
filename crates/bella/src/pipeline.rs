//! The end-to-end BELLA pipeline with pluggable alignment backends.
//!
//! Alignment is delegated to any [`AlignBackend`] — the CPU pool, one
//! simulated GPU, the statically partitioned multi-GPU deployment, or a
//! work-stealing heterogeneous [`logan_core::fleet::Fleet`] — through
//! the object-safe trait, so the pipeline never matches on backend
//! kinds. The backend's scoring/X configuration must agree with the
//! [`BellaConfig`] it runs under (the adaptive threshold interprets
//! scores in the config's scoring system).
//!
//! Two execution shapes over the same stages (DESIGN.md §8):
//!
//! * [`BellaPipeline::run`] — the monolithic original: every stage
//!   materializes its full output before the next starts.
//! * [`BellaPipeline::run_streaming`] — the bounded-memory dataflow:
//!   reads arrive in [`ReadBatch`]es, the k-mers are counted (and, on the
//!   SpGEMM path, the matrix built) in waves of hash partitions that
//!   never coexist, the SpGEMM emits candidate tiles
//!   incrementally, and a producer thread feeds candidate blocks
//!   through a bounded channel to one consumer per backend *lane*
//!   ([`AlignBackend::lanes`]) so extension overlaps candidate
//!   generation — and a multi-lane backend (a fleet) drains the queue
//!   from every device at once instead of through a single consumer.
//!   Outputs are bit-identical: blocks are sequence-numbered and
//!   reassembled in order, so lane interleaving is unobservable.

use crate::binning::choose_seed;
use crate::chain::{chain_candidates, chain_tiles, ChainConfig, ChainedCandidate, MinimizerIndex};
use crate::kmer_count::count_reliable_sharded;
use crate::matrix::KmerMatrix;
use crate::metrics::OverlapMetrics;
use crate::prune::{reliable_bounds, ReliableBounds};
use crate::spgemm::{spgemm_candidates, spgemm_tiles, CandidatePair};
use crate::threshold::AdaptiveThreshold;
use logan_align::{seed_extend_with, AlignWorkspace, SeedExtendResult, XDropExtender};
use logan_core::{AlignBackend, BackendReport};
use logan_seq::readsim::{ReadBatch, ReadPair, ReadSet};
use logan_seq::{Scoring, Seed, Seq};
use serde::{Deserialize, Serialize};
use std::sync::{mpsc, Arc, Mutex};

/// Memory/concurrency budget of the streaming pipeline: every knob
/// bounds how much of some stage is live at once, so peak memory of the
/// candidate/alignment stages scales with these numbers instead of with
/// the input (the resident read store and the k-mer index remain
/// O(input), as in any overlapper that random-accesses reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineBudget {
    /// Reads per [`ReadBatch`] at ingest, rows per SpGEMM (or chaining)
    /// tile, and reads per batch of the minimizer sketch. It sets no
    /// grain of the SpGEMM path's matrix, which comes out of the
    /// counter's sort whole.
    pub batch_reads: usize,
    /// Waves of the k-mer counter — on the SpGEMM path the counter that
    /// also builds the matrix. One wave's keys are resident at a time, so
    /// the counting peak is ~`1/shards` of the monolithic counter's,
    /// beside the matrix postings of the waves already done. Every wave
    /// rolls the resident reads again, storing the keys of the other
    /// waves' partitions to one trash slot: ≈ 2 ns a base and wave, so
    /// 8 waves count in 1.3–1.5 × the time of one (DESIGN.md §8 has the
    /// table).
    pub shards: usize,
    /// Candidate blocks buffered between the SpGEMM producer and the
    /// alignment consumer; the channel bound is the backpressure rule —
    /// a fast producer blocks instead of ballooning.
    pub inflight_blocks: usize,
}

impl Default for PipelineBudget {
    fn default() -> PipelineBudget {
        PipelineBudget {
            batch_reads: 256,
            shards: 8,
            inflight_blocks: 2,
        }
    }
}

impl PipelineBudget {
    /// All knobs clamped to at least 1 (a zero budget means "smallest",
    /// not "nothing").
    pub fn clamped(self) -> PipelineBudget {
        PipelineBudget {
            batch_reads: self.batch_reads.max(1),
            shards: self.shards.max(1),
            inflight_blocks: self.inflight_blocks.max(1),
        }
    }
}

/// Which candidate generator feeds the X-drop extender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Seeder {
    /// BELLA's SpGEMM over all reliable k-mers: every pair sharing at
    /// least one reliable k-mer is aligned (binning picks the seed).
    #[default]
    SpGemm,
    /// Minimap2-style (w,k) minimizer sketches + colinear chaining
    /// ([`crate::chain`]): only pairs whose best chain supports the
    /// `min_overlap` floor are aligned — a strict subset of the SpGEMM
    /// candidates at a fraction of the alignment work.
    Minimizer,
}

/// Pipeline configuration (BELLA defaults with the paper's parameters).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BellaConfig {
    /// Seed k-mer length (BELLA: 17).
    pub k: usize,
    /// X-drop threshold for the extension stage.
    pub x: i32,
    /// Alignment scoring.
    pub scoring: Scoring,
    /// Per-read error rate (drives pruning and the threshold).
    pub error_rate: f64,
    /// Sequencing depth hint (drives the reliable window).
    pub depth: f64,
    /// Adaptive-threshold slack δ.
    pub delta: f64,
    /// Poisson tail mass for the reliable upper bound.
    pub tail: f64,
    /// Minimum estimated overlap to report (BELLA's evaluation uses
    /// 2 kb; pairs whose k-mer geometry implies less are by construction
    /// uninteresting for assembly).
    pub min_overlap: usize,
    /// Override the computed reliable window (for experiments).
    pub reliable_override: Option<ReliableBounds>,
    /// Streaming budget (ignored by the monolithic [`BellaPipeline::run`]).
    pub budget: PipelineBudget,
    /// Candidate generator: SpGEMM (BELLA) or minimizer chaining.
    pub seeder: Seeder,
    /// Minimizer window size `w` (used by [`Seeder::Minimizer`] only;
    /// the sketch keeps ~`2/(w+1)` of the k-mer positions).
    pub minimizer_w: usize,
}

impl BellaConfig {
    /// Paper-default configuration at the given X.
    pub fn with_x(x: i32) -> BellaConfig {
        BellaConfig {
            k: 17,
            x,
            scoring: Scoring::default(),
            error_rate: 0.15,
            depth: 30.0,
            delta: 0.25,
            tail: 1e-4,
            min_overlap: 2000,
            reliable_override: None,
            budget: PipelineBudget::default(),
            seeder: Seeder::SpGemm,
            minimizer_w: 8,
        }
    }
}

/// One aligned candidate pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Overlap {
    /// Lower read id.
    pub r1: usize,
    /// Higher read id.
    pub r2: usize,
    /// The seed extension started from.
    pub seed: Seed,
    /// Binning-estimated overlap length.
    pub est_overlap: usize,
    /// Alignment outcome.
    pub result: SeedExtendResult,
    /// Did it clear the adaptive threshold?
    pub kept: bool,
}

/// Per-stage statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Reads in.
    pub reads: usize,
    /// Distinct canonical k-mers.
    pub distinct_kmers: usize,
    /// Reliable k-mers after pruning.
    pub reliable_kmers: usize,
    /// The reliable window used.
    pub bounds: ReliableBounds,
    /// Nonzeros of the reads × k-mers matrix.
    pub matrix_nnz: usize,
    /// Candidate pairs out of the SpGEMM.
    pub candidates: usize,
    /// Pairs clearing the adaptive threshold.
    pub kept: usize,
    /// Total DP cells spent in alignment.
    pub total_cells: u64,
}

/// Pipeline output.
#[derive(Debug)]
pub struct BellaOutput {
    /// All aligned candidates (kept flag included), sorted by pair.
    pub overlaps: Vec<Overlap>,
    /// Stage statistics.
    pub stats: StageStats,
    /// The backend's merged performance report (see
    /// [`logan_core::backend::BackendReport`]): host wall and simulated
    /// time never mix, so it is meaningful for every backend kind.
    pub backend: BackendReport,
}

impl BellaOutput {
    /// The kept pairs as `(r1, r2)` tuples.
    pub fn kept_pairs(&self) -> Vec<(usize, usize)> {
        self.overlaps
            .iter()
            .filter(|o| o.kept)
            .map(|o| (o.r1, o.r2))
            .collect()
    }

    /// Score against ground truth overlaps (`(i, j, len)` with `i < j`).
    pub fn metrics(&self, truth: &[(usize, usize, usize)]) -> OverlapMetrics {
        OverlapMetrics::score(&self.kept_pairs(), truth)
    }
}

/// The BELLA pipeline.
pub struct BellaPipeline {
    /// Configuration.
    pub config: BellaConfig,
}

impl BellaPipeline {
    /// Build with a configuration.
    pub fn new(config: BellaConfig) -> BellaPipeline {
        BellaPipeline { config }
    }

    /// Stages 1–4: k-mer counting, pruning, then candidate generation
    /// under the configured [`Seeder`] — SpGEMM + binning, or minimizer
    /// sketching + chaining (where only pairs whose best chain supports
    /// `min_overlap` are admitted). Returns the to-be-aligned pairs
    /// (with seeds and overlap estimates) plus partially filled stats.
    pub fn candidates(
        &self,
        reads: &[Seq],
    ) -> (Vec<ReadPair>, Vec<(usize, usize, usize)>, StageStats) {
        let cfg = &self.config;
        let bounds = cfg
            .reliable_override
            .unwrap_or_else(|| reliable_bounds(cfg.depth, cfg.error_rate, cfg.k, cfg.tail));
        // No count table is built: one wave of the counter, reduced as it
        // is counted — to the matrix itself on the SpGEMM path, to the
        // reliable set the sketch filters by on the minimizer path.
        let (distinct_kmers, reliable_kmers, nnz, block) = match cfg.seeder {
            Seeder::SpGemm => {
                let (distinct, matrix) = KmerMatrix::count_and_build(reads, cfg.k, 1, bounds);
                let cands = spgemm_candidates(&matrix);
                let block = CandidateBlock::build(&cands, reads, cfg.k);
                (distinct, matrix.n_cols, matrix.nnz(), block)
            }
            Seeder::Minimizer => {
                let (distinct, reliable) = count_reliable_sharded(reads, cfg.k, 1, bounds);
                let mut index = MinimizerIndex::new(cfg.minimizer_w, cfg.k);
                index.push_batch(reads, &reliable);
                let chained = chain_candidates(&index, ChainConfig::default());
                let block = CandidateBlock::from_chained(&chained, reads, cfg.min_overlap);
                (distinct, reliable.len(), index.nnz(), block)
            }
        };
        let stats = StageStats {
            reads: reads.len(),
            distinct_kmers,
            reliable_kmers,
            bounds,
            matrix_nnz: nnz,
            candidates: block.meta.len(),
            kept: 0,
            total_cells: 0,
        };
        (block.pairs, block.meta, stats)
    }

    /// Panic unless the backend's declared X-drop parameters (when it
    /// declares any) agree with this pipeline's config: the adaptive
    /// threshold interprets scores in the config's scoring system at
    /// the config's X, so a mismatched backend would silently
    /// misclassify every overlap — the failure mode the old closed
    /// backend enum made impossible by construction.
    ///
    /// A matrix-profile backend has no `Scoring` rendering; the check
    /// skips it rather than compare incommensurable schemes.
    fn check_backend(&self, backend: &dyn AlignBackend) {
        let declared = backend.profile_params();
        if let Some((scoring, x)) = declared.and_then(|(p, x)| Some((p.as_match_mismatch()?, x))) {
            assert!(
                scoring == self.config.scoring && x == self.config.x,
                "backend {} aligns under {:?}/X={} but the pipeline is configured {:?}/X={}",
                backend.name(),
                scoring,
                x,
                self.config.scoring,
                self.config.x
            );
        }
    }

    /// Run the full pipeline on `reads` with the given backend.
    ///
    /// # Panics
    ///
    /// Panics when the backend declares X-drop parameters that disagree
    /// with [`BellaConfig::scoring`]/[`BellaConfig::x`].
    pub fn run(&self, reads: &[Seq], backend: &dyn AlignBackend) -> BellaOutput {
        self.check_backend(backend);
        let (pairs, meta, mut stats) = self.candidates(reads);
        let (results, backend_report) = backend.align_block(&pairs);

        let threshold = AdaptiveThreshold::new(
            self.config.scoring,
            self.config.error_rate,
            self.config.delta,
        );
        let mut overlaps = Vec::with_capacity(results.len());
        let mut kept = 0usize;
        let mut cells = 0u64;
        for (((r1, r2, est), pair), result) in meta.into_iter().zip(&pairs).zip(results) {
            let keep = est >= self.config.min_overlap && threshold.keep(result.score, est);
            kept += keep as usize;
            cells += result.cells();
            overlaps.push(Overlap {
                r1,
                r2,
                seed: pair.seed,
                est_overlap: est,
                result,
                kept: keep,
            });
        }
        stats.kept = kept;
        stats.total_cells = cells;
        BellaOutput {
            overlaps,
            stats,
            backend: backend_report,
        }
    }

    /// Run the full pipeline as a streaming, sharded, bounded-memory
    /// dataflow; bit-identical output to [`BellaPipeline::run`] on the
    /// same reads in the same order.
    ///
    /// Stages (DESIGN.md §8):
    ///
    /// 1. **Ingest** — `batches` are drained into the resident read
    ///    store; sources ([`logan_seq::fasta::FastaBatches`],
    ///    [`ReadSet::seq_batches`]) hold one bounded batch at a time.
    /// 2. **Sharded counting into the index** — one wave of hash
    ///    partitions at a time, so at most `1/shards` of the k-mers is
    ///    ever resident: [`KmerMatrix::count_and_build`] reduces them
    ///    straight to the reads × reliable-k-mers matrix, which stays
    ///    resident (it is the index alignment reads from, O(nnz)); on the
    ///    minimizer path [`count_reliable_sharded`] reduces them to the
    ///    reliable set and the sketch index is built batch by batch.
    /// 3. **Candidates ∥ alignment** — a producer thread walks
    ///    [`spgemm_tiles`], turns each tile into a sequence-numbered
    ///    candidate block (seeds chosen, read pairs materialized) and
    ///    sends it down a channel bounded at `inflight_blocks`; one
    ///    consumer thread per backend *lane* pulls blocks and aligns
    ///    them ([`AlignBackend::align_block_on`]), so extension overlaps
    ///    candidate generation, a multi-lane backend (fleet, multi-GPU)
    ///    keeps every device busy, and at most
    ///    `inflight_blocks + lanes + 1` blocks exist at once (queued,
    ///    being aligned, being produced). A full channel blocks the
    ///    producer — that is the backpressure rule keeping the candidate
    ///    stage O(batch) instead of O(genome). Blocks carry shared
    ///    reads, not copies; aligned blocks are reassembled in
    ///    sequence-number order, so outputs do not depend on lane
    ///    interleaving.
    pub fn run_streaming<I>(&self, batches: I, backend: &dyn AlignBackend) -> BellaOutput
    where
        I: IntoIterator<Item = ReadBatch>,
    {
        self.check_backend(backend);
        let cfg = &self.config;
        let budget = cfg.budget.clamped();

        // Stage 1: ingest bounded batches into the resident store.
        let mut reads: Vec<Seq> = Vec::new();
        for batch in batches {
            debug_assert_eq!(batch.start_id, reads.len(), "batches must be contiguous");
            reads.extend(batch.seqs);
        }

        // Stage 2: sharded counting straight into the seeder's index —
        // the CSR k-mer matrix, or the minimizer sketch index over the
        // reliable set. The waves and the sketch's batches are both
        // invisible in the result, so this equals the monolithic build.
        let bounds = cfg
            .reliable_override
            .unwrap_or_else(|| reliable_bounds(cfg.depth, cfg.error_rate, cfg.k, cfg.tail));
        let (distinct, reliable_kmers, index) = match cfg.seeder {
            Seeder::SpGemm => {
                let (distinct, matrix) =
                    KmerMatrix::count_and_build(&reads, cfg.k, budget.shards, bounds);
                (distinct, matrix.n_cols, SeedIndex::SpGemm(matrix))
            }
            Seeder::Minimizer => {
                let (distinct, reliable) =
                    count_reliable_sharded(&reads, cfg.k, budget.shards, bounds);
                let mut index = MinimizerIndex::new(cfg.minimizer_w, cfg.k);
                for chunk in reads.chunks(budget.batch_reads) {
                    index.push_batch(chunk, &reliable);
                }
                (distinct, reliable.len(), SeedIndex::Minimizer(index))
            }
        };

        let mut stats = StageStats {
            reads: reads.len(),
            distinct_kmers: distinct,
            reliable_kmers,
            bounds,
            matrix_nnz: match &index {
                SeedIndex::SpGemm(m) => m.nnz(),
                SeedIndex::Minimizer(i) => i.nnz(),
            },
            candidates: 0,
            kept: 0,
            total_cells: 0,
        };

        // Stage 3: one producer, `lanes` consumers. The producer owns
        // candidate generation; each consumer owns one backend lane.
        let lanes = backend.lanes().max(1);
        let (tx, rx) = mpsc::sync_channel::<(usize, CandidateBlock)>(budget.inflight_blocks);
        // The receiver is shared by all consumers behind a mutex; each
        // holds one Arc clone and the spawning frame drops its own, so
        // when every consumer has exited (or panicked) the receiver is
        // gone and a producer blocked in `send` gets an Err instead of
        // deadlocking the scope join.
        let rx = Arc::new(Mutex::new(rx));
        let (reads_ref, index_ref) = (&reads, &index);
        let k = cfg.k;
        let min_overlap = cfg.min_overlap;
        let mut done: Vec<(usize, AlignedBlock)> = Vec::new();
        let mut lane_reports: Vec<BackendReport> = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                match index_ref {
                    SeedIndex::SpGemm(matrix) => {
                        for (seq_no, tile) in spgemm_tiles(matrix, budget.batch_reads)
                            .filter(|t| !t.is_empty())
                            .enumerate()
                        {
                            let block = CandidateBlock::build(&tile, reads_ref, k);
                            if tx.send((seq_no, block)).is_err() {
                                return; // all consumers gone; stop producing
                            }
                        }
                    }
                    SeedIndex::Minimizer(mindex) => {
                        // Tiles whose every candidate fails the
                        // min_overlap admission shrink to empty blocks
                        // and are skipped, mirroring the empty-tile
                        // filter above; the per-candidate filter equals
                        // the monolithic path's by construction.
                        for (seq_no, block) in
                            chain_tiles(mindex, budget.batch_reads, ChainConfig::default())
                                .map(|tile| {
                                    CandidateBlock::from_chained(&tile, reads_ref, min_overlap)
                                })
                                .filter(|b| !b.meta.is_empty())
                                .enumerate()
                        {
                            if tx.send((seq_no, block)).is_err() {
                                return;
                            }
                        }
                    }
                }
                // tx drops here, closing the channel.
            });
            let consumers: Vec<_> = (0..lanes)
                .map(|lane| {
                    let rx = Arc::clone(&rx);
                    scope.spawn(move || {
                        let mut report = BackendReport::empty();
                        let mut blocks: Vec<(usize, AlignedBlock)> = Vec::new();
                        loop {
                            // Hold the receiver lock only for the recv —
                            // other lanes pull the next block while this
                            // one aligns.
                            let msg = rx.lock().expect("receiver lock poisoned").recv();
                            let Ok((seq_no, block)) = msg else { break };
                            let (results, rep) = backend.align_block_on(lane, &block.pairs);
                            report.merge(rep);
                            blocks.push((seq_no, AlignedBlock::strip(block, results)));
                        }
                        (report, blocks)
                    })
                })
                .collect();
            drop(rx); // consumers hold the only remaining receiver refs
            for handle in consumers {
                let (report, blocks) = handle.join().expect("consumer lane panicked");
                lane_reports.push(report);
                done.extend(blocks);
            }
        });

        // Reassemble in production order: lane interleaving must be
        // unobservable in the output.
        done.sort_by_key(|&(seq_no, _)| seq_no);
        let threshold = AdaptiveThreshold::new(cfg.scoring, cfg.error_rate, cfg.delta);
        let mut overlaps: Vec<Overlap> = Vec::new();
        for (_, block) in done {
            stats.candidates += block.meta.len();
            for (((r1, r2, est), seed), result) in
                block.meta.into_iter().zip(block.seeds).zip(block.results)
            {
                let keep = est >= cfg.min_overlap && threshold.keep(result.score, est);
                stats.kept += keep as usize;
                stats.total_cells += result.cells();
                overlaps.push(Overlap {
                    r1,
                    r2,
                    seed,
                    est_overlap: est,
                    result,
                    kept: keep,
                });
            }
        }
        // Lanes ran concurrently: fold their reports with the
        // concurrent merge (work adds, time domains take the max).
        let mut backend_report = BackendReport::empty();
        for rep in lane_reports {
            backend_report.merge_concurrent(rep);
        }

        BellaOutput {
            overlaps,
            stats,
            backend: backend_report,
        }
    }

    /// Convenience: [`BellaPipeline::run_streaming`] over a simulated
    /// [`ReadSet`] (depth and error rate taken from the set itself),
    /// returning output plus ground-truth metrics at `min_overlap` —
    /// the streaming mirror of [`BellaPipeline::run_on_readset`].
    pub fn run_streaming_on_readset(
        &self,
        rs: &ReadSet,
        backend: &dyn AlignBackend,
        min_overlap: usize,
    ) -> (BellaOutput, OverlapMetrics) {
        let mut cfg = self.config;
        cfg.depth = rs.depth();
        cfg.error_rate = rs.error_rate;
        let pipeline = BellaPipeline::new(cfg);
        let out = pipeline.run_streaming(rs.seq_batches(cfg.budget.clamped().batch_reads), backend);
        let truth = rs.true_overlaps(min_overlap);
        let metrics = out.metrics(&truth);
        (out, metrics)
    }

    /// Convenience: run on a simulated [`ReadSet`] (depth taken from the
    /// set itself) and return output plus ground-truth metrics at
    /// `min_overlap`.
    pub fn run_on_readset(
        &self,
        rs: &ReadSet,
        backend: &dyn AlignBackend,
        min_overlap: usize,
    ) -> (BellaOutput, OverlapMetrics) {
        let mut cfg = self.config;
        cfg.depth = rs.depth();
        cfg.error_rate = rs.error_rate;
        let pipeline = BellaPipeline::new(cfg);
        let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let out = pipeline.run(&seqs, backend);
        let truth = rs.true_overlaps(min_overlap);
        let metrics = out.metrics(&truth);
        (out, metrics)
    }
}

/// Candidates with seeds chosen and read pairs materialized: one
/// producer→consumer unit of the streaming pipeline (a tile), or the
/// whole candidate list of [`BellaPipeline::candidates`]. A pair
/// *shares* its two reads with the read store ([`Seq::clone`] copies no
/// bases), so a block costs `size_of::<ReadPair>()` plus its `meta`
/// entry per pair, whatever the read length.
#[derive(Default)]
struct CandidateBlock {
    /// `(r1, r2, est_overlap)` per pair, in `(r1, r2)` order.
    meta: Vec<(usize, usize, usize)>,
    /// The aligned-backend input, parallel to `meta`.
    pairs: Vec<ReadPair>,
}

/// The seeder-specific candidate index of the streaming pipeline: the
/// CSR reads × k-mers matrix (SpGEMM path) or the minimizer sketch
/// index (chaining path). Built once in stage 2, walked tile by tile by
/// the stage-3 producer.
enum SeedIndex {
    SpGemm(KmerMatrix),
    Minimizer(MinimizerIndex),
}

impl CandidateBlock {
    fn push(&mut self, reads: &[Seq], r1: u32, r2: u32, seed: Seed, est: usize) {
        let (r1, r2) = (r1 as usize, r2 as usize);
        self.pairs.push(ReadPair {
            query: reads[r1].clone(),
            target: reads[r2].clone(),
            seed,
            template_len: est,
        });
        self.meta.push((r1, r2, est));
    }

    /// Block from chained candidates, admitting only pairs whose chain
    /// supports at least `min_overlap` — the minimizer path's
    /// candidate-volume win over the align-everything SpGEMM path.
    fn from_chained(
        tile: &[ChainedCandidate],
        reads: &[Seq],
        min_overlap: usize,
    ) -> CandidateBlock {
        let mut block = CandidateBlock::default();
        for c in tile.iter().filter(|c| c.est >= min_overlap) {
            block.push(reads, c.r1, c.r2, c.seed, c.est);
        }
        block
    }

    /// Block from SpGEMM candidates: binning picks each pair's seed.
    fn build(tile: &[CandidatePair], reads: &[Seq], k: usize) -> CandidateBlock {
        let mut block = CandidateBlock::default();
        block.pairs.reserve(tile.len());
        block.meta.reserve(tile.len());
        for c in tile {
            let (len1, len2) = (reads[c.r1 as usize].len(), reads[c.r2 as usize].len());
            let (seed, est) = choose_seed(len1, len2, c, k);
            block.push(reads, c.r1, c.r2, seed, est);
        }
        block
    }
}

/// A candidate block after alignment, stripped of its pairs: only the
/// metadata, seeds and results survive until the in-order reassembly.
struct AlignedBlock {
    meta: Vec<(usize, usize, usize)>,
    seeds: Vec<Seed>,
    results: Vec<SeedExtendResult>,
}

impl AlignedBlock {
    fn strip(block: CandidateBlock, results: Vec<SeedExtendResult>) -> AlignedBlock {
        AlignedBlock {
            meta: block.meta,
            seeds: block.pairs.iter().map(|p| p.seed).collect(),
            results,
        }
    }
}

/// Reference single-threaded alignment of a candidate list — used by
/// tests to pin backend results. One workspace serves the whole list
/// (DESIGN.md §7); results are identical to per-call fresh scratch.
pub fn align_candidates_reference(
    pairs: &[ReadPair],
    scoring: Scoring,
    x: i32,
) -> Vec<SeedExtendResult> {
    let ext = XDropExtender::new(scoring, x);
    let mut ws = AlignWorkspace::new();
    pairs
        .iter()
        .map(|p| seed_extend_with(&p.query, &p.target, p.seed, &ext, &mut ws))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_align::{Engine, XDropCpuAligner};
    use logan_core::{Fleet, GpuBackend, LoganConfig, LoganExecutor};
    use logan_gpusim::DeviceSpec;
    use logan_seq::readsim::ReadSimulator;
    use logan_seq::ErrorProfile;

    fn small_readset() -> ReadSet {
        let sim = ReadSimulator {
            read_len: (900, 1400),
            errors: ErrorProfile::pacbio(0.10),
            ..ReadSimulator::uniform(25_000, 8.0)
        };
        sim.generate(42)
    }

    fn test_config(x: i32) -> BellaConfig {
        BellaConfig {
            error_rate: 0.10,
            // The test reads are 0.9–1.4 kb, so BELLA's default 2 kb
            // floor would keep nothing; scale it to the read length.
            min_overlap: 700,
            ..BellaConfig::with_x(x)
        }
    }

    fn cpu_backend(threads: usize, x: i32) -> XDropCpuAligner {
        XDropCpuAligner::new(threads, Scoring::default(), x, Engine::Scalar)
    }

    #[test]
    fn pipeline_finds_true_overlaps_cpu() {
        let rs = small_readset();
        let pipeline = BellaPipeline::new(test_config(50));
        let aligner = cpu_backend(4, 50);
        let (out, _) = pipeline.run_on_readset(&rs, &aligner, 500);
        assert!(out.stats.candidates > 0, "SpGEMM must find candidates");
        assert!(out.stats.kept > 0, "some overlaps must clear the line");
        // Precision against a loose truth (≥500 bp): anything we keep at
        // min_overlap=700 should truly overlap by at least 500.
        let kept = out.kept_pairs();
        let precision = OverlapMetrics::score(&kept, &rs.true_overlaps(500)).precision;
        assert!(precision > 0.85, "precision {precision:.2} too low");
        // Recall against a strict truth (≥1000 bp): long overlaps must
        // not be missed just because the estimate sits near the floor.
        let recall = OverlapMetrics::score(&kept, &rs.true_overlaps(1000)).recall;
        assert!(recall > 0.55, "recall {recall:.2} too low");
    }

    #[test]
    fn gpu_backend_reproduces_cpu_backend() {
        let rs = small_readset();
        let pipeline = BellaPipeline::new(test_config(50));
        let aligner = cpu_backend(2, 50);
        let exec = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50));
        let (cpu_out, _) = pipeline.run_on_readset(&rs, &aligner, 600);
        let (gpu_out, _) = pipeline.run_on_readset(&rs, &exec, 600);
        assert_eq!(cpu_out.kept_pairs(), gpu_out.kept_pairs());
        assert_eq!(cpu_out.stats.total_cells, gpu_out.stats.total_cells);
        for (a, b) in cpu_out.overlaps.iter().zip(&gpu_out.overlaps) {
            assert_eq!(a.result, b.result);
        }
        assert!(gpu_out.backend.sim_time_s > 0.0, "GPU run simulates time");
        assert_eq!(cpu_out.backend.sim_time_s, 0.0, "CPU run is host-only");
        assert!(cpu_out.backend.wall_s > 0.0);
        assert_eq!(gpu_out.backend.total_cells, gpu_out.stats.total_cells);
    }

    #[test]
    fn multi_gpu_backend_matches_too() {
        let rs = small_readset();
        let pipeline = BellaPipeline::new(test_config(30));
        let aligner = cpu_backend(2, 30);
        let multi = Fleet::static_gpus(3, DeviceSpec::v100(), LoganConfig::with_x(30));
        let (cpu_out, _) = pipeline.run_on_readset(&rs, &aligner, 600);
        let (mg_out, _) = pipeline.run_on_readset(&rs, &multi, 600);
        assert_eq!(cpu_out.kept_pairs(), mg_out.kept_pairs());
    }

    #[test]
    fn fleet_backend_matches_too() {
        // The tentpole seam: a heterogeneous work-stealing fleet behind
        // the same trait object produces bit-identical pipeline output.
        let rs = small_readset();
        let pipeline = BellaPipeline::new(test_config(30));
        let aligner = cpu_backend(2, 30);
        let cfg = LoganConfig::with_x(30);
        let fleet = Fleet::new(vec![
            Box::new(GpuBackend::new(
                LoganExecutor::new(DeviceSpec::v100(), cfg),
                1,
            )),
            Box::new(cpu_backend(2, 30)),
        ]);
        let (cpu_out, _) = pipeline.run_on_readset(&rs, &aligner, 600);
        let (fleet_out, _) = pipeline.run_on_readset(&rs, &fleet, 600);
        assert_eq!(cpu_out.overlaps, fleet_out.overlaps);
        assert_eq!(cpu_out.stats, fleet_out.stats);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let rs = small_readset();
        let pipeline = BellaPipeline::new(test_config(50));
        let aligner = cpu_backend(2, 50);
        let (out, _) = pipeline.run_on_readset(&rs, &aligner, 600);
        assert_eq!(out.overlaps.len(), out.stats.candidates);
        assert_eq!(
            out.stats.kept,
            out.overlaps.iter().filter(|o| o.kept).count()
        );
        assert!(out.stats.reliable_kmers <= out.stats.distinct_kmers);
        assert_eq!(
            out.stats.total_cells,
            out.overlaps.iter().map(|o| o.result.cells()).sum::<u64>()
        );
        for o in &out.overlaps {
            assert!(o.r1 < o.r2);
        }
    }

    #[test]
    fn higher_x_does_not_reduce_kept_overlaps() {
        // §VI-B: larger X raises scores of true overlaps toward the
        // expectation line, improving separation.
        let rs = small_readset();
        let kept = |x: i32| {
            let pipeline = BellaPipeline::new(test_config(x));
            let aligner = cpu_backend(4, x);
            let (out, m) = pipeline.run_on_readset(&rs, &aligner, 600);
            (out.stats.kept, m.recall)
        };
        let (kept_small, recall_small) = kept(5);
        let (kept_large, recall_large) = kept(100);
        assert!(kept_large >= kept_small);
        assert!(recall_large >= recall_small);
    }

    /// The tentpole invariant: the streaming dataflow is bit-identical
    /// to the monolithic pipeline on every backend and for adversarial
    /// budgets (1-read batches, 1 shard, many shards, tiny channels).
    #[test]
    fn streaming_is_bit_identical_to_monolithic() {
        let rs = small_readset();
        let aligner = cpu_backend(4, 50);
        let exec = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50));
        let multi = Fleet::static_gpus(3, DeviceSpec::v100(), LoganConfig::with_x(50));
        let backends: [&dyn AlignBackend; 3] = [&aligner, &exec, &multi];
        let budgets = [
            PipelineBudget::default(),
            PipelineBudget {
                batch_reads: 1,
                shards: 1,
                inflight_blocks: 1,
            },
            PipelineBudget {
                batch_reads: 7,
                shards: 13,
                inflight_blocks: 4,
            },
            PipelineBudget {
                batch_reads: 0,
                shards: 0,
                inflight_blocks: 0,
            },
        ];
        for (bi, backend) in backends.iter().enumerate() {
            let base = BellaPipeline::new(test_config(50));
            let (mono, mono_metrics) = base.run_on_readset(&rs, *backend, 600);
            // Full budget sweep on the CPU backend; one adversarial
            // budget for the simulated-GPU backends (their agreement
            // with the CPU backend is pinned by the backend tests, so
            // re-sweeping budgets there only re-spends wall time).
            let sweep: &[PipelineBudget] = if bi == 0 { &budgets } else { &budgets[1..2] };
            for &budget in sweep {
                let mut cfg = test_config(50);
                cfg.budget = budget;
                let pipeline = BellaPipeline::new(cfg);
                let (stream, metrics) = pipeline.run_streaming_on_readset(&rs, *backend, 600);
                assert_eq!(
                    stream.overlaps, mono.overlaps,
                    "overlaps must be bit-identical ({budget:?})"
                );
                assert_eq!(stream.stats, mono.stats, "stats must match ({budget:?})");
                assert_eq!(metrics, mono_metrics);
            }
        }
    }

    #[test]
    fn minimizer_seeder_finds_true_overlaps() {
        let rs = small_readset();
        let mut cfg = test_config(50);
        cfg.seeder = Seeder::Minimizer;
        let pipeline = BellaPipeline::new(cfg);
        let aligner = cpu_backend(4, 50);
        let (out, _) = pipeline.run_on_readset(&rs, &aligner, 700);
        assert!(out.stats.candidates > 0, "chaining must admit candidates");
        assert!(out.stats.kept > 0);
        // Every admitted pair carries a chain-supported estimate.
        for o in &out.overlaps {
            assert!(o.est_overlap >= 700);
            assert!(o.seed.qpos + o.seed.len <= rs.reads[o.r1].seq.len());
            assert!(o.seed.tpos + o.seed.len <= rs.reads[o.r2].seq.len());
        }
        // The sketch admits far fewer pairs than the SpGEMM path...
        let spg = BellaPipeline::new(test_config(50));
        let (spg_out, spg_metrics) = spg.run_on_readset(&rs, &aligner, 700);
        assert!(out.stats.candidates < spg_out.stats.candidates);
        // ...at comparable recall.
        let metrics = out.metrics(&rs.true_overlaps(700));
        assert!(
            metrics.recall >= 0.90 * spg_metrics.recall,
            "minimizer recall {:.3} vs spgemm {:.3}",
            metrics.recall,
            spg_metrics.recall
        );
    }

    #[test]
    fn minimizer_streaming_is_bit_identical_to_monolithic() {
        let rs = small_readset();
        let aligner = cpu_backend(4, 50);
        let mut base = test_config(50);
        base.seeder = Seeder::Minimizer;
        let (mono, mono_metrics) = BellaPipeline::new(base).run_on_readset(&rs, &aligner, 700);
        for budget in [
            PipelineBudget::default(),
            PipelineBudget {
                batch_reads: 1,
                shards: 1,
                inflight_blocks: 1,
            },
            PipelineBudget {
                batch_reads: 7,
                shards: 13,
                inflight_blocks: 4,
            },
        ] {
            let mut cfg = base;
            cfg.budget = budget;
            let pipeline = BellaPipeline::new(cfg);
            let (stream, metrics) = pipeline.run_streaming_on_readset(&rs, &aligner, 700);
            assert_eq!(stream.overlaps, mono.overlaps, "({budget:?})");
            assert_eq!(stream.stats, mono.stats, "({budget:?})");
            assert_eq!(metrics, mono_metrics);
        }
    }

    #[test]
    fn streaming_report_accumulates_across_blocks() {
        let rs = small_readset();
        let mut cfg = test_config(50);
        cfg.budget = PipelineBudget {
            batch_reads: 16,
            shards: 4,
            inflight_blocks: 2,
        };
        let pipeline = BellaPipeline::new(cfg);
        let aligner = cpu_backend(2, 50);
        let (out, _) = pipeline.run_streaming_on_readset(&rs, &aligner, 600);
        assert!(out.backend.wall_s > 0.0, "CPU wall accumulates over blocks");
        assert_eq!(out.backend.sim_time_s, 0.0);
        assert!(out.backend.blocks > 1, "16-read tiles make several blocks");
        let multi = Fleet::static_gpus(2, DeviceSpec::v100(), LoganConfig::with_x(50));
        let (out, _) = pipeline.run_streaming_on_readset(&rs, &multi, 600);
        assert!(out.backend.sim_time_s > 0.0);
        assert_eq!(out.backend.total_cells, out.stats.total_cells);
        assert_eq!(
            out.backend.pairs, out.stats.candidates,
            "every candidate aligned on exactly one lane"
        );
    }

    #[test]
    #[should_panic(expected = "aligns under")]
    fn mismatched_backend_rejected() {
        // A backend bound to X=99 must not run under a pipeline
        // configured at X=50: the adaptive threshold would misread its
        // scores. The old closed enum made this impossible; the trait
        // seam enforces it through `AlignBackend::profile_params`.
        let pipeline = BellaPipeline::new(test_config(50));
        let aligner = cpu_backend(1, 99);
        let _ = pipeline.run(&[], &aligner);
    }

    #[test]
    fn streaming_empty_input() {
        let pipeline = BellaPipeline::new(test_config(50));
        let aligner = cpu_backend(1, 50);
        let out = pipeline.run_streaming(std::iter::empty(), &aligner);
        assert!(out.overlaps.is_empty());
        assert_eq!(out.stats.reads, 0);
        assert_eq!(out.stats.candidates, 0);
        assert_eq!(out.backend.gcups(), 0.0, "empty run reports 0.0 GCUPS");
    }

    #[test]
    fn reliable_override_respected() {
        let rs = small_readset();
        let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let mut cfg = BellaConfig::with_x(20);
        cfg.reliable_override = Some(crate::prune::ReliableBounds { lo: 2, hi: 3 });
        let (_, _, stats) = BellaPipeline::new(cfg).candidates(&seqs);
        assert_eq!(stats.bounds, crate::prune::ReliableBounds { lo: 2, hi: 3 });
    }
}
