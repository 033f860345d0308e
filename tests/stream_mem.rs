//! Peak-memory smoke check for the BELLA pipeline (run as its own
//! premerge step), the measurable halves of the DESIGN.md §8 contract:
//! the streaming dataflow allocates a strictly lower peak than the
//! monolithic pipeline on the same input, and materialising candidate
//! pairs costs a record per pair and no sequence bytes — pairs share
//! their reads with the read store — so the candidate stage's peak is a
//! multiple of the input, not of candidates × read length.
//!
//! Lives in its own integration-test binary because the measuring
//! global allocator ([`logan_bench::memprobe`]) is process-wide (as
//! `alloc_count.rs` does for the zero-allocation contract). One test
//! function, so nothing runs concurrently with the measurement.

use logan::bella::{BellaConfig, BellaPipeline, PipelineBudget};
use logan::prelude::*;
use logan::seq::readsim::ReadSimulator;
use logan_bench::memprobe::{live_bytes, mib, peak_during, PeakAlloc};

#[global_allocator]
static PEAK_ALLOC: PeakAlloc = PeakAlloc;

#[test]
fn streaming_peak_is_bounded_by_batch_not_input() {
    // Depth-12 reads: every read overlaps ~20 others, so a candidate
    // list that copied both sequences into each pair would dwarf the
    // read set itself.
    let sim = ReadSimulator {
        read_len: (800, 1400),
        depth: 12.0,
        errors: ErrorProfile::pacbio(0.10),
        ..ReadSimulator::uniform(16_000, 12.0)
    };
    let rs = sim.generate(99);
    let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
    let backend = XDropCpuAligner::new(2, Scoring::default(), 30, Engine::Scalar);

    let config = |budget: PipelineBudget| BellaConfig {
        error_rate: 0.10,
        depth: rs.depth(),
        min_overlap: 1000,
        budget,
        ..BellaConfig::with_x(30)
    };

    // Neither measured region copies the reads (the streaming store
    // ingests shared clones), so the peaks compare like for like.
    let (mono, mono_peak) =
        peak_during(|| BellaPipeline::new(config(PipelineBudget::default())).run(&seqs, &backend));
    assert!(
        mono.stats.candidates > seqs.len(),
        "workload too sparse to exercise the candidate stage"
    );

    let budget = PipelineBudget {
        batch_reads: 16,
        shards: 8,
        inflight_blocks: 1,
    };
    let streaming = BellaPipeline::new(config(budget));
    let (out, small_batch) = peak_during(|| {
        streaming.run_streaming(logan::seq::readsim::seq_batches(&seqs, 16), &backend)
    });
    assert_eq!(out.overlaps, mono.overlaps);
    eprintln!(
        "peaks: monolithic {:.1} MiB, streaming(batch=16) {:.1} MiB",
        mib(mono_peak),
        mib(small_batch),
    );

    // (1) Streaming must beat the monolithic peak with real margin.
    assert!(
        (small_batch as f64) < 0.85 * mono_peak as f64,
        "streaming peak {:.1} MiB not clearly below monolithic {:.1} MiB",
        mib(small_batch),
        mib(mono_peak)
    );
    // (2) Candidate pairs share their reads. What `candidates()`
    // returns retains a record per pair — the pair, its `meta` entry,
    // growth slack — however long the reads are, and its peak (the
    // k-mer counter's: a code per position plus the count table) is a
    // multiple of the input bytes.
    let pipeline = BellaPipeline::new(config(PipelineBudget::default()));
    let live_before = live_bytes();
    let ((pairs, meta, _), candidates_peak) = peak_during(|| pipeline.candidates(&seqs));
    let retained = live_bytes() - live_before;
    let input_bytes: usize = seqs.iter().map(|s| s.len()).sum();
    let paired_bytes: usize = pairs.iter().map(|p| p.query.len() + p.target.len()).sum();
    let record = std::mem::size_of::<ReadPair>() + std::mem::size_of_val(&meta[0]);
    eprintln!(
        "candidates(): {} pairs over {} input bytes pair up {} sequence bytes; \
         retained {} bytes, peak {:.1} MiB",
        pairs.len(),
        input_bytes,
        paired_bytes,
        retained,
        mib(candidates_peak),
    );
    assert!(
        retained <= (2 * record * pairs.len()) as u64,
        "{} candidates retain {retained} bytes, over 2 x {record} each",
        pairs.len()
    );
    assert!(
        paired_bytes > 10 * input_bytes && retained < paired_bytes as u64 / 10,
        "retained {retained} bytes is not clearly below the {paired_bytes} \
         sequence bytes paired up"
    );
    assert!(
        candidates_peak < 32 * input_bytes as u64,
        "candidates() peak {:.1} MiB exceeds 32 x the {input_bytes} input bytes",
        mib(candidates_peak)
    );
}
