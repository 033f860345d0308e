//! Peak-memory smoke check for the BELLA pipeline (run as its own
//! premerge step), the measurable halves of the DESIGN.md §8 contract:
//! the streaming dataflow allocates a strictly lower peak than the
//! monolithic pipeline on the same input, and materialising candidate
//! pairs costs a record per pair and no sequence bytes — pairs share
//! their reads with the read store — so the candidate stage's peak is a
//! multiple of the input, not of candidates × read length.
//!
//! Two more peaks pin the serial front end: `candidates()` counts
//! k-mers into the reliable set without a count table beside the code
//! buffer, and parsing FASTA leaves no growth slack on the records.
//!
//! Lives in its own integration-test binary because the measuring
//! global allocator ([`logan_bench::memprobe`]) is process-wide (as
//! `alloc_count.rs` does for the zero-allocation contract). One test
//! function, so nothing runs concurrently with the measurement.

use logan::bella::{BellaConfig, BellaPipeline, PipelineBudget};
use logan::prelude::*;
use logan::seq::fasta::{write_fasta, FastaBatches, Record};
use logan::seq::readsim::ReadSimulator;
use logan_bench::memprobe::{live_bytes, mib, peak_during, PeakAlloc};

#[global_allocator]
static PEAK_ALLOC: PeakAlloc = PeakAlloc;

/// Parsing FASTA retains the bases plus a fixed cost per record (id,
/// buffer headers), and on the way holds one batch more: no record
/// keeps the capacity slack of a buffer grown line by line.
fn parsed_fasta_holds_the_bases_and_one_batch() {
    let sim = ReadSimulator {
        read_len: (300, 5000),
        errors: ErrorProfile::pacbio(0.10),
        ..ReadSimulator::uniform(100_000, 8.0)
    };
    let records: Vec<Record> = sim
        .generate(11)
        .reads
        .into_iter()
        .enumerate()
        .map(|(i, r)| Record {
            id: format!("read{i}"),
            seq: r.seq,
        })
        .collect();
    let mut text = Vec::new();
    write_fasta(&mut text, &records, 80).unwrap();
    let bases: usize = records.iter().map(|r| r.seq.len()).sum();
    let longest = records.iter().map(|r| r.seq.len()).max().unwrap();
    drop(records);

    let batch_reads = 64;
    let live_before = live_bytes();
    let (seqs, peak) = peak_during(|| {
        let mut seqs: Vec<Seq> = Vec::new();
        for batch in FastaBatches::new(&text[..], batch_reads) {
            seqs.extend(batch.unwrap().into_iter().map(|r| r.seq));
        }
        seqs
    });
    let retained = live_bytes() - live_before;
    let parsed: usize = seqs.iter().map(|s| s.len()).sum();
    assert_eq!(parsed, bases);
    // Per record: the shared-buffer header and the handle in `seqs`
    // (with that vector's own doubling).
    let per_record = 40 + 2 * std::mem::size_of::<Seq>();
    let held = (bases + per_record * seqs.len()) as u64;
    // In flight: one batch of record handles with their ids (the bases
    // are counted above), the line and record buffers, the reader's
    // block.
    let in_flight = (batch_reads * 128 + 4 * longest + 16 * 1024) as u64;
    eprintln!(
        "parse: {bases} bases in {} records: retained {retained} bytes, peak {peak}, \
         allowed {held} + {in_flight}",
        seqs.len()
    );
    assert!(retained <= held, "retained {retained} > {held}");
    assert!(
        peak <= held + in_flight,
        "peak {peak} > {held} + {in_flight}"
    );
}

#[test]
fn streaming_peak_is_bounded_by_batch_not_input() {
    // Same process-wide counters, so the same test function.
    parsed_fasta_holds_the_bases_and_one_batch();

    // Depth-12 reads: every read overlaps ~20 others, so a candidate
    // list that copied both sequences into each pair would dwarf the
    // read set itself. At the paper's 15 % error the monolithic peak is
    // the counter's code buffer, the thing streaming divides by
    // `shards`; on cleaner reads (10 %) the resident index and the
    // results, which both shapes hold, are as large as that buffer and
    // the two peaks meet (1.7 MiB each on this genome).
    let sim = ReadSimulator {
        read_len: (800, 1400),
        depth: 12.0,
        errors: ErrorProfile::pacbio(0.15),
        ..ReadSimulator::uniform(16_000, 12.0)
    };
    let rs = sim.generate(99);
    let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
    let backend = XDropCpuAligner::new(2, Scoring::default(), 30, Engine::Scalar);

    let config = |budget: PipelineBudget| BellaConfig {
        error_rate: 0.15,
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
    // growth slack — however long the reads are, and its peak is the
    // k-mer counter's: one 8-byte code per k-mer position, the reliable
    // set growing beside it. A table of every distinct k-mer (12 bytes
    // each, most of them error k-mers seen once) does not fit the bound.
    let pipeline = BellaPipeline::new(config(PipelineBudget::default()));
    let live_before = live_bytes();
    let ((pairs, meta, stats), candidates_peak) = peak_during(|| pipeline.candidates(&seqs));
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
    let k = pipeline.config.k;
    let positions: usize = seqs.iter().map(|s| (s.len() + 1).saturating_sub(k)).sum();
    let bound = (8 * positions + input_bytes) as u64 * 5 / 4;
    assert!(
        12 * stats.distinct_kmers as u64 > bound - 8 * positions as u64,
        "input too repetitive: a count table would fit the slack of the bound"
    );
    assert!(
        candidates_peak < bound,
        "candidates() peak {:.2} MiB is over code buffer + reads + 25 % = {:.2} MiB",
        mib(candidates_peak),
        mib(bound)
    );
}
