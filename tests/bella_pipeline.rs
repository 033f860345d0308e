//! Integration test: the full BELLA pipeline over simulated reads, CPU
//! vs GPU vs multi-GPU backends, with ground-truth scoring.

use logan::bella::{BellaConfig, BellaPipeline, PipelineBudget};
use logan::prelude::*;
use logan::seq::readsim::ReadSimulator;

fn readset() -> ReadSet {
    let sim = ReadSimulator {
        read_len: (800, 1200),
        errors: ErrorProfile::pacbio(0.10),
        ..ReadSimulator::uniform(20_000, 8.0)
    };
    sim.generate(777)
}

fn config() -> BellaConfig {
    BellaConfig {
        error_rate: 0.10,
        min_overlap: 600,
        ..BellaConfig::with_x(50)
    }
}

#[test]
fn all_backends_agree_and_find_overlaps() {
    let rs = readset();
    let pipeline = BellaPipeline::new(config());

    let cpu_aligner = XDropCpuAligner::new(4, Scoring::default(), 50, Engine::Scalar);
    let gpu = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50));
    let multi = Fleet::static_gpus(3, DeviceSpec::v100(), LoganConfig::with_x(50));

    let (cpu_out, cpu_metrics) = pipeline.run_on_readset(&rs, &cpu_aligner, 600);
    let (gpu_out, _) = pipeline.run_on_readset(&rs, &gpu, 600);
    let (mg_out, _) = pipeline.run_on_readset(&rs, &multi, 600);

    assert_eq!(cpu_out.kept_pairs(), gpu_out.kept_pairs());
    assert_eq!(cpu_out.kept_pairs(), mg_out.kept_pairs());
    assert!(cpu_out.stats.kept > 0);
    assert!(cpu_metrics.recall > 0.4, "recall {:.2}", cpu_metrics.recall);
    assert!(
        cpu_metrics.precision > 0.7,
        "precision {:.2}",
        cpu_metrics.precision
    );
}

#[test]
fn pipeline_is_deterministic() {
    let rs = readset();
    let pipeline = BellaPipeline::new(config());
    let aligner = XDropCpuAligner::new(2, Scoring::default(), 50, Engine::Scalar);
    let (a, _) = pipeline.run_on_readset(&rs, &aligner, 600);
    let (b, _) = pipeline.run_on_readset(&rs, &aligner, 600);
    assert_eq!(a.kept_pairs(), b.kept_pairs());
    assert_eq!(a.stats.total_cells, b.stats.total_cells);
}

/// The streaming-equivalence gate (scripts/premerge.sh runs the
/// `streaming_` tests as their own step): on a seeded read set, the
/// streaming, sharded, bounded-memory dataflow must reproduce the
/// monolithic pipeline bit for bit — same overlaps (scores, seeds, end
/// positions, kept flags, order) and same stage statistics.
#[test]
fn streaming_pipeline_diffs_clean_against_monolithic() {
    let rs = readset();
    let backend = XDropCpuAligner::new(4, Scoring::default(), 50, Engine::Scalar);

    let mono = BellaPipeline::new(config());
    let (mono_out, mono_metrics) = mono.run_on_readset(&rs, &backend, 600);

    for budget in [
        PipelineBudget::default(),
        PipelineBudget {
            batch_reads: 5,
            shards: 3,
            inflight_blocks: 1,
        },
    ] {
        let cfg = BellaConfig { budget, ..config() };
        let streaming = BellaPipeline::new(cfg);
        let (out, metrics) = streaming.run_streaming_on_readset(&rs, &backend, 600);
        assert_eq!(out.overlaps, mono_out.overlaps, "budget {budget:?}");
        assert_eq!(out.stats, mono_out.stats, "budget {budget:?}");
        assert_eq!(metrics.precision, mono_metrics.precision);
        assert_eq!(metrics.recall, mono_metrics.recall);
    }
}

/// Streaming from the FASTA batch reader matches streaming from the
/// in-memory read set: the pipeline cannot tell sources apart.
#[test]
fn streaming_from_fasta_batches_matches_in_memory_source() {
    use logan::seq::fasta::{write_fasta, FastaBatches, Record};
    use logan::seq::readsim::ReadBatch;

    let rs = readset();
    let records: Vec<Record> = rs
        .reads
        .iter()
        .map(|r| Record {
            id: format!("read{}", r.id),
            seq: r.seq.clone(),
        })
        .collect();
    let mut fasta = Vec::new();
    write_fasta(&mut fasta, &records, 70).unwrap();

    let cfg = BellaConfig {
        budget: PipelineBudget {
            batch_reads: 8,
            shards: 4,
            inflight_blocks: 2,
        },
        // run_streaming (not *_on_readset) takes depth/error from the
        // config, so pin them to the set's true values on both paths.
        depth: rs.depth(),
        error_rate: rs.error_rate,
        ..config()
    };
    let pipeline = BellaPipeline::new(cfg);
    let backend = XDropCpuAligner::new(2, Scoring::default(), 50, Engine::Scalar);

    let mut start_id = 0usize;
    let from_fasta = pipeline.run_streaming(
        FastaBatches::new(&fasta[..], 8).map(|batch| {
            let seqs: Vec<Seq> = batch
                .expect("generated FASTA parses")
                .into_iter()
                .map(|r| r.seq)
                .collect();
            let b = ReadBatch { start_id, seqs };
            start_id += b.seqs.len();
            b
        }),
        &backend,
    );
    let from_memory = pipeline.run_streaming(rs.seq_batches(8), &backend);
    assert_eq!(from_fasta.overlaps, from_memory.overlaps);
    assert_eq!(from_fasta.stats, from_memory.stats);
}

#[test]
fn no_candidates_on_unrelated_reads() {
    // Reads from two different random genomes share no reliable k-mers
    // (beyond vanishing chance), so the pipeline reports nothing.
    let a = ReadSimulator {
        read_len: (500, 700),
        ..ReadSimulator::uniform(5_000, 2.0)
    }
    .generate(1);
    let b = ReadSimulator {
        read_len: (500, 700),
        ..ReadSimulator::uniform(5_000, 2.0)
    }
    .generate(2);
    // Interleave one read from each genome: no true overlaps exist.
    let mut seqs = Vec::new();
    for i in 0..4 {
        seqs.push(a.reads[i].seq.clone());
        seqs.push(b.reads[i].seq.clone());
    }
    // Reads within one genome may overlap; check only cross-genome
    // pairs are absent. Build the pipeline on the mixed set:
    let pipeline = BellaPipeline::new(config());
    let (pairs, meta, _) = pipeline.candidates(&seqs);
    for ((r1, r2, _), _) in meta.iter().zip(&pairs) {
        // Even indices come from genome A, odd from genome B.
        assert_eq!(
            r1 % 2,
            r2 % 2,
            "cross-genome candidate {r1}~{r2} should not exist"
        );
    }
}
