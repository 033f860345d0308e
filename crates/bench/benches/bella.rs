//! Criterion benchmarks of the BELLA pipeline stages.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use logan_bella::binning::choose_seed;
use logan_bella::kmer_count::{count_kmers, count_reliable_sharded};
use logan_bella::matrix::KmerMatrix;
use logan_bella::pipeline::{BellaConfig, BellaPipeline};
use logan_bella::prune::{reliable_bounds, reliable_kmers};
use logan_bella::spgemm::spgemm_candidates;
use logan_seq::readsim::{ReadPair, ReadSimulator};
use logan_seq::{ErrorProfile, Seq};

fn reads() -> Vec<Seq> {
    let sim = ReadSimulator {
        read_len: (800, 1200),
        errors: ErrorProfile::pacbio(0.10),
        ..ReadSimulator::uniform(30_000, 8.0)
    };
    sim.generate(31).reads.into_iter().map(|r| r.seq).collect()
}

fn bench_stages(c: &mut Criterion) {
    let reads = reads();
    let total_bases: usize = reads.iter().map(|r| r.len()).sum();

    let mut group = c.benchmark_group("bella_stages");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_bases as u64));
    group.bench_function("kmer_count_k17", |b| b.iter(|| count_kmers(&reads, 17)));

    let counts = count_kmers(&reads, 17);
    let bounds = reliable_bounds(8.0, 0.10, 17, 1e-4);
    // The streaming counter: the same partitions in 8 waves, reduced to
    // the reliable set as it goes (one extra scatter pass per wave).
    group.bench_function("count_reliable_sharded_8", |b| {
        b.iter(|| count_reliable_sharded(&reads, 17, 8, bounds))
    });
    let reliable = reliable_kmers(&counts, bounds);
    group.bench_function("matrix_build", |b| {
        b.iter(|| KmerMatrix::build(&reads, 17, &reliable))
    });

    let matrix = KmerMatrix::build(&reads, 17, &reliable);
    group.bench_function("spgemm", |b| b.iter(|| spgemm_candidates(&matrix)));

    // Binning plus pair materialisation: two shared-read clones and a
    // seed per candidate, no bases copied.
    let cands = spgemm_candidates(&matrix);
    group.bench_function("materialise_pairs", |b| {
        b.iter(|| {
            cands
                .iter()
                .map(|c| {
                    let (q, t) = (&reads[c.r1 as usize], &reads[c.r2 as usize]);
                    let (seed, template_len) = choose_seed(q.len(), t.len(), c, 17);
                    ReadPair {
                        query: q.clone(),
                        target: t.clone(),
                        seed,
                        template_len,
                    }
                })
                .collect::<Vec<ReadPair>>()
        })
    });

    group.bench_function("candidates_end_to_end", |b| {
        let pipeline = BellaPipeline::new(BellaConfig {
            error_rate: 0.10,
            depth: 8.0,
            ..BellaConfig::with_x(50)
        });
        b.iter(|| pipeline.candidates(&reads))
    });
    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
