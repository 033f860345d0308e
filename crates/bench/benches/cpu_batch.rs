//! Criterion benchmark of [`logan_align::CpuBatchAligner`] batch
//! throughput — pairs × threads grid, scalar vs SIMD engine.
//!
//! The single-extension benches (`xdrop`, `xdrop_simd`) measure kernel
//! latency; this one tracks what production traffic sees: wall-clock
//! GCUPS of whole batches through the pool, including the seed-extend
//! split, per-pair scratch management and result assembly. The
//! workspace-reuse optimisation (DESIGN.md §7) shows up here and not in
//! the latency benches, because its payoff is amortising allocations
//! across many pairs. Throughput is DP cells, identical across engines
//! and thread counts by construction, so rates are comparable GCUPS.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use logan_align::{CpuBatchAligner, Engine, XDropExtender};
use logan_seq::readsim::PairSet;
use logan_seq::Scoring;

fn bench_cpu_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_batch");
    group.sample_size(10);
    let x = 100;
    for &npairs in &[8usize, 32] {
        let pairs = PairSet::generate_with_lengths(npairs, 0.15, 500, 900, 29).pairs;
        for &threads in &[1usize, 2] {
            let aligner = CpuBatchAligner::new(threads);
            let ext = |engine| XDropExtender::with_engine(Scoring::default(), x, engine);
            let total = aligner.run(&pairs, &ext(Engine::Scalar)).total_cells;
            group.throughput(Throughput::Elements(total));
            for engine in [Engine::Scalar, Engine::Simd] {
                group.bench_with_input(
                    BenchmarkId::new(engine.to_string(), format!("pairs{npairs}_t{threads}")),
                    &pairs,
                    |b, pairs| b.iter(|| aligner.run(pairs, &ext(engine)).total_cells),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cpu_batch);
criterion_main!(benches);
