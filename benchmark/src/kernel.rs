//! `align`-layer metrics shared by every aligning workload: what the
//! backend did inside the traced operation, the engine ladder on a
//! subsample of the workload's own pairs, and warm allocation counts.

use crate::meter;
use crate::metrics::Outcome;
use logan_align::{Engine, SeedExtendResult, XDropCpuAligner};
use logan_core::{AlignBackend, BackendReport};
use logan_seq::readsim::ReadPair;
use logan_seq::ScoreProfile;
use std::time::Instant;

/// Pairs in the ladder subsample: enough cells for a stable rate, few
/// enough that the scalar engine stays under a second per run.
pub const LADDER_PAIRS: usize = 64;

/// `n` pairs evenly strided over `pairs` (all of them when fewer).
pub fn subsample(pairs: &[ReadPair], n: usize) -> Vec<ReadPair> {
    let stride = (pairs.len() / n).max(1);
    pairs.iter().step_by(stride).take(n).cloned().collect()
}

/// Every `SCALAR_STRIDE`-th pair is re-aligned with the scalar engine
/// (6.25 % of the pairs).
const SCALAR_STRIDE: usize = 16;

/// Agreement of `results` (one per pair, from the adaptive engine) with the
/// `scalar` backend on a fixed subsample; each checked pair is one operation.
pub fn check_against_scalar(
    out: &mut Outcome,
    workload: &str,
    pairs: &[ReadPair],
    results: &[SeedExtendResult],
    scalar: &XDropCpuAligner,
) {
    let picked: Vec<usize> = (0..pairs.len()).step_by(SCALAR_STRIDE).collect();
    let sub: Vec<ReadPair> = picked.iter().map(|&i| pairs[i].clone()).collect();
    let (expected, _) = scalar.align_block(&sub);
    for (&i, want) in picked.iter().zip(&expected) {
        out.check(results.get(i) == Some(want), || {
            format!("{workload}: pair {i} differs from the scalar engine")
        });
    }
}

/// `align.extend.*` and `align.tier.*` from the summed block spans and
/// the backend's own report.
pub fn extend_metrics(out: &mut Outcome, busy_s: f64, report: &BackendReport) {
    let (pairs, cells) = (report.pairs as f64, report.total_cells as f64);
    out.set("align.extend.busy_s", busy_s);
    out.set("align.extend.cells", cells);
    if report.pairs == 0 {
        return;
    }
    out.set("align.extend.gcups", cells / busy_s / 1e9);
    out.set("align.extend.us_per_pair", busy_s * 1e6 / pairs);
    out.set("align.extend.cells_per_pair", cells / pairs);
    let tiers = report.tiers;
    let total = tiers.total().max(1) as f64;
    out.set("align.tier.i8_share", tiers.lanes8 as f64 / total);
    out.set("align.tier.i16_share", tiers.lanes16 as f64 / total);
    out.set("align.tier.scalar_share", tiers.scalar as f64 / total);
    out.set(
        "align.tier.escalation_share",
        tiers.escalations as f64 / total,
    );
}

/// Each engine on the same subsample, best of three: the tier × regime
/// table of ROADMAP item 1(c). Then the heap allocations of one warm
/// block on the adaptive engine.
pub fn ladder_metrics(out: &mut Outcome, sub: &[ReadPair], profile: ScoreProfile, x: i32) {
    let engines = [
        ("align.ladder.scalar_gcups", Engine::Scalar),
        ("align.ladder.i16_gcups", Engine::Simd),
        ("align.ladder.i8_gcups", Engine::I8),
        ("align.ladder.adaptive_gcups", Engine::Adaptive),
    ];
    for (name, engine) in engines {
        let backend = XDropCpuAligner::new(1, profile, x, engine);
        let best = (0..3)
            .map(|_| {
                let start = Instant::now();
                let (_, report) = backend.align_block(sub);
                report.total_cells as f64 / start.elapsed().as_secs_f64() / 1e9
            })
            .fold(0.0, f64::max);
        out.set(name, best);
        if engine == Engine::Adaptive {
            let before = meter::allocs();
            std::hint::black_box(backend.align_block(sub));
            out.set(
                "align.extend.warm_allocs",
                (meter::allocs() - before) as f64,
            );
        }
    }
}
