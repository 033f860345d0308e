//! Ablations of LOGAN's §IV design choices (DESIGN.md's ablation index):
//!
//! 1. sequence reversal for coalesced access (Fig. 6) — on vs off;
//! 2. threads ∝ X vs a fixed 1024-thread block;
//! 3. anti-diagonals in HBM vs shared memory (the §IV-B residency
//!    argument; run on mid-length reads so shared still fits);
//! 4. X-drop vs fixed-band SW search space on divergent pairs
//!    (Fig. 2's contrast), measured in DP cells;
//! 5. host compute engine: scalar i32 reference vs the lane-parallel
//!    i16 kernel on identical extensions, measured in wall-clock GCUPS
//!    (engines are bit-identical, so this is pure host speed — the CPU
//!    mirror of the paper's int16-lane argument, §III-C).
//!
//! Times are projected to the full 100 K-pair batch by re-scheduling —
//! several of these design choices only bite when the device is
//! saturated (e.g. residency effects need full SMs).

use logan_align::{banded_sw, xdrop_extend, Engine};
use logan_bench::{fmt_s, heading, project_gpu_time, write_json, BenchScale, Table};
use logan_core::{BackendReport, LoganConfig, LoganExecutor, ThreadPolicy};
use logan_gpusim::DeviceSpec;
use logan_seq::readsim::random_seq;
use logan_seq::{PairSet, Scoring};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Ablation {
    name: String,
    baseline: f64,
    variant: f64,
    ratio: f64,
    unit: &'static str,
}

fn run(set: &PairSet, cfg: LoganConfig, factor: f64) -> (f64, BackendReport) {
    let spec = DeviceSpec::v100();
    let exec = LoganExecutor::new(spec.clone(), cfg);
    let (_, rep) = exec.align_pairs(&set.pairs);
    (project_gpu_time(&spec, &rep, factor), rep)
}

fn hbm_bytes(rep: &BackendReport) -> f64 {
    rep.kernel_reports
        .iter()
        .map(|kr| kr.stats.total.hbm_bytes() as f64)
        .sum()
}

fn main() {
    let scale = BenchScale::from_env();
    let x = 100;
    let factor = scale.pair_factor();
    let set = PairSet::generate(scale.pairs(), 0.15, scale.seed);
    // Mid-length set for the shared-memory variant: extensions ~1.5–2 kb
    // → 3 anti-diagonals ≈ 24 KB of shared per block, which caps
    // residency at 4 blocks/SM instead of 16.
    let mid = PairSet::generate_with_lengths(scale.pairs(), 0.15, 3000, 4000, scale.seed);
    let mut rows = Vec::new();

    // 1. Reversal: the win is HBM traffic (and replayed instructions);
    //    charge streaming traffic fully to expose it.
    let (base_t, base_rep) = run(&set, LoganConfig::with_x(x), factor);
    let mut no_rev = LoganConfig::with_x(x);
    no_rev.reversed_layout = false;
    let (strided_t, strided_rep) = run(&set, no_rev, factor);
    rows.push(Ablation {
        name: "reversal off: projected time".into(),
        baseline: base_t,
        variant: strided_t,
        ratio: strided_t / base_t,
        unit: "sim s",
    });
    rows.push(Ablation {
        name: "reversal off: HBM traffic".into(),
        baseline: hbm_bytes(&base_rep),
        variant: hbm_bytes(&strided_rep),
        ratio: hbm_bytes(&strided_rep) / hbm_bytes(&base_rep),
        unit: "bytes",
    });

    // 2. Threads ∝ X vs fixed 1024.
    let mut fixed = LoganConfig::with_x(x);
    fixed.thread_policy = ThreadPolicy::Fixed(1024);
    let (t_fixed, _) = run(&set, fixed, factor);
    rows.push(Ablation {
        name: "fixed 1024 threads instead of threads ∝ X".into(),
        baseline: base_t,
        variant: t_fixed,
        ratio: t_fixed / base_t,
        unit: "sim s",
    });

    // 3. Shared-memory anti-diagonals (mid-length reads).
    let (mid_base, _) = run(&mid, LoganConfig::with_x(x), factor);
    let mut shared = LoganConfig::with_x(x);
    shared.antidiag_in_shared = true;
    let (t_shared, _) = run(&mid, shared, factor);
    rows.push(Ablation {
        name: "anti-diagonals in shared memory (3-4kb reads)".into(),
        baseline: mid_base,
        variant: t_shared,
        ratio: t_shared / mid_base,
        unit: "sim s",
    });

    // 4. X-drop vs fixed band on divergent pairs (cells explored).
    let mut rng = StdRng::seed_from_u64(scale.seed);
    let mut xdrop_cells = 0u64;
    let mut band_cells = 0u64;
    for _ in 0..16 {
        let a = random_seq(3000, &mut rng);
        let b = random_seq(3000, &mut rng);
        // BLAST-like scoring so divergent pairs actually drop (see
        // logan-align's repeat-trap test for why unit scoring drifts up).
        let scoring = Scoring::new(1, -2, -2);
        xdrop_cells += xdrop_extend(&a, &b, scoring, x).cells;
        band_cells += banded_sw(&a, &b, scoring, x as usize).cells;
    }
    rows.push(Ablation {
        name: "fixed-band SW vs X-drop on divergent pairs".into(),
        baseline: xdrop_cells as f64,
        variant: band_cells as f64,
        ratio: band_cells as f64 / xdrop_cells as f64,
        unit: "DP cells",
    });

    // 5. Host engine: scalar vs 16-lane SIMD, wall-clock GCUPS on the
    //    right-extension halves of the benchmark set.
    let jobs: Vec<_> = set
        .pairs
        .iter()
        .map(|p| {
            (
                p.query.subseq(p.seed.qpos + p.seed.len, p.query.len()),
                p.target.subseq(p.seed.tpos + p.seed.len, p.target.len()),
            )
        })
        .collect();
    let wall_gcups = |engine: Engine| {
        let start = std::time::Instant::now();
        let mut cells = 0u64;
        for (q, t) in &jobs {
            cells += engine.extend(q, t, Scoring::default(), x).cells;
        }
        (cells as f64 / start.elapsed().as_secs_f64() / 1e9, cells)
    };
    let (scalar_gcups, scalar_cells) = wall_gcups(Engine::Scalar);
    let (simd_gcups, simd_cells) = wall_gcups(Engine::Simd);
    assert_eq!(scalar_cells, simd_cells, "engines must do identical work");
    rows.push(Ablation {
        name: "host engine: 16-lane i16 SIMD vs scalar i32 (wall GCUPS)".into(),
        baseline: scalar_gcups,
        variant: simd_gcups,
        ratio: simd_gcups / scalar_gcups,
        unit: "GCUPS",
    });

    heading(format!(
        "Ablations of LOGAN's design choices (X = {x}, {} pairs, projected x{:.0})",
        set.len(),
        factor
    ));
    let mut t = Table::new(&[
        "Ablation",
        "baseline",
        "variant",
        "variant/baseline",
        "unit",
    ]);
    for r in &rows {
        t.row(vec![
            r.name.clone(),
            if r.unit == "bytes" {
                format!("{:.2e}", r.baseline)
            } else {
                fmt_s(r.baseline)
            },
            if r.unit == "bytes" {
                format!("{:.2e}", r.variant)
            } else {
                fmt_s(r.variant)
            },
            format!("{:.2}x", r.ratio),
            r.unit.to_string(),
        ]);
    }
    println!("{}", t.render());
    write_json("ablations", &rows);
}
