//! engine_tiers — the kernel tier ladder measured: scalar vs 16-lane
//! i16 vs 32-lane i8 vs the adaptive selector, across DNA and BLOSUM62
//! regimes, single host thread. The lane kernels are compiled twice —
//! for the build target's baseline vectors and for AVX2, picked per CPU
//! at run time (DESIGN.md §14); the heading names the compilation the
//! engines dispatch to here, and a `simd-portable` row per regime runs
//! the i16 tier's other compilation through the test seam
//! (`logan_align::simd::extend_portable`), so both sit in one table.
//! Next to GCUPS the table gives each row's nanoseconds per
//! anti-diagonal and mean computed width — the pair of numbers that
//! separates a step's fixed cost from its per-cell cost (GCUPS alone
//! made thin bands look like a lane-occupancy problem).
//!
//! Seven regimes:
//!
//! * `dna-thin` — true overlaps at 10% error, X = 7 (the repo
//!   benchmark's minimizer workload): 7-cell windows, every
//!   anti-diagonal one chunk. What a step costs whatever the band.
//! * `dna-screen` — candidate screening: unrelated flanks around a
//!   planted exact seed, scored `(1, -2, -1)` with X = 62 (the widest
//!   i8-eligible X at match = +1). Extensions die inside the X-drop
//!   band without the best score ever approaching the i8 ceiling: the
//!   one regime where the i8 tier runs alone, several 32-lane chunks
//!   wide, and the row the i8-vs-i16 bound is asserted on.
//! * `dna-overlap` — true overlaps at 15% error, X = 60: the best
//!   score outgrows the i8 window almost immediately, so the i8 tier
//!   measures its escalation path (i8 prefix, then the i16 kernel).
//! * `dna-x100` — the same overlaps at X = 100, past the i8 window:
//!   the fixed i8 engine measures its scalar fallback.
//! * `pinned-x7`, `pinned-x50` — pairs built so the best score never
//!   passes 1 ([`pinned_pairs`]): the i8 tier never escalates and runs
//!   the length of the reads, thin and wide. The i8-at-length
//!   measurement behind the selector's rule.
//! * `blosum62` — 400-aa homolog pairs under `blosum62:-6` at the
//!   sensitive-search X = 400 (the repo benchmark's
//!   `pairs_blosum62_x400` regime, wide bands),
//!   outside the i8 window.
//!
//! Asserted in-bin on every run, on counts the host clock cannot move:
//! - all four engines, and the portable compilation, produce
//!   bit-identical results on every regime;
//! - the adaptive engine and the i16 tier's portable compilation run
//!   exactly the tiers the i16 engine runs ([`TierTally`]), on every
//!   regime: adaptive never dispatches i8, and the portable rows time
//!   the same kernel;
//! - on `dna-screen`, `pinned-x7` and `pinned-x50` the i8 tier runs
//!   every extension and never escalates, so those rows time the i8
//!   kernel alone.
//!
//! The speed ratios are printed, not asserted: i8 over i16 per regime
//! (the evidence for `Engine::Adaptive` leaving i8 alone: it is ahead
//! only where it never escalates, which no input property predicts),
//! adaptive over i16, and the dispatched compilation over the portable
//! one. Ratios are medians over rounds of the *per-round* wall ratio: a
//! round times all four engines within a fraction of a second, so the
//! slow and fast bursts of a shared host cancel inside a round instead
//! of landing on one engine. The table reports each engine's median
//! wall.
//!
//! ```sh
//! cargo run --release -p logan-bench --bin engine_tiers            # full
//! cargo run --release -p logan-bench --bin engine_tiers -- --quick # smoke
//! ```

use logan_align::simd::{extend_portable, kernel_isa};
use logan_align::{
    AlignWorkspace, Engine, ExtensionResult, SeedExtendResult, TierTally, XDropCpuAligner,
};
use logan_bench::{heading, write_json, BenchScale, Table};
use logan_core::backend::AlignBackend;
use logan_seq::readsim::{PairSet, ReadPair, Seed};
use logan_seq::{Alphabet, ScoreProfile, Scoring, Seq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    workload: String,
    engine: String,
    pairs: usize,
    cells: u64,
    /// Anti-diagonals computed (the sum of the extensions' `iterations`).
    steps: u64,
    wall_s: f64,
    gcups: f64,
    /// Wall nanoseconds per anti-diagonal: the per-step cost that GCUPS
    /// hides behind the band width.
    ns_per_step: f64,
    /// Mean computed cells per anti-diagonal (`cells / steps`).
    mean_width: f64,
    speedup_vs_scalar: f64,
    frac_scalar: f64,
    frac_i16: f64,
    frac_i8: f64,
    escalations: u64,
}

/// Screening pairs: two unrelated random sequences sharing only a
/// planted exact seed mid-sequence — the overlapper's dominant case,
/// where the extension's job is to reject the candidate quickly.
fn screen_pairs(n: usize, len: usize, seed_len: usize, seed: u64) -> Vec<ReadPair> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut random_dna =
        |len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen_range(0..4u8)).collect() };
    (0..n)
        .map(|_| {
            let mid = len / 2;
            let q = random_dna(len);
            let mut t = random_dna(len);
            t[mid..mid + seed_len].copy_from_slice(&q[mid..mid + seed_len]);
            ReadPair {
                query: Seq::from_codes(q, Alphabet::Dna),
                target: Seq::from_codes(t, Alphabet::Dna),
                seed: Seed {
                    qpos: mid,
                    tpos: mid,
                    len: seed_len,
                },
                template_len: len,
            }
        })
        .collect()
}

/// Homolog protein pairs with an exact seed preserved mid-sequence.
fn protein_pairs(n: usize, len: usize, seed_len: usize, sub_rate: f64, seed: u64) -> Vec<ReadPair> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let q: Vec<u8> = (0..len).map(|_| rng.gen_range(0..20u8)).collect();
            let mid = len / 2;
            let mut t = q.clone();
            for (i, residue) in t.iter_mut().enumerate() {
                if (mid..mid + seed_len).contains(&i) {
                    continue;
                }
                if rng.gen_bool(sub_rate) {
                    *residue = rng.gen_range(0..20u8);
                }
            }
            ReadPair {
                query: Seq::from_codes(q, Alphabet::Protein),
                target: Seq::from_codes(t, Alphabet::Protein),
                seed: Seed {
                    qpos: mid,
                    tpos: mid,
                    len: seed_len,
                },
                template_len: len,
            }
        })
        .collect()
}

/// Pairs whose best score stays pinned at 1: the query is random over
/// {A, C}; the target repeats it at even positions and holds a base
/// from {G, T} — which matches nothing in the query — at odd ones. Under
/// unit scoring every match is then preceded by a mismatch or a gap, on
/// any path, so the best score never passes 1: the extension never
/// drops, never approaches the i8 ceiling, and runs to the end of the
/// reads inside a band set by X alone. The one shape on which the i8
/// tier runs *at length* instead of handing over to i16 within the
/// first ≈ 125 anti-diagonals.
fn pinned_pairs(n: usize, len: usize, seed: u64) -> Vec<ReadPair> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let q: Vec<u8> = (0..len).map(|_| rng.gen_range(0..2u8)).collect();
            let t = q
                .iter()
                .enumerate()
                .map(|(i, &b)| if i < 2 || i % 2 == 0 { b } else { 2 + b })
                .collect();
            ReadPair {
                query: Seq::from_codes(q, Alphabet::Dna),
                target: Seq::from_codes(t, Alphabet::Dna),
                seed: Seed {
                    qpos: 0,
                    tpos: 0,
                    len: 2,
                },
                template_len: len,
            }
        })
        .collect()
}

/// The i16 tier's *portable* compilation over a block: what
/// `seed_extend_with` does per pair — flanks copied into sequence
/// scratch, left then right, one warm workspace — with both extensions
/// through the test seam. Returns the `(left, right)` extension results,
/// the wall seconds and the tier tally.
fn portable_block(
    pairs: &[ReadPair],
    profile: ScoreProfile,
    x: i32,
    ws: &mut AlignWorkspace,
) -> (Vec<[ExtensionResult; 2]>, f64, TierTally) {
    let (mut q, mut t) = (Seq::new(), Seq::new());
    let before = ws.tally;
    let start = Instant::now();
    let results = pairs
        .iter()
        .map(|p| {
            let Seed { qpos, tpos, len } = p.seed;
            q.assign_reversed_range(&p.query, 0, qpos);
            t.assign_reversed_range(&p.target, 0, tpos);
            let left = extend_portable(Engine::Simd, &q, &t, profile, x, ws, &mut ());
            q.assign_range(&p.query, qpos + len, p.query.len());
            t.assign_range(&p.target, tpos + len, p.target.len());
            [
                left,
                extend_portable(Engine::Simd, &q, &t, profile, x, ws, &mut ()),
            ]
        })
        .collect();
    (
        results,
        start.elapsed().as_secs_f64(),
        ws.tally.diff(&before),
    )
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

const ENGINES: [Engine; 4] = [Engine::Scalar, Engine::Simd, Engine::I8, Engine::Adaptive];
// Positions in `ENGINES`.
const SCALAR: usize = 0;
const SIMD: usize = 1;
const I8: usize = 2;
const ADAPTIVE: usize = 3;
/// The table's fifth row per regime: the i16 tier's portable
/// compilation ([`portable_block`]), timed in the same rotation.
const PORTABLE: usize = ENGINES.len();
const ROWS: usize = ENGINES.len() + 1;

fn row_label(row: usize) -> String {
    ENGINES
        .get(row)
        .map_or("simd-portable".to_string(), Engine::to_string)
}

/// One workload's wall times, `[row][round]`.
#[derive(Default)]
struct Timings([Vec<f64>; ROWS]);

impl Timings {
    fn median_wall(&self, engine: usize) -> f64 {
        median(self.0[engine].iter().copied())
    }

    /// Speed of engine `a` relative to engine `b`: the median over
    /// rounds of the per-round wall ratio.
    fn speed_vs(&self, a: usize, b: usize) -> f64 {
        median(self.0[a].iter().zip(&self.0[b]).map(|(wa, wb)| wb / wa))
    }
}

struct Workload {
    name: &'static str,
    pairs: Vec<ReadPair>,
    profile: ScoreProfile,
    x: i32,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = BenchScale::from_env();
    let n = if quick { 150 } else { 1600 };
    let reps = if quick { 7 } else { 21 };

    let unit = ScoreProfile::MatchMismatch(Scoring::default());
    let overlaps = PairSet::generate_with_lengths(n / 2, 0.15, 800, 1200, scale.seed + 1).pairs;
    let workloads = [
        Workload {
            name: "dna-thin",
            pairs: PairSet::generate_with_lengths(n / 2, 0.10, 800, 1600, scale.seed + 3).pairs,
            profile: unit,
            x: 7,
        },
        Workload {
            name: "dna-screen",
            pairs: screen_pairs(n, 500, 16, scale.seed),
            profile: ScoreProfile::MatchMismatch(Scoring::new(1, -2, -1)),
            x: 62,
        },
        Workload {
            name: "dna-overlap",
            pairs: overlaps.clone(),
            profile: unit,
            x: 60,
        },
        Workload {
            name: "dna-x100",
            pairs: overlaps[..overlaps.len() / 4].to_vec(),
            profile: unit,
            x: 100,
        },
        Workload {
            name: "pinned-x7",
            pairs: pinned_pairs(n / 8, 1000, scale.seed + 4),
            profile: unit,
            x: 7,
        },
        Workload {
            name: "pinned-x50",
            pairs: pinned_pairs(n / 16, 1000, scale.seed + 4),
            profile: unit,
            x: 50,
        },
        Workload {
            name: "blosum62",
            pairs: protein_pairs(n / 2, 400, 6, 0.15, scale.seed + 2),
            profile: ScoreProfile::blosum62(-6),
            x: 400,
        },
    ];

    let mut rows: Vec<Row> = Vec::new();
    let mut timings: Vec<Timings> = Vec::new();
    let mut tallies: Vec<[TierTally; ROWS]> = Vec::new();

    for w in &workloads {
        // `reps` rounds, each timing every engine once, with the
        // engine order rotated every round, so clock drift and
        // frequency scaling hit every engine alike — the host clock
        // jitters, the DP does not: cells, results and tier tallies
        // are deterministic.
        let backends: Vec<_> = ENGINES
            .iter()
            .map(|&e| XDropCpuAligner::new(1, w.profile, w.x, e))
            .collect();
        let mut portable_ws = AlignWorkspace::new();
        let mut walls = Timings::default();
        let mut cells = [0u64; ROWS];
        let mut steps = 0u64;
        let mut tiers = [TierTally::default(); ROWS];
        let mut reference: Option<Vec<SeedExtendResult>> = None;
        for round in 0..reps {
            for k in 0..ROWS {
                let i = (round + k) % ROWS;
                if i == PORTABLE {
                    let (res, wall_s, tally) =
                        portable_block(&w.pairs, w.profile, w.x, &mut portable_ws);
                    walls.0[i].push(wall_s);
                    cells[i] = res.iter().flatten().map(|r| r.cells).sum();
                    tiers[i] = tally;
                    if let Some(r) = &reference {
                        assert!(
                            r.iter().map(|r| [r.left, r.right]).eq(res),
                            "the portable i16 kernel diverged from scalar on {}",
                            w.name
                        );
                    }
                    continue;
                }
                let (res, rep) = backends[i].align_block(&w.pairs);
                walls.0[i].push(rep.wall_s);
                cells[i] = rep.total_cells;
                tiers[i] = rep.tiers;
                match &reference {
                    None => {
                        steps = res
                            .iter()
                            .map(|r| r.left.iterations + r.right.iterations)
                            .sum();
                        reference = Some(res);
                    }
                    Some(r) => assert_eq!(
                        r, &res,
                        "engine {} diverged from scalar on {}",
                        ENGINES[i], w.name
                    ),
                }
            }
        }
        let scalar_gcups = cells[SCALAR] as f64 / walls.median_wall(SCALAR) / 1e9;
        for i in 0..ROWS {
            let wall_s = walls.median_wall(i);
            let gcups = cells[i] as f64 / wall_s / 1e9;
            let total = tiers[i].total().max(1) as f64;
            rows.push(Row {
                workload: w.name.to_string(),
                engine: row_label(i),
                pairs: w.pairs.len(),
                cells: cells[i],
                steps,
                wall_s,
                gcups,
                ns_per_step: wall_s * 1e9 / steps as f64,
                mean_width: cells[i] as f64 / steps as f64,
                speedup_vs_scalar: gcups / scalar_gcups,
                frac_scalar: tiers[i].scalar as f64 / total,
                frac_i16: tiers[i].lanes16 as f64 / total,
                frac_i8: tiers[i].lanes8 as f64 / total,
                escalations: tiers[i].escalations,
            });
        }
        timings.push(walls);
        tallies.push(tiers);
    }

    heading(format!(
        "engine_tiers — tier ladder, lane kernels on their {} compilation, 1 host thread, \
         median of {reps} rounds{}",
        kernel_isa(),
        if quick { " [--quick]" } else { "" }
    ));
    let mut t = Table::new(&[
        "Workload",
        "Engine",
        "Pairs",
        "DP cells",
        "Wall (s)",
        "GCUPS",
        "ns/antidiag",
        "Mean width",
        "vs scalar",
        "i8/i16/scalar",
        "Escal.",
    ]);
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            r.engine.clone(),
            r.pairs.to_string(),
            r.cells.to_string(),
            format!("{:.4}", r.wall_s),
            format!("{:.3}", r.gcups),
            format!("{:.1}", r.ns_per_step),
            format!("{:.1}", r.mean_width),
            format!("{:.2}x", r.speedup_vs_scalar),
            format!(
                "{:.0}/{:.0}/{:.0}%",
                r.frac_i8 * 100.0,
                r.frac_i16 * 100.0,
                r.frac_scalar * 100.0
            ),
            r.escalations.to_string(),
        ]);
    }
    println!("{}", t.render());

    // Which tier ran is deterministic: the tallies are the bars.
    for (w, tiers) in workloads.iter().zip(&tallies) {
        for other in [ADAPTIVE, PORTABLE] {
            assert_eq!(
                tiers[other],
                tiers[SIMD],
                "{} ran other tiers than simd on {}",
                row_label(other),
                w.name
            );
        }
        if ["dna-screen", "pinned-x7", "pinned-x50"].contains(&w.name) {
            let i8 = tiers[I8];
            assert!(
                i8.lanes8 == i8.total() && i8.escalations == 0,
                "i8 must run every extension of {} without escalating: {i8:?}",
                w.name
            );
        }
    }
    let by_regime = |a: usize, b: usize| -> String {
        workloads
            .iter()
            .zip(&timings)
            .map(|(w, t)| format!(" {} {:.2}x", w.name, t.speed_vs(a, b)))
            .collect()
    };
    println!("engine_tiers: all engines bit-identical, tiers as dispatched.");
    println!("engine_tiers: i8 vs i16 by regime:{}", by_regime(I8, SIMD));
    println!(
        "engine_tiers: adaptive vs i16 by regime:{}",
        by_regime(ADAPTIVE, SIMD)
    );
    println!(
        "engine_tiers: i16 on its {} compilation vs its portable one by regime:{}",
        kernel_isa(),
        by_regime(SIMD, PORTABLE)
    );
    if !quick {
        // The quick smoke (premerge) must not clobber the recorded
        // full-run artifact.
        write_json("engine_tiers", &rows);
    }
}
