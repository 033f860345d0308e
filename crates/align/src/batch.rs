//! Multi-threaded CPU batch alignment.
//!
//! BELLA's CPU configuration runs independent SeqAn `extendSeedL` calls
//! under OpenMP (paper §V); [`CpuBatchAligner`] is that loop in Rust: a
//! dedicated Rayon pool of `threads` workers maps over the pairs. The
//! paper's POWER9 baseline uses 168 threads; on this machine the pool is
//! capped to the available parallelism, and the platform *model* in
//! `logan-core` (not wall-clock) is what converts measured work into the
//! published tables.

use crate::result::SeedExtendResult;
use crate::xdrop::XDropExtender;
use logan_seq::readsim::ReadPair;
use std::time::{Duration, Instant};

/// Outcome of a batch run.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-pair alignment results, in input order.
    pub results: Vec<SeedExtendResult>,
    /// Total DP cells computed across all pairs.
    pub total_cells: u64,
    /// Wall-clock time of the batch.
    pub wall: Duration,
    /// Which kernel tier computed each extension (and how often an i8
    /// run escalated), summed over every pair in the batch.
    pub tiers: crate::simd::TierTally,
}

/// A thread-pooled batch aligner over read pairs.
pub struct CpuBatchAligner {
    pool: rayon::ThreadPool,
    threads: usize,
}

impl CpuBatchAligner {
    /// Build an aligner with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> CpuBatchAligner {
        let threads = threads.max(1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .thread_name(|i| format!("cpu-align-{i}"))
            .build()
            .expect("failed to build alignment thread pool");
        CpuBatchAligner { pool, threads }
    }

    /// Number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Align every pair with `ext`, in parallel. Each worker thread
    /// reuses one [`crate::workspace::AlignWorkspace`]
    /// ([`crate::workspace::with_thread_workspace`]), so a batch of a
    /// million pairs performs O(threads) scratch allocations, not
    /// O(pairs × diagonals) — the host-side analogue of the kernel's
    /// preallocated per-block buffers (DESIGN.md §7).
    pub fn run(&self, pairs: &[ReadPair], ext: &XDropExtender) -> BatchResult {
        use crate::workspace::with_thread_workspace;
        use rayon::prelude::*;
        let start = Instant::now();
        // Tier counters live in the per-thread workspaces; the delta
        // around each pair goes straight into the batch tally, whichever
        // worker ran the pair, and the map yields the results alone.
        let tiers = std::sync::Mutex::new(crate::simd::TierTally::default());
        let results: Vec<SeedExtendResult> = self.pool.install(|| {
            pairs
                .par_iter()
                .map(|p| {
                    with_thread_workspace(|ws| {
                        let before = ws.tally;
                        let r = crate::seed_extend::seed_extend_with(
                            &p.query, &p.target, p.seed, ext, ws,
                        );
                        tiers
                            .lock()
                            .expect("a worker panicked while adding to the tally")
                            .merge(&ws.tally.diff(&before));
                        r
                    })
                })
                .collect()
        });
        let wall = start.elapsed();
        let tiers = tiers
            .into_inner()
            .expect("a worker panicked while adding to the tally");
        let total_cells = results.iter().map(|r| r.cells()).sum();
        BatchResult {
            results,
            total_cells,
            wall,
            tiers,
        }
    }

    /// Map an arbitrary per-pair function over the batch in the pool —
    /// used by the harness to run ksw2 (which has no seed/extend split in
    /// the original benchmark: the paper aligns whole pairs).
    pub fn run_with<T, F>(&self, pairs: &[ReadPair], f: F) -> (Vec<T>, Duration)
    where
        T: Send,
        F: Fn(&ReadPair) -> T + Sync,
    {
        use rayon::prelude::*;
        let start = Instant::now();
        let out = self.pool.install(|| pairs.par_iter().map(&f).collect());
        (out, start.elapsed())
    }
}

/// A [`CpuBatchAligner`] bound to one [`XDropExtender`] (score profile,
/// X, compute engine) — BELLA's CPU backend as a single value. Where
/// [`CpuBatchAligner::run`] needs the caller to supply an extender per
/// call, this type closes over it, so schedulers that only hold a list
/// of read pairs (the `AlignBackend` trait objects in `logan-core`) can
/// drive the CPU loop without knowing alignment parameters.
pub struct XDropCpuAligner {
    aligner: CpuBatchAligner,
    ext: XDropExtender,
}

impl XDropCpuAligner {
    /// Build a pool of `threads` workers bound to the given parameters.
    /// Accepts anything convertible to a [`logan_seq::ScoreProfile`]: a
    /// plain [`logan_seq::Scoring`] takes the DNA fast path.
    pub fn new(
        threads: usize,
        profile: impl Into<logan_seq::ScoreProfile>,
        x: i32,
        engine: crate::simd::Engine,
    ) -> XDropCpuAligner {
        XDropCpuAligner {
            aligner: CpuBatchAligner::new(threads),
            ext: XDropExtender::with_engine(profile, x, engine),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.aligner.threads()
    }

    /// The bound X-drop threshold.
    pub fn x(&self) -> i32 {
        self.ext.x
    }

    /// The bound score profile.
    pub fn profile(&self) -> logan_seq::ScoreProfile {
        self.ext.profile
    }

    /// Align every pair under the bound configuration.
    pub fn run(&self, pairs: &[ReadPair]) -> BatchResult {
        self.aligner.run(pairs, &self.ext)
    }
}

#[cfg(test)]
impl BatchResult {
    /// Giga cell updates per (wall-clock) second — the GCUPS metric the
    /// paper reports, here measured on the actual host: `f64::INFINITY`
    /// for work measured at sub-resolution wall time, 0.0 for a run that
    /// computed zero cells.
    pub(crate) fn wall_gcups(&self) -> f64 {
        let gcups = self.total_cells as f64 / self.wall.as_secs_f64() / 1e9;
        if gcups.is_nan() {
            0.0
        } else {
            gcups
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ksw2::{ksw2_extend, Ksw2Params};
    use crate::seed_extend::seed_extend;
    use logan_seq::readsim::PairSet;
    use logan_seq::Scoring;

    fn pairs(n: usize) -> Vec<ReadPair> {
        PairSet::generate_with_lengths(n, 0.15, 500, 900, 23).pairs
    }

    #[test]
    fn batch_matches_sequential() {
        let ps = pairs(12);
        let ext = XDropExtender::new(Scoring::default(), 50);
        let batch = CpuBatchAligner::new(4).run(&ps, &ext);
        for (p, r) in ps.iter().zip(&batch.results) {
            let seq = seed_extend(&p.query, &p.target, p.seed, &ext);
            assert_eq!(*r, seq, "parallel result must equal sequential");
        }
        assert_eq!(
            batch.total_cells,
            batch.results.iter().map(|r| r.cells()).sum::<u64>()
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let ps = pairs(8);
        let ext = XDropExtender::new(Scoring::default(), 30);
        let one = CpuBatchAligner::new(1).run(&ps, &ext);
        let many = CpuBatchAligner::new(8).run(&ps, &ext);
        assert_eq!(one.results, many.results);
        assert_eq!(one.total_cells, many.total_cells);
    }

    #[test]
    fn run_with_applies_ksw2() {
        let ps = pairs(4);
        let aligner = CpuBatchAligner::new(2);
        let (scores, _) = aligner.run_with(&ps, |p| {
            ksw2_extend(&p.query, &p.target, Ksw2Params::with_zdrop(50)).score
        });
        assert_eq!(scores.len(), 4);
        assert!(scores.iter().all(|&s| s > 0));
    }

    #[test]
    fn run_xdrop_engines_agree() {
        use crate::simd::Engine;
        let ps = pairs(6);
        let aligner = CpuBatchAligner::new(4);
        let run = |engine| {
            aligner.run(
                &ps,
                &XDropExtender::with_engine(Scoring::default(), 50, engine),
            )
        };
        let scalar = run(Engine::Scalar);
        let simd = run(Engine::Simd);
        let tier8 = run(Engine::I8);
        let adaptive = run(Engine::Adaptive);
        for other in [&simd, &tier8, &adaptive] {
            assert_eq!(scalar.results, other.results);
            assert_eq!(scalar.total_cells, other.total_cells);
        }
        // Each pair splits into at most two extensions (left + right;
        // empty sides run no kernel), and the batch tally attributes
        // every one of them to the tier that actually computed it.
        for batch in [&scalar, &simd, &tier8, &adaptive] {
            assert!(batch.tiers.total() >= ps.len() as u64);
            assert!(batch.tiers.total() <= 2 * ps.len() as u64);
        }
        assert_eq!(scalar.tiers.lanes16 + scalar.tiers.lanes8, 0);
        assert_eq!(simd.tiers.lanes8, 0);
        assert!(simd.tiers.lanes16 > 0, "x=50 DNA pairs are i16-eligible");
        assert!(
            tier8.tiers.lanes8 > 0,
            "x=50 DNA pairs are i8-eligible (50 + 1 ≤ 63)"
        );
        assert!(
            tier8.tiers.escalations > 0,
            "true overlaps outgrow the i8 window"
        );
        // Adaptive never dispatches the i8 tier, so it never escalates.
        assert_eq!(adaptive.tiers, simd.tiers);
    }

    #[test]
    fn run_xdrop_accepts_matrix_profiles() {
        use crate::simd::Engine;
        use logan_seq::readsim::Seed;
        use logan_seq::{Alphabet, ScoreProfile, Seq};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let prot = |rng: &mut StdRng, n: usize| {
            Seq::from_codes(
                (0..n).map(|_| rng.gen_range(0..20u8)).collect(),
                Alphabet::Protein,
            )
        };
        let ps: Vec<ReadPair> = (0..6)
            .map(|_| {
                let q = prot(&mut rng, 180);
                // Homolog sharing an exact 6-mer seed at position 60.
                let mut t = q.as_slice().to_vec();
                for (i, c) in t.iter_mut().enumerate() {
                    if !(60..66).contains(&i) && rng.gen_bool(0.15) {
                        *c = rng.gen_range(0..20u8);
                    }
                }
                ReadPair {
                    query: q,
                    target: Seq::from_codes(t, Alphabet::Protein),
                    seed: Seed {
                        qpos: 60,
                        tpos: 60,
                        len: 6,
                    },
                    template_len: 180,
                }
            })
            .collect();
        let p = ScoreProfile::blosum62(-6);
        let aligner = CpuBatchAligner::new(2);
        let scalar = aligner.run(&ps, &XDropExtender::with_engine(p, 50, Engine::Scalar));
        let simd = aligner.run(&ps, &XDropExtender::with_engine(p, 50, Engine::Simd));
        assert_eq!(scalar.results, simd.results);
        assert!(scalar.results.iter().all(|r| r.score > 0));
        // The bound form agrees and reports the profile; scoring()
        // would panic here, so only profile() is queried.
        let bound = XDropCpuAligner::new(2, p, 50, Engine::Simd);
        assert_eq!(bound.run(&ps).results, simd.results);
        assert_eq!(bound.profile(), p);
    }

    #[test]
    fn zero_threads_clamped() {
        let a = CpuBatchAligner::new(0);
        assert_eq!(a.threads(), 1);
    }

    #[test]
    fn bound_aligner_matches_run_xdrop() {
        use crate::simd::Engine;
        let ps = pairs(5);
        let bound = XDropCpuAligner::new(2, Scoring::default(), 40, Engine::Simd);
        let loose = CpuBatchAligner::new(2).run(
            &ps,
            &XDropExtender::with_engine(Scoring::default(), 40, Engine::Simd),
        );
        let got = bound.run(&ps);
        assert_eq!(got.results, loose.results);
        assert_eq!(got.total_cells, loose.total_cells);
        assert_eq!(bound.threads(), 2);
        assert_eq!(bound.x(), 40);
        assert_eq!(bound.ext.engine, Engine::Simd);
        assert_eq!(bound.ext.profile, Scoring::default().into());
    }

    #[test]
    fn wall_gcups_sane() {
        let ps = pairs(6);
        let ext = XDropExtender::new(Scoring::default(), 50);
        let batch = CpuBatchAligner::new(2).run(&ps, &ext);
        assert!(batch.wall > Duration::ZERO);
        assert!(batch.wall_gcups() > 0.0);
        let zero_work = BatchResult {
            total_cells: 0,
            wall: Duration::ZERO,
            ..batch.clone()
        };
        assert_eq!(zero_work.wall_gcups(), 0.0);
        let sub_resolution = BatchResult {
            wall: Duration::ZERO,
            ..batch
        };
        assert_eq!(sub_resolution.wall_gcups(), f64::INFINITY);
    }
}
