//! The single-GPU host pipeline (paper §IV-B).
//!
//! The host:
//! 1. splits every read pair at its seed into a *left* extension (both
//!    prefixes reversed) and a *right* extension (Fig. 5);
//! 2. reverses the target layout for coalesced device access (Fig. 6) —
//!    in the simulation this is a policy bit consumed by the traffic
//!    model;
//! 3. sizes batches so the working set fits HBM (the device memory is
//!    the limiting resource, §IV-C), chunking when it does not;
//! 4. schedules the number of threads per block proportional to X
//!    (§IV-B: threads beyond the anti-diagonal width would stall);
//! 5. runs left and right batches as two streams and retrieves results
//!    asynchronously.

use crate::backend::BackendReport;
use crate::calibration::*;
use crate::kernel::{ExtensionJob, KernelPolicy, LoganKernel};
use logan_align::{Engine, ExtensionResult, SeedExtendResult};
use logan_gpusim::{Device, DeviceSpec, LaunchConfig, Timeline};
use logan_seq::readsim::ReadPair;
use logan_seq::ScoreProfile;

/// How many threads each block gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadPolicy {
    /// Threads ∝ X, rounded up to a warp, clamped to the device maximum
    /// (the paper's scheduling optimization, §IV-B).
    ProportionalToX,
    /// A fixed count (used by the Table I ablation: 1 thread = "none",
    /// 128 = intra-sequence only, 1024 = the naive maximum).
    Fixed(usize),
}

impl ThreadPolicy {
    /// Resolve to a concrete thread count for threshold `x`.
    pub(crate) fn resolve(&self, x: i32, spec: &DeviceSpec) -> usize {
        match *self {
            ThreadPolicy::ProportionalToX => {
                let band = 2.0 * x as f64 * BAND_HALFWIDTH_PER_X + 1.0;
                let rounded = (band as usize).next_multiple_of(spec.warp_size);
                rounded.clamp(spec.warp_size, spec.max_threads_per_block)
            }
            ThreadPolicy::Fixed(n) => n.clamp(1, spec.max_threads_per_block),
        }
    }
}

/// Executor configuration (the paper's defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoganConfig {
    /// Substitution model with linear gaps — the DNA match/mismatch
    /// fast path (default: match +1 / mismatch −1 / gap −1) or a dense
    /// matrix such as BLOSUM62 for protein / translated search.
    pub profile: ScoreProfile,
    /// X-drop threshold.
    pub x: i32,
    /// Thread scheduling policy.
    pub thread_policy: ThreadPolicy,
    /// Reverse the target layout for coalesced access (Fig. 6).
    pub reversed_layout: bool,
    /// Keep anti-diagonals in shared memory (§IV-B ablation; limits
    /// residency and read length).
    pub antidiag_in_shared: bool,
    /// Host engine computing the kernel's results (scalar reference,
    /// one of the lane-parallel tiers — i16, i8-with-escalation — or
    /// the per-pair adaptive choice), dispatched exactly as on the CPU
    /// path. Bit-identical results and identical accounted costs on
    /// every engine; the SIMD tiers just make the simulation run faster
    /// on the host.
    pub engine: Engine,
}

impl LoganConfig {
    /// Paper defaults with the given X on [`Engine::Adaptive`]. The
    /// library reads no environment: binaries that honour
    /// `LOGAN_ENGINE` set `engine` from [`Engine::from_env`] themselves,
    /// which is safe precisely because engines cannot change results.
    pub fn with_x(x: i32) -> LoganConfig {
        LoganConfig {
            profile: ScoreProfile::default(),
            x,
            thread_policy: ThreadPolicy::ProportionalToX,
            reversed_layout: true,
            antidiag_in_shared: false,
            engine: Engine::Adaptive,
        }
    }
}

/// A LOGAN instance bound to one (simulated) GPU.
pub struct LoganExecutor {
    device: Device,
    /// The executor's configuration.
    pub config: LoganConfig,
}

/// Device bytes needed by one extension job: both sequences plus three
/// `i32` anti-diagonal buffers and a result slot.
fn job_device_bytes(job: &ExtensionJob) -> u64 {
    let cap = job.query.len().min(job.target.len()) + 1;
    (job.query.len() + job.target.len()) as u64 + 3 * cap as u64 * 4 + 32
}

impl LoganExecutor {
    /// Create an executor on a fresh device of the given spec.
    pub fn new(spec: DeviceSpec, config: LoganConfig) -> LoganExecutor {
        LoganExecutor {
            device: Device::new(spec),
            config,
        }
    }

    /// Access the underlying device.
    pub(crate) fn device(&self) -> &Device {
        &self.device
    }

    /// The thread count this configuration resolves to.
    pub(crate) fn threads(&self) -> usize {
        self.config
            .thread_policy
            .resolve(self.config.x, self.device.spec())
    }

    /// Estimate the L2-spill fraction for a batch of jobs: the share of
    /// streaming traffic that reaches HBM once the hot working set of
    /// all resident blocks exceeds L2.
    fn hbm_charge_fraction(&self, jobs: &[ExtensionJob], threads: usize, shared: usize) -> f64 {
        let spec = self.device.spec();
        let max_cap = jobs
            .iter()
            .map(|j| j.query.len().min(j.target.len()) + 1)
            .max()
            .unwrap_or(1);
        let band_est = (2.0 * self.config.x as f64 * BAND_HALFWIDTH_PER_X) as usize + 33;
        let width_est = max_cap.min(band_est);
        let ws_per_block = HOT_BYTES_PER_WIDTH * width_est + 64;
        let resident = spec
            .blocks_resident_per_sm(threads, shared)
            .max(1)
            .saturating_mul(spec.sm_count)
            .min(jobs.len().max(1));
        let ws_total = (ws_per_block * resident) as f64;
        (1.0 - spec.l2_bytes as f64 / ws_total).clamp(0.0, 1.0)
    }

    /// Extend a batch of jobs (one stream), chunking to fit HBM. Returns
    /// per-job results in order and the stream's simulated half of a
    /// [`BackendReport`] — cells, simulated seconds (transfers and launch
    /// overheads included), launches, HBM peak, per-launch kernel
    /// reports; `pairs`, `blocks` and `wall_s` describe a whole block and
    /// are filled in by [`LoganExecutor::align_pairs`].
    pub(crate) fn extend_batch(
        &self,
        jobs: &[ExtensionJob],
    ) -> (Vec<ExtensionResult>, BackendReport) {
        let spec = self.device.spec().clone();
        let threads = self.threads();
        let warps = threads.div_ceil(spec.warp_size);
        let max_cap = jobs
            .iter()
            .map(|j| j.query.len().min(j.target.len()) + 1)
            .max()
            .unwrap_or(1);
        let shared = if self.config.antidiag_in_shared {
            3 * max_cap * 4 + warps * 8
        } else {
            warps * 8
        };
        assert!(
            shared <= spec.shared_mem_per_block_max,
            "shared-memory ablation cannot hold reads of this length \
             ({} bytes needed, {} available) — this is the §IV-B argument \
             for HBM anti-diagonals",
            shared,
            spec.shared_mem_per_block_max
        );

        let mut results: Vec<ExtensionResult> = Vec::with_capacity(jobs.len());
        let mut timeline = Timeline::new();
        let mut reports = Vec::new();
        let mut total_cells = 0u64;
        let mut hbm_peak = 0u64;
        let mut launches = 0usize;

        // Chunk jobs so each chunk's buffers fit free HBM.
        let mut start = 0usize;
        while start < jobs.len() {
            let mut end = start;
            let mut bytes = 0u64;
            while end < jobs.len() {
                let jb = job_device_bytes(&jobs[end]);
                if end > start && bytes + jb > self.device.mem_free() {
                    break;
                }
                bytes += jb;
                end += 1;
            }
            let chunk = &jobs[start..end];
            self.device
                .alloc(bytes.min(self.device.mem_free()))
                .expect("chunking keeps allocations within HBM");
            hbm_peak = hbm_peak.max(self.device.mem_used());

            // Host → device copy of the chunk's sequences.
            let seq_bytes: u64 = chunk
                .iter()
                .map(|j| (j.query.len() + j.target.len()) as u64)
                .sum();
            timeline.add_transfer(self.device.transfer_time_s(seq_bytes), launches > 0);

            let policy = KernelPolicy {
                threads,
                reversed_layout: self.config.reversed_layout,
                antidiag_in_shared: self.config.antidiag_in_shared,
                hbm_charge_fraction: self.hbm_charge_fraction(chunk, threads, shared),
                engine: self.config.engine,
            };
            let kernel = LoganKernel {
                jobs: chunk,
                profile: self.config.profile,
                x: self.config.x,
                policy,
            };
            let (mut out, mut report) = self.device.launch(
                LaunchConfig {
                    blocks: chunk.len(),
                    threads_per_block: threads,
                    shared_per_block: shared,
                },
                &kernel,
            );
            let chunk_cells: u64 = out.iter().map(|r| r.cells).sum();
            report.stats.work_items = chunk_cells;
            total_cells += chunk_cells;
            timeline.add_kernel(&report);
            // Device → host result copy rides behind the kernel.
            timeline.add_transfer(self.device.transfer_time_s(32 * chunk.len() as u64), true);
            reports.push(report);
            launches += 1;
            results.append(&mut out);
            self.device.free(self.device.mem_used());
            start = end;
        }

        (
            results,
            BackendReport {
                total_cells,
                sim_time_s: timeline.seconds(),
                launches,
                hbm_peak_bytes: hbm_peak,
                kernel_reports: reports,
                ..BackendReport::default()
            },
        )
    }

    /// Align read pairs around their seeds: the full §IV-B pipeline
    /// (seed split, left/right streams, result assembly), reported as
    /// one block — the two streams' simulated seconds add, and the host
    /// wall clock of the whole call is measured beside them.
    pub fn align_pairs(&self, pairs: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
        let start = std::time::Instant::now();
        let (left_jobs, right_jobs) = split_jobs(pairs);
        let (left_res, mut report) = self.extend_batch(&left_jobs);
        let (right_res, right_rep) = self.extend_batch(&right_jobs);
        report.merge(right_rep);
        let results = assemble_results(pairs, &left_res, &right_res, self.config.profile);
        report.pairs = pairs.len();
        report.blocks = 1;
        report.wall_s = start.elapsed().as_secs_f64();
        (results, report)
    }
}

/// Split pairs into left-extension jobs (reversed prefixes) and
/// right-extension jobs (suffixes past the seed).
pub fn split_jobs(pairs: &[ReadPair]) -> (Vec<ExtensionJob>, Vec<ExtensionJob>) {
    let mut left = Vec::with_capacity(pairs.len());
    let mut right = Vec::with_capacity(pairs.len());
    for p in pairs {
        let s = p.seed;
        left.push(ExtensionJob {
            query: p.query.subseq(0, s.qpos).reversed(),
            target: p.target.subseq(0, s.tpos).reversed(),
        });
        right.push(ExtensionJob {
            query: p.query.subseq(s.qpos + s.len, p.query.len()),
            target: p.target.subseq(s.tpos + s.len, p.target.len()),
        });
    }
    (left, right)
}

/// Combine per-side extension results into seed-extend results, exactly
/// as `logan_align::seed_extend` does. The seed credit is the profile's
/// sum of diagonal scores over the seed's query symbols — `len ×
/// match_score` on the DNA fast path, per-residue BLOSUM diagonals for
/// matrix profiles.
pub(crate) fn assemble_results(
    pairs: &[ReadPair],
    left: &[ExtensionResult],
    right: &[ExtensionResult],
    profile: impl Into<ScoreProfile>,
) -> Vec<SeedExtendResult> {
    assert_eq!(pairs.len(), left.len());
    assert_eq!(pairs.len(), right.len());
    let profile = profile.into();
    pairs
        .iter()
        .zip(left.iter().zip(right))
        .map(|(p, (l, r))| {
            let s = p.seed;
            SeedExtendResult {
                score: l.score
                    + r.score
                    + profile.seed_credit(&p.query.as_slice()[s.qpos..s.qpos + s.len]),
                left: *l,
                right: *r,
                query_start: s.qpos - l.query_end,
                query_end: s.qpos + s.len + r.query_end,
                target_start: s.tpos - l.target_end,
                target_end: s.tpos + s.len + r.target_end,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_align::{seed_extend, XDropExtender};
    use logan_seq::readsim::PairSet;
    use logan_seq::{Scoring, Seq};

    fn pairs(n: usize, lo: usize, hi: usize) -> Vec<ReadPair> {
        PairSet::generate_with_lengths(n, 0.15, lo, hi, 31).pairs
    }

    #[test]
    fn thread_policy_resolution() {
        let spec = DeviceSpec::v100();
        let p = ThreadPolicy::ProportionalToX;
        assert_eq!(p.resolve(10, &spec), 32);
        let t100 = p.resolve(100, &spec);
        assert!((128..=160).contains(&t100), "got {t100}");
        assert_eq!(p.resolve(5000, &spec), 1024);
        assert_eq!(ThreadPolicy::Fixed(1).resolve(100, &spec), 1);
        assert_eq!(ThreadPolicy::Fixed(4096).resolve(100, &spec), 1024);
    }

    #[test]
    fn executor_matches_cpu_seed_extend() {
        let ps = pairs(10, 400, 800);
        let exec = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50));
        let (gpu, report) = exec.align_pairs(&ps);
        let ext = XDropExtender::new(Scoring::default(), 50);
        for (p, g) in ps.iter().zip(&gpu) {
            let cpu = seed_extend(&p.query, &p.target, p.seed, &ext);
            assert_eq!(*g, cpu, "GPU pipeline must equal CPU seed-extend");
        }
        assert!(report.sim_time_s > 0.0);
        assert_eq!(report.launches, 2, "left and right streams");
        assert_eq!(
            report.total_cells,
            gpu.iter().map(|r| r.cells()).sum::<u64>()
        );
    }

    #[test]
    fn chunking_on_small_hbm_preserves_results() {
        // A 1 MB device forces multiple chunks for 60 jobs of ~20 KB.
        let mut cramped_spec = DeviceSpec::tiny();
        cramped_spec.hbm_bytes = 1024 * 1024;
        let ps = pairs(60, 2000, 3000);
        let small = LoganExecutor::new(cramped_spec, LoganConfig::with_x(30));
        let big = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(30));
        let (a, rep_small) = small.align_pairs(&ps);
        let (b, _) = big.align_pairs(&ps);
        assert_eq!(a, b, "chunking must not change results");
        assert!(rep_small.launches > 2, "cramped device must chunk");
        assert_eq!(small.device().mem_used(), 0, "all memory released");
    }

    #[test]
    fn sim_time_grows_with_x_at_saturating_batch() {
        // Monotonicity in X holds once the batch saturates the device —
        // X=10 runs single-warp blocks, which need ≥16 resident blocks
        // per SM (2048 total) to hide issue latency. At smaller batches a
        // larger T can beat a smaller one via occupancy, which is
        // exactly the paper's threads-∝-X argument.
        let ps = pairs(2048, 300, 400);
        let mut last = 0.0f64;
        for x in [10, 50, 200] {
            let exec = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(x));
            let (_, rep) = exec.align_pairs(&ps);
            assert!(
                rep.sim_time_s > last,
                "x={x}: {} !> {}",
                rep.sim_time_s,
                last
            );
            last = rep.sim_time_s;
        }
    }

    #[test]
    fn gcups_improves_with_batch_size() {
        let exec = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(100));
        let (_, small) = exec.align_pairs(&pairs(4, 1000, 1500));
        let (_, large) = exec.align_pairs(&pairs(256, 1000, 1500));
        assert!(
            large.gcups() > 2.0 * small.gcups(),
            "inter-sequence parallelism must lift throughput: {} vs {}",
            large.gcups(),
            small.gcups()
        );
    }

    #[test]
    fn engines_produce_identical_batches_and_sim_time() {
        let ps = pairs(12, 400, 900);
        let mut cfg = LoganConfig::with_x(50);
        cfg.engine = Engine::Scalar;
        let (r_scalar, rep_scalar) = LoganExecutor::new(DeviceSpec::v100(), cfg).align_pairs(&ps);
        for engine in [Engine::Simd, Engine::I8, Engine::Adaptive] {
            cfg.engine = engine;
            let (r_simd, rep_simd) = LoganExecutor::new(DeviceSpec::v100(), cfg).align_pairs(&ps);
            assert_eq!(r_scalar, r_simd, "{engine} must not change results");
            assert_eq!(
                rep_scalar.sim_time_s, rep_simd.sim_time_s,
                "{engine} must not change simulated time"
            );
            assert_eq!(rep_scalar.total_cells, rep_simd.total_cells);
        }
    }

    #[test]
    fn matrix_profile_pipeline_matches_cpu_seed_extend() {
        use logan_seq::readsim::Seed;
        use logan_seq::Alphabet;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let ps: Vec<ReadPair> = (0..8)
            .map(|_| {
                let n = 150 + rng.gen_range(0..200usize);
                let q = Seq::from_codes(
                    (0..n).map(|_| rng.gen_range(0..20u8)).collect(),
                    Alphabet::Protein,
                );
                let mut t = q.as_slice().to_vec();
                for (i, c) in t.iter_mut().enumerate() {
                    if !(40..46).contains(&i) && rng.gen_bool(0.15) {
                        *c = rng.gen_range(0..20u8);
                    }
                }
                ReadPair {
                    query: q,
                    target: Seq::from_codes(t, Alphabet::Protein),
                    seed: Seed {
                        qpos: 40,
                        tpos: 40,
                        len: 6,
                    },
                    template_len: n,
                }
            })
            .collect();
        let p = ScoreProfile::blosum62(-6);
        let mut cfg = LoganConfig::with_x(50);
        cfg.profile = p;
        for engine in [Engine::Scalar, Engine::Simd] {
            cfg.engine = engine;
            let exec = LoganExecutor::new(DeviceSpec::v100(), cfg);
            let (gpu, rep) = exec.align_pairs(&ps);
            let ext = XDropExtender::new(p, 50);
            for (pair, g) in ps.iter().zip(&gpu) {
                let cpu = seed_extend(&pair.query, &pair.target, pair.seed, &ext);
                assert_eq!(*g, cpu, "protein pipeline must equal CPU seed-extend");
            }
            assert!(rep.total_cells > 0);
        }
    }

    #[test]
    fn empty_batch() {
        let exec = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(100));
        let (res, rep) = exec.extend_batch(&[]);
        assert!(res.is_empty());
        assert_eq!(rep.total_cells, 0);
        // Satellite regression: zero simulated time reports 0.0 GCUPS,
        // never NaN or infinity.
        assert_eq!(rep.sim_time_s, 0.0);
        assert_eq!(rep.gcups(), 0.0);
        assert!(rep.gcups().is_finite());
    }

    #[test]
    #[should_panic(expected = "shared-memory ablation")]
    fn shared_ablation_rejects_long_reads() {
        // Extensions are read halves; templates of ~12 kb give ~6 kb
        // sides whose three anti-diagonals (72 KB) exceed the 64 KB
        // per-block shared limit — the §IV-B argument.
        let ps = pairs(2, 11_500, 12_000);
        let mut cfg = LoganConfig::with_x(20);
        cfg.antidiag_in_shared = true;
        let exec = LoganExecutor::new(DeviceSpec::v100(), cfg);
        let _ = exec.align_pairs(&ps);
    }
}
