//! The alignment-backend abstraction: one object-safe trait every
//! extension engine implements, so pipelines and schedulers dispatch
//! over `&dyn AlignBackend` instead of matching a closed enum.
//!
//! A backend takes a block of read pairs and returns per-pair
//! seed-extend results (in block order) plus a mergeable
//! [`BackendReport`]. Capability metadata — [`AlignBackend::name`],
//! [`AlignBackend::throughput_hint`], [`AlignBackend::max_block`] —
//! lets a scheduler ([`crate::fleet::Fleet`]) size work chunks per
//! backend without knowing what kind of device sits behind the call.
//!
//! Implementations in this workspace:
//!
//! * [`logan_align::XDropCpuAligner`] — BELLA's multi-threaded CPU loop
//!   (either compute engine).
//! * [`crate::executor::LoganExecutor`] — LOGAN on one simulated GPU.
//! * [`GpuBackend`] — a [`LoganExecutor`] plus a private host driver
//!   pool, for fleets where each device gets a bounded host share.
//! * [`crate::fleet::Fleet`] — the multi-device scheduler over any set
//!   of the above: work-stealing by default, the paper's static LPT
//!   balancer when built with [`crate::fleet::Fleet::static_gpus`].
//!
//! One report type describes every run: [`BackendReport`] (host wall
//! and simulated seconds side by side, never mixed), which the executor
//! produces directly and fleets keep per worker inside
//! [`crate::fleet::FleetReport`].
//!
//! Every backend must be *result-deterministic*: `align_block` on the
//! same pairs returns bit-identical [`SeedExtendResult`]s regardless of
//! which backend runs them, how the block was chunked, or what else ran
//! concurrently. The differential suites (`tests/backend_equivalence.rs`)
//! enforce this; it is what makes dynamic scheduling safe.

use crate::executor::LoganExecutor;
use logan_align::{SeedExtendResult, XDropCpuAligner};
use logan_gpusim::KernelReport;
use logan_seq::readsim::ReadPair;
use serde::Serialize;

/// An alignment backend: anything that can extend a block of read pairs.
///
/// Object-safe (`&dyn AlignBackend` is how the BELLA pipeline and the
/// CLI hold one) and thread-shareable: `align_block` takes `&self`, and
/// the `Send + Sync` bounds let a scheduler drive many backends — or
/// the lanes of one backend — from worker threads.
pub trait AlignBackend: Send + Sync {
    /// Human-readable identity, e.g. `cpu:8` or `gpu:V100`.
    fn name(&self) -> String;

    /// Approximate relative throughput in GCUPS (simulated device GCUPS
    /// for GPU backends, calibrated host GCUPS for CPU backends). Used
    /// only as a *ratio* between fleet members when sizing work chunks —
    /// absolute accuracy is not required, monotonicity is.
    fn throughput_hint(&self) -> f64;

    /// Largest block this backend wants in a single `align_block` call.
    /// Schedulers cap dynamic chunks at this; callers handing over a
    /// pre-partitioned bin may exceed it (backends chunk internally).
    fn max_block(&self) -> usize;

    /// Align every pair of `block`, returning per-pair results in block
    /// order and the block's report.
    fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport);

    /// How many independent consumers can drive this backend at once.
    /// `1` for a single device or a self-parallel CPU pool; a fleet
    /// reports one lane per member so a streaming producer can feed all
    /// of them concurrently.
    fn lanes(&self) -> usize {
        1
    }

    /// The score profile and X this backend aligns under, when it has a
    /// single fixed set — matrix profiles (BLOSUM62 translated search)
    /// as well as the DNA fast path. Schedulers and pipelines whose
    /// *own* configuration must agree with the backend (BELLA's adaptive
    /// threshold interprets scores in its config's scoring system) check
    /// against this instead of trusting call sites to keep two values in
    /// sync. `None` means "unknown/heterogeneous" and skips the check.
    fn profile_params(&self) -> Option<(logan_seq::ScoreProfile, i32)> {
        None
    }

    /// [`AlignBackend::throughput_hint`] for one specific lane
    /// (`lane < self.lanes()`). Heterogeneous fleets override this so
    /// per-lane service-time models (the serving latency harness) charge
    /// a CPU lane at CPU rate, not at the fleet aggregate. Single-lane
    /// backends fall back to the whole-backend hint.
    fn throughput_hint_on(&self, _lane: usize) -> f64 {
        self.throughput_hint()
    }

    /// Align a block on one specific lane (`lane < self.lanes()`).
    /// Single-lane backends ignore the lane index.
    fn align_block_on(
        &self,
        _lane: usize,
        block: &[ReadPair],
    ) -> (Vec<SeedExtendResult>, BackendReport) {
        self.align_block(block)
    }

    /// Fallible [`AlignBackend::align_block_on`]: faults surface as
    /// [`crate::faults::BackendError`] values instead of unwinds. The
    /// default wraps the infallible path and never fails; fault
    /// injectors ([`crate::faults::ChaosBackend`]) and supervisors
    /// ([`crate::faults::Supervised`], [`crate::fleet::Fleet`])
    /// override it. Panics are *not* caught here — that happens once,
    /// at the supervision boundary ([`crate::faults::catch_align`]).
    fn try_align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> Result<(Vec<SeedExtendResult>, BackendReport), crate::faults::BackendError> {
        Ok(self.align_block_on(lane, block))
    }
}

/// Boxed backends are backends: forwarding keeps wrapper stacks
/// (`Supervised<Box<dyn AlignBackend>>`, chaos over a boxed fleet)
/// composable without re-borrowing gymnastics. Every method forwards —
/// including the fallible one, so a box never hides an override.
impl<T: AlignBackend + ?Sized> AlignBackend for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn throughput_hint(&self) -> f64 {
        (**self).throughput_hint()
    }

    fn max_block(&self) -> usize {
        (**self).max_block()
    }

    fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
        (**self).align_block(block)
    }

    fn lanes(&self) -> usize {
        (**self).lanes()
    }

    fn profile_params(&self) -> Option<(logan_seq::ScoreProfile, i32)> {
        (**self).profile_params()
    }

    fn throughput_hint_on(&self, lane: usize) -> f64 {
        (**self).throughput_hint_on(lane)
    }

    fn align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> (Vec<SeedExtendResult>, BackendReport) {
        (**self).align_block_on(lane, block)
    }

    fn try_align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> Result<(Vec<SeedExtendResult>, BackendReport), crate::faults::BackendError> {
        (**self).try_align_block_on(lane, block)
    }
}

/// What one backend did for one or more blocks — a single mergeable
/// shape for every backend kind, so schedulers and pipelines accumulate
/// reports without knowing who produced them. Host-only backends leave
/// the simulated fields at zero; simulated backends also measure host
/// wall time, so the two time domains never mix.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct BackendReport {
    /// Pairs aligned.
    pub pairs: usize,
    /// `align_block` calls folded into this report.
    pub blocks: usize,
    /// DP cells computed.
    pub total_cells: u64,
    /// Host wall-clock seconds spent inside `align_block`.
    pub wall_s: f64,
    /// Simulated device seconds (0.0 for host-only backends).
    pub sim_time_s: f64,
    /// Kernel launches issued (0 for host-only backends).
    pub launches: usize,
    /// Peak simulated HBM bytes in flight (0 for host-only backends).
    pub hbm_peak_bytes: u64,
    /// Which host kernel tier computed each extension (scalar / i16 /
    /// i8, plus i8 → i16 escalations) — the measured answer to "how
    /// often does scalar actually fire". Populated by the CPU backend;
    /// simulated backends leave it empty (their tier choice is a host
    /// wall-clock detail, not a simulated cost). Merges by summing.
    pub tiers: logan_align::TierTally,
    /// Per-launch kernel reports, in launch order.
    pub kernel_reports: Vec<KernelReport>,
}

impl BackendReport {
    /// A report of no work at all.
    pub fn empty() -> BackendReport {
        BackendReport::default()
    }

    /// Report of one block run on a host-only (CPU) backend.
    pub(crate) fn from_host(pairs: usize, total_cells: u64, wall_s: f64) -> BackendReport {
        BackendReport {
            pairs,
            blocks: 1,
            total_cells,
            wall_s,
            ..BackendReport::default()
        }
    }

    /// Fold in a report of work that ran *after* this one on the same
    /// backend: both time domains add (blocks run back to back).
    pub fn merge(&mut self, other: BackendReport) {
        self.pairs += other.pairs;
        self.blocks += other.blocks;
        self.total_cells += other.total_cells;
        self.wall_s += other.wall_s;
        self.sim_time_s += other.sim_time_s;
        self.launches += other.launches;
        self.hbm_peak_bytes = self.hbm_peak_bytes.max(other.hbm_peak_bytes);
        self.tiers.merge(&other.tiers);
        self.kernel_reports.extend(other.kernel_reports);
    }

    /// Fold in a report of work that ran *concurrently* with this one
    /// (another fleet worker, another streaming lane): work adds, both
    /// time domains take the maximum — concurrent seconds do not sum.
    /// This is why fleet reports stay mergeable: every accumulation is
    /// either sequential ([`BackendReport::merge`]) or concurrent (this),
    /// and both operations are associative.
    pub fn merge_concurrent(&mut self, other: BackendReport) {
        self.pairs += other.pairs;
        self.blocks += other.blocks;
        self.total_cells += other.total_cells;
        self.wall_s = self.wall_s.max(other.wall_s);
        self.sim_time_s = self.sim_time_s.max(other.sim_time_s);
        self.launches += other.launches;
        self.hbm_peak_bytes = self.hbm_peak_bytes.max(other.hbm_peak_bytes);
        self.tiers.merge(&other.tiers);
        self.kernel_reports.extend(other.kernel_reports);
    }

    /// Device seconds this report charges a scheduler's virtual clock: a
    /// simulated run's `sim_time_s`; for a host-only run, its cells at
    /// `hint_gcups` plus whatever `sim_time_s` an injected stall added.
    /// Never the measured wall, so the charge is the same on every run.
    pub fn device_s(&self, hint_gcups: f64) -> f64 {
        if self.launches > 0 {
            return self.sim_time_s;
        }
        self.total_cells as f64 / (hint_gcups.max(f64::MIN_POSITIVE) * 1e9) + self.sim_time_s
    }

    /// Giga cell updates per *simulated* second; 0.0 (not NaN/∞) when no
    /// simulated time elapsed — an empty batch or a host-only backend.
    pub fn gcups(&self) -> f64 {
        if self.sim_time_s == 0.0 {
            return 0.0;
        }
        self.total_cells as f64 / self.sim_time_s / 1e9
    }
}

/// The simulated compute ceiling of a device spec in GCUPS — the
/// calibration-backed throughput hint for GPU backends.
fn gpu_gcups_hint(spec: &logan_gpusim::DeviceSpec) -> f64 {
    spec.int_warp_gips() * spec.warp_size as f64 / crate::calibration::LOGAN_INSTR_PER_CELL as f64
}

/// Calibrated per-thread GCUPS hint for the CPU X-drop loop: Table II's
/// POWER9 × SeqAn row sustains ≈1.85 GCUPS over 168 threads (≈0.011),
/// and the Skylake × ksw2 comparator lands several times higher; 0.05
/// splits the difference. Only the *ratio* against the GPU hints (the
/// §VI-B compute ceiling of the device spec) matters for chunk sizing,
/// so the spread between testbeds is tolerable.
pub(crate) const CPU_THREAD_GCUPS_HINT: f64 = 0.05;

/// Worker threads available on this host (≥ 1) — the shared fallback
/// every "default to machine width" knob uses.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

impl AlignBackend for XDropCpuAligner {
    fn name(&self) -> String {
        format!("cpu:{}", self.threads())
    }

    fn profile_params(&self) -> Option<(logan_seq::ScoreProfile, i32)> {
        Some((self.profile(), self.x()))
    }

    fn throughput_hint(&self) -> f64 {
        CPU_THREAD_GCUPS_HINT * self.threads() as f64
    }

    fn max_block(&self) -> usize {
        usize::MAX
    }

    fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
        let batch = self.run(block);
        let wall_s = batch.wall.as_secs_f64();
        let mut report = BackendReport::from_host(block.len(), batch.total_cells, wall_s);
        report.tiers = batch.tiers;
        (batch.results, report)
    }
}

impl AlignBackend for LoganExecutor {
    fn name(&self) -> String {
        format!("gpu:{}", self.device().spec().name)
    }

    fn profile_params(&self) -> Option<(logan_seq::ScoreProfile, i32)> {
        Some((self.config.profile, self.config.x))
    }

    fn throughput_hint(&self) -> f64 {
        gpu_gcups_hint(self.device().spec())
    }

    fn max_block(&self) -> usize {
        usize::MAX
    }

    fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
        self.align_pairs(block)
    }
}

/// A [`LoganExecutor`] paired with a private host driver pool: the
/// simulated device's block-parallel host computation fans out over
/// `driver_threads` workers instead of the whole machine. In a fleet of
/// several devices this is what keeps N concurrent workers from
/// spawning N × machine-width threads — and what makes wall-clock
/// scheduling benchmarks honest (one host thread drives one device,
/// exactly the paper's §IV-C deployment shape).
pub struct GpuBackend {
    exec: LoganExecutor,
    driver: rayon::ThreadPool,
    driver_threads: usize,
}

impl GpuBackend {
    /// Wrap an executor with a driver pool of `driver_threads` host
    /// workers (clamped to at least 1).
    pub fn new(exec: LoganExecutor, driver_threads: usize) -> GpuBackend {
        let driver_threads = driver_threads.max(1);
        let driver = rayon::ThreadPoolBuilder::new()
            .num_threads(driver_threads)
            .build()
            .expect("failed to build GPU driver pool");
        GpuBackend {
            exec,
            driver,
            driver_threads,
        }
    }
}

impl AlignBackend for GpuBackend {
    fn name(&self) -> String {
        format!(
            "gpu:{}/host{}",
            self.exec.device().spec().name,
            self.driver_threads
        )
    }

    fn profile_params(&self) -> Option<(logan_seq::ScoreProfile, i32)> {
        self.exec.profile_params()
    }

    fn throughput_hint(&self) -> f64 {
        gpu_gcups_hint(self.exec.device().spec())
    }

    fn max_block(&self) -> usize {
        usize::MAX
    }

    fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
        // The install scopes the simulated device's host fan-out to this
        // backend's driver pool; simulated time is unaffected (the wave
        // scheduler counts work, not host threads).
        self.driver.install(|| self.exec.align_pairs(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::LoganConfig;
    use logan_align::Engine;
    use logan_gpusim::DeviceSpec;
    use logan_seq::readsim::PairSet;
    use logan_seq::Scoring;

    fn pairs(n: usize) -> Vec<ReadPair> {
        PairSet::generate_with_lengths(n, 0.15, 600, 1200, 5).pairs
    }

    #[test]
    fn cpu_and_gpu_backends_agree_through_the_trait() {
        let ps = pairs(10);
        let cpu = XDropCpuAligner::new(2, Scoring::default(), 50, Engine::Scalar);
        let gpu = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50));
        let wrapped = GpuBackend::new(
            LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50)),
            1,
        );
        let backends: [&dyn AlignBackend; 3] = [&cpu, &gpu, &wrapped];
        let (want, _) = backends[0].align_block(&ps);
        for b in backends {
            let (got, rep) = b.align_block(&ps);
            assert_eq!(got, want, "{} must agree", b.name());
            assert_eq!(rep.pairs, ps.len());
            assert_eq!(rep.total_cells, got.iter().map(|r| r.cells()).sum::<u64>());
            assert!(b.throughput_hint() > 0.0);
            assert_eq!(b.lanes(), 1);
        }
    }

    #[test]
    fn gpu_hint_dwarfs_cpu_hint() {
        let cpu = XDropCpuAligner::new(4, Scoring::default(), 50, Engine::Scalar);
        let gpu = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50));
        assert!(gpu.throughput_hint() > 100.0 * cpu.throughput_hint());
        // The hint is the §VI-B compute ceiling, just above the paper's
        // measured 181.6 GCUPS peak.
        assert!(gpu.throughput_hint() > 181.6 && gpu.throughput_hint() < 230.0);
    }

    #[test]
    fn profile_params_survive_boxing() {
        use logan_seq::ScoreProfile;
        let cpu = XDropCpuAligner::new(1, Scoring::default(), 50, Engine::Scalar);
        assert_eq!(cpu.profile_params(), Some((ScoreProfile::default(), 50)));
        // Boxed forwarding preserves a matrix profile too.
        let blosum = XDropCpuAligner::new(1, ScoreProfile::blosum62(-6), 50, Engine::Scalar);
        let boxed: Box<dyn AlignBackend> = Box::new(blosum);
        assert_eq!(
            boxed.profile_params(),
            Some((ScoreProfile::blosum62(-6), 50))
        );
    }

    #[test]
    fn report_gcups_zero_on_empty_batch() {
        // The satellite regression: an empty batch reports 0.0, never
        // NaN or infinity, in both time domains.
        let gpu = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50));
        let (res, rep) = gpu.align_block(&[]);
        assert!(res.is_empty());
        assert_eq!(rep.gcups(), 0.0);
        assert!(rep.gcups().is_finite());
        assert_eq!(BackendReport::empty().gcups(), 0.0);
        let host = BackendReport::from_host(0, 0, 0.0);
        assert_eq!(host.gcups(), 0.0);
    }

    #[test]
    fn sequential_and_concurrent_merges() {
        let mk = |cells, sim, wall| BackendReport {
            pairs: 1,
            blocks: 1,
            total_cells: cells,
            wall_s: wall,
            sim_time_s: sim,
            launches: 2,
            hbm_peak_bytes: cells,
            tiers: logan_align::TierTally {
                scalar: 1,
                lanes16: 2,
                lanes8: 3,
                escalations: 1,
            },
            kernel_reports: Vec::new(),
        };
        let mut seq = mk(100, 1.0, 0.5);
        seq.merge(mk(50, 2.0, 0.25));
        assert_eq!(seq.total_cells, 150);
        assert_eq!(seq.sim_time_s, 3.0);
        assert_eq!(seq.wall_s, 0.75);
        assert_eq!(seq.launches, 4);
        assert_eq!(seq.hbm_peak_bytes, 100);

        let mut conc = mk(100, 1.0, 0.5);
        conc.merge_concurrent(mk(50, 2.0, 0.25));
        assert_eq!(conc.total_cells, 150);
        assert_eq!(conc.sim_time_s, 2.0, "concurrent seconds take the max");
        assert_eq!(conc.wall_s, 0.5);
        assert_eq!(conc.pairs, 2);
        // Tier tallies sum under both merge kinds (counts of work done,
        // like cells — never max'd).
        for rep in [&seq, &conc] {
            assert_eq!(
                rep.tiers,
                logan_align::TierTally {
                    scalar: 2,
                    lanes16: 4,
                    lanes8: 6,
                    escalations: 2,
                }
            );
        }
    }
}
