//! The multi-device scheduler: one [`Fleet`], two schedules.
//!
//! A [`Fleet`] owns one [`AlignBackend`] per worker. Its **dynamic**
//! schedule ([`Fleet::align_pairs`]) drives them from one queue:
//! candidate pairs queue up heaviest-first, and whichever worker is
//! first in *virtual* device time takes the next chunk — weight-quota
//! sized by its share of the fleet's throughput — until the queue
//! drains. It is one event loop on the calling thread, so the schedule
//! is a function of the input alone. A device that lands cheap pairs
//! simply comes back for more; a device stuck on a repeat-heavy block
//! takes nothing else meanwhile. Its **static**
//! schedule ([`Fleet::align_pairs_static`]) is the paper's multi-GPU
//! load balancer (§IV-C, Fig. 7): the host partitions pairs across
//! devices up front, weighted by sequence length (longest-processing-
//! time greedy), and every device runs its whole bin as one block.
//! Devices run concurrently in the model either way, so the simulated
//! makespan is the *maximum* over devices plus a serial host-side setup
//! charge per device — which is what keeps small-X multi-GPU speed-ups
//! modest in Table II. The static schedule pins the published tables; its
//! weakness on skewed BELLA workloads motivates the dynamic one:
//! sequence length predicts X-drop work only loosely, so equal-bases
//! bins can carry wildly unequal cell counts.
//!
//! Which schedule [`AlignBackend::align_block`] uses is fixed by the
//! constructor: [`Fleet::static_gpus`] (CLI `multi:N`) keeps the static
//! one, every other constructor the dynamic one.
//!
//! Both schedules produce **bit-identical results**: every backend is
//! result-deterministic, per-pair results do not depend on batch
//! composition, and the fleet writes each result back to its input slot
//! (order-normalization), so which worker aligned which chunk is
//! unobservable in the output. `tests/backend_equivalence.rs` pins this.
//!
//! The chunk rule is guided self-scheduling on *weight*: worker *w*
//! with rate share `s_w` takes queued pairs while their cumulative
//! bases stay within `remaining_weight × s_w / 4`, clamped to
//! `[min_chunk, max_block(w)]` items. Early chunks are large
//! (amortizing per-block overhead), a heavy pair fills a chunk by
//! itself (a worker never commits to several possible stragglers at
//! once), the tail degrades to `min_chunk` pairs (smoothing the
//! makespan), and faster backends take proportionally bigger bites.
//! Rate shares start from the nameplate [`AlignBackend::throughput_hint`]
//! and switch to each worker's *observed* throughput after a cheap
//! calibration probe, and turns go by virtual device time — see
//! [`Fleet::align_pairs`] for both rules and DESIGN.md §9 for the full
//! argument.

use crate::backend::{AlignBackend, BackendReport, GpuBackend};
use crate::calibration::BALANCER_SETUP_S_PER_GPU;
use crate::executor::{LoganConfig, LoganExecutor};
use crate::faults::{
    catch_align, lock_recover, BackendError, BlockLedger, SupervisePolicy, Supervisor, TraceEvent,
    Verdict,
};
use logan_align::{SeedExtendResult, XDropCpuAligner};
use logan_gpusim::DeviceSpec;
use logan_seq::readsim::ReadPair;
use serde::Serialize;
use std::sync::Mutex;
use std::time::Instant;

/// Guided self-scheduling divisor: each steal is quota-limited to the
/// worker's hint share of a *quarter* of the remaining weight, so the
/// queue drains in geometrically shrinking chunks instead of one bite
/// per worker, and stragglers near the tail are stolen one by one.
const GUIDED_DIVISOR: u64 = 4;

/// What one worker hands back: its merged report, the results it
/// produced tagged with their input slots, and how many chunks it ran.
type WorkerOutput = (BackendReport, Vec<(usize, SeedExtendResult)>, usize);

/// Pair weight for scheduling: total bases, floored at 1 so zero-length
/// pairs still advance the queue (same floor as the static partition).
fn weight(p: &ReadPair) -> usize {
    (p.query.len() + p.target.len()).max(1)
}

/// Longest-processing-time order: indices sorted by weight descending,
/// index ascending — deterministic, shared by both schedules.
fn lpt_order(pairs: &[ReadPair]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weight(&pairs[i])), i));
    order
}

/// Greedy LPT partition of `pairs` into one bin per worker, bins
/// weighted by `hints`: each pair goes to the bin with the smallest
/// *normalized* load `load / hint` (ties to the lowest worker index).
/// Comparisons use exact integer cross-multiplication, so with equal
/// hints this reduces bit-for-bit to the classic unweighted LPT the
/// multi-GPU balancer has always used.
///
/// Each pair weighs `max(bases, 1)`, so whenever `pairs.len() >= n`
/// every bin is non-empty (without the floor a run of zero-length pairs
/// would all land in bin 0, and per-bin `max/min` load ratios would
/// divide by zero); with fewer pairs than bins exactly `pairs.len()`
/// bins are non-empty.
fn lpt_partition(pairs: &[ReadPair], hints: &[f64]) -> Vec<Vec<usize>> {
    let n = hints.len();
    assert!(n >= 1, "need at least one bin");
    // Scale hints to integers (milli-units) for exact comparisons.
    let h: Vec<u128> = hints
        .iter()
        .map(|&x| ((x * 1024.0).round() as u128).max(1))
        .collect();
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut loads = vec![0u128; n];
    for i in lpt_order(pairs) {
        let mut dst = 0usize;
        for g in 1..n {
            // g is better than dst iff load_g / h_g < load_dst / h_dst.
            if loads[g] * h[dst] < loads[dst] * h[g] {
                dst = g;
            }
        }
        loads[dst] += weight(&pairs[i]) as u128;
        bins[dst].push(i);
    }
    debug_assert!(
        pairs.len() < n || bins.iter().all(|b| !b.is_empty()),
        "positive weights must fill every bin"
    );
    bins
}

/// Health knobs for [`Fleet::align_pairs`]'s supervision: the per-worker
/// scoreboard that upgrades one-way panic retirement into quarantine →
/// probation → reinstatement. A failed chunk's own fate is the
/// [`Supervisor`] verdict under [`SupervisePolicy::default`] with no
/// in-place retries. `Copy` so fleet configs stay literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSupervision {
    /// Consecutive errors on one worker before it is quarantined.
    pub quarantine_after: usize,
    /// Virtual device seconds a quarantined worker sits out before its
    /// probation probe (charged to its virtual clock, so its next turn
    /// comes that much later — no wait machinery).
    pub probation_delay_s: f64,
    /// Failed probation probes before a quarantined worker is retired
    /// for good (the PR 5 behavior, now the *last* resort).
    pub max_probe_failures: usize,
    /// Virtual device seconds charged to a worker's clock per failed
    /// attempt, so erroring lanes do not steal at infinite speed.
    pub error_clock_s: f64,
}

impl Default for FleetSupervision {
    fn default() -> FleetSupervision {
        FleetSupervision {
            quarantine_after: 2,
            probation_delay_s: 0.5,
            max_probe_failures: 2,
            error_clock_s: 0.05,
        }
    }
}

/// Report of a fleet run: per-worker detail plus deployment aggregates.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Per-worker reports, in worker order.
    pub per_worker: Vec<BackendReport>,
    /// Pairs each worker aligned (deterministic under both schedules).
    pub assignment_sizes: Vec<usize>,
    /// Chunks each worker stole from the queue.
    pub chunks: Vec<usize>,
    /// Simulated deployment seconds: workers run concurrently, so the
    /// makespan is the slowest worker plus the serial per-worker host
    /// setup charge (same model as the static balancer). Under the
    /// dynamic schedule a worker's time is its virtual clock, fault
    /// charges included.
    pub sim_time_s: f64,
    /// Measured host wall-clock of the whole call, seconds.
    pub wall_s: f64,
    /// Total DP cells across workers.
    pub total_cells: u64,
    /// Failed attempts per worker, in worker order.
    pub errors: Vec<usize>,
    /// Always 0 (the fleet does not hedge); kept so report artifacts
    /// keep their shape.
    pub hedges: usize,
    /// Workers quarantined at least once during the run.
    pub quarantines: usize,
    /// Probation probes that succeeded and reinstated their worker.
    pub reinstatements: usize,
    /// Workers permanently retired during the run, in worker order.
    pub retired: Vec<usize>,
    /// Pairs that failed (poison blocks, or everything left when the
    /// last live worker died) — these come back as `None` from
    /// [`Fleet::align_pairs_outcome`].
    pub poison_pairs: usize,
}

impl FleetReport {
    /// A report of no work on `workers` workers.
    pub(crate) fn empty(workers: usize) -> FleetReport {
        FleetReport {
            per_worker: vec![BackendReport::empty(); workers],
            assignment_sizes: vec![0; workers],
            chunks: vec![0; workers],
            sim_time_s: 0.0,
            wall_s: 0.0,
            total_cells: 0,
            errors: vec![0; workers],
            hedges: 0,
            quarantines: 0,
            reinstatements: 0,
            retired: Vec::new(),
            poison_pairs: 0,
        }
    }

    /// Aggregate GCUPS in the simulated domain; 0.0 when no simulated
    /// time elapsed (empty run or all-host fleet).
    pub fn gcups(&self) -> f64 {
        if self.sim_time_s == 0.0 {
            return 0.0;
        }
        self.total_cells as f64 / self.sim_time_s / 1e9
    }
}

/// A heterogeneous deployment: one worker per backend, all fed from one
/// queue.
pub struct Fleet {
    backends: Vec<Box<dyn AlignBackend>>,
    /// Smallest chunk a worker may steal (≥ 1).
    pub min_chunk: usize,
    /// Serial host seconds charged per worker in the simulated makespan
    /// (the balancer setup charge of paper §IV-C).
    pub setup_s_per_worker: f64,
    /// Health scoreboard / recovery knobs (see [`FleetSupervision`]).
    pub supervision: FleetSupervision,
    /// Supervision trace of the most recent dynamic run, stored once at
    /// its end. The schedule is deterministic, so the same fleet and
    /// pairs replay the same trace byte for byte.
    last_trace: Mutex<Vec<TraceEvent>>,
    /// Whether [`AlignBackend::align_block`] keeps the static schedule
    /// (set by [`Fleet::static_gpus`] only).
    static_schedule: bool,
}

impl Fleet {
    /// Assemble a fleet from backend instances.
    ///
    /// # Panics
    ///
    /// Panics when `backends` is empty — a fleet with zero workers has
    /// no way to make progress, and letting it through would surface
    /// later as a division by zero in chunk sizing.
    pub fn new(backends: Vec<Box<dyn AlignBackend>>) -> Fleet {
        assert!(!backends.is_empty(), "fleet needs at least one backend");
        Fleet {
            backends,
            min_chunk: 1,
            setup_s_per_worker: BALANCER_SETUP_S_PER_GPU,
            supervision: FleetSupervision::default(),
            last_trace: Mutex::new(Vec::new()),
            static_schedule: false,
        }
    }

    /// The supervision trace of the most recent [`Fleet::align_pairs`]
    /// run (empty before the first run).
    pub fn trace(&self) -> Vec<TraceEvent> {
        lock_recover(&self.last_trace).clone()
    }

    /// A homogeneous fleet of `n` simulated GPUs of the given spec, each
    /// driven by an even share of the host's threads.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` (see [`Fleet::new`]) or `n` exceeds
    /// `MAX_FLEET_WORKERS`.
    pub fn homogeneous_gpus(n: usize, spec: DeviceSpec, config: LoganConfig) -> Fleet {
        assert!(n >= 1, "need at least one GPU");
        assert!(
            n <= MAX_FLEET_WORKERS,
            "at most {MAX_FLEET_WORKERS} GPUs per fleet"
        );
        let driver = (crate::backend::host_threads() / n).max(1);
        Fleet::new(
            (0..n)
                .map(|_| {
                    Box::new(GpuBackend::new(
                        LoganExecutor::new(spec.clone(), config),
                        driver,
                    )) as Box<dyn AlignBackend>
                })
                .collect(),
        )
    }

    /// The paper's multi-GPU deployment (§IV-C): [`Fleet::homogeneous_gpus`]
    /// behind the static LPT balancer. As a backend it is named `multi:N`
    /// and [`AlignBackend::align_block`] runs
    /// [`Fleet::align_pairs_static`], so every block pays
    /// `max(device times) + setup · N` — the model the Table II–V
    /// numbers are pinned to. The dynamic schedule stays available on
    /// the same devices through [`Fleet::align_pairs`].
    ///
    /// # Panics
    ///
    /// As [`Fleet::homogeneous_gpus`].
    pub fn static_gpus(n: usize, spec: DeviceSpec, config: LoganConfig) -> Fleet {
        Fleet {
            static_schedule: true,
            ..Fleet::homogeneous_gpus(n, spec, config)
        }
    }

    /// Number of workers.
    pub(crate) fn workers(&self) -> usize {
        self.backends.len()
    }

    /// The static LPT partition this fleet would use in static mode:
    /// bins weighted by each worker's throughput hint.
    pub(crate) fn partition(&self, pairs: &[ReadPair]) -> Vec<Vec<usize>> {
        let hints: Vec<f64> = self.backends.iter().map(|b| b.throughput_hint()).collect();
        lpt_partition(pairs, &hints)
    }

    /// The throughput rate assumed for worker `w` when sizing chunks, in
    /// cells per second: the *observed* rate once the worker has aligned
    /// a chunk (cells per [`BackendReport::device_s`] second, which for
    /// a healthy host-only backend is its hint again), otherwise the
    /// nameplate [`AlignBackend::throughput_hint`]. Nameplate ratios
    /// routinely misstate effective throughput — a latency-bound
    /// workload can run at a fraction of a device's compute ceiling —
    /// and correcting from observation is exactly what a static weight
    /// floor cannot do.
    fn assumed_rate(&self, w: usize, observed: &[Option<f64>]) -> f64 {
        observed[w]
            .unwrap_or_else(|| self.backends[w].throughput_hint() * 1e9)
            .max(f64::MIN_POSITIVE)
    }

    /// How many items worker `w` steals from the heavy end of the queue
    /// (`prefix` weights, live range `[cur, hi)`): items are taken while
    /// their cumulative weight stays within the worker's rate share of
    /// `1/GUIDED_DIVISOR` of the remaining weight — so a heavy pair
    /// fills a chunk by itself while light pairs batch up — clamped to
    /// `[min_chunk, max_block]` items and at least one.
    fn chunk_len(
        &self,
        w: usize,
        prefix: &[u64],
        cur: usize,
        hi: usize,
        observed: &[Option<f64>],
        retired: &[bool],
    ) -> usize {
        debug_assert!(cur < hi && hi < prefix.len());
        // Retired workers take nothing more; their rates must not dilute
        // the shares of the workers still draining the tail.
        let total_rate: f64 = (0..self.backends.len())
            .filter(|&g| !retired[g])
            .map(|g| self.assumed_rate(g, observed))
            .sum();
        let share = self.assumed_rate(w, observed) / total_rate.max(f64::MIN_POSITIVE);
        let remaining_w = prefix[hi] - prefix[cur];
        let quota = (remaining_w as f64 * share / GUIDED_DIVISOR as f64) as u64;
        let budget = prefix[cur] + quota.max(1);
        // Take items while the *next* one still fits the quota.
        let mut take = 1usize;
        while cur + take < hi && prefix[cur + take + 1] <= budget {
            take += 1;
        }
        // A backend's max_block caps the floor too: a fleet-level
        // min_chunk larger than what a backend accepts must not panic
        // the clamp (min > max) — the backend's cap wins.
        let cap = self.backends[w].max_block().max(1);
        take.clamp(self.min_chunk.min(cap), cap).min(hi - cur)
    }

    /// Align `pairs` under the dynamic work-stealing schedule. Results
    /// come back in input order (bit-identical to any other schedule);
    /// the report records which worker did how much.
    ///
    /// The queue is sorted heaviest-first (the list-scheduling order:
    /// potentially expensive pairs are in flight early, light pairs
    /// smooth the tail), and each steal is *weight-quota* limited
    /// (see the module docs): one heavy pair fills a chunk by itself,
    /// so a worker never commits to several possible stragglers at
    /// once, while light pairs batch into efficient blocks. A straggler
    /// therefore delays the makespan by at most its own cost — the
    /// property the static partition loses when pair weight (bases)
    /// misjudges pair cost.
    ///
    /// A worker's first steal is a *calibration probe*: `min_chunk` of
    /// the **lightest** queued pairs, taken from the tail. Once it has
    /// an observed rate (cells per device second), its quota share
    /// switches from the nameplate hint to the observation — so a
    /// device whose effective speed belies its spec sheet (a
    /// latency-bound one) is never handed a nameplate-sized bite of the
    /// expensive head, and stops being overfed after one cheap probe.
    ///
    /// Turns go by **virtual device time**: each worker keeps a clock
    /// summing the [`BackendReport::device_s`] of the chunks it has run
    /// (simulated seconds for device backends, cells at the throughput
    /// hint for host-only ones), and the next chunk goes to the worker
    /// whose clock is least, ties to the lowest index. That is exactly
    /// a real deployment — "whichever device finishes first pulls
    /// next" — run as one event loop on the calling thread: a member
    /// aligns its chunk (with its own internal parallelism) and the
    /// loop applies the outcome before the next turn. Nothing the host
    /// measures feeds the schedule, so the whole [`FleetReport`] but
    /// its wall fields, and [`Fleet::trace`], replay exactly.
    pub fn align_pairs(&self, pairs: &[ReadPair]) -> (Vec<SeedExtendResult>, FleetReport) {
        let (slots, report) = self.align_pairs_outcome(pairs);
        let failed = slots.iter().filter(|s| s.is_none()).count();
        let results = slots
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| {
                    panic!(
                        "fleet failed {failed} of {} pairs (poison blocks or all lanes dead)",
                        pairs.len()
                    )
                })
            })
            .collect();
        (results, report)
    }

    /// [`Fleet::align_pairs`] with partial-failure reporting: every
    /// pair comes back `Some` (bit-identical to any other schedule) or
    /// `None` (its chunk was declared poison after failing on
    /// [`SupervisePolicy::poison_lanes`] distinct workers, or every
    /// worker died first). The report's scoreboard fields say what the
    /// supervision machinery did; [`Fleet::trace`] has the step log.
    ///
    /// Supervision (health knobs under [`Fleet::supervision`]):
    ///
    /// * Worker errors are *values* — each chunk runs through
    ///   [`AlignBackend::try_align_block_on`] behind
    ///   [`crate::faults::catch_align`], and the [`Supervisor`]'s
    ///   verdict on the error either fails the chunk as poison or
    ///   requeues it. A requeued chunk goes, ahead of fresh work, to
    ///   the first worker in virtual time that [`BlockLedger::may_take`]
    ///   admits. The fleet never retries in place: a failed attempt
    ///   costs the worker `error_clock_s` of virtual time instead.
    /// * A worker whose errors hit `quarantine_after` consecutively is
    ///   quarantined: its virtual clock is pushed `probation_delay_s`
    ///   into the future (so its turn comes later), then its next
    ///   chunk is a probation probe (`min_chunk`, like the calibration
    ///   probe). Success reinstates it; `max_probe_failures` failures
    ///   retire it for good — one-way retirement is only the last
    ///   resort.
    /// * Fail-stop errors retire the worker immediately; once no live
    ///   worker is left, whatever is still queued fails explicitly.
    pub fn align_pairs_outcome(
        &self,
        pairs: &[ReadPair],
    ) -> (Vec<Option<SeedExtendResult>>, FleetReport) {
        let start = Instant::now();
        let sup = self.supervision;
        let order = lpt_order(pairs);
        // prefix[j] = total weight of order[..j]; the chunk quota works
        // on remaining weight, not remaining count.
        let mut prefix: Vec<u64> = Vec::with_capacity(order.len() + 1);
        prefix.push(0);
        for &i in &order {
            prefix.push(prefix.last().unwrap() + weight(&pairs[i]) as u64);
        }
        let n = self.backends.len();
        // The unstolen range of `order`: heavy frontier `lo`, light
        // frontier `hi`.
        let (mut lo, mut hi) = (0usize, order.len());
        // Failed spans awaiting re-dispatch, with their fault ledgers.
        let mut requeued: Vec<((usize, usize), BlockLedger)> = Vec::new();
        // Virtual device clock per worker, seconds, and the health
        // scoreboard.
        let mut clock = vec![0.0f64; n];
        let mut observed: Vec<Option<f64>> = vec![None; n];
        let mut quarantined = vec![false; n];
        let mut retired = vec![false; n];
        let mut consecutive = vec![0usize; n];
        let mut probe_failures = vec![0usize; n];
        // No in-place retries, so no jitter is ever drawn.
        let mut supervisor = Supervisor::new(
            Some(SupervisePolicy {
                max_retries: 0,
                ..SupervisePolicy::default()
            }),
            0,
        );
        let mut trace = Vec::new();
        let mut slots: Vec<Option<SeedExtendResult>> = vec![None; pairs.len()];
        let mut fr = FleetReport::empty(n);
        loop {
            let live = |g: usize| !retired[g];
            let redispatch = |w: usize| {
                requeued
                    .iter()
                    .position(|(_, ledger)| ledger.may_take(w, n, live))
            };
            // The turn goes to the live worker first in virtual time
            // (ties to the lowest index) that may take something.
            let Some(w) = (0..n)
                .filter(|&g| live(g) && (lo < hi || redispatch(g).is_some()))
                .min_by(|&a, &b| clock[a].total_cmp(&clock[b]))
            else {
                break;
            };
            // Requeued spans first; then calibration and probation
            // probes take `min_chunk` off the light tail (a cheap,
            // makespan-safe test drive); else a quota-sized chunk off
            // the heavy head.
            let (span, mut ledger) = if let Some(i) = redispatch(w) {
                let (span, ledger) = requeued.remove(i);
                trace.push(TraceEvent::Redispatch {
                    block: span.0 as u64,
                    from: ledger.last_failed().unwrap_or(w),
                    to: w,
                });
                (span, ledger)
            } else if observed[w].is_none() || quarantined[w] {
                let take = self.min_chunk.max(1).min(hi - lo);
                hi -= take;
                ((hi, hi + take), BlockLedger::default())
            } else {
                let take = self.chunk_len(w, &prefix, lo, hi, &observed, &retired);
                lo += take;
                ((lo - take, lo), BlockLedger::default())
            };
            if quarantined[w] {
                trace.push(TraceEvent::Probation { lane: w });
            }
            let idxs = &order[span.0..span.1];
            let block: Vec<ReadPair> = idxs.iter().map(|&i| pairs[i].clone()).collect();
            let backend = &*self.backends[w];
            // The supervision boundary: panics become values here,
            // injected faults arrive as values already. Every member
            // is driven as one lane.
            match catch_align(|| backend.try_align_block_on(0, &block)).and_then(|inner| inner) {
                Ok((results, rep)) => {
                    let hint = backend.throughput_hint();
                    clock[w] += rep.device_s(hint);
                    consecutive[w] = 0;
                    if quarantined[w] {
                        quarantined[w] = false;
                        probe_failures[w] = 0;
                        fr.reinstatements += 1;
                        trace.push(TraceEvent::Reinstated { lane: w });
                    }
                    fr.assignment_sizes[w] += idxs.len();
                    fr.chunks[w] += 1;
                    let done = &mut fr.per_worker[w];
                    done.merge(rep);
                    // The observed lifetime rate sizes its next quotas.
                    let busy_s = done.device_s(hint);
                    if done.total_cells > 0 && busy_s > 0.0 {
                        observed[w] = Some(done.total_cells as f64 / busy_s);
                    }
                    for (&i, r) in idxs.iter().zip(results) {
                        slots[i] = Some(r);
                    }
                }
                Err(e) => {
                    clock[w] += sup.error_clock_s;
                    fr.errors[w] += 1;
                    consecutive[w] += 1;
                    trace.push(TraceEvent::Fault {
                        lane: w,
                        block: span.0 as u64,
                        kind: e.kind(),
                    });
                    let verdict = supervisor.verdict(&mut ledger, w, &e);
                    trace.extend(verdict.event(w, span.0 as u64));
                    match verdict {
                        // `Retry` cannot occur: no in-place retries.
                        Verdict::Move | Verdict::Retry { .. } => requeued.push((span, ledger)),
                        Verdict::Poison { .. } | Verdict::Fail => {
                            fr.poison_pairs += span.1 - span.0;
                        }
                    }
                    // Health scoreboard: fail-stop retires at once;
                    // repeat offenders go quarantine → probation →
                    // reinstated-or-retired.
                    if e.retires_lane() {
                        retired[w] = true;
                        trace.push(TraceEvent::LaneDead { lane: w });
                    } else if quarantined[w] {
                        probe_failures[w] += 1;
                        if probe_failures[w] >= sup.max_probe_failures {
                            retired[w] = true;
                            trace.push(TraceEvent::LaneDead { lane: w });
                        } else {
                            clock[w] += sup.probation_delay_s;
                        }
                    } else if consecutive[w] >= sup.quarantine_after {
                        quarantined[w] = true;
                        fr.quarantines += 1;
                        clock[w] += sup.probation_delay_s;
                        trace.push(TraceEvent::Quarantined { lane: w });
                    }
                }
            }
        }
        // No live worker is left to take what is still queued: it fails.
        fr.poison_pairs += hi - lo + requeued.iter().map(|(s, _)| s.1 - s.0).sum::<usize>();
        fr.total_cells = fr.per_worker.iter().map(|r| r.total_cells).sum();
        fr.sim_time_s =
            clock.iter().fold(0.0f64, |a, &b| a.max(b)) + self.setup_s_per_worker * n as f64;
        fr.wall_s = start.elapsed().as_secs_f64();
        fr.retired = (0..n).filter(|&g| retired[g]).collect();
        *lock_recover(&self.last_trace) = trace;
        (slots, fr)
    }

    /// Align `pairs` under the static LPT partition — the reference
    /// schedule (the paper's balancer): each worker gets its whole bin
    /// up front as one block. Workers still run concurrently, so
    /// wall-clock comparisons against [`Fleet::align_pairs`] isolate the
    /// *scheduling* policy.
    pub fn align_pairs_static(&self, pairs: &[ReadPair]) -> (Vec<SeedExtendResult>, FleetReport) {
        let start = Instant::now();
        let bins = self.partition(pairs);
        let worker_out = self.run_workers(|w, backend| {
            let bin = &bins[w];
            let block: Vec<ReadPair> = bin.iter().map(|&i| pairs[i].clone()).collect();
            let (results, rep) = backend.align_block(&block);
            let placed: Vec<(usize, SeedExtendResult)> = bin.iter().copied().zip(results).collect();
            (rep, placed, 1)
        });
        let (slots, report) = self.assemble(pairs.len(), worker_out, start);
        let results = slots
            .into_iter()
            .map(|s| s.expect("static schedule aligned every pair"))
            .collect();
        (results, report)
    }

    /// Run `work(worker_index, backend)` on one scoped thread per
    /// backend, collecting outputs in worker order.
    fn run_workers<F>(&self, work: F) -> Vec<WorkerOutput>
    where
        F: Fn(usize, &dyn AlignBackend) -> WorkerOutput + Sync,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .backends
                .iter()
                .enumerate()
                .map(|(w, b)| {
                    let work = &work;
                    scope.spawn(move || work(w, &**b))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked"))
                .collect()
        })
    }

    /// Order-normalize per-worker outputs into input-order slots (a
    /// slot stays `None` when its pair failed) and a deployment report;
    /// the caller fills in the scoreboard fields.
    fn assemble(
        &self,
        n_pairs: usize,
        worker_out: Vec<WorkerOutput>,
        start: Instant,
    ) -> (Vec<Option<SeedExtendResult>>, FleetReport) {
        let mut slots: Vec<Option<SeedExtendResult>> = vec![None; n_pairs];
        let mut per_worker = Vec::with_capacity(worker_out.len());
        let mut assignment_sizes = Vec::with_capacity(worker_out.len());
        let mut chunk_counts = Vec::with_capacity(worker_out.len());
        let mut max_sim = 0.0f64;
        let mut total_cells = 0u64;
        for (report, placed, chunks) in worker_out {
            assignment_sizes.push(placed.len());
            chunk_counts.push(chunks);
            max_sim = max_sim.max(report.sim_time_s);
            total_cells += report.total_cells;
            for (i, r) in placed {
                debug_assert!(slots[i].is_none(), "pair {i} aligned twice");
                slots[i] = Some(r);
            }
            per_worker.push(report);
        }
        let sim_time_s = max_sim + self.setup_s_per_worker * self.backends.len() as f64;
        (
            slots,
            FleetReport {
                per_worker,
                assignment_sizes,
                chunks: chunk_counts,
                sim_time_s,
                wall_s: start.elapsed().as_secs_f64(),
                total_cells,
                errors: vec![0; self.backends.len()],
                hedges: 0,
                quarantines: 0,
                reinstatements: 0,
                retired: Vec::new(),
                poison_pairs: 0,
            },
        )
    }

    /// Collapse a [`FleetReport`] into the single-block
    /// [`BackendReport`] shape the [`AlignBackend`] impl returns:
    /// workers ran concurrently, and the simulated time is the
    /// makespan-plus-setup, not the per-worker max.
    fn block_report(&self, fr: FleetReport) -> BackendReport {
        let mut merged = BackendReport::empty();
        let (sim_time_s, wall_s) = (fr.sim_time_s, fr.wall_s);
        for rep in fr.per_worker {
            merged.merge_concurrent(rep);
        }
        merged.blocks = 1; // one align_block call, however many chunks inside
        merged.sim_time_s = sim_time_s;
        merged.wall_s = wall_s;
        merged
    }
}

impl AlignBackend for Fleet {
    fn name(&self) -> String {
        if self.static_schedule {
            return format!("multi:{}", self.workers());
        }
        let members: Vec<String> = self.backends.iter().map(|b| b.name()).collect();
        format!("fleet({})", members.join("+"))
    }

    fn throughput_hint(&self) -> f64 {
        self.backends.iter().map(|b| b.throughput_hint()).sum()
    }

    fn max_block(&self) -> usize {
        usize::MAX
    }

    fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
        let (results, fr) = if self.static_schedule {
            self.align_pairs_static(block)
        } else {
            self.align_pairs(block)
        };
        (results, self.block_report(fr))
    }

    fn try_align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> Result<(Vec<SeedExtendResult>, BackendReport), BackendError> {
        self.backends[lane].try_align_block_on(0, block)
    }

    /// The fleet's score profile and X when every member agrees (the
    /// only configuration the differential guarantees cover); `None` as
    /// soon as members disagree, which the BELLA pipeline rejects.
    fn profile_params(&self) -> Option<(logan_seq::ScoreProfile, i32)> {
        let mut params = None;
        for b in &self.backends {
            match (params, b.profile_params()) {
                (_, None) => return None,
                (None, got) => params = got,
                (Some(p), Some(got)) if p == got => {}
                _ => return None,
            }
        }
        params
    }

    /// One lane per fleet member: a streaming producer can feed every
    /// worker's queue slot concurrently instead of serializing behind a
    /// single consumer.
    fn lanes(&self) -> usize {
        self.backends.len()
    }

    fn align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> (Vec<SeedExtendResult>, BackendReport) {
        self.backends[lane].align_block(block)
    }

    /// Each lane is one member, so its hint is that member's — a CPU
    /// lane must not be charged at the fleet's aggregate rate.
    fn throughput_hint_on(&self, lane: usize) -> f64 {
        self.backends[lane].throughput_hint()
    }
}

/// Most workers one fleet may have — `fleet:SPEC` counts summed,
/// `multi:N`, `--gpus N`. Every worker is a backend (a simulated device
/// with its driver pool, or a CPU pool), so a count read from a command
/// line is bounded before anything is built; the paper's largest
/// deployment has 8 devices.
pub(crate) const MAX_FLEET_WORKERS: usize = 64;

/// Most threads one CPU pool (`cpu:T`) may have: the pool spawns up to
/// one scoped thread per unit on every block (the paper's largest CPU
/// run uses 168).
pub(crate) const MAX_POOL_THREADS: usize = 1024;

/// `n` if it is a valid fleet worker count, else an error naming
/// `MAX_FLEET_WORKERS`.
pub fn check_workers(n: usize) -> Result<usize, String> {
    if (1..=MAX_FLEET_WORKERS).contains(&n) {
        Ok(n)
    } else {
        Err(format!(
            "worker count must be between 1 and {MAX_FLEET_WORKERS}, got {n}"
        ))
    }
}

/// `threads` if it is a valid CPU pool width, else an error naming
/// `MAX_POOL_THREADS`.
pub fn check_pool_threads(threads: usize) -> Result<usize, String> {
    if (1..=MAX_POOL_THREADS).contains(&threads) {
        Ok(threads)
    } else {
        Err(format!(
            "pool threads must be between 1 and {MAX_POOL_THREADS}, got {threads}"
        ))
    }
}

/// One worker of a parsed [`FleetSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetWorker {
    /// A simulated GPU.
    Gpu,
    /// A CPU pool with this many threads.
    Cpu {
        /// Worker threads of the pool.
        threads: usize,
    },
}

/// A textual fleet description, e.g. `2gpu+cpu` or `gpu+2cpu:4`:
/// `+`-separated terms, each `[count]gpu` or `[count]cpu[:threads]`
/// (count defaults to 1; CPU threads default to the machine width;
/// counts are bounded by `MAX_FLEET_WORKERS` in total and threads by
/// `MAX_POOL_THREADS`). This is what `logan_cli --backend fleet:SPEC`
/// parses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// The workers, in declaration order.
    pub workers: Vec<FleetWorker>,
}

impl std::str::FromStr for FleetSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<FleetSpec, String> {
        let mut workers = Vec::new();
        for term in s.split('+') {
            let term = term.trim();
            let split = term
                .find(|c: char| !c.is_ascii_digit())
                .ok_or_else(|| format!("fleet term {term:?}: missing backend kind"))?;
            let count: usize = if split == 0 {
                1
            } else {
                term[..split]
                    .parse()
                    .map_err(|e| format!("fleet term {term:?}: {e}"))?
            };
            // Checked before anything is allocated for the count; the
            // second check bounds the running total (no overflow: both
            // addends are at most the limit).
            check_workers(count)
                .and_then(|count| check_workers(workers.len() + count))
                .map_err(|e| format!("fleet term {term:?}: {e}"))?;
            let (kind, threads) = match term[split..].split_once(':') {
                Some((kind, t)) => (
                    kind,
                    Some(
                        t.parse::<usize>()
                            .map_err(|e| format!("fleet term {term:?}: threads: {e}"))?,
                    ),
                ),
                None => (&term[split..], None),
            };
            let worker = match kind {
                "gpu" => {
                    if threads.is_some() {
                        return Err(format!("fleet term {term:?}: gpu takes no :threads"));
                    }
                    FleetWorker::Gpu
                }
                "cpu" => FleetWorker::Cpu {
                    threads: match threads {
                        Some(t) => check_pool_threads(t)
                            .map_err(|e| format!("fleet term {term:?}: {e}"))?,
                        None => crate::backend::host_threads(),
                    },
                },
                other => return Err(format!("unknown fleet backend {other:?} in {term:?}")),
            };
            workers.extend(std::iter::repeat_n(worker, count));
        }
        if workers.is_empty() {
            return Err("empty fleet spec".into());
        }
        Ok(FleetSpec { workers })
    }
}

impl FleetSpec {
    /// Instantiate the fleet: GPUs get the given device spec and LOGAN
    /// config (and an even share of host driver threads); CPU workers
    /// align with the config's scoring, X and engine.
    pub fn build(&self, device: DeviceSpec, config: LoganConfig) -> Fleet {
        let gpus = self
            .workers
            .iter()
            .filter(|w| matches!(w, FleetWorker::Gpu))
            .count();
        let driver = (crate::backend::host_threads() / gpus.max(1)).max(1);
        Fleet::new(
            self.workers
                .iter()
                .map(|w| match *w {
                    FleetWorker::Gpu => Box::new(GpuBackend::new(
                        LoganExecutor::new(device.clone(), config),
                        driver,
                    )) as Box<dyn AlignBackend>,
                    FleetWorker::Cpu { threads } => Box::new(XDropCpuAligner::new(
                        threads,
                        config.profile,
                        config.x,
                        config.engine,
                    )) as Box<dyn AlignBackend>,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_align::Engine;
    use logan_seq::readsim::PairSet;
    use logan_seq::Scoring;

    fn pairs(n: usize) -> Vec<ReadPair> {
        PairSet::generate_with_lengths(n, 0.15, 700, 1800, 11).pairs
    }

    fn mixed_fleet(x: i32) -> Fleet {
        let cfg = LoganConfig::with_x(x);
        Fleet::new(vec![
            Box::new(GpuBackend::new(
                LoganExecutor::new(DeviceSpec::v100(), cfg),
                1,
            )),
            Box::new(GpuBackend::new(
                LoganExecutor::new(DeviceSpec::v100(), cfg),
                1,
            )),
            Box::new(XDropCpuAligner::new(
                2,
                Scoring::default(),
                x,
                Engine::Scalar,
            )),
        ])
    }

    #[test]
    fn dynamic_equals_static_equals_reference() {
        let ps = pairs(40);
        let fleet = mixed_fleet(50);
        let reference = XDropCpuAligner::new(1, Scoring::default(), 50, Engine::Scalar);
        let (want, _) = reference.align_block(&ps);
        let (dynamic, dr) = fleet.align_pairs(&ps);
        let (stat, sr) = fleet.align_pairs_static(&ps);
        assert_eq!(dynamic, want, "dynamic schedule must not change results");
        assert_eq!(stat, want, "static schedule must not change results");
        assert_eq!(dr.assignment_sizes.iter().sum::<usize>(), ps.len());
        assert_eq!(sr.assignment_sizes.iter().sum::<usize>(), ps.len());
        assert_eq!(dr.total_cells, sr.total_cells);
        assert!(dr.chunks.iter().sum::<usize>() >= fleet.workers());
    }

    /// A GPU-only fleet of `DeviceSpec::tiny` devices; the second half
    /// of a mixed fleet is an older generation whose nameplate (clock ×
    /// cores) overstates its throughput on latency-bound X-drop work,
    /// because one resident block per SM cannot fill a pipeline that
    /// needs many warps in flight. No setup charge, so makespans
    /// isolate the schedule.
    fn scaling_fleet(n: usize, mixed: bool) -> Fleet {
        let oldgen = || {
            let mut s = DeviceSpec::tiny();
            s.clock_ghz = 1.4;
            s.max_blocks_per_sm = 1;
            s.max_threads_per_sm = 256;
            s.warps_to_saturate_sm = 24;
            s
        };
        let mut cfg = LoganConfig::with_x(100);
        cfg.engine = Engine::Scalar;
        let mut fleet = Fleet::new(
            (0..n)
                .map(|i| {
                    let spec = if mixed && i >= n / 2 {
                        oldgen()
                    } else {
                        DeviceSpec::tiny()
                    };
                    Box::new(GpuBackend::new(LoganExecutor::new(spec, cfg), 1))
                        as Box<dyn AlignBackend>
                })
                .collect(),
        );
        fleet.setup_s_per_worker = 0.0;
        fleet.min_chunk = 1;
        fleet
    }

    /// The dynamic schedule on device-only fleets, pinned: which worker
    /// ran how many pairs in how many chunks, and every device clock to
    /// the bit. The values were recorded from the threaded scheduler,
    /// whose virtual-time gate already fixed the order on such fleets.
    #[test]
    fn dynamic_schedule_on_gpu_fleets_is_pinned() {
        let ps = PairSet::generate_with_lengths(32, 0.15, 200, 1600, 5).pairs;
        for (mixed, sizes, chunks, clocks) in [
            (
                false,
                vec![18usize, 14],
                vec![14usize, 14],
                vec![4578124449793391745u64, 4578127198070028349],
            ),
            (
                true,
                vec![26, 6],
                vec![17, 6],
                vec![4580324993166940370, 4580471815888230374],
            ),
        ] {
            let (_, r) = scaling_fleet(2, mixed).align_pairs(&ps);
            let got: Vec<u64> = r
                .per_worker
                .iter()
                .map(|w| w.sim_time_s.to_bits())
                .collect();
            assert_eq!(r.assignment_sizes, sizes, "mixed={mixed}");
            assert_eq!(r.chunks, chunks, "mixed={mixed}");
            assert_eq!(got, clocks, "mixed={mixed}");
        }
    }

    /// The scheduling claim on the simulated clock. Where nameplate
    /// hints overstate the old generation, the hint-weighted static
    /// partition overfeeds it and probe-then-observe stealing corrects
    /// after one chunk; on identical devices the static split is
    /// already near-optimal and stealing must cost next to nothing.
    /// `min_chunk = 8`: smaller tail chunks leave the simulated SMs idle.
    #[test]
    fn dynamic_schedule_beats_static_where_hints_lie() {
        let ps = PairSet::generate_with_lengths(32, 0.15, 200, 1600, 5).pairs;
        for (mixed, floor) in [(true, 1.2), (false, 0.8)] {
            let mut fleet = scaling_fleet(2, mixed);
            fleet.min_chunk = 8;
            let (stat, sr) = fleet.align_pairs_static(&ps);
            let (dynamic, dr) = fleet.align_pairs(&ps);
            assert_eq!(stat, dynamic, "mixed={mixed}");
            let ratio = sr.sim_time_s / dr.sim_time_s;
            assert!(ratio >= floor, "mixed={mixed}: static/dynamic {ratio}");
        }
    }

    #[test]
    fn heterogeneous_chunks_follow_hints() {
        let fleet = mixed_fleet(30);
        // 1000 queued pairs of uniform weight 10.
        let prefix: Vec<u64> = (0..=1000u64).map(|i| i * 10).collect();
        // The GPU hint dwarfs the CPU hint, so at the same frontier the
        // GPU steals a strictly larger chunk.
        let fresh = vec![None; 3];
        let live = vec![false; 3];
        let gpu_chunk = fleet.chunk_len(0, &prefix, 0, 1000, &fresh, &live);
        let cpu_chunk = fleet.chunk_len(2, &prefix, 0, 1000, &fresh, &live);
        assert!(
            gpu_chunk > 50 * cpu_chunk.max(1),
            "{gpu_chunk} vs {cpu_chunk}"
        );
        // A heavy head pair fills a chunk by itself: quota-limited
        // stealing never commits a worker to two possible stragglers.
        let mut skewed = vec![0u64, 500_000];
        for i in 1..=100u64 {
            skewed.push(500_000 + i * 10);
        }
        assert_eq!(fleet.chunk_len(0, &skewed, 0, 101, &fresh, &live), 1);
        // And every chunk respects the floor and the remaining count.
        let two = vec![0u64, 10, 20];
        assert_eq!(fleet.chunk_len(2, &two, 1, 2, &fresh, &live), 1);
        assert!(fleet.chunk_len(0, &two, 0, 2, &fresh, &live) <= 2);
        // An observed rate overrides the nameplate hint: once the CPU
        // has demonstrated 10x the GPU's measured rate, it steals the
        // bigger chunk.
        let observed = vec![Some(1e8), Some(1e8), Some(1e9)];
        assert!(
            fleet.chunk_len(2, &prefix, 0, 1000, &observed, &live)
                > fleet.chunk_len(0, &prefix, 0, 1000, &observed, &live)
        );
    }

    #[test]
    fn empty_input_and_empty_report() {
        let fleet = mixed_fleet(30);
        let (res, rep) = fleet.align_pairs(&[]);
        assert!(res.is_empty());
        assert_eq!(rep.total_cells, 0);
        assert_eq!(rep.gcups(), 0.0, "empty run reports 0.0, not NaN");
        assert_eq!(rep.assignment_sizes, vec![0, 0, 0]);
        assert_eq!(FleetReport::empty(3).gcups(), 0.0);
    }

    #[test]
    fn weighted_partition_reduces_to_classic_lpt_when_equal() {
        let ps = pairs(30);
        let equal = lpt_partition(&ps, &[1.0, 1.0, 1.0]);
        // Replicate the classic integer LPT by hand.
        let mut order: Vec<usize> = (0..ps.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(weight(&ps[i])), i));
        let mut bins: Vec<Vec<usize>> = vec![Vec::new(); 3];
        let mut loads = [0usize; 3];
        for i in order {
            let dst = (0..3).min_by_key(|&g| (loads[g], g)).unwrap();
            loads[dst] += weight(&ps[i]);
            bins[dst].push(i);
        }
        assert_eq!(equal, bins);
    }

    #[test]
    fn weighted_partition_respects_hints() {
        let ps = pairs(60);
        let bins = lpt_partition(&ps, &[3.0, 1.0]);
        let load = |b: &Vec<usize>| -> usize { b.iter().map(|&i| weight(&ps[i])).sum() };
        let (l0, l1) = (load(&bins[0]), load(&bins[1]));
        // The 3× worker should carry roughly 3× the bases.
        let ratio = l0 as f64 / l1 as f64;
        assert!((2.0..4.5).contains(&ratio), "{ratio}");
    }

    #[test]
    fn fleet_is_itself_a_backend_with_lanes() {
        let ps = pairs(12);
        let fleet = mixed_fleet(50);
        let backend: &dyn AlignBackend = &fleet;
        assert_eq!(backend.lanes(), 3);
        let (whole, rep) = backend.align_block(&ps);
        let reference = XDropCpuAligner::new(1, Scoring::default(), 50, Engine::Scalar);
        let (want, _) = reference.align_block(&ps);
        assert_eq!(whole, want);
        assert_eq!(rep.pairs, ps.len());
        for lane in 0..backend.lanes() {
            let (got, _) = backend.align_block_on(lane, &ps);
            assert_eq!(got, want, "lane {lane} must agree");
        }
        assert!(backend.name().starts_with("fleet("));
    }

    #[test]
    fn fleet_spec_parses_and_builds() {
        let spec: FleetSpec = "2gpu+cpu:3".parse().unwrap();
        assert_eq!(
            spec.workers,
            vec![
                FleetWorker::Gpu,
                FleetWorker::Gpu,
                FleetWorker::Cpu { threads: 3 }
            ]
        );
        let fleet = spec.build(DeviceSpec::v100(), LoganConfig::with_x(20));
        assert_eq!(fleet.workers(), 3);
        assert!(fleet.backends[0].name().starts_with("gpu:"));
        assert!(fleet.backends[2].name().starts_with("cpu:3"));

        assert!("".parse::<FleetSpec>().is_err());
        assert!("2tpu".parse::<FleetSpec>().is_err());
        assert!("0gpu".parse::<FleetSpec>().is_err());
        assert!("gpu:4".parse::<FleetSpec>().is_err());
        assert!("cpu:x".parse::<FleetSpec>().is_err());
        assert!("2gpu+cpu:0".parse::<FleetSpec>().is_err());
        let bare: FleetSpec = "gpu".parse().unwrap();
        assert_eq!(bare.workers, vec![FleetWorker::Gpu]);
    }

    /// A backend that panics on its `n`th block (0-based).
    struct PanicOnBlock {
        fail_at: std::sync::atomic::AtomicUsize,
        inner: XDropCpuAligner,
    }

    impl AlignBackend for PanicOnBlock {
        fn name(&self) -> String {
            "panic-backend".into()
        }
        fn throughput_hint(&self) -> f64 {
            1.0
        }
        fn max_block(&self) -> usize {
            usize::MAX
        }
        fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
            use std::sync::atomic::Ordering;
            if self.fail_at.fetch_sub(1, Ordering::SeqCst) == 0 {
                panic!("injected backend failure");
            }
            self.inner.align_block(block)
        }
    }

    /// A backend that panics on every block.
    struct AlwaysPanic;

    impl AlignBackend for AlwaysPanic {
        fn name(&self) -> String {
            "always-panic".into()
        }
        fn throughput_hint(&self) -> f64 {
            1.0
        }
        fn max_block(&self) -> usize {
            usize::MAX
        }
        fn align_block(&self, _block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
            panic!("injected permanent failure");
        }
    }

    #[test]
    fn worker_panic_is_contained_and_work_completes() {
        // PR 5 turned a worker panic from a process hang into an
        // unwind; supervision turns it into a requeued chunk — the
        // fleet completes every pair on the surviving attempts and the
        // scoreboard records the fault.
        let ps = pairs(30);
        let reference = XDropCpuAligner::new(1, Scoring::default(), 30, Engine::Scalar);
        let (want, _) = reference.align_block(&ps);
        for fail_at in [0usize, 2] {
            let fleet = Fleet::new(vec![
                Box::new(PanicOnBlock {
                    fail_at: std::sync::atomic::AtomicUsize::new(fail_at),
                    inner: XDropCpuAligner::new(1, Scoring::default(), 30, Engine::Scalar),
                }),
                Box::new(XDropCpuAligner::new(
                    1,
                    Scoring::default(),
                    30,
                    Engine::Scalar,
                )),
            ]);
            let (results, rep) = fleet.align_pairs(&ps);
            assert_eq!(results, want, "fail_at={fail_at}");
            assert_eq!(rep.errors.iter().sum::<usize>(), 1, "fail_at={fail_at}");
            assert_eq!(rep.poison_pairs, 0);
            assert!(fleet
                .trace()
                .iter()
                .any(|e| matches!(e, TraceEvent::Fault { kind: "panic", .. })));
        }
    }

    #[test]
    fn always_failing_worker_is_quarantined_then_retired() {
        let ps = pairs(30);
        let mut fleet = Fleet::new(vec![
            Box::new(AlwaysPanic),
            Box::new(XDropCpuAligner::new(
                1,
                Scoring::default(),
                30,
                Engine::Scalar,
            )),
        ]);
        // Zero delays so the whole quarantine → probation → retired
        // arc fits inside one short run: with the default probation
        // delay the healthy worker drains the queue long before the
        // sick one's virtual clock readmits it (which is the point of
        // the delay, but not of this test).
        fleet.supervision.probation_delay_s = 0.0;
        fleet.supervision.error_clock_s = 0.0;
        let reference = XDropCpuAligner::new(1, Scoring::default(), 30, Engine::Scalar);
        let (want, _) = reference.align_block(&ps);
        let (results, rep) = fleet.align_pairs(&ps);
        assert_eq!(results, want, "healthy worker absorbs the requeues");
        assert!(rep.errors[0] >= 2, "{:?}", rep.errors);
        assert_eq!(rep.quarantines, 1);
        assert_eq!(rep.reinstatements, 0);
        assert_eq!(rep.retired, vec![0], "probation must not resurrect it");
        let trace = fleet.trace();
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Quarantined { lane: 0 })));
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::LaneDead { lane: 0 })));
    }

    /// A stall injected into a host-only member's report is charged on
    /// top of the chunk's own work, not in place of it.
    #[test]
    fn a_stalled_host_member_is_charged_its_work_and_the_stall() {
        use crate::backend::CPU_THREAD_GCUPS_HINT;
        use crate::faults::{ChaosBackend, Fault, FaultPlan};
        let cpu = || XDropCpuAligner::new(1, Scoring::default(), 30, Engine::Scalar);
        let stall_s = 1.0;
        let mut fleet = Fleet::new(vec![
            Box::new(ChaosBackend::new(
                Box::new(cpu()),
                FaultPlan::new(3).with_fault(0, Fault::Stall { sim_secs: stall_s }),
            )),
            Box::new(cpu()),
        ]);
        fleet.setup_s_per_worker = 0.0;
        let (_, rep) = fleet.align_pairs(&pairs(12));
        // The stall puts the first member so far behind that it runs
        // its probe only, and its clock is the makespan.
        let stalled = &rep.per_worker[0];
        assert_eq!(rep.chunks[0], 1);
        assert!(stalled.total_cells > 0);
        let work_s = stalled.total_cells as f64 / (CPU_THREAD_GCUPS_HINT * 1e9);
        assert_eq!(rep.sim_time_s, work_s + stall_s);
    }

    #[test]
    fn all_workers_dead_fails_work_not_process() {
        let ps = pairs(12);
        let fleet = Fleet::new(vec![Box::new(AlwaysPanic), Box::new(AlwaysPanic)]);
        let (slots, rep) = fleet.align_pairs_outcome(&ps);
        assert!(slots.iter().all(Option::is_none));
        assert_eq!(rep.poison_pairs, ps.len());
        assert_eq!(rep.retired, vec![0, 1]);
        // The infallible path panics instead of hanging.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fleet.align_pairs(&ps)));
        assert!(outcome.is_err());
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn empty_fleet_rejected() {
        let _ = Fleet::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpu_fleet_rejected() {
        let _ = Fleet::homogeneous_gpus(0, DeviceSpec::v100(), LoganConfig::with_x(10));
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpu_static_fleet_rejected() {
        let _ = Fleet::static_gpus(0, DeviceSpec::v100(), LoganConfig::with_x(10));
    }

    // --- The static deployment (`Fleet::static_gpus`, paper §IV-C). ---

    fn static_fleet(n: usize, x: i32) -> Fleet {
        Fleet::static_gpus(n, DeviceSpec::v100(), LoganConfig::with_x(x))
    }

    fn empty_pair() -> ReadPair {
        use logan_seq::{Seed, Seq};
        ReadPair {
            query: Seq::new(),
            target: Seq::new(),
            seed: Seed {
                qpos: 0,
                tpos: 0,
                len: 0,
            },
            template_len: 0,
        }
    }

    #[test]
    fn static_gpus_is_a_backend_named_multi() {
        let ps = pairs(10);
        let multi = static_fleet(3, 50);
        let backend: &dyn AlignBackend = &multi;
        assert_eq!(backend.lanes(), 3);
        assert_eq!(backend.name(), "multi:3");
        let single = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50));
        let (want, _) = single.align_pairs(&ps);
        let (got, rep) = backend.align_block(&ps);
        assert_eq!(got, want, "distribution must not change results");
        assert_eq!(rep.pairs, ps.len());
        assert_eq!(rep.blocks, 1, "one call is one block, whatever the fan-out");
        // align_block keeps the static schedule: the block's simulated
        // time is the static report's max + setup · devices, exactly.
        let (_, fr) = multi.align_pairs_static(&ps);
        assert_eq!(rep.sim_time_s, fr.sim_time_s);
        assert_eq!(rep.total_cells, fr.total_cells);
        assert_eq!(rep.launches, 2 * 3, "one bin per device, two streams each");
        let (lane_res, _) = backend.align_block_on(1, &ps);
        assert_eq!(lane_res, want);
        let (tried, _) = backend.try_align_block_on(2, &ps).expect("a healthy lane");
        assert_eq!(tried, want);
    }

    #[test]
    fn static_partition_balances_bases() {
        let ps = pairs(40);
        let bins = static_fleet(4, 50).partition(&ps);
        let loads: Vec<usize> = bins
            .iter()
            .map(|b| b.iter().map(|&i| weight(&ps[i])).sum())
            .collect();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(max / min < 1.3, "LPT should balance within 30%: {loads:?}");
    }

    #[test]
    fn static_partition_is_deterministic() {
        let ps = pairs(30);
        let multi = static_fleet(3, 50);
        assert_eq!(multi.partition(&ps), multi.partition(&ps));
    }

    #[test]
    fn static_kernel_time_shrinks_with_gpus_but_overhead_grows() {
        let ps = pairs(64);
        let (_, r1) = static_fleet(1, 200).align_pairs_static(&ps);
        let (_, r6) = static_fleet(6, 200).align_pairs_static(&ps);
        // Per-device kernel time must shrink...
        let k1 = r1.per_worker[0].sim_time_s;
        let k6 = r6
            .per_worker
            .iter()
            .map(|r| r.sim_time_s)
            .fold(0.0f64, f64::max);
        assert!(k6 < k1, "{k6} !< {k1}");
        // ...but total time carries 6 setup charges.
        assert!(r6.sim_time_s > 6.0 * BALANCER_SETUP_S_PER_GPU);
        assert!((r1.sim_time_s - (k1 + BALANCER_SETUP_S_PER_GPU)).abs() < 1e-9);
    }

    #[test]
    fn static_fewer_pairs_than_gpus_leaves_trailing_bins_empty_but_works() {
        let ps = pairs(3);
        let multi = static_fleet(6, 50);
        let bins = multi.partition(&ps);
        assert_eq!(bins.iter().filter(|b| !b.is_empty()).count(), 3);
        assert_eq!(bins.iter().map(|b| b.len()).sum::<usize>(), 3);
        // Alignment across empty bins must still reproduce single-GPU
        // results — an empty bin is an empty batch, not an error.
        let single = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(50));
        let (want, _) = single.align_pairs(&ps);
        let (got, report) = multi.align_pairs_static(&ps);
        assert_eq!(got, want);
        assert_eq!(report.assignment_sizes, vec![1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn static_zero_weight_pairs_still_fill_every_bin() {
        // Pairs of empty sequences weigh zero bases; the max(w, 1) floor
        // must keep LPT spreading them round-robin instead of stacking
        // them all in bin 0 (the empty-bin / divide-by-zero bug).
        let ps: Vec<ReadPair> = (0..8).map(|_| empty_pair()).collect();
        let multi = static_fleet(4, 10);
        let bins = multi.partition(&ps);
        assert!(
            bins.iter().all(|b| b.len() == 2),
            "uniform zero-weight pairs must spread evenly: {bins:?}"
        );
        // And a mixed batch (real + empty pairs, pairs ≥ gpus) keeps
        // every bin non-empty.
        let mut mixed = pairs(5);
        mixed.push(empty_pair());
        mixed.push(empty_pair());
        let bins = multi.partition(&mixed);
        assert!(bins.iter().all(|b| !b.is_empty()), "{bins:?}");
    }

    /// Hostile specs are errors naming the problem — never a panic, and
    /// never work proportional to a number in the spec (the counts here
    /// would not fit in memory if they were honoured).
    #[test]
    fn hostile_fleet_specs_are_rejected_before_allocation() {
        let max = usize::MAX;
        for spec in [
            format!("{max}gpu"),
            format!("{max}cpu"),
            "18446744073709551616gpu".to_string(), // usize::MAX + 1
            "4000000000gpu".to_string(),
            format!("{}gpu", MAX_FLEET_WORKERS + 1),
            format!("{0}gpu+{0}gpu", MAX_FLEET_WORKERS / 2 + 1), // sum over the limit
            format!("gpu+{max}gpu"),
            "cpu:0".to_string(),
            format!("cpu:{max}"),
            format!("cpu:{}", MAX_POOL_THREADS + 1),
            "cpu:-1".to_string(),
            "0cpu".to_string(),
            "+".to_string(),
            "gpu+".to_string(),
            "+gpu".to_string(),
            "gpu++cpu".to_string(),
            " ".to_string(),
            "gpu:3".to_string(),
            "3".to_string(),
            ":".to_string(),
            "cpu:".to_string(),
            "\u{663}gpu".to_string(),   // ARABIC-INDIC DIGIT THREE
            "cpu:\u{ff14}".to_string(), // FULLWIDTH DIGIT FOUR
            "2\u{ff47}pu".to_string(),  // fullwidth 'g'
        ] {
            let got = spec.parse::<FleetSpec>();
            assert!(got.is_err(), "{spec:?} must be rejected, got {got:?}");
        }
        // The limits themselves are accepted, and named when exceeded.
        let at_limit: FleetSpec = format!("{MAX_FLEET_WORKERS}gpu").parse().unwrap();
        assert_eq!(at_limit.workers.len(), MAX_FLEET_WORKERS);
        assert!(format!("cpu:{MAX_POOL_THREADS}")
            .parse::<FleetSpec>()
            .is_ok());
        let err = format!("{max}gpu").parse::<FleetSpec>().unwrap_err();
        assert!(err.contains(&MAX_FLEET_WORKERS.to_string()), "{err}");
        let err = format!("cpu:{max}").parse::<FleetSpec>().unwrap_err();
        assert!(err.contains(&MAX_POOL_THREADS.to_string()), "{err}");
        assert!(check_workers(0).is_err() && check_workers(max).is_err());
        assert!(check_pool_threads(0).is_err() && check_pool_threads(max).is_err());
    }
}
