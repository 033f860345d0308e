//! The open-loop latency harness: a deterministic discrete-event
//! simulation of the serving core (`core.rs`) on the **simulated
//! clock**, the time domain of every performance claim in this repo
//! (threaded wall-clock latency on this host would measure the host,
//! not the service).
//!
//! The core is the one the threaded server runs, and the backend is
//! real: each batch is aligned through the same caught, fallible call
//! the server makes, and its service time is the batch's simulated
//! device seconds (`cells / throughput_hint_on(lane)` on host-only
//! lanes) plus the setup charge ([`ServeConfig::batch_setup_s`]), so
//! every percentile is reproducible bit for bit from the seed. A lane is
//! busy until that time, and only then is its batch settled. Arrivals
//! are open-loop ([`ArrivalProcess`]): they cannot wait, so a full
//! queue *sheds* ([`SimOutcome::Shed`]) where the server blocks.
//!
//! **Chaos** (`DESIGN.md` §12): a [`FaultPlan`] in [`SimConfig::chaos`]
//! injects the storm keyed by per-lane *attempt* index, exactly like
//! [`logan_core::ChaosBackend`], and a batch's retry chain is resolved
//! at dispatch: the core's verdict on each fault retries in place (the
//! backoff adds to the lane's busy seconds), moves the batch, or fails
//! it. Every decision lands in [`SimReport::trace`], byte-reproducible
//! from the seeds.
//!
//! Every run is also an **assert-mode** check of the service
//! invariants: every arrival resolves to exactly one outcome, no
//! tenant's in-flight pairs ever exceed the quota, and all admitted
//! quota is returned by the end.

use crate::config::ServeConfig;
use crate::core::{run_batch, Job, ServeCore, Settle, Step};
use crate::request::{ServeError, TenantId};
use logan_core::faults::{FaultPlan, SupervisePolicy, TraceEvent};
use logan_core::AlignBackend;
use logan_seq::readsim::{PairSet, ReadPair};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

/// A seeded arrival-time process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_rps` requests per (simulated)
    /// second: exponential inter-arrival gaps — the classic open-loop
    /// model of many independent clients.
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_rps: f64,
    },
    /// Bursty arrivals: bursts of `burst` simultaneous requests whose
    /// *start times* are Poisson at `rate_rps / burst`, so the mean
    /// rate still averages `rate_rps` but the instantaneous load spikes
    /// — the pattern a shared cluster sees when pipelines fan out.
    Bursty {
        /// Mean arrival rate, requests per second.
        rate_rps: f64,
        /// Requests arriving together per burst (≥ 1).
        burst: usize,
    },
}

impl ArrivalProcess {
    /// `n` seeded arrival times, non-decreasing, starting after 0.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate or a zero burst — there is no
    /// arrival schedule to draw.
    pub(crate) fn arrival_times(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut exp = move |rate: f64| -> f64 {
            let u: f64 = rng.gen_range(0.0..1.0);
            -(1.0 - u).ln() / rate
        };
        let mut times = Vec::with_capacity(n);
        match *self {
            ArrivalProcess::Poisson { rate_rps } => {
                assert!(rate_rps > 0.0, "Poisson rate must be positive");
                let mut t = 0.0;
                for _ in 0..n {
                    t += exp(rate_rps);
                    times.push(t);
                }
            }
            ArrivalProcess::Bursty { rate_rps, burst } => {
                assert!(rate_rps > 0.0, "bursty rate must be positive");
                assert!(burst >= 1, "burst size must be at least 1");
                let burst_rate = rate_rps / burst as f64;
                let mut t = 0.0;
                while times.len() < n {
                    t += exp(burst_rate);
                    for _ in 0..burst.min(n - times.len()) {
                        times.push(t);
                    }
                }
            }
        }
        times
    }
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// When the request arrives, simulated seconds.
    pub arrival_s: f64,
    /// Whose quota it spends.
    pub tenant: TenantId,
    /// The pairs to align.
    pub pairs: Vec<ReadPair>,
}

/// Build a seeded open-loop schedule: `n` requests of 1..=`max_pairs`
/// read pairs each (150–450 bp, 20% divergence), tenants drawn
/// uniformly from `0..tenants`, arrival times from `arrivals`.
pub fn seeded_requests(
    n: usize,
    tenants: usize,
    max_pairs: usize,
    arrivals: &ArrivalProcess,
    seed: u64,
) -> Vec<SimRequest> {
    assert!(tenants >= 1, "need at least one tenant");
    assert!(max_pairs >= 1, "requests need at least one pair");
    let times = arrivals.arrival_times(n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_1a7e);
    times
        .into_iter()
        .enumerate()
        .map(|(i, arrival_s)| {
            let pairs = rng.gen_range(1..=max_pairs);
            SimRequest {
                arrival_s,
                tenant: rng.gen_range(0..tenants as u32),
                pairs: PairSet::generate_with_lengths(pairs, 0.2, 150, 450, seed ^ (i as u64) << 8)
                    .pairs,
            }
        })
        .collect()
}

/// How the simulated server treated one request — exactly one outcome
/// per arrival, which is itself the no-silent-drop invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimOutcome {
    /// Served: reply `latency_s` after arrival, over `batches` batches.
    Completed {
        /// Arrival-to-reply simulated seconds.
        latency_s: f64,
        /// Coalesced batches that carried the request's pairs.
        batches: usize,
    },
    /// Refused at admission: the tenant's quota was full.
    OverQuota,
    /// Shed: the bounded queue was full at arrival (open-loop analogue
    /// of the threaded server blocking the submitter).
    Shed,
    /// A batch carrying (part of) this request failed past recovery —
    /// an injected fault the supervision policy could not absorb
    /// (unsupervised fault, a poison batch, or no surviving lane).
    Failed,
    /// Evicted from the queue past [`ServeConfig::deadline_s`] with no
    /// pair dispatched.
    DeadlineExceeded,
}

/// Simulation knobs: the service config, the submission discipline
/// under test, and the optional chaos/supervision layers.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Queue/batch/quota/setup/deadline knobs, shared with the
    /// threaded server.
    pub serve: ServeConfig,
    /// `true`: cross-request coalescing up to `batch_pairs` per
    /// submission. `false`: one request per submission (the baseline
    /// discipline the coalescer is measured against).
    pub coalesce: bool,
    /// `Some(policy)`: faulted batches are retried/re-dispatched per
    /// the policy. `None`: any fault fails the batch, and a fail-stop
    /// retires the lane for good — the pre-supervision degenerate
    /// behavior the chaos-recovery contrast
    /// (`tests/chaos_supervision.rs`) uses as its baseline.
    pub supervise: Option<SupervisePolicy>,
    /// The fault storm to inject, keyed by per-lane attempt index on
    /// the simulated clock. `None` for a healthy run.
    pub chaos: Option<FaultPlan>,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            serve: ServeConfig::default(),
            coalesce: true,
            supervise: None,
            chaos: None,
        }
    }
}

/// What one simulated run measured.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Requests in the schedule.
    pub arrivals: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests refused over quota.
    pub over_quota: usize,
    /// Requests shed at the full queue.
    pub shed: usize,
    /// Requests failed by an unrecovered fault.
    pub failed: usize,
    /// Requests evicted past their deadline.
    pub deadline_exceeded: usize,
    /// Median completed latency, simulated seconds.
    pub p50_s: f64,
    /// 99th-percentile completed latency, simulated seconds.
    pub p99_s: f64,
    /// Mean completed latency, simulated seconds.
    pub mean_s: f64,
    /// Worst completed latency, simulated seconds.
    pub max_s: f64,
    /// First arrival to last completion, simulated seconds.
    pub makespan_s: f64,
    /// First arrival to the later of last completion / last arrival —
    /// the denominator goodput is measured over. Using the full
    /// horizon (not the makespan) keeps a run that fails early from
    /// *inflating* its throughput by dying before the schedule ends.
    pub horizon_s: f64,
    /// Pairs actually served.
    pub completed_pairs: usize,
    /// Served pairs per simulated second over the makespan — the
    /// saturation-throughput metric at overload.
    pub pairs_per_s: f64,
    /// Served pairs per simulated second over the horizon — goodput,
    /// the quantity the chaos-recovery acceptance compares.
    pub goodput_pairs_per_s: f64,
    /// DP cells across all served batches.
    pub total_cells: u64,
    /// Backend submissions issued (successful dispatches).
    pub batches: usize,
    /// Mean pairs per submission (the coalescing factor).
    pub mean_batch_pairs: f64,
    /// Highest in-flight pairs any tenant reached — asserted ≤ quota.
    pub peak_tenant_in_flight: usize,
    /// Lanes permanently retired by fail-stop faults.
    pub lanes_retired: usize,
    /// Batches that faulted at least once and still completed.
    pub recoveries: usize,
    /// Mean simulated seconds from a batch's first fault to its
    /// eventual completion (0 when nothing recovered).
    pub mean_recovery_s: f64,
    /// Every supervision/fault decision, in simulated-time order — the
    /// reproducibility witness (same seeds ⇒ identical trace).
    pub trace: Vec<TraceEvent>,
    /// Per-request outcomes, schedule order.
    pub outcomes: Vec<SimOutcome>,
}

/// The key that orders lane completions: the time, in
/// [`f64::total_cmp`] order, then the dispatch number (a deterministic
/// tie-break).
fn completion_key(at_s: f64, seq: u64) -> (i64, u64) {
    let bits = at_s.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64, seq)
}

/// The simulation's clock, lanes and metrics around the serving core,
/// whose reply tokens are arrival indices.
struct Sim<'a> {
    backend: &'a dyn AlignBackend,
    cfg: &'a SimConfig,
    requests: &'a [SimRequest],
    core: ServeCore<usize>,
    outcomes: Vec<Option<SimOutcome>>,
    lane_busy: Vec<bool>,
    /// Per-lane attempt counter — the fault plan's block index, so a
    /// failed attempt consumes an index exactly like [`logan_core::ChaosBackend`].
    lane_attempts: Vec<usize>,
    /// Lanes' busy periods, earliest end first: the lane and the batch
    /// to settle when it ends.
    completions: BTreeMap<(i64, u64), (f64, usize, Settle)>,
    seq: u64,
    total_cells: u64,
    latencies: Vec<f64>,
    completed_pairs: usize,
    last_completion: f64,
    recoveries: usize,
    recovery_s_sum: f64,
}

impl<'a> Sim<'a> {
    /// Record the core's replies, answered at `now`, as outcomes.
    fn record_replies(&mut self, now: f64) {
        for (i, reply) in self.core.take_replies() {
            let outcome = match reply {
                Ok(response) => {
                    let latency_s = now - self.requests[i].arrival_s;
                    self.latencies.push(latency_s);
                    self.completed_pairs += response.results.len();
                    SimOutcome::Completed {
                        latency_s,
                        batches: response.batches,
                    }
                }
                Err(ServeError::OverQuota { .. }) => SimOutcome::OverQuota,
                Err(ServeError::DeadlineExceeded) => SimOutcome::DeadlineExceeded,
                Err(_) => SimOutcome::Failed,
            };
            assert!(
                self.outcomes[i].replace(outcome).is_none(),
                "request {i} answered twice"
            );
        }
    }

    /// Resolve one dispatch on `lane` at time `now`: walk the injected
    /// faults and the core's verdicts (retrying in place on the
    /// simulated clock) until the lane is done with the batch. Returns
    /// the lane's busy seconds and the outcome to settle when they
    /// elapse.
    fn dispatch(&mut self, now: f64, lane: usize, mut job: Job) -> (f64, Settle) {
        let setup_s = self.cfg.serve.batch_setup_s;
        let mut busy = 0.0f64;
        loop {
            let n = self.lane_attempts[lane];
            self.lane_attempts[lane] += 1;
            let chaos = self.cfg.chaos.as_ref();
            let result = match chaos.and_then(|plan| plan.injected_error(lane, n)) {
                Some(err) => Err(err),
                None => run_batch(self.backend, lane, &job.batch.pairs),
            };
            let result = match result {
                Ok((results, rep)) => {
                    // The service time is the batch's simulated device
                    // seconds (or a rate-derived charge on host-only
                    // lanes) plus setup, shaped by any degrade/stall
                    // fault on this index.
                    let base = rep.device_s(self.backend.throughput_hint_on(lane));
                    let extra = chaos.map_or(0.0, |plan| plan.extra_sim_secs(lane, n, base));
                    busy += setup_s + base + extra;
                    self.total_cells += rep.total_cells;
                    Ok(results)
                }
                Err(err) => {
                    // A faulted attempt still pays its launch setup.
                    busy += setup_s;
                    job.faulted_at.get_or_insert(now + busy);
                    Err(err)
                }
            };
            match self.core.finish(lane, job, result) {
                Step::Retry {
                    job: again,
                    delay_s,
                } => {
                    busy += delay_s;
                    job = again;
                }
                Step::Done(settle) => return (busy, settle),
            }
        }
    }

    /// Evict deadline-expired requests, then start every idle lane the
    /// core gives work at time `now`.
    fn start_lanes(&mut self, now: f64) {
        self.core.expire(now);
        self.record_replies(now);
        for lane in 0..self.lane_busy.len() {
            if self.lane_busy[lane] {
                continue;
            }
            let Some(job) = self.core.take(lane) else {
                continue;
            };
            let (busy, settle) = self.dispatch(now, lane, job);
            self.lane_busy[lane] = true;
            let at_s = now + busy;
            let key = completion_key(at_s, self.seq);
            self.completions.insert(key, (at_s, lane, settle));
            self.seq += 1;
        }
    }

    /// The busy period of `lane` ended at `at_s`: settle its batch.
    fn on_completion(&mut self, at_s: f64, lane: usize, settle: Settle) {
        self.last_completion = self.last_completion.max(at_s);
        self.lane_busy[lane] = false;
        if let Settle::Served(job, _) = &settle {
            if let Some(t0) = job.faulted_at {
                self.recoveries += 1;
                self.recovery_s_sum += (at_s - t0).max(0.0);
            }
        }
        self.core.settle(settle);
        self.record_replies(at_s);
        self.start_lanes(at_s);
    }
}

/// Run the open-loop schedule through the simulated server on
/// `backend` and measure latency, throughput, and — under a chaos plan
/// — recovery, all on the simulated clock. Ties between a completion
/// and an arrival at the same instant resolve completion-first (quota
/// and lanes free before the arrival is admitted) — the deterministic
/// rule that makes reruns bit-identical.
///
/// # Panics
///
/// Panics if a service invariant breaks: an arrival without an
/// outcome or with two, quota exceeded or leaked, or an invalid `cfg`
/// — this *is* the load generator's assert mode.
pub fn simulate(backend: &dyn AlignBackend, cfg: &SimConfig, requests: &[SimRequest]) -> SimReport {
    let serve = cfg.serve.validated().expect("invalid serve config");
    let lanes = backend.lanes().max(1);
    // Process arrivals in time order without disturbing caller order.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        requests[a]
            .arrival_s
            .total_cmp(&requests[b].arrival_s)
            .then(a.cmp(&b))
    });

    // Healthy, unsupervised runs keep an empty trace — the per-attempt
    // log only matters when faults can occur.
    let tracing = cfg.chaos.is_some() || cfg.supervise.is_some();
    let mut sim = Sim {
        backend,
        cfg,
        requests,
        core: ServeCore::new(serve, lanes, cfg.supervise, cfg.coalesce, tracing),
        outcomes: vec![None; requests.len()],
        lane_busy: vec![false; lanes],
        lane_attempts: vec![0; lanes],
        completions: BTreeMap::new(),
        seq: 0,
        total_cells: 0,
        latencies: Vec::new(),
        completed_pairs: 0,
        last_completion: f64::NEG_INFINITY,
        recoveries: 0,
        recovery_s_sum: 0.0,
    };

    let mut next_arrival = 0usize;
    while next_arrival < order.len() || !sim.completions.is_empty() {
        let t_arr = order
            .get(next_arrival)
            .map(|&i| requests[i].arrival_s)
            .unwrap_or(f64::INFINITY);
        let t_comp = sim
            .completions
            .values()
            .next()
            .map_or(f64::INFINITY, |c| c.0);
        if t_comp <= t_arr {
            // Completion first on ties: frees lanes and quota before
            // the simultaneous arrival is considered.
            let (_, (at_s, lane, settle)) = sim.completions.pop_first().expect("a completion");
            sim.on_completion(at_s, lane, settle);
        } else {
            let i = order[next_arrival];
            next_arrival += 1;
            let req = &requests[i];
            match sim
                .core
                .submit(req.tenant, req.pairs.clone(), i, req.arrival_s)
            {
                // The queue is full: an open-loop arrival cannot wait.
                Err(_) => sim.outcomes[i] = Some(SimOutcome::Shed),
                // Answered at once: empty, no live lane, or over quota.
                Ok(_) if sim.core.has_replies() => sim.record_replies(req.arrival_s),
                Ok(_) => sim.start_lanes(req.arrival_s),
            }
        }
    }

    // ---- assert mode: the service invariants, checked on every run ----
    let outcomes: Vec<SimOutcome> = sim
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| panic!("request {i} has no outcome (silent drop)")))
        .collect();
    let s = sim.core.stats().clone();
    assert_eq!(
        s.submitted,
        s.completed + s.failed + s.over_quota + s.rejected_shutdown + s.deadline_exceeded,
        "the ledger does not balance"
    );
    let admission = sim.core.admission();
    let peak = admission.peak_in_flight();
    assert!(
        peak <= serve.quota_pairs,
        "admission invariant violated: peak in-flight {peak} > quota {}",
        serve.quota_pairs
    );
    assert!(
        requests.iter().all(|r| admission.in_flight(r.tenant) == 0),
        "a tenant leaked quota"
    );

    sim.latencies.sort_by(f64::total_cmp);
    let first_arrival = order.first().map(|&i| requests[i].arrival_s).unwrap_or(0.0);
    let last_arrival = order.last().map(|&i| requests[i].arrival_s).unwrap_or(0.0);
    let makespan_s = if sim.last_completion.is_finite() {
        (sim.last_completion - first_arrival).max(0.0)
    } else {
        0.0
    };
    let horizon_s = (sim.last_completion.max(last_arrival) - first_arrival).max(0.0);
    let latencies = &sim.latencies;
    let served = sim.completed_pairs as f64;
    SimReport {
        arrivals: requests.len(),
        completed: s.completed,
        over_quota: s.over_quota,
        shed: requests.len() - s.submitted,
        failed: s.failed,
        deadline_exceeded: s.deadline_exceeded,
        p50_s: percentile(latencies, 50.0),
        p99_s: percentile(latencies, 99.0),
        mean_s: ratio(latencies.iter().sum(), latencies.len() as f64),
        max_s: latencies.last().copied().unwrap_or(0.0),
        makespan_s,
        horizon_s,
        completed_pairs: sim.completed_pairs,
        pairs_per_s: ratio(served, makespan_s),
        goodput_pairs_per_s: ratio(served, horizon_s),
        total_cells: sim.total_cells,
        batches: s.batches,
        mean_batch_pairs: ratio(s.batched_pairs as f64, s.batches as f64),
        peak_tenant_in_flight: peak,
        lanes_retired: s.lanes_retired,
        recoveries: sim.recoveries,
        mean_recovery_s: ratio(sim.recovery_s_sum, sim.recoveries as f64),
        trace: sim.core.into_trace(),
        outcomes,
    }
}

/// `num / den`, or 0.0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile of an ascending-sorted sample; 0.0 on empty.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_core::faults::Fault;
    use logan_core::{LoganConfig, LoganExecutor};
    use logan_gpusim::DeviceSpec;

    fn gpu() -> LoganExecutor {
        LoganExecutor::new(DeviceSpec::tiny(), LoganConfig::with_x(30))
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_increasing() {
        let p = ArrivalProcess::Poisson { rate_rps: 100.0 };
        let a = p.arrival_times(200, 7);
        let b = p.arrival_times(200, 7);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(a, p.arrival_times(200, 8), "seed changes the schedule");
        // Mean inter-arrival ≈ 1/rate (loose: 200 samples).
        let mean = a.last().unwrap() / 200.0;
        assert!((0.5 / 100.0..2.0 / 100.0).contains(&mean), "{mean}");
    }

    #[test]
    fn bursty_arrivals_cluster() {
        let p = ArrivalProcess::Bursty {
            rate_rps: 100.0,
            burst: 5,
        };
        let a = p.arrival_times(50, 3);
        assert_eq!(a.len(), 50);
        // Bursts arrive together: there are exact duplicates.
        let distinct: std::collections::BTreeSet<u64> = a.iter().map(|t| t.to_bits()).collect();
        assert_eq!(distinct.len(), 10, "50 arrivals in bursts of 5");
    }

    #[test]
    fn simulate_is_deterministic_and_balances_the_ledger() {
        let arr = ArrivalProcess::Poisson { rate_rps: 50.0 };
        let reqs = seeded_requests(40, 3, 3, &arr, 11);
        let cfg = SimConfig {
            serve: ServeConfig {
                batch_pairs: 16,
                queue_depth: 8,
                quota_pairs: 12,
                batch_setup_s: 0.002,
                deadline_s: None,
                ..ServeConfig::default()
            },
            coalesce: true,
            ..SimConfig::default()
        };
        let gpu = gpu();
        let a = simulate(&gpu, &cfg, &reqs);
        let b = simulate(&gpu, &cfg, &reqs);
        assert_eq!(a.outcomes, b.outcomes, "simulated runs are bit-identical");
        assert_eq!(a.p99_s, b.p99_s);
        assert_eq!(a.completed + a.over_quota + a.shed, 40);
        assert!(a.completed > 0);
        assert!(a.peak_tenant_in_flight <= 12);
        assert!(a.p50_s <= a.p99_s && a.p99_s <= a.max_s);
        assert!(a.trace.is_empty(), "no chaos, no trace");
        assert_eq!((a.failed, a.deadline_exceeded, a.lanes_retired), (0, 0, 0));
        assert!(a.horizon_s >= a.makespan_s);
    }

    /// Coalescing (SOAP3-dp's trick) against per-request submission,
    /// each discipline offered the same schedule, on two inputs: bursty
    /// traffic the quota never binds, where both serve the same work;
    /// and Poisson traffic at 1.6× the per-request capacity under a
    /// tight quota, where coalescing must serve strictly more pairs a
    /// second and per-request submission must refuse something.
    #[test]
    fn coalescing_batches_more_pairs_per_submission() {
        let gpu = gpu();
        let roomy = ServeConfig {
            batch_pairs: 32,
            queue_depth: 64,
            quota_pairs: 4096,
            batch_setup_s: 0.002,
            deadline_s: None,
            ..ServeConfig::default()
        };
        let tight = ServeConfig {
            batch_pairs: 64,
            queue_depth: 32,
            quota_pairs: 16,
            ..ServeConfig::default()
        };
        // Per-request capacity: every lane serving one mean-sized
        // request (2.5 pairs under `max_pairs = 4`) per submission,
        // each paying the setup, priced on a probe of the same lengths.
        let probe = PairSet::generate_with_lengths(64, 0.2, 150, 450, 0xca11b).pairs;
        let (_, rep) = gpu.align_block_on(0, &probe);
        let per_pair_s = rep.device_s(gpu.throughput_hint_on(0)) / probe.len() as f64;
        let capacity = gpu.lanes() as f64 / (tight.batch_setup_s + 2.5 * per_pair_s);
        let bursty = ArrivalProcess::Bursty {
            rate_rps: 2000.0,
            burst: 8,
        };
        let overload = ArrivalProcess::Poisson {
            rate_rps: 1.6 * capacity,
        };
        for (serve, reqs, overloaded) in [
            (roomy, seeded_requests(48, 2, 3, &bursty, 5), false),
            (tight, seeded_requests(60, 4, 4, &overload, 42), true),
        ] {
            let run = |coalesce| {
                let cfg = SimConfig {
                    serve,
                    coalesce,
                    ..SimConfig::default()
                };
                simulate(&gpu, &cfg, &reqs)
            };
            let (co, single) = (run(true), run(false));
            assert!(
                co.mean_batch_pairs > single.mean_batch_pairs,
                "coalescing must raise pairs per submission: {} vs {}",
                co.mean_batch_pairs,
                single.mean_batch_pairs
            );
            assert!(co.batches < single.batches);
            if overloaded {
                assert!(
                    co.pairs_per_s > single.pairs_per_s,
                    "coalescing must serve more at overload: {} vs {} pairs/s",
                    co.pairs_per_s,
                    single.pairs_per_s
                );
                assert!(co.completed >= single.completed);
                assert!(single.over_quota > 0, "the overload never hit the quota");
            } else {
                // Same work served either way when admission never binds.
                assert_eq!(co.completed, single.completed);
            }
        }
    }

    /// The chaos contrast on one lane: unsupervised, a transient window
    /// fails real requests; supervised, the retry chain absorbs it and
    /// everything completes — and both runs replay bit-identically.
    #[test]
    fn supervision_absorbs_a_transient_window_the_baseline_fails() {
        let arr = ArrivalProcess::Poisson { rate_rps: 40.0 };
        let reqs = seeded_requests(30, 2, 3, &arr, 9);
        let chaos = FaultPlan::new(9).with_fault(
            0,
            Fault::Transient {
                nth_block: 2,
                count: 2,
            },
        );
        let base_cfg = SimConfig {
            chaos: Some(chaos),
            ..SimConfig::default()
        };
        let sup_cfg = SimConfig {
            supervise: Some(SupervisePolicy::default()),
            ..base_cfg.clone()
        };
        let gpu = gpu();
        let base = simulate(&gpu, &base_cfg, &reqs);
        let sup = simulate(&gpu, &sup_cfg, &reqs);
        assert!(base.failed > 0, "unsupervised transients fail requests");
        assert_eq!(sup.failed, 0, "supervision absorbs the window");
        assert_eq!(sup.completed, 30);
        assert!(sup.recoveries > 0 && sup.mean_recovery_s > 0.0);
        assert!(sup
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Backoff { .. })));
        // Reproducibility: the same seeds replay the same trace.
        let sup2 = simulate(&gpu, &sup_cfg, &reqs);
        assert_eq!(sup.trace, sup2.trace);
        assert_eq!(sup.outcomes, sup2.outcomes);
    }

    /// Fail-stop on the only lane: the lane retires, in-flight and
    /// queued work fails explicitly, later arrivals are refused — and
    /// the ledger still balances.
    #[test]
    fn failstop_on_the_last_lane_fails_pending_work_explicitly() {
        let arr = ArrivalProcess::Poisson { rate_rps: 200.0 };
        let reqs = seeded_requests(25, 2, 2, &arr, 13);
        let cfg = SimConfig {
            chaos: Some(FaultPlan::new(13).with_fault(0, Fault::FailStop { after: 3 })),
            ..SimConfig::default()
        };
        let gpu = gpu();
        let rep = simulate(&gpu, &cfg, &reqs);
        assert_eq!(rep.lanes_retired, 1);
        assert!(rep.completed >= 1, "blocks before the fault complete");
        assert!(rep.failed > 0, "everything after the fault fails");
        assert_eq!(
            rep.completed + rep.over_quota + rep.shed + rep.failed + rep.deadline_exceeded,
            25
        );
        assert!(rep
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::LaneDead { lane: 0 })));
    }

    /// A stalled lane plus a tight deadline: requests that age out
    /// fully queued get the explicit eviction, not a silent hang.
    #[test]
    fn deadline_evicts_queued_requests_on_the_simulated_clock() {
        let arr = ArrivalProcess::Bursty {
            rate_rps: 400.0,
            burst: 10,
        };
        let reqs = seeded_requests(30, 2, 3, &arr, 17);
        let cfg = SimConfig {
            serve: ServeConfig {
                batch_pairs: 4,
                deadline_s: Some(0.05),
                ..ServeConfig::default()
            },
            chaos: Some(FaultPlan::new(17).with_fault(0, Fault::Stall { sim_secs: 0.5 })),
            ..SimConfig::default()
        };
        let gpu = gpu();
        let rep = simulate(&gpu, &cfg, &reqs);
        assert!(
            rep.deadline_exceeded > 0,
            "a 0.5 s stall against a 50 ms deadline must evict someone"
        );
        assert_eq!(
            rep.completed + rep.over_quota + rep.shed + rep.failed + rep.deadline_exceeded,
            30
        );
        // Deterministic replay, evictions included.
        let rep2 = simulate(&gpu, &cfg, &reqs);
        assert_eq!(rep.outcomes, rep2.outcomes);
    }

    /// Sentinel `template_len` that detonates [`PoisonBackend`].
    const POISON: usize = 777_777;

    /// A two-lane backend whose lane panics on a poison pair, shaped
    /// like `tests/serve_shutdown.rs`'s.
    struct PoisonBackend(LoganExecutor);

    impl AlignBackend for PoisonBackend {
        fn name(&self) -> String {
            "poison:2".into()
        }
        fn throughput_hint(&self) -> f64 {
            self.0.throughput_hint()
        }
        fn max_block(&self) -> usize {
            usize::MAX
        }
        fn lanes(&self) -> usize {
            2
        }
        fn align_block(
            &self,
            block: &[ReadPair],
        ) -> (
            Vec<logan_align::SeedExtendResult>,
            logan_core::BackendReport,
        ) {
            for p in block {
                assert!(p.template_len != POISON, "poison pair aligned");
            }
            self.0.align_block(block)
        }
    }

    /// A lane that panics fails only the request it was carrying and
    /// retires, as on the threaded server: the other lane serves
    /// everything else, and the ledger balances.
    #[test]
    fn a_panicking_lane_fails_its_request_and_retires() {
        let arr = ArrivalProcess::Poisson { rate_rps: 200.0 };
        let mut reqs = seeded_requests(20, 2, 3, &arr, 29);
        reqs[6].pairs[0].template_len = POISON;
        let cfg = SimConfig {
            coalesce: false, // one request per batch: the blast radius is one
            ..SimConfig::default()
        };
        let rep = simulate(&PoisonBackend(gpu()), &cfg, &reqs);
        assert_eq!(rep.outcomes[6], SimOutcome::Failed);
        assert_eq!(rep.lanes_retired, 1);
        for (i, o) in rep.outcomes.iter().enumerate().filter(|(i, _)| *i != 6) {
            assert!(
                matches!(o, SimOutcome::Completed { .. }),
                "request {i}: {o:?}"
            );
        }
        assert_eq!((rep.completed, rep.failed), (19, 1));
        assert_eq!(
            rep.completed + rep.over_quota + rep.shed + rep.failed + rep.deadline_exceeded,
            20
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
