//! The open-loop latency harness: a deterministic discrete-event
//! simulation of the serving loop on the **simulated clock**, the same
//! time domain as every other performance claim in this repo (this
//! container is single-core, so threaded wall-clock latency would
//! measure the host, not the service).
//!
//! The simulator runs the *real* service components — the
//! [`Coalescer`] and the [`Admission`] controller the threaded server
//! uses — against a real backend: each batch is actually aligned
//! (`align_block_on`), and its service time is the batch's simulated
//! device seconds plus the per-submission setup charge
//! ([`ServeConfig::batch_setup_s`]). Host-only lanes, which report no
//! simulated time, are charged `cells / throughput_hint_on(lane)`
//! instead — deterministic either way, so every latency percentile is
//! reproducible bit for bit from the seed.
//!
//! Arrivals are an open-loop process ([`ArrivalProcess`]): requests
//! arrive when they arrive, regardless of service state — millions of
//! users are arrival rates, not threads. A full queue therefore *sheds*
//! (the explicit [`SimOutcome::Shed`] outcome) where the closed-loop
//! threaded server would block the submitter.
//!
//! **Chaos and supervision** (`DESIGN.md` §12): a [`FaultPlan`] in
//! [`SimConfig::chaos`] injects the storm on the simulated clock —
//! transient launch failures, fail-stop lane deaths, degraded and
//! stalled service times — keyed by per-lane *attempt* index, exactly
//! like [`logan_core::ChaosBackend`]. Without supervision
//! ([`SimConfig::supervise`]` = None`) a faulted batch fails its
//! requests and a fail-stop retires the lane for good — the PR 5/6
//! degenerate behavior. With a [`SupervisePolicy`], the simulator is
//! one of the three callers of [`logan_core::faults::Supervisor`]: the
//! supervisor's verdict on each fault decides whether the batch retries
//! in place (its backoff is added to the lane's busy seconds), moves to
//! a lane the retake rule admits, or fails as poison; the simulator
//! keeps no copy of those rules. Every decision lands in the
//! [`SimReport::trace`], byte-reproducible from the seeds.
//! [`ServeConfig::deadline_s`] evicts requests that age out while fully
//! queued, with an explicit [`SimOutcome::DeadlineExceeded`].
//!
//! Every run is also an **assert-mode** check of the service
//! invariants: every arrival resolves to exactly one outcome (no
//! silent drops), no tenant's in-flight pairs ever exceed the quota,
//! and all admitted quota is returned by the end.

use crate::admission::Admission;
use crate::coalesce::{BatchSpan, Coalescer};
use crate::config::ServeConfig;
use crate::request::TenantId;
use logan_core::faults::{
    BlockLedger, FaultPlan, SupervisePolicy, Supervisor, TraceEvent, Verdict,
};
use logan_core::AlignBackend;
use logan_seq::readsim::{PairSet, ReadPair};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BinaryHeap, HashMap, VecDeque};

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
    /// The process's mean rate in requests per second.
    pub fn rate_rps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps } | ArrivalProcess::Bursty { rate_rps, .. } => {
                rate_rps
            }
        }
    }

    /// Short label for tables (`poisson` / `bursty:8`).
    pub fn label(&self) -> String {
        match *self {
            ArrivalProcess::Poisson { .. } => "poisson".into(),
            ArrivalProcess::Bursty { burst, .. } => format!("bursty:{burst}"),
        }
    }

    /// `n` seeded arrival times, non-decreasing, starting after 0.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate or a zero burst — there is no
    /// arrival schedule to draw.
    pub fn arrival_times(&self, n: usize, seed: u64) -> Vec<f64> {
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

/// Salt of the simulator's jitter stream (independent of
/// [`logan_core::Supervised`]'s, so the two replay independently).
const SIM_JITTER_SALT: u64 = 0x5EED_0F5A_FE00_0001;

/// One unit of work handed to a lane: a fresh coalesced batch (empty
/// ledger) or one a lane gave up on, waiting for re-dispatch.
struct Job {
    /// Trace id assigned at the batch's first dispatch.
    block_id: u64,
    pairs: Vec<ReadPair>,
    spans: Vec<BatchSpan>,
    ledger: BlockLedger,
    /// Simulated time of the batch's first fault (recovery metric).
    first_fault_s: Option<f64>,
}

/// What a lane resolves to when its busy period ends.
enum BatchOutcome {
    /// Scatter results; `recovered_from` is the first-fault time if
    /// the batch ever faulted.
    Success {
        spans: Vec<BatchSpan>,
        recovered_from: Option<f64>,
    },
    /// Fail the batch's requests (unsupervised fault or poison).
    Fail { spans: Vec<BatchSpan> },
    /// Hand the batch to another lane.
    Requeue(Job),
}

/// A pending completion event: min-heap by time, then insertion order
/// (deterministic tie-break).
struct Completion {
    at_s: f64,
    seq: u64,
    lane: usize,
    outcome: BatchOutcome,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.at_s == other.at_s && self.seq == other.seq
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest.
        other
            .at_s
            .total_cmp(&self.at_s)
            .then(other.seq.cmp(&self.seq))
    }
}

struct SimAssembly {
    tenant: TenantId,
    arrival_s: f64,
    pairs: usize,
    remaining: usize,
    batches: usize,
}

/// The mutable simulation state, threaded through the event loop.
struct Sim<'a> {
    backend: &'a dyn AlignBackend,
    cfg: &'a SimConfig,
    serve: ServeConfig,
    queue: Coalescer,
    retry: VecDeque<Job>,
    admission: Admission,
    assemblies: HashMap<u64, SimAssembly>,
    outcomes: Vec<Option<SimOutcome>>,
    lane_busy: Vec<bool>,
    lane_retired: Vec<bool>,
    /// Per-lane attempt counter — the fault plan's block index, so a
    /// failed attempt consumes an index exactly like [`logan_core::ChaosBackend`].
    lane_attempts: Vec<usize>,
    completions: BinaryHeap<Completion>,
    seq: u64,
    batches: usize,
    batched_pairs: usize,
    total_cells: u64,
    latencies: Vec<f64>,
    completed_pairs: usize,
    last_completion: f64,
    trace: Vec<TraceEvent>,
    supervisor: Supervisor,
    recoveries: usize,
    recovery_s_sum: f64,
}

impl<'a> Sim<'a> {
    fn live_lanes(&self) -> usize {
        self.lane_retired.iter().filter(|r| !**r).count()
    }

    /// Resolve one dispatch on `lane` at time `now`: walk the injected
    /// faults and the supervisor's verdicts (retrying in place on the
    /// simulated clock) until the batch succeeds, fails, or moves on.
    /// Returns the lane's total busy seconds and what to do when they
    /// elapse.
    fn resolve_dispatch(&mut self, now: f64, lane: usize, mut job: Job) -> (f64, BatchOutcome) {
        let backend = self.backend;
        let mut busy = 0.0f64;
        let tracing = self.cfg.chaos.is_some() || self.cfg.supervise.is_some();
        loop {
            if tracing {
                // Healthy, unsupervised runs keep an empty trace — the
                // per-attempt log only matters when faults can occur.
                self.trace.push(TraceEvent::Attempt {
                    lane,
                    block: job.block_id,
                });
            }
            let n = self.lane_attempts[lane];
            self.lane_attempts[lane] += 1;
            let err = self
                .cfg
                .chaos
                .as_ref()
                .and_then(|plan| plan.injected_error(lane, n));
            let Some(err) = err else {
                // Healthy attempt: align for real. The service time is
                // the batch's simulated device seconds (or a
                // rate-derived charge on host-only lanes) plus setup,
                // shaped by any degrade/stall fault on this index.
                let (_results, rep) = backend.align_block_on(lane, &job.pairs);
                let base = rep.device_s(backend.throughput_hint_on(lane));
                let extra = self
                    .cfg
                    .chaos
                    .as_ref()
                    .map(|plan| plan.extra_sim_secs(lane, n, base))
                    .unwrap_or(0.0);
                busy += self.serve.batch_setup_s + base + extra;
                self.batches += 1;
                self.batched_pairs += job.pairs.len();
                self.total_cells += rep.total_cells;
                return (
                    busy,
                    BatchOutcome::Success {
                        spans: job.spans,
                        recovered_from: job.first_fault_s,
                    },
                );
            };
            // A faulted attempt still pays its launch setup.
            busy += self.serve.batch_setup_s;
            job.first_fault_s.get_or_insert(now + busy);
            self.trace.push(TraceEvent::Fault {
                lane,
                block: job.block_id,
                kind: err.kind(),
            });
            if err.retires_lane() && !self.lane_retired[lane] {
                self.lane_retired[lane] = true;
                self.trace.push(TraceEvent::LaneDead { lane });
            }
            let verdict = self.supervisor.verdict(&mut job.ledger, lane, &err);
            self.trace.extend(verdict.event(lane, job.block_id));
            match verdict {
                Verdict::Retry { delay_s, .. } => busy += delay_s,
                Verdict::Move => return (busy, BatchOutcome::Requeue(job)),
                Verdict::Poison { .. } | Verdict::Fail => {
                    return (busy, BatchOutcome::Fail { spans: job.spans })
                }
            }
        }
    }

    /// The first retry batch `lane` may take under the retake rule
    /// ([`BlockLedger::may_take`]).
    fn take_retry(&mut self, lane: usize) -> Option<Job> {
        let retired = &self.lane_retired;
        let idx = self
            .retry
            .iter()
            .position(|job| job.ledger.may_take(lane, retired.len(), |l| !retired[l]))?;
        self.retry.remove(idx)
    }

    /// Evict deadline-expired requests, then start every idle live lane
    /// the queues can fill at time `now` — retry batches first
    /// (recovery is latency-critical), then fresh coalesced batches.
    fn start_lanes(&mut self, now: f64) {
        if let Some(d) = self.serve.deadline_s {
            for id in self.queue.purge_expired(now, d) {
                self.resolve_request(id, SimOutcome::DeadlineExceeded);
            }
        }
        for lane in 0..self.lane_busy.len() {
            if self.lane_busy[lane] || self.lane_retired[lane] {
                continue;
            }
            let job = if let Some(job) = self.take_retry(lane) {
                if let Some(from) = job.ledger.last_failed().filter(|&from| from != lane) {
                    self.trace.push(TraceEvent::Redispatch {
                        block: job.block_id,
                        from,
                        to: lane,
                    });
                }
                job
            } else if !self.queue.is_empty() {
                let batch = if self.cfg.coalesce {
                    self.queue.next_batch()
                } else {
                    self.queue.next_request_batch()
                }
                .expect("non-empty queue yields a batch");
                Job {
                    block_id: self.seq,
                    pairs: batch.pairs,
                    spans: batch.spans,
                    ledger: BlockLedger::default(),
                    first_fault_s: None,
                }
            } else {
                continue;
            };
            let (busy, outcome) = self.resolve_dispatch(now, lane, job);
            self.lane_busy[lane] = true;
            self.completions.push(Completion {
                at_s: now + busy,
                seq: self.seq,
                lane,
                outcome,
            });
            self.seq += 1;
        }
    }

    /// Give `id` its single terminal outcome (if still in flight):
    /// release quota, record the outcome.
    fn resolve_request(&mut self, id: u64, outcome: SimOutcome) {
        if let Some(a) = self.assemblies.remove(&id) {
            self.admission.release(a.tenant, a.pairs);
            self.outcomes[id as usize] = Some(outcome);
        }
    }

    /// Handle one fired completion event.
    fn on_completion(&mut self, c: Completion) {
        self.last_completion = self.last_completion.max(c.at_s);
        self.lane_busy[c.lane] = false;
        match c.outcome {
            BatchOutcome::Success {
                spans,
                recovered_from,
            } => {
                if let Some(t0) = recovered_from {
                    self.recoveries += 1;
                    self.recovery_s_sum += (c.at_s - t0).max(0.0);
                }
                for span in &spans {
                    // A request another batch already failed has left
                    // the table; its surviving slices are discarded.
                    let Some(a) = self.assemblies.get_mut(&span.req) else {
                        continue;
                    };
                    a.remaining -= span.len;
                    a.batches += 1;
                    if a.remaining == 0 {
                        let latency = c.at_s - a.arrival_s;
                        let batches = a.batches;
                        let pairs = a.pairs;
                        self.latencies.push(latency);
                        self.completed_pairs += pairs;
                        self.resolve_request(
                            span.req,
                            SimOutcome::Completed {
                                latency_s: latency,
                                batches,
                            },
                        );
                    }
                }
            }
            BatchOutcome::Fail { spans } => {
                for span in &spans {
                    self.resolve_request(span.req, SimOutcome::Failed);
                }
            }
            BatchOutcome::Requeue(job) => self.retry.push_back(job),
        }
        if self.live_lanes() == 0 && self.completions.is_empty() {
            // The last lane died and nothing is in flight: nobody is
            // left to drain the queues — fail them rather than hang.
            for id in self.queue.drain_requests() {
                self.resolve_request(id, SimOutcome::Failed);
            }
            while let Some(job) = self.retry.pop_front() {
                for span in &job.spans {
                    self.resolve_request(span.req, SimOutcome::Failed);
                }
            }
            return;
        }
        self.start_lanes(c.at_s);
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
/// outcome, quota exceeded or leaked, or an invalid `cfg` — this *is*
/// the load generator's assert mode.
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

    let mut sim = Sim {
        backend,
        cfg,
        serve,
        queue: Coalescer::new(serve.batch_pairs),
        retry: VecDeque::new(),
        admission: Admission::new(serve.quota_pairs),
        assemblies: HashMap::new(),
        outcomes: vec![None; requests.len()],
        lane_busy: vec![false; lanes],
        lane_retired: vec![false; lanes],
        lane_attempts: vec![0; lanes],
        completions: BinaryHeap::new(),
        seq: 0,
        batches: 0,
        batched_pairs: 0,
        total_cells: 0,
        latencies: Vec::new(),
        completed_pairs: 0,
        last_completion: f64::NEG_INFINITY,
        trace: Vec::new(),
        supervisor: Supervisor::new(cfg.supervise, SIM_JITTER_SALT),
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
            .peek()
            .map(|c| c.at_s)
            .unwrap_or(f64::INFINITY);
        if t_comp <= t_arr {
            // Completion first on ties: frees lanes and quota before
            // the simultaneous arrival is considered.
            let c = sim.completions.pop().expect("peeked completion");
            sim.on_completion(c);
        } else {
            let i = order[next_arrival];
            next_arrival += 1;
            let req = &requests[i];
            if req.pairs.is_empty() {
                // Nothing to align: served instantly, like the server.
                sim.outcomes[i] = Some(SimOutcome::Completed {
                    latency_s: 0.0,
                    batches: 0,
                });
                continue;
            }
            if sim.live_lanes() == 0 {
                // No lane will ever serve it (mirrors the threaded
                // server's all-lanes-retired refusal).
                sim.outcomes[i] = Some(SimOutcome::Failed);
                continue;
            }
            if sim.queue.pending_requests() >= serve.queue_depth {
                sim.outcomes[i] = Some(SimOutcome::Shed);
                continue;
            }
            if sim
                .admission
                .try_admit(req.tenant, req.pairs.len())
                .is_err()
            {
                sim.outcomes[i] = Some(SimOutcome::OverQuota);
                continue;
            }
            sim.assemblies.insert(
                i as u64,
                SimAssembly {
                    tenant: req.tenant,
                    arrival_s: req.arrival_s,
                    pairs: req.pairs.len(),
                    remaining: req.pairs.len(),
                    batches: 0,
                },
            );
            sim.queue
                .push_at(i as u64, req.pairs.clone(), req.arrival_s);
            sim.start_lanes(req.arrival_s);
        }
    }

    // ---- assert mode: the service invariants, checked on every run ----
    let outcomes: Vec<SimOutcome> = sim
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| panic!("request {i} has no outcome (silent drop)")))
        .collect();
    assert!(
        sim.assemblies.is_empty(),
        "requests left in flight at the end"
    );
    let peak = sim.admission.peak_in_flight();
    assert!(
        peak <= serve.quota_pairs,
        "admission invariant violated: peak in-flight {peak} > quota {}",
        serve.quota_pairs
    );
    let (mut completed, mut over_quota, mut shed, mut failed, mut deadline_exceeded) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for o in &outcomes {
        match o {
            SimOutcome::Completed { .. } => completed += 1,
            SimOutcome::OverQuota => over_quota += 1,
            SimOutcome::Shed => shed += 1,
            SimOutcome::Failed => failed += 1,
            SimOutcome::DeadlineExceeded => deadline_exceeded += 1,
        }
    }
    assert_eq!(
        completed + over_quota + shed + failed + deadline_exceeded,
        requests.len(),
        "outcome ledger does not balance"
    );
    for t in requests.iter().map(|r| r.tenant) {
        assert_eq!(sim.admission.in_flight(t), 0, "tenant {t} leaked quota");
    }

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
    SimReport {
        arrivals: requests.len(),
        completed,
        over_quota,
        shed,
        failed,
        deadline_exceeded,
        p50_s: percentile(latencies, 50.0),
        p99_s: percentile(latencies, 99.0),
        mean_s: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        },
        max_s: latencies.last().copied().unwrap_or(0.0),
        makespan_s,
        horizon_s,
        completed_pairs: sim.completed_pairs,
        pairs_per_s: if makespan_s > 0.0 {
            sim.completed_pairs as f64 / makespan_s
        } else {
            0.0
        },
        goodput_pairs_per_s: if horizon_s > 0.0 {
            sim.completed_pairs as f64 / horizon_s
        } else {
            0.0
        },
        total_cells: sim.total_cells,
        batches: sim.batches,
        mean_batch_pairs: if sim.batches > 0 {
            sim.batched_pairs as f64 / sim.batches as f64
        } else {
            0.0
        },
        peak_tenant_in_flight: peak,
        lanes_retired: sim.lane_retired.iter().filter(|r| **r).count(),
        recoveries: sim.recoveries,
        mean_recovery_s: if sim.recoveries > 0 {
            sim.recovery_s_sum / sim.recoveries as f64
        } else {
            0.0
        },
        trace: sim.trace,
        outcomes,
    }
}

/// Nearest-rank percentile of an ascending-sorted sample; 0.0 on empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
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
        assert_eq!(p.label(), "bursty:5");
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

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
