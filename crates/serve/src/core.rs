//! The serving state machine, written once, which the threaded
//! [`crate::Server`], the simulator in [`crate::sim`] and the order
//! explorer in this file's tests all drive. [`ServeCore`] holds no
//! backend and reads no clock; time is an argument. Its events are
//! `submit`, `take` (a retried batch first, then a fresh one), `finish`
//! (an attempt's results or [`BackendError`], judged by the
//! [`Supervisor`]: retry here after a delay, or a [`Settle`]), `settle`
//! (scatter, fail or move the batch: the server settles at once, the
//! simulator when its clock ends the lane's busy period), `expire` and
//! `close`. Its effects are replies, drained from an outbox with
//! [`ServeCore::take_replies`] and keyed by the driver's token (a reply
//! channel, an arrival index), lane retirement, and retry delays.
//!
//! **Lane retirement and the last-lane drain**, the one rule: a
//! fail-stop, or a panic on an unsupervised core, retires the lane; when
//! no live lane is left and no batch is in flight, everything queued or
//! awaiting retry fails, and later submissions fail at once.

use crate::admission::Admission;
use crate::coalesce::{Batch, Coalescer};
use crate::config::ServeConfig;
use crate::request::{AlignResponse, Reply, RequestId, ServeError, TenantId};
use logan_align::SeedExtendResult;
use logan_core::faults::{
    catch_align, BackendError, BlockLedger, SupervisePolicy, Supervisor, TraceEvent, Verdict,
};
use logan_core::{AlignBackend, BackendReport};
use logan_seq::readsim::ReadPair;
use std::collections::{BTreeMap, VecDeque};

/// Salt of the core's jitter stream (independent of
/// [`logan_core::Supervised`]'s, so the two replay independently).
const JITTER_SALT: u64 = 0x5EED_0F5A_FE00_0001;

/// Why requests fail once no lane is left to serve them.
const ALL_RETIRED: &str = "all backend lanes retired";

/// The one way a driver runs a batch on a lane: the fallible path, with
/// a panic caught as [`BackendError::Panic`].
pub(crate) fn run_batch(
    backend: &dyn AlignBackend,
    lane: usize,
    pairs: &[ReadPair],
) -> Result<(Vec<SeedExtendResult>, BackendReport), BackendError> {
    catch_align(|| backend.try_align_block_on(lane, pairs)).and_then(|r| r)
}

/// Lifetime counters of one serving core, returned by
/// [`crate::Server::shutdown`]. `submitted == completed + failed +
/// over_quota + rejected_shutdown + deadline_exceeded` once the core has
/// drained — the exactly-once ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ServeStats {
    /// Requests submitted (including refused ones).
    pub submitted: usize,
    /// Requests answered with results.
    pub completed: usize,
    /// Requests answered with [`ServeError::BackendFailed`].
    pub failed: usize,
    /// Requests refused at admission ([`ServeError::OverQuota`]).
    pub over_quota: usize,
    /// Requests refused because shutdown had begun.
    pub rejected_shutdown: usize,
    /// Requests evicted from the queue past their deadline
    /// ([`ServeError::DeadlineExceeded`]).
    pub deadline_exceeded: usize,
    /// Batches formed from the queue (a retried or moved batch counts
    /// once).
    pub batches: usize,
    /// Pairs across all batches.
    pub batched_pairs: usize,
    /// Batches that coalesced more than one request.
    pub coalesced_batches: usize,
    /// Largest single batch, in pairs.
    pub max_batch_pairs: usize,
    /// Lanes retired by a fail-stop, or by a panic when unsupervised.
    pub lanes_retired: usize,
}

/// One batch out on a lane, with its fault history.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    /// Trace id: the dispatch number of the batch's first take.
    pub(crate) block: u64,
    pub(crate) batch: Batch,
    ledger: BlockLedger,
    /// When the batch first faulted, on the driver's clock — the
    /// driver's own note for its recovery metric; the core never
    /// reads it.
    pub(crate) faulted_at: Option<f64>,
}

/// What [`ServeCore::finish`] decided.
pub(crate) enum Step {
    /// Attempt the batch again on the same lane after `delay_s`.
    Retry { job: Job, delay_s: f64 },
    /// The lane is done with the batch: apply it with
    /// [`ServeCore::settle`].
    Done(Settle),
}

/// A finished batch, waiting to be applied.
#[derive(Debug, Clone)]
pub(crate) enum Settle {
    /// Scatter the results to the batch's requests.
    Served(Job, Vec<SeedExtendResult>),
    /// Fail the batch's requests.
    Failed(Job, String),
    /// Queue the batch for a lane the retake rule admits.
    Moved(Job),
}

#[derive(Debug, Clone)]
struct Assembly<T> {
    tenant: TenantId,
    slots: Vec<Option<SeedExtendResult>>,
    filled: usize,
    batches: usize,
    token: T,
}

/// The clockless serving state machine; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct ServeCore<T> {
    cfg: ServeConfig,
    /// `false`: one request per batch (the simulator's baseline).
    coalesce: bool,
    queue: Coalescer,
    retry: VecDeque<Job>,
    admission: Admission,
    assemblies: BTreeMap<RequestId, Assembly<T>>,
    supervisor: Supervisor,
    /// Bare panics retire a lane only without a policy.
    supervised: bool,
    retired: Vec<bool>,
    /// Batches taken and not yet settled.
    in_flight: usize,
    closed: bool,
    dispatches: u64,
    stats: ServeStats,
    /// `Some` when the driver keeps a supervision trace.
    trace: Option<Vec<TraceEvent>>,
    replies: Vec<(T, Reply)>,
}

impl<T> ServeCore<T> {
    /// A core for `lanes` lanes under a validated `cfg`.
    pub(crate) fn new(
        cfg: ServeConfig,
        lanes: usize,
        supervise: Option<SupervisePolicy>,
        coalesce: bool,
        tracing: bool,
    ) -> ServeCore<T> {
        ServeCore {
            queue: Coalescer::new(cfg.batch_pairs),
            admission: Admission::new(cfg.quota_pairs),
            cfg,
            coalesce,
            retry: VecDeque::new(),
            assemblies: BTreeMap::new(),
            supervisor: Supervisor::new(supervise, JITTER_SALT),
            supervised: supervise.is_some(),
            retired: vec![false; lanes.max(1)],
            in_flight: 0,
            closed: false,
            dispatches: 0,
            stats: ServeStats::default(),
            trace: tracing.then(Vec::new),
            replies: Vec::new(),
        }
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    fn live(&self) -> usize {
        self.retired.iter().filter(|r| !**r).count()
    }

    /// A request arrives at `now`. It is answered at once — empty (with
    /// no results), after shutdown, with no live lane, or over quota —
    /// or queued until its single reply. `Err` hands the request back
    /// untouched and uncounted: the queue holds `queue_depth` requests.
    pub(crate) fn submit(
        &mut self,
        tenant: TenantId,
        pairs: Vec<ReadPair>,
        token: T,
        now: f64,
    ) -> Result<RequestId, (T, Vec<ReadPair>)> {
        let refusal = if pairs.is_empty() {
            None
        } else if self.closed {
            Some(ServeError::ShuttingDown)
        } else if self.live() == 0 {
            Some(ServeError::BackendFailed {
                detail: ALL_RETIRED.into(),
            })
        } else if self.queue.pending_requests() >= self.cfg.queue_depth {
            return Err((token, pairs));
        } else {
            self.admission.try_admit(tenant, pairs.len()).err()
        };
        let id = self.stats.submitted as RequestId;
        self.stats.submitted += 1;
        if let Some(err) = refusal {
            self.answer(token, Err(err));
        } else if pairs.is_empty() {
            let results = Vec::new();
            self.answer(
                token,
                Ok(AlignResponse {
                    id,
                    results,
                    batches: 0,
                }),
            );
        } else {
            let slots = vec![None; pairs.len()];
            let (filled, batches) = (0, 0);
            let assembly = Assembly {
                tenant,
                slots,
                filled,
                batches,
                token,
            };
            self.assemblies.insert(id, assembly);
            self.queue.push_at(id, pairs, now);
        }
        Ok(id)
    }

    /// Queue `reply` for `token`, and count it in the ledger.
    fn answer(&mut self, token: T, reply: Reply) {
        let s = &mut self.stats;
        *match &reply {
            Ok(_) => &mut s.completed,
            Err(ServeError::OverQuota { .. }) => &mut s.over_quota,
            Err(ServeError::ShuttingDown) => &mut s.rejected_shutdown,
            Err(ServeError::DeadlineExceeded) => &mut s.deadline_exceeded,
            Err(ServeError::BackendFailed { .. }) => &mut s.failed,
        } += 1;
        self.replies.push((token, reply));
    }

    /// Work for live `lane`: the first retried batch the retake rule
    /// ([`BlockLedger::may_take`]) lets it take, else a fresh batch.
    pub(crate) fn take(&mut self, lane: usize) -> Option<Job> {
        if self.retired[lane] {
            return None;
        }
        let retired = &self.retired;
        let moved = self
            .retry
            .iter()
            .position(|job| job.ledger.may_take(lane, retired.len(), |l| !retired[l]));
        let job = if let Some(idx) = moved {
            let job = self.retry.remove(idx)?;
            if let Some(from) = job.ledger.last_failed().filter(|&from| from != lane) {
                self.record(TraceEvent::Redispatch {
                    block: job.block,
                    from,
                    to: lane,
                });
            }
            job
        } else {
            let batch = if self.coalesce {
                self.queue.next_batch()
            } else {
                self.queue.next_request_batch()
            }?;
            let stats = &mut self.stats;
            stats.batches += 1;
            stats.batched_pairs += batch.pairs.len();
            stats.coalesced_batches += batch.is_coalesced() as usize;
            stats.max_batch_pairs = stats.max_batch_pairs.max(batch.pairs.len());
            Job {
                block: self.dispatches,
                batch,
                ledger: BlockLedger::default(),
                faulted_at: None,
            }
        };
        self.dispatches += 1;
        self.in_flight += 1;
        self.record(TraceEvent::Attempt {
            lane,
            block: job.block,
        });
        Some(job)
    }

    /// An attempt of `job` on `lane` ended. A failure retires the lane
    /// if the rule says so, and the supervisor's verdict decides the
    /// rest: retry here (the retry's attempt is recorded now), or settle.
    pub(crate) fn finish(
        &mut self,
        lane: usize,
        mut job: Job,
        result: Result<Vec<SeedExtendResult>, BackendError>,
    ) -> Step {
        let err = match result {
            Ok(results) => return Step::Done(Settle::Served(job, results)),
            Err(err) => err,
        };
        self.record(TraceEvent::Fault {
            lane,
            block: job.block,
            kind: err.kind(),
        });
        let bare_panic = !self.supervised && matches!(err, BackendError::Panic { .. });
        if (err.retires_lane() || bare_panic) && !self.retired[lane] {
            self.retired[lane] = true;
            self.stats.lanes_retired += 1;
            self.record(TraceEvent::LaneDead { lane });
        }
        let verdict = self.supervisor.verdict(&mut job.ledger, lane, &err);
        if let Some(event) = verdict.event(lane, job.block) {
            self.record(event);
        }
        match verdict {
            Verdict::Retry { delay_s, .. } => {
                self.record(TraceEvent::Attempt {
                    lane,
                    block: job.block,
                });
                Step::Retry { job, delay_s }
            }
            Verdict::Move => Step::Done(Settle::Moved(job)),
            Verdict::Poison { lanes } => {
                let detail = err.to_string();
                let poison = BackendError::Poison { detail, lanes };
                Step::Done(Settle::Failed(job, poison.to_string()))
            }
            Verdict::Fail => Step::Done(Settle::Failed(job, err.to_string())),
        }
    }

    /// Apply a finished batch, then the last-lane drain.
    pub(crate) fn settle(&mut self, settle: Settle) {
        self.in_flight -= 1;
        match settle {
            Settle::Served(job, results) => self.scatter(&job.batch, results),
            Settle::Failed(job, detail) => {
                for span in &job.batch.spans {
                    self.fail(span.req, &detail);
                }
            }
            Settle::Moved(job) => self.retry.push_back(job),
        }
        if self.live() == 0 && self.in_flight == 0 {
            self.fail_all(ALL_RETIRED);
        }
    }

    /// Scatter one served batch; a request whose last pair this fills
    /// gets its reply. A request another batch already failed has left
    /// the table, and its surviving slices are dropped.
    fn scatter(&mut self, batch: &Batch, results: Vec<SeedExtendResult>) {
        debug_assert_eq!(results.len(), batch.pairs.len());
        let mut off = 0;
        for span in &batch.spans {
            let chunk = &results[off..off + span.len];
            off += span.len;
            let Some(a) = self.assemblies.get_mut(&span.req) else {
                continue;
            };
            for (slot, r) in a.slots[span.offset..].iter_mut().zip(chunk) {
                debug_assert!(slot.is_none(), "pair filled twice");
                *slot = Some(*r);
            }
            a.filled += span.len;
            a.batches += 1;
            if a.filled == a.slots.len() {
                let a = self.assemblies.remove(&span.req).expect("assembly present");
                self.admission.release(a.tenant, a.slots.len());
                let results = a.slots.into_iter().map(|s| s.expect("slot filled"));
                let response = AlignResponse {
                    id: span.req,
                    results: results.collect(),
                    batches: a.batches,
                };
                self.answer(a.token, Ok(response));
            }
        }
    }

    /// Answer open request `id` with `err`, releasing its quota; a
    /// request already answered is left alone.
    fn resolve(&mut self, id: RequestId, err: ServeError) {
        if let Some(a) = self.assemblies.remove(&id) {
            self.admission.release(a.tenant, a.slots.len());
            self.answer(a.token, Err(err));
        }
    }

    fn fail(&mut self, id: RequestId, detail: &str) {
        let detail = detail.to_string();
        self.resolve(id, ServeError::BackendFailed { detail });
    }

    /// Fail every open request and empty both queues: the last-lane
    /// drain, and the server's sweep after its lanes are joined.
    pub(crate) fn fail_all(&mut self, detail: &str) {
        self.queue.clear();
        self.retry.clear();
        while let Some((&id, _)) = self.assemblies.first_key_value() {
            self.fail(id, detail);
        }
    }

    /// Evict requests still fully queued past the deadline at `now`.
    pub(crate) fn expire(&mut self, now: f64) {
        let Some(deadline) = self.cfg.deadline_s else {
            return;
        };
        for id in self.queue.purge_expired(now, deadline) {
            self.resolve(id, ServeError::DeadlineExceeded);
        }
    }

    /// Begin shutdown: later submissions are refused, admitted work
    /// drains.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// True once `lane` will never take work again: it retired, or the
    /// core is closed with nothing queued, awaiting retry or in flight.
    pub(crate) fn lane_done(&self, lane: usize) -> bool {
        self.retired[lane]
            || (self.closed
                && self.queue.is_empty()
                && self.retry.is_empty()
                && self.in_flight == 0)
    }

    /// The replies produced since the last call, in order.
    pub(crate) fn take_replies(&mut self) -> Vec<(T, Reply)> {
        std::mem::take(&mut self.replies)
    }

    /// True when replies are waiting in the outbox.
    pub(crate) fn has_replies(&self) -> bool {
        !self.replies.is_empty()
    }

    pub(crate) fn stats(&self) -> &ServeStats {
        &self.stats
    }

    pub(crate) fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The supervision trace, if the core keeps one.
    pub(crate) fn into_trace(self) -> Vec<TraceEvent> {
        self.trace.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_align::ExtensionResult;
    use logan_seq::readsim::Seed;
    use logan_seq::Seq;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};

    /// The explored requests, `(tenant, pairs)`, against a quota of 3,
    /// a batch cap of 2 and a queue of 2: tenant 0's two requests cannot
    /// both be in flight, tenant 1's request splits across batches, and
    /// one request is empty.
    const REQUESTS: [(TenantId, usize); 4] = [(0, 2), (1, 3), (0, 2), (1, 0)];
    const LANES: usize = 2;
    const DEPTH: usize = 22;
    const MAX_FAULTS: usize = 2;
    const MAX_EXPIRES: usize = 1;

    /// Pair `k` of request `r` carries `10 r + k` as its template
    /// length, and the fake backend echoes it as the score, so a reply
    /// shows which pairs it holds and in what order.
    fn marker(r: usize, k: usize) -> usize {
        10 * r + k
    }

    fn request_pairs(r: usize) -> Vec<ReadPair> {
        (0..REQUESTS[r].1)
            .map(|k| ReadPair {
                query: Seq::new(),
                target: Seq::new(),
                seed: Seed {
                    qpos: 0,
                    tpos: 0,
                    len: 0,
                },
                template_len: marker(r, k),
            })
            .collect()
    }

    fn echo(pairs: &[ReadPair]) -> Vec<SeedExtendResult> {
        pairs
            .iter()
            .map(|p| SeedExtendResult {
                score: p.template_len as i32,
                left: ExtensionResult::zero(),
                right: ExtensionResult::zero(),
                query_start: 0,
                query_end: 0,
                target_start: 0,
                target_end: 0,
            })
            .collect()
    }

    #[derive(Debug, Clone)]
    enum Lane {
        Idle,
        Running(Job),
        Settling(Settle),
    }

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Submit,
        Take(usize),
        /// Finish the lane's attempt: `None` is a success.
        Finish(usize, Option<&'static str>),
        Settle(usize),
        Expire,
        Close,
    }

    fn error(kind: &str) -> BackendError {
        let detail = "injected".to_string();
        match kind {
            "transient" => BackendError::Transient { detail },
            "failstop" => BackendError::FailStop { detail },
            _ => BackendError::Panic { detail },
        }
    }

    /// One explored state: the core, what each lane holds, and the
    /// explorer's own bookkeeping.
    #[derive(Debug, Clone)]
    struct World {
        core: ServeCore<usize>,
        lanes: [Lane; LANES],
        next: usize,
        submitted: usize,
        replies: [u8; REQUESTS.len()],
        now: f64,
        expires: usize,
        closed: bool,
        faults: usize,
    }

    impl World {
        fn new(supervise: Option<SupervisePolicy>) -> World {
            let cfg = ServeConfig {
                batch_pairs: 2,
                queue_depth: 2,
                quota_pairs: 3,
                deadline_s: Some(0.5),
                ..ServeConfig::default()
            };
            World {
                core: ServeCore::new(cfg, LANES, supervise, true, false),
                lanes: [Lane::Idle, Lane::Idle],
                next: 0,
                submitted: 0,
                replies: [0; REQUESTS.len()],
                now: 0.0,
                expires: 0,
                closed: false,
                faults: 0,
            }
        }

        fn events(&self) -> Vec<Event> {
            let mut events = Vec::new();
            if self.next < REQUESTS.len() {
                events.push(Event::Submit);
            }
            for (l, lane) in self.lanes.iter().enumerate() {
                match lane {
                    Lane::Idle => events.push(Event::Take(l)),
                    Lane::Running(_) => {
                        events.push(Event::Finish(l, None));
                        if self.faults < MAX_FAULTS {
                            for kind in ["transient", "failstop", "panic"] {
                                events.push(Event::Finish(l, Some(kind)));
                            }
                        }
                    }
                    Lane::Settling(_) => events.push(Event::Settle(l)),
                }
            }
            if self.expires < MAX_EXPIRES {
                events.push(Event::Expire);
            }
            if !self.closed {
                events.push(Event::Close);
            }
            events
        }

        /// Apply `event`; `false` when it is not enabled here (a full
        /// queue, or a lane with nothing to take).
        fn step(&mut self, event: Event) -> bool {
            match event {
                Event::Submit => {
                    let r = self.next;
                    let (tenant, _) = REQUESTS[r];
                    if self
                        .core
                        .submit(tenant, request_pairs(r), r, self.now)
                        .is_err()
                    {
                        return false;
                    }
                    self.next += 1;
                    self.submitted += 1;
                }
                Event::Take(l) => match self.core.take(l) {
                    Some(job) => self.lanes[l] = Lane::Running(job),
                    None => return false,
                },
                Event::Finish(l, fault) => {
                    let Lane::Running(job) = std::mem::replace(&mut self.lanes[l], Lane::Idle)
                    else {
                        unreachable!("finish on a lane with no batch");
                    };
                    let result = match fault {
                        None => Ok(echo(&job.batch.pairs)),
                        Some(kind) => {
                            self.faults += 1;
                            Err(error(kind))
                        }
                    };
                    self.lanes[l] = match self.core.finish(l, job, result) {
                        Step::Retry { job, .. } => Lane::Running(job),
                        Step::Done(settle) => Lane::Settling(settle),
                    };
                }
                Event::Settle(l) => {
                    let Lane::Settling(settle) = std::mem::replace(&mut self.lanes[l], Lane::Idle)
                    else {
                        unreachable!("settle on a lane with nothing to settle");
                    };
                    self.core.settle(settle);
                }
                Event::Expire => {
                    self.expires += 1;
                    self.now += 1.0;
                    self.core.expire(self.now);
                }
                Event::Close => {
                    self.closed = true;
                    self.core.close();
                }
            }
            true
        }

        /// The invariants, after every step.
        fn check(&mut self) {
            for (r, reply) in self.core.take_replies() {
                self.replies[r] += 1;
                assert_eq!(self.replies[r], 1, "request {r} answered twice");
                if let Ok(response) = reply {
                    let scores: Vec<usize> =
                        response.results.iter().map(|x| x.score as usize).collect();
                    let want: Vec<usize> = (0..REQUESTS[r].1).map(|k| marker(r, k)).collect();
                    assert_eq!(scores, want, "request {r} got someone else's pairs");
                }
            }
            // Each tenant's quota in use is exactly its open requests'
            // pairs, and within the quota.
            let admission = self.core.admission();
            for (tenant, _) in REQUESTS {
                let open: usize = (self.core.assemblies.values())
                    .filter(|a| a.tenant == tenant)
                    .map(|a| a.slots.len())
                    .sum();
                assert_eq!(admission.in_flight(tenant), open, "tenant {tenant}'s quota");
                assert!(
                    open <= self.core.cfg.quota_pairs,
                    "tenant {tenant} over quota"
                );
            }
            let idle = self.lanes.iter().all(|l| matches!(l, Lane::Idle));
            if idle && self.core.assemblies.is_empty() {
                let s = self.core.stats();
                assert_eq!(s.submitted, self.submitted);
                assert_eq!(
                    s.submitted,
                    s.completed
                        + s.failed
                        + s.over_quota
                        + s.rejected_shutdown
                        + s.deadline_exceeded,
                    "the ledger does not balance: {s:?}"
                );
                let answered: usize = self.replies.iter().map(|&n| n as usize).sum();
                assert_eq!(answered, self.submitted, "a request went unanswered");
            }
        }
    }

    /// A job's state: its id, its spans and its fault ledger.
    fn hash_job(job: &Job, h: &mut DefaultHasher) {
        job.block.hash(h);
        for span in &job.batch.spans {
            (span.req, span.offset, span.len).hash(h);
        }
        format!("{:?}", job.ledger).hash(h);
    }

    /// A state's key: everything that decides what can happen next.
    /// The pairs follow from the request ids, and the supervisor's
    /// jitter stream only sets retry delays, which the explorer does
    /// not wait out.
    fn key(w: &World) -> u64 {
        let mut h = DefaultHasher::new();
        let c = &w.core;
        c.queue.cursors().hash(&mut h);
        c.retry.iter().for_each(|job| hash_job(job, &mut h));
        for (id, a) in &c.assemblies {
            let filled: Vec<bool> = a.slots.iter().map(Option::is_some).collect();
            (id, a.tenant, a.filled, a.batches, a.token, filled).hash(&mut h);
        }
        (0..2).for_each(|t| c.admission.in_flight(t).hash(&mut h));
        c.admission.peak_in_flight().hash(&mut h);
        (&c.retired, c.in_flight, c.closed, c.dispatches, &c.stats).hash(&mut h);
        for lane in &w.lanes {
            match lane {
                Lane::Idle => 0.hash(&mut h),
                Lane::Running(job) => {
                    1.hash(&mut h);
                    hash_job(job, &mut h);
                }
                Lane::Settling(Settle::Served(job, _)) => {
                    2.hash(&mut h);
                    hash_job(job, &mut h);
                }
                Lane::Settling(Settle::Failed(job, _)) => {
                    3.hash(&mut h);
                    hash_job(job, &mut h);
                }
                Lane::Settling(Settle::Moved(job)) => {
                    4.hash(&mut h);
                    hash_job(job, &mut h);
                }
            }
        }
        (w.next, w.submitted, w.replies, w.now.to_bits()).hash(&mut h);
        (w.expires, w.closed, w.faults).hash(&mut h);
        h.finish()
    }

    /// Depth-first over every order of events from `world`, at most
    /// `depth` more steps; states already explored with as much depth
    /// left are skipped. Returns the steps taken.
    fn explore(world: &World, depth: usize, seen: &mut HashMap<u64, usize>) -> usize {
        let key = key(world);
        match seen.get(&key) {
            Some(&left) if left >= depth => return 0,
            _ => seen.insert(key, depth),
        };
        let mut steps = 0;
        let mut stuck = true;
        for event in world.events() {
            let mut next = world.clone();
            if !next.step(event) {
                continue;
            }
            stuck = false;
            next.check();
            steps += 1;
            if depth > 1 {
                steps += explore(&next, depth - 1, seen);
            }
        }
        if stuck {
            // Nothing can happen any more: every request must have
            // been submitted and answered.
            assert_eq!(world.next, REQUESTS.len(), "a submission waits forever");
            assert!(
                world.replies.iter().all(|&n| n == 1),
                "a request hangs: {world:?}"
            );
            let open = &world.core.assemblies;
            assert!(open.is_empty(), "an answered request stays open");
        }
        steps
    }

    /// Every order of submit / take / finish (success, transient,
    /// fail-stop, panic) / settle / expire / close over two lanes and
    /// four requests, up to the depth bound, bare and supervised: each
    /// request is answered at most once (exactly once when nothing more
    /// can happen), no tenant exceeds its quota, and once drained the
    /// ledger balances with no quota left in flight.
    #[test]
    fn every_order_keeps_the_exactly_once_ledger() {
        let policy = SupervisePolicy {
            max_retries: 1,
            backoff_base_s: 0.0,
            backoff_max_s: 0.0,
            ..SupervisePolicy::default()
        };
        for (name, supervise) in [("bare", None), ("supervised", Some(policy))] {
            let mut seen = HashMap::new();
            let steps = explore(&World::new(supervise), DEPTH, &mut seen);
            println!(
                "{name}: {steps} steps over {} distinct states explored",
                seen.len()
            );
            assert!(steps > 1000, "{name}: the explorer explored almost nothing");
        }
    }
}
