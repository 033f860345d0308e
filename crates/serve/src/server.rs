//! The threaded server: a long-running daemon over any
//! [`AlignBackend`]. It is the serving core (`core.rs`) behind one
//! mutex, a condition variable, and one thread per backend lane that
//! takes a batch, aligns it outside the lock and hands the outcome back.
//! Replies are sent after the lock is dropped, a retry's backoff is
//! slept outside it, and a full queue blocks the submitter. The lock
//! recovers from poisoning: the core is plain bookkeeping, and a backend
//! panic is caught outside it (`DESIGN.md` §12).
//!
//! Every submission gets exactly one [`Reply`] (`tests/serve_shutdown.rs`
//! drives the core's ledger on threads), and however the coalescer
//! batches or splits requests, a successful reply equals aligning the
//! request's pairs directly on the backend (`tests/serve_equivalence.rs`).

use crate::config::ServeConfig;
pub use crate::core::ServeStats;
use crate::core::{run_batch, ServeCore, Step};
use crate::request::{Reply, ReplyHandle, TenantId};
use logan_core::faults::{lock_recover, SupervisePolicy};
use logan_core::AlignBackend;
use logan_seq::readsim::ReadPair;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Core = ServeCore<mpsc::Sender<Reply>>;

struct Shared {
    backend: Arc<dyn AlignBackend>,
    core: Mutex<Core>,
    cv: Condvar,
    /// Wall-clock origin of the core's time (deadline accounting).
    epoch: Instant,
}

/// Wait on `cv`, recovering the core's guard if a holder panicked
/// while this thread slept (see [`lock_recover`]).
fn wait_recover<'a>(cv: &Condvar, guard: MutexGuard<'a, Core>) -> MutexGuard<'a, Core> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Wake every waiter, drop the lock, then send the replies the core
    /// produced while it was held.
    fn release(&self, mut core: MutexGuard<'_, Core>) {
        let replies = core.take_replies();
        self.cv.notify_all();
        drop(core);
        for (tx, reply) in replies {
            let _ = tx.send(reply);
        }
    }

    /// One lane's loop: take a batch (or wait for one), then attempt it
    /// outside the lock until the core is done with it — a retry here
    /// after its backoff, or a settle. The core decides everything else.
    fn serve_lane(&self, lane: usize) {
        loop {
            let mut core = lock_recover(&self.core);
            let job = loop {
                core.expire(self.now());
                if let Some(job) = core.take(lane) {
                    break Some(job);
                }
                if core.lane_done(lane) || core.has_replies() {
                    break None;
                }
                core = wait_recover(&self.cv, core);
            };
            let done = job.is_none() && core.lane_done(lane);
            self.release(core);
            let Some(mut job) = job else {
                if done {
                    return;
                }
                continue; // deadline evictions answered: wait again
            };
            loop {
                let result = run_batch(&*self.backend, lane, &job.batch.pairs);
                let mut core = lock_recover(&self.core);
                let retry = match core.finish(lane, job, result.map(|(results, _)| results)) {
                    Step::Retry { job, delay_s } => Some((job, delay_s)),
                    Step::Done(settle) => {
                        core.settle(settle);
                        None
                    }
                };
                self.release(core);
                let Some((again, delay_s)) = retry else {
                    break;
                };
                std::thread::sleep(Duration::try_from_secs_f64(delay_s).unwrap_or_default());
                job = again;
            }
        }
    }
}

/// The always-on alignment service over one [`AlignBackend`]. Cheap to
/// share by reference across client threads ([`Server::submit`] takes
/// `&self`); consumed logically by [`Server::shutdown`], which is also
/// run by `Drop` so an abandoned server still drains and joins.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Start serving: validates `cfg`, then spawns one worker thread
    /// per backend lane ([`AlignBackend::lanes`]), each feeding its
    /// lane via [`AlignBackend::try_align_block_on`] — a fleet backend
    /// gets one server lane per member, a single device gets one.
    /// Unsupervised: a failed batch fails its requests.
    pub fn start(backend: Arc<dyn AlignBackend>, cfg: ServeConfig) -> Result<Server, String> {
        Server::start_with(backend, cfg, None)
    }

    /// [`Server::start`], with the serving core applying `supervise`'s
    /// verdicts to failed batches: a retry on the lane after a backoff,
    /// a move to another lane, or a poison failure (`DESIGN.md` §12).
    pub fn start_with(
        backend: Arc<dyn AlignBackend>,
        cfg: ServeConfig,
        supervise: Option<SupervisePolicy>,
    ) -> Result<Server, String> {
        let cfg = cfg.validated()?;
        // The config's score profile (the `matrix=` knob) is a promise
        // to clients about the scoring system replies are expressed in;
        // a backend that declares a different fixed profile would
        // silently break it, so refuse up front.
        if let Some((got, _)) = backend.profile_params() {
            if got != cfg.profile {
                return Err(format!(
                    "serve config: backend aligns under profile {got} but the config requests {} — rebuild the backend with the config's profile",
                    cfg.profile
                ));
            }
        }
        let lanes = backend.lanes().max(1);
        let shared = Arc::new(Shared {
            core: Mutex::new(ServeCore::new(cfg, lanes, supervise, true, false)),
            cv: Condvar::new(),
            epoch: Instant::now(),
            backend,
        });
        // Each lane joins the server as it spawns: if a later spawn
        // fails, dropping the server closes the core and joins the
        // lanes already waiting on it.
        let server = Server {
            shared,
            workers: Mutex::new(Vec::with_capacity(lanes)),
        };
        for lane in 0..lanes {
            let worker = spawn_lane(Arc::clone(&server.shared), lane)
                .map_err(|e| format!("failed to spawn serve lane {lane}: {e}"))?;
            lock_recover(&server.workers).push(worker);
        }
        Ok(server)
    }

    /// Submit a request. Returns immediately with a [`ReplyHandle`]
    /// that will yield the request's single [`Reply`] — unless the
    /// bounded submission queue is full, in which case this call
    /// *blocks* until a lane frees space (the closed-loop backpressure
    /// rule: clients slow down rather than the queue growing without
    /// bound).
    ///
    /// Refusals are immediate replies: over-quota requests, requests
    /// after [`Server::shutdown`] began, requests after every lane
    /// retired. An empty request is answered immediately with empty
    /// results — there is nothing to align.
    pub fn submit(&self, tenant: TenantId, pairs: Vec<ReadPair>) -> ReplyHandle {
        let shared = &self.shared;
        let (tx, rx) = mpsc::channel();
        let mut core = lock_recover(&shared.core);
        let mut request = (tx, pairs);
        let id = loop {
            match core.submit(tenant, request.1, request.0, shared.now()) {
                Ok(id) => break id,
                Err(full) => {
                    request = full;
                    core = wait_recover(&shared.cv, core);
                }
            }
        };
        shared.release(core);
        ReplyHandle { id, rx }
    }

    /// Graceful shutdown: refuse new submissions, drain every queued
    /// and in-flight request to its reply, join the lanes, and return
    /// the lifetime stats. Idempotent — later calls just return the
    /// (final) stats again.
    pub fn shutdown(&self) -> ServeStats {
        lock_recover(&self.shared.core).close();
        self.shared.cv.notify_all();
        let workers: Vec<_> = lock_recover(&self.workers).drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
        // Defensive sweep: with the lanes joined, every admitted
        // request has been answered, unless a lane thread died outside
        // its batch. A late error reply still beats a client waiting
        // forever.
        let mut core = lock_recover(&self.shared.core);
        core.fail_all("server shut down with the request unreplied");
        let stats = core.stats().clone();
        self.shared.release(core);
        stats
    }

    /// Lifetime counters so far (shutdown returns the final ledger).
    pub fn stats(&self) -> ServeStats {
        lock_recover(&self.shared.core).stats().clone()
    }
}

/// Start `lane`'s worker thread.
fn spawn_lane(shared: Arc<Shared>, lane: usize) -> std::io::Result<JoinHandle<()>> {
    #[cfg(test)]
    if tests::FAIL_SPAWN_AT.get() == Some(lane) {
        return Err(std::io::Error::other("spawn refused by the test hook"));
    }
    std::thread::Builder::new()
        .name(format!("logan-serve-lane-{lane}"))
        .spawn(move || shared.serve_lane(lane))
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ServeError;
    use logan_align::{Engine, SeedExtendResult, XDropCpuAligner};
    use logan_core::faults::BackendError;
    use logan_seq::readsim::PairSet;
    use logan_seq::Scoring;
    use std::cell::Cell;

    thread_local! {
        /// The lane whose spawn [`spawn_lane`] refuses on this thread.
        pub(super) static FAIL_SPAWN_AT: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn cpu_backend() -> Arc<dyn AlignBackend> {
        Arc::new(XDropCpuAligner::new(
            1,
            Scoring::default(),
            50,
            Engine::Scalar,
        ))
    }

    fn reqs(sizes: &[usize], seed: u64) -> Vec<Vec<ReadPair>> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| PairSet::generate_with_lengths(n, 0.2, 150, 400, seed + i as u64).pairs)
            .collect()
    }

    #[test]
    fn start_checks_backend_profile_against_config() {
        use logan_seq::ScoreProfile;
        let blosum = ScoreProfile::blosum62(-6);
        // Backend fixed to BLOSUM62 vs a default (DNA) config: refused
        // up front with a message naming both profiles.
        let backend: Arc<dyn AlignBackend> =
            Arc::new(XDropCpuAligner::new(1, blosum, 50, Engine::Scalar));
        let err = match Server::start(Arc::clone(&backend), ServeConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("mismatched profile must be refused"),
        };
        assert!(
            err.contains("blosum62") && err.contains("dna"),
            "error must name both profiles: {err}"
        );
        // The matching `matrix=` config starts and serves.
        let cfg: ServeConfig = "matrix=blosum62".parse().unwrap();
        let server = Server::start(backend, cfg).unwrap();
        server.shutdown();
    }

    #[test]
    fn serves_and_coalesces_under_a_slow_start() {
        let server = Server::start(
            cpu_backend(),
            ServeConfig {
                batch_pairs: 8,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let requests = reqs(&[2, 3, 1, 4, 2], 11);
        let handles: Vec<_> = requests
            .iter()
            .map(|p| server.submit(0, p.clone()))
            .collect();
        for (h, pairs) in handles.into_iter().zip(&requests) {
            let resp = h.recv().expect("request failed");
            assert_eq!(resp.results.len(), pairs.len());
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.batched_pairs, 12);
        assert_eq!(stats.submitted, 5);
    }

    #[test]
    fn empty_request_replies_immediately() {
        let server = Server::start(cpu_backend(), ServeConfig::default()).unwrap();
        let resp = server.submit(3, Vec::new()).recv().unwrap();
        assert!(resp.results.is_empty());
        assert_eq!(resp.batches, 0);
        assert_eq!(server.shutdown().completed, 1);
    }

    #[test]
    fn over_quota_is_an_immediate_explicit_reply() {
        let server = Server::start(
            cpu_backend(),
            ServeConfig {
                quota_pairs: 3,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let pairs = reqs(&[4], 5).remove(0);
        match server.submit(9, pairs).recv() {
            Err(ServeError::OverQuota {
                tenant, requested, ..
            }) => assert_eq!((tenant, requested), (9, 4)),
            other => panic!("expected OverQuota, got {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!((stats.over_quota, stats.completed), (1, 0));
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let server = Server::start(cpu_backend(), ServeConfig::default()).unwrap();
        server.shutdown();
        let reply = server.submit(0, reqs(&[1], 3).remove(0)).recv();
        assert_eq!(reply, Err(ServeError::ShuttingDown));
        assert_eq!(server.stats().rejected_shutdown, 1);
    }

    /// A thread dying while it holds the core's lock poisons it; with
    /// the recovering lock discipline every later submission and lane
    /// still gets through, so one death cannot cascade into panics.
    #[test]
    fn poisoned_stats_lock_does_not_cascade() {
        let server = Server::start(cpu_backend(), ServeConfig::default()).unwrap();
        // Panic mid-update, exactly as a dying lane would.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = server.shared.core.lock().unwrap();
            panic!("injected: lane died mid-stats-update");
        }));
        assert!(server.shared.core.is_poisoned(), "the lock is poisoned");
        // Unrelated requests still complete, and the ledger still adds up.
        let pairs = reqs(&[3], 21).remove(0);
        let resp = server.submit(0, pairs).recv().expect("server must survive");
        assert_eq!(resp.results.len(), 3);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.submitted, 1);
    }

    /// A backend whose lane sleeps before serving — long enough for a
    /// queued request to age past the test's deadline.
    struct Slow {
        inner: Arc<dyn AlignBackend>,
        delay: std::time::Duration,
    }

    impl AlignBackend for Slow {
        fn name(&self) -> String {
            format!("slow({})", self.inner.name())
        }
        fn throughput_hint(&self) -> f64 {
            self.inner.throughput_hint()
        }
        fn max_block(&self) -> usize {
            self.inner.max_block()
        }
        fn align_block(
            &self,
            block: &[ReadPair],
        ) -> (Vec<SeedExtendResult>, logan_core::BackendReport) {
            std::thread::sleep(self.delay);
            self.inner.align_block(block)
        }
    }

    #[test]
    fn queued_request_past_its_deadline_gets_an_explicit_reply() {
        let server = Server::start(
            Arc::new(Slow {
                inner: cpu_backend(),
                delay: std::time::Duration::from_millis(200),
            }),
            ServeConfig {
                batch_pairs: 2,
                deadline_s: Some(0.02),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // A fills the first batch exactly and holds the only lane for
        // 200 ms. Wait until it is actually in flight (so A itself can
        // never be the one purged), then queue B, which ages past the
        // 20 ms deadline while the lane sleeps.
        let a = server.submit(0, reqs(&[2], 31).remove(0));
        for _ in 0..500 {
            if server.stats().batches >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(server.stats().batches, 1, "request A must be in flight");
        let b = server.submit(0, reqs(&[1], 32).remove(0));
        assert_eq!(
            a.recv().expect("in-flight request completes").results.len(),
            2
        );
        assert_eq!(b.recv(), Err(ServeError::DeadlineExceeded));
        let stats = server.shutdown();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(
            stats.submitted,
            stats.completed
                + stats.failed
                + stats.over_quota
                + stats.rejected_shutdown
                + stats.deadline_exceeded,
            "the exactly-once ledger balances"
        );
    }

    /// A backend returning transient errors for the first `fails`
    /// fallible calls, then healthy.
    struct Flaky {
        inner: Arc<dyn AlignBackend>,
        fails: Mutex<usize>,
    }

    impl AlignBackend for Flaky {
        fn name(&self) -> String {
            format!("flaky({})", self.inner.name())
        }
        fn throughput_hint(&self) -> f64 {
            self.inner.throughput_hint()
        }
        fn max_block(&self) -> usize {
            self.inner.max_block()
        }
        fn align_block(
            &self,
            block: &[ReadPair],
        ) -> (Vec<SeedExtendResult>, logan_core::BackendReport) {
            self.inner.align_block(block)
        }
        fn try_align_block_on(
            &self,
            lane: usize,
            block: &[ReadPair],
        ) -> Result<(Vec<SeedExtendResult>, logan_core::BackendReport), BackendError> {
            let mut fails = self.fails.lock().unwrap();
            if *fails > 0 {
                *fails -= 1;
                return Err(BackendError::Transient {
                    detail: "simulated ECC hiccup".into(),
                });
            }
            drop(fails);
            self.inner.try_align_block_on(lane, block)
        }
    }

    #[test]
    fn transient_error_fails_the_batch_but_the_lane_keeps_serving() {
        let server = Server::start(
            Arc::new(Flaky {
                inner: cpu_backend(),
                fails: Mutex::new(1),
            }),
            ServeConfig::default(),
        )
        .unwrap();
        // First request hits the transient and fails explicitly…
        match server.submit(0, reqs(&[2], 41).remove(0)).recv() {
            Err(ServeError::BackendFailed { detail }) => {
                assert!(detail.contains("transient"), "{detail}")
            }
            other => panic!("expected BackendFailed, got {other:?}"),
        }
        // …but the lane was not retired: the next request completes.
        let resp = server.submit(0, reqs(&[2], 42).remove(0)).recv().unwrap();
        assert_eq!(resp.results.len(), 2);
        let stats = server.shutdown();
        assert_eq!(
            (stats.failed, stats.completed, stats.lanes_retired),
            (1, 1, 0)
        );
    }

    #[test]
    fn a_failed_later_lane_spawn_joins_the_lanes_already_started() {
        let backend: Arc<dyn AlignBackend> = Arc::new(
            "cpu:1+cpu:1+cpu:1"
                .parse::<logan_core::FleetSpec>()
                .unwrap()
                .build(
                    logan_gpusim::DeviceSpec::v100(),
                    logan_core::LoganConfig::with_x(50),
                ),
        );
        assert_eq!(backend.lanes(), 3);
        FAIL_SPAWN_AT.set(Some(2));
        let started = Server::start(Arc::clone(&backend), ServeConfig::default());
        FAIL_SPAWN_AT.set(None);
        let err = started.err().expect("the third spawn fails");
        assert!(err.contains("serve lane 2"), "{err}");
        // Lanes 0 and 1 were running; they held the backend through the
        // server's shared state until they were joined.
        assert_eq!(Arc::strong_count(&backend), 1);
    }
}
