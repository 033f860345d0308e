//! `serve_cpu_open`: request in, reply out through `logan-serve` on the
//! wall clock, around a real one-thread CPU backend.
//!
//! Open loop: seeded Poisson arrivals at a frozen rate, latency timed
//! from each request's due time by a single generator thread, so a
//! `submit` that blocks on the bounded queue shows as generator lateness
//! and later requests still count their wait. Closed loop: a fixed number
//! of outstanding requests, for the saturation rate.

use crate::gen::{self, Digest, PairShapes, Rng};
use crate::meter::{self, CpuMask};
use crate::metrics::{Outcome, Request, Scale};
use crate::pairs::{digest_results, read_pair};
use crate::trace::{Scope, TracedBackend, Tracer, ALIGN_SPAN};
use logan_align::{Engine, SeedExtendResult, XDropCpuAligner};
use logan_core::{AlignBackend, LoganConfig, LoganExecutor};
use logan_gpusim::DeviceSpec;
use logan_seq::readsim::ReadPair;
use logan_seq::{Alphabet, Scoring};
use logan_serve::{simulate, ReplyHandle, ServeConfig, Server, SimConfig, SimOutcome, SimRequest};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_cpu_open";
const X: i32 = 50;
const POOL_PAIRS: usize = 512;
const TENANTS: usize = 4;
/// Open-loop arrival rate, requests per second: 0.55 of the closed-loop
/// saturation rate measured at the commit that froze it.
const OPEN_RATE: f64 = 800.0;
/// Requests outstanding in the closed loop.
const OUTSTANDING: usize = 64;
/// Seconds one open-loop repetition lasts (requests / rate). Repetitions
/// are short and many because the box stalls for 20-100 ms now and then:
/// a stall spoils the tail of the repetition it falls in, and the median
/// over seven repetitions shrugs off two of them.
const NOMINAL_REP_S: f64 = 2.0;
/// Longest the generator sleeps between polls.
const POLL: Duration = Duration::from_micros(100);
/// Offered rate of the simulated-clock schedule, requests per simulated
/// second, and its length.
const SIM_RATE: f64 = 600.0;
const SIM_REQUESTS: usize = 300;

struct Sizes {
    open_requests: usize,
    closed_requests: usize,
    warm_requests: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            open_requests: 1600,
            closed_requests: 1000,
            warm_requests: 800,
        },
        Scale::Quick => Sizes {
            open_requests: 400,
            closed_requests: 200,
            warm_requests: 100,
        },
    }
}

/// One request: a tenant and one to four pairs out of the pool.
struct Req {
    tenant: u32,
    pairs: Vec<u16>,
}

/// The generated traffic and what each pool pair must align to.
struct Load {
    pool: Vec<ReadPair>,
    direct: Vec<SeedExtendResult>,
    requests: Vec<Req>,
    /// Due time of each request in seconds from the start of a repetition.
    due: Vec<f64>,
    input_digest: u64,
}

impl Load {
    fn generate(seed: u64, n: usize) -> Load {
        let mut rng = Rng::for_workload(seed, NAME);
        let mut digest = Digest::new();
        let mut shapes = PairShapes::new(&mut rng, (800, 1600));
        let pool: Vec<ReadPair> = (0..POOL_PAIRS)
            .map(|_| {
                let raw = shapes.dna_overlap_pair(&mut rng, 0.15, 17);
                raw.digest_into(&mut digest);
                read_pair(&raw, Alphabet::Dna)
            })
            .collect();
        let requests: Vec<Req> = (0..n)
            .map(|_| Req {
                tenant: rng.below(TENANTS) as u32,
                pairs: (0..rng.between(1, 4))
                    .map(|_| rng.below(POOL_PAIRS) as u16)
                    .collect(),
            })
            .collect();
        let due = gen::poisson_schedule(&mut rng, n, OPEN_RATE);
        for (r, t) in requests.iter().zip(&due) {
            digest.word(r.tenant as u64);
            r.pairs.iter().for_each(|&p| digest.word(p as u64));
            digest.word(t.to_bits());
        }
        Load {
            pool,
            direct: Vec::new(),
            requests,
            due,
            input_digest: digest.finish(),
        }
    }

    /// Request bodies are built before a repetition starts, so the
    /// generator hands them over without copying at submit time.
    fn body(&self, i: usize) -> Vec<ReadPair> {
        self.requests[i]
            .pairs
            .iter()
            .map(|&p| self.pool[p as usize].clone())
            .collect()
    }

    /// A reply is good when it is `Ok` and equals aligning the request's
    /// pairs directly on the backend.
    fn reply_ok(&self, i: usize, reply: logan_serve::Reply) -> bool {
        match reply {
            Ok(response) => {
                let want = self.requests[i]
                    .pairs
                    .iter()
                    .map(|&p| &self.direct[p as usize]);
                response.results.len() == self.requests[i].pairs.len()
                    && response
                        .results
                        .iter()
                        .zip(want)
                        .all(|(got, want)| got == want)
            }
            Err(_) => false,
        }
    }
}

struct OpenLoop {
    latency_ms: Vec<f64>,
    submit_us: Vec<f64>,
    late_ms_max: f64,
    /// First due time to last reply, seconds.
    window_s: f64,
    bad_replies: usize,
}

/// One open-loop repetition over requests `first..first + n` of the load,
/// each due at its scheduled time after the segment's start.
fn open_loop(server: &Server, load: &Load, first: usize, n: usize) -> OpenLoop {
    let origin = if first == 0 { 0.0 } else { load.due[first - 1] };
    let due: Vec<f64> = load.due[first..first + n]
        .iter()
        .map(|t| t - origin)
        .collect();
    let mut bodies: Vec<Vec<ReadPair>> = (first..first + n).map(|i| load.body(i)).collect();
    let mut run = OpenLoop {
        latency_ms: Vec::with_capacity(n),
        submit_us: Vec::with_capacity(n),
        late_ms_max: 0.0,
        window_s: 0.0,
        bad_replies: 0,
    };
    let mut pending: VecDeque<(usize, ReplyHandle)> = VecDeque::new();
    let mut next = 0;
    let start = Instant::now();
    while next < n || !pending.is_empty() {
        while next < n && due[next] <= start.elapsed().as_secs_f64() {
            let body = std::mem::take(&mut bodies[next]);
            let before = start.elapsed().as_secs_f64();
            let handle = server.submit(load.requests[first + next].tenant, body);
            let after = start.elapsed().as_secs_f64();
            run.late_ms_max = run.late_ms_max.max((before - due[next]) * 1e3);
            run.submit_us.push((after - before) * 1e6);
            pending.push_back((next, handle));
            next += 1;
        }
        // Replies come back in submission order (one FIFO lane), so poll
        // from the oldest until one is not in yet.
        while let Some(reply) = pending.front().and_then(|(_, h)| h.try_recv()) {
            let (i, _) = pending.pop_front().expect("front was just polled");
            let now = start.elapsed().as_secs_f64();
            run.latency_ms.push((now - due[i]) * 1e3);
            run.bad_replies += !load.reply_ok(first + i, reply) as usize;
            run.window_s = now - due[0];
        }
        let until_due = if next < n {
            (due[next] - start.elapsed().as_secs_f64()).max(0.0)
        } else {
            f64::INFINITY
        };
        std::thread::sleep(POLL.min(Duration::try_from_secs_f64(until_due).unwrap_or(POLL)));
    }
    run
}

/// Closed loop over the first `n` requests with `outstanding` in flight;
/// returns `(wall seconds, bad replies)`.
fn closed_loop(server: &Server, load: &Load, n: usize, outstanding: usize) -> (f64, usize) {
    let mut bodies: Vec<Vec<ReadPair>> = (0..n).map(|i| load.body(i)).collect();
    let mut pending: VecDeque<(usize, ReplyHandle)> = VecDeque::new();
    let mut bad = 0;
    let start = Instant::now();
    for (i, body) in bodies.iter_mut().enumerate() {
        if pending.len() == outstanding {
            let (j, handle) = pending.pop_front().expect("outstanding is at least one");
            bad += !load.reply_ok(j, handle.recv()) as usize;
        }
        let handle = server.submit(load.requests[i].tenant, std::mem::take(body));
        pending.push_back((i, handle));
    }
    for (j, handle) in pending {
        bad += !load.reply_ok(j, handle.recv()) as usize;
    }
    (start.elapsed().as_secs_f64(), bad)
}

/// Where the two threads run. Left to the scheduler, the generator and
/// the lane share a CPU in some processes and not in others: sharing one,
/// `submit` is quicker (2.4 against 8.5 us, no cross-CPU wake-up) but
/// open-loop latency is a fifth higher at the median, up to ten times at
/// the 90th percentile, and no longer repeats. So the lane is bound to
/// the second allowed CPU (it inherits the mask in force when the server
/// starts) and the generator to the first. With one CPU allowed nothing
/// is bound. The original mask returns when the workload ends.
struct Placement {
    original: Option<CpuMask>,
    /// `(generator, lane)`.
    split: Option<(CpuMask, CpuMask)>,
}

impl Placement {
    fn new() -> Placement {
        let original = CpuMask::current();
        let split = original.and_then(|m| match m.cpus().as_slice() {
            [first, second, ..] => Some((CpuMask::single(*first), CpuMask::single(*second))),
            _ => None,
        });
        if let Some((generator, _)) = split {
            generator.apply();
        }
        Placement { original, split }
    }

    fn start_server(&self, backend: Arc<dyn AlignBackend>) -> Server {
        if let Some((_, lane)) = self.split {
            lane.apply();
        }
        let server = Server::start(backend, ServeConfig::default())
            .expect("the default serve config is valid");
        if let Some((generator, _)) = self.split {
            generator.apply();
        }
        server
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        if let Some(original) = self.original {
            original.apply();
        }
    }
}

struct Ready {
    load: Load,
    aligner: Arc<XDropCpuAligner>,
    server: Server,
    placement: Placement,
    setup_s: f64,
}

/// Generate the traffic and start the server (three times, median
/// taken), align the pool directly for the oracle, then warm the server
/// with a short closed loop.
fn set_up(req: &Request) -> Ready {
    let sizes = sizes(req.scale);
    // Every open-loop repetition gets its own stretch of the schedule.
    let n = req.reps(NOMINAL_REP_S) * sizes.open_requests;
    let placement = Placement::new();
    let ((mut load, aligner, server), prep_s) = meter::thrice(|| {
        let load = Load::generate(req.seed, n);
        let aligner = Arc::new(XDropCpuAligner::new(
            1,
            Scoring::default(),
            X,
            Engine::Adaptive,
        ));
        let server = placement.start_server(aligner.clone());
        (load, aligner, server)
    });
    let start = Instant::now();
    load.direct = aligner.align_block(&load.pool).0;
    closed_loop(&server, &load, sizes.warm_requests, OUTSTANDING);
    let warm_s = start.elapsed().as_secs_f64();
    Ready {
        load,
        aligner,
        server,
        placement,
        setup_s: prep_s + warm_s,
    }
}

pub fn run(req: &Request, golden: Option<u64>) -> Outcome {
    let mut out = Outcome::default();
    let sizes = sizes(req.scale);
    let ready = set_up(req);
    let (load, server) = (&ready.load, &ready.server);
    out.input_digest = load.input_digest;
    out.output_digest = digest_results(&load.direct);
    out.set("setup_s", ready.setup_s);
    out.check_golden(NAME, golden);

    let reps = req.reps(NOMINAL_REP_S);
    // Open loop: every reply checked under scheduled arrivals, and the
    // memory high-water mark. Its latencies are per-layer metrics (`trace`).
    let mut peaks = Vec::new();
    for rep in 0..reps {
        meter::reset_peak();
        let open = open_loop(server, load, rep * sizes.open_requests, sizes.open_requests);
        peaks.push(meter::peak_mib());
        out.attempted += sizes.open_requests as u64;
        out.failed += open.bad_replies as u64;
    }
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (wall_s, bad) = closed_loop(server, load, sizes.closed_requests, OUTSTANDING);
        out.attempted += sizes.closed_requests as u64;
        out.failed += bad as u64;
        rates.push(sizes.closed_requests as f64 / wall_s);
        walls.push(wall_s);
    }
    if out.failed > 0 {
        out.failures.push(format!(
            "{NAME}: {} replies were not Ok and equal to direct alignment",
            out.failed
        ));
    }
    out.push("saturation_req_per_s", rates);
    out.push("wall_s", walls);
    out.push("peak_mib", peaks);
    // Truth is direct alignment of each request's pairs: recall is the
    // share of requests answered with it, precision the share of answers
    // that are it. Both are 1 unless a reply check failed.
    let good = 1.0 - out.failed as f64 / out.attempted as f64;
    out.set("recall", good);
    out.set("precision", good);
    let stats = server.shutdown();
    out.check(stats.completed == stats.submitted, || {
        format!("{NAME}: the server's ledger shows {stats:?}")
    });
    out
}

pub fn trace(req: &Request, tracer: &Arc<Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let sizes = sizes(req.scale);
    let ready = set_up(req);
    let load = &ready.load;
    out.input_digest = load.input_digest;
    out.output_digest = digest_results(&load.direct);

    // One request at a time, each followed by aligning the same pairs
    // directly: what the service adds when nothing queues.
    let overhead_us: Vec<f64> = (0..sizes.closed_requests.min(400))
        .map(|i| {
            let sent = Instant::now();
            let reply = ready
                .server
                .submit(load.requests[i].tenant, load.body(i))
                .recv();
            let served = sent.elapsed().as_secs_f64();
            out.check(load.reply_ok(i, reply), || {
                format!("{NAME}: unloaded request {i}")
            });
            let body = load.body(i);
            let direct = Instant::now();
            std::hint::black_box(ready.aligner.align_block(&body));
            (served - direct.elapsed().as_secs_f64()) * 1e6
        })
        .collect();
    out.set("serve.unloaded_overhead_us", meter::median(&overhead_us));

    // The traced server: the same aligner behind a decorator that records
    // one span per coalesced batch.
    let op = tracer.new_op();
    let traced = Arc::new(TracedBackend::new(
        ready.aligner.clone(),
        Scope {
            tracer: tracer.clone(),
            parent: None,
            op,
        },
    ));
    let server = ready.placement.start_server(traced.clone());
    let open = open_loop(&server, load, 0, sizes.open_requests);
    out.attempted += sizes.open_requests as u64;
    out.failed += open.bad_replies as u64;
    let stats = server.stats();
    let busy_s = tracer.busy(ALIGN_SPAN, op);
    crate::kernel::extend_metrics(&mut out, busy_s, &traced.report());
    out.set("serve.lane_busy_share", busy_s / open.window_s);
    out.set("serve.submit_us_p50", meter::median(&open.submit_us));
    out.set("serve.batches", stats.batches as f64);
    out.set(
        "serve.mean_batch_pairs",
        stats.batched_pairs as f64 / stats.batches as f64,
    );
    out.set(
        "serve.coalesced_share",
        stats.coalesced_batches as f64 / stats.batches as f64,
    );
    out.set(
        "serve.latency_p50_ms",
        meter::percentile(&open.latency_ms, 0.5),
    );
    out.set(
        "serve.latency_p90_ms",
        meter::percentile(&open.latency_ms, 0.9),
    );
    out.set(
        "serve.latency_p99_ms",
        meter::percentile(&open.latency_ms, 0.99),
    );
    out.set("serve.generator_late_ms_max", open.late_ms_max);

    // Closed loops on the untraced and the traced server in turn: single
    // loops of a second differ by more than the overhead being measured.
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (server, walls) in [
            (&ready.server, &mut untraced_walls),
            (&server, &mut traced_walls),
        ] {
            let (wall_s, bad) = closed_loop(server, load, sizes.closed_requests, OUTSTANDING);
            out.attempted += sizes.closed_requests as u64;
            out.failed += bad as u64;
            walls.push(wall_s);
        }
    }
    let (untraced_wall, traced_wall) =
        (meter::median(&untraced_walls), meter::median(&traced_walls));
    out.set(
        "trace.overhead_share",
        (traced_wall - untraced_wall) / untraced_wall,
    );
    out.set("trace.wall_s", traced_wall);
    let closed_pairs: usize = load.requests[..sizes.closed_requests]
        .iter()
        .map(|r| r.pairs.len())
        .sum();
    let start = Instant::now();
    std::hint::black_box(ready.aligner.align_block(&load.pool));
    let direct_pairs_per_s = POOL_PAIRS as f64 / start.elapsed().as_secs_f64();
    out.set(
        "serve.saturation_over_direct",
        closed_pairs as f64 / untraced_wall / direct_pairs_per_s,
    );
    ready.server.shutdown();
    server.shutdown();

    let sub = crate::kernel::subsample(&load.pool, crate::kernel::LADDER_PAIRS);
    crate::kernel::ladder_metrics(&mut out, &sub, Scoring::default().into(), X);
    simulated(&mut out, load);
    out
}

/// The service's own discrete-event simulator on a fixed schedule: the
/// policy's behaviour on the simulated clock, exact by construction.
fn simulated(out: &mut Outcome, load: &Load) {
    let n = SIM_REQUESTS.min(load.requests.len());
    let requests: Vec<SimRequest> = (0..n)
        .map(|i| SimRequest {
            arrival_s: load.due[i] * OPEN_RATE / SIM_RATE,
            tenant: load.requests[i].tenant,
            pairs: load.body(i),
        })
        .collect();
    let config = LoganConfig {
        engine: Engine::Adaptive,
        ..LoganConfig::with_x(X)
    };
    let backend = LoganExecutor::new(DeviceSpec::tiny(), config);
    let cfg = SimConfig {
        serve: ServeConfig {
            queue_depth: 32,
            quota_pairs: 16,
            ..ServeConfig::default()
        },
        ..SimConfig::default()
    };
    let report = simulate(&backend, &cfg, &requests);
    let refused = report
        .outcomes
        .iter()
        .filter(|o| !matches!(o, SimOutcome::Completed { .. }))
        .count();
    out.set("serve.sim.p50_ms", report.p50_s * 1e3);
    out.set("serve.sim.p99_ms", report.p99_s * 1e3);
    out.set("serve.sim.goodput_pairs_per_s", report.goodput_pairs_per_s);
    out.set("serve.sim.refused_share", refused as f64 / n as f64);
}
