//! Deterministic fault injection and self-healing supervision for any
//! [`AlignBackend`].
//!
//! Three layers, composable in any order:
//!
//! * [`FaultPlan`] — a seeded, per-lane schedule of injected faults
//!   ([`Fault::Transient`], [`Fault::FailStop`], [`Fault::Degrade`],
//!   [`Fault::Stall`]), fully reproducible from one seed. Parse one
//!   from `SEED:PLAN` strings via [`ChaosSpec`], or generate a
//!   canonical storm with [`FaultPlan::storm`].
//! * [`ChaosBackend`] — wraps any backend and injects the plan's
//!   faults on the *simulated* clock: errors surface as
//!   [`BackendError`] values on the fallible path
//!   ([`AlignBackend::try_align_block_on`]) and as panics on the
//!   infallible path, so unsupervised stacks keep their pre-existing
//!   panic-equals-retirement semantics.
//! * [`Supervisor`] — the one per-block fault rule of the stack.
//!   Clock-free: a block's [`BlockLedger`] (distinct failed lanes,
//!   retries on this lane) and a [`BackendError`] go in, a [`Verdict`]
//!   comes out — retry here after a backoff with seeded jitter, move,
//!   poison (a block that failed on [`SupervisePolicy::poison_lanes`]
//!   distinct lanes fails alone instead of taking the service down), or
//!   fail. [`BlockLedger::may_take`] is the one retake rule: which lane
//!   may take a failed block.
//! * Three callers apply those verdicts, each on its own clock:
//!   [`Supervised`] wraps any backend and sleeps its backoffs;
//!   [`crate::fleet::Fleet`] charges a worker's virtual clock and keeps
//!   its lane-health scoreboard (quarantine → probation → reinstatement)
//!   to itself; `logan-serve`'s serving core hands a backoff to its
//!   driver, which sleeps it (the threaded server) or adds busy seconds
//!   on the simulated clock (the simulator). Every decision is recorded as a [`TraceEvent`];
//!   driven sequentially, the trace is bit-reproducible from the seeds.
//!
//! One seed therefore replays the same storm at every layer. See
//! `DESIGN.md` §12.

use crate::backend::{AlignBackend, BackendReport};
use logan_align::SeedExtendResult;
use logan_seq::readsim::ReadPair;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Mutex, PoisonError};

/// Why a fallible alignment call failed. The variant tells the
/// supervisor how to respond: retry in place ([`BackendError::Transient`],
/// [`BackendError::Panic`]), retire the lane ([`BackendError::FailStop`]),
/// or give up on the block alone ([`BackendError::Poison`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// A one-off failure (simulated ECC hiccup, spurious launch
    /// failure): retrying the same lane may succeed.
    Transient {
        /// Human-readable failure detail.
        detail: String,
    },
    /// The lane is gone for good (simulated device fell off the bus):
    /// retrying the same lane cannot succeed.
    FailStop {
        /// Human-readable failure detail.
        detail: String,
    },
    /// A panic caught at the supervision boundary and mapped to a
    /// value. Treated like [`BackendError::Transient`] for retry
    /// purposes — a panic's cause is unknown, so the supervisor probes
    /// rather than condemns.
    Panic {
        /// The panic payload, rendered via `panic_detail`.
        detail: String,
    },
    /// The block itself is poison: it failed on `lanes` distinct lanes,
    /// so the fault travels with the data, not the device. Only this
    /// block's requests should fail.
    Poison {
        /// Human-readable failure detail.
        detail: String,
        /// How many distinct lanes the block failed on.
        lanes: usize,
    },
}

impl BackendError {
    /// Short stable tag for traces and scoreboards.
    pub fn kind(&self) -> &'static str {
        match self {
            BackendError::Transient { .. } => "transient",
            BackendError::FailStop { .. } => "failstop",
            BackendError::Panic { .. } => "panic",
            BackendError::Poison { .. } => "poison",
        }
    }

    /// Whether the lane that returned this error is permanently dead
    /// (no retry on it can ever succeed).
    pub fn retires_lane(&self) -> bool {
        matches!(self, BackendError::FailStop { .. })
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Transient { detail } => write!(f, "transient backend error: {detail}"),
            BackendError::FailStop { detail } => write!(f, "fail-stop backend error: {detail}"),
            BackendError::Panic { detail } => write!(f, "backend panicked: {detail}"),
            BackendError::Poison { detail, lanes } => {
                write!(
                    f,
                    "poison block (failed on {lanes} distinct lanes): {detail}"
                )
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Render a panic payload (what [`std::panic::catch_unwind`] hands
/// back) as a human-readable string. Shared by [`Supervised`],
/// [`crate::fleet::Fleet`], and `logan-serve`'s serving core so the
/// payload-downcast logic lives in exactly one place.
pub(crate) fn panic_detail(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, mapping a panic into [`BackendError::Panic`] — the
/// supervision boundary where unwinds become values.
pub fn catch_align<T>(f: impl FnOnce() -> T) -> Result<T, BackendError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        BackendError::Panic {
            detail: panic_detail(payload.as_ref()),
        }
    })
}

/// Lock a mutex, recovering the guard if a previous holder panicked —
/// the one poison-recovering lock of the supervision stack (this
/// module, the fleet's trace slot, `logan-serve`). Every mutex it guards
/// holds plain bookkeeping (counters, schedules, index ranges) whose
/// mutations each complete under one guard, so recovery cannot observe
/// a torn invariant; see `DESIGN.md` §12.
pub fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// SplitMix64 — the tiny deterministic generator behind every seeded
/// jitter stream of the supervision stack (storm plans and backoff
/// here, the serving core's retry schedule), so a trace is a function
/// of its seed alone and `logan-core` needs no `rand` dependency.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One injected fault on one lane. Block indices are per-lane,
/// 0-based, and count *attempts*: a failed attempt consumes an index,
/// so a [`Fault::Transient`] window clears while a supervisor retries
/// through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Blocks `nth_block .. nth_block + count` on this lane fail with
    /// [`BackendError::Transient`]; later blocks succeed again.
    Transient {
        /// First failing per-lane block index.
        nth_block: usize,
        /// How many consecutive block indices fail.
        count: usize,
    },
    /// Every block with per-lane index `>= after` fails with
    /// [`BackendError::FailStop`] — the lane dies and stays dead.
    FailStop {
        /// First dead per-lane block index.
        after: usize,
    },
    /// Blocks `0 .. blocks` run but take `factor` × the time: a
    /// thermally throttled or contended device that later recovers.
    /// Scales simulated seconds; for host-only backends (no simulated
    /// clock) it scales wall seconds instead.
    Degrade {
        /// Service-time multiplier (> 1 slows the lane down).
        factor: f64,
        /// How many leading blocks are degraded.
        blocks: usize,
    },
    /// The lane's first block hangs for an extra `sim_secs` of
    /// simulated time — a stuck kernel launch that eventually returns.
    Stall {
        /// Extra simulated seconds added to block 0.
        sim_secs: f64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Transient { nth_block, count } => write!(f, "transient@{nth_block}x{count}"),
            Fault::FailStop { after } => write!(f, "failstop@{after}"),
            Fault::Degrade { factor, blocks } => write!(f, "degrade@{factor}x{blocks}"),
            Fault::Stall { sim_secs } => write!(f, "stall@{sim_secs}"),
        }
    }
}

/// A seeded, per-lane fault schedule — the reproducible unit of chaos.
/// Build one with [`FaultPlan::new`] + [`FaultPlan::with_fault`],
/// generate the canonical storm with [`FaultPlan::storm`], or parse a
/// [`ChaosSpec`] from the CLI's `--chaos SEED:PLAN` string.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The seed this plan (and any supervisor jitter layered on it)
    /// derives from — recorded so results name their storm.
    pub seed: u64,
    lanes: BTreeMap<usize, Vec<Fault>>,
}

impl FaultPlan {
    /// An empty plan carrying `seed` (no faults yet).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            lanes: BTreeMap::new(),
        }
    }

    /// Add `fault` to `lane`'s schedule (builder style).
    pub fn with_fault(mut self, lane: usize, fault: Fault) -> FaultPlan {
        self.lanes.entry(lane).or_default().push(fault);
        self
    }

    /// The faults scheduled for `lane` (empty slice if none).
    pub fn faults_for(&self, lane: usize) -> &[Fault] {
        self.lanes.get(&lane).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The canonical seeded fault storm over `lanes` lanes: at least
    /// one transient window, one degraded lane, and one stalled launch;
    /// fleets of ≥ 2 lanes additionally lose their last lane to a
    /// fail-stop. Single-lane storms keep the transient window within
    /// the default retry budget (there is no other lane to re-dispatch
    /// to); multi-lane storms make it longer than the retry budget so
    /// re-dispatch is exercised. Deterministic in `(seed, lanes)`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn storm(seed: u64, lanes: usize) -> FaultPlan {
        assert!(lanes > 0, "storm needs at least one lane");
        let mut rng = seed ^ 0xC4A0_55EE_D000_0001;
        let mut next = move || splitmix64(&mut rng);
        let transient_count = if lanes == 1 {
            1 + (next() % 2) as usize // clears within the default retry budget
        } else {
            3 + (next() % 2) as usize // outlives it: forces re-dispatch
        };
        let transient = Fault::Transient {
            nth_block: 1 + (next() % 3) as usize,
            count: transient_count,
        };
        let degrade = Fault::Degrade {
            factor: 2.0 + (next() % 3) as f64,
            blocks: 4 + (next() % 4) as usize,
        };
        let stall = Fault::Stall {
            sim_secs: 0.02 + (next() % 5) as f64 * 0.01,
        };
        let mut plan = FaultPlan::new(seed)
            .with_fault(0, transient)
            .with_fault(0, stall);
        if lanes == 1 {
            plan = plan.with_fault(0, degrade);
        } else {
            plan = plan.with_fault(1, degrade).with_fault(
                lanes - 1,
                Fault::FailStop {
                    after: 2 + (next() % 3) as usize,
                },
            );
        }
        plan
    }

    /// The error this plan injects for per-lane block index `n` on
    /// `lane`, if any. Fail-stop wins over transient on overlap — a
    /// dead lane stays dead.
    pub fn injected_error(&self, lane: usize, n: usize) -> Option<BackendError> {
        let faults = self.faults_for(lane);
        for f in faults {
            if let Fault::FailStop { after } = f {
                if n >= *after {
                    return Some(BackendError::FailStop {
                        detail: format!("injected fail-stop on lane {lane} (block {n} >= {after})"),
                    });
                }
            }
        }
        for f in faults {
            if let Fault::Transient { nth_block, count } = f {
                // `n - nth_block`, not `nth_block + count`: a window
                // that runs to `usize::MAX` must not overflow.
                if n >= *nth_block && n - nth_block < *count {
                    return Some(BackendError::Transient {
                        detail: format!(
                            "injected transient on lane {lane} (block {n} in window {nth_block}+{count})"
                        ),
                    });
                }
            }
        }
        None
    }

    /// Apply this plan's time-shaping faults (degrade, stall) to the
    /// report of per-lane block `n` on `lane`. The extra seconds land
    /// on the simulated clock; host-only reports (no simulated time)
    /// degrade on the wall clock instead.
    pub(crate) fn shape_report(&self, lane: usize, n: usize, rep: &mut BackendReport) {
        for f in self.faults_for(lane) {
            match *f {
                Fault::Degrade { factor, blocks } if n < blocks => {
                    if rep.sim_time_s > 0.0 {
                        rep.sim_time_s *= factor;
                    } else {
                        rep.wall_s *= factor;
                    }
                }
                Fault::Stall { sim_secs } if n == 0 => {
                    rep.sim_time_s += sim_secs;
                }
                _ => {}
            }
        }
    }

    /// The plan's extra *simulated* seconds for per-lane block `n` on
    /// `lane` relative to a healthy service time of `base_s` — what the
    /// serve simulator charges without running a backend.
    pub fn extra_sim_secs(&self, lane: usize, n: usize, base_s: f64) -> f64 {
        let mut extra = 0.0;
        for f in self.faults_for(lane) {
            match *f {
                Fault::Degrade { factor, blocks } if n < blocks => {
                    extra += base_s * (factor - 1.0);
                }
                Fault::Stall { sim_secs } if n == 0 => {
                    extra += sim_secs;
                }
                _ => {}
            }
        }
        extra
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.seed)?;
        let mut first = true;
        for (lane, faults) in &self.lanes {
            if faults.is_empty() {
                continue;
            }
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{lane}=")?;
            for (i, fault) in faults.iter().enumerate() {
                if i > 0 {
                    write!(f, "/")?;
                }
                write!(f, "{fault}")?;
            }
        }
        if first {
            write!(f, "none")?;
        }
        Ok(())
    }
}

/// A parsed `--chaos SEED:PLAN` argument. `SEED:storm` defers lane
/// count to [`ChaosSpec::resolve`] (the caller knows the backend);
/// explicit plans spell every fault out:
/// `SEED:LANE=FAULT[/FAULT…][,LANE=…]` with faults `transient@N[xC]`,
/// `failstop@N`, `degrade@FxB`, `stall@S`.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosSpec {
    /// The canonical storm, sized to the backend at attach time.
    Storm {
        /// Storm seed.
        seed: u64,
    },
    /// A fully explicit plan.
    Plan(FaultPlan),
}

impl ChaosSpec {
    /// Resolve to a concrete plan for a backend with `lanes` lanes.
    pub fn resolve(&self, lanes: usize) -> FaultPlan {
        match self {
            ChaosSpec::Storm { seed } => FaultPlan::storm(*seed, lanes),
            ChaosSpec::Plan(plan) => plan.clone(),
        }
    }
}

fn parse_fault(tok: &str) -> Result<Fault, String> {
    let (kind, arg) = tok
        .split_once('@')
        .ok_or_else(|| format!("fault {tok:?}: expected KIND@ARGS"))?;
    let num = |s: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|e| format!("fault {tok:?}: bad count {s:?}: {e}"))
    };
    let fnum = |s: &str| -> Result<f64, String> {
        let v: f64 = s
            .parse()
            .map_err(|e| format!("fault {tok:?}: bad number {s:?}: {e}"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("fault {tok:?}: {v} must be finite and > 0"));
        }
        Ok(v)
    };
    match kind {
        "transient" => match arg.split_once('x') {
            Some((n, c)) => Ok(Fault::Transient {
                nth_block: num(n)?,
                count: num(c)?.max(1),
            }),
            None => Ok(Fault::Transient {
                nth_block: num(arg)?,
                count: 1,
            }),
        },
        "failstop" => Ok(Fault::FailStop { after: num(arg)? }),
        "degrade" => {
            let (factor, blocks) = arg
                .split_once('x')
                .ok_or_else(|| format!("fault {tok:?}: expected degrade@FACTORxBLOCKS"))?;
            Ok(Fault::Degrade {
                factor: fnum(factor)?,
                blocks: num(blocks)?,
            })
        }
        "stall" => Ok(Fault::Stall {
            sim_secs: fnum(arg)?,
        }),
        other => Err(format!(
            "unknown fault kind {other:?} (expected transient|failstop|degrade|stall)"
        )),
    }
}

impl FromStr for ChaosSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<ChaosSpec, String> {
        let (seed_s, rest) = s
            .split_once(':')
            .ok_or_else(|| format!("chaos spec {s:?}: expected SEED:PLAN"))?;
        let seed: u64 = seed_s
            .trim()
            .parse()
            .map_err(|e| format!("chaos spec {s:?}: bad seed {seed_s:?}: {e}"))?;
        let rest = rest.trim();
        if rest == "storm" {
            return Ok(ChaosSpec::Storm { seed });
        }
        if rest.is_empty() {
            return Err(format!("chaos spec {s:?}: empty plan (try SEED:storm)"));
        }
        let mut plan = FaultPlan::new(seed);
        for lane_part in rest.split(',') {
            let (lane_s, faults_s) = lane_part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec {s:?}: {lane_part:?} is not LANE=FAULTS"))?;
            let lane: usize = lane_s
                .trim()
                .parse()
                .map_err(|e| format!("chaos spec {s:?}: bad lane {lane_s:?}: {e}"))?;
            for tok in faults_s.split('/') {
                plan = plan.with_fault(lane, parse_fault(tok.trim())?);
            }
        }
        Ok(ChaosSpec::Plan(plan))
    }
}

/// A fault-injecting wrapper over any backend. Faults fire by per-lane
/// block index, counted per *attempt* (lane index for the
/// [`AlignBackend::align_block_on`] path; the whole-backend
/// [`AlignBackend::align_block`] path counts as lane 0). On the
/// fallible path injected faults surface as [`BackendError`] values;
/// on the infallible path they panic — exactly the failure mode the
/// pre-supervision stack handles — so the same storm exercises both
/// the supervised and the legacy retirement semantics.
pub struct ChaosBackend {
    inner: Box<dyn AlignBackend>,
    plan: FaultPlan,
    seen: Mutex<Vec<usize>>,
}

impl ChaosBackend {
    /// Wrap `inner`, injecting `plan`.
    pub fn new(inner: Box<dyn AlignBackend>, plan: FaultPlan) -> ChaosBackend {
        ChaosBackend {
            inner,
            plan,
            seen: Mutex::new(Vec::new()),
        }
    }

    /// Claim the next per-lane block index for `lane`.
    fn next_index(&self, lane: usize) -> usize {
        let mut seen = lock_recover(&self.seen);
        if seen.len() <= lane {
            seen.resize(lane + 1, 0);
        }
        let n = seen[lane];
        seen[lane] += 1;
        n
    }
}

impl AlignBackend for ChaosBackend {
    fn name(&self) -> String {
        format!("chaos[{}]({})", self.plan.seed, self.inner.name())
    }

    fn throughput_hint(&self) -> f64 {
        self.inner.throughput_hint()
    }

    fn throughput_hint_on(&self, lane: usize) -> f64 {
        self.inner.throughput_hint_on(lane)
    }

    fn max_block(&self) -> usize {
        self.inner.max_block()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn profile_params(&self) -> Option<(logan_seq::ScoreProfile, i32)> {
        self.inner.profile_params()
    }

    fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
        self.align_block_on(0, block)
    }

    fn align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> (Vec<SeedExtendResult>, BackendReport) {
        self.try_align_block_on(lane, block)
            .unwrap_or_else(|e| panic!("injected fault: {e}"))
    }

    fn try_align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> Result<(Vec<SeedExtendResult>, BackendReport), BackendError> {
        let n = self.next_index(lane);
        if let Some(err) = self.plan.injected_error(lane, n) {
            return Err(err);
        }
        let (results, mut rep) = self.inner.try_align_block_on(lane, block)?;
        self.plan.shape_report(lane, n, &mut rep);
        Ok((results, rep))
    }
}

/// The per-block fault rule's knobs, shared by [`Supervised`] and
/// `logan-serve`'s serving core (the fleet runs [`SupervisePolicy::default`] with no
/// in-place retries). `Copy` so configs stay literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisePolicy {
    /// Same-lane retries per block before re-dispatching elsewhere.
    pub max_retries: usize,
    /// First backoff delay in seconds (doubles per retry).
    pub backoff_base_s: f64,
    /// Backoff delay ceiling in seconds.
    pub backoff_max_s: f64,
    /// Jitter as a fraction of the delay, drawn deterministically from
    /// [`SupervisePolicy::seed`] (0.0 disables jitter).
    pub jitter_frac: f64,
    /// A block failing on this many distinct lanes is declared poison
    /// and fails alone.
    pub poison_lanes: usize,
    /// Seed for the jitter stream — part of what makes a supervision
    /// trace replayable.
    pub seed: u64,
}

impl Default for SupervisePolicy {
    fn default() -> SupervisePolicy {
        SupervisePolicy {
            max_retries: 2,
            backoff_base_s: 0.002,
            backoff_max_s: 0.05,
            jitter_frac: 0.2,
            poison_lanes: 2,
            seed: 0xC4A0_5EED,
        }
    }
}

impl SupervisePolicy {
    /// The backoff delay before retry number `attempt` (0-based), with
    /// the deterministic jitter draw `jitter_u01` in `[0, 1)`.
    pub(crate) fn backoff_s(&self, attempt: usize, jitter_u01: f64) -> f64 {
        let base = self.backoff_base_s * (1u64 << attempt.min(32)) as f64;
        let capped = base.min(self.backoff_max_s);
        capped * (1.0 + self.jitter_frac * jitter_u01)
    }
}

/// One step of a supervision run. Traces are the reproducibility
/// witness: the same seeds replay the same event sequence, byte for
/// byte (asserted against goldens by `tests/chaos_supervision.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A block was dispatched to a lane.
    Attempt {
        /// Lane index.
        lane: usize,
        /// Supervisor-assigned block id.
        block: u64,
    },
    /// An attempt failed.
    Fault {
        /// Lane index.
        lane: usize,
        /// Supervisor-assigned block id.
        block: u64,
        /// [`BackendError::kind`] of the failure.
        kind: &'static str,
    },
    /// The supervisor slept before a same-lane retry.
    Backoff {
        /// Lane index.
        lane: usize,
        /// 0-based retry number on this lane.
        attempt: usize,
        /// Delay in microseconds (jitter included — deterministic).
        delay_us: u64,
    },
    /// The block moved to a different lane.
    Redispatch {
        /// Supervisor-assigned block id.
        block: u64,
        /// Lane it failed on.
        from: usize,
        /// Lane it moves to.
        to: usize,
    },
    /// A lane was declared permanently dead.
    LaneDead {
        /// Lane index.
        lane: usize,
    },
    /// A block was declared poison after failing on `lanes` lanes.
    Poisoned {
        /// Supervisor-assigned block id.
        block: u64,
        /// Distinct failed lanes.
        lanes: usize,
    },
    /// A lane crossed the error threshold and was quarantined.
    Quarantined {
        /// Lane index.
        lane: usize,
    },
    /// A quarantined lane was given a probation probe.
    Probation {
        /// Lane index.
        lane: usize,
    },
    /// A probation probe succeeded; the lane is serving again.
    Reinstated {
        /// Lane index.
        lane: usize,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Attempt { lane, block } => write!(f, "attempt lane={lane} block={block}"),
            TraceEvent::Fault { lane, block, kind } => {
                write!(f, "fault lane={lane} block={block} kind={kind}")
            }
            TraceEvent::Backoff {
                lane,
                attempt,
                delay_us,
            } => write!(
                f,
                "backoff lane={lane} attempt={attempt} delay_us={delay_us}"
            ),
            TraceEvent::Redispatch { block, from, to } => {
                write!(f, "redispatch block={block} from={from} to={to}")
            }
            TraceEvent::LaneDead { lane } => write!(f, "lane-dead lane={lane}"),
            TraceEvent::Poisoned { block, lanes } => {
                write!(f, "poisoned block={block} lanes={lanes}")
            }
            TraceEvent::Quarantined { lane } => write!(f, "quarantined lane={lane}"),
            TraceEvent::Probation { lane } => write!(f, "probation lane={lane}"),
            TraceEvent::Reinstated { lane } => write!(f, "reinstated lane={lane}"),
        }
    }
}

/// One block's fault history: the distinct lanes it failed on (most
/// recent last) and the retries spent on the lane it is on. A block
/// that never faulted has an empty ledger, which allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockLedger {
    failed: Vec<usize>,
    retries_here: usize,
}

impl BlockLedger {
    /// The lane this block last gave up on, if any.
    pub fn last_failed(&self) -> Option<usize> {
        self.failed.last().copied()
    }

    /// The first live lane at or after `from` (wrapping, over `lanes`
    /// lanes) that this block has not failed on.
    pub(crate) fn fresh_lane(
        &self,
        from: usize,
        lanes: usize,
        live: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        (0..lanes)
            .map(|i| (from + i) % lanes)
            .find(|&l| live(l) && !self.failed.contains(&l))
    }

    /// The retake rule: live `lane` may take this block if the block
    /// has not failed on it, or once no live lane is left that it has
    /// not failed on (fault windows count attempts, so a retake can
    /// still clear; refusing would strand the block).
    pub fn may_take(&self, lane: usize, lanes: usize, live: impl Fn(usize) -> bool) -> bool {
        !self.failed.contains(&lane) || self.fresh_lane(0, lanes, live).is_none()
    }
}

/// What a supervisor does with a block after one of its attempts
/// failed. Each caller applies it on its own clock: [`Supervised`]
/// sleeps, the fleet charges a worker's virtual clock, the serving
/// core's drivers sleep (threaded) or add busy seconds (simulated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Retry on the same lane after a backoff.
    Retry {
        /// 0-based retry number on this lane.
        attempt: usize,
        /// Backoff delay, jitter included.
        delay_s: f64,
    },
    /// Give up on this lane: the block moves to a lane
    /// [`BlockLedger::may_take`] admits.
    Move,
    /// The block failed on `lanes` distinct lanes: it is poison and
    /// fails alone.
    Poison {
        /// Distinct lanes the block failed on.
        lanes: usize,
    },
    /// Fail the block as it is: it is unsupervised, or a nested
    /// supervisor already declared it poison.
    Fail,
}

impl Verdict {
    /// The trace event that records this verdict for `block` on
    /// `lane`: a backoff or a poisoning. A move is recorded by its
    /// caller as a [`TraceEvent::Redispatch`] when a lane takes the
    /// block.
    pub fn event(&self, lane: usize, block: u64) -> Option<TraceEvent> {
        match *self {
            Verdict::Retry { attempt, delay_s } => Some(TraceEvent::Backoff {
                lane,
                attempt,
                delay_us: (delay_s * 1e6) as u64,
            }),
            Verdict::Poison { lanes } => Some(TraceEvent::Poisoned { block, lanes }),
            Verdict::Move | Verdict::Fail => None,
        }
    }
}

/// The one per-block fault rule of the supervision stack, with its
/// seeded jitter stream. Clock-free: a ledger and a fault go in, a
/// [`Verdict`] comes out, and the caller spends the delay on whatever
/// clock it runs on.
#[derive(Debug, Clone)]
pub struct Supervisor {
    policy: Option<SupervisePolicy>,
    rng: u64,
}

impl Supervisor {
    /// A supervisor under `policy` whose jitter stream starts at
    /// `policy.seed ^ salt`; `None` supervises nothing (every fault
    /// fails its block).
    pub fn new(policy: Option<SupervisePolicy>, salt: u64) -> Supervisor {
        Supervisor {
            policy,
            rng: policy.map_or(0, |p| p.seed) ^ salt,
        }
    }

    /// The verdict on `err`, the failure of `ledger`'s block on `lane`,
    /// updating the ledger. Transient faults and panics retry in place
    /// while `max_retries` allows; a fail-stop or an exhausted lane
    /// counts as a failed lane, and `poison_lanes` distinct ones make
    /// the block poison.
    pub fn verdict(
        &mut self,
        ledger: &mut BlockLedger,
        lane: usize,
        err: &BackendError,
    ) -> Verdict {
        let Some(policy) = self.policy else {
            return Verdict::Fail;
        };
        if let BackendError::Poison { .. } = err {
            return Verdict::Fail;
        }
        if !err.retires_lane() && ledger.retries_here < policy.max_retries {
            let attempt = ledger.retries_here;
            ledger.retries_here += 1;
            let jitter_u01 = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
            return Verdict::Retry {
                attempt,
                delay_s: policy.backoff_s(attempt, jitter_u01),
            };
        }
        ledger.retries_here = 0;
        ledger.failed.retain(|&l| l != lane);
        ledger.failed.push(lane);
        if ledger.failed.len() >= policy.poison_lanes {
            Verdict::Poison {
                lanes: ledger.failed.len(),
            }
        } else {
            Verdict::Move
        }
    }
}

/// Salt of [`Supervised`]'s jitter stream (`logan-serve`'s serving core
/// has its own, so the two replay independently).
const SUPERVISED_JITTER_SALT: u64 = 0x005E_ED0F_5AFE;

struct SupState {
    dead: Vec<bool>,
    supervisor: Supervisor,
    next_block: u64,
    trace: Vec<TraceEvent>,
}

/// Self-healing wrapper over any backend: it applies [`Supervisor`]'s
/// verdicts synchronously — sleeping out backoffs, re-dispatching to
/// the next live lane the block has not failed on, failing a poison
/// block alone — and keeps a full [`TraceEvent`] log. Over a
/// fault-free backend it is bit-for-bit transparent (proptested);
/// under a [`ChaosBackend`] storm it turns injected faults into
/// completed blocks wherever a live lane remains.
pub struct Supervised<B: AlignBackend> {
    inner: B,
    state: Mutex<SupState>,
}

impl<B: AlignBackend> Supervised<B> {
    /// Supervise `inner` under `policy`.
    pub fn new(inner: B, policy: SupervisePolicy) -> Supervised<B> {
        let lanes = inner.lanes().max(1);
        Supervised {
            inner,
            state: Mutex::new(SupState {
                dead: vec![false; lanes],
                supervisor: Supervisor::new(Some(policy), SUPERVISED_JITTER_SALT),
                next_block: 0,
                trace: Vec::new(),
            }),
        }
    }

    /// Snapshot of the supervision trace so far. Driven sequentially,
    /// two runs from the same seeds produce identical snapshots.
    pub fn trace(&self) -> Vec<TraceEvent> {
        lock_recover(&self.state).trace.clone()
    }

    /// Lanes currently marked permanently dead.
    pub fn dead_lanes(&self) -> Vec<usize> {
        let st = lock_recover(&self.state);
        st.dead
            .iter()
            .enumerate()
            .filter(|(_, d)| **d)
            .map(|(l, _)| l)
            .collect()
    }

    /// The first live lane at or after `from` that `ledger`'s block has
    /// not failed on. A synchronous supervisor does not retake: with
    /// every live lane failed, it has no later to wait for.
    fn fresh_lane(&self, from: usize, ledger: &BlockLedger) -> Option<usize> {
        let st = lock_recover(&self.state);
        ledger.fresh_lane(from, st.dead.len(), |l| !st.dead[l])
    }

    /// Supervise one block with lane routing, starting on `preferred`.
    fn supervise_on(
        &self,
        preferred: usize,
        block: &[ReadPair],
    ) -> Result<(Vec<SeedExtendResult>, BackendReport), BackendError> {
        let block_id = {
            let mut st = lock_recover(&self.state);
            st.next_block += 1;
            st.next_block - 1
        };
        let mut ledger = BlockLedger::default();
        let Some(mut lane) = self.fresh_lane(preferred, &ledger) else {
            return Err(BackendError::FailStop {
                detail: "all lanes dead".to_string(),
            });
        };
        loop {
            lock_recover(&self.state).trace.push(TraceEvent::Attempt {
                lane,
                block: block_id,
            });
            let err = match catch_align(|| self.inner.try_align_block_on(lane, block)) {
                Ok(Ok(out)) => return Ok(out),
                Ok(Err(e)) | Err(e) => e,
            };
            let verdict = {
                let mut st = lock_recover(&self.state);
                st.trace.push(TraceEvent::Fault {
                    lane,
                    block: block_id,
                    kind: err.kind(),
                });
                if err.retires_lane() && !st.dead[lane] {
                    st.dead[lane] = true;
                    st.trace.push(TraceEvent::LaneDead { lane });
                }
                let verdict = st.supervisor.verdict(&mut ledger, lane, &err);
                st.trace.extend(verdict.event(lane, block_id));
                verdict
            };
            match verdict {
                Verdict::Retry { delay_s, .. } => {
                    if delay_s > 0.0 {
                        std::thread::sleep(std::time::Duration::from_secs_f64(delay_s));
                    }
                }
                Verdict::Move => match self.fresh_lane(lane + 1, &ledger) {
                    Some(next) => {
                        lock_recover(&self.state)
                            .trace
                            .push(TraceEvent::Redispatch {
                                block: block_id,
                                from: lane,
                                to: next,
                            });
                        lane = next;
                    }
                    None => return Err(err),
                },
                Verdict::Poison { lanes } => {
                    return Err(BackendError::Poison {
                        detail: format!("block {block_id}: {err}"),
                        lanes,
                    })
                }
                Verdict::Fail => return Err(err),
            }
        }
    }
}

impl<B: AlignBackend> AlignBackend for Supervised<B> {
    fn name(&self) -> String {
        format!("supervised({})", self.inner.name())
    }

    fn throughput_hint(&self) -> f64 {
        self.inner.throughput_hint()
    }

    fn throughput_hint_on(&self, lane: usize) -> f64 {
        self.inner.throughput_hint_on(lane)
    }

    fn max_block(&self) -> usize {
        self.inner.max_block()
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn profile_params(&self) -> Option<(logan_seq::ScoreProfile, i32)> {
        self.inner.profile_params()
    }

    fn align_block(&self, block: &[ReadPair]) -> (Vec<SeedExtendResult>, BackendReport) {
        self.align_block_on(0, block)
    }

    fn align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> (Vec<SeedExtendResult>, BackendReport) {
        self.supervise_on(lane, block)
            .unwrap_or_else(|e| panic!("supervision exhausted: {e}"))
    }

    fn try_align_block_on(
        &self,
        lane: usize,
        block: &[ReadPair],
    ) -> Result<(Vec<SeedExtendResult>, BackendReport), BackendError> {
        self.supervise_on(lane, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{LoganConfig, LoganExecutor};
    use logan_gpusim::DeviceSpec;
    use logan_seq::readsim::PairSet;

    fn pairs(n: usize) -> Vec<ReadPair> {
        PairSet::generate_with_lengths(n, 0.15, 400, 800, 7).pairs
    }

    fn gpu() -> Box<dyn AlignBackend> {
        Box::new(LoganExecutor::new(
            DeviceSpec::v100(),
            LoganConfig::with_x(50),
        ))
    }

    fn quick_policy() -> SupervisePolicy {
        SupervisePolicy {
            backoff_base_s: 0.0,
            backoff_max_s: 0.0,
            ..SupervisePolicy::default()
        }
    }

    #[test]
    fn chaos_spec_parses_storm_and_explicit_plans() {
        let spec: ChaosSpec = "42:storm".parse().unwrap();
        assert_eq!(spec, ChaosSpec::Storm { seed: 42 });
        assert_eq!(spec.resolve(3), FaultPlan::storm(42, 3));

        let spec: ChaosSpec = "7:0=transient@3x2/stall@0.5,2=failstop@5".parse().unwrap();
        let plan = spec.resolve(3);
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.faults_for(0),
            &[
                Fault::Transient {
                    nth_block: 3,
                    count: 2
                },
                Fault::Stall { sim_secs: 0.5 }
            ]
        );
        assert_eq!(plan.faults_for(2), &[Fault::FailStop { after: 5 }]);
        assert!(plan.faults_for(1).is_empty());

        for bad in [
            "nope",
            "x:storm",
            "1:",
            "1:0=transient",
            "1:0=bogus@3",
            "1:0=degrade@0x3",
            "1=transient@1",
        ] {
            assert!(bad.parse::<ChaosSpec>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn storm_is_deterministic_and_has_required_faults() {
        let a = FaultPlan::storm(99, 3);
        let b = FaultPlan::storm(99, 3);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::storm(100, 3));
        let kinds: Vec<&str> = a
            .lanes
            .values()
            .flatten()
            .map(|f| match f {
                Fault::Transient { .. } => "transient",
                Fault::FailStop { .. } => "failstop",
                Fault::Degrade { .. } => "degrade",
                Fault::Stall { .. } => "stall",
            })
            .collect();
        for want in ["transient", "failstop", "degrade", "stall"] {
            assert!(kinds.contains(&want), "storm missing {want}: {kinds:?}");
        }
        // Single-lane storms never fail-stop their only lane.
        let solo = FaultPlan::storm(99, 1);
        assert!(solo
            .faults_for(0)
            .iter()
            .all(|f| !matches!(f, Fault::FailStop { .. })));
    }

    #[test]
    fn chaos_injects_then_recovers_on_the_try_path() {
        let plan = FaultPlan::new(1).with_fault(
            0,
            Fault::Transient {
                nth_block: 1,
                count: 1,
            },
        );
        let chaos = ChaosBackend::new(gpu(), plan);
        let ps = pairs(4);
        assert!(chaos.try_align_block_on(0, &ps).is_ok(), "block 0 clean");
        let err = chaos.try_align_block_on(0, &ps).unwrap_err();
        assert_eq!(err.kind(), "transient");
        assert!(chaos.try_align_block_on(0, &ps).is_ok(), "window cleared");
    }

    #[test]
    fn chaos_shapes_time_and_panics_on_the_infallible_path() {
        let ps = pairs(3);
        let (_, clean) = gpu().align_block(&ps);
        let plan = FaultPlan::new(2)
            .with_fault(
                0,
                Fault::Degrade {
                    factor: 3.0,
                    blocks: 1,
                },
            )
            .with_fault(0, Fault::Stall { sim_secs: 0.25 });
        let chaos = ChaosBackend::new(gpu(), plan);
        let (res, rep) = chaos.try_align_block_on(0, &ps).unwrap();
        let (want, _) = gpu().align_block(&ps);
        assert_eq!(res, want, "faults shape time, never results");
        let expect = clean.sim_time_s * 3.0 + 0.25;
        assert!(
            (rep.sim_time_s - expect).abs() < 1e-12,
            "degrade+stall on the simulated clock: {} vs {expect}",
            rep.sim_time_s
        );

        let dead = ChaosBackend::new(
            gpu(),
            FaultPlan::new(3).with_fault(0, Fault::FailStop { after: 0 }),
        );
        let caught = catch_align(|| dead.align_block(&ps));
        assert_eq!(caught.unwrap_err().kind(), "panic");
    }

    #[test]
    fn supervised_retries_transients_to_success() {
        let plan = FaultPlan::new(4).with_fault(
            0,
            Fault::Transient {
                nth_block: 0,
                count: 2,
            },
        );
        let sup = Supervised::new(ChaosBackend::new(gpu(), plan), quick_policy());
        let ps = pairs(4);
        let (res, _) = sup
            .try_align_block_on(0, &ps)
            .expect("retries clear the window");
        let (want, _) = gpu().align_block(&ps);
        assert_eq!(res, want);
        let trace = sup.trace();
        let faults = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Fault { .. }))
            .count();
        assert_eq!(faults, 2, "two injected faults then success: {trace:?}");
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Backoff { .. })));
    }

    #[test]
    fn supervised_poisons_after_k_distinct_lanes() {
        // Every lane 0 block fails: with poison_lanes=1 the first
        // exhaustion condemns the block instead of the backend.
        let plan = FaultPlan::new(5).with_fault(
            0,
            Fault::Transient {
                nth_block: 0,
                count: usize::MAX / 2,
            },
        );
        let policy = SupervisePolicy {
            poison_lanes: 1,
            ..quick_policy()
        };
        let sup = Supervised::new(ChaosBackend::new(gpu(), plan), policy);
        let err = sup.try_align_block_on(0, &pairs(2)).unwrap_err();
        assert_eq!(err.kind(), "poison");
        assert!(sup
            .trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::Poisoned { .. })));
        // The backend itself is still fine for later blocks… but lane 0
        // is the only lane, so a fresh block hits the same window and
        // poisons too — the point is the error is per-block.
        assert_eq!(
            sup.try_align_block_on(0, &pairs(2)).unwrap_err().kind(),
            "poison"
        );
    }

    #[test]
    fn supervised_trace_replays_identically() {
        let mk = || {
            let plan = FaultPlan::new(6).with_fault(
                0,
                Fault::Transient {
                    nth_block: 1,
                    count: 2,
                },
            );
            Supervised::new(
                ChaosBackend::new(gpu(), plan),
                SupervisePolicy {
                    backoff_base_s: 1e-6,
                    backoff_max_s: 1e-5,
                    ..SupervisePolicy::default()
                },
            )
        };
        let ps = pairs(3);
        let run = |sup: Supervised<ChaosBackend>| {
            for _ in 0..4 {
                let _ = sup.try_align_block_on(0, &ps);
            }
            sup.trace()
        };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a, b, "same seeds must replay the same trace");
        assert!(!a.is_empty());
    }

    #[test]
    fn verdicts_retry_then_move_then_poison() {
        let transient = BackendError::Transient { detail: "t".into() };
        let failstop = BackendError::FailStop { detail: "f".into() };
        let mut sup = Supervisor::new(Some(SupervisePolicy::default()), 0);
        let mut ledger = BlockLedger::default();
        // Two in-place retries with doubling, jittered backoff…
        for attempt in 0..2 {
            match sup.verdict(&mut ledger, 0, &transient) {
                Verdict::Retry {
                    attempt: a,
                    delay_s,
                } => {
                    assert_eq!(a, attempt);
                    let base = 0.002 * (1 << attempt) as f64;
                    assert!((base..base * 1.2).contains(&delay_s), "{delay_s}");
                }
                other => panic!("retry {attempt} expected, got {other:?}"),
            }
        }
        // …then the lane is given up on, and the block moves.
        assert_eq!(sup.verdict(&mut ledger, 0, &transient), Verdict::Move);
        assert_eq!(ledger.last_failed(), Some(0));
        // A fail-stop never retries; a second distinct lane poisons.
        assert_eq!(
            sup.verdict(&mut ledger, 1, &failstop),
            Verdict::Poison { lanes: 2 }
        );
        assert_eq!(ledger.last_failed(), Some(1));
        // A nested poison and an unsupervised fault fail as they are.
        let nested = BackendError::Poison {
            detail: "p".into(),
            lanes: 2,
        };
        let mut fresh = BlockLedger::default();
        assert_eq!(sup.verdict(&mut fresh, 0, &nested), Verdict::Fail);
        let mut bare = Supervisor::new(None, 0);
        assert_eq!(bare.verdict(&mut fresh, 0, &transient), Verdict::Fail);
        assert_eq!(fresh, BlockLedger::default());
    }

    #[test]
    fn retake_rule_prefers_fresh_lanes_then_admits_any_live_lane() {
        let mut sup = Supervisor::new(
            Some(SupervisePolicy {
                max_retries: 0,
                poison_lanes: 4,
                ..SupervisePolicy::default()
            }),
            0,
        );
        let err = BackendError::Transient { detail: "t".into() };
        let mut ledger = BlockLedger::default();
        assert_eq!(sup.verdict(&mut ledger, 1, &err), Verdict::Move);
        let all_live = |_| true;
        assert!(!ledger.may_take(1, 3, all_live), "a fresh lane remains");
        assert!(ledger.may_take(0, 3, all_live) && ledger.may_take(2, 3, all_live));
        assert_eq!(ledger.fresh_lane(1, 3, all_live), Some(2));
        // With lane 2 dead and lane 0 failed too, every live lane has
        // failed the block: any live lane may retake it.
        assert_eq!(sup.verdict(&mut ledger, 0, &err), Verdict::Move);
        let two_dead = |l| l != 2;
        assert_eq!(ledger.fresh_lane(0, 3, two_dead), None);
        assert!(ledger.may_take(0, 3, two_dead) && ledger.may_take(1, 3, two_dead));
        // A repeat failure moves its lane to the back of the ledger.
        assert_eq!(sup.verdict(&mut ledger, 1, &err), Verdict::Move);
        assert_eq!(ledger.last_failed(), Some(1));
    }

    #[test]
    fn panic_detail_renders_both_payload_shapes() {
        let s: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_detail(s.as_ref()), "static str");
        let o: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_detail(o.as_ref()), "owned");
        let n: Box<dyn Any + Send> = Box::new(42usize);
        assert_eq!(panic_detail(n.as_ref()), "non-string panic payload");
    }

    #[test]
    fn plan_round_trips_through_display() {
        let plan = FaultPlan::new(11)
            .with_fault(
                0,
                Fault::Transient {
                    nth_block: 2,
                    count: 3,
                },
            )
            .with_fault(2, Fault::FailStop { after: 4 });
        let s = plan.to_string();
        let back: ChaosSpec = s.parse().unwrap();
        assert_eq!(back.resolve(3), plan);
    }
}
