//! Lane-parallel X-drop extension: the CPU analogue of LOGAN's int16
//! GPU kernel (paper §III-C), and the engine-dispatch seam every future
//! backend plugs into.
//!
//! The GPU kernel computes each anti-diagonal with thousands of int16
//! lanes; the proven CPU analogue (minimap2's KSW2) is a saturating
//! low-precision striped inner loop with escalation to a wider type on
//! overflow. This module does the same with *portable* fixed-width
//! chunks — `[i16; LANES]` and `[Biased8; LANES8]` arrays with
//! saturating arithmetic, which LLVM auto-vectorizes to the vectors of
//! whatever instruction set it is generating code for — while keeping
//! the exact bounds, pruning, trimming, tie-break and termination logic
//! of the scalar ground truth
//! [`xdrop_extend`](crate::xdrop::xdrop_extend).
//!
//! # One source, two compilations
//!
//! A chunk is sized for a 256-bit vector, but nothing in this workspace
//! sets a target feature, so a plain build generates code for the
//! target's baseline — on x86-64 that is SSE2: every chunk two 128-bit
//! halves, every select an `and/andn/or` triple, every row maximum a
//! shuffle ladder. The run-to-completion kernels (`i16_kernel`,
//! `i8_kernel`: stepper construction, the stepper's run loop and
//! everything it inlines — `advance`, `row`, `cells`, the substitution
//! sources, the per-step [`StepSink`], the i8 → i16 hand-over) are therefore
//! `#[inline(always)]` bodies instantiated twice: once in the portable
//! entry point and, on x86-64, once inside a thin
//! `#[target_feature(enable = "avx2")]` wrapper, where the same source
//! becomes one `vpaddsw`/`vpmaxsw` per operand, `vpblendvb` and
//! `vphminposuw` — about half the instructions per chunk. The tallying
//! entry points (`run_i16`, `run_i8`) pick per CPU at run time
//! (`is_x86_feature_detected!("avx2")`, one cached relaxed load) — the
//! way minimap2 builds KSW2 for SSE2 and SSE4.1 and picks by CPUID.
//! Calling a wrapper is the only `unsafe` in this crate; there are no
//! intrinsics and no second kernel source, and on every other
//! architecture (or an x86-64 CPU without AVX2) the portable body runs.
//! Both compilations are the same safe, bounds-checked integer code, so
//! they are bit-identical by construction; `extend_portable` (a
//! doc-hidden test seam) pins the portable one so the differential
//! suites and `engine_tiers` run both on one machine.
//!
//! The run loops report every anti-diagonal they compute to a
//! [`StepSink`], a type parameter of the kernels: the CPU engines pass
//! `()`, whose no-op compiles away, so every CPU caller shares one
//! instantiation of each kernel; `logan-core`'s simulated GPU kernel
//! passes a sink that books the SIMT costs of the step, and so runs the
//! same dispatched compilation.
//!
//! # The tier ladder (DESIGN.md §14)
//!
//! Three kernels compute the same recurrence at three precisions:
//!
//! | tier   | lanes/chunk | entered when                        |
//! |--------|-------------|-------------------------------------|
//! | i8     | `LANES8`  | [`simd8_eligible`]                  |
//! | i16    | `LANES`   | [`simd_eligible`]                   |
//! | scalar | —           | always (the i32 ground truth)       |
//!
//! [`Engine`] picks a tier; every tier is bit-identical to scalar, so
//! the choice is purely a performance knob. [`Engine::Adaptive`] picks
//! per pair from what it can observe — the i16 kernel when
//! [`simd_eligible`], else scalar — and leaves the i8 tier to callers
//! that name it ([`Engine::I8`]): i8 is ahead of i16 only while an
//! extension stays inside the i8 window, which nothing known before the
//! extension predicts (EXPERIMENTS.md, `engine_tiers`).
//!
//! # One recurrence body, vector-only anti-diagonals
//!
//! The two SIMD tiers are one stepper (`LaneState`) and one
//! recurrence body (`cells`), written once over the lane element
//! (`Lane`) and the lane count and monomorphised for `i16 × 16` and
//! `Biased8 × 32`. Like the GPU kernel — which gives every cell of
//! an anti-diagonal a lane and idles the lanes past its end — a step
//! never drops to a serial loop: the window of an anti-diagonal is
//! rounded *up* to whole chunks, only full-width chunks run, and the
//! lanes outside the window are forced to −∞ before they are reduced or
//! stored. The substitution source (DNA compare-select or query-profile
//! gather) is chosen once per anti-diagonal, outside the chunk loop.
//!
//! # Buffer layout: absolute positions, nothing cleared
//!
//! Every buffer of a `Scratch` is indexed by query position `i`
//! (1-based, as in the recurrence; `j = d − i`) and sized once per
//! extension, never per step:
//!
//! * `q[i]` is the symbol of query position `i`; `q[0]` is a pad
//!   symbol, and a chunk of padding follows position `m`;
//! * `trev[n + i − d]` is the symbol of target position `j` (the target
//!   is stored reversed, so an anti-diagonal walks both sequences in
//!   increasing address order); index `n` is the first of a chunk of
//!   padding;
//! * the query profile has a row per query position, row 0 a pad row;
//! * each of the three anti-diagonal buffers holds cell `i` at index
//!   `FRONT + i`, with a chunk of slack behind position `m`.
//!
//! The anti-diagonal buffers are grow-only and *never cleared* — not
//! between steps, not between extensions. What makes that sound: the
//! window of anti-diagonal `d + 1` lies within `[lo − 1, hi + 1]` of
//! window `[lo, hi]` of anti-diagonal `d` (bounds come from the trimmed
//! live range, clamped to the matrix), so the only cells of `d` that
//! steps `d + 1` and `d + 2` read as parents of a cell inside their own
//! window are `lo − 1 ..= hi + 1`. A step writes its window and sets
//! the cell on either side of it to −∞; whatever anti-diagonal `d − 3`,
//! or an earlier extension, left anywhere else in the buffer is only
//! ever loaded into lanes that are masked. Results therefore do not
//! depend on a workspace's history (`tests/alloc_count.rs`,
//! `tests/simd_equivalence.rs`).
//!
//! # Boundary cells need no special case
//!
//! Cell `i = 0` of an anti-diagonal has one parent (the cell to its
//! left), cell `j = 0` one (the cell above). The general recurrence
//! `max(p2[i − 1] + s, up[i − 1] + gap, left[i] + gap)` already yields
//! both: the missing parents are exactly the −∞ cells a step keeps
//! around each window (position −1 has an address: `FRONT`), and −∞
//! plus any substitution score stays below the threshold (eligibility),
//! so the `max` is decided by the one real parent or the cell is pruned
//! — what the scalar routine computes. The substitution score the
//! recurrence adds to −∞ needs symbols to come from: the pad symbol in
//! front of the query (and the pad row in front of its profile) for
//! `i = 0`, the first pad behind the reversed target for `j = 0`.
//!
//! # The lane mask: a slice of a table
//!
//! Lanes outside the window are not dead by themselves — their
//! operands are padding and neighbours outside the band, and `p2` can
//! hold a live cell there when the last anti-diagonal was trimmed
//! shorter than the one before. They are killed by a lane-wise `min`
//! against a slice of `Lane::LANE_MASK`, a run of "keep" entries (the
//! type's maximum) followed by a run of "kill" entries (−∞): where the
//! slice starts decides how many leading lanes survive. Two vector
//! instructions per masked chunk, where a compare on lane indices is
//! widened by the compiler to 32-bit lanes and packed back (≈ 40
//! instructions).
//!
//! # Thin bands: one chunk, nothing around it
//!
//! When the window fits one chunk — every step at small X — a step is
//! the recurrence body called once on the operands' lanes: no row to
//! assemble, no chunk loop, no lane-wise accumulator. Together with
//! buffers that are never resized and boundary cells that are not
//! branches, that leaves a step of a 7-cell band about as cheap as its
//! sixteen lanes of arithmetic plus the trim.
//!
//! # Bit-for-bit equality, by construction
//!
//! The i16 kernel is only entered when [`simd_eligible`] holds:
//!
//! * the best attainable score (`min(m, n) · max_score`) fits in
//!   [`SIMD_MAX_SCORE`] = `i16::MAX`, so live cell values are exact in
//!   16 bits (saturation cannot corrupt a reachable value);
//! * `x + max_score ≤` [`SIMD_MAX_X`], so every value derived from a
//!   pruned (−∞) parent stays below the X-drop threshold and is
//!   re-pruned — the i16 sentinel behaves exactly like the scalar
//!   `NEG_INF`, and the threshold itself stays above the sentinel;
//! * `|min_score|` and `|gap|` are bounded by [`SIMD_MAX_X`], so sums
//!   of *live* parents never saturate (saturation can only happen on
//!   already-dead values, which the threshold then kills — the
//!   overflow clamp of paper §III-C).
//!
//! The i8 kernel tightens the same three bounds to the i8 window
//! ([`SIMD8_MAX_SCORE`]) — except the best-score bound, which it
//! enforces *dynamically*: the run loop watches the live best and, when
//! the next anti-diagonal could carry a value past the window, hands
//! its exact mid-extension state to the i16 stepper (`escalate`)
//! instead of dropping to scalar. Both representations are exact over
//! their windows, so the handoff changes no value, trim, or tie-break,
//! and the sink sees one unbroken sequence of anti-diagonals.
//!
//! Under these conditions every cell value, trim decision and tie-break
//! is identical to the scalar routine, which the differential suites
//! (`tests/simd_equivalence.rs`, `tests/engine_tiers.rs`) assert over
//! random sequences, scorings and X values. Outside them, the
//! dispatcher falls back to the scalar routine — every [`Engine`] is
//! therefore *always* bit-identical to [`Engine::Scalar`], just faster
//! when the workload allows.
//!
//! # The stepper
//!
//! `LaneState` is one extension at one precision; its run loop calls
//! the step function (`advance`) to completion with everything a step
//! changes held as locals, so the per-step bookkeeping stays in
//! registers, and hands each step's [`DiagStats`] to the sink. There is
//! no public one-step API: a caller that wants the steps passes a sink
//! to [`Engine::extend_with_sink`].
//!
//! # Tier telemetry
//!
//! Every kernel run bumps a counter in the workspace's [`TierTally`],
//! so batch runners can report how often each tier actually fired (and
//! how often an i8 extension escalated) — ROADMAP's "how often does
//! scalar actually fire" question, answered per batch through
//! `logan_core::BackendReport`.

use crate::result::ExtensionResult;
use crate::workspace::AlignWorkspace;
use crate::xdrop::xdrop_run;
use crate::NEG_INF;
use logan_seq::{ScoreProfile, Seq};
use serde::Serialize;

/// Number of `i16` lanes processed per chunk. 16 lanes = one 256-bit
/// vector in the AVX2 compilation of the kernel (module docs, "One
/// source, two compilations"); in the portable compilation LLVM splits
/// the chunk into the target's baseline vectors — two 128-bit halves
/// under SSE2 or NEON.
pub(crate) const LANES: usize = 16;

/// Row stride of the query profile (`Scratch::qprof`): the
/// smallest power of two holding every alphabet (20 amino acids), so
/// the gather's row offset is a shift and masking a symbol code with
/// `PROF_STRIDE − 1` provably stays inside the row — which lets the
/// compiler drop the per-lane bounds checks.
const PROF_STRIDE: usize = 32;

/// Largest best score the i16 kernel accepts (see [`simd_eligible`]).
///
/// This is the tightest provably-safe bound: every reachable DP value
/// is at most the perfect-diagonal score `min(m, n) · max_score` (by
/// induction, `v(i, j) ≤ min(i, j) · max_score`), and `saturating_add`
/// is exact for any result up to `i16::MAX` itself — so the whole
/// positive i16 range is usable. The historical `i16::MAX / 2` window
/// halved the reach of the i16 tier for no safety gain.
pub const SIMD_MAX_SCORE: i32 = i16::MAX as i32;

/// Largest magnitude the i16 kernel accepts for `x + max_score` and the
/// per-cell penalties (see [`simd_eligible`]). Unlike the best-score
/// bound this one *is* tied to the −∞ sentinel: a value derived from a
/// pruned parent (`NEG_INF + max_score`) must still sit below the
/// X-drop threshold `best − x ≥ −x`, which requires
/// `x + max_score ≤ −NEG_INF − 1`; and sums of live parents
/// (`≥ −x ≥ −SIMD_MAX_X`) with penalties of at most this magnitude stay
/// above `i16::MIN`, so they never saturate low.
pub const SIMD_MAX_X: i32 = -(<i16 as Lane>::NEG_INF as i32) - 1;

/// Number of `i8` lanes processed per chunk: 32 lanes = one 256-bit
/// vector of bytes in the AVX2 compilation (two 128-bit halves in the
/// portable one), twice the cells per instruction of the i16 tier
/// either way.
pub(crate) const LANES8: usize = 32;

/// The i8 tier's score window (see [`simd8_eligible`]): best score,
/// `x + max_score` and penalty magnitudes must all fit in it. Unlike
/// the i16 tier, the best-score bound is enforced *dynamically* — the
/// stepper escalates to i16 when the live best approaches it — so
/// eligibility only needs the static bounds.
pub const SIMD8_MAX_SCORE: i32 = (i8::MAX / 2) as i32;

/// Which X-drop kernel computes an extension.
///
/// All engines produce bit-identical [`ExtensionResult`]s — the choice
/// is purely a performance knob, which is what makes it safe to select
/// at runtime (CLI `--engine`, `LOGAN_ENGINE`, or per-config fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The scalar i32 reference ([`xdrop_extend`](crate::xdrop::xdrop_extend)): the semantic ground
    /// truth every other backend is tested against.
    #[default]
    Scalar,
    /// The lane-parallel i16 kernel; falls back to the scalar routine
    /// when [`simd_eligible`] is false.
    Simd,
    /// The lane-parallel i8 kernel, escalating mid-extension to the i16
    /// kernel if the live score approaches the i8 window; falls back to
    /// the scalar routine when [`simd8_eligible`] is false.
    I8,
    /// Per-pair tier selection from what the dispatcher can observe:
    /// the i16 kernel when [`simd_eligible`], else the scalar routine.
    /// The i8 tier is never selected — whether an extension stays
    /// inside its window is not observable up front, and measured
    /// (EXPERIMENTS.md, `engine_tiers`) it is ahead of i16 only where it
    /// does, on no workload of the repo benchmark.
    Adaptive,
}

impl Engine {
    /// Extend with this engine. Same contract as [`xdrop_extend`](crate::xdrop::xdrop_extend);
    /// accepts a plain `Scoring` or any [`ScoreProfile`].
    ///
    /// Thin allocating wrapper over [`Engine::extend_with`].
    pub fn extend(
        self,
        query: &Seq,
        target: &Seq,
        profile: impl Into<ScoreProfile>,
        x: i32,
    ) -> ExtensionResult {
        self.extend_with(query, target, profile, x, &mut AlignWorkspace::new())
    }

    /// Extend with this engine into caller-owned scratch (DESIGN.md §7)
    /// — the one dispatcher over the tier ladder. Whichever kernel runs
    /// (the engine's tier when its eligibility window holds, the scalar
    /// routine otherwise), all of its buffers come from `ws`, so a warm
    /// workspace makes the call allocation-free, and the tier that ran
    /// (plus any i8 → i16 escalation) is recorded in `ws.tally`.
    /// Results are bit-identical to [`xdrop_extend`](crate::xdrop::xdrop_extend)
    /// on every path and independent of the workspace's history.
    ///
    /// Panics if `x` is negative.
    pub fn extend_with(
        self,
        query: &Seq,
        target: &Seq,
        profile: impl Into<ScoreProfile>,
        x: i32,
        ws: &mut AlignWorkspace,
    ) -> ExtensionResult {
        self.extend_cpu(query, target, profile.into(), x, ws)
    }

    /// [`extend_with`](Engine::extend_with) behind its generic argument:
    /// not generic and not inlined, so the kernels' `()`-sink
    /// instantiation is compiled once, here, and every CPU caller runs
    /// that one copy ([`run_i16`]).
    fn extend_cpu(
        self,
        query: &Seq,
        target: &Seq,
        profile: ScoreProfile,
        x: i32,
        ws: &mut AlignWorkspace,
    ) -> ExtensionResult {
        self.dispatch(query, target, profile, x, ws, false, &mut ())
    }

    /// [`extend_with`](Engine::extend_with), handing the [`DiagStats`]
    /// of every anti-diagonal the kernel computes to `sink`, in order —
    /// the dropped one included, across an i8 → i16 escalation too. The
    /// statistics are the same whichever tier runs.
    pub fn extend_with_sink(
        self,
        query: &Seq,
        target: &Seq,
        profile: impl Into<ScoreProfile>,
        x: i32,
        ws: &mut AlignWorkspace,
        sink: &mut impl StepSink,
    ) -> ExtensionResult {
        self.dispatch(query, target, profile.into(), x, ws, false, sink)
    }

    /// [`extend_with_sink`](Engine::extend_with_sink) behind its generic
    /// argument; `portable` pins the lane kernels to their portable
    /// compilation ([`extend_portable`], the test seam).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn dispatch<S: StepSink>(
        self,
        query: &Seq,
        target: &Seq,
        profile: ScoreProfile,
        x: i32,
        ws: &mut AlignWorkspace,
        portable: bool,
        sink: &mut S,
    ) -> ExtensionResult {
        assert!(x >= 0, "X-drop parameter must be non-negative");
        if query.is_empty() || target.is_empty() {
            return ExtensionResult::zero();
        }
        match self {
            Engine::I8 if simd8_eligible(query, target, profile, x) => {
                run_i8(query, target, profile, x, ws, portable, sink)
            }
            Engine::Simd | Engine::Adaptive if simd_eligible(query, target, profile, x) => {
                run_i16(query, target, profile, x, ws, portable, sink)
            }
            _ => xdrop_run(query, target, profile, x, ws, sink),
        }
    }

    /// Read `LOGAN_ENGINE` (`scalar` / `simd` / `i8` / `adaptive`,
    /// case-insensitive) from the environment; unset selects
    /// [`Engine::Adaptive`] — the fastest engine that is always safe —
    /// and an unrecognized value selects it too but warns on stderr (a
    /// typo would otherwise silently benchmark the wrong engine).
    /// Because engines are bit-identical, flipping the variable can
    /// never change any result or simulated metric — only host
    /// wall-clock. ([`Engine::default`] stays the scalar reference.)
    pub fn from_env() -> Engine {
        match std::env::var("LOGAN_ENGINE") {
            Ok(v) => v.parse().unwrap_or_else(|e| {
                eprintln!("warning: LOGAN_ENGINE ignored: {e}");
                Engine::Adaptive
            }),
            Err(_) => Engine::Adaptive,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Scalar => "scalar",
            Engine::Simd => "simd",
            Engine::I8 => "i8",
            Engine::Adaptive => "adaptive",
        })
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Ok(Engine::Scalar),
            "simd" | "i16" => Ok(Engine::Simd),
            "i8" | "simd8" => Ok(Engine::I8),
            "adaptive" => Ok(Engine::Adaptive),
            other => Err(format!(
                "unknown engine `{other}` (expected one of `scalar`, \
                 `simd` (alias `i16`), `i8` (alias `simd8`), `adaptive`)"
            )),
        }
    }
}

/// Per-tier dispatch and escalation counters (DESIGN.md §14): how many
/// extensions each kernel tier actually computed, and how many i8 runs
/// escalated mid-extension to i16. Accumulated in
/// [`AlignWorkspace::tally`](crate::workspace::AlignWorkspace) by every
/// kernel run and surfaced per batch through
/// `logan_align::BatchResult` and `logan_core::BackendReport` — the
/// measured answer to ROADMAP's "how often does scalar actually fire".
///
/// An extension that escalates counts once under [`lanes8`](Self::lanes8)
/// (the tier that dispatched it) plus once under
/// [`escalations`](Self::escalations); empty inputs (score-zero early
/// returns) run no kernel and are not counted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TierTally {
    /// Extensions computed by the scalar i32 reference (including
    /// eligibility fallbacks of the SIMD engines).
    pub scalar: u64,
    /// Extensions computed by the 16-lane i16 kernel.
    pub lanes16: u64,
    /// Extensions dispatched to the 32-lane i8 kernel.
    pub lanes8: u64,
    /// i8 extensions whose live score approached the i8 window and
    /// escalated mid-run to the i16 kernel (a subset of
    /// [`lanes8`](Self::lanes8)).
    pub escalations: u64,
}

impl TierTally {
    /// Extensions counted across all tiers (escalations are not a tier
    /// and are excluded).
    pub fn total(&self) -> u64 {
        self.scalar + self.lanes16 + self.lanes8
    }

    /// Add another tally into this one (for merging batch reports).
    pub fn merge(&mut self, other: &TierTally) {
        self.scalar += other.scalar;
        self.lanes16 += other.lanes16;
        self.lanes8 += other.lanes8;
        self.escalations += other.escalations;
    }

    /// Counter-wise `self − earlier`, for snapshot-delta accounting
    /// around a single extension or pair.
    pub fn diff(&self, earlier: &TierTally) -> TierTally {
        TierTally {
            scalar: self.scalar - earlier.scalar,
            lanes16: self.lanes16 - earlier.lanes16,
            lanes8: self.lanes8 - earlier.lanes8,
            escalations: self.escalations - earlier.escalations,
        }
    }
}

/// True when the i16 kernel can reproduce the scalar result exactly
/// (see the module docs for why each bound is required);
/// [`Engine::extend_with`] falls back to the scalar routine when this
/// is false.
///
/// The bounds are computed from the *profile's* extreme substitution
/// scores, not an assumed uniform match score: the best attainable
/// score of a `min(m, n)`-step diagonal is `min(m, n) · max_score`
/// (e.g. 11 per residue under BLOSUM62, not 1), and the largest
/// per-cell drop from a live parent is `min(min_score, gap)`. For a
/// match/mismatch profile this reduces exactly to the historical check
/// (`max_score = match`, `min_score = mismatch`). The best-score bound
/// is [`SIMD_MAX_SCORE`] (the full positive i16 range); the threshold
/// and penalty bounds are the tighter [`SIMD_MAX_X`], tied to the −∞
/// sentinel.
pub fn simd_eligible(query: &Seq, target: &Seq, profile: impl Into<ScoreProfile>, x: i32) -> bool {
    let p = profile.into();
    let max_score = p.max_score() as i64;
    let perfect = query.len().min(target.len()) as i64 * max_score;
    let max_x = SIMD_MAX_X as i64;
    (0..=SIMD_MAX_SCORE as i64).contains(&perfect)
        && x as i64 + max_score <= max_x
        && p.min_score() as i64 >= -max_x
        && p.gap() as i64 >= -max_x
}

/// True when the i8 kernel can start an extension and reproduce the
/// scalar result exactly — possibly by escalating to i16 mid-run, so
/// the full i16 window ([`simd_eligible`]) must hold too (the stepper
/// may hand the extension over at any point). The static i8 bounds
/// mirror the i16 ones over [`SIMD8_MAX_SCORE`]:
///
/// * `x + max_score ≤ SIMD8_MAX_SCORE`, so dead-derived values
///   (`NEG_INF + max_score`) stay below the threshold and the
///   threshold itself (`≥ −x`) stays above the sentinel;
/// * `|min_score|` and `|gap|` within the window, so live-parent sums
///   stay above the sentinel's floor and every profile entry is exact
///   at byte width.
///
/// The best-score bound has no static counterpart: the stepper
/// escalates before any reachable value could leave the window.
pub fn simd8_eligible(query: &Seq, target: &Seq, profile: impl Into<ScoreProfile>, x: i32) -> bool {
    let p = profile.into();
    let max8 = SIMD8_MAX_SCORE as i64;
    let max_score = p.max_score() as i64;
    simd_eligible(query, target, p, x)
        && max_score >= 0
        && x as i64 + max_score <= max8
        && p.min_score() as i64 >= -max8
        && p.gap() as i64 >= -max8
}

/// The element type of a SIMD tier — what the stepper
/// (`LaneState`) and its row kernel are written once over and
/// monomorphised for. Implemented for `i16` (the [`LANES`]-lane tier)
/// and [`Biased8`] (the [`LANES8`]-lane i8 tier); the lane count is the
/// stepper's const parameter.
pub(crate) trait Lane: Copy + Ord + std::fmt::Debug + 'static {
    /// The "−∞" sentinel, chosen (like the scalar `NEG_INF`) far enough
    /// from `MIN` that adding an in-window penalty cannot wrap before
    /// saturation.
    const NEG_INF: Self;
    /// Largest score that is exact at this width (the tier's window).
    const MAX_SCORE: i32;
    /// The lane-mask table: [`LANES8`] "keep" entries (the type's
    /// maximum, the identity of `min`) followed by as many "kill"
    /// entries (−∞). A chunk's lane mask is a slice of it: the entries
    /// from index `LANES8 − n` on keep the first `n` lanes and kill the
    /// rest.
    const LANE_MASK: &'static [Self; 2 * LANES8];
    /// Saturating addition — the overflow clamp of paper §III-C.
    fn sat_add(self, rhs: Self) -> Self;
    /// Narrow a value the eligibility check bounds within the window
    /// (a sequence code, a score, a threshold, a lane index).
    fn narrow(v: i32) -> Self;
    /// Widen back to the scalar engine's i32.
    fn widen(self) -> i32;
}

/// [`Lane::LANE_MASK`] for one lane type.
const fn lane_mask_table<T: Copy>(keep: T, kill: T) -> [T; 2 * LANES8] {
    let mut mask = [keep; 2 * LANES8];
    let mut k = LANES8;
    while k < mask.len() {
        mask[k] = kill;
        k += 1;
    }
    mask
}

impl Lane for i16 {
    const NEG_INF: i16 = i16::MIN / 2;
    const MAX_SCORE: i32 = SIMD_MAX_SCORE;
    const LANE_MASK: &'static [i16; 2 * LANES8] = &lane_mask_table(i16::MAX, Self::NEG_INF);
    #[inline(always)]
    fn sat_add(self, rhs: i16) -> i16 {
        self.saturating_add(rhs)
    }
    #[inline(always)]
    fn narrow(v: i32) -> i16 {
        v as i16
    }
    #[inline(always)]
    fn widen(self) -> i32 {
        self as i32
    }
}

/// The i8 tier's lane element: a score biased by `+64` into a `u8`, so
/// the window `−63 ..= 63` is `1 ..= 127` and −∞ is `0`.
///
/// Biased rather than signed because the byte operations a baseline
/// x86-64 vector unit has are the unsigned ones (`pmaxub`, `paddusb`,
/// `psubusb` — the reason KSW2 and SSW bias their 8-bit scores too): a
/// signed byte max costs four instructions in the portable (SSE2)
/// compilation, an unsigned one a single instruction, and the
/// recurrence takes three per cell. (The AVX2 compilation has `pmaxsb`
/// and would not care; one representation serves both.)
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Biased8(u8);

impl Biased8 {
    const BIAS: u8 = 64;
}

impl Lane for Biased8 {
    const NEG_INF: Biased8 = Biased8(0);
    const MAX_SCORE: i32 = SIMD8_MAX_SCORE;
    const LANE_MASK: &'static [Biased8; 2 * LANES8] =
        &lane_mask_table(Biased8(u8::MAX), Self::NEG_INF);
    /// `(a + 64) + (b + 64) − 64`, clamped below at −∞. The sum of two
    /// in-window operands is at most 254, so only the subtraction
    /// saturates: −∞ plus a penalty stays −∞, and −∞ plus a positive
    /// score lands below every threshold ([`simd8_eligible`]).
    #[inline(always)]
    fn sat_add(self, rhs: Biased8) -> Biased8 {
        Biased8(self.0.saturating_add(rhs.0).saturating_sub(Biased8::BIAS))
    }
    #[inline(always)]
    fn narrow(v: i32) -> Biased8 {
        Biased8((v + Biased8::BIAS as i32) as u8)
    }
    #[inline(always)]
    fn widen(self) -> i32 {
        self.0 as i32 - Biased8::BIAS as i32
    }
}

/// Cells of −∞ in front of position 0 of every anti-diagonal buffer:
/// the cell at query position `i` lives at index `FRONT + i`, so the
/// `i − 1` parents of the `i = 0` boundary cell have an address.
const FRONT: usize = 1;

/// One tier's scratch buffers, owned by an [`AlignWorkspace`]
/// (DESIGN.md §7): the lane-typed query/target buffers, the query
/// profile and the three anti-diagonals, all indexed by absolute query
/// position (see the module docs for the layout). Buffers grow to the
/// largest extension seen and are then reused; every `LaneState::new`
/// re-initialises the cells the kernel can read, so no state leaks
/// between extensions.
#[derive(Debug, Default)]
pub(crate) struct Scratch<T> {
    /// Query codes as lane elements at index `i` for query position `i`
    /// (1-based, as in the recurrence): one pad symbol in front — the
    /// "symbol" of the `i = 0` boundary cell — and a chunk of padding
    /// behind, so a rounded-up last chunk loads in bounds.
    q: Vec<T>,
    /// Target codes, *reversed*, then one chunk of padding: cell
    /// `(i, j = d − i)` reads `trev[n + i − d]`, so every anti-diagonal
    /// walks both sequences in increasing address order — the CPU
    /// mirror of LOGAN's Fig. 6 sequence reversal. Index `n` (the first
    /// pad) is the "symbol" of the `j = 0` boundary cell.
    trev: Vec<T>,
    /// The query profile a matrix-scored extension gathers from: row
    /// `i` ([`PROF_STRIDE`] entries wide, laid out like `q`: one pad
    /// row in front, a chunk of pad rows behind) holds the substitution
    /// scores of query position `i` against every target code, so the
    /// per-lane lookup is `qprof[i · PROF_STRIDE + t]` — a shift, not a
    /// multiply, with the row base walking the anti-diagonal
    /// contiguously. Empty (and never touched) on the DNA
    /// match/mismatch path, so the zero-allocation warm-workspace
    /// contract is unchanged there.
    qprof: Vec<T>,
    /// Anti-diagonals `d`, `d − 1` and `d − 2` in some rotation, each
    /// `FRONT + m + L` cells: sized once per extension, never per step.
    diags: [Vec<T>; 3],
}

/// The i16 tier's scratch.
pub(crate) type SimdScratch = Scratch<i16>;
/// The i8 tier's scratch; escalating runs use both this and the i16
/// one.
pub(crate) type Simd8Scratch = Scratch<Biased8>;

/// Size a scratch's three anti-diagonals for a query of `m` symbols
/// stepped in chunks of `lanes`, and hand them out. Grow-only, and
/// nothing is cleared: a step reads no cell of an anti-diagonal that
/// the step computing it did not write (module docs), so what an
/// earlier extension left behind is unreachable.
fn size_diags<T: Lane>(diags: &mut [Vec<T>; 3], m: usize, lanes: usize) -> [&mut [T]; 3] {
    let cells = FRONT + m + lanes + 1;
    diags.each_mut().map(|diag| {
        if diag.len() < cells {
            diag.resize(cells, T::NEG_INF);
        }
        &mut diag[..]
    })
}

/// What one anti-diagonal of an X-drop extension did: the statistics
/// every run loop — scalar and lane, every tier — hands its
/// [`StepSink`], sized for `logan-core`'s SIMT cost accounting. The
/// same for every engine on the same input; `width == live_width +
/// trim_front + trim_back` on every step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagStats {
    /// Cells computed on this anti-diagonal (before trimming).
    pub width: usize,
    /// Cells alive after X-drop trimming; 0 when the whole
    /// anti-diagonal fell below `best − X` and the extension dropped.
    pub live_width: usize,
    /// −∞ cells trimmed from the low end — all `width` of them on the
    /// anti-diagonal that dropped.
    pub trim_front: usize,
    /// −∞ cells trimmed from the high end.
    pub trim_back: usize,
    /// Maximum score on this anti-diagonal (exact, widened to i32;
    /// `NEG_INF` on the one that dropped).
    pub row_max: i32,
}

impl DiagStats {
    /// The statistics of an anti-diagonal of `width` cells that dropped.
    #[inline(always)]
    pub(crate) fn dropped(width: usize) -> DiagStats {
        DiagStats {
            width,
            live_width: 0,
            trim_front: width,
            trim_back: 0,
            row_max: NEG_INF,
        }
    }
}

/// Receives every anti-diagonal an extension computes, in order
/// ([`Engine::extend_with_sink`]). The run loops are generic over it and
/// call it once a step, inlined: `()` is the no-op every CPU caller
/// passes, `logan-core`'s simulated kernel books SIMT costs in one.
pub trait StepSink {
    /// One anti-diagonal was computed, pruned and trimmed.
    fn diag(&mut self, s: &DiagStats);
}

impl StepSink for () {
    #[inline(always)]
    fn diag(&mut self, _: &DiagStats) {}
}

/// How the kernel scores a substitution, fixed at `LaneState::new`
/// and dispatched once per anti-diagonal, so each source gets its own
/// monomorphised copy of the row kernel.
#[derive(Debug, Clone, Copy)]
enum SubstMode<T> {
    /// Compare-select between two constants.
    MatchMismatch { mat: T, mis: T },
    /// Gather from the per-query-position rows of `Scratch::qprof`
    /// (stride [`PROF_STRIDE`]).
    Profile,
}

/// The part of a stepper that changes from one anti-diagonal to the
/// next, as one `Copy` value: the run loop (`LaneState::run_while`)
/// carries it from iteration to iteration as a local, so it lives in
/// registers.
#[derive(Debug, Clone, Copy)]
struct Frontier {
    /// The last anti-diagonal computed — which is also how many were —
    /// and its live (trimmed) window as query positions
    /// `lo .. lo + len`.
    d: usize,
    lo: usize,
    len: usize,
    best: i32,
    best_i: usize,
    best_d: usize,
    cells: u64,
    max_width: usize,
    dropped: bool,
}

/// What an extension reads and never writes: the lane-typed sequences,
/// the query profile and the scoring, fixed at `LaneState::new`.
#[derive(Debug, Clone, Copy)]
struct Job<'w, T> {
    q: &'w [T],
    trev: &'w [T],
    /// The query profile, row by row.
    qprof: &'w [[T; PROF_STRIDE]],
    m: usize,
    n: usize,
    mode: SubstMode<T>,
    gap: T,
    x: i32,
}

/// Rolling state of a lane-parallel X-drop extension over `L` lanes of
/// `T`. All buffers are borrowed from a caller-owned [`Scratch`], so
/// running extensions back to back through the same scratch performs no
/// heap allocation once the buffers are warm.
#[derive(Debug)]
struct LaneState<'w, T, const L: usize> {
    job: Job<'w, T>,
    /// The buffers of anti-diagonals `d + 1` (the one the next step
    /// writes), `d` and `d − 1`; rotated once per step, as the GPU
    /// rotates its HBM anti-diagonals.
    diags: [&'w mut [T]; 3],
    at: Frontier,
}

impl<'w, T: Lane, const L: usize> LaneState<'w, T, L> {
    /// Start a non-empty extension, inside the tier's window
    /// ([`simd_eligible`] / [`simd8_eligible`], checked by the
    /// dispatcher), in the given scratch. Whatever the scratch held
    /// before is either re-initialised or unreachable.
    fn new(
        query: &Seq,
        target: &Seq,
        profile: ScoreProfile,
        x: i32,
        scratch: &'w mut Scratch<T>,
    ) -> Self {
        const { assert!(L <= LANES8, "the lane-mask table covers one widest chunk") };
        let (m, n) = (query.len(), target.len());
        let Scratch {
            q,
            trev,
            qprof,
            diags,
        } = scratch;
        // `front` pad symbols, the codes, `back` pad symbols: a row's
        // last chunk is rounded up, and its masked lanes load (and
        // ignore) the padding behind each sequence.
        fn load<'a, T: Lane>(
            dst: &mut Vec<T>,
            front: usize,
            codes: impl Iterator<Item = &'a u8>,
            back: usize,
        ) {
            let pad = T::narrow(0);
            dst.clear();
            dst.resize(front, pad);
            dst.extend(codes.map(|&b| T::narrow(b as i32)));
            dst.resize(dst.len() + back, pad);
        }
        load(q, 1, query.as_slice().iter(), L - 1);
        load(trev, 0, target.as_slice().iter().rev(), L);
        let mode = match profile {
            ScoreProfile::MatchMismatch(s) => SubstMode::MatchMismatch {
                mat: T::narrow(s.match_score),
                mis: T::narrow(s.mismatch),
            },
            ScoreProfile::Matrix(mx) => {
                // Build the query profile: one PROF_STRIDE-wide row per
                // query position holding that symbol's scores against
                // every target code. Eligibility bounds every table
                // entry within the window, so the narrowing is exact;
                // the pad past the alphabet is never read (target codes
                // are < the alphabet size). The pad row in front serves
                // the i = 0 boundary cell, whose diagonal parent is −∞
                // whatever the score; the pad rows behind are only read
                // by masked lanes.
                let asize = mx.alphabet.size();
                let table = mx.table();
                qprof.clear();
                qprof.resize((m + L) * PROF_STRIDE, T::NEG_INF);
                for (i, &qc) in query.as_slice().iter().enumerate() {
                    let row = &table[qc as usize * asize..][..asize];
                    for (dst, &s) in qprof[(i + 1) * PROF_STRIDE..][..asize].iter_mut().zip(row) {
                        *dst = T::narrow(s);
                    }
                }
                SubstMode::Profile
            }
        };
        let mut diags = size_diags(diags, m, L);
        // d = 0 is the single origin cell with score 0 between its two
        // sentinels; "d = −1" reads −∞ where the first step looks.
        let [_, prev, prev2] = &mut diags;
        prev[..FRONT + 2].copy_from_slice(&[T::NEG_INF, T::narrow(0), T::NEG_INF]);
        prev2[..FRONT + 1].fill(T::NEG_INF);
        LaneState {
            job: Job {
                q,
                trev,
                qprof: qprof.as_chunks().0,
                m,
                n,
                mode,
                gap: T::narrow(profile.gap()),
                x,
            },
            diags,
            at: Frontier {
                d: 0,
                lo: 0,
                len: 1,
                best: 0,
                best_i: 0,
                best_d: 0,
                cells: 0,
                max_width: 1,
                dropped: false,
            },
        }
    }

    /// Step while `stay` holds for the frontier, handing each step to
    /// `sink`, with everything that changes a local of the loop: the
    /// result once the extension ends (`Ok`), or the stepper where
    /// `stay` first failed (`Err`). Always inlined, so the step is
    /// code-generated inside — and for the instruction set of —
    /// whichever kernel body calls it (module docs, "One source, two
    /// compilations"), which is also why the large `Err` is never
    /// materialised.
    #[inline(always)]
    #[allow(clippy::result_large_err)]
    fn run_while(
        self,
        stay: impl Fn(&Frontier) -> bool,
        sink: &mut impl StepSink,
    ) -> Result<ExtensionResult, Self> {
        let LaneState {
            job,
            mut diags,
            mut at,
        } = self;
        while stay(&at) {
            let step;
            (diags, at, step) = job.advance::<L>(diags, at);
            match step {
                Some(stats) => sink.diag(&stats),
                None => return Ok(at.into_result()),
            }
        }
        Err(LaneState { job, diags, at })
    }

    /// [`run_while`](LaneState::run_while) to the end of the extension.
    #[inline(always)]
    fn run(self, sink: &mut impl StepSink) -> ExtensionResult {
        match self.run_while(|_| true, sink) {
            Ok(r) => r,
            Err(_) => unreachable!("a run without a stop condition ends the extension"),
        }
    }
}

impl Frontier {
    fn into_result(self) -> ExtensionResult {
        ExtensionResult {
            score: self.best,
            query_end: self.best_i,
            target_end: self.best_d - self.best_i,
            cells: self.cells,
            iterations: self.d as u64,
            max_width: self.max_width,
            dropped: self.dropped,
        }
    }
}

impl<'w, T: Lane> Job<'w, T> {
    /// One step from frontier `at` with `diags` the buffers of
    /// anti-diagonals `d + 1`, `d` and `d − 1`: the buffers rotated,
    /// the frontier after the step, and the step's statistics — `None`
    /// when there is no next anti-diagonal (the extension dropped, the
    /// band slid off the matrix, or `m + n` was the last).
    #[inline(always)]
    fn advance<const L: usize>(
        &self,
        diags: [&'w mut [T]; 3],
        mut at: Frontier,
    ) -> ([&'w mut [T]; 3], Frontier, Option<DiagStats>) {
        if at.dropped {
            return (diags, at, None);
        }
        let d = at.d + 1;
        let (m, n) = (self.m, self.n);
        // Candidate bounds from the previous live range, clamped to the
        // matrix — identical to the scalar routine. Past the last
        // anti-diagonal (d > m + n) they come out empty.
        let lo = at.lo.max(d.saturating_sub(n));
        let hi = (at.lo + at.len).min(d).min(m);
        if lo > hi {
            return (diags, at, None);
        }
        at.d = d;
        let w = hi - lo + 1;
        debug_assert!(
            ((T::NEG_INF.widen() + 1)..=T::MAX_SCORE).contains(&(at.best - self.x)),
            "threshold escaped the tier's exact window"
        );
        let thr = T::narrow(at.best - self.x);

        let [cur, prev, prev2] = diags;
        // The cells next to the window are the only ones outside it
        // that the next two steps can read (module docs); whatever
        // anti-diagonal d − 3 left there is re-sentinelled. (The row's
        // masked lanes then overwrite those that fall in its chunks.)
        cur[FRONT + lo - 1] = T::NEG_INF;
        cur[FRONT + hi + 1] = T::NEG_INF;

        let row_max = match self.mode {
            SubstMode::MatchMismatch { mat, mis } => {
                self.row::<L>(CompareSelect { mat, mis }, cur, prev, prev2, d, lo, w, thr)
            }
            SubstMode::Profile => {
                self.row::<L>(Gather(self.qprof), cur, prev, prev2, d, lo, w, thr)
            }
        };

        at.cells += w as u64;

        if row_max <= T::NEG_INF {
            // Entire anti-diagonal pruned: the alignment dropped.
            at.dropped = true;
            return ([prev2, cur, prev], at, Some(DiagStats::dropped(w)));
        }

        // Trim −∞ runs from both ends. The scans exit early, so their
        // cost is proportional to the trimmed cells, not the width.
        let vals = &cur[FRONT + lo..][..w];
        let live = |&v: &T| v > T::NEG_INF;
        let kf = vals.iter().position(live).expect("the row maximum is live");
        let kl = vals
            .iter()
            .rposition(live)
            .expect("the row maximum is live");
        at.lo = lo + kf;
        at.len = kl - kf + 1;
        at.max_width = at.max_width.max(at.len);

        // Raise the global best; the argmax scan (earliest i wins, the
        // kernel reduction's tie-break) only runs on improvement.
        if row_max.widen() > at.best {
            at.best = row_max.widen();
            at.best_i = lo + first_at::<T, L>(vals, row_max);
            at.best_d = d;
        }

        let stats = DiagStats {
            width: w,
            live_width: at.len,
            trim_front: kf,
            trim_back: w - 1 - kl,
            row_max: row_max.widen(),
        };
        ([prev2, cur, prev], at, Some(stats))
    }

    /// Anti-diagonal `d`'s window — `w` cells from query position `lo` —
    /// computed into `cur` from its two predecessors with `subst` the
    /// substitution source: the row maximum.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn row<const L: usize>(
        &self,
        subst: impl Subst<T, L>,
        cur: &mut [T],
        prev: &[T],
        prev2: &[T],
        d: usize,
        lo: usize,
        w: usize,
        thr: T,
    ) -> T {
        let t_from = self.n + lo - d;
        if w <= L {
            // The window fits one chunk — every step of a thin band:
            // the recurrence body straight on the operands' lanes.
            let subs = subst.scores(lo, lanes(self.q, lo), lanes(self.trev, t_from));
            let p2 = lanes(prev2, FRONT + lo - 1);
            let (up, left) = (lanes(prev, FRONT + lo - 1), lanes(prev, FRONT + lo));
            let vals = cells(&subs, p2, up, left, [lane_mask(w)], self.gap, thr);
            cur[FRONT + lo..][..L].copy_from_slice(&vals);
            return vals.into_iter().fold(T::NEG_INF, T::max);
        }
        // Every operand cut to the window rounded up to whole chunks,
        // lane 0 at query position lo.
        let span = w.div_ceil(L) * L;
        fn chunks<T, const L: usize>(operand: &[T], from: usize, span: usize) -> &[[T; L]] {
            operand[from..from + span].as_chunks().0
        }
        let row = Row::<T, L> {
            q: chunks(self.q, lo, span),
            t: chunks(self.trev, t_from, span),
            p2: chunks(prev2, FRONT + lo - 1, span),
            up: chunks(prev, FRONT + lo - 1, span),
            left: chunks(prev, FRONT + lo, span),
            out: cur[FRONT + lo..FRONT + lo + span].as_chunks_mut().0,
            live: w,
            gap: self.gap,
            thr,
        };
        row.run(subst, lo)
    }
}

/// Index of the first cell of `vals` equal to `max`, which is one of
/// them: whole chunks are skipped on one vector compare each.
#[inline]
fn first_at<T: Lane, const L: usize>(vals: &[T], max: T) -> usize {
    let skipped = vals
        .as_chunks::<L>()
        .0
        .iter()
        .take_while(|chunk| !chunk.iter().fold(false, |hit, &v| hit | (v == max)))
        .count();
    let from = skipped * L;
    from + vals[from..]
        .iter()
        .position(|&v| v == max)
        .expect("the maximum is one of the cells")
}

/// The `L` lanes of `operand` from index `from` on.
#[inline(always)]
fn lanes<T, const L: usize>(operand: &[T], from: usize) -> &[T; L] {
    operand[from..]
        .first_chunk()
        .expect("every operand is padded by a chunk")
}

/// The lane mask that keeps the first `keep` lanes of a chunk
/// (`1 ..= L` of them) and kills the rest: the slice of the keep/kill
/// table ([`Lane::LANE_MASK`]) that starts that many entries before the
/// kills. (The remainder only tells the compiler that the slice is in
/// bounds.)
#[inline(always)]
fn lane_mask<T: Lane, const L: usize>(keep: usize) -> &'static [T; L] {
    lanes(T::LANE_MASK, (LANES8 - keep) % LANES8)
}

/// One chunk of the anti-diagonal recurrence — the one recurrence body
/// of both tiers, both substitution sources and both window shapes (one
/// chunk, a row of them): `subs` the substitution scores, `p2` the diagonal
/// parents (anti-diagonal `d − 2` at `i − 1`), `up` the vertical ones
/// (`d − 1` at `i − 1`), `left` the horizontal ones (`d − 1` at `i`).
///
/// Everything is branch-free per lane (the `if`s compile to selects),
/// which is what lets LLVM emit packed min/max/saturating-add. Each
/// entry of `masks` is a slice of the keep/kill table
/// ([`Lane::LANE_MASK`]); a lane-wise `min` against it forces the lanes
/// outside the window to −∞ before they are reduced and stored. They
/// are not dead by themselves: their operands come from padding and
/// from neighbours outside the band — `p2` can hold a live cell there
/// when `prev` was trimmed shorter than `prev2`.
#[inline(always)]
fn cells<T: Lane, const L: usize, const MASKS: usize>(
    subs: &[T; L],
    p2: &[T; L],
    up: &[T; L],
    left: &[T; L],
    masks: [&[T; L]; MASKS],
    gap: T,
    thr: T,
) -> [T; L] {
    let mut vals = [T::NEG_INF; L];
    for k in 0..L {
        let diag = p2[k].sat_add(subs[k]);
        let mut v = diag.max(up[k].sat_add(gap)).max(left[k].sat_add(gap));
        for mask in masks {
            v = v.min(mask[k]);
        }
        vals[k] = if v < thr { T::NEG_INF } else { v };
    }
    vals
}

/// Where a chunk's substitution scores come from. One implementation
/// per source, so the recurrence is monomorphised per source and
/// nothing is dispatched inside it.
trait Subst<T, const L: usize> {
    /// Scores of the chunk whose lane 0 is query position `from` and
    /// whose symbols are `q` and `t`.
    fn scores(&self, from: usize, q: &[T; L], t: &[T; L]) -> [T; L];
}

/// DNA match/mismatch: compare-select between two constants.
struct CompareSelect<T> {
    mat: T,
    mis: T,
}

impl<T: Lane, const L: usize> Subst<T, L> for CompareSelect<T> {
    #[inline(always)]
    fn scores(&self, _: usize, q: &[T; L], t: &[T; L]) -> [T; L] {
        let mut subs = [self.mis; L];
        for k in 0..L {
            subs[k] = if q[k] == t[k] { self.mat } else { self.mis };
        }
        subs
    }
}

/// Matrix profile: one table entry per lane from the query-profile rows
/// (`Scratch::qprof`) of the chunk's lanes.
struct Gather<'a, T>(&'a [[T; PROF_STRIDE]]);

impl<T: Lane, const L: usize> Subst<T, L> for Gather<'_, T> {
    #[inline(always)]
    fn scores(&self, from: usize, _: &[T; L], t: &[T; L]) -> [T; L] {
        let rows: &[_; L] = lanes(self.0, from);
        let mut subs = [T::NEG_INF; L];
        for k in 0..L {
            // Masking the symbol code with PROF_STRIDE − 1 keeps the
            // index provably inside the lane's row, so the gather
            // compiles check-free.
            subs[k] = rows[k][t[k].widen() as usize & (PROF_STRIDE - 1)];
        }
        subs
    }
}

/// One anti-diagonal wider than a chunk, as the row kernel sees it:
/// every operand cut to the same whole number of `L`-lane chunks, lane
/// `k` of chunk `ci` belonging to query position `lo + ci · L + k`.
struct Row<'a, T, const L: usize> {
    /// Query symbols (`q[i]`).
    q: &'a [[T; L]],
    /// Reversed-target symbols (`t[j]`).
    t: &'a [[T; L]],
    /// Anti-diagonal `d − 2` at `i − 1`: the diagonal parent.
    p2: &'a [[T; L]],
    /// Anti-diagonal `d − 1` at `i − 1`: the vertical parent.
    up: &'a [[T; L]],
    /// Anti-diagonal `d − 1` at `i`: the horizontal parent.
    left: &'a [[T; L]],
    /// Anti-diagonal `d`, written in full.
    out: &'a mut [[T; L]],
    /// Cells in the window; lanes from here on are masked.
    live: usize,
    gap: T,
    thr: T,
}

impl<T: Lane, const L: usize> Row<'_, T, L> {
    /// The anti-diagonal recurrence over every chunk of the row, whose
    /// lane 0 is query position `lo`; returns the row maximum. Only the
    /// last chunk is masked.
    #[inline(always)]
    fn run(mut self, subst: impl Subst<T, L>, lo: usize) -> T {
        let last = self.out.len() - 1;
        let mut acc = [T::NEG_INF; L];
        for ci in 0..last {
            self.chunk(&subst, lo, ci, [], &mut acc);
        }
        let above = lane_mask::<T, L>(self.live - last * L);
        self.chunk(&subst, lo, last, [above], &mut acc);
        acc.into_iter().fold(T::NEG_INF, T::max)
    }

    /// Chunk `ci` of the row: computed, stored, and folded into the
    /// lane-wise maxima `acc`.
    #[inline(always)]
    fn chunk<const MASKS: usize>(
        &mut self,
        subst: &impl Subst<T, L>,
        lo: usize,
        ci: usize,
        masks: [&[T; L]; MASKS],
        acc: &mut [T; L],
    ) {
        let subs = subst.scores(lo + ci * L, &self.q[ci], &self.t[ci]);
        let (p2, up, left) = (&self.p2[ci], &self.up[ci], &self.left[ci]);
        let vals = cells(&subs, p2, up, left, masks, self.gap, self.thr);
        for k in 0..L {
            acc[k] = acc[k].max(vals[k]);
        }
        self.out[ci] = vals;
    }
}

impl<'w> LaneState<'w, Biased8, LANES8> {
    /// Hand this extension to the i16 stepper, widening into
    /// `scratch16` the sequences, the profile and the cells of the last
    /// two anti-diagonals that a later step can read. Both
    /// representations hold the exact DP values over their windows, so
    /// the i16 stepper continues from anti-diagonal `d + 1` with
    /// bit-identical state to an i16 run that had computed diagonals
    /// `1..=d` itself — escalation can never change a score, trim, or
    /// tie-break.
    fn escalate<'x>(self, scratch16: &'x mut SimdScratch) -> LaneState<'x, i16, LANES> {
        let LaneState {
            job: s,
            diags: diags8,
            at,
        } = self;
        // Sequences and profile rows are cut to the i16 kernel's own
        // (shorter) chunk of padding, so the i16 buffers' high-water
        // mark depends on the pair, not on the tier it started in.
        fn widen(src: &[Biased8], dst: &mut Vec<i16>, f: impl Fn(Biased8) -> i16) {
            dst.clear();
            dst.extend(src.iter().map(|&v| f(v)));
        }
        let exact = |v: Biased8| v.widen() as i16;
        let Scratch {
            q,
            trev,
            qprof,
            diags,
        } = scratch16;
        widen(&s.q[..s.m + LANES], q, exact);
        widen(&s.trev[..s.n + LANES], trev, exact);
        let mode = match s.mode {
            SubstMode::MatchMismatch { mat, mis } => SubstMode::MatchMismatch {
                mat: exact(mat),
                mis: exact(mis),
            },
            SubstMode::Profile => {
                let rows = s.qprof[..s.m + LANES].as_flattened();
                widen(rows, qprof, widen8);
                SubstMode::Profile
            }
        };
        // The next two steps read anti-diagonals d and d − 1 only from
        // one cell below the live window of d to one cell above it;
        // the buffers keep their places in the rotation.
        let mut diags = size_diags(diags, s.m, LANES);
        let reach = FRONT + at.lo - 1..FRONT + at.lo + at.len + 1;
        for (src, dst) in diags8.iter().zip(&mut diags) {
            for (wide, &narrow) in dst[reach.clone()].iter_mut().zip(&src[reach.clone()]) {
                *wide = widen8(narrow);
            }
        }
        LaneState {
            job: Job {
                q,
                trev,
                qprof: qprof.as_chunks().0,
                m: s.m,
                n: s.n,
                mode,
                gap: s.gap.widen() as i16,
                x: s.x,
            },
            diags,
            at: Frontier {
                d: at.d,
                lo: at.lo,
                len: at.len,
                best: at.best,
                best_i: at.best_i,
                best_d: at.best_d,
                cells: at.cells,
                max_width: at.max_width,
                dropped: false,
            },
        }
    }
}

/// Widen one i8-tier cell to i16, mapping the −∞ sentinel to the i16
/// sentinel (every other value is an exact score).
#[inline(always)]
fn widen8(v: Biased8) -> i16 {
    if v == Biased8::NEG_INF {
        i16::NEG_INF
    } else {
        v.widen() as i16
    }
}

/// The i16 kernel from first anti-diagonal to result, on an (already
/// eligibility-checked, non-empty) extension. Always inlined: this is
/// the one source both compilations of the kernel are generated from
/// (module docs, "One source, two compilations").
#[inline(always)]
fn i16_kernel(
    query: &Seq,
    target: &Seq,
    profile: ScoreProfile,
    x: i32,
    scratch: &mut SimdScratch,
    sink: &mut impl StepSink,
) -> ExtensionResult {
    LaneState::<i16, LANES>::new(query, target, profile, x, scratch).run(sink)
}

/// The i8 kernel likewise: in the i8 window while the next
/// anti-diagonal cannot leave it (`best + max_score` bounds its
/// values), then handed over to the i16 stepper in `scratch16`, the
/// escalation counted. Every value the i8 stepper stores is therefore
/// exact, which is what makes the hand-over a pure representation
/// change.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn i8_kernel(
    query: &Seq,
    target: &Seq,
    profile: ScoreProfile,
    x: i32,
    scratch8: &mut Simd8Scratch,
    scratch16: &mut SimdScratch,
    tally: &mut TierTally,
    sink: &mut impl StepSink,
) -> ExtensionResult {
    let max_sub = profile.max_score();
    let narrow = LaneState::<Biased8, LANES8>::new(query, target, profile, x, scratch8)
        .run_while(|at| at.best + max_sub <= SIMD8_MAX_SCORE, sink);
    narrow.unwrap_or_else(|stepper| {
        tally.escalations += 1;
        stepper.escalate(scratch16).run(sink)
    })
}

/// [`i16_kernel`] compiled for AVX2: the same body inlined into a
/// function whose code generation may use 256-bit integer vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn i16_kernel_avx2(
    query: &Seq,
    target: &Seq,
    profile: ScoreProfile,
    x: i32,
    scratch: &mut SimdScratch,
    sink: &mut impl StepSink,
) -> ExtensionResult {
    i16_kernel(query, target, profile, x, scratch, sink)
}

/// [`i8_kernel`] compiled for AVX2, its i16 continuation included.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn i8_kernel_avx2(
    query: &Seq,
    target: &Seq,
    profile: ScoreProfile,
    x: i32,
    scratch8: &mut Simd8Scratch,
    scratch16: &mut SimdScratch,
    tally: &mut TierTally,
    sink: &mut impl StepSink,
) -> ExtensionResult {
    i8_kernel(query, target, profile, x, scratch8, scratch16, tally, sink)
}

/// Whether this CPU runs the AVX2 compilation of the lane kernels.
/// Cached by the standard library after the first call (one relaxed
/// load), and never allocates.
#[inline]
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// Which compilation of the lane kernels [`Engine::extend_with`] runs
/// on this CPU: `"avx2"` or `"portable"` (the build target's baseline
/// vectors). For bench headings and the test seam's diagnostics.
#[doc(hidden)]
pub fn kernel_isa() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "portable"
    }
}

/// Test seam: [`Engine::extend_with_sink`] with the lane kernels
/// pinned to their portable compilation, whatever the CPU — so the
/// differential suites and `engine_tiers` can run both compilations on
/// one machine. Same dispatch, same tallies, same steps, same results.
#[doc(hidden)]
pub fn extend_portable(
    engine: Engine,
    query: &Seq,
    target: &Seq,
    profile: impl Into<ScoreProfile>,
    x: i32,
    ws: &mut AlignWorkspace,
    sink: &mut impl StepSink,
) -> ExtensionResult {
    engine.dispatch(query, target, profile.into(), x, ws, true, sink)
}

/// Run an (already eligibility-checked, non-empty) extension on the i16
/// kernel, tallying the dispatch: on its AVX2 compilation when the CPU
/// has it and `portable` does not pin the other one.
///
/// `inline(never)`: every CPU caller must share one machine-code copy
/// (the `()` sink's, instantiated once, by [`Engine::extend_cpu`]), so
/// tier choice is a pure dispatch decision — otherwise per-caller
/// inlining gives each caller a differently-laid-out kernel and
/// "identical" engines measure a few percent apart.
#[inline(never)]
fn run_i16(
    query: &Seq,
    target: &Seq,
    profile: ScoreProfile,
    x: i32,
    ws: &mut AlignWorkspace,
    portable: bool,
    sink: &mut impl StepSink,
) -> ExtensionResult {
    ws.tally.lanes16 += 1;
    if !portable && avx2_detected() {
        // SAFETY: `avx2_detected` has just seen that this CPU supports
        // AVX2, the one target feature `i16_kernel_avx2` enables.
        #[cfg(target_arch = "x86_64")]
        return unsafe { i16_kernel_avx2(query, target, profile, x, &mut ws.simd, sink) };
    }
    i16_kernel(query, target, profile, x, &mut ws.simd, sink)
}

/// Run an (already eligibility-checked, non-empty) extension on the i8
/// kernel, escalating to the i16 kernel if the window closes; tallies
/// the dispatch and any escalation.
///
/// `inline(never)` and dispatched for the same reasons as [`run_i16`].
#[inline(never)]
fn run_i8(
    query: &Seq,
    target: &Seq,
    profile: ScoreProfile,
    x: i32,
    ws: &mut AlignWorkspace,
    portable: bool,
    sink: &mut impl StepSink,
) -> ExtensionResult {
    let AlignWorkspace {
        simd, simd8, tally, ..
    } = ws;
    tally.lanes8 += 1;
    if !portable && avx2_detected() {
        // SAFETY: `avx2_detected` has just seen that this CPU supports
        // AVX2, the one target feature `i8_kernel_avx2` enables.
        #[cfg(target_arch = "x86_64")]
        return unsafe { i8_kernel_avx2(query, target, profile, x, simd8, simd, tally, sink) };
    }
    i8_kernel(query, target, profile, x, simd8, simd, tally, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xdrop::xdrop_extend;
    use logan_seq::readsim::random_seq;
    use logan_seq::{Base, ErrorModel, ErrorProfile, Scoring};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BIG_X: i32 = i32::MAX / 4;

    fn seq(s: &str) -> Seq {
        Seq::from_str_strict(s).unwrap()
    }

    /// Every engine on the same input, the SIMD ones through both
    /// compilations of their kernel; returns the (asserted equal)
    /// result.
    fn both(q: &Seq, t: &Seq, scoring: Scoring, x: i32) -> ExtensionResult {
        let scalar = Engine::Scalar.extend(q, t, scoring, x);
        for engine in [Engine::Simd, Engine::I8, Engine::Adaptive] {
            let r = engine.extend(q, t, scoring, x);
            assert_eq!(r, scalar, "{engine} diverged from scalar (x={x})");
            let r = extend_portable(
                engine,
                q,
                t,
                scoring,
                x,
                &mut AlignWorkspace::new(),
                &mut (),
            );
            assert_eq!(r, scalar, "portable {engine} diverged from scalar (x={x})");
        }
        scalar
    }

    #[test]
    fn engine_parsing_and_display() {
        // Every accepted spelling, canonical and alias, both cases.
        for (spelling, engine) in [
            ("scalar", Engine::Scalar),
            ("SCALAR", Engine::Scalar),
            ("simd", Engine::Simd),
            ("i16", Engine::Simd),
            ("I16", Engine::Simd),
            ("i8", Engine::I8),
            ("I8", Engine::I8),
            ("simd8", Engine::I8),
            ("adaptive", Engine::Adaptive),
            ("Adaptive", Engine::Adaptive),
        ] {
            assert_eq!(spelling.parse::<Engine>().unwrap(), engine, "{spelling}");
        }
        for engine in [Engine::Scalar, Engine::Simd, Engine::I8, Engine::Adaptive] {
            assert_eq!(
                engine.to_string().parse::<Engine>().unwrap(),
                engine,
                "display must round-trip"
            );
        }
        assert_eq!(Engine::default(), Engine::Scalar);
        // Rejections name the offender and list every valid value.
        let err = "cuda".parse::<Engine>().unwrap_err();
        for needle in [
            "`cuda`",
            "`scalar`",
            "`simd`",
            "`i16`",
            "`i8`",
            "`simd8`",
            "`adaptive`",
        ] {
            assert!(err.contains(needle), "error {err:?} must mention {needle}");
        }
        assert!("".parse::<Engine>().is_err());
        assert!("simd16".parse::<Engine>().is_err());
    }

    #[test]
    fn tally_counts_dispatches_and_merges() {
        let mut ws = AlignWorkspace::new();
        let s = seq("ACGTACGTACGT");
        // Scalar engine → scalar counter.
        Engine::Scalar.extend_with(&s, &s, Scoring::default(), 5, &mut ws);
        // x = 5 keeps the pair i8-eligible (5 + 1 ≤ 63), but only the
        // fixed i8 engine dispatches that tier: adaptive picks i16.
        Engine::Simd.extend_with(&s, &s, Scoring::default(), 5, &mut ws);
        Engine::I8.extend_with(&s, &s, Scoring::default(), 5, &mut ws);
        Engine::Adaptive.extend_with(&s, &s, Scoring::default(), 5, &mut ws);
        // x = 100 pushes past the i8 window: I8 falls back to scalar,
        // adaptive still picks i16.
        Engine::I8.extend_with(&s, &s, Scoring::default(), 100, &mut ws);
        Engine::Adaptive.extend_with(&s, &s, Scoring::default(), 100, &mut ws);
        // Empty inputs run no kernel and are not counted.
        Engine::Adaptive.extend_with(&Seq::new(), &s, Scoring::default(), 5, &mut ws);
        let t = ws.tally;
        assert_eq!(t.scalar, 2);
        assert_eq!(t.lanes16, 3);
        assert_eq!(t.lanes8, 1);
        assert_eq!(t.escalations, 0);
        assert_eq!(t.total(), 6);
        let mut merged = TierTally::default();
        merged.merge(&t);
        merged.merge(&t);
        assert_eq!(merged.diff(&t), t);
    }

    #[test]
    fn i8_escalation_is_counted_and_bit_identical() {
        // A long identical pair scores far past the i8 window, forcing
        // the i8 run to escalate mid-extension.
        let s: Seq = (0..600).map(|i| Base::from_code((i % 4) as u8)).collect();
        let mut ws = AlignWorkspace::new();
        assert!(simd8_eligible(&s, &s, Scoring::default(), 20));
        let r = Engine::I8.extend_with(&s, &s, Scoring::default(), 20, &mut ws);
        assert_eq!(r, Engine::Scalar.extend(&s, &s, Scoring::default(), 20));
        assert_eq!(r.score, 600);
        assert_eq!(ws.tally.lanes8, 1);
        assert_eq!(ws.tally.escalations, 1);
        // A pair that drops inside the window never escalates.
        let a: Seq = std::iter::repeat_n(Base::A, 300).collect();
        let t: Seq = std::iter::repeat_n(Base::T, 300).collect();
        Engine::I8.extend_with(&a, &t, Scoring::default(), 20, &mut ws);
        assert_eq!(ws.tally.lanes8, 2);
        assert_eq!(ws.tally.escalations, 1);
    }

    #[test]
    fn simd8_eligibility_bounds() {
        let s = seq("ACGTACGT");
        let max8 = SIMD8_MAX_SCORE;
        // x + match at the window edge is in; one past is out.
        assert!(simd8_eligible(&s, &s, Scoring::default(), max8 - 1));
        assert!(!simd8_eligible(&s, &s, Scoring::default(), max8));
        // Penalty magnitudes at the edge are in; one past is out (the
        // pair is still i16-eligible, so adaptive lands on i16).
        assert!(simd8_eligible(&s, &s, Scoring::new(1, -max8, -max8), 10));
        assert!(!simd8_eligible(
            &s,
            &s,
            Scoring::new(1, -(max8 + 1), -1),
            10
        ));
        assert!(!simd8_eligible(
            &s,
            &s,
            Scoring::new(1, -1, -(max8 + 1)),
            10
        ));
        // Anything i8-eligible must also be i16-eligible (escalation
        // target), and i16-ineligible inputs are i8-ineligible.
        let long: Seq = (0..40_000)
            .map(|i| Base::from_code((i % 4) as u8))
            .collect();
        assert!(!simd_eligible(&long, &long, Scoring::default(), 10));
        assert!(!simd8_eligible(&long, &long, Scoring::default(), 10));
    }

    #[test]
    fn empty_inputs_score_zero_on_both_engines() {
        let s = seq("ACGT");
        let e = Seq::new();
        for engine in [Engine::Scalar, Engine::Simd] {
            assert_eq!(
                engine.extend(&e, &s, Scoring::default(), 10),
                ExtensionResult::zero()
            );
            assert_eq!(
                engine.extend(&s, &e, Scoring::default(), 10),
                ExtensionResult::zero()
            );
            assert_eq!(
                engine.extend(&e, &e, Scoring::default(), 10),
                ExtensionResult::zero()
            );
        }
    }

    #[test]
    fn single_base_pairs() {
        let r = both(&seq("A"), &seq("A"), Scoring::default(), 3);
        assert_eq!((r.score, r.query_end, r.target_end), (1, 1, 1));
        let r = both(&seq("A"), &seq("C"), Scoring::default(), 3);
        assert_eq!((r.score, r.query_end, r.target_end), (0, 0, 0));
        let r = both(&seq("A"), &seq("C"), Scoring::default(), 0);
        assert_eq!(r.score, 0);
    }

    #[test]
    fn all_mismatch_pair_drops_early() {
        let a: Seq = std::iter::repeat_n(Base::A, 400).collect();
        let t: Seq = std::iter::repeat_n(Base::T, 400).collect();
        let r = both(&a, &t, Scoring::default(), 10);
        assert_eq!(r.score, 0);
        assert!(r.dropped);
        assert!(r.cells < 1_000);
    }

    #[test]
    fn zero_x_terminates_on_the_first_antidiagonal() {
        let s = seq("ACGTACGTAC");
        let r = both(&s, &s, Scoring::default(), 0);
        assert_eq!(r.score, 0);
        assert!(r.dropped);
        assert_eq!(r.cells, 2);
    }

    #[test]
    fn identical_sequences_reach_the_corner() {
        let s = seq("ACGTACGTACGTACGT");
        let r = both(&s, &s, Scoring::default(), 5);
        assert_eq!(r.score, s.len() as i32);
        assert_eq!((r.query_end, r.target_end), (s.len(), s.len()));
    }

    #[test]
    fn random_pairs_match_scalar_across_x() {
        let mut rng = StdRng::seed_from_u64(11);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.15));
        for trial in 0..25 {
            let len = 30 + (trial * 37) % 500;
            let template = random_seq(len, &mut rng);
            let (a, _) = model.corrupt(&template, &mut rng);
            let (b, _) = model.corrupt(&template, &mut rng);
            for x in [0, 1, 5, 25, 100, 1000] {
                both(&a, &b, Scoring::default(), x);
                both(&a, &b, Scoring::new(1, -2, -2), x);
            }
        }
    }

    #[test]
    fn score_at_the_i16_saturation_boundary() {
        // A perfect match of exactly SIMD_MAX_SCORE bases is the
        // largest score the i16 kernel accepts; it must stay exact.
        let n = SIMD_MAX_SCORE as usize;
        let s: Seq = (0..n).map(|i| Base::from_code((i % 4) as u8)).collect();
        assert!(simd_eligible(&s, &s, Scoring::default(), 2));
        let r = both(&s, &s, Scoring::default(), 2);
        assert_eq!(r.score, SIMD_MAX_SCORE);
        assert!(!r.dropped);
    }

    #[test]
    fn past_the_saturation_boundary_falls_back_to_scalar() {
        // match = 2000 makes a 17-base perfect run (34000) overflow the
        // widened 32767 eligibility bound; the SIMD engine must detect
        // it and defer. (match = 1000 used to trip the old 16383 bound
        // and is now comfortably eligible.)
        let scoring = Scoring::new(2000, -2000, -2000);
        let s = seq("ACGTACGTACGTACGTA");
        assert!(!simd_eligible(&s, &s, scoring, 50));
        both(&s, &s, scoring, 50);
        let old = Scoring::new(1000, -1000, -1000);
        assert!(simd_eligible(&s, &s, old, 50));
        both(&s, &s, old, 50);
    }

    #[test]
    fn huge_x_falls_back_to_scalar() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random_seq(120, &mut rng);
        let b = random_seq(140, &mut rng);
        assert!(!simd_eligible(&a, &b, Scoring::default(), BIG_X));
        both(&a, &b, Scoring::default(), BIG_X);
        // Largest eligible X still runs the i16 kernel.
        let x = SIMD_MAX_X - 1;
        assert!(simd_eligible(&a, &b, Scoring::default(), x));
        both(&a, &b, Scoring::default(), x);
    }

    #[test]
    fn eligibility_bounds() {
        let s = seq("ACGTACGT");
        assert!(simd_eligible(&s, &s, Scoring::default(), 100));
        // The X window is tied to the −∞ sentinel, not the (wider)
        // best-score window: x + match must stay within SIMD_MAX_X.
        assert!(simd_eligible(&s, &s, Scoring::default(), SIMD_MAX_X - 1));
        assert!(!simd_eligible(&s, &s, Scoring::default(), SIMD_MAX_X));
        assert!(!simd_eligible(&s, &s, Scoring::default(), SIMD_MAX_SCORE));
        assert!(!simd_eligible(
            &s,
            &s,
            Scoring::new(1, -(SIMD_MAX_X + 1), -1),
            10
        ));
        assert!(!simd_eligible(
            &s,
            &s,
            Scoring::new(1, -1, -(SIMD_MAX_X + 1)),
            10
        ));
        assert!(simd_eligible(
            &s,
            &s,
            Scoring::new(1, -SIMD_MAX_X, -SIMD_MAX_X),
            10
        ));
    }

    /// Regression for the eligibility window under matrix profiles: the
    /// bound must scale with the profile's `max_score` (11 for
    /// BLOSUM62), not an assumed match score of 1. A window computed
    /// from `match_score` would admit sequences up to `SIMD_MAX_SCORE`
    /// residues, whose perfect diagonal (11/residue) overflows i16.
    #[test]
    fn eligibility_window_scales_with_profile_max_score() {
        use logan_seq::Alphabet;
        let p = ScoreProfile::blosum62(-6);
        assert_eq!(p.max_score(), 11);
        let protein =
            |n: usize| Seq::from_codes((0..n).map(|i| (i % 20) as u8).collect(), Alphabet::Protein);
        // The largest safe length is ⌊SIMD_MAX_SCORE / 11⌋: beyond it a
        // perfect diagonal escapes the i16-exact window.
        let safe = (SIMD_MAX_SCORE / 11) as usize;
        assert!(simd_eligible(&protein(safe), &protein(safe), p, 100));
        assert!(
            !simd_eligible(&protein(safe + 1), &protein(safe + 1), p, 100),
            "a match-score-based bound would wrongly admit this length"
        );
        // The X bound also tightens to max_score: x + 11 must fit.
        let s = protein(50);
        assert!(simd_eligible(&s, &s, p, SIMD_MAX_X - 11));
        assert!(!simd_eligible(&s, &s, p, SIMD_MAX_X - 10));
        // A DNA profile reduces exactly to the historical check.
        let d = seq("ACGTACGT");
        let scoring = Scoring::new(2, -3, -4);
        assert_eq!(
            simd_eligible(&d, &d, scoring, 100),
            simd_eligible(&d, &d, ScoreProfile::from(scoring), 100)
        );
    }

    /// The profile-mode i16 kernel against the scalar profile path:
    /// bit-identical on eligible BLOSUM62 inputs, like the DNA engines.
    #[test]
    fn profile_simd_matches_profile_scalar() {
        use logan_seq::Alphabet;
        use rand::Rng;
        let p = ScoreProfile::blosum62(-6);
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..15 {
            let n = 20 + (trial * 53) % 400;
            let a = Seq::from_codes(
                (0..n).map(|_| rng.gen_range(0..20u8)).collect(),
                Alphabet::Protein,
            );
            // A homolog (point substitutions) and an unrelated partner.
            let mut hom_codes = a.as_slice().to_vec();
            for c in hom_codes.iter_mut() {
                if rng.gen_bool(0.2) {
                    *c = rng.gen_range(0..20u8);
                }
            }
            let hom = Seq::from_codes(hom_codes, Alphabet::Protein);
            let unrel = Seq::from_codes(
                (0..n).map(|_| rng.gen_range(0..20u8)).collect(),
                Alphabet::Protein,
            );
            for x in [0, 10, 60, 300] {
                for t in [&hom, &unrel] {
                    assert!(simd_eligible(&a, t, p, x));
                    let scalar = Engine::Scalar.extend(&a, t, p, x);
                    let simd = Engine::Simd.extend(&a, t, p, x);
                    assert_eq!(simd, scalar, "trial {trial} x={x}");
                }
            }
        }
    }

    /// Counts the steps a run loop hands its sink.
    #[derive(Default)]
    struct Count(usize);

    impl StepSink for Count {
        fn diag(&mut self, _: &DiagStats) {
            self.0 += 1;
        }
    }

    /// Every engine hands its sink each anti-diagonal it computes —
    /// the dropped one included — and they add up to its result.
    #[test]
    fn stepper_reports_consistent_stats() {
        struct Sums(u64, u64);
        impl StepSink for Sums {
            fn diag(&mut self, s: &DiagStats) {
                assert_eq!(s.width, s.live_width + s.trim_front + s.trim_back);
                self.0 += s.width as u64;
                self.1 += 1;
            }
        }
        let mut rng = StdRng::seed_from_u64(13);
        let template = random_seq(300, &mut rng);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.12));
        let (a, _) = model.corrupt(&template, &mut rng);
        let (b, _) = model.corrupt(&template, &mut rng);
        for x in [3, 40] {
            let want = xdrop_extend(&a, &b, Scoring::default(), x);
            for engine in [Engine::Scalar, Engine::Simd, Engine::I8, Engine::Adaptive] {
                let mut sums = Sums(0, 0);
                let mut ws = AlignWorkspace::new();
                let r = engine.extend_with_sink(&a, &b, Scoring::default(), x, &mut ws, &mut sums);
                assert_eq!(r, want, "{engine} x={x}");
                assert_eq!((sums.0, sums.1), (r.cells, r.iterations), "{engine} x={x}");
            }
        }
    }

    /// The i8 stepper hands over before the first anti-diagonal that
    /// could pass the window: after exactly the steps that brought the
    /// best past `SIMD8_MAX_SCORE − match` — two per symbol of a
    /// perfect pair — and not at all when the full score stays a match
    /// short of the ceiling.
    #[test]
    fn i8_hands_over_after_the_steps_that_reach_the_ceiling() {
        let perfect =
            |n: usize| -> Seq { (0..n).map(|i| Base::from_code((i * 5 % 4) as u8)).collect() };
        let ceiling = SIMD8_MAX_SCORE as usize;
        for mat in [1, 3, 7] {
            let scoring = Scoring::new(mat, -mat, -mat);
            let per_match = mat as usize;
            let on = ceiling / per_match;
            let hand_over_at = (ceiling - per_match) / per_match + 1;
            for n in [on - 1, on, on + 1] {
                let s = perfect(n);
                let profile = ScoreProfile::from(scoring);
                let mut scratch = Simd8Scratch::default();
                let mut steps = Count::default();
                let stepper = LaneState::<Biased8, LANES8>::new(&s, &s, profile, 20, &mut scratch);
                let ran = stepper.run_while(|at| at.best + mat <= SIMD8_MAX_SCORE, &mut steps);
                assert_eq!(ran.is_err(), n >= hand_over_at, "match = {mat}, n = {n}");
                if ran.is_err() {
                    assert_eq!(steps.0, 2 * hand_over_at, "match = {mat}, n = {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_x_rejected() {
        let _ = Engine::Simd.extend(&seq("A"), &seq("A"), Scoring::default(), -1);
    }
}
