//! Lane-parallel X-drop extension: the CPU analogue of LOGAN's int16
//! GPU kernel (paper §III-C), and the engine-dispatch seam every future
//! backend plugs into.
//!
//! The GPU kernel computes each anti-diagonal with thousands of int16
//! lanes; the proven CPU analogue (minimap2's KSW2) is a saturating
//! low-precision striped inner loop with escalation to a wider type on
//! overflow. This module does the same with *portable* fixed-width
//! chunks — `[i16; LANES]` and `[Biased8; LANES8]` arrays with
//! saturating arithmetic, which LLVM auto-vectorizes to whatever SIMD
//! width the host offers — while keeping the exact bounds, pruning,
//! trimming, tie-break and termination logic of the scalar ground
//! truth [`xdrop_extend`](crate::xdrop::xdrop_extend).
//!
//! # The tier ladder (DESIGN.md §14)
//!
//! Three kernels compute the same recurrence at three precisions:
//!
//! | tier   | lanes/chunk | entered when                        |
//! |--------|-------------|-------------------------------------|
//! | i8     | [`LANES8`]  | [`simd8_eligible`]                  |
//! | i16    | [`LANES`]   | [`simd_eligible`]                   |
//! | scalar | —           | always (the i32 ground truth)       |
//!
//! [`Engine`] picks a tier ([`Engine::Adaptive`] picks per pair); every
//! tier is bit-identical to scalar, so the choice is purely a
//! performance knob.
//!
//! # One row kernel, vector-only anti-diagonals
//!
//! The two SIMD tiers are one stepper ([`LaneState`]) and one row
//! kernel, written once over the lane element ([`Lane`]) and the lane
//! count and monomorphised for `i16 × 16` and [`Biased8`]` × 32`. Like
//! the GPU kernel — which gives every cell of an anti-diagonal a lane
//! and idles the lanes past its end — the row kernel never drops to a
//! serial loop: the interior of an anti-diagonal is rounded *up* to whole
//! chunks, the five operand rows are sliced once, only full-width
//! chunks run, and the lanes of the last chunk that lie past the band
//! are forced to −∞ before they are reduced or stored. The loads those
//! lanes make land in padding (one chunk behind each sequence buffer
//! and profile, a chunk of sentinels around each anti-diagonal); only the
//! two boundary cells (`i = 0`, `j = 0`), which have a single parent,
//! are computed apart. The substitution source (DNA compare-select or
//! query-profile gather) is chosen once per anti-diagonal, outside the
//! chunk loop.
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
//! enforces *dynamically*: the stepper watches the live best and, when
//! the next anti-diagonal could carry a value past the window
//! ([`Simd8Step::Escalate`]), hands its exact mid-extension state to
//! the i16 stepper ([`Simd8State::escalate`]) instead of dropping to
//! scalar. Both representations are exact over their windows, so the
//! handoff changes no value, trim, or tie-break.
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
//! [`SimdState`] exposes the extension one anti-diagonal at a time so
//! that `logan-core`'s simulated GPU kernel can drive the same compute
//! while accounting SIMT costs per iteration (see
//! `logan_core::kernel::logan_block_extend`). [`Engine::extend_with`]
//! runs it to completion; [`Simd8State`] is the same stepper at i8 plus
//! the escalation watch.
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
use crate::xdrop::xdrop_extend_with;
use logan_seq::{ScoreProfile, Seq};
use serde::{Deserialize, Serialize};

/// Number of `i16` lanes processed per chunk. 16 lanes = one 256-bit
/// vector; on narrower hardware LLVM splits the chunk, on wider it
/// fuses iterations.
pub const LANES: usize = 16;

/// Padding (in cells) kept on both sides of every anti-diagonal buffer
/// — one chunk of the widest tier — so neither the `i − 1` neighbour
/// loads nor the row kernel's rounded-up last chunk need a range check:
/// out-of-band reads land in the pad and read as −∞.
const PAD: usize = LANES8;

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
/// vector of bytes, twice the cells per instruction of the i16 tier.
pub const LANES8: usize = 32;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
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
    /// Per-pair tier selection: the cheapest tier whose window provably
    /// holds — i8, then i16, then scalar.
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
        assert!(x >= 0, "X-drop parameter must be non-negative");
        let profile = profile.into();
        if query.is_empty() || target.is_empty() {
            return ExtensionResult::zero();
        }
        match self {
            Engine::I8 | Engine::Adaptive if simd8_eligible(query, target, profile, x) => {
                run_i8(query, target, profile, x, ws)
            }
            Engine::Simd | Engine::Adaptive if simd_eligible(query, target, profile, x) => {
                run_i16(query, target, profile, x, ws)
            }
            _ => xdrop_extend_with(query, target, profile, x, ws),
        }
    }

    /// Read `LOGAN_ENGINE` (`scalar` / `simd` / `i8` / `adaptive`,
    /// case-insensitive) from the environment; unset selects
    /// [`Engine::Scalar`], and an
    /// unrecognized value selects it too but warns on stderr (a typo
    /// would otherwise silently benchmark the wrong engine). Because
    /// engines are bit-identical, flipping the variable can never
    /// change any result or simulated metric — only host wall-clock.
    pub fn from_env() -> Engine {
        match std::env::var("LOGAN_ENGINE") {
            Ok(v) => v.parse().unwrap_or_else(|e| {
                eprintln!("warning: LOGAN_ENGINE ignored: {e}");
                Engine::Scalar
            }),
            Err(_) => Engine::Scalar,
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

// Manual impl instead of derive so artifacts written before the tally
// existed (no `tiers` field, read back as `Null`) deserialize as an
// empty tally instead of erroring.
impl Deserialize for TierTally {
    fn from_value(v: &serde::Value) -> Result<TierTally, serde::DeserializeError> {
        let entries = match v {
            serde::Value::Null => return Ok(TierTally::default()),
            serde::Value::Map(entries) => entries,
            other => return Err(serde::DeserializeError::expected("TierTally map", other)),
        };
        let get = |name: &str| -> Result<u64, serde::DeserializeError> {
            match serde::field(entries, name) {
                serde::Value::Null => Ok(0),
                present => u64::from_value(present),
            }
        };
        Ok(TierTally {
            scalar: get("scalar")?,
            lanes16: get("lanes16")?,
            lanes8: get("lanes8")?,
            escalations: get("escalations")?,
        })
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
/// ([`LaneState`]) and its row kernel are written once over and
/// monomorphised for. Implemented for `i16` (the [`LANES`]-lane tier)
/// and [`Biased8`] (the [`LANES8`]-lane i8 tier); the lane count is the
/// stepper's const parameter.
pub trait Lane: Copy + Ord + std::fmt::Debug + 'static {
    /// The "−∞" sentinel, chosen (like the scalar `NEG_INF`) far enough
    /// from `MIN` that adding an in-window penalty cannot wrap before
    /// saturation.
    const NEG_INF: Self;
    /// Largest score that is exact at this width (the tier's window).
    const MAX_SCORE: i32;
    /// Saturating addition — the overflow clamp of paper §III-C.
    fn sat_add(self, rhs: Self) -> Self;
    /// Narrow a value the eligibility check bounds within the window
    /// (a sequence code, a score, a threshold, a lane index).
    fn narrow(v: i32) -> Self;
    /// Widen back to the scalar engine's i32.
    fn widen(self) -> i32;
    /// Whether this tier reproduces the scalar result exactly
    /// ([`simd_eligible`] / [`simd8_eligible`]).
    fn eligible(query: &Seq, target: &Seq, profile: ScoreProfile, x: i32) -> bool;
}

impl Lane for i16 {
    const NEG_INF: i16 = i16::MIN / 2;
    const MAX_SCORE: i32 = SIMD_MAX_SCORE;
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
    fn eligible(query: &Seq, target: &Seq, profile: ScoreProfile, x: i32) -> bool {
        simd_eligible(query, target, profile, x)
    }
}

/// The i8 tier's lane element: a score biased by `+64` into a `u8`, so
/// the window `−63 ..= 63` is `1 ..= 127` and −∞ is `0`.
///
/// Biased rather than signed because the byte operations a baseline
/// x86-64 vector unit has are the unsigned ones (`pmaxub`, `paddusb`,
/// `psubusb` — the reason KSW2 and SSW bias their 8-bit scores too): a
/// signed byte max costs four instructions there, an unsigned one a
/// single instruction, and the recurrence takes three per cell.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Biased8(u8);

impl Biased8 {
    const BIAS: u8 = 64;
}

impl Lane for Biased8 {
    const NEG_INF: Biased8 = Biased8(0);
    const MAX_SCORE: i32 = SIMD8_MAX_SCORE;
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
    fn eligible(query: &Seq, target: &Seq, profile: ScoreProfile, x: i32) -> bool {
        simd8_eligible(query, target, profile, x)
    }
}

/// One anti-diagonal of lane-typed scores.
///
/// `vals` holds the cells *computed* for the diagonal (before
/// trimming), flanked by [`PAD`] sentinel cells on each side; the cell
/// for query index `i` lives at `vals[PAD + i - base]`. Trimming only
/// narrows the *live* window `[lo, lo + len)` — trimmed cells already
/// hold the sentinel, so reads through the computed window stay
/// correct without moving memory.
#[derive(Debug, Default, Clone)]
struct Diag<T> {
    vals: Vec<T>,
    /// Query index of the first computed cell (`vals[PAD]`).
    base: usize,
    /// Live (trimmed) window start.
    lo: usize,
    /// Live (trimmed) window length.
    len: usize,
}

impl<T: Lane> Diag<T> {
    /// Reset to an all-sentinel diagonal (reads −∞ everywhere), reusing
    /// the allocation.
    fn reset_sentinel(&mut self) {
        self.vals.clear();
        self.vals.resize(2 * PAD, T::NEG_INF);
        self.base = 0;
        self.lo = 0;
        self.len = 0;
    }

    /// Reset to the `d = 0` origin diagonal (single cell scoring 0),
    /// reusing the allocation.
    fn reset_origin(&mut self) {
        self.vals.clear();
        self.vals.resize(2 * PAD + 1, T::NEG_INF);
        self.vals[PAD] = T::narrow(0);
        self.base = 0;
        self.lo = 0;
        self.len = 1;
    }

    /// The cell at query index `i`, which must lie within [`PAD`] of
    /// the computed window (the pad reads −∞).
    #[inline(always)]
    fn at(&self, i: usize) -> T {
        self.vals[PAD + i - self.base]
    }
}

/// One tier's scratch buffers, owned by an [`AlignWorkspace`]
/// (DESIGN.md §7): the three padded anti-diagonal rings plus the
/// lane-typed query/target buffers. Buffers grow to the largest
/// extension seen and are then reused; every [`LaneState::new`] fully
/// re-initialises what the kernel reads, so no state leaks between
/// extensions.
#[derive(Debug, Default)]
pub struct Scratch<T> {
    /// Query codes as lane elements (index `i − 1` for query position
    /// `i`), followed by one chunk of padding so the row kernel's
    /// rounded-up last chunk loads in bounds.
    q: Vec<T>,
    /// Target codes, *reversed*, then one chunk of padding: cell
    /// `(i, j = d − i)` reads `trev[n + i − d]`, so every anti-diagonal
    /// walks both sequences in increasing address order — the CPU
    /// mirror of LOGAN's Fig. 6 sequence reversal.
    trev: Vec<T>,
    /// The query profile a matrix-scored extension gathers from: row
    /// `i − 1` (one per query position plus one chunk of padding rows,
    /// [`PROF_STRIDE`] entries wide) holds the substitution scores of
    /// query symbol `q[i]` against every target code, so the per-lane
    /// lookup is `qprof[(i − 1) · PROF_STRIDE + t]` — a shift, not a
    /// multiply, with the row base walking the anti-diagonal
    /// contiguously. Empty (and never touched) on the DNA
    /// match/mismatch path, so the zero-allocation warm-workspace
    /// contract is unchanged there.
    qprof: Vec<T>,
    prev2: Diag<T>,
    prev: Diag<T>,
    cur: Diag<T>,
}

/// The i16 tier's scratch.
pub type SimdScratch = Scratch<i16>;
/// The i8 tier's scratch; escalating runs use both this and the i16
/// one.
pub type Simd8Scratch = Scratch<Biased8>;

/// Per-anti-diagonal statistics reported by [`LaneState::step`], sized
/// for `logan-core`'s SIMT cost accounting.
#[derive(Debug, Clone, Copy)]
pub struct DiagStats {
    /// Cells computed on this anti-diagonal (before trimming).
    pub width: usize,
    /// Cells alive after X-drop trimming.
    pub live_width: usize,
    /// −∞ cells trimmed from the low end.
    pub trim_front: usize,
    /// −∞ cells trimmed from the high end.
    pub trim_back: usize,
    /// Maximum score on this anti-diagonal (exact, widened to i32).
    pub row_max: i32,
}

/// Outcome of one [`LaneState::step`].
#[derive(Debug, Clone, Copy)]
pub enum SimdStep {
    /// An anti-diagonal was computed and trimmed; the extension
    /// continues.
    Advanced(DiagStats),
    /// Every cell of the anti-diagonal fell below `best − X`: the
    /// extension dropped. `width` cells were still computed.
    Dropped {
        /// Cells computed on the final (fully pruned) anti-diagonal.
        width: usize,
    },
    /// The band slid off the matrix or the last anti-diagonal was
    /// already computed; nothing happened.
    Finished,
}

/// How the kernel scores a substitution, fixed at [`LaneState::new`]
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

/// Rolling state of a lane-parallel X-drop extension over `L` lanes of
/// `T`, advanced one anti-diagonal per [`step`](LaneState::step) call.
/// All buffers are borrowed from a caller-owned [`Scratch`], so running
/// extensions back to back through the same scratch performs no heap
/// allocation once the buffers are warm.
#[derive(Debug)]
pub struct LaneState<'w, T, const L: usize> {
    scratch: &'w mut Scratch<T>,
    m: usize,
    n: usize,
    mode: SubstMode<T>,
    gap: T,
    x: i32,
    d: usize,
    best: i32,
    best_i: usize,
    best_d: usize,
    cells: u64,
    iterations: u64,
    max_width: usize,
    dropped: bool,
    finished: bool,
}

/// The i16 tier's stepper.
pub type SimdState<'w> = LaneState<'w, i16, LANES>;

impl<'w, T: Lane, const L: usize> LaneState<'w, T, L> {
    /// Start an extension in the given scratch, or `None` when the
    /// inputs are empty or outside the tier's window
    /// ([`Lane::eligible`]; callers then use a wider tier or the scalar
    /// routine). Whatever the scratch held before is fully
    /// re-initialised.
    ///
    /// Panics if `x` is negative, like [`xdrop_extend`](crate::xdrop::xdrop_extend).
    pub fn new(
        query: &Seq,
        target: &Seq,
        profile: impl Into<ScoreProfile>,
        x: i32,
        scratch: &'w mut Scratch<T>,
    ) -> Option<Self> {
        assert!(x >= 0, "X-drop parameter must be non-negative");
        const { assert!(L <= PAD, "a chunk must fit in the anti-diagonal pad") };
        let profile = profile.into();
        if query.is_empty() || target.is_empty() || !T::eligible(query, target, profile, x) {
            return None;
        }
        let (m, n) = (query.len(), target.len());
        // The row kernel rounds the last chunk up; its masked lanes
        // load (and ignore) one chunk of padding behind each sequence.
        fn load<'a, T: Lane>(dst: &mut Vec<T>, codes: impl Iterator<Item = &'a u8>, pad: usize) {
            dst.clear();
            dst.extend(codes.map(|&b| T::narrow(b as i32)));
            dst.resize(dst.len() + pad, T::narrow(0));
        }
        load(&mut scratch.q, query.as_slice().iter(), L);
        load(&mut scratch.trev, target.as_slice().iter().rev(), L);
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
                // are < the alphabet size), and the L pad rows are only
                // read by masked lanes.
                let asize = mx.alphabet.size();
                let table = mx.table();
                scratch.qprof.clear();
                scratch.qprof.resize((m + L) * PROF_STRIDE, T::NEG_INF);
                for (i, &qc) in query.as_slice().iter().enumerate() {
                    let row = &table[qc as usize * asize..][..asize];
                    for (dst, &s) in scratch.qprof[i * PROF_STRIDE..][..asize]
                        .iter_mut()
                        .zip(row)
                    {
                        *dst = T::narrow(s);
                    }
                }
                SubstMode::Profile
            }
        };
        scratch.prev2.reset_sentinel();
        // d = 0: the single origin cell with score 0.
        scratch.prev.reset_origin();
        scratch.cur.reset_sentinel();
        Some(LaneState {
            scratch,
            m,
            n,
            mode,
            gap: T::narrow(profile.gap()),
            x,
            d: 0,
            best: 0,
            best_i: 0,
            best_d: 0,
            cells: 0,
            iterations: 0,
            max_width: 1,
            dropped: false,
            finished: false,
        })
    }

    /// Compute, prune and trim the next anti-diagonal.
    pub fn step(&mut self) -> SimdStep {
        if self.finished || self.dropped {
            return SimdStep::Finished;
        }
        self.d += 1;
        let d = self.d;
        let (m, n) = (self.m, self.n);
        if d > m + n {
            self.finished = true;
            return SimdStep::Finished;
        }
        // Candidate bounds from the previous live range, clamped to the
        // matrix — identical to the scalar routine.
        let lo = self.scratch.prev.lo.max(d.saturating_sub(n));
        let hi = (self.scratch.prev.lo + self.scratch.prev.len).min(d).min(m);
        if lo > hi {
            self.finished = true;
            return SimdStep::Finished;
        }
        let w = hi - lo + 1;
        debug_assert!(
            ((T::NEG_INF.widen() + 1)..=T::MAX_SCORE).contains(&(self.best - self.x)),
            "threshold escaped the tier's exact window"
        );
        let thr = T::narrow(self.best - self.x);
        let gap = self.gap;

        let row_max = {
            let Scratch {
                q,
                trev,
                qprof,
                prev2,
                prev,
                cur,
            } = &mut *self.scratch;
            // Every computed cell is written below and the left pad is
            // never written at all, so only the right pad needs the
            // sentinel restored.
            cur.vals.resize(w + 2 * PAD, T::NEG_INF);
            cur.vals[PAD + w..][..PAD].fill(T::NEG_INF);
            cur.base = lo;
            let mut row_max = T::NEG_INF;

            // Interior cells have i ≥ 1 and j ≥ 1: all three moves are
            // in play. Their span is rounded up to whole chunks and
            // every operand row sliced once, here; the loads past `ihi`
            // land in the sequence and anti-diagonal pads, and the
            // stores past it in `cur`'s right pad (and on the j = 0
            // boundary cell, which is therefore written afterwards).
            let ilo = lo.max(1);
            let ihi = hi.min(d - 1);
            if ilo <= ihi {
                let live = ihi - ilo + 1;
                let span = live.div_ceil(L) * L;
                fn chunks<T, const L: usize>(s: &[T], span: usize) -> &[[T; L]] {
                    s[..span].as_chunks().0
                }
                let p1 = &prev.vals[PAD + ilo - 1 - prev.base..];
                let row = Row::<T, L> {
                    q: chunks(&q[ilo - 1..], span),
                    t: chunks(&trev[n + ilo - d..], span),
                    p2: chunks(&prev2.vals[PAD + ilo - 1 - prev2.base..], span),
                    up: chunks(p1, span),
                    left: chunks(&p1[1..], span),
                    out: cur.vals[PAD + ilo - lo..][..span].as_chunks_mut().0,
                    live,
                    gap,
                    thr,
                };
                row_max = match self.mode {
                    SubstMode::MatchMismatch { mat, mis } => row.run(CompareSelect { mat, mis }),
                    SubstMode::Profile => row.run(Gather {
                        rows: &qprof[(ilo - 1) * PROF_STRIDE..][..span * PROF_STRIDE],
                    }),
                };
            }
            // Boundary cell i = 0 (j = d): only the horizontal move —
            // a gap consuming target bases — can reach it.
            if lo == 0 {
                let v = prune(prev.at(0).sat_add(gap), thr);
                cur.vals[PAD] = v;
                row_max = row_max.max(v);
            }
            // Boundary cell j = 0 (i = d): only the vertical move.
            if hi == d {
                let v = prune(prev.at(d - 1).sat_add(gap), thr);
                cur.vals[PAD + d - lo] = v;
                row_max = row_max.max(v);
            }
            row_max
        };

        self.cells += w as u64;
        self.iterations += 1;

        if row_max <= T::NEG_INF {
            // Entire anti-diagonal pruned: the alignment dropped.
            self.dropped = true;
            return SimdStep::Dropped { width: w };
        }

        // Trim −∞ runs from both ends. The scans exit early, so their
        // cost is proportional to the trimmed cells, not the width.
        let vals = &self.scratch.cur.vals[PAD..PAD + w];
        let kf = vals.iter().position(|&v| v > T::NEG_INF).unwrap();
        let kl = vals.iter().rposition(|&v| v > T::NEG_INF).unwrap();
        self.scratch.cur.lo = lo + kf;
        self.scratch.cur.len = kl - kf + 1;
        self.max_width = self.max_width.max(self.scratch.cur.len);

        // Raise the global best; the argmax scan (earliest i wins, the
        // kernel reduction's tie-break) only runs on improvement, and
        // skips ahead chunk-wise until the winning chunk.
        if row_max.widen() > self.best {
            let mut arg = 0;
            'outer: for (ci, chunk) in vals.chunks(L).enumerate() {
                let mut hit = false;
                for &v in chunk {
                    hit |= v == row_max;
                }
                if hit {
                    for (k, &v) in chunk.iter().enumerate() {
                        if v == row_max {
                            arg = lo + ci * L + k;
                            break 'outer;
                        }
                    }
                }
            }
            self.best = row_max.widen();
            self.best_i = arg;
            self.best_d = d;
        }

        // Rotate the three buffers, as the GPU rotates its HBM
        // anti-diagonals.
        let s = &mut *self.scratch;
        std::mem::swap(&mut s.prev2, &mut s.prev);
        std::mem::swap(&mut s.prev, &mut s.cur);
        SimdStep::Advanced(DiagStats {
            width: w,
            live_width: s.prev.len,
            trim_front: kf,
            trim_back: w - 1 - kl,
            row_max: row_max.widen(),
        })
    }

    /// Finish into an [`ExtensionResult`] (identical to what the scalar
    /// routine would return for the same inputs).
    pub fn into_result(self) -> ExtensionResult {
        ExtensionResult {
            score: self.best,
            query_end: self.best_i,
            target_end: self.best_d - self.best_i,
            cells: self.cells,
            iterations: self.iterations,
            max_width: self.max_width,
            dropped: self.dropped,
        }
    }
}

#[inline(always)]
fn prune<T: Lane>(v: T, thr: T) -> T {
    if v < thr {
        T::NEG_INF
    } else {
        v
    }
}

/// Where the row kernel takes a chunk's substitution scores from. One
/// implementation per source, so the kernel is monomorphised per source
/// and nothing is dispatched inside it.
trait Subst<T, const L: usize> {
    /// Scores of chunk `ci` of the row, whose symbols are `q` and `t`.
    fn scores(&self, ci: usize, q: &[T; L], t: &[T; L]) -> [T; L];
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
/// of the row's span (`Scratch::qprof`, stride [`PROF_STRIDE`]).
struct Gather<'a, T> {
    rows: &'a [T],
}

impl<T: Lane, const L: usize> Subst<T, L> for Gather<'_, T> {
    #[inline(always)]
    fn scores(&self, ci: usize, _: &[T; L], t: &[T; L]) -> [T; L] {
        let rows = &self.rows[ci * L * PROF_STRIDE..][..L * PROF_STRIDE];
        let mut subs = [T::NEG_INF; L];
        for k in 0..L {
            // Masking the symbol code with PROF_STRIDE − 1 keeps the
            // index provably inside the lane's row, so the gather
            // compiles check-free.
            subs[k] = rows[k * PROF_STRIDE + (t[k].widen() as usize & (PROF_STRIDE - 1))];
        }
        subs
    }
}

/// The interior of one anti-diagonal as the row kernel sees it: every
/// operand sliced to the same whole number of `L`-cell chunks, lane `k`
/// of chunk `ci` belonging to query index `ilo + ci · L + k`.
struct Row<'a, T, const L: usize> {
    /// Query symbols (`q[i − 1]`).
    q: &'a [[T; L]],
    /// Reversed-target symbols (`t[j − 1]`).
    t: &'a [[T; L]],
    /// Anti-diagonal `d − 2` at `i − 1`: the diagonal parent.
    p2: &'a [[T; L]],
    /// Anti-diagonal `d − 1` at `i − 1`: the vertical parent.
    up: &'a [[T; L]],
    /// Anti-diagonal `d − 1` at `i`: the horizontal parent.
    left: &'a [[T; L]],
    /// Anti-diagonal `d`, written in full.
    out: &'a mut [[T; L]],
    /// Cells that exist (`ihi − ilo + 1`); lanes from here on are
    /// masked.
    live: usize,
    gap: T,
    thr: T,
}

impl<T: Lane, const L: usize> Row<'_, T, L> {
    /// The anti-diagonal recurrence over every chunk of the row;
    /// returns the row maximum.
    #[inline(always)]
    fn run(mut self, subst: impl Subst<T, L>) -> T {
        let last = self.out.len() - 1;
        assert!(
            [self.q, self.t, self.p2, self.up, self.left]
                .iter()
                .all(|operand| operand.len() == last + 1),
            "operand rows must span the output row"
        );
        let mut acc = [T::NEG_INF; L];
        for ci in 0..last {
            self.chunk(&subst, ci, L, &mut acc);
        }
        self.chunk(&subst, last, self.live - last * L, &mut acc);
        acc.into_iter().fold(T::NEG_INF, T::max)
    }

    /// One chunk of the recurrence, the first `lanes` lanes of it live.
    ///
    /// Everything is branch-free per lane (the `if`s compile to
    /// selects), which is what lets LLVM emit packed
    /// min/max/saturating-add. Lanes from `lanes` on are forced to −∞
    /// before the lane-max accumulate and the store. They are not dead
    /// by themselves: their operands come from padding and from
    /// neighbours outside the band — `p2` can hold a live cell there
    /// when `prev` was trimmed shorter than `prev2`. With `lanes = L` a
    /// constant the mask folds away, so only a row's last chunk pays
    /// for it.
    #[inline(always)]
    fn chunk(&mut self, subst: &impl Subst<T, L>, ci: usize, lanes: usize, acc: &mut [T; L]) {
        let subs = subst.scores(ci, &self.q[ci], &self.t[ci]);
        let (p2, up, left) = (&self.p2[ci], &self.up[ci], &self.left[ci]);
        let (gap, thr, zero) = (self.gap, self.thr, T::narrow(0));
        // Lane k is masked when k > last, tested as the sign of
        // last − k: that keeps the compare at lane width, where an
        // index compare is widened to 32-bit lanes.
        let last = T::narrow(lanes as i32 - 1);
        let mut vals = [T::NEG_INF; L];
        for k in 0..L {
            let diag = p2[k].sat_add(subs[k]);
            let v = diag.max(up[k].sat_add(gap)).max(left[k].sat_add(gap));
            let dead = (v < thr) | (last.sat_add(T::narrow(-(k as i32))) < zero);
            vals[k] = if dead { T::NEG_INF } else { v };
            acc[k] = acc[k].max(vals[k]);
        }
        self.out[ci] = vals;
    }
}

/// Outcome of one [`Simd8State::step`]: [`SimdStep`] plus the
/// escalation signal.
#[derive(Debug, Clone, Copy)]
pub enum Simd8Step {
    /// An anti-diagonal was computed and trimmed; the extension
    /// continues.
    Advanced(DiagStats),
    /// Every cell of the anti-diagonal fell below `best − X`.
    Dropped {
        /// Cells computed on the final (fully pruned) anti-diagonal.
        width: usize,
    },
    /// The band slid off the matrix or the last anti-diagonal was
    /// already computed; nothing happened.
    Finished,
    /// The next anti-diagonal could carry a value past the i8 window
    /// (`best + max_score > `[`SIMD8_MAX_SCORE`]): nothing was
    /// computed, and the caller must hand the extension to the i16
    /// stepper via [`Simd8State::escalate`]. The signal is sticky —
    /// stepping again returns it again.
    Escalate,
}

/// Rolling state of a 32-lane i8 X-drop extension: the same stepper as
/// [`SimdState`] at the narrower precision, plus the escalation watch.
/// Every value it stores is exact (the stepper escalates before any
/// reachable value could leave the i8 window), which is what makes
/// [`escalate`](Simd8State::escalate) a pure representation change.
#[derive(Debug)]
pub struct Simd8State<'w> {
    lanes: LaneState<'w, Biased8, LANES8>,
    /// The profile's `max_score`, cached for the per-step escalation
    /// check (`best + max_sub` is the largest value the next
    /// anti-diagonal can reach).
    max_sub: i32,
}

impl<'w> Simd8State<'w> {
    /// Start an extension in the given scratch, or `None` when the
    /// inputs are empty or not [`simd8_eligible`] (callers then use a
    /// wider tier). Whatever the scratch held before is fully
    /// re-initialised.
    ///
    /// Panics if `x` is negative, like [`xdrop_extend`](crate::xdrop::xdrop_extend).
    pub fn new(
        query: &Seq,
        target: &Seq,
        profile: impl Into<ScoreProfile>,
        x: i32,
        scratch: &'w mut Simd8Scratch,
    ) -> Option<Simd8State<'w>> {
        let profile = profile.into();
        Some(Simd8State {
            lanes: LaneState::new(query, target, profile, x, scratch)?,
            max_sub: profile.max_score(),
        })
    }

    /// Compute, prune and trim the next anti-diagonal — or report
    /// [`Simd8Step::Escalate`] (computing nothing) when the next
    /// anti-diagonal could leave the i8 window.
    pub fn step(&mut self) -> Simd8Step {
        // Escalation watch: the next anti-diagonal's values are bounded
        // by best + max_score. Checked before computing anything, so
        // every value this stepper ever stores is exact in i8.
        let s = &self.lanes;
        if !(s.finished || s.dropped) && s.best + self.max_sub > SIMD8_MAX_SCORE {
            return Simd8Step::Escalate;
        }
        match self.lanes.step() {
            SimdStep::Advanced(stats) => Simd8Step::Advanced(stats),
            SimdStep::Dropped { width } => Simd8Step::Dropped { width },
            SimdStep::Finished => Simd8Step::Finished,
        }
    }

    /// Hand this extension to the i16 stepper, widening every buffer
    /// into `scratch16`. Both representations hold the exact DP values
    /// over their windows, so the i16 stepper continues from anti-
    /// diagonal `d + 1` with bit-identical state to an i16 run that had
    /// computed diagonals `1..=d` itself — escalation can never change
    /// a score, trim, or tie-break.
    pub fn escalate<'x>(self, scratch16: &'x mut SimdScratch) -> SimdState<'x> {
        let s = self.lanes;
        let s8 = &*s.scratch;
        // Sequences and profile rows are cut to the i16 kernel's own
        // (shorter) chunk of padding, so the i16 buffers' high-water
        // mark depends on the pair, not on the tier it started in.
        fn widen(src: &[Biased8], dst: &mut Vec<i16>, f: impl Fn(Biased8) -> i16) {
            dst.clear();
            dst.extend(src.iter().map(|&v| f(v)));
        }
        let exact = |v: Biased8| v.widen() as i16;
        widen(&s8.q[..s.m + LANES], &mut scratch16.q, exact);
        widen(&s8.trev[..s.n + LANES], &mut scratch16.trev, exact);
        let mode = match s.mode {
            SubstMode::MatchMismatch { mat, mis } => SubstMode::MatchMismatch {
                mat: exact(mat),
                mis: exact(mis),
            },
            SubstMode::Profile => {
                let rows = &s8.qprof[..(s.m + LANES) * PROF_STRIDE];
                widen(rows, &mut scratch16.qprof, widen8);
                SubstMode::Profile
            }
        };
        for (src, dst) in [
            (&s8.prev2, &mut scratch16.prev2),
            (&s8.prev, &mut scratch16.prev),
        ] {
            widen(&src.vals, &mut dst.vals, widen8);
            (dst.base, dst.lo, dst.len) = (src.base, src.lo, src.len);
        }
        scratch16.cur.reset_sentinel();
        LaneState {
            scratch: scratch16,
            m: s.m,
            n: s.n,
            mode,
            gap: s.gap.widen() as i16,
            x: s.x,
            d: s.d,
            best: s.best,
            best_i: s.best_i,
            best_d: s.best_d,
            cells: s.cells,
            iterations: s.iterations,
            max_width: s.max_width,
            dropped: false,
            finished: false,
        }
    }

    /// Finish into an [`ExtensionResult`] (identical to what the scalar
    /// routine would return for the same inputs).
    pub fn into_result(self) -> ExtensionResult {
        self.lanes.into_result()
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

/// Run an (already eligibility-checked, non-empty) extension on the i16
/// kernel, tallying the dispatch.
///
/// `inline(never)`: every instantiation of the dispatcher
/// ([`Engine::extend_with`] is generic over the profile argument) must
/// share one machine-code copy, so tier choice is a pure dispatch
/// decision — otherwise per-caller inlining gives each caller a
/// differently-laid-out kernel and "identical" engines measure a few
/// percent apart.
#[inline(never)]
fn run_i16(
    query: &Seq,
    target: &Seq,
    profile: ScoreProfile,
    x: i32,
    ws: &mut AlignWorkspace,
) -> ExtensionResult {
    ws.tally.lanes16 += 1;
    let mut state =
        SimdState::new(query, target, profile, x, &mut ws.simd).expect("eligibility checked above");
    while let SimdStep::Advanced(_) = state.step() {}
    state.into_result()
}

/// Run an (already eligibility-checked, non-empty) extension on the i8
/// kernel, escalating to the i16 kernel if the stepper reports the
/// window closing; tallies the dispatch and any escalation.
///
/// `inline(never)` for the same reason as [`run_i16`].
#[inline(never)]
fn run_i8(
    query: &Seq,
    target: &Seq,
    profile: ScoreProfile,
    x: i32,
    ws: &mut AlignWorkspace,
) -> ExtensionResult {
    let AlignWorkspace {
        simd, simd8, tally, ..
    } = ws;
    tally.lanes8 += 1;
    let mut state =
        Simd8State::new(query, target, profile, x, simd8).expect("eligibility checked above");
    loop {
        match state.step() {
            Simd8Step::Advanced(_) => {}
            Simd8Step::Escalate => {
                tally.escalations += 1;
                let mut wide = state.escalate(simd);
                while let SimdStep::Advanced(_) = wide.step() {}
                return wide.into_result();
            }
            Simd8Step::Dropped { .. } | Simd8Step::Finished => return state.into_result(),
        }
    }
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

    /// Every engine on the same input; returns the (asserted equal)
    /// result.
    fn both(q: &Seq, t: &Seq, scoring: Scoring, x: i32) -> ExtensionResult {
        let scalar = Engine::Scalar.extend(q, t, scoring, x);
        for engine in [Engine::Simd, Engine::I8, Engine::Adaptive] {
            let r = engine.extend(q, t, scoring, x);
            assert_eq!(r, scalar, "{engine} diverged from scalar (x={x})");
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
    fn tally_counts_dispatches_and_survives_legacy_null() {
        let mut ws = AlignWorkspace::new();
        let s = seq("ACGTACGTACGT");
        // Scalar engine → scalar counter.
        Engine::Scalar.extend_with(&s, &s, Scoring::default(), 5, &mut ws);
        // x = 5 keeps the pair i8-eligible (5 + 1 ≤ 63): both the fixed
        // i8 engine and adaptive dispatch to the i8 kernel.
        Engine::Simd.extend_with(&s, &s, Scoring::default(), 5, &mut ws);
        Engine::I8.extend_with(&s, &s, Scoring::default(), 5, &mut ws);
        Engine::Adaptive.extend_with(&s, &s, Scoring::default(), 5, &mut ws);
        // x = 100 pushes past the i8 window: I8 falls back to scalar,
        // adaptive picks i16.
        Engine::I8.extend_with(&s, &s, Scoring::default(), 100, &mut ws);
        Engine::Adaptive.extend_with(&s, &s, Scoring::default(), 100, &mut ws);
        // Empty inputs run no kernel and are not counted.
        Engine::Adaptive.extend_with(&Seq::new(), &s, Scoring::default(), 5, &mut ws);
        let t = ws.tally;
        assert_eq!(t.scalar, 2);
        assert_eq!(t.lanes16, 2);
        assert_eq!(t.lanes8, 2);
        assert_eq!(t.escalations, 0);
        assert_eq!(t.total(), 6);
        let mut merged = TierTally::default();
        merged.merge(&t);
        merged.merge(&t);
        assert_eq!(merged.diff(&t), t);
        // Artifacts written before the tally existed deserialize empty.
        assert_eq!(
            TierTally::from_value(&serde::Value::Null).unwrap(),
            TierTally::default()
        );
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(serde_json::from_str::<TierTally>(&json).unwrap(), t);
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

    #[test]
    fn stepper_reports_consistent_stats() {
        let mut rng = StdRng::seed_from_u64(13);
        let template = random_seq(300, &mut rng);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.12));
        let (a, _) = model.corrupt(&template, &mut rng);
        let (b, _) = model.corrupt(&template, &mut rng);
        let mut scratch = SimdScratch::default();
        let mut st = SimdState::new(&a, &b, Scoring::default(), 40, &mut scratch).unwrap();
        let mut widths = 0u64;
        let mut iters = 0u64;
        loop {
            match st.step() {
                SimdStep::Advanced(s) => {
                    assert_eq!(s.width, s.live_width + s.trim_front + s.trim_back);
                    widths += s.width as u64;
                    iters += 1;
                }
                SimdStep::Dropped { width } => {
                    widths += width as u64;
                    iters += 1;
                    break;
                }
                SimdStep::Finished => break,
            }
        }
        let r = st.into_result();
        assert_eq!(r.cells, widths);
        assert_eq!(r.iterations, iters);
        assert_eq!(r, xdrop_extend(&a, &b, Scoring::default(), 40));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_x_rejected() {
        let _ = Engine::Simd.extend(&seq("A"), &seq("A"), Scoring::default(), -1);
    }
}
