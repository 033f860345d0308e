//! # logan-align
//!
//! CPU pairwise-alignment algorithms for LOGAN-rs: the scalar reference
//! implementations that (a) define the semantics the GPU kernel must
//! reproduce bit-for-bit and (b) serve as the paper's CPU baselines.
//!
//! * [`xdrop`] — the anti-diagonal X-drop extension algorithm of Zhang et
//!   al. (2000) as implemented in SeqAn's `extendSeedL` (paper §III,
//!   Algorithm 1). This is the ground truth for `logan-core`'s kernel.
//! * [`simd`] — the lane-parallel i16 and i8 analogues of the GPU
//!   kernel's int16 math (paper §III-C), bit-identical to the scalar
//!   routine. [`Engine::extend_with`] is the one dispatcher over the
//!   tiers (including the per-pair adaptive choice and the i8 tier's
//!   escalation to i16); there is no per-tier entry point beside it.
//! * [`seed_extend`](mod@seed_extend) — the seed-and-extend driver (paper Fig. 5): a seed
//!   splits each pair into a left extension (computed on reversed
//!   prefixes) and a right extension, both run under one
//!   [`XDropExtender`] (profile, X, engine).
//! * [`full`] — exact Needleman–Wunsch and Smith–Waterman, quadratic,
//!   used for oracle checks and as the CUDASW++-style workload.
//! * [`banded`] — fixed-band Smith–Waterman (paper Fig. 2's contrast to
//!   the X-drop "rugged band").
//! * [`ksw2`] — an affine-gap extension aligner with Z-drop termination
//!   and Z-derived band, reproducing minimap2's `ksw2_extz` behaviour
//!   (the paper's Table III / Fig. 9 baseline).
//! * [`batch`] — a multi-threaded batch runner over read pairs: the
//!   "SeqAn + OpenMP" configuration BELLA uses on the CPU
//!   ([`XDropCpuAligner`] is the pool bound to one extender).
//! * [`protein`] — the protein/translated-search surface: re-exports of
//!   [`logan_seq::ScoreProfile`] / BLOSUM62 plus the property tests that
//!   pin matrix scoring to the DNA engines (paper §VIII).
//! * [`workspace`] — reusable per-thread scratch ([`AlignWorkspace`])
//!   owning every buffer the extension stack needs, so warm extensions
//!   are allocation-free (DESIGN.md §7). Every entry point takes one;
//!   the only allocating conveniences are [`xdrop_extend`] (the scalar
//!   oracle), [`Engine::extend`] and [`seed_extend()`].
//!
//! # Position in the workspace
//!
//! Builds on [`logan_seq`] (sequences and scoring). The GPU side lives
//! upstack: `logan-core`'s kernel must match [`xdrop_extend`] bit for
//! bit, and `logan-bella` uses [`XDropCpuAligner`] as its CPU
//! backend. See `DESIGN.md` for the full map.

#![warn(missing_docs)]
// The DP inner loops index rows by `j` on purpose: the index participates
// in the recurrence (gap penalties like `j as i32 * e`, anti-diagonal
// coordinates), so iterator rewrites would obscure the wavefront math the
// kernels are checked against.
#![allow(clippy::needless_range_loop)]

pub mod banded;
pub mod batch;
pub mod full;
pub mod ksw2;
pub mod protein;
pub mod result;
pub mod seed_extend;
pub mod simd;
pub mod workspace;
pub mod xdrop;

pub use banded::banded_sw;
pub use batch::{BatchResult, CpuBatchAligner, XDropCpuAligner};
pub use full::{needleman_wunsch, smith_waterman};
pub use ksw2::{ksw2_extend, Ksw2Params};
pub use protein::{ScoreProfile, SubstMatrix, AMINO_ACIDS};
pub use result::{AlignmentResult, ExtensionResult, SeedExtendResult};
pub use seed_extend::{seed_extend, seed_extend_with};
pub use simd::{simd8_eligible, simd_eligible, DiagStats, Engine, StepSink, TierTally};
pub use workspace::{with_thread_workspace, AlignWorkspace};
pub use xdrop::{xdrop_extend, xdrop_extend_with, XDropExtender};

/// Sentinel for "pruned / unreachable" DP cells. Chosen far from
/// `i32::MIN` so that adding gap penalties can never wrap.
pub(crate) const NEG_INF: i32 = i32::MIN / 2;
