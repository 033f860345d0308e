//! # logan-bella
//!
//! A BELLA-style many-to-many long-read overlapper (Guidi et al.,
//! BELLA: Berkeley Efficient Long-Read to Long-Read Aligner and
//! Overlapper) — the real-world application the paper integrates LOGAN
//! into (§V, Tables IV–V, Figs. 10–11).
//!
//! Pipeline stages, mirroring BELLA:
//!
//! 1. **k-mer counting** ([`kmer_count`]) — canonical k-mers (k = 17)
//!    across all reads;
//! 2. **reliable-k-mer pruning** ([`prune`]) — keep multiplicities in a
//!    window derived from the depth/error model: singletons are almost
//!    surely errors, heavy k-mers are repeats that cause spurious
//!    candidates;
//! 3. **sparse overlap detection** ([`matrix`], [`spgemm`]) — the
//!    reads × k-mers matrix `A` multiplied with its transpose: every
//!    nonzero of `A·Aᵀ` is a candidate pair with shared-k-mer witnesses.
//!    Stages 1–3 are one sort here: the counter's keys carry each
//!    k-mer's read and position, so `A` falls out of counting
//!    ([`matrix::KmerMatrix::count_and_build`]);
//! 4. **binning** ([`binning`]) — witness positions estimate the overlap
//!    and pick the seed to extend from;
//!    *or, behind [`pipeline::Seeder::Minimizer`],* stages 3–4 are
//!    replaced by **minimizer seeding + colinear chaining** ([`chain`]):
//!    (w,k) sketches, anchor chaining with gap costs, and admission of
//!    only the pairs whose best chain supports the `min_overlap` floor —
//!    minimap2's recipe for an order of magnitude fewer candidates;
//! 5. **X-drop alignment** — through any [`logan_core::AlignBackend`]
//!    trait object: the CPU batch aligner (SeqAn-style), LOGAN on one
//!    or many simulated GPUs, or a work-stealing heterogeneous fleet;
//! 6. **adaptive threshold** ([`threshold`]) — keep pairs whose score
//!    clears the expected-score line for a true overlap of the estimated
//!    length.
//!
//! [`metrics`] scores the result against the read simulator's ground
//! truth.
//!
//! # Position in the workspace
//!
//! The application layer: consumes [`logan_seq`] read sets,
//! [`logan_align`]'s CPU batch aligner, and [`logan_core`]'s GPU
//! executor on the [`logan_gpusim`] device. `logan-bench`'s
//! Table IV/V binaries wrap this pipeline. See `DESIGN.md` for the
//! full map.

#![warn(missing_docs)]

pub mod binning;
pub mod chain;
pub mod fxhash;
pub mod kmer_count;
pub mod matrix;
pub mod metrics;
pub mod pipeline;
pub mod prune;
pub mod spgemm;
pub mod threshold;

pub use chain::{ChainConfig, ChainedCandidate, MinimizerIndex};
pub use logan_core::{AlignBackend, BackendReport};
pub use metrics::OverlapMetrics;
pub use pipeline::{BellaConfig, BellaOutput, BellaPipeline, Overlap, PipelineBudget, Seeder};
