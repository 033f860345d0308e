//! # logan-seq
//!
//! Sequence substrate for the LOGAN-rs reproduction of
//! *LOGAN: High-Performance GPU-Based X-Drop Long-Read Alignment*
//! (Zeni et al., IPDPS 2020).
//!
//! This crate provides everything the alignment kernels and the BELLA
//! overlapper need to talk about sequences (DNA first, protein for the
//! translated-search extension):
//!
//! * [`alphabet`] — the 2-bit DNA alphabet, complements, packing, plus
//!   the 20-letter protein alphabet;
//! * [`seq`] — owned sequences (DNA or protein) with cheap reversal /
//!   reverse-complement;
//! * [`scoring`] — linear and affine scoring schemes used by X-drop and
//!   ksw2-style aligners;
//! * [`profile`] — [`ScoreProfile`]: the generalized substitution model
//!   (DNA match/mismatch fast path, or a dense matrix such as BLOSUM62)
//!   threaded through every engine and backend;
//! * [`translate`] — six-frame translation with stop-codon segmentation
//!   for BLASTX-style translated search;
//! * [`error`] — a PacBio-like sequencing error model (substitutions,
//!   insertions, deletions);
//! * [`readsim`] — synthetic genome and long-read simulation with ground
//!   truth, including the paper's 100 K read-pair benchmark set and
//!   E. coli / C. elegans-like data sets;
//! * [`kmer`] — k-mer extraction and canonicalization for seeding;
//! * [`minimizer`] — (w,k)-window minimizer sketching for the chaining
//!   seeder front-end;
//! * [`fasta`] — minimal FASTA I/O.
//!
//! All randomness is seeded [`rand::rngs::StdRng`], so every data set in
//! the benchmark harness is reproducible bit-for-bit.
//!
//! # Position in the workspace
//!
//! `logan-seq` is the root of the crate DAG — it depends on no sibling.
//! `logan-align` builds the scalar aligners on these types, `logan-core`
//! runs them on the `logan-gpusim` device, `logan-bella` overlaps whole
//! read sets, and `logan-bench` regenerates the paper's tables from the
//! simulated data sets defined here. See `DESIGN.md` for the full map.

#![warn(missing_docs)]

pub mod alphabet;
pub mod error;
pub mod fasta;
pub mod kmer;
pub mod minimizer;
pub mod profile;
pub mod readsim;
pub mod scoring;
pub mod seq;
pub mod translate;

pub use alphabet::{Alphabet, Base, AMINO_ACIDS};
pub use error::{ErrorModel, ErrorProfile};
pub use kmer::{CanonicalKmerIter, Kmer, KmerIter};
pub use minimizer::{minimizers, Minimizer, Sketcher};
pub use profile::{ScoreProfile, SubstMatrix};
pub use readsim::{
    seq_batches, DatasetPreset, PairSet, ReadBatch, ReadPair, ReadSet, ReadSimulator, Seed,
    SimulatedRead,
};
pub use scoring::{AffineScoring, Scoring};
pub use seq::Seq;
pub use translate::{six_frame_segments, translate_frame, Frame, FrameSegment};
