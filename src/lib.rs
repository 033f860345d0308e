//! # LOGAN-rs
//!
//! A comprehensive Rust reproduction of *LOGAN: High-Performance
//! GPU-Based X-Drop Long-Read Alignment* (Zeni et al., IPDPS 2020),
//! built on a simulated multi-GPU substrate (see `DESIGN.md` for the
//! substitution argument and the per-experiment index).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`seq`] — sequences, scoring, read simulation, k-mers, FASTA;
//! * [`align`] — the scalar X-drop reference and its SIMD tiers behind
//!   one engine dispatcher, NW/SW/banded-SW, ksw2;
//! * [`gpusim`] — the execution-driven GPU simulator;
//! * [`core`] — the LOGAN kernel, host executor, the fleet scheduler
//!   (work-stealing, or the paper's static multi-GPU balancer),
//!   comparator kernels, CPU platform models, and the fault-injection
//!   + self-healing supervision layer (`core::faults`);
//! * [`bella`] — the BELLA many-to-many overlapper;
//! * [`roofline`] — the instruction roofline with the paper's adapted
//!   ceiling;
//! * [`serve`] — the always-on alignment service: cross-request
//!   coalescing, per-tenant admission control, graceful drain, and a
//!   simulated-time latency harness.
//!
//! ## Quickstart
//!
//! ```
//! use logan::prelude::*;
//!
//! // Two noisy copies of the same template, plus a planted exact seed.
//! let pairs = PairSet::generate(4, 0.15, 42).pairs;
//!
//! // LOGAN on one simulated V100.
//! let executor = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(100));
//! let (results, report) = executor.align_pairs(&pairs);
//!
//! // The GPU pipeline agrees with the scalar reference bit for bit.
//! let cpu = XDropExtender::new(Scoring::default(), 100);
//! for (p, r) in pairs.iter().zip(&results) {
//!     assert_eq!(*r, seed_extend(&p.query, &p.target, p.seed, &cpu));
//! }
//! assert!(report.sim_time_s > 0.0);
//! ```

pub use logan_align as align;
pub use logan_bella as bella;
pub use logan_core as core;
pub use logan_gpusim as gpusim;
pub use logan_roofline as roofline;
pub use logan_seq as seq;
pub use logan_serve as serve;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use logan_align::{
        banded_sw, ksw2_extend, needleman_wunsch, seed_extend, seed_extend_with, smith_waterman,
        with_thread_workspace, xdrop_extend, xdrop_extend_with, AlignWorkspace, CpuBatchAligner,
        Engine, ExtensionResult, Ksw2Params, SeedExtendResult, TierTally, XDropCpuAligner,
        XDropExtender,
    };
    pub use logan_bella::{BellaConfig, BellaPipeline, OverlapMetrics};
    pub use logan_core::{
        AlignBackend, BackendError, BackendReport, ChaosBackend, ChaosSpec, ExtensionJob, Fault,
        FaultPlan, Fleet, FleetSpec, GpuBackend, LoganConfig, LoganExecutor, SupervisePolicy,
        Supervised, ThreadPolicy, TraceEvent,
    };
    pub use logan_gpusim::{Device, DeviceSpec, KernelReport, LaunchConfig};
    pub use logan_roofline::{InstructionRoofline, RooflinePoint};
    pub use logan_seq::{
        DatasetPreset, ErrorModel, ErrorProfile, PairSet, ReadPair, ReadSet, ReadSimulator,
        Scoring, Seed, Seq,
    };
    pub use logan_serve::{ServeConfig, ServeError, Server};
}
