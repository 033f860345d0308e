//! # logan-core
//!
//! LOGAN: the X-drop alignment GPU kernel and its host pipeline — the
//! primary contribution of Zeni et al. (IPDPS 2020), reproduced on the
//! simulated device of `logan-gpusim`.
//!
//! * [`kernel`] — the block-per-alignment X-drop kernel (paper §IV-A,
//!   Algorithm 2): grid-stride anti-diagonal segments, in-warp shuffle
//!   max-reduction, X-drop pruning, adaptive bounds. One entry point
//!   ([`kernel::logan_block_extend`]), which runs a `logan-align`
//!   engine for the results and charges SIMT costs from its
//!   per-anti-diagonal statistics.
//! * [`executor`] — the single-GPU host pipeline (paper §IV-B): seed
//!   splitting into left/right extensions, sequence reversal for
//!   coalesced access, dual streams, threads ∝ X scheduling, HBM
//!   batch sizing.
//! * [`backend`] — the [`backend::AlignBackend`] trait every extension
//!   engine implements (CPU pool, single GPU, fleet), plus the one
//!   mergeable run report, [`backend::BackendReport`].
//! * [`faults`] — deterministic fault injection ([`faults::ChaosBackend`]
//!   over a seeded [`faults::FaultPlan`]) and self-healing supervision
//!   ([`faults::Supervised`]: bounded retry, re-dispatch, poison-block
//!   detection) shared by the fleet scoreboard and the serve simulator.
//! * [`fleet`] — the multi-device scheduler over one backend per
//!   worker, either work-stealing (chunks sized by throughput hints,
//!   one event loop on the calling thread in virtual device time) or
//!   the paper's static length-weighted balancer (§IV-C, Fig. 7;
//!   [`fleet::Fleet::static_gpus`]; one scoped thread per worker),
//!   results order-normalized so both schedules are bit-identical;
//!   [`fleet::FleetReport`] is the per-worker view of a run.
//! * [`comparators`] — GPU comparator kernels for Fig. 12: a
//!   CUDASW++-style full Smith–Waterman and a manymap-style banded
//!   extension.
//! * [`platform`] — calibrated CPU platform models converting measured
//!   algorithm work into the published testbeds' time domain (POWER9 ×
//!   SeqAn, Skylake × ksw2); see EXPERIMENTS.md for the calibration
//!   protocol.
//! * [`calibration`] — every tunable constant of the performance model
//!   in one place, each with its provenance.
//!
//! # Position in the workspace
//!
//! Sits on [`logan_seq`] (data), [`logan_align`] (the scalar semantics
//! the kernel must reproduce) and [`logan_gpusim`] (the device).
//! `logan-bella` plugs [`executor::LoganExecutor`] in as an alignment
//! backend and `logan-bench` drives it to regenerate the paper's
//! tables. See `DESIGN.md` for the full map.

#![warn(missing_docs)]

pub mod backend;
pub mod calibration;
pub mod comparators;
pub mod executor;
pub mod faults;
pub mod fleet;
pub mod kernel;
pub mod platform;

pub use backend::{AlignBackend, BackendReport, GpuBackend};
pub use executor::{LoganConfig, LoganExecutor, ThreadPolicy};
pub use faults::{
    BackendError, ChaosBackend, ChaosSpec, Fault, FaultPlan, SupervisePolicy, Supervised,
    TraceEvent,
};
pub use fleet::{Fleet, FleetReport, FleetSpec, FleetWorker};
pub use kernel::{ExtensionJob, KernelPolicy};
pub use platform::CpuPlatformModel;
