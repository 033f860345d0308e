//! # logan-gpusim
//!
//! An execution-driven, deterministic simulator of a CUDA-class GPU —
//! the substrate on which `logan-core` runs the LOGAN kernel. This
//! replaces the NVIDIA Tesla V100s of the paper's testbed (see
//! `DESIGN.md` §2 for the substitution argument).
//!
//! The simulator is *execution-driven*: kernels really compute their
//! results (block by block, on a host thread pool), while a
//! [`block::BlockCtx`] accounts the warp-level instructions, HBM
//! transactions (with a coalescing model) and shared-memory usage the
//! equivalent CUDA block would generate. A wave scheduler
//! ([`sched`]) then maps the accounted blocks onto streaming
//! multiprocessors to produce simulated kernel time. Everything reported
//! (GCUPS, speed-ups, roofline points) derives from these deterministic
//! counters — never from host wall-clock.
//!
//! Modules:
//! * [`spec`] — device specifications ([`spec::DeviceSpec::v100`] is the
//!   paper's GPU);
//! * [`counters`] — per-block and per-kernel instruction/byte counters;
//! * [`mem`] — HBM capacity tracking and the coalescing model
//!   (paper Fig. 6's sequence-reversal optimization is visible here);
//! * [`block`] — the block execution context: block-strided loops, warp
//!   shuffle reductions, `__syncthreads`, shared memory;
//! * [`sched`] — the SM wave scheduler turning block costs into time;
//! * [`device`] — the device façade: kernel launches, streams,
//!   host↔device transfers.
//!
//! # Position in the workspace
//!
//! Depends on no sibling (it is generic over the kernels it runs).
//! `logan-core` implements the LOGAN kernel against [`block::BlockCtx`],
//! and `logan-roofline` reads [`counters::KernelStats`] to place kernels
//! on the instruction roofline. See `DESIGN.md` for the full map.

#![warn(missing_docs)]

pub mod block;
pub mod counters;
pub mod device;
pub mod mem;
pub mod sched;
pub mod spec;

pub use block::{BlockCtx, BlockKernel};
pub use counters::{BlockCounters, KernelStats};
pub use device::{Device, KernelReport, LaunchConfig, Timeline};
pub use mem::{AccessPattern, OutOfMemory};
pub use sched::{schedule, BlockCost, ScheduleResult};
pub use spec::DeviceSpec;
