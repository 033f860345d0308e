//! `logan-serve`: an always-on overlap/alignment service over any
//! [`logan_core::AlignBackend`].
//!
//! The batch pipeline answers "align this dataset"; this crate answers
//! "keep answering": many concurrent clients submit small alignment
//! requests, and the service must batch them well enough to keep the
//! simulated accelerators saturated while keeping per-request latency
//! bounded and no tenant starved. Three mechanisms do the work:
//!
//! - **Cross-request coalescing** (`coalesce.rs`): a free backend lane
//!   drains up to `batch_pairs` queued pairs — across as many requests
//!   as fit — into one submission, recovering device-sized batches from
//!   client-sized requests. Oversized requests split across batches and
//!   still get exactly one reply.
//! - **Admission control** (`admission.rs`): per-tenant in-flight quotas,
//!   refused with an explicit [`ServeError::OverQuota`] reply — never a
//!   silent drop.
//! - **A bounded submission queue**: the threaded [`Server`] blocks
//!   submitters at the bound (backpressure, the PR 4 idiom); the
//!   open-loop simulator ([`sim`]) sheds with an explicit outcome.
//!
//! One clockless serving core (`core.rs`) holds all of that state —
//! the coalescer, admission, per-request assemblies, the supervisor's
//! per-batch ledgers, lane liveness and the exactly-once ledger — and
//! three drivers feed it events. The threaded [`Server`] runs it under
//! one mutex on real threads and the wall clock. The discrete-event
//! simulator in [`sim`] runs it on the simulated clock, the repo's only
//! performance time domain, and makes every *latency and throughput*
//! claim. A test-only explorer runs it through every order of events up
//! to a bound and checks the ledger after each step. So what a fault
//! does to a request is decided once, whichever driver runs it, and the
//! backends are result-deterministic, so the differential suite can
//! demand bit-identical results against direct per-request alignment.

#![warn(missing_docs)]

mod admission;
mod coalesce;
pub mod config;
mod core;
pub mod request;
pub mod server;
pub mod sim;

pub use config::ServeConfig;
pub use request::{AlignResponse, Reply, ReplyHandle, RequestId, ServeError, TenantId};
pub use server::{ServeStats, Server};
pub use sim::{simulate, ArrivalProcess, SimConfig, SimOutcome, SimReport, SimRequest};
