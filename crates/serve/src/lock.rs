//! Poison-recovering lock discipline for the serving daemon.
//!
//! Every mutex in this crate guards plain bookkeeping data — counters,
//! queues, assembly tables — whose invariants are restored by the
//! failure paths themselves (a failed batch releases its quota and
//! replies explicitly). A thread that panics while holding one of
//! these locks therefore leaves the *data* consistent enough to keep
//! serving; what must not happen is the default `Mutex` behavior of
//! poisoning every *other* thread that touches the lock afterwards,
//! which turns one lane's death into a process-wide cascade of
//! `PoisonError` panics. These helpers recover the guard instead, so
//! unrelated requests keep completing (regression-tested by
//! `poisoned_stats_lock_does_not_cascade` in `server.rs`).
//! See `DESIGN.md` §12 for the full argument.

pub(crate) use logan_core::faults::lock_recover;
use std::sync::{Condvar, MutexGuard, PoisonError};

/// Wait on `cv` with `guard`, recovering the guard if a holder
/// panicked while we slept.
pub(crate) fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}
