//! Per-tenant admission control: the MUSIC-style quota discipline that
//! keeps one greedy client from monopolizing a shared alignment
//! cluster. The unit of account is the *in-flight pair* — queued or
//! being aligned — and the rule is simply that a tenant's in-flight
//! pairs never exceed its quota: a request is admitted iff it fits, and
//! refused with an explicit [`ServeError::OverQuota`] reply otherwise.
//!
//! The serving core owns the one controller, so the threaded server,
//! the simulator and the order explorer all run this code.

use crate::request::{ServeError, TenantId};
use std::collections::BTreeMap;

/// Per-tenant in-flight accounting against one shared quota. Also
/// records each tenant's high-water mark, the witness the simulator's
/// assert mode checks against the quota invariant.
#[derive(Debug, Clone)]
pub(crate) struct Admission {
    quota_pairs: usize,
    in_flight: BTreeMap<TenantId, usize>,
    peak: usize,
}

impl Admission {
    /// A controller granting every tenant `quota_pairs` in-flight pairs.
    ///
    /// # Panics
    ///
    /// Panics on a zero quota — [`crate::ServeConfig::validated`]
    /// rejects it earlier with a friendlier message; this is the
    /// backstop for direct construction.
    pub(crate) fn new(quota_pairs: usize) -> Admission {
        assert!(quota_pairs >= 1, "admission quota must be at least 1 pair");
        Admission {
            quota_pairs,
            in_flight: BTreeMap::new(),
            peak: 0,
        }
    }

    /// Admit `pairs` for `tenant`, or explain the refusal. On success
    /// the pairs count against the tenant until [`Admission::release`].
    pub(crate) fn try_admit(&mut self, tenant: TenantId, pairs: usize) -> Result<(), ServeError> {
        let in_flight = self.in_flight(tenant);
        if in_flight + pairs > self.quota_pairs {
            return Err(ServeError::OverQuota {
                tenant,
                quota: self.quota_pairs,
                in_flight,
                requested: pairs,
            });
        }
        self.in_flight.insert(tenant, in_flight + pairs);
        self.peak = self.peak.max(in_flight + pairs);
        Ok(())
    }

    /// Return `pairs` of quota to `tenant` — called exactly once per
    /// admitted request, when its single reply is sent (success *or*
    /// failure), so refused work never leaks quota.
    pub(crate) fn release(&mut self, tenant: TenantId, pairs: usize) {
        let in_flight = self.in_flight.entry(tenant).or_insert(0);
        debug_assert!(*in_flight >= pairs, "released more pairs than admitted");
        *in_flight = in_flight.saturating_sub(pairs);
    }

    /// Current in-flight pairs for `tenant`.
    pub(crate) fn in_flight(&self, tenant: TenantId) -> usize {
        self.in_flight.get(&tenant).copied().unwrap_or(0)
    }

    /// The highest in-flight count any single tenant ever reached —
    /// the invariant witness: it must never exceed
    /// [`Admission::quota_pairs`].
    pub(crate) fn peak_in_flight(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_within_quota_and_refuses_past_it() {
        let mut adm = Admission::new(10);
        assert!(adm.try_admit(1, 6).is_ok());
        assert!(adm.try_admit(1, 4).is_ok());
        // Tenant 1 is now full; tenant 2 is untouched (quotas are
        // per-tenant, not global).
        let err = adm.try_admit(1, 1).unwrap_err();
        assert_eq!(
            err,
            ServeError::OverQuota {
                tenant: 1,
                quota: 10,
                in_flight: 10,
                requested: 1
            }
        );
        assert!(adm.try_admit(2, 10).is_ok());
        // Release frees exactly what was admitted.
        adm.release(1, 4);
        assert_eq!(adm.in_flight(1), 6);
        assert!(adm.try_admit(1, 4).is_ok());
        assert_eq!(adm.peak_in_flight(), 10);
    }

    #[test]
    fn oversized_request_is_refused_with_the_full_story() {
        let mut adm = Admission::new(5);
        match adm.try_admit(7, 9).unwrap_err() {
            ServeError::OverQuota {
                tenant,
                quota,
                in_flight,
                requested,
            } => {
                assert_eq!((tenant, quota, in_flight, requested), (7, 5, 0, 9));
            }
            other => panic!("expected OverQuota, got {other:?}"),
        }
        // The refusal left no residue.
        assert_eq!(adm.in_flight(7), 0);
        assert_eq!(adm.peak_in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1 pair")]
    fn zero_quota_rejected() {
        let _ = Admission::new(0);
    }
}
