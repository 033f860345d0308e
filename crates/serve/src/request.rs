//! Request/reply vocabulary of the service: what a client submits, what
//! it gets back, and every way the service can refuse — always as an
//! explicit reply, never a silent drop.

use logan_align::SeedExtendResult;
use std::sync::mpsc;

/// Server-assigned request identity, unique for the life of a server.
pub type RequestId = u64;

/// Client/tenant identity for admission accounting. The service does
/// not authenticate tenants — the id is whatever the transport in front
/// of it says it is; quotas are per-id.
pub type TenantId = u32;

/// A successful reply: per-pair results in the request's pair order —
/// bit-identical to aligning the request's pairs directly on the
/// backend, whatever batching the service chose (the `serve-equivalence`
/// premerge suite pins this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignResponse {
    /// The id [`crate::Server::submit`] assigned to this request.
    pub id: RequestId,
    /// Per-pair results, request pair order.
    pub results: Vec<SeedExtendResult>,
    /// How many coalesced batches served this request (1 unless the
    /// request was split across batches).
    pub batches: usize,
}

/// Every way the service refuses or fails a request. All variants are
/// *replies*: an admitted or rejected request always hears back exactly
/// once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control refused the request: admitting its pairs would
    /// push the tenant's in-flight work past its quota. A request whose
    /// own `requested` exceeds `quota` alone can never be admitted.
    OverQuota {
        /// The refused tenant.
        tenant: TenantId,
        /// The tenant's quota in pairs.
        quota: usize,
        /// Pairs the tenant already had in flight at refusal time.
        in_flight: usize,
        /// Pairs this request asked for.
        requested: usize,
    },
    /// A batch carrying (part of) this request failed past recovery
    /// (a backend error or panic the supervision policy, if any, could
    /// not absorb), or every lane has already retired. Only requests
    /// with pairs in the failed batch — plus everything still queued
    /// once *no* lane survives — fail this way; other requests are
    /// unaffected.
    BackendFailed {
        /// Human-readable cause (panic payload or retirement note).
        detail: String,
    },
    /// The request arrived after shutdown began. Requests admitted
    /// *before* shutdown are drained, not rejected.
    ShuttingDown,
    /// The request sat queued past the configured per-request deadline
    /// ([`crate::ServeConfig::deadline_s`]) without any of its pairs
    /// being dispatched, and was evicted at batch formation. A late
    /// explicit reply beats occupying the queue: the client already
    /// gave up, and the slot goes to a request that can still make its
    /// deadline. Requests with pairs already in flight are *not*
    /// expired — their device time is spent either way, so they run to
    /// a normal reply.
    DeadlineExceeded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::OverQuota {
                tenant,
                quota,
                in_flight,
                requested,
            } => write!(
                f,
                "tenant {tenant} over quota: {in_flight} pairs in flight + {requested} requested > quota {quota}"
            ),
            ServeError::BackendFailed { detail } => write!(f, "backend failed: {detail}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded => {
                write!(f, "request expired in queue past its deadline")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// What a submitted request resolves to — exactly one of these per
/// submission, success or refusal.
pub type Reply = Result<AlignResponse, ServeError>;

/// The client's end of one request: a one-shot receiver that yields the
/// request's single [`Reply`].
#[derive(Debug)]
pub struct ReplyHandle {
    /// The id the server assigned; matches [`AlignResponse::id`] on
    /// success.
    pub id: RequestId,
    pub(crate) rx: mpsc::Receiver<Reply>,
}

impl ReplyHandle {
    /// Block until the reply arrives. Every submission gets exactly one
    /// reply — including rejections and shutdown — so this never blocks
    /// forever on a live or draining server.
    ///
    /// # Panics
    ///
    /// Panics if the server dropped the reply channel without replying,
    /// which would be a bug in the exactly-once contract.
    pub fn recv(self) -> Reply {
        self.rx
            .recv()
            .expect("server dropped a request without replying (exactly-once violation)")
    }

    /// Non-blocking poll: `Some(reply)` once the reply is in.
    pub fn try_recv(&self) -> Option<Reply> {
        self.rx.try_recv().ok()
    }
}
