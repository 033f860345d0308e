//! Cross-request coalescing: the SOAP3-dp throughput trick. Requests
//! queue FIFO; a free backend lane drains up to `batch_pairs` pairs —
//! across as many requests as fit — into one submission, so the
//! accelerator sees device-saturating blocks even when every client
//! sends two pairs at a time. A request larger than the cap is split
//! across consecutive batches; [`BatchSpan`]s record exactly which
//! slice of which request each stretch of the batch came from, so
//! results scatter back per-request in the request's own pair order.
//!
//! The coalescer is deliberately single-threaded state, owned by the
//! serving core (`core.rs`) that every driver runs: batching decisions
//! are FIFO-deterministic given the admission order, which is what
//! makes the differential suite meaningful.

use crate::request::RequestId;
use logan_seq::readsim::ReadPair;
use std::collections::VecDeque;

/// One contiguous stretch of a [`Batch`]: `len` pairs belonging to
/// request `req`, starting at pair `offset` *of that request*. Spans
/// appear in batch order, so the batch's k-th pair belongs to the span
/// covering position k.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchSpan {
    /// The request these pairs belong to.
    pub req: RequestId,
    /// Index of the span's first pair within the request.
    pub offset: usize,
    /// Pairs in the span (≥ 1).
    pub len: usize,
}

/// One coalesced backend submission: the pairs of one or more request
/// slices, plus the spans mapping results back to requests.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    /// The pairs, span order.
    pub pairs: Vec<ReadPair>,
    /// Which slice of which request each stretch of `pairs` is.
    pub spans: Vec<BatchSpan>,
}

impl Batch {
    /// True when the batch serves more than one request — the quantity
    /// the coalescing statistics count.
    pub(crate) fn is_coalesced(&self) -> bool {
        self.spans.len() > 1
    }
}

#[derive(Debug, Clone)]
struct PendingRequest {
    id: RequestId,
    pairs: Vec<ReadPair>,
    /// First pair not yet handed to a batch.
    cursor: usize,
    /// When the request was queued, in the caller's clock domain
    /// (simulated seconds for the simulator, seconds since server
    /// start for the threaded server). Only read by
    /// [`Coalescer::purge_expired`].
    arrival_s: f64,
}

/// The FIFO coalescing queue.
#[derive(Debug, Clone)]
pub(crate) struct Coalescer {
    batch_pairs: usize,
    pending: VecDeque<PendingRequest>,
}

impl Coalescer {
    /// A queue whose batches carry at most `batch_pairs` pairs.
    ///
    /// # Panics
    ///
    /// Panics when `batch_pairs == 0` — [`crate::ServeConfig::validated`]
    /// rejects it earlier with a friendlier message.
    pub(crate) fn new(batch_pairs: usize) -> Coalescer {
        assert!(batch_pairs >= 1, "batch_pairs must be at least 1");
        Coalescer {
            batch_pairs,
            pending: VecDeque::new(),
        }
    }

    /// Enqueue an admitted request's pairs, stamped with its arrival
    /// time so [`Coalescer::purge_expired`] can age it.
    ///
    /// # Panics
    ///
    /// Panics on an empty request — the server replies to those
    /// directly without queueing (nothing to align).
    pub(crate) fn push_at(&mut self, id: RequestId, pairs: Vec<ReadPair>, arrival_s: f64) {
        assert!(!pairs.is_empty(), "empty requests are not queued");
        self.pending.push_back(PendingRequest {
            id,
            pairs,
            cursor: 0,
            arrival_s,
        });
    }

    /// Evict every request that is older than `deadline_s` at time
    /// `now_s` *and* has no pair dispatched yet (`cursor == 0`),
    /// returning their ids in FIFO order. Requests with pairs already
    /// in flight are kept: their device time is spent either way, so
    /// they run to a normal reply rather than wasting the work.
    pub(crate) fn purge_expired(&mut self, now_s: f64, deadline_s: f64) -> Vec<RequestId> {
        let mut expired = Vec::new();
        self.pending.retain(|r| {
            let keep = r.cursor > 0 || now_s - r.arrival_s <= deadline_s;
            if !keep {
                expired.push(r.id);
            }
            keep
        });
        expired
    }

    /// Requests with at least one unbatched pair — what the bounded
    /// submission queue counts.
    pub(crate) fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drain the next batch: up to `batch_pairs` pairs taken FIFO,
    /// splitting the last request if it does not fit whole. `None` when
    /// the queue is empty; otherwise the batch has at least one pair
    /// (so a request wider than the cap still progresses, one
    /// cap-sized slice per batch).
    pub(crate) fn next_batch(&mut self) -> Option<Batch> {
        self.take(self.batch_pairs)
    }

    /// Drain exactly one request's *remaining* pairs as one batch,
    /// ignoring the cap — the per-request submission discipline the
    /// latency harness compares coalescing against.
    pub(crate) fn next_request_batch(&mut self) -> Option<Batch> {
        let front_left = self.pending.front().map(|r| r.pairs.len() - r.cursor)?;
        self.take(front_left.max(1))
    }

    fn take(&mut self, cap: usize) -> Option<Batch> {
        if self.pending.is_empty() {
            return None;
        }
        let mut batch = Batch {
            pairs: Vec::new(),
            spans: Vec::new(),
        };
        while batch.pairs.len() < cap {
            let Some(front) = self.pending.front_mut() else {
                break;
            };
            let left = front.pairs.len() - front.cursor;
            let take = left.min(cap - batch.pairs.len());
            batch
                .pairs
                .extend_from_slice(&front.pairs[front.cursor..front.cursor + take]);
            batch.spans.push(BatchSpan {
                req: front.id,
                offset: front.cursor,
                len: take,
            });
            front.cursor += take;
            if front.cursor == front.pairs.len() {
                self.pending.pop_front();
            }
        }
        debug_assert!(!batch.pairs.is_empty());
        Some(batch)
    }

    /// Each pending request's id, first unbatched pair and arrival
    /// stamp in FIFO order: the queue's state but for the pairs.
    #[cfg(test)]
    pub(crate) fn cursors(&self) -> Vec<(RequestId, usize, u64)> {
        self.pending
            .iter()
            .map(|r| (r.id, r.cursor, r.arrival_s.to_bits()))
            .collect()
    }

    /// Abandon the queue — the failure path when no backend lane
    /// survives to drain it.
    pub(crate) fn clear(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_seq::readsim::PairSet;

    /// Unbatched pairs across all pending requests.
    fn pending_pairs(c: &Coalescer) -> usize {
        c.pending.iter().map(|r| r.pairs.len() - r.cursor).sum()
    }

    fn pairs(n: usize, seed: u64) -> Vec<ReadPair> {
        PairSet::generate_with_lengths(n, 0.2, 120, 200, seed).pairs
    }

    #[test]
    fn coalesces_small_requests_into_one_batch() {
        let mut c = Coalescer::new(10);
        c.push_at(1, pairs(3, 1), 0.0);
        c.push_at(2, pairs(4, 2), 0.0);
        c.push_at(3, pairs(2, 3), 0.0);
        assert_eq!((c.pending_requests(), pending_pairs(&c)), (3, 9));
        let b = c.next_batch().unwrap();
        assert_eq!(b.pairs.len(), 9);
        assert!(b.is_coalesced());
        assert_eq!(
            b.spans,
            vec![
                BatchSpan {
                    req: 1,
                    offset: 0,
                    len: 3
                },
                BatchSpan {
                    req: 2,
                    offset: 0,
                    len: 4
                },
                BatchSpan {
                    req: 3,
                    offset: 0,
                    len: 2
                },
            ]
        );
        assert!(c.next_batch().is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn splits_an_oversized_request_across_batches() {
        let mut c = Coalescer::new(4);
        let p = pairs(10, 9);
        c.push_at(7, p.clone(), 0.0);
        let mut seen = Vec::new();
        let mut batches = 0;
        while let Some(b) = c.next_batch() {
            batches += 1;
            assert!(b.pairs.len() <= 4);
            for (i, span) in b.spans.iter().enumerate() {
                assert_eq!((i, span.req), (0, 7), "one request, one span per batch");
                for k in 0..span.len {
                    seen.push((span.offset + k, b.pairs[k].clone()));
                }
            }
        }
        assert_eq!(batches, 3, "10 pairs under a 4-pair cap is 3 batches");
        // Every pair delivered exactly once, in request order.
        assert_eq!(seen.len(), 10);
        for (i, (off, pair)) in seen.iter().enumerate() {
            assert_eq!(*off, i);
            assert_eq!(pair.seed, p[i].seed);
        }
    }

    #[test]
    fn batch_boundary_splits_the_straddling_request() {
        let mut c = Coalescer::new(5);
        c.push_at(1, pairs(3, 4), 0.0);
        c.push_at(2, pairs(4, 5), 0.0);
        let b1 = c.next_batch().unwrap();
        assert_eq!(b1.pairs.len(), 5);
        assert_eq!(b1.spans[1].req, 2);
        assert_eq!((b1.spans[1].offset, b1.spans[1].len), (0, 2));
        let b2 = c.next_batch().unwrap();
        assert_eq!(
            b2.spans,
            vec![BatchSpan {
                req: 2,
                offset: 2,
                len: 2
            }]
        );
        assert!(c.next_batch().is_none());
    }

    #[test]
    fn per_request_mode_never_mixes_requests() {
        let mut c = Coalescer::new(100);
        c.push_at(1, pairs(3, 6), 0.0);
        c.push_at(2, pairs(5, 7), 0.0);
        let b1 = c.next_request_batch().unwrap();
        assert_eq!((b1.spans.len(), b1.pairs.len()), (1, 3));
        let b2 = c.next_request_batch().unwrap();
        assert_eq!((b2.spans.len(), b2.pairs.len()), (1, 5));
        assert!(!b2.is_coalesced());
        assert!(c.next_request_batch().is_none());
    }

    #[test]
    fn purge_expires_only_undispatched_requests() {
        let mut c = Coalescer::new(2);
        c.push_at(1, pairs(3, 11), 0.0); // will be split: cursor > 0
        c.push_at(2, pairs(2, 12), 0.1); // untouched, old
        c.push_at(3, pairs(1, 13), 0.9); // untouched, fresh
        let _ = c.next_batch(); // takes 2 of request 1's pairs
        let expired = c.purge_expired(1.0, 0.5);
        assert_eq!(expired, vec![2], "in-flight and fresh requests stay");
        assert_eq!(pending_pairs(&c), 2, "request 1's tail + request 3");
        // The survivors still drain normally.
        let mut served = 0;
        while let Some(b) = c.next_batch() {
            served += b.pairs.len();
        }
        assert_eq!(served, 2);
        // No deadline pressure: nothing expires.
        let mut c = Coalescer::new(4);
        c.push_at(9, pairs(2, 14), 0.0);
        assert!(c.purge_expired(0.1, 10.0).is_empty());
    }

    #[test]
    fn clear_abandons_every_queued_pair() {
        let mut c = Coalescer::new(2);
        c.push_at(5, pairs(5, 8), 0.0);
        c.push_at(6, pairs(1, 9), 0.0);
        let _ = c.next_batch(); // request 5 now split: 2 taken, 3 pending
        c.clear();
        assert!(c.is_empty());
        assert_eq!(pending_pairs(&c), 0);
    }
}
