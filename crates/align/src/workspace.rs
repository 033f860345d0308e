//! Reusable per-thread alignment workspaces (DESIGN.md §7).
//!
//! The paper's kernel owes part of its throughput to *reusing* three
//! preallocated anti-diagonal buffers per block (§III-B, Fig. 1): memory
//! is claimed once, then every anti-diagonal of every extension rotates
//! through it. The host engines re-derive that structure but — before
//! this module — threw it away by heap-allocating per call.
//! [`AlignWorkspace`] is the host-side equivalent of the GPU block's
//! preallocated storage: one value owning *every* scratch buffer the
//! extension stack needs, handed down by `&mut` through
//! [`crate::xdrop::xdrop_extend_with`], the lane kernels
//! ([`crate::simd::Engine::extend_with`]),
//! [`crate::seed_extend::seed_extend_with`] and `logan-core`'s simulated
//! block path.
//!
//! # Ownership model and reuse contract
//!
//! * **The workspace owns the buffers; calls only borrow them.** No
//!   result ever aliases workspace memory — every entry point returns
//!   plain value types ([`crate::ExtensionResult`] /
//!   [`crate::SeedExtendResult`]), so a workspace can be reused
//!   immediately and results outlive it.
//! * **Every call fully re-initialises what it reads.** Buffers are
//!   logically reset (cheap length/offset resets, never deallocation) at
//!   the start of each extension, so results are bit-identical whether a
//!   workspace is fresh or has been through a million differently-shaped
//!   calls — asserted by `tests/simd_equivalence.rs`.
//! * **Warm means zero allocations.** Buffers only ever grow; once a
//!   workspace has seen the largest extension of a workload, further
//!   calls perform no heap allocation at all (asserted by
//!   `tests/alloc_count.rs`).
//! * **One workspace, one thread.** A workspace is plain mutable state;
//!   share-nothing parallelism (one per Rayon worker, see
//!   [`with_thread_workspace`]) is the concurrency story.

use crate::simd::{Simd8Scratch, SimdScratch, TierTally};
use crate::NEG_INF;
use logan_seq::Seq;
use std::cell::RefCell;

/// One i32 anti-diagonal with offset-based trimming.
///
/// The buffer stores the cells *computed* for the diagonal — query
/// indices `[base, base + computed_len)`; the target index of cell `i`
/// is `j = d − i`. X-drop trimming only narrows the *live* window
/// `[lo, lo + live_len)` by moving offsets: trimmed cells already hold
/// [`NEG_INF`] (they were pruned — that is why they were trimmed), so
/// reads through the computed window stay correct without the
/// `drain(..k)` memmove the previous representation paid on every
/// anti-diagonal.
#[derive(Debug, Default, Clone)]
pub(crate) struct AntiDiag {
    vals: Vec<i32>,
    /// Query index of `vals[0]`.
    base: usize,
    /// Live (trimmed) window start, as a query index.
    lo: usize,
    /// Live (trimmed) window length.
    len: usize,
}

impl AntiDiag {
    /// Score at query index `i`, or −∞ outside the computed range.
    ///
    /// Contract: `i == usize::MAX` is a legal probe and reads as −∞.
    /// Callers computing a neighbour index with `wrapping_sub(1)` at
    /// `i = 0` rely on this; it is handled by an explicit check rather
    /// than by the range comparison, which only rejects `usize::MAX`
    /// incidentally (because `base + computed_len` never overflows for
    /// real diagonals).
    #[inline(always)]
    pub(crate) fn get(&self, i: usize) -> i32 {
        if i == usize::MAX || i < self.base || i >= self.base + self.vals.len() {
            NEG_INF
        } else {
            self.vals[i - self.base]
        }
    }

    /// Live (post-trim) window start, as a query index.
    #[inline(always)]
    pub(crate) fn lo(&self) -> usize {
        self.lo
    }

    /// Live (post-trim) window length.
    #[inline(always)]
    pub(crate) fn live_len(&self) -> usize {
        self.len
    }

    /// The live (post-trim) cells, `live()[k]` being query index
    /// `lo() + k`.
    #[inline(always)]
    pub(crate) fn live(&self) -> &[i32] {
        let start = self.lo - self.base;
        &self.vals[start..start + self.len]
    }

    /// All computed cells of the diagonal (before trimming).
    #[inline(always)]
    pub(crate) fn computed(&self) -> &[i32] {
        &self.vals
    }

    /// Start a new diagonal covering query indices `[lo, lo + width)`:
    /// resets offsets and returns the cell buffer, pre-filled with −∞,
    /// reusing the existing allocation. The live window is provisionally
    /// the whole diagonal until [`AntiDiag::trim`] narrows it.
    #[inline]
    pub(crate) fn begin(&mut self, lo: usize, width: usize) -> &mut [i32] {
        self.vals.clear();
        self.vals.resize(width, NEG_INF);
        self.base = lo;
        self.lo = lo;
        self.len = width;
        &mut self.vals
    }

    /// Trim to the live cells `[kf, kl]` (indices into the computed
    /// window; both ends inclusive, `kf ≤ kl`). O(1): only offsets move,
    /// no memmove — the `ReduceAntiDiagFromStart/End` step of
    /// Algorithm 1 at zero copy cost.
    #[inline]
    pub(crate) fn trim(&mut self, kf: usize, kl: usize) {
        debug_assert!(kf <= kl && kl < self.vals.len());
        self.lo = self.base + kf;
        self.len = kl - kf + 1;
    }

    /// Reset to an empty diagonal (reads as −∞ everywhere).
    #[inline]
    pub(crate) fn reset_empty(&mut self) {
        self.vals.clear();
        self.base = 0;
        self.lo = 0;
        self.len = 0;
    }

    /// Reset to the `d = 0` origin diagonal: the single cell `(0, 0)`
    /// with score 0.
    #[inline]
    pub(crate) fn reset_origin(&mut self) {
        self.vals.clear();
        self.vals.push(0);
        self.base = 0;
        self.lo = 0;
        self.len = 1;
    }
}

/// The three rotating i32 anti-diagonals of a scalar X-drop extension —
/// the host mirror of the GPU's three HBM buffers (paper Fig. 1).
#[derive(Debug, Default, Clone)]
pub(crate) struct ScalarRings {
    /// Anti-diagonal `d − 2`.
    pub prev2: AntiDiag,
    /// Anti-diagonal `d − 1`.
    pub prev: AntiDiag,
    /// Anti-diagonal `d` (being computed).
    pub cur: AntiDiag,
}

impl ScalarRings {
    /// Reset for a new extension: `prev` holds the origin cell, the
    /// other two are empty. Keeps all three allocations.
    pub(crate) fn reset(&mut self) {
        self.prev2.reset_empty();
        self.prev.reset_origin();
        self.cur.reset_empty();
    }
}

/// Every scratch buffer the extension stack needs, owned in one place
/// so a thread can run any number of extensions with zero per-call heap
/// allocations once warm. See the module docs for the reuse contract.
#[derive(Debug, Default)]
pub struct AlignWorkspace {
    /// i32 anti-diagonal rings for the scalar engine.
    pub(crate) rings: ScalarRings,
    /// i16 state for the SIMD engine: the three padded anti-diagonals
    /// plus the lane-widened query/target buffers.
    pub(crate) simd: SimdScratch,
    /// i8 state for the 32-lane tier: the same layout at byte width.
    /// Escalating runs use both this and `simd`.
    pub(crate) simd8: Simd8Scratch,
    /// Per-tier dispatch and escalation counters, bumped by every
    /// kernel entry point that runs through this workspace. Batch
    /// runners snapshot/diff it around each pair to aggregate into
    /// `BatchResult::tiers`; a plain field write, so the warm
    /// zero-allocation contract is untouched.
    pub tally: TierTally,
    /// Sequence scratch: reversed prefixes (left extension) or suffixes
    /// (right extension) are materialised here by
    /// [`crate::seed_extend::seed_extend_with`] instead of into fresh
    /// allocations.
    pub(crate) seq_q: Seq,
    /// Target-side counterpart of `seq_q`.
    pub(crate) seq_t: Seq,
}

impl AlignWorkspace {
    /// An empty workspace; buffers grow on first use and are then
    /// reused.
    pub fn new() -> AlignWorkspace {
        AlignWorkspace::default()
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<AlignWorkspace> = RefCell::new(AlignWorkspace::new());
}

/// Run `f` with this thread's shared [`AlignWorkspace`].
///
/// This is how the batch paths get per-worker buffer reuse without
/// threading a workspace through every caller: each Rayon worker (or
/// any other thread) lazily owns one workspace, so an N-thread batch
/// over a million pairs performs O(N) allocations instead of
/// O(pairs × diagonals). Re-entrant calls (f itself calling
/// `with_thread_workspace`) fall back to a fresh workspace rather than
/// aliasing the borrowed one — correct, merely unamortised.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut AlignWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut AlignWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn antidiag_wrapping_sub_probe_reads_neg_inf() {
        // The documented `AntiDiag::get` contract: a caller probing the
        // `i - 1` neighbour at `i = 0` through `wrapping_sub` must read
        // −∞, exactly like any other out-of-range index.
        let mut diag = AntiDiag::default();
        diag.begin(2, 3).copy_from_slice(&[3, 7, 1]);
        assert_eq!(diag.get(0usize.wrapping_sub(1)), NEG_INF);
        assert_eq!(diag.get(usize::MAX), NEG_INF);
        // Ordinary out-of-range probes on both sides, and in-range hits.
        assert_eq!(diag.get(1), NEG_INF);
        assert_eq!(diag.get(5), NEG_INF);
        assert_eq!(diag.get(2), 3);
        assert_eq!(diag.get(4), 1);
        // The empty diagonal reads −∞ everywhere, including usize::MAX.
        let empty = AntiDiag::default();
        assert_eq!(empty.get(0), NEG_INF);
        assert_eq!(empty.get(usize::MAX), NEG_INF);
    }

    #[test]
    fn trim_moves_offsets_without_moving_cells() {
        let mut diag = AntiDiag::default();
        diag.begin(10, 5)
            .copy_from_slice(&[NEG_INF, 4, NEG_INF, 9, NEG_INF]);
        diag.trim(1, 3);
        assert_eq!(diag.lo(), 11);
        assert_eq!(diag.live_len(), 3);
        assert_eq!(diag.live(), &[4, NEG_INF, 9]);
        // The computed window is untouched: trimmed cells still read
        // their (pruned) values through `get`.
        assert_eq!(diag.get(10), NEG_INF);
        assert_eq!(diag.get(11), 4);
        assert_eq!(diag.get(13), 9);
        assert_eq!(diag.get(14), NEG_INF);
        // A later `begin` reuses the buffer and resets the window.
        let out = diag.begin(0, 2);
        assert_eq!(out, &[NEG_INF, NEG_INF]);
        assert_eq!(diag.lo(), 0);
        assert_eq!(diag.live_len(), 2);
    }

    #[test]
    fn rings_reset_restores_origin_state() {
        let mut rings = ScalarRings::default();
        rings.cur.begin(3, 4).fill(7);
        rings.cur.trim(0, 3);
        rings.reset();
        assert_eq!(rings.prev.live(), &[0]);
        assert_eq!(rings.prev.lo(), 0);
        assert_eq!(rings.prev2.live_len(), 0);
        assert_eq!(rings.cur.live_len(), 0);
        assert_eq!(rings.prev2.get(0), NEG_INF);
    }

    #[test]
    fn thread_workspace_is_reentrant_safe() {
        let outer = with_thread_workspace(|ws| {
            ws.seq_q.push(logan_seq::Base::A);
            // A nested call must not alias the borrowed workspace.
            with_thread_workspace(|inner| inner.seq_q.len())
        });
        assert_eq!(outer, 0);
        with_thread_workspace(|ws| ws.seq_q.clear());
    }
}
