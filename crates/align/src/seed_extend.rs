//! Seed-and-extend driver (paper Fig. 5).
//!
//! A seed — an exact k-mer match at `(qpos, tpos)` — splits the pair into
//! two independent extension problems:
//!
//! * **left**: the prefixes `query[..qpos]` / `target[..tpos]`, aligned
//!   *backwards* from the seed. LOGAN (and this module) reverses both
//!   prefixes and runs an ordinary forward extension — on the GPU this is
//!   also what makes memory access coalesced (paper Fig. 6);
//! * **right**: the suffixes past the seed, aligned forwards.
//!
//! The total score adds the seed itself (`k` matches).

use crate::result::{ExtensionResult, SeedExtendResult};
use crate::workspace::AlignWorkspace;
use crate::xdrop::XDropExtender;
use logan_seq::readsim::Seed;
use logan_seq::Seq;

/// Align `query` and `target` around `seed` using `ext` for both
/// extensions.
///
/// Panics if the seed does not fit inside the sequences — a seed is a
/// promise made by the caller (BELLA's k-mer machinery), and a bad one is
/// a logic error upstream.
///
/// Thin allocating wrapper over [`seed_extend_with`]; batch callers hold
/// an [`AlignWorkspace`] (one per worker) and call that directly.
pub fn seed_extend(query: &Seq, target: &Seq, seed: Seed, ext: &XDropExtender) -> SeedExtendResult {
    seed_extend_with(query, target, seed, ext, &mut AlignWorkspace::new())
}

/// [`seed_extend`] computing into caller-owned scratch: the reversed
/// prefixes of the left extension and the suffix views of the right
/// extension are materialised into the workspace's sequence buffers
/// (no `.reversed()`/`.subseq()` allocations), and the extensions
/// themselves run through [`Engine::extend_with`](crate::Engine::extend_with)
/// on the same workspace. Warm, the whole call performs zero heap
/// allocations.
pub fn seed_extend_with(
    query: &Seq,
    target: &Seq,
    seed: Seed,
    ext: &XDropExtender,
    ws: &mut AlignWorkspace,
) -> SeedExtendResult {
    assert!(
        seed.qpos + seed.len <= query.len(),
        "seed exceeds query bounds"
    );
    assert!(
        seed.tpos + seed.len <= target.len(),
        "seed exceeds target bounds"
    );

    // The sequence scratch is moved out while the extension borrows the
    // whole workspace, then moved back (both moves are pointer swaps).
    let mut qs = std::mem::take(&mut ws.seq_q);
    let mut ts = std::mem::take(&mut ws.seq_t);

    // Left: reversed prefixes, so "end" positions count backwards from
    // the seed start.
    let left = if seed.qpos == 0 || seed.tpos == 0 {
        ExtensionResult::zero()
    } else {
        qs.assign_reversed_range(query, 0, seed.qpos);
        ts.assign_reversed_range(target, 0, seed.tpos);
        ext.engine.extend_with(&qs, &ts, ext.profile, ext.x, ws)
    };

    // Right: suffixes after the seed.
    let qr_start = seed.qpos + seed.len;
    let tr_start = seed.tpos + seed.len;
    let right = if qr_start == query.len() || tr_start == target.len() {
        ExtensionResult::zero()
    } else {
        qs.assign_range(query, qr_start, query.len());
        ts.assign_range(target, tr_start, target.len());
        ext.engine.extend_with(&qs, &ts, ext.profile, ext.x, ws)
    };

    ws.seq_q = qs;
    ws.seq_t = ts;

    let score = left.score
        + right.score
        + ext
            .profile
            .seed_credit(&query.as_slice()[seed.qpos..seed.qpos + seed.len]);
    SeedExtendResult {
        score,
        left,
        right,
        query_start: seed.qpos - left.query_end,
        query_end: qr_start + right.query_end,
        target_start: seed.tpos - left.target_end,
        target_end: tr_start + right.target_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_seq::readsim::PairSet;
    use logan_seq::Scoring;

    fn seq(s: &str) -> Seq {
        Seq::from_str_strict(s).unwrap()
    }

    fn xd(x: i32) -> XDropExtender {
        XDropExtender::new(Scoring::default(), x)
    }

    #[test]
    fn identical_pair_full_span() {
        let s = seq("ACGTACGTACGTACGTACGT");
        let seed = Seed {
            qpos: 8,
            tpos: 8,
            len: 4,
        };
        let r = seed_extend(&s, &s, seed, &xd(10));
        assert_eq!(r.score, s.len() as i32);
        assert_eq!((r.query_start, r.query_end), (0, s.len()));
        assert_eq!((r.target_start, r.target_end), (0, s.len()));
    }

    #[test]
    fn seed_at_sequence_start_skips_left() {
        let s = seq("ACGTACGT");
        let seed = Seed {
            qpos: 0,
            tpos: 0,
            len: 4,
        };
        let r = seed_extend(&s, &s, seed, &xd(10));
        assert_eq!(r.left, ExtensionResult::zero());
        assert_eq!(r.score, 8);
    }

    #[test]
    fn seed_at_sequence_end_skips_right() {
        let s = seq("ACGTACGT");
        let seed = Seed {
            qpos: 4,
            tpos: 4,
            len: 4,
        };
        let r = seed_extend(&s, &s, seed, &xd(10));
        assert_eq!(r.right, ExtensionResult::zero());
        assert_eq!(r.score, 8);
    }

    #[test]
    fn seed_only_pair() {
        let s = seq("ACGT");
        let seed = Seed {
            qpos: 0,
            tpos: 0,
            len: 4,
        };
        let r = seed_extend(&s, &s, seed, &xd(10));
        assert_eq!(r.score, 4);
        assert_eq!(r.cells(), 0);
    }

    #[test]
    fn asymmetric_seed_positions() {
        // target has 2 extra leading bases; alignment spans differ.
        let q = seq("ACGTACGTACGT");
        let t = seq("GGACGTACGTACGT");
        let seed = Seed {
            qpos: 4,
            tpos: 6,
            len: 4,
        };
        let r = seed_extend(&q, &t, seed, &xd(10));
        assert_eq!(r.score, q.len() as i32);
        assert_eq!(r.query_start, 0);
        assert_eq!(r.target_start, 2);
        assert_eq!(r.query_end, q.len());
        assert_eq!(r.target_end, t.len());
    }

    #[test]
    fn generated_pairs_align_well() {
        let set = PairSet::generate(10, 0.15, 17);
        for p in &set.pairs {
            let r = seed_extend(&p.query, &p.target, p.seed, &xd(100));
            // A 15%-divergent pair should recover a large fraction of the
            // template as alignment score under unit scoring.
            let lower = (p.template_len as f64 * 0.25) as i32;
            assert!(
                r.score > lower,
                "score {} template {}",
                r.score,
                p.template_len
            );
            assert!(r.query_start <= p.seed.qpos);
            assert!(r.query_end >= p.seed.qpos + p.seed.len);
        }
    }

    #[test]
    #[should_panic(expected = "seed exceeds query bounds")]
    fn bad_seed_panics() {
        let s = seq("ACGT");
        let seed = Seed {
            qpos: 2,
            tpos: 0,
            len: 4,
        };
        let _ = seed_extend(&s, &s, seed, &xd(10));
    }
}
