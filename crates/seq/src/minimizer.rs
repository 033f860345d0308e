//! (w,k)-window minimizer sketching, minimap2-style.
//!
//! A minimizer is the k-mer of lowest *rank* among the `w` consecutive
//! k-mers of a window; collecting the minimizers of every window
//! sketches a read down to roughly `2/(w+1)` of its k-mer positions
//! while guaranteeing that any two sequences sharing a `w + k - 1`-long
//! exact match share a minimizer. Ranks are an invertible hash of the
//! *canonical* k-mer code (never the raw code — low-complexity k-mers
//! like poly-A would otherwise dominate every window and wreck the
//! sketch's spread).
//!
//! Ties inside a window keep the **rightmost** occurrence, which is the
//! robust choice under single-base edits (minimap2 §2.1.1): an edit
//! upstream of the tied pair cannot flip which copy is selected.

use crate::kmer::CanonicalKmerIter;
use crate::seq::Seq;

/// A selected minimizer: position of the k-mer in the read, its
/// canonical code, and which strand the canonical form came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Minimizer {
    /// Start position of the k-mer in the read.
    pub pos: u32,
    /// Canonical 2-bit packed code.
    pub code: u64,
    /// True if the forward-strand k-mer equals the canonical form.
    pub fwd: bool,
}

/// Invertible finalizer (splitmix64 tail) used to rank k-mers.
///
/// Invertibility means distinct codes get distinct ranks, so the
/// minimum of a window is unique per code and the rightmost-wins
/// tie-break below only ever fires for *equal codes at different
/// positions*.
#[inline]
pub(crate) fn minimizer_hash(code: u64) -> u64 {
    let mut z = code.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The (w,k) sketcher: the last `w` k-mers' ranks on a fixed ring
/// buffer, kept from read to read so sketching a read set allocates
/// nothing per read.
///
/// The window's minimum is carried from k-mer to k-mer: a new k-mer of
/// lower or equal rank replaces it (equal keeps the rightmost), and
/// only when it slides out of the window is the ring rescanned. A k-mer
/// thus costs one well-predicted comparison, where a monotone deque
/// would run a pop loop whose trip count depends on the data.
#[derive(Debug, Clone)]
pub struct Sketcher {
    w: usize,
    k: usize,
    ring: Vec<(u64, Minimizer)>,
}

impl Sketcher {
    /// A sketcher for windows of `w >= 1` k-mers of length `k`.
    pub fn new(w: usize, k: usize) -> Sketcher {
        assert!(w >= 1, "window size must be >= 1");
        Sketcher {
            w,
            k,
            ring: Vec::new(),
        }
    }

    /// Hand `emit` the (w,k) minimizers of `seq`, deduplicated and in
    /// ascending position order.
    ///
    /// A window longer than the read is the whole read: a read with at
    /// least one but fewer than `w` k-mers yields its single overall
    /// minimum, so short reads are never sketched down to nothing.
    pub fn sketch(&mut self, seq: &Seq, mut emit: impl FnMut(Minimizer)) {
        let n_kmers = (seq.len() + 1).saturating_sub(self.k);
        if n_kmers == 0 {
            return;
        }
        // Clamping the window to the read keeps `pos + w` from wrapping
        // and selects the same k-mers: no full window ever forms past
        // the read's end, so the read's single minimum is its sketch.
        let w = self.w.min(n_kmers);
        if self.ring.len() < w {
            let blank = Minimizer {
                pos: 0,
                code: 0,
                fwd: true,
            };
            self.ring.resize(w, (0, blank));
        }
        let ring = &mut self.ring[..w];
        // `slot` is where the k-mer at `pos` goes: `pos % w`.
        let mut slot = 0usize;
        let mut min = (0u64, ring[0].1);
        let mut last: Option<u32> = None;
        for (pos, km, fwd) in CanonicalKmerIter::new(seq, self.k) {
            let m = Minimizer {
                pos: pos as u32,
                code: km.code,
                fwd,
            };
            let rank = minimizer_hash(km.code);
            ring[slot] = (rank, m);
            if pos == 0 || rank <= min.0 {
                min = (rank, m);
            } else if (min.1.pos as usize) + w <= pos {
                // The minimum left the window [pos + 1 - w, pos], which
                // is full: rescan it oldest to newest, `<=` keeping the
                // rightmost of equal ranks.
                min = ring[slot + 1..]
                    .iter()
                    .chain(&ring[..=slot])
                    .copied()
                    .reduce(|best, e| if e.0 <= best.0 { e } else { best })
                    .expect("a full window holds w >= 1 k-mers");
            }
            slot += 1;
            if slot == w {
                slot = 0;
            }
            if pos + 1 >= w && last != Some(min.1.pos) {
                last = Some(min.1.pos);
                emit(min.1);
            }
        }
    }
}

/// Extract the (w,k) minimizers of `seq`, deduplicated and in
/// ascending position order; see [`Sketcher::sketch`].
///
/// `w = 1` degenerates to "every canonical k-mer".
pub fn minimizers(seq: &Seq, w: usize, k: usize) -> Vec<Minimizer> {
    let mut sketcher = Sketcher::new(w, k);
    let n_kmers = (seq.len() + 1).saturating_sub(k);
    let mut out = Vec::with_capacity(2 * n_kmers / (w.min(n_kmers) + 1) + 1);
    sketcher.sketch(seq, |m| out.push(m));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Base;
    use crate::kmer::canonical_kmer;

    fn seq(s: &str) -> Seq {
        Seq::from_str_strict(s).unwrap()
    }

    /// Brute-force reference: for every window, scan all w k-mers and
    /// keep the rightmost one of minimum rank.
    fn brute_force(s: &Seq, w: usize, k: usize) -> Vec<Minimizer> {
        let n_kmers = (s.len() + 1).saturating_sub(k);
        let mins: Vec<Minimizer> = (0..n_kmers)
            .map(|pos| {
                let km = canonical_kmer(s, pos, k);
                let direct = crate::kmer::Kmer::from_bases(&s.as_slice()[pos..pos + k]);
                Minimizer {
                    pos: pos as u32,
                    code: km.code,
                    fwd: km.code == direct.code,
                }
            })
            .collect();
        let mut out: Vec<Minimizer> = Vec::new();
        if n_kmers == 0 {
            return out;
        }
        if n_kmers < w {
            let best = mins
                .iter()
                .copied()
                .max_by(|a, b| {
                    minimizer_hash(b.code)
                        .cmp(&minimizer_hash(a.code))
                        .then(a.pos.cmp(&b.pos))
                })
                .unwrap();
            return vec![best];
        }
        for start in 0..=(n_kmers - w) {
            let best = mins[start..start + w]
                .iter()
                .copied()
                .max_by(|a, b| {
                    minimizer_hash(b.code)
                        .cmp(&minimizer_hash(a.code))
                        .then(a.pos.cmp(&b.pos))
                })
                .unwrap();
            if out.last() != Some(&best) {
                out.push(best);
            }
        }
        out
    }

    fn pseudo_seq(len: usize, salt: u64) -> Seq {
        let mut state = salt.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Base::from_code((state % 4) as u8)
            })
            .collect()
    }

    #[test]
    fn matches_brute_force() {
        for salt in 0..6u64 {
            let s = pseudo_seq(120 + 17 * salt as usize, salt + 1);
            for (w, k) in [(1, 5), (4, 5), (8, 11), (11, 17), (5, 1)] {
                assert_eq!(
                    minimizers(&s, w, k),
                    brute_force(&s, w, k),
                    "salt={salt} w={w} k={k}"
                );
            }
        }
    }

    #[test]
    fn w1_selects_every_kmer() {
        let s = pseudo_seq(60, 9);
        let ms = minimizers(&s, 1, 7);
        assert_eq!(ms.len(), s.len() - 7 + 1);
        for (i, m) in ms.iter().enumerate() {
            assert_eq!(m.pos as usize, i);
            assert_eq!(m.code, canonical_kmer(&s, i, 7).code);
        }
    }

    #[test]
    fn density_is_near_two_over_w_plus_one() {
        let s = pseudo_seq(20_000, 3);
        let w = 8usize;
        let ms = minimizers(&s, w, 15);
        let density = ms.len() as f64 / (s.len() - 15 + 1) as f64;
        let expected = 2.0 / (w as f64 + 1.0);
        assert!(
            (density - expected).abs() < 0.05,
            "density {density:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn strand_invariant_sketch() {
        // Minimizer codes of a read and its reverse complement are the
        // same multiset: canonical codes are strand-free and window
        // minima mirror.
        let s = pseudo_seq(300, 5);
        let rc = s.reverse_complement();
        let mut a: Vec<u64> = minimizers(&s, 6, 9).iter().map(|m| m.code).collect();
        let mut b: Vec<u64> = minimizers(&rc, 6, 9).iter().map(|m| m.code).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn short_read_yields_single_minimum() {
        let s = seq("ACGTACG"); // 3 k-mers at k=5, window 8 never fills
        let ms = minimizers(&s, 8, 5);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms, brute_force(&s, 8, 5));
    }

    #[test]
    fn window_longer_than_the_read_selects_its_minimum() {
        // Windows past the read's length, up to one whose `w + 1` and
        // `pos + w` would wrap: the read's single minimum, as brute force
        // picks it with the window clamped to the read.
        let s = pseudo_seq(40, 13);
        let n_kmers = s.len() - 9 + 1;
        let want = brute_force(&s, n_kmers, 9);
        assert_eq!(want.len(), 1);
        for w in [n_kmers, n_kmers + 1, 1 << 40, usize::MAX - 1, usize::MAX] {
            assert_eq!(minimizers(&s, w, 9), want, "w={w}");
        }
    }

    #[test]
    fn one_sketcher_across_reads_matches_fresh_ones() {
        // The ring is sized by the longest clamped window seen so far
        // and reused; a reused sketcher must not leak state between
        // reads of different lengths.
        let mut sketcher = Sketcher::new(11, 7);
        for salt in 0..8u64 {
            let s = pseudo_seq([5, 300, 9, 17, 0, 120, 6, 64][salt as usize], salt + 3);
            let mut got = Vec::new();
            sketcher.sketch(&s, |m| got.push(m));
            assert_eq!(got, brute_force(&s, 11, 7), "salt={salt}");
        }
    }

    #[test]
    fn read_shorter_than_k_is_empty() {
        let s = seq("ACG");
        assert!(minimizers(&s, 4, 5).is_empty());
    }

    #[test]
    fn positions_strictly_increase() {
        let s = pseudo_seq(500, 11);
        let ms = minimizers(&s, 10, 13);
        for pair in ms.windows(2) {
            assert!(pair[0].pos < pair[1].pos);
        }
    }
}
