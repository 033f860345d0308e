//! K-mer extraction for seeding.
//!
//! BELLA's overlap detection works on k-mers (k = 17 by default): every
//! read is decomposed into its k-mers, unreliable ones are pruned, and
//! shared k-mers between reads become candidate alignment seeds. A 17-mer
//! fits in 34 bits, so k-mers are stored as `u64` codes.

use crate::alphabet::{Alphabet, Base};
use crate::seq::Seq;

/// Maximum supported k (2 bits per base in a `u64`).
pub const MAX_K: usize = 32;

/// A k-mer: packed 2-bit code plus its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Kmer {
    /// 2-bit packed bases, most significant pair = first base.
    pub code: u64,
    /// Number of bases (`<= MAX_K`).
    pub k: u8,
}

impl Kmer {
    /// Build from a slice of 2-bit DNA symbol codes (what
    /// [`Seq::as_slice`] yields). Panics if `bases.len() > MAX_K`.
    pub fn from_bases(bases: &[u8]) -> Kmer {
        assert!(bases.len() <= MAX_K, "k-mer too long: {}", bases.len());
        debug_assert!(bases.iter().all(|&b| b < 4), "non-DNA code in k-mer");
        let mut code = 0u64;
        for &b in bases {
            code = (code << 2) | b as u64;
        }
        Kmer {
            code,
            k: bases.len() as u8,
        }
    }

    /// Reverse complement of this k-mer.
    pub fn reverse_complement(&self) -> Kmer {
        let mut code = 0u64;
        let mut src = self.code;
        for _ in 0..self.k {
            let b = Base::from_code(src as u8).complement();
            code = (code << 2) | b as u64;
            src >>= 2;
        }
        Kmer { code, k: self.k }
    }

    /// The lexicographically smaller of this k-mer and its reverse
    /// complement. Canonical k-mers unify the two strands, as in BELLA.
    pub fn canonical(&self) -> Kmer {
        let rc = self.reverse_complement();
        if rc.code < self.code {
            rc
        } else {
            *self
        }
    }
}

/// Iterator over all (position, k-mer) pairs of a sequence, using a
/// rolling 2-bit encoding (O(1) per step). The reverse-complement code
/// is rolled alongside the forward code, so [`CanonicalKmerIter`] (the
/// `canonical()` adapter) emits canonical k-mers in O(1) per position
/// instead of rebuilding the reverse complement base by base.
pub struct KmerIter<'a> {
    /// The sequence's 2-bit codes, borrowed once: the walk reads a plain
    /// byte slice, not the sequence's shared storage, at every step.
    codes: &'a [u8],
    k: usize,
    pos: usize,
    code: u64,
    /// Reverse-complement code of the current window, rolled in lockstep
    /// with `code`: the new base's complement enters at the top while
    /// the dropped base's complement shifts out at the bottom.
    rc_code: u64,
    mask: u64,
}

impl<'a> KmerIter<'a> {
    /// Create an iterator over the k-mers of `seq`, a DNA sequence.
    pub fn new(seq: &'a Seq, k: usize) -> KmerIter<'a> {
        assert!((1..=MAX_K).contains(&k), "k out of range: {k}");
        assert_eq!(seq.alphabet(), Alphabet::Dna, "k-mers pack 2-bit DNA codes");
        let codes = seq.as_slice();
        let mask = if k == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * k)) - 1
        };
        let mut it = KmerIter {
            codes,
            k,
            pos: 0,
            code: 0,
            rc_code: 0,
            mask,
        };
        // Pre-roll the first k-1 bases.
        for &c in &codes[..(k - 1).min(codes.len())] {
            it.roll(c);
        }
        it
    }

    /// Shift base code `c` into both rolling codes (complement in the
    /// 2-bit encoding is code XOR 3).
    #[inline]
    fn roll(&mut self, c: u8) {
        self.code = ((self.code << 2) | c as u64) & self.mask;
        self.rc_code = (self.rc_code >> 2) | (((c ^ 3) as u64) << (2 * (self.k - 1)));
    }

    /// Adapt into an iterator of canonical k-mers (plus strand flags);
    /// see [`CanonicalKmerIter`].
    pub(crate) fn canonical(self) -> CanonicalKmerIter<'a> {
        CanonicalKmerIter { inner: self }
    }
}

impl<'a> Iterator for KmerIter<'a> {
    type Item = (usize, Kmer);

    #[inline]
    fn next(&mut self) -> Option<(usize, Kmer)> {
        let &c = self.codes.get(self.pos + self.k - 1)?;
        self.roll(c);
        let item = (
            self.pos,
            Kmer {
                code: self.code,
                k: self.k as u8,
            },
        );
        self.pos += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.codes.len() + 1).saturating_sub(self.pos + self.k);
        (n, Some(n))
    }
}

impl<'a> ExactSizeIterator for KmerIter<'a> {}

/// Iterator over `(position, canonical k-mer, is_forward)` triples of a
/// sequence in O(1) per step — the rolling replacement for calling
/// [`Kmer::canonical`] (O(k)) at every position, which made the
/// counting path O(k·n) per read.
///
/// `is_forward` is `true` when the forward-strand code is the canonical
/// one (ties — possible only for even `k` palindromes — count as
/// forward). Bit-identical to the naive
/// `Kmer::from_bases(..).canonical()` per position, pinned by a
/// differential proptest.
pub struct CanonicalKmerIter<'a> {
    inner: KmerIter<'a>,
}

impl<'a> CanonicalKmerIter<'a> {
    /// Create an iterator over the canonical k-mers of `seq`.
    pub fn new(seq: &'a Seq, k: usize) -> CanonicalKmerIter<'a> {
        KmerIter::new(seq, k).canonical()
    }
}

impl<'a> Iterator for CanonicalKmerIter<'a> {
    type Item = (usize, Kmer, bool);

    #[inline]
    fn next(&mut self) -> Option<(usize, Kmer, bool)> {
        let (pos, fwd) = self.inner.next()?;
        let rc = self.inner.rc_code;
        if rc < fwd.code {
            Some((pos, Kmer { code: rc, k: fwd.k }, false))
        } else {
            Some((pos, fwd, true))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a> ExactSizeIterator for CanonicalKmerIter<'a> {}

#[cfg(test)]
/// Canonical form of the k-mer starting at `pos` in `seq`.
///
/// This is the naive per-position computation (`from_bases` +
/// `canonical`, O(k)); loops over every position of a read should use
/// [`CanonicalKmerIter`], which rolls the same value in O(1) per step.
/// The two are pinned bit-identical by differential tests, which is
/// all this oracle is for.
pub(crate) fn canonical_kmer(seq: &Seq, pos: usize, k: usize) -> Kmer {
    Kmer::from_bases(&seq.as_slice()[pos..pos + k]).canonical()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Seq {
        Seq::from_str_strict(s).unwrap()
    }

    /// The bases of `k`, first base first.
    fn unpack(k: Kmer) -> Seq {
        (0..k.k as usize)
            .rev()
            .map(|i| Base::from_code((k.code >> (2 * i)) as u8))
            .collect()
    }

    #[test]
    fn kmer_roundtrip() {
        let s = seq("ACGTTGCA");
        let k = Kmer::from_bases(s.as_slice());
        let back = unpack(k);
        assert_eq!(back, s);
        assert_eq!(k.k, 8);
    }

    #[test]
    fn rolling_matches_direct() {
        let s = seq("ACGTACGTTGCAACGT");
        for k in [1usize, 2, 3, 5, 8, 16] {
            let rolled: Vec<(usize, Kmer)> = KmerIter::new(&s, k).collect();
            assert_eq!(rolled.len(), s.len() - k + 1);
            for &(pos, km) in &rolled {
                let direct = Kmer::from_bases(&s.as_slice()[pos..pos + k]);
                assert_eq!(km, direct, "k={k} pos={pos}");
            }
        }
    }

    #[test]
    fn iterator_empty_when_seq_shorter_than_k() {
        let s = seq("ACG");
        assert_eq!(KmerIter::new(&s, 4).count(), 0);
        assert_eq!(KmerIter::new(&s, 3).count(), 1);
    }

    #[test]
    fn size_hint_is_exact() {
        let s = seq("ACGTACGTAC");
        let mut it = KmerIter::new(&s, 4);
        assert_eq!(it.len(), 7);
        it.next();
        assert_eq!(it.len(), 6);
    }

    #[test]
    fn reverse_complement_involution() {
        let k = Kmer::from_bases(seq("ACGTTG").as_slice());
        assert_eq!(k.reverse_complement().reverse_complement(), k);
        let rc = unpack(k.reverse_complement());
        assert_eq!(rc, seq("CAACGT"));
    }

    #[test]
    fn canonical_is_strand_invariant() {
        let fwd = Kmer::from_bases(seq("ACGTTGCAACGTTGCAA").as_slice());
        let rc = fwd.reverse_complement();
        assert_eq!(fwd.canonical(), rc.canonical());
    }

    #[test]
    fn canonical_kmer_helper() {
        let s = seq("ACGTACGT");
        let k = canonical_kmer(&s, 2, 4);
        assert_eq!(k, Kmer::from_bases(seq("GTAC").as_slice()).canonical());
    }

    #[test]
    fn k32_uses_full_mask() {
        let s: Seq = (0..40).map(|i| Base::from_code((i % 4) as u8)).collect();
        let kms: Vec<_> = KmerIter::new(&s, 32).collect();
        assert_eq!(kms.len(), 9);
        let direct = Kmer::from_bases(&s.as_slice()[0..32]);
        assert_eq!(kms[0].1, direct);
    }

    #[test]
    #[should_panic(expected = "k out of range")]
    fn k_zero_panics() {
        let s = seq("ACGT");
        let _ = KmerIter::new(&s, 0);
    }

    #[test]
    fn canonical_rolling_matches_naive() {
        // Differential check across every k, including k=32 (full mask)
        // and k=1 (top shift of zero).
        let s: Seq = (0..80)
            .map(|i| Base::from_code(((i * 7 + i / 5) % 4) as u8))
            .collect();
        for k in 1..=MAX_K {
            let rolled: Vec<_> = CanonicalKmerIter::new(&s, k).collect();
            assert_eq!(rolled.len(), s.len() - k + 1);
            for &(pos, km, fwd) in &rolled {
                let naive = canonical_kmer(&s, pos, k);
                assert_eq!(km, naive, "k={k} pos={pos}");
                let direct = Kmer::from_bases(&s.as_slice()[pos..pos + k]);
                assert_eq!(fwd, naive.code == direct.code, "k={k} pos={pos}");
            }
        }
    }

    #[test]
    fn canonical_rolling_palindrome_counts_as_forward() {
        // ACGT is its own reverse complement: strand flag must be true.
        let s = seq("ACGTACGT");
        let triples: Vec<_> = CanonicalKmerIter::new(&s, 4).collect();
        let (pos, km, fwd) = triples[0];
        assert_eq!(pos, 0);
        assert_eq!(km, Kmer::from_bases(seq("ACGT").as_slice()));
        assert!(fwd);
    }

    #[test]
    fn canonical_rolling_strand_invariant() {
        let s = seq("ACGTTGCAACGTTGCAATTGC");
        let rc = s.reverse_complement();
        let mut a: Vec<u64> = CanonicalKmerIter::new(&s, 5)
            .map(|(_, km, _)| km.code)
            .collect();
        let mut b: Vec<u64> = CanonicalKmerIter::new(&rc, 5)
            .map(|(_, km, _)| km.code)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
