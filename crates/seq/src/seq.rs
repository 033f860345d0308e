//! Sequences over a tagged alphabet, shared on clone.
//!
//! [`Seq`] stores one symbol code per byte plus an [`Alphabet`] tag. DNA
//! sequences (the default) carry the 2-bit codes of [`Base`]; protein
//! sequences carry amino-acid codes `0..20`. The LOGAN host pipeline
//! reverses the query of every left extension so the (simulated) GPU can
//! read both sequences in increasing address order (paper §IV-B, Fig. 6);
//! [`Seq::reversed`] and [`Seq::reverse_complement`] support that step.
//!
//! # Storage
//!
//! The codes live in one reference-counted buffer. [`Seq::clone`] bumps
//! the count — O(1), no allocation, no bytes copied — so a read that
//! appears in thirty candidate pairs, a fleet block slice or a serve
//! request is stored once. Mutators are copy-on-write: a `Seq` that is
//! the buffer's only owner (workspace scratch, a sequence under
//! construction) mutates in place and keeps its capacity; one that
//! shares its buffer leaves it to the other owners and continues in a
//! buffer of its own.

use crate::alphabet::{Alphabet, Base, NOT_A_SYMBOL};
use std::fmt;
use std::ops::Index;
use std::sync::{Arc, LazyLock};

/// A sequence (one symbol code per byte) tagged with its [`Alphabet`].
/// The default alphabet is DNA, so every pre-existing DNA path
/// constructs and consumes exactly the codes it always did. Cloning
/// shares the codes (see the module docs).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Seq {
    codes: Arc<Vec<u8>>,
    alphabet: Alphabet,
}

/// The buffer every empty sequence starts from, so `Seq::default()` —
/// which `std::mem::take` runs on the warm extension path — allocates
/// nothing. It is shared, hence never written: the first mutation of a
/// default sequence moves it to a buffer of its own.
static EMPTY: LazyLock<Arc<Vec<u8>>> = LazyLock::new(Arc::default);

impl Default for Seq {
    fn default() -> Seq {
        Seq {
            codes: Arc::clone(&EMPTY),
            alphabet: Alphabet::Dna,
        }
    }
}

/// `Index<usize>` must return a reference; these statics are the four
/// DNA codes as [`Base`] values so `&seq[i]` can point at one.
static BASES_BY_CODE: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

impl Seq {
    /// Create an empty DNA sequence.
    pub fn new() -> Seq {
        Seq::default()
    }

    /// Wrap freshly built codes (already checked against `alphabet`).
    pub(crate) fn owning(codes: Vec<u8>, alphabet: Alphabet) -> Seq {
        Seq {
            codes: Arc::new(codes),
            alphabet,
        }
    }

    /// The buffer, emptied, for a mutator that replaces the contents: in
    /// place (capacity kept) when this sequence is its only owner, else
    /// a new buffer — the shared one is not copied just to be cleared.
    fn cleared(&mut self) -> &mut Vec<u8> {
        if Arc::get_mut(&mut self.codes).is_none() {
            self.codes = Arc::default();
        }
        let codes = Arc::get_mut(&mut self.codes).expect("sole owner after the check above");
        codes.clear();
        codes
    }

    /// Create from raw symbol codes of the given alphabet. Every code
    /// must be below [`Alphabet::size`]; out-of-range codes panic.
    pub fn from_codes(codes: Vec<u8>, alphabet: Alphabet) -> Seq {
        let size = alphabet.size() as u8;
        assert!(
            codes.iter().all(|&c| c < size),
            "symbol code out of range for the {} alphabet",
            alphabet.name()
        );
        Seq::owning(codes, alphabet)
    }

    /// Parse DNA from ASCII. Characters outside `ACGTacgt` are rejected
    /// with an error naming the offending position.
    pub fn from_ascii(s: &[u8]) -> Result<Seq, SeqParseError> {
        Seq::from_ascii_alphabet(s, Alphabet::Dna)
    }

    /// Parse protein from ASCII (the 20 standard amino acids,
    /// case-insensitive). Anything else is rejected with an error naming
    /// the offending position.
    pub fn from_protein_ascii(s: &[u8]) -> Result<Seq, SeqParseError> {
        Seq::from_ascii_alphabet(s, Alphabet::Protein)
    }

    /// Parse from ASCII under an explicit alphabet.
    pub(crate) fn from_ascii_alphabet(s: &[u8], alphabet: Alphabet) -> Result<Seq, SeqParseError> {
        let mut codes = Vec::with_capacity(s.len());
        encode_ascii(s, alphabet, &mut codes)?;
        Ok(Seq::owning(codes, alphabet))
    }

    /// Parse DNA from a `&str`; convenience over [`Seq::from_ascii`].
    pub fn from_str_strict(s: &str) -> Result<Seq, SeqParseError> {
        Seq::from_ascii(s.as_bytes())
    }

    /// The alphabet this sequence's codes index.
    #[inline]
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Number of symbols.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Borrow the symbol codes. For DNA these are the 2-bit [`Base`]
    /// codes; the aligners compare and gather on them directly.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.codes
    }

    /// Push one DNA base.
    #[inline]
    pub fn push(&mut self, b: Base) {
        debug_assert_eq!(self.alphabet, Alphabet::Dna);
        Arc::make_mut(&mut self.codes).push(b as u8);
    }

    /// Append another sequence (alphabets must match).
    pub fn extend_from(&mut self, other: &Seq) {
        debug_assert_eq!(self.alphabet, other.alphabet);
        Arc::make_mut(&mut self.codes).extend_from_slice(&other.codes);
    }

    /// Subsequence `[start, end)` as a new sequence.
    ///
    /// Panics if `start > end` or `end > len` — slicing errors at this
    /// layer are programmer bugs, not data errors.
    pub fn subseq(&self, start: usize, end: usize) -> Seq {
        Seq::owning(self.codes[start..end].to_vec(), self.alphabet)
    }

    /// Drop all symbols, keeping the allocation when it is this
    /// sequence's alone.
    #[inline]
    pub fn clear(&mut self) {
        self.cleared();
    }

    /// Replace the contents with `src[start, end)`, reusing this
    /// sequence's allocation — the in-place form of [`Seq::subseq`] used
    /// by scratch buffers on the alignment hot path.
    ///
    /// Panics on an invalid range, like [`Seq::subseq`].
    pub fn assign_range(&mut self, src: &Seq, start: usize, end: usize) {
        self.cleared().extend_from_slice(&src.codes[start..end]);
        self.alphabet = src.alphabet;
    }

    /// Replace the contents with `src[start, end)` *reversed*, reusing
    /// this sequence's allocation — the in-place form of
    /// [`Seq::reversed`] applied to a prefix, which is what the host
    /// does to every left extension (paper Fig. 6) without paying a
    /// fresh allocation per seed.
    ///
    /// Panics on an invalid range, like [`Seq::subseq`].
    pub fn assign_reversed_range(&mut self, src: &Seq, start: usize, end: usize) {
        self.cleared()
            .extend(src.codes[start..end].iter().rev().copied());
        self.alphabet = src.alphabet;
    }

    /// The sequence reversed (not complemented). This is the
    /// transformation LOGAN's host applies to left-extension queries to
    /// obtain coalesced GPU memory access.
    pub fn reversed(&self) -> Seq {
        Seq::owning(self.codes.iter().rev().copied().collect(), self.alphabet)
    }

    /// Reverse complement, as used when overlapping reads sampled from
    /// opposite strands. DNA only — complementation has no meaning for
    /// protein codes.
    pub fn reverse_complement(&self) -> Seq {
        assert_eq!(
            self.alphabet,
            Alphabet::Dna,
            "reverse_complement is defined on DNA sequences only"
        );
        // Complement in the 2-bit encoding is code XOR 3.
        Seq::owning(
            self.codes.iter().rev().map(|&c| c ^ 3).collect(),
            Alphabet::Dna,
        )
    }

    /// ASCII rendering (upper-case).
    pub(crate) fn to_ascii(&self) -> Vec<u8> {
        self.codes
            .iter()
            .map(|&c| self.alphabet.to_ascii(c))
            .collect()
    }

    /// Iterate over DNA bases. Panics (in the index) when called on a
    /// protein sequence — protein paths read codes via [`Seq::as_slice`].
    pub(crate) fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        debug_assert_eq!(self.alphabet, Alphabet::Dna);
        self.codes.iter().map(|&c| Base::from_code(c))
    }
}

impl Index<usize> for Seq {
    type Output = Base;
    #[inline]
    fn index(&self, i: usize) -> &Base {
        // Protein codes (>= 4) land out of bounds here by design: only
        // DNA call paths index a Seq as typed bases.
        &BASES_BY_CODE[self.codes[i] as usize]
    }
}

impl fmt::Debug for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 48;
        let ascii = self.to_ascii();
        if ascii.len() <= PREVIEW {
            write!(f, "Seq({})", String::from_utf8_lossy(&ascii))
        } else {
            write!(
                f,
                "Seq({}… len={})",
                String::from_utf8_lossy(&ascii[..PREVIEW]),
                self.len()
            )
        }
    }
}

impl fmt::Display for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", String::from_utf8_lossy(&self.to_ascii()))
    }
}

impl FromIterator<Base> for Seq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Seq {
        Seq::owning(iter.into_iter().map(|b| b as u8).collect(), Alphabet::Dna)
    }
}

/// The one ASCII → code encoder: append the codes of `ascii` under
/// `alphabet` to `codes`. The first byte outside the alphabet is the
/// error, with its position in `ascii`; `codes` is then left as it was.
///
/// One table load per byte and no branch: an invalid byte shows in the
/// OR of the line's codes, and only then is it looked for.
pub(crate) fn encode_ascii(
    ascii: &[u8],
    alphabet: Alphabet,
    codes: &mut Vec<u8>,
) -> Result<(), SeqParseError> {
    let table = alphabet.ascii_codes();
    let start = codes.len();
    let mut seen = 0u8;
    codes.extend(ascii.iter().map(|&ch| {
        let code = table[ch as usize];
        seen |= code;
        code
    }));
    if seen != NOT_A_SYMBOL {
        return Ok(());
    }
    codes.truncate(start);
    let position = ascii
        .iter()
        .position(|&ch| table[ch as usize] == NOT_A_SYMBOL)
        .expect("only an invalid byte sets every bit of `seen`");
    Err(SeqParseError {
        position,
        byte: ascii[position],
        alphabet,
    })
}

/// Error produced when parsing a sequence from ASCII.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqParseError {
    /// Byte offset of the offending character.
    pub position: usize,
    /// The offending byte.
    pub byte: u8,
    /// The alphabet the parse ran under.
    pub alphabet: Alphabet,
}

impl fmt::Display for SeqParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {} character {:?} at position {}",
            self.alphabet.name(),
            self.byte as char,
            self.position
        )
    }
}

impl std::error::Error for SeqParseError {}

#[cfg(test)]
impl Seq {
    /// Hamming distance against another sequence of equal length.
    /// Panics on length mismatch.
    pub(crate) fn hamming(&self, other: &Seq) -> usize {
        assert_eq!(self.len(), other.len(), "hamming requires equal lengths");
        self.codes
            .iter()
            .zip(other.codes.iter())
            .filter(|(a, b)| a != b)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> Seq {
        Seq::from_str_strict(s).unwrap()
    }

    #[test]
    fn parse_valid_and_invalid() {
        let s = seq("ACGTacgt");
        assert_eq!(s.len(), 8);
        assert_eq!(s.to_ascii(), b"ACGTACGT");

        let err = Seq::from_str_strict("ACGNT").unwrap_err();
        assert_eq!(err.position, 3);
        assert_eq!(err.byte, b'N');
        assert!(err.to_string().contains("position 3"));
        assert!(err.to_string().contains("invalid DNA"));
    }

    #[test]
    fn parse_protein_valid_and_invalid() {
        let p = Seq::from_protein_ascii(b"ARNDCqegHILKMFPSTWYV").unwrap();
        assert_eq!(p.len(), 20);
        assert_eq!(p.alphabet(), Alphabet::Protein);
        assert_eq!(p.to_ascii(), b"ARNDCQEGHILKMFPSTWYV");
        // Codes are 0..20 in AMINO_ACIDS order.
        assert_eq!(p.as_slice()[0], 0);
        assert_eq!(p.as_slice()[19], 19);

        let err = Seq::from_protein_ascii(b"ARB").unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.byte, b'B');
        assert!(err.to_string().contains("invalid protein"));
    }

    #[test]
    fn encoder_appends_or_leaves_the_buffer_alone() {
        let mut codes = vec![3, 3];
        encode_ascii(b"acGT", Alphabet::Dna, &mut codes).unwrap();
        assert_eq!(codes, [3, 3, 0, 1, 2, 3]);
        // The first of several invalid bytes is the one reported.
        let err = encode_ascii(b"AC-GN\xFF", Alphabet::Dna, &mut codes).unwrap_err();
        assert_eq!((err.position, err.byte), (2, b'-'));
        assert_eq!(codes, [3, 3, 0, 1, 2, 3]);
        encode_ascii(b"", Alphabet::Protein, &mut codes).unwrap();
        assert_eq!(codes.len(), 6);
    }

    #[test]
    fn from_codes_checks_range() {
        let s = Seq::from_codes(vec![0, 3, 2], Alphabet::Dna);
        assert_eq!(s.to_ascii(), b"ATG");
        let p = Seq::from_codes(vec![0, 19], Alphabet::Protein);
        assert_eq!(p.to_ascii(), b"AV");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_codes_rejects_out_of_range() {
        let _ = Seq::from_codes(vec![4], Alphabet::Dna);
    }

    #[test]
    fn reversal_is_involution() {
        let s = seq("ACGTTGCA");
        assert_eq!(s.reversed().reversed(), s);
        assert_eq!(
            s.reversed().to_ascii(),
            b"ACGTTGCA".iter().rev().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s = seq("AACGT");
        let rc = s.reverse_complement();
        assert_eq!(rc.to_ascii(), b"ACGTT");
        assert_eq!(rc.reverse_complement(), s);
    }

    #[test]
    #[should_panic(expected = "DNA sequences only")]
    fn reverse_complement_rejects_protein() {
        let _ = Seq::from_protein_ascii(b"ARND")
            .unwrap()
            .reverse_complement();
    }

    #[test]
    fn subseq_and_index() {
        let s = seq("ACGTACGT");
        let sub = s.subseq(2, 6);
        assert_eq!(sub.to_ascii(), b"GTAC");
        assert_eq!(s[0], Base::A);
        assert_eq!(s[3], Base::T);
    }

    #[test]
    fn subseq_empty_range_ok() {
        let s = seq("ACGT");
        assert!(s.subseq(2, 2).is_empty());
    }

    #[test]
    fn subseq_preserves_alphabet() {
        let p = Seq::from_protein_ascii(b"WYVAR").unwrap();
        let sub = p.subseq(1, 4);
        assert_eq!(sub.alphabet(), Alphabet::Protein);
        assert_eq!(sub.to_ascii(), b"YVA");
        assert_eq!(sub.reversed().to_ascii(), b"AVY");
    }

    #[test]
    fn hamming_counts_mismatches() {
        assert_eq!(seq("ACGT").hamming(&seq("ACGT")), 0);
        assert_eq!(seq("ACGT").hamming(&seq("TCGA")), 2);
        assert_eq!(seq("AAAA").hamming(&seq("TTTT")), 4);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_length_mismatch_panics() {
        let _ = seq("ACG").hamming(&seq("ACGT"));
    }

    #[test]
    fn debug_preview_truncates() {
        let long: Seq = std::iter::repeat_n(Base::A, 100).collect();
        let dbg = format!("{long:?}");
        assert!(dbg.contains("len=100"));
        let short = seq("ACGT");
        assert_eq!(format!("{short:?}"), "Seq(ACGT)");
    }

    #[test]
    fn assign_range_reuses_buffer() {
        let src = seq("ACGTACGT");
        let mut dst = seq("TTTTTTTTTTTT"); // larger, so capacity suffices
        dst.assign_range(&src, 2, 6);
        assert_eq!(dst.to_ascii(), b"GTAC");
        dst.assign_range(&src, 0, 0);
        assert!(dst.is_empty());
        dst.assign_reversed_range(&src, 0, 4);
        assert_eq!(dst.to_ascii(), b"TGCA");
        assert_eq!(dst, src.subseq(0, 4).reversed());
        dst.clear();
        assert!(dst.is_empty());
    }

    #[test]
    fn assign_range_propagates_alphabet() {
        let p = Seq::from_protein_ascii(b"ARNDC").unwrap();
        let mut dst = seq("ACGT");
        dst.assign_range(&p, 1, 4);
        assert_eq!(dst.alphabet(), Alphabet::Protein);
        assert_eq!(dst.to_ascii(), b"RND");
        dst.assign_reversed_range(&p, 0, 3);
        assert_eq!(dst.to_ascii(), b"NRA");
    }

    #[test]
    #[should_panic]
    fn assign_range_out_of_bounds_panics() {
        let src = seq("ACGT");
        let mut dst = Seq::new();
        dst.assign_range(&src, 2, 9);
    }

    #[test]
    fn extend_and_push() {
        let mut s = seq("AC");
        s.push(Base::G);
        s.extend_from(&seq("T"));
        assert_eq!(s.to_ascii(), b"ACGT");
    }

    #[test]
    fn clones_share_until_written() {
        let original = seq("ACGTACGT");
        let mut copy = original.clone();
        assert!(
            std::ptr::eq(original.as_slice(), copy.as_slice()),
            "a clone reads the same buffer"
        );
        copy.push(Base::A);
        assert_eq!(original.to_ascii(), b"ACGTACGT");
        assert_eq!(copy.to_ascii(), b"ACGTACGTA");
        // Once unshared, further writes stay in the copy's own buffer.
        let own = copy.as_slice().as_ptr();
        copy.clear();
        copy.push(Base::C);
        assert_eq!(copy.as_slice().as_ptr(), own);

        // The source of an assignment may share the destination's buffer.
        let mut dst = original.clone();
        dst.assign_reversed_range(&original, 2, 6);
        assert_eq!(dst.to_ascii(), b"CATG");
        assert_eq!(original.to_ascii(), b"ACGTACGT");
        let mut twice = original.clone();
        twice.extend_from(&original);
        assert_eq!(twice.to_ascii(), b"ACGTACGTACGTACGT");
        assert_eq!(original.to_ascii(), b"ACGTACGT");
    }

    #[test]
    fn default_sequences_do_not_share_writes() {
        // Every empty sequence starts on one shared buffer.
        let (mut a, b) = (Seq::new(), Seq::default());
        a.push(Base::G);
        assert_eq!(a.to_ascii(), b"G");
        assert!(b.is_empty() && Seq::new().is_empty());
        assert_eq!(b.alphabet(), Alphabet::Dna);
    }
}
