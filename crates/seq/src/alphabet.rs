//! The alphabets used throughout LOGAN-rs.
//!
//! Sequences are stored as one symbol code per byte. For DNA the code is
//! the classic 2-bit encoding (`A=0, C=1, G=2, T=3`) — the LOGAN kernel
//! compares raw characters exactly as the CUDA implementation does — and
//! [`Base`] is the typed view of a code. For protein the codes `0..20`
//! index [`AMINO_ACIDS`].

use std::fmt;
use std::sync::LazyLock;

/// The 20 standard amino acids in code order: protein symbol code `c`
/// renders as `AMINO_ACIDS[c]`. The order matches the BLOSUM62 table in
/// [`crate::profile`].
pub const AMINO_ACIDS: &[u8; 20] = b"ARNDCQEGHILKMFPSTWYV";

/// What [`Alphabet::ascii_codes`] holds for a byte outside the
/// alphabet. Symbol codes stay below 32, so the OR of a line's table
/// entries equals this exactly when some byte of the line was invalid.
pub(crate) const NOT_A_SYMBOL: u8 = 0xFF;

/// Which symbol set a sequence's codes index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Alphabet {
    /// 4-letter nucleotide alphabet, codes `0..4` ([`Base`]).
    #[default]
    Dna,
    /// 20-letter amino-acid alphabet, codes `0..20` ([`AMINO_ACIDS`]).
    Protein,
}

impl Alphabet {
    /// Number of symbols (4 or 20) — the stride of a dense
    /// substitution-matrix row.
    #[inline]
    pub fn size(self) -> usize {
        match self {
            Alphabet::Dna => 4,
            Alphabet::Protein => 20,
        }
    }

    /// Decode a symbol code to its ASCII letter. Panics on a code
    /// outside the alphabet.
    #[inline]
    pub fn to_ascii(self, code: u8) -> u8 {
        match self {
            Alphabet::Dna => Base::from_code(code).to_ascii(),
            Alphabet::Protein => AMINO_ACIDS[code as usize],
        }
    }

    /// Parse an ASCII letter (case-insensitive) to its symbol code, or
    /// `None` when the letter is outside the alphabet.
    #[inline]
    pub fn from_ascii(self, ch: u8) -> Option<u8> {
        match self {
            Alphabet::Dna => Base::from_ascii(ch).map(|b| b as u8),
            Alphabet::Protein => AMINO_ACIDS
                .iter()
                .position(|&a| a == ch.to_ascii_uppercase())
                .map(|i| i as u8),
        }
    }

    /// [`Alphabet::from_ascii`] for every byte at once: the symbol code
    /// of each ASCII letter, [`NOT_A_SYMBOL`] everywhere else. Derived
    /// from `from_ascii` on first use, so that stays the definition; the
    /// parsers encode through this table.
    pub(crate) fn ascii_codes(self) -> &'static [u8; 256] {
        static TABLES: LazyLock<[[u8; 256]; 2]> = LazyLock::new(|| {
            [Alphabet::Dna, Alphabet::Protein].map(|alphabet| {
                std::array::from_fn(|ch| alphabet.from_ascii(ch as u8).unwrap_or(NOT_A_SYMBOL))
            })
        });
        &TABLES[self as usize]
    }

    /// Human-readable name for error messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Alphabet::Dna => "DNA",
            Alphabet::Protein => "protein",
        }
    }
}

/// A single DNA nucleotide.
///
/// The discriminant is the 2-bit encoding (`A=0, C=1, G=2, T=3`), so
/// `base as u8` is directly usable as a packed code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A = 0,
    /// Cytosine.
    C = 1,
    /// Guanine.
    G = 2,
    /// Thymine.
    T = 3,
}

impl Base {
    /// All four bases in encoding order.
    pub(crate) const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Decode from the 2-bit code (the low two bits of `code` are used).
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 3 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }

    /// Parse an ASCII character (case-insensitive). Returns `None` for
    /// anything that is not `ACGTacgt`; ambiguity codes are not supported
    /// by the aligners, mirroring the original LOGAN which operates on the
    /// plain 4-letter alphabet.
    #[inline]
    pub(crate) fn from_ascii(ch: u8) -> Option<Base> {
        match ch {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    /// The ASCII representation (upper case).
    #[inline]
    pub(crate) fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
        }
    }

    /// Watson–Crick complement.
    #[inline]
    pub(crate) fn complement(self) -> Base {
        // Complement in the 2-bit encoding is bitwise NOT of the code:
        // A(0)<->T(3), C(1)<->G(2).
        Base::from_code(!(self as u8))
    }

    /// The three bases different from `self`, in encoding order. Used by
    /// the error model to draw substitutions.
    #[inline]
    pub(crate) fn others(self) -> [Base; 3] {
        let mut out = [Base::A; 3];
        let mut k = 0;
        for b in Base::ALL {
            if b != self {
                out[k] = b;
                k += 1;
            }
        }
        out
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ascii() as char)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b as u8), b);
        }
    }

    #[test]
    fn ascii_roundtrip_and_case() {
        for b in Base::ALL {
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
            assert_eq!(Base::from_ascii(b.to_ascii().to_ascii_lowercase()), Some(b));
        }
        assert_eq!(Base::from_ascii(b'N'), None);
        assert_eq!(Base::from_ascii(b'-'), None);
    }

    #[test]
    fn code_table_is_from_ascii_for_every_byte() {
        for alphabet in [Alphabet::Dna, Alphabet::Protein] {
            let table = alphabet.ascii_codes();
            for ch in 0..=255u8 {
                match alphabet.from_ascii(ch) {
                    // Below 32, so no OR of codes reaches NOT_A_SYMBOL.
                    Some(code) => assert!(code < 32 && table[ch as usize] == code),
                    None => assert_eq!(table[ch as usize], NOT_A_SYMBOL, "{ch}"),
                }
            }
            let letters = table.iter().filter(|&&c| c != NOT_A_SYMBOL).count();
            assert_eq!(letters, 2 * alphabet.size(), "upper and lower case");
        }
    }

    #[test]
    fn complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
            assert_ne!(b.complement(), b);
        }
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn others_excludes_self() {
        for b in Base::ALL {
            let o = b.others();
            assert_eq!(o.len(), 3);
            assert!(!o.contains(&b));
        }
    }
}
