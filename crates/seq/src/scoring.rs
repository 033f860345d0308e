//! Scoring schemes.
//!
//! LOGAN and SeqAn's `extendSeedL` use a *linear* gap model
//! ([`Scoring`]): one penalty per gap character. ksw2 (minimap2's kernel)
//! uses an *affine* model ([`AffineScoring`]): a gap of length `l` costs
//! `open + l * extend`. Both schemes are carried by value — they are tiny
//! and `Copy`.

/// Linear-gap scoring used by the X-drop aligners.
///
/// The paper's benchmark configuration (and SeqAn's default for
/// `extendSeedL` in BELLA) is `match = +1`, `mismatch = -1`, `gap = -1`,
/// available as [`Scoring::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scoring {
    /// Score added for a matching pair of bases (positive).
    pub match_score: i32,
    /// Score added for a mismatching pair (negative).
    pub mismatch: i32,
    /// Score added per gap character (negative).
    pub gap: i32,
}

impl Default for Scoring {
    fn default() -> Scoring {
        Scoring {
            match_score: 1,
            mismatch: -1,
            gap: -1,
        }
    }
}

impl Scoring {
    /// Construct a scheme, validating the signs: a non-positive match or
    /// non-negative mismatch/gap would break the X-drop termination
    /// guarantees of Zhang et al.
    pub fn new(match_score: i32, mismatch: i32, gap: i32) -> Scoring {
        assert!(match_score > 0, "match score must be positive");
        assert!(mismatch < 0, "mismatch penalty must be negative");
        assert!(gap < 0, "gap penalty must be negative");
        Scoring {
            match_score,
            mismatch,
            gap,
        }
    }

    /// Score of aligning bases `a` against `b`.
    #[inline(always)]
    pub fn substitution(&self, equal: bool) -> i32 {
        if equal {
            self.match_score
        } else {
            self.mismatch
        }
    }

    /// Expected score per aligned base when each base independently
    /// mismatches with probability `err` and gaps are ignored. This is
    /// the first-order model BELLA uses to set its adaptive threshold
    /// (§V of the LOGAN paper; BELLA preprint §2.5).
    pub fn expected_per_base(&self, err: f64) -> f64 {
        assert!((0.0..=1.0).contains(&err), "error rate must be in [0,1]");
        // A pair of reads each with error rate e agree on a base with
        // probability (1-e)^2 + e^2/3 (both correct, or both made the
        // same substitution).  BELLA's model keeps the dominant term.
        let p_match = (1.0 - err) * (1.0 - err);
        p_match * self.match_score as f64 + (1.0 - p_match) * self.mismatch as f64
    }
}

/// Affine-gap scoring (ksw2 / minimap2 model).
///
/// The defaults mirror minimap2's presets for noisy long reads:
/// `match=+2, mismatch=-4, gap_open=4, gap_extend=2` (penalties stored
/// positive, as in ksw2's API).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineScoring {
    /// Score added for a match (positive).
    pub match_score: i32,
    /// Score added for a mismatch (negative).
    pub mismatch: i32,
    /// Positive penalty charged when a gap is opened.
    pub gap_open: i32,
    /// Positive penalty charged per gap character (including the first).
    pub gap_extend: i32,
}

impl Default for AffineScoring {
    fn default() -> AffineScoring {
        AffineScoring {
            match_score: 2,
            mismatch: -4,
            gap_open: 4,
            gap_extend: 2,
        }
    }
}

impl AffineScoring {
    /// Construct, validating signs.
    pub fn new(match_score: i32, mismatch: i32, gap_open: i32, gap_extend: i32) -> AffineScoring {
        assert!(match_score > 0, "match score must be positive");
        assert!(mismatch < 0, "mismatch penalty must be negative");
        assert!(gap_open >= 0, "gap open penalty is stored positive");
        assert!(gap_extend > 0, "gap extend penalty is stored positive");
        AffineScoring {
            match_score,
            mismatch,
            gap_open,
            gap_extend,
        }
    }

    /// Substitution score for an (un)equal pair.
    #[inline(always)]
    pub fn substitution(&self, equal: bool) -> i32 {
        if equal {
            self.match_score
        } else {
            self.mismatch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let s = Scoring::default();
        assert_eq!((s.match_score, s.mismatch, s.gap), (1, -1, -1));
    }

    #[test]
    fn substitution_selects() {
        let s = Scoring::default();
        assert_eq!(s.substitution(true), 1);
        assert_eq!(s.substitution(false), -1);
    }

    #[test]
    #[should_panic(expected = "match score must be positive")]
    fn zero_match_rejected() {
        let _ = Scoring::new(0, -1, -1);
    }

    #[test]
    #[should_panic(expected = "gap penalty must be negative")]
    fn positive_gap_rejected() {
        let _ = Scoring::new(1, -1, 1);
    }

    #[test]
    fn expected_per_base_bounds() {
        let s = Scoring::default();
        // No error: every base matches.
        assert!((s.expected_per_base(0.0) - 1.0).abs() < 1e-12);
        // 15% per-read error (the paper's benchmark) still expects a
        // clearly positive drift, which is what makes X-drop viable.
        let e15 = s.expected_per_base(0.15);
        assert!(e15 > 0.3 && e15 < 1.0, "got {e15}");
        // Total corruption: expectation is the mismatch score.
        assert!(s.expected_per_base(1.0) < 0.0);
    }

    #[test]
    fn affine_defaults_and_gap_cost() {
        let a = AffineScoring::default();
        assert_eq!((a.gap_open, a.gap_extend), (4, 2));
        assert_eq!(a.substitution(true), 2);
        assert_eq!(a.substitution(false), -4);
    }

    #[test]
    #[should_panic(expected = "gap extend")]
    fn affine_zero_extend_rejected() {
        let _ = AffineScoring::new(2, -4, 4, 0);
    }
}
