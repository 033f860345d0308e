//! BELLA's adaptive alignment-score threshold.
//!
//! A true overlap of length `L` between reads of error rate `e` has an
//! expected X-drop score of ≈ `φ·L`, where `φ` is the expected score per
//! aligned base (both reads must agree: `p_match = (1−e)²` to first
//! order). BELLA keeps a pair when its score clears `(1−δ)·φ·L̂` for the
//! binning-estimated overlap `L̂` — scores far below the line indicate
//! repeat-induced candidates whose true overlap is much shorter than
//! the k-mer offsets suggested. The LOGAN paper (§VI-B) notes that a
//! larger X makes this separation *cleaner*, which is why a fast X-drop
//! kernel buys accuracy, not just speed.

use logan_seq::Scoring;

/// The adaptive threshold line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveThreshold {
    /// Expected score per overlap base for true overlaps.
    pub phi: f64,
    /// Slack fraction below the expectation (BELLA default 0.2).
    pub delta: f64,
}

impl AdaptiveThreshold {
    /// Build from the scoring scheme and the per-read error rate.
    pub fn new(scoring: Scoring, per_read_error: f64, delta: f64) -> AdaptiveThreshold {
        assert!((0.0..1.0).contains(&delta), "delta is a fraction");
        AdaptiveThreshold {
            phi: scoring.expected_per_base(per_read_error),
            delta,
        }
    }

    /// Minimum score required at estimated overlap `l`.
    pub(crate) fn min_score(&self, l: usize) -> i32 {
        ((1.0 - self.delta) * self.phi * l as f64).floor() as i32
    }

    /// Does `score` clear the line at estimated overlap `l`?
    pub fn keep(&self, score: i32, l: usize) -> bool {
        score >= self.min_score(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn th() -> AdaptiveThreshold {
        AdaptiveThreshold::new(Scoring::default(), 0.08, 0.2)
    }

    #[test]
    fn phi_matches_scoring_model() {
        let t = th();
        let expect = Scoring::default().expected_per_base(0.08);
        assert!((t.phi - expect).abs() < 1e-12);
        assert!(t.phi > 0.0 && t.phi < 1.0);
    }

    #[test]
    fn line_scales_with_length() {
        let t = th();
        assert!(t.min_score(2000) > t.min_score(1000));
        assert_eq!(t.min_score(0), 0);
    }

    #[test]
    fn keep_boundary() {
        let t = th();
        let l = 1000;
        let min = t.min_score(l);
        assert!(t.keep(min, l));
        assert!(!t.keep(min - 1, l));
    }

    #[test]
    fn perfect_overlap_scores_clear_easily() {
        let t = AdaptiveThreshold::new(Scoring::default(), 0.0, 0.1);
        // Error-free: φ = 1, line = 0.9·L; a perfect overlap scores L.
        assert!(t.keep(1000, 1000));
        assert!(!t.keep(500, 1000));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn absurd_delta_rejected() {
        let _ = AdaptiveThreshold::new(Scoring::default(), 0.1, 1.5);
    }
}
