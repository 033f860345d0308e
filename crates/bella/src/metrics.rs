//! Precision/recall scoring against simulator ground truth.

use crate::fxhash::FxHashSet;

/// Confusion-matrix summary of reported overlaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapMetrics {
    /// Reported pairs that truly overlap.
    pub tp: usize,
    /// Reported pairs that do not.
    pub fp: usize,
    /// True overlaps that were missed.
    pub fn_: usize,
    /// `tp / (tp + fp)`; 1.0 when nothing is reported.
    pub precision: f64,
    /// `tp / (tp + fn)`; 1.0 when there is no truth.
    pub recall: f64,
}

impl OverlapMetrics {
    /// Score `reported` `(i, j)` pairs (any order, `i != j`) against
    /// `truth` `(i, j, len)` with `i < j`.
    pub(crate) fn score(
        reported: &[(usize, usize)],
        truth: &[(usize, usize, usize)],
    ) -> OverlapMetrics {
        let truth_set: FxHashSet<(usize, usize)> = truth
            .iter()
            .map(|&(i, j, _)| (i.min(j), i.max(j)))
            .collect();
        let mut reported_set: FxHashSet<(usize, usize)> = FxHashSet::default();
        for &(i, j) in reported {
            assert!(i != j, "self-overlap reported");
            reported_set.insert((i.min(j), i.max(j)));
        }
        let tp = reported_set.intersection(&truth_set).count();
        let fp = reported_set.len() - tp;
        let fn_ = truth_set.len() - tp;
        let precision = if reported_set.is_empty() {
            1.0
        } else {
            tp as f64 / reported_set.len() as f64
        };
        let recall = if truth_set.is_empty() {
            1.0
        } else {
            tp as f64 / truth_set.len() as f64
        };
        OverlapMetrics {
            tp,
            fp,
            fn_,
            precision,
            recall,
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            return 0.0;
        }
        2.0 * self.precision * self.recall / (self.precision + self.recall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_report() {
        let truth = vec![(0, 1, 500), (1, 2, 700)];
        let m = OverlapMetrics::score(&[(0, 1), (2, 1)], &truth);
        assert_eq!((m.tp, m.fp, m.fn_), (2, 0, 0));
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1(), 1.0);
    }

    #[test]
    fn partial_report() {
        let truth = vec![(0, 1, 500), (1, 2, 700), (2, 3, 900)];
        let m = OverlapMetrics::score(&[(0, 1), (0, 3)], &truth);
        assert_eq!((m.tp, m.fp, m.fn_), (1, 1, 2));
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert!((m.recall - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_and_order_normalized() {
        let truth = vec![(0, 1, 100)];
        let m = OverlapMetrics::score(&[(1, 0), (0, 1), (1, 0)], &truth);
        assert_eq!((m.tp, m.fp, m.fn_), (1, 0, 0));
    }

    #[test]
    fn empty_edges() {
        let none = OverlapMetrics::score(&[], &[(0, 1, 10)]);
        assert_eq!(none.precision, 1.0);
        assert_eq!(none.recall, 0.0);
        assert_eq!(none.f1(), 0.0);
        let no_truth = OverlapMetrics::score(&[(0, 1)], &[]);
        assert_eq!(no_truth.recall, 1.0);
        assert_eq!(no_truth.precision, 0.0);
    }

    #[test]
    #[should_panic(expected = "self-overlap")]
    fn self_pair_rejected() {
        let _ = OverlapMetrics::score(&[(3, 3)], &[]);
    }
}
