//! Reliable k-mer selection (BELLA's pruning stage).
//!
//! A k-mer supports overlap detection only if it is (a) genuine — not an
//! error artifact — and (b) unique enough that it does not connect
//! unrelated reads through a genomic repeat. BELLA models the
//! multiplicity of a *true* genomic k-mer as roughly
//! `Poisson(λ = depth · (1−e)^k)`: each of the ~`depth` reads covering a
//! locus contributes an exact copy only when all k bases are error-free.
//! Multiplicity 1 is overwhelmingly an error k-mer (useless for
//! pairing); multiplicities far above λ indicate repeats.

use crate::fxhash::FxHashSet;
use crate::kmer_count::KmerCounts;

/// The reliable multiplicity window `[lo, hi]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableBounds {
    /// Minimum multiplicity (2: a pairing k-mer must occur in two reads).
    pub lo: u32,
    /// Maximum multiplicity (Poisson upper tail; repeats sit above).
    pub hi: u32,
}

impl ReliableBounds {
    /// Is multiplicity `n` inside the window?
    pub fn contains(self, n: u32) -> bool {
        self.lo <= n && n <= self.hi
    }
}

/// Survival probability of an exact k-mer copy in one read.
pub(crate) fn kmer_survival(error_rate: f64, k: usize) -> f64 {
    (1.0 - error_rate).powi(k as i32)
}

/// Compute the reliable window from the sequencing parameters: `lo = 2`,
/// `hi` = the smallest `h` whose Poisson(λ) upper tail falls below
/// `tail` (with λ = depth × survival), but at least `lo + 2` so a sane
/// window always exists.
pub fn reliable_bounds(depth: f64, error_rate: f64, k: usize, tail: f64) -> ReliableBounds {
    assert!(depth > 0.0, "depth must be positive");
    assert!((0.0..1.0).contains(&error_rate));
    assert!(
        (0.0..0.5).contains(&tail),
        "tail must be a small probability"
    );
    let lambda = depth * kmer_survival(error_rate, k);
    // Walk the Poisson pmf until the remaining tail is below `tail`.
    let mut pmf = (-lambda).exp();
    let mut cdf = pmf;
    let mut h = 0u32;
    while 1.0 - cdf > tail && h < 10_000 {
        h += 1;
        pmf *= lambda / h as f64;
        cdf += pmf;
    }
    ReliableBounds {
        lo: 2,
        hi: h.max(4),
    }
}

/// The set of reliable k-mer codes under `bounds`.
pub fn reliable_kmers(counts: &KmerCounts, bounds: ReliableBounds) -> FxHashSet<u64> {
    counts
        .iter()
        .filter(|&(_, &n)| bounds.contains(n))
        .map(|(&code, _)| code)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_matches_closed_form() {
        assert!((kmer_survival(0.15, 17) - 0.85f64.powi(17)).abs() < 1e-12);
        assert_eq!(kmer_survival(0.0, 17), 1.0);
    }

    #[test]
    fn bounds_for_paper_parameters() {
        // depth 30, e=0.15, k=17 → λ ≈ 1.9; the upper bound should sit
        // in the high single digits.
        let b = reliable_bounds(30.0, 0.15, 17, 1e-4);
        assert_eq!(b.lo, 2);
        assert!(b.hi >= 6 && b.hi <= 14, "hi = {}", b.hi);
    }

    #[test]
    fn cleaner_reads_widen_the_window_upward() {
        let noisy = reliable_bounds(30.0, 0.15, 17, 1e-4);
        let clean = reliable_bounds(30.0, 0.01, 17, 1e-4);
        // λ(clean) ≈ 25 ≫ λ(noisy) ≈ 1.9.
        assert!(clean.hi > 2 * noisy.hi);
    }

    #[test]
    fn deeper_coverage_raises_hi() {
        let shallow = reliable_bounds(10.0, 0.15, 17, 1e-4);
        let deep = reliable_bounds(60.0, 0.15, 17, 1e-4);
        assert!(deep.hi > shallow.hi);
    }

    #[test]
    fn reliable_filter_applies_window() {
        use crate::kmer_count::count_kmers;
        use logan_seq::Seq;
        // k = 1 canonical codes: A/T -> 0, C/G -> 1.
        let counts = count_kmers(&[Seq::from_str_strict("AAAAAAATC").unwrap()], 1);
        assert_eq!((counts[&0], counts[&1]), (8, 1));
        // Inclusive at both edges, empty one past either.
        for (lo, hi, want) in [
            (2, 8, vec![0]),
            (8, 8, vec![0]),
            (1, 1, vec![1]),
            (1, 8, vec![0, 1]),
            (2, 7, vec![]),
            (9, 50, vec![]),
        ] {
            let mut set: Vec<u64> = reliable_kmers(&counts, ReliableBounds { lo, hi })
                .into_iter()
                .collect();
            set.sort_unstable();
            assert_eq!(set, want, "[{lo}, {hi}]");
        }
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_rejected() {
        let _ = reliable_bounds(0.0, 0.1, 17, 1e-4);
    }
}
