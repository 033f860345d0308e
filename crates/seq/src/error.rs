//! Sequencing error model.
//!
//! Third-generation (PacBio RS II-era) long reads — the regime LOGAN and
//! BELLA target — carry ~15 % errors dominated by insertions, with fewer
//! deletions and substitutions. [`ErrorProfile`] captures the three rates;
//! [`ErrorModel`] applies them to a clean template, returning both the
//! corrupted read and the number of each edit (useful to verify data-set
//! statistics in tests).

use crate::alphabet::Base;
use crate::seq::Seq;
use rand::Rng;

/// Per-base probabilities of each edit type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Probability a template base is substituted.
    pub substitution: f64,
    /// Probability an insertion is emitted before a template base.
    pub insertion: f64,
    /// Probability a template base is dropped.
    pub deletion: f64,
}

impl ErrorProfile {
    /// A PacBio-like profile totalling `total` error, split 50 % insertion,
    /// 30 % deletion, 20 % substitution (Ono et al., PBSIM defaults).
    pub fn pacbio(total: f64) -> ErrorProfile {
        assert!(
            (0.0..=0.9).contains(&total),
            "total error rate out of range"
        );
        ErrorProfile {
            substitution: total * 0.20,
            insertion: total * 0.50,
            deletion: total * 0.30,
        }
    }

    /// A profile with no errors at all.
    pub fn perfect() -> ErrorProfile {
        ErrorProfile {
            substitution: 0.0,
            insertion: 0.0,
            deletion: 0.0,
        }
    }

    /// Total per-base error rate.
    pub(crate) fn total(&self) -> f64 {
        self.substitution + self.insertion + self.deletion
    }
}

/// Counts of edits introduced by one application of the model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditCounts {
    /// Substituted bases.
    pub substitutions: usize,
    /// Inserted bases.
    pub insertions: usize,
    /// Deleted bases.
    pub deletions: usize,
}

/// Applies an [`ErrorProfile`] to sequences.
#[derive(Debug, Clone, Copy)]
pub struct ErrorModel {
    profile: ErrorProfile,
}

impl ErrorModel {
    /// Build a model from a profile.
    pub fn new(profile: ErrorProfile) -> ErrorModel {
        ErrorModel { profile }
    }

    /// Corrupt `template`, drawing randomness from `rng`.
    ///
    /// Insertions are drawn uniformly over the alphabet; substitutions are
    /// drawn uniformly over the three *other* bases, so a "substitution"
    /// always changes the base.
    pub fn corrupt<R: Rng>(&self, template: &Seq, rng: &mut R) -> (Seq, EditCounts) {
        let p = self.profile;
        let mut out = Seq::new();
        let mut counts = EditCounts::default();
        for b in template.iter() {
            // Geometric-ish insertion burst: keep inserting while the coin
            // lands on insertion. Bursts are what make long-read indels
            // hard, and SeqAn's/BELLA's tests use the same convention.
            while rng.gen_bool(p.insertion) {
                out.push(Base::from_code(rng.gen_range(0..4)));
                counts.insertions += 1;
            }
            if rng.gen_bool(p.deletion) {
                counts.deletions += 1;
                continue;
            }
            if rng.gen_bool(p.substitution) {
                let others = b.others();
                out.push(others[rng.gen_range(0..3usize)]);
                counts.substitutions += 1;
            } else {
                out.push(b);
            }
        }
        (out, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn template(n: usize) -> Seq {
        (0..n).map(|i| Base::from_code((i % 4) as u8)).collect()
    }

    #[test]
    fn perfect_profile_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = template(500);
        let (read, counts) = ErrorModel::new(ErrorProfile::perfect()).corrupt(&t, &mut rng);
        assert_eq!(read, t);
        assert_eq!(counts, EditCounts::default());
    }

    #[test]
    fn substitution_only_preserves_length() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = template(2000);
        let (read, counts) = ErrorModel::new(ErrorProfile {
            substitution: 0.2,
            insertion: 0.0,
            deletion: 0.0,
        })
        .corrupt(&t, &mut rng);
        assert_eq!(read.len(), t.len());
        assert_eq!(counts.insertions, 0);
        assert_eq!(counts.deletions, 0);
        assert_eq!(read.hamming(&t), counts.substitutions);
        // 20% of 2000 = 400 expected; allow generous slack.
        assert!(counts.substitutions > 280 && counts.substitutions < 520);
    }

    #[test]
    fn substitutions_always_change_the_base() {
        let mut rng = StdRng::seed_from_u64(3);
        let t: Seq = std::iter::repeat_n(Base::A, 1000).collect();
        let (read, counts) = ErrorModel::new(ErrorProfile {
            substitution: 0.5,
            insertion: 0.0,
            deletion: 0.0,
        })
        .corrupt(&t, &mut rng);
        let changed = read.iter().filter(|&b| b != Base::A).count();
        assert_eq!(changed, counts.substitutions);
    }

    #[test]
    fn pacbio_profile_rates_sum() {
        let p = ErrorProfile::pacbio(0.15);
        assert!((p.total() - 0.15).abs() < 1e-12);
        assert!(p.insertion > p.deletion && p.deletion > p.substitution);
    }

    #[test]
    fn pacbio_profile_observed_rates_close_to_nominal() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = template(20_000);
        let (read, counts) = ErrorModel::new(ErrorProfile::pacbio(0.15)).corrupt(&t, &mut rng);
        let edits = counts.substitutions + counts.insertions + counts.deletions;
        let observed = edits as f64 / t.len() as f64;
        assert!(
            (observed - 0.15).abs() < 0.02,
            "observed error rate {observed}"
        );
        // Length change consistent with indel counts.
        assert_eq!(
            read.len() as i64,
            t.len() as i64 + counts.insertions as i64 - counts.deletions as i64
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let t = template(300);
        let model = ErrorModel::new(ErrorProfile::pacbio(0.15));
        let (a, ca) = model.corrupt(&t, &mut StdRng::seed_from_u64(9));
        let (b, cb) = model.corrupt(&t, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        assert_eq!(ca, cb);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pacbio_rejects_absurd_rate() {
        let _ = ErrorProfile::pacbio(0.95);
    }
}
