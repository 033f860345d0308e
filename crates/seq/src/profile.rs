//! Scoring profiles: the substitution model the aligners run under.
//!
//! [`ScoreProfile`] generalizes the 2-parameter DNA [`Scoring`] scheme
//! to arbitrary dense substitution matrices ([`SubstMatrix`], e.g.
//! BLOSUM62 for protein homology — the paper's §VIII extension) while
//! keeping the DNA fast path *bit-identical* to the historical code:
//! the [`ScoreProfile::MatchMismatch`] variant scores a cell with
//! exactly `Scoring::substitution(a == b)`, and every engine (scalar,
//! SIMD, the simulated GPU kernel) dispatches on the variant outside
//! its hot loop.
//!
//! # Interning
//!
//! Profiles are `Copy`: the matrix variant holds a `&'static
//! SubstMatrix` from a process-wide interning registry, deduplicated by
//! value. This is what lets `LoganConfig`, `KernelPolicy` and the serve
//! config stay `Copy` while carrying an arbitrary-alphabet scoring
//! model. Matrices are a handful per process (BLOSUM62 at a few gap
//! penalties), so the leak is bounded and intentional.

use crate::alphabet::Alphabet;
use crate::scoring::Scoring;
use std::fmt;
use std::sync::Mutex;

/// A dense, symmetric substitution matrix over one [`Alphabet`],
/// code-indexed: `score(a, b)` reads row `a`, column `b` of an
/// `size × size` table (symbol codes, not ASCII).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstMatrix {
    /// The alphabet whose codes index the table.
    pub alphabet: Alphabet,
    /// Human-readable name (`blosum62`, `match_mismatch`, …) used by
    /// `Display` and the CLI round trip.
    pub name: String,
    scores: Vec<i32>,
    /// Linear gap penalty (must be negative).
    pub gap: i32,
    /// Largest entry of the table — the per-cell score growth bound the
    /// SIMD eligibility window is computed from.
    pub max_score: i32,
    /// Smallest entry of the table — the per-cell drop bound for the
    /// i16 window.
    pub min_score: i32,
}

/// Process-wide interning registry backing `&'static SubstMatrix`.
static REGISTRY: Mutex<Vec<&'static SubstMatrix>> = Mutex::new(Vec::new());

fn intern(m: SubstMatrix) -> &'static SubstMatrix {
    let mut reg = REGISTRY.lock().expect("matrix registry poisoned");
    if let Some(&existing) = reg.iter().find(|&&e| *e == m) {
        return existing;
    }
    let leaked: &'static SubstMatrix = Box::leak(Box::new(m));
    reg.push(leaked);
    leaked
}

impl SubstMatrix {
    fn finish(alphabet: Alphabet, name: String, scores: Vec<i32>, gap: i32) -> SubstMatrix {
        let max_score = scores.iter().copied().max().expect("non-empty table");
        let min_score = scores.iter().copied().min().expect("non-empty table");
        SubstMatrix {
            alphabet,
            name,
            scores,
            gap,
            max_score,
            min_score,
        }
    }

    /// A uniform match/mismatch matrix over `alphabet` — useful for
    /// differential tests (over DNA it scores identically to a
    /// [`Scoring`] with the same parameters).
    pub fn match_mismatch(
        alphabet: Alphabet,
        match_score: i32,
        mismatch: i32,
        gap: i32,
    ) -> &'static SubstMatrix {
        assert!(match_score > 0, "match score must be positive");
        assert!(mismatch < 0, "mismatch penalty must be negative");
        assert!(gap < 0, "gap penalty must be negative");
        let n = alphabet.size();
        let mut scores = vec![mismatch; n * n];
        for i in 0..n {
            scores[i * n + i] = match_score;
        }
        intern(SubstMatrix::finish(
            alphabet,
            format!("mm{match_score}{mismatch}"),
            scores,
            gap,
        ))
    }

    /// The BLOSUM62 matrix (Henikoff & Henikoff 1992) over the 20
    /// standard amino acids, with the given linear gap penalty.
    pub fn blosum62(gap: i32) -> &'static SubstMatrix {
        assert!(gap < 0, "gap penalty must be negative, got {gap}");
        // Rows/columns in AMINO_ACIDS order (ARNDCQEGHILKMFPSTWYV).
        const B62: [[i8; 20]; 20] = [
            [
                4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0,
            ],
            [
                -1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3,
            ],
            [
                -2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3,
            ],
            [
                -2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3,
            ],
            [
                0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1,
            ],
            [
                -1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2,
            ],
            [
                -1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2,
            ],
            [
                0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3,
            ],
            [
                -2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3,
            ],
            [
                -1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3,
            ],
            [
                -1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1,
            ],
            [
                -1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2,
            ],
            [
                -1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1,
            ],
            [
                -2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1,
            ],
            [
                -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2,
            ],
            [
                1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2,
            ],
            [
                0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0,
            ],
            [
                -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3,
            ],
            [
                -2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1,
            ],
            [
                0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4,
            ],
        ];
        let n = Alphabet::Protein.size();
        let mut scores = vec![0i32; n * n];
        for i in 0..n {
            for j in 0..n {
                scores[i * n + j] = B62[i][j] as i32;
            }
        }
        intern(SubstMatrix::finish(
            Alphabet::Protein,
            "blosum62".to_string(),
            scores,
            gap,
        ))
    }

    /// Substitution score for symbol *codes* `a`, `b`. Panics on codes
    /// outside the alphabet.
    #[inline(always)]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        self.scores[a as usize * self.alphabet.size() + b as usize]
    }

    /// Substitution score for ASCII symbols — the convenience entry for
    /// tests and small tools. Panics on symbols outside the alphabet.
    pub fn score_ascii(&self, a: u8, b: u8) -> i32 {
        self.score(code_of(self.alphabet, a), code_of(self.alphabet, b))
    }

    /// The raw `size × size` table in row-major code order — what the
    /// SIMD engine copies into its i16 query-profile scratch.
    #[inline]
    pub fn table(&self) -> &[i32] {
        &self.scores
    }
}

fn code_of(alphabet: Alphabet, ascii: u8) -> u8 {
    alphabet.from_ascii(ascii).unwrap_or_else(|| {
        panic!(
            "symbol {:?} is not in the {} alphabet",
            ascii as char,
            alphabet.name()
        )
    })
}

/// The scoring model an aligner runs under: either the historical DNA
/// match/mismatch scheme (the cheap fast path — engines reduce to
/// exactly the pre-profile code) or a dense substitution matrix.
///
/// `Copy` by construction (the matrix variant is an interned `&'static`
/// reference), so configs that carry a profile stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreProfile {
    /// Uniform match/mismatch over DNA — scores a cell with
    /// `Scoring::substitution(a == b)`, bit-identical to the legacy
    /// path.
    MatchMismatch(Scoring),
    /// A dense substitution matrix (e.g. [`SubstMatrix::blosum62`]).
    Matrix(&'static SubstMatrix),
}

impl Default for ScoreProfile {
    fn default() -> ScoreProfile {
        ScoreProfile::MatchMismatch(Scoring::default())
    }
}

impl From<Scoring> for ScoreProfile {
    fn from(s: Scoring) -> ScoreProfile {
        ScoreProfile::MatchMismatch(s)
    }
}

impl ScoreProfile {
    /// The BLOSUM62 profile at the given gap penalty.
    pub fn blosum62(gap: i32) -> ScoreProfile {
        ScoreProfile::Matrix(SubstMatrix::blosum62(gap))
    }

    /// Linear gap penalty.
    #[inline(always)]
    pub fn gap(self) -> i32 {
        match self {
            ScoreProfile::MatchMismatch(s) => s.gap,
            ScoreProfile::Matrix(m) => m.gap,
        }
    }

    /// Largest possible per-cell substitution score — `match_score` for
    /// the DNA scheme, the matrix maximum otherwise. The SIMD engine's
    /// i16 overflow window is computed from this, *not* from an assumed
    /// uniform diagonal.
    #[inline]
    pub fn max_score(self) -> i32 {
        match self {
            ScoreProfile::MatchMismatch(s) => s.match_score,
            ScoreProfile::Matrix(m) => m.max_score,
        }
    }

    /// Smallest possible per-cell substitution score.
    #[inline]
    pub fn min_score(self) -> i32 {
        match self {
            ScoreProfile::MatchMismatch(s) => s.mismatch,
            ScoreProfile::Matrix(m) => m.min_score,
        }
    }

    /// The legacy [`Scoring`] when this is the DNA fast path, else
    /// `None` — what DNA-only compatibility seams (BELLA's backend check) read.
    #[inline]
    pub fn as_match_mismatch(self) -> Option<Scoring> {
        match self {
            ScoreProfile::MatchMismatch(s) => Some(s),
            ScoreProfile::Matrix(_) => None,
        }
    }

    /// Score credited to an exact seed of the given symbols: the sum of
    /// diagonal scores. For the DNA scheme this is `len × match_score`
    /// — exactly the historical seed credit.
    pub fn seed_credit(self, seed_symbols: &[u8]) -> i32 {
        match self {
            ScoreProfile::MatchMismatch(s) => seed_symbols.len() as i32 * s.match_score,
            ScoreProfile::Matrix(m) => seed_symbols.iter().map(|&c| m.score(c, c)).sum(),
        }
    }
}

impl fmt::Display for ScoreProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreProfile::MatchMismatch(s) if *s == Scoring::default() => {
                write!(f, "dna")
            }
            ScoreProfile::MatchMismatch(s) => {
                write!(f, "dna:{},{},{}", s.match_score, s.mismatch, s.gap)
            }
            ScoreProfile::Matrix(m) => write!(f, "{}:{}", m.name, m.gap),
        }
    }
}

/// Largest magnitude `ScoreProfile::from_str` accepts for a score or a
/// gap penalty. The X-drop kernels keep −∞ at `i32::MIN / 2`, so one
/// cell's score or penalty past 2³⁰ wraps it; BLOSUM62's largest entry
/// is 11, and 1 000 per cell over a 1 Mb read (the paper's longest)
/// stays below 2³⁰.
const MAX_PARSED_SCORE: i32 = 1_000;

/// `v` if `|v| <= MAX_PARSED_SCORE`, else an error naming `what`.
fn bounded(v: i32, what: &str) -> Result<i32, String> {
    if (-MAX_PARSED_SCORE..=MAX_PARSED_SCORE).contains(&v) {
        Ok(v)
    } else {
        Err(format!(
            "{what} {v} is out of range (|value| <= {MAX_PARSED_SCORE})"
        ))
    }
}

impl std::str::FromStr for ScoreProfile {
    type Err = String;

    /// Parse the CLI/serve spelling: `dna` (default DNA scoring),
    /// `dna:MATCH,MISMATCH,GAP`, or `blosum62[:GAP]` (gap defaults to
    /// −6).
    fn from_str(s: &str) -> Result<ScoreProfile, String> {
        let s = s.trim();
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n.trim(), Some(a.trim())),
            None => (s, None),
        };
        match name {
            "dna" => match arg {
                None => Ok(ScoreProfile::default()),
                Some(a) => {
                    let parts: Vec<&str> = a.split(',').map(str::trim).collect();
                    if parts.len() != 3 {
                        return Err(format!("dna profile takes match,mismatch,gap — got {a:?}"));
                    }
                    let nums = parts
                        .iter()
                        .map(|p| {
                            let v = p.parse::<i32>().map_err(|e| format!("dna profile: {e}"))?;
                            bounded(v, "dna profile value")
                        })
                        .collect::<Result<Vec<i32>, String>>()?;
                    if !(nums[0] > 0 && nums[1] < 0 && nums[2] < 0) {
                        return Err(format!(
                            "dna profile needs match > 0, mismatch < 0, gap < 0 — got {a:?}"
                        ));
                    }
                    Ok(ScoreProfile::MatchMismatch(Scoring::new(
                        nums[0], nums[1], nums[2],
                    )))
                }
            },
            "blosum62" => {
                let gap = match arg {
                    None => -6,
                    Some(a) => a.parse::<i32>().map_err(|e| format!("blosum62 gap: {e}"))?,
                };
                let gap = bounded(gap, "blosum62 gap")?;
                if gap >= 0 {
                    return Err(format!("blosum62 gap must be negative, got {gap}"));
                }
                Ok(ScoreProfile::blosum62(gap))
            }
            other => Err(format!(
                "unknown scoring matrix {other:?} (expected dna or blosum62[:GAP])"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::AMINO_ACIDS;

    #[test]
    fn blosum62_sanity() {
        let m = SubstMatrix::blosum62(-6);
        assert_eq!(m.score_ascii(b'A', b'A'), 4);
        assert_eq!(m.score_ascii(b'W', b'W'), 11);
        assert_eq!(m.score_ascii(b'A', b'R'), -1);
        assert_eq!(m.score_ascii(b'R', b'A'), -1);
        assert_eq!(m.score_ascii(b'W', b'V'), -3);
        assert_eq!(m.max_score, 11);
        assert_eq!(m.min_score, -4);
        assert_eq!(m.gap, -6);
        // The table is symmetric in full.
        for a in AMINO_ACIDS {
            for b in AMINO_ACIDS {
                assert_eq!(m.score_ascii(*a, *b), m.score_ascii(*b, *a));
            }
        }
    }

    #[test]
    fn interning_dedupes_by_value() {
        let a = SubstMatrix::blosum62(-6);
        let b = SubstMatrix::blosum62(-6);
        assert!(std::ptr::eq(a, b), "equal matrices intern to one copy");
        let c = SubstMatrix::blosum62(-4);
        assert!(!std::ptr::eq(a, c));
        assert_eq!(ScoreProfile::blosum62(-6), ScoreProfile::blosum62(-6));
    }

    #[test]
    #[should_panic(expected = "gap penalty must be negative")]
    fn positive_gap_rejected() {
        let _ = SubstMatrix::blosum62(1);
    }

    #[test]
    fn match_mismatch_matrix_equals_scoring_over_dna() {
        let scoring = Scoring::new(1, -1, -1);
        let m = SubstMatrix::match_mismatch(Alphabet::Dna, 1, -1, -1);
        for a in 0..4u8 {
            for b in 0..4u8 {
                assert_eq!(m.score(a, b), scoring.substitution(a == b));
            }
        }
    }

    #[test]
    fn profile_fast_path_reduces_to_scoring() {
        let scoring = Scoring::new(2, -3, -4);
        let p = ScoreProfile::from(scoring);
        assert_eq!(p.max_score(), 2);
        assert_eq!(p.min_score(), -3);
        assert_eq!(p.gap(), -4);
        assert_eq!(p.as_match_mismatch(), Some(scoring));
        assert_eq!(p.seed_credit(&[0, 1, 2]), 6);
    }

    #[test]
    fn matrix_profile_seed_credit_sums_diagonal() {
        let p = ScoreProfile::blosum62(-6);
        // A (4) + W (11) + V (4).
        let codes = [
            Alphabet::Protein.from_ascii(b'A').unwrap(),
            Alphabet::Protein.from_ascii(b'W').unwrap(),
            Alphabet::Protein.from_ascii(b'V').unwrap(),
        ];
        assert_eq!(p.seed_credit(&codes), 19);
        assert_eq!(p.as_match_mismatch(), None);
        assert_eq!(p.max_score(), 11);
        assert_eq!(p.min_score(), -4);
    }

    #[test]
    fn parse_and_display_round_trip() {
        for (input, want_display) in [
            ("dna", "dna"),
            ("dna:2,-3,-4", "dna:2,-3,-4"),
            ("blosum62", "blosum62:-6"),
            ("blosum62:-4", "blosum62:-4"),
            ("dna:1000,-1000,-1000", "dna:1000,-1000,-1000"),
        ] {
            let p: ScoreProfile = input.parse().unwrap();
            assert_eq!(p.to_string(), want_display, "{input}");
            let back: ScoreProfile = p.to_string().parse().unwrap();
            assert_eq!(back, p);
        }
        for bad in [
            "pam250",
            "blosum62:0",
            "blosum62:six",
            "dna:1,-1",
            "dna:-1,-1,-1",
            "dna:1,-2147483648,-1",
            "dna:1073741824,-1,-1",
            "dna:1001,-1,-1",
            "blosum62:-1001",
        ] {
            assert!(bad.parse::<ScoreProfile>().is_err(), "{bad} must fail");
        }
    }
}
