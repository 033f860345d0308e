//! Result types shared by all aligners.

/// Outcome of a semi-global *extension*: the best-scoring alignment of a
/// prefix of the query against a prefix of the target, as produced by
/// X-drop (`extendSeedL`) and ksw2-style extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtensionResult {
    /// Best alignment score found.
    pub score: i32,
    /// Query prefix length (`i`) at the best cell.
    pub query_end: usize,
    /// Target prefix length (`j`) at the best cell.
    pub target_end: usize,
    /// DP cells actually computed (the work measure behind GCUPS).
    pub cells: u64,
    /// Anti-diagonal (or row) iterations executed.
    pub iterations: u64,
    /// Widest anti-diagonal (or band) encountered; proportional to the
    /// parallelism available to the GPU kernel.
    pub max_width: usize,
    /// True if the aligner stopped because the drop condition fired
    /// (rather than reaching the end of a sequence).
    pub dropped: bool,
}

impl ExtensionResult {
    /// A zero extension (empty query or target).
    pub fn zero() -> ExtensionResult {
        ExtensionResult {
            score: 0,
            query_end: 0,
            target_end: 0,
            cells: 0,
            iterations: 0,
            max_width: 0,
            dropped: false,
        }
    }
}

/// Outcome of a full-matrix alignment (NW / SW / banded SW).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignmentResult {
    /// Optimal score.
    pub score: i32,
    /// End position in the query (1-based prefix length; for NW this is
    /// always the query length).
    pub query_end: usize,
    /// End position in the target.
    pub target_end: usize,
    /// DP cells computed.
    pub cells: u64,
}

/// Outcome of a seed-and-extend alignment: the two extensions plus the
/// seed contribution (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedExtendResult {
    /// Total score: `left.score + seed_len * match + right.score`.
    pub score: i32,
    /// The left (reversed-prefix) extension.
    pub left: ExtensionResult,
    /// The right extension.
    pub right: ExtensionResult,
    /// Start of the alignment in the query (original coordinates).
    pub query_start: usize,
    /// End (exclusive) of the alignment in the query.
    pub query_end: usize,
    /// Start of the alignment in the target.
    pub target_start: usize,
    /// End (exclusive) of the alignment in the target.
    pub target_end: usize,
}

impl SeedExtendResult {
    /// Total DP cells computed across both extensions.
    pub fn cells(&self) -> u64 {
        self.left.cells + self.right.cells
    }

    /// Length of the aligned span on the query.
    pub fn query_span(&self) -> usize {
        self.query_end - self.query_start
    }

    /// Length of the aligned span on the target.
    pub fn target_span(&self) -> usize {
        self.target_end - self.target_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_extension_is_neutral() {
        let z = ExtensionResult::zero();
        assert_eq!(z.score, 0);
        assert_eq!(z.cells, 0);
        assert!(!z.dropped);
    }

    #[test]
    fn seed_extend_spans() {
        let left = ExtensionResult {
            score: 5,
            query_end: 10,
            target_end: 12,
            cells: 100,
            iterations: 20,
            max_width: 7,
            dropped: true,
        };
        let right = ExtensionResult {
            score: 8,
            query_end: 20,
            target_end: 18,
            cells: 150,
            iterations: 30,
            max_width: 9,
            dropped: false,
        };
        let r = SeedExtendResult {
            score: 5 + 8 + 17,
            left,
            right,
            query_start: 40,
            query_end: 87,
            target_start: 38,
            target_end: 85,
        };
        assert_eq!(r.cells(), 250);
        assert_eq!(r.query_span(), 47);
        assert_eq!(r.target_span(), 47);
    }
}
