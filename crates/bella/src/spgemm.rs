//! Candidate overlap detection: the sparse `A·Aᵀ` product.
//!
//! Each nonzero `(i, j)` of the product is a pair of reads sharing at
//! least one reliable k-mer, annotated with up to two *witnesses* — the
//! shared k-mer's positions in both reads — which is exactly what
//! BELLA's binning stage consumes. There is one kernel: row-wise
//! Gustavson. Row `i` of `A` (its columns ascending, as the matrix
//! stores them) is combined with the columns of `Aᵀ` — the matrix's own
//! [`crate::matrix::Postings`] — scattering into a dense accumulator
//! indexed by read id; the reads it touched are then gathered in order.
//! Rows are walked ascending, so a per-column cursor always stands at row
//! `i`'s own posting and everything after it is a read `j > i`: no
//! posting is visited that does not become a `(pair, column)` incidence.
//! The reliable upper bound caps column lengths, which is what keeps this
//! quadratic-in-column-degree step linear in practice (and is why BELLA
//! prunes repeats *before* the multiply).

use crate::matrix::KmerMatrix;
use serde::{Deserialize, Serialize};

/// Maximum witnesses retained per candidate pair (BELLA keeps 2).
pub const MAX_WITNESSES: usize = 2;

/// A candidate read pair with shared-k-mer evidence. Its witnesses live
/// inline, so a candidate costs no allocation of its own.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidatePair {
    /// Lower read id.
    pub r1: u32,
    /// Higher read id.
    pub r2: u32,
    /// The first `min(shared, MAX_WITNESSES)` slots are the witnesses;
    /// the rest are zero.
    witnesses: [(u32, u32); MAX_WITNESSES],
    /// Total shared reliable k-mers (may exceed the witnesses).
    pub shared: u32,
}

impl CandidatePair {
    /// A pair sharing `shared` reliable k-mers, the first of them
    /// `witnesses`; panics unless there are `min(shared, MAX_WITNESSES)`.
    pub fn new(r1: u32, r2: u32, shared: u32, witnesses: &[(u32, u32)]) -> CandidatePair {
        assert_eq!(
            witnesses.len(),
            MAX_WITNESSES.min(shared as usize),
            "a candidate carries min(shared, MAX_WITNESSES) witnesses"
        );
        let mut slots = [(0, 0); MAX_WITNESSES];
        slots[..witnesses.len()].copy_from_slice(witnesses);
        CandidatePair {
            r1,
            r2,
            witnesses: slots,
            shared,
        }
    }

    /// Up to [`MAX_WITNESSES`] shared k-mer positions `(pos_in_r1,
    /// pos_in_r2)`, in column-id order.
    pub fn witnesses(&self) -> &[(u32, u32)] {
        &self.witnesses[..MAX_WITNESSES.min(self.shared as usize)]
    }
}

/// Compute all candidate pairs from the k-mer matrix: the one-tile case
/// of [`spgemm_tiles`].
///
/// Deterministic: pairs are emitted sorted by `(r1, r2)` and witnesses
/// in column-id order.
pub fn spgemm_candidates(matrix: &KmerMatrix) -> Vec<CandidatePair> {
    spgemm_tiles(matrix, matrix.n_reads)
        .next()
        .unwrap_or_default()
}

/// Tiled SpGEMM: the product as an iterator of row-tile blocks instead
/// of one materialized list.
///
/// Tile `t` holds every candidate pair whose *lower* read id falls in
/// `[t·tile_rows, (t+1)·tile_rows)`, sorted by `(r1, r2)` — so the
/// concatenation of all tiles is the same list (pairs, witnesses,
/// shared counts, order) for every `tile_rows`, while only one tile's
/// candidates are live. This is the candidate-generation half of the
/// streaming pipeline's producer/consumer stage.
///
/// A pair's witnesses are its first [`MAX_WITNESSES`] common columns by
/// column id and `shared` counts all of them: each row's columns are
/// walked in ascending id, and a pair `(i, j)` is only ever touched
/// from row `i`.
pub fn spgemm_tiles(matrix: &KmerMatrix, tile_rows: usize) -> SpgemmTiles<'_> {
    SpgemmTiles {
        cursor: matrix.postings.col_ptr[..matrix.n_cols].to_vec(),
        matrix,
        acc: vec![(0, [(0, 0); MAX_WITNESSES]); matrix.n_reads],
        touched: Vec::new(),
        next_row: 0,
        tile_rows: tile_rows.max(1),
    }
}

/// Iterator of candidate blocks; see [`spgemm_tiles`].
pub struct SpgemmTiles<'a> {
    matrix: &'a KmerMatrix,
    /// Per column, the posting of the next row to be walked: the
    /// postings before it belong to rows already done.
    cursor: Vec<usize>,
    /// The sparse accumulator, dense over read ids: `(shared, first
    /// witnesses)` of the pair `(current row, j)`; all zero between rows.
    acc: Vec<(u32, [(u32, u32); MAX_WITNESSES])>,
    /// The `j` with a nonzero `acc` entry.
    touched: Vec<u32>,
    next_row: usize,
    tile_rows: usize,
}

impl SpgemmTiles<'_> {
    /// Candidates of one anchor row `i`: every read `j > i` sharing a
    /// reliable column, ascending `j`, witnesses in column-id order.
    fn row_candidates(&mut self, i: usize, out: &mut Vec<CandidatePair>) {
        let matrix = self.matrix;
        let postings = &matrix.postings;
        for (col, p1) in matrix.row(i) {
            let col = col as usize;
            let own = self.cursor[col];
            debug_assert_eq!(postings.entries[own].0 as usize, i);
            self.cursor[col] = own + 1;
            for &(j, p2) in &postings.entries[own + 1..postings.col_ptr[col + 1]] {
                let (shared, witnesses) = &mut self.acc[j as usize];
                if *shared == 0 {
                    self.touched.push(j);
                }
                if let Some(slot) = witnesses.get_mut(*shared as usize) {
                    *slot = (p1, p2);
                }
                *shared += 1;
            }
        }
        self.touched.sort_unstable();
        for j in self.touched.drain(..) {
            let (shared, witnesses) = &mut self.acc[j as usize];
            out.push(CandidatePair {
                r1: i as u32,
                r2: j,
                witnesses: std::mem::take(witnesses),
                shared: std::mem::take(shared),
            });
        }
    }
}

impl Iterator for SpgemmTiles<'_> {
    /// One tile's candidates, sorted by `(r1, r2)`; may be empty for
    /// tiles whose rows share nothing.
    type Item = Vec<CandidatePair>;

    fn next(&mut self) -> Option<Vec<CandidatePair>> {
        if self.next_row >= self.matrix.n_reads {
            return None;
        }
        let lo = self.next_row;
        let hi = (lo + self.tile_rows).min(self.matrix.n_reads);
        self.next_row = hi;
        let mut out = Vec::new();
        for i in lo..hi {
            self.row_candidates(i, &mut out);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashSet;
    use crate::kmer_count::count_kmers;
    use logan_seq::Seq;

    fn seq(s: &str) -> Seq {
        Seq::from_str_strict(s).unwrap()
    }

    fn matrix_of(reads: &[Seq], k: usize) -> KmerMatrix {
        let rel: FxHashSet<u64> = count_kmers(reads, k).keys().copied().collect();
        KmerMatrix::build(reads, k, &rel)
    }

    #[test]
    fn overlapping_reads_become_candidates() {
        let genome = seq("ACGTTGCAACGGTTACGATCGATCGGTAC");
        let r1 = genome.subseq(0, 20);
        let r2 = genome.subseq(8, 29);
        let r3 = seq("TTTTTTTTTTTTTTTTT"); // unrelated
        let m = matrix_of(&[r1, r2, r3], 8);
        let cands = spgemm_candidates(&m);
        assert_eq!(cands.len(), 1);
        let c = &cands[0];
        assert_eq!((c.r1, c.r2), (0, 1));
        assert!(c.shared >= 1);
        assert!(!c.witnesses().is_empty());
    }

    #[test]
    fn witness_positions_are_consistent() {
        let genome = seq("ACGTTGCAACGGTTACGATCGATCGGTACCA");
        let r1 = genome.subseq(0, 24);
        let r2 = genome.subseq(6, 31);
        let m = matrix_of(&[r1.clone(), r2.clone()], 10);
        let cands = spgemm_candidates(&m);
        assert_eq!(cands.len(), 1);
        for &(p1, p2) in cands[0].witnesses() {
            // The witnessed k-mers must actually match.
            let w1 = r1.subseq(p1 as usize, p1 as usize + 10);
            let w2 = r2.subseq(p2 as usize, p2 as usize + 10);
            assert!(w1 == w2 || w1 == w2.reverse_complement());
        }
    }

    #[test]
    fn witnesses_capped_but_shared_counts_all() {
        let genome = seq("ACGTTGCAACGGTTACGATCGATCGGTACCAGGTTACGTACG");
        let r1 = genome.subseq(0, 40);
        let r2 = genome.subseq(2, 42);
        let m = matrix_of(&[r1, r2], 8);
        let cands = spgemm_candidates(&m);
        assert_eq!(cands.len(), 1);
        assert!(cands[0].shared as usize > MAX_WITNESSES);
        assert_eq!(cands[0].witnesses().len(), MAX_WITNESSES);
    }

    #[test]
    fn ordering_is_deterministic_and_normalized() {
        let genome = seq("ACGTTGCAACGGTTACGATCGATCGGTACCAGGTT");
        let reads: Vec<Seq> = (0..4).map(|i| genome.subseq(i * 3, i * 3 + 20)).collect();
        let m = matrix_of(&reads, 8);
        let a = spgemm_candidates(&m);
        let b = spgemm_candidates(&m);
        assert_eq!(a, b);
        for c in &a {
            assert!(c.r1 < c.r2);
        }
        for w in a.windows(2) {
            assert!((w[0].r1, w[0].r2) < (w[1].r1, w[1].r2));
        }
    }

    #[test]
    fn tiles_concatenate_to_the_monolithic_product() {
        use logan_seq::readsim::ReadSimulator;
        // A realistic overlap graph: ~60 reads at depth 6 with errors,
        // plus the small handcrafted sets below for edge shapes.
        let sim = ReadSimulator {
            read_len: (300, 600),
            errors: logan_seq::ErrorProfile::pacbio(0.08),
            ..ReadSimulator::uniform(5_000, 6.0)
        };
        let rs = sim.generate(8);
        let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let m = matrix_of(&seqs, 13);
        let whole = spgemm_candidates(&m);
        assert!(!whole.is_empty(), "depth-6 set must produce candidates");
        for tile_rows in [1, 2, 7, 64, 10_000] {
            let tiled: Vec<CandidatePair> = spgemm_tiles(&m, tile_rows).flatten().collect();
            assert_eq!(
                tiled, whole,
                "tile_rows={tile_rows}: pairs, witnesses, shared counts \
                 and order must all match"
            );
        }
        // Tile count covers every row exactly once, empty tiles allowed.
        let n_tiles = spgemm_tiles(&m, 7).count();
        assert_eq!(n_tiles, m.n_reads.div_ceil(7));
        // tile_rows = 0 clamps to 1 instead of never advancing.
        assert_eq!(spgemm_tiles(&m, 0).count(), m.n_reads);
    }

    #[test]
    fn tiles_handle_degenerate_matrices() {
        // Empty matrix: no tiles at all.
        let m = matrix_of(&[], 8);
        assert_eq!(spgemm_tiles(&m, 4).count(), 0);
        // Unrelated reads: tiles exist but are empty.
        let reads = vec![seq("ACGTACGTACGTACG"), seq("TTTTTTTTTTTTTTT")];
        let m = matrix_of(&reads, 8);
        let tiles: Vec<Vec<CandidatePair>> = spgemm_tiles(&m, 1).collect();
        assert_eq!(tiles.len(), 2);
        assert!(tiles.iter().all(|t| t.is_empty()));
    }

    #[test]
    fn no_self_pairs() {
        // A read with an internal repeat must not pair with itself.
        let r = seq("ACGTACGTACGTACGTACGT");
        let m = matrix_of(&[r], 8);
        assert!(spgemm_candidates(&m).is_empty());
    }
}
