//! The sparse reads × reliable-k-mers matrix `A`: CSR, and its CSC
//! transpose.
//!
//! BELLA phrases overlap detection as sparse matrix multiplication:
//! `A(i, j) = position of reliable k-mer j in read i`. We store CSR with
//! one entry per *(read, k-mer)* pair — the first occurrence position —
//! which is what the binning stage needs to estimate offsets.
//!
//! Building it visits every k-mer of every read, so the builder spends
//! exactly one hash probe per k-mer: a single code → column map, seeded
//! with every reliable code before the first read, answers "reliable?"
//! and "which column?" together, and a per-column stamp of the last row
//! that recorded it replaces a per-read set of seen columns.
//! [`KmerMatrix::transpose`] turns the rows into flat column-major
//! [`Postings`] — the other operand of the SpGEMM — by counting sort.

use crate::fxhash::{FxHashMap, FxHashSet};
use logan_seq::{CanonicalKmerIter, Seq};

/// Column of a reliable code no read has shown yet.
const UNASSIGNED: u32 = u32::MAX;

/// CSR matrix of reads over reliable k-mer columns.
#[derive(Debug, Clone)]
pub struct KmerMatrix {
    /// Number of reads (rows).
    pub n_reads: usize,
    /// Number of columns: reliable k-mers that occur in some read.
    pub n_cols: usize,
    /// CSR row pointers, length `n_reads + 1`.
    pub row_ptr: Vec<usize>,
    /// Column index per nonzero.
    pub col_idx: Vec<u32>,
    /// Position (of the k-mer in the read) per nonzero.
    pub pos: Vec<u32>,
    /// Column per reliable canonical code ([`UNASSIGNED`] for a code
    /// that occurs in no read).
    col_of_code: FxHashMap<u64, u32>,
}

impl KmerMatrix {
    /// Build from reads and the reliable k-mer set. Column ids are
    /// assigned in first-encounter order (deterministic given the read
    /// order). One-shot form of [`KmerMatrixBuilder`].
    pub fn build(reads: &[Seq], k: usize, reliable: &FxHashSet<u64>) -> KmerMatrix {
        let mut builder = KmerMatrixBuilder::new(k, reliable);
        builder.push_batch(reads);
        builder.finish()
    }

    /// Nonzeros in the matrix.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The column of a canonical k-mer code, if it has one.
    pub fn col_of(&self, code: u64) -> Option<u32> {
        self.col_of_code
            .get(&code)
            .copied()
            .filter(|&col| col != UNASSIGNED)
    }

    /// The (column, position) entries of one read.
    pub fn row(&self, read: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.row_ptr[read];
        let hi = self.row_ptr[read + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.pos[lo..hi].iter().copied())
    }

    /// Transpose into column-major [`Postings`] — the CSC side of the
    /// SpGEMM. A counting sort on the column id: rows are walked in
    /// order, so every column lists its reads ascending.
    pub fn transpose(&self) -> Postings {
        let mut col_ptr = vec![0usize; self.n_cols + 1];
        for &col in &self.col_idx {
            col_ptr[col as usize + 1] += 1;
        }
        for col in 0..self.n_cols {
            col_ptr[col + 1] += col_ptr[col];
        }
        let mut next = col_ptr.clone();
        let mut entries = vec![(0u32, 0u32); self.nnz()];
        for read in 0..self.n_reads {
            for (col, p) in self.row(read) {
                let at = &mut next[col as usize];
                entries[*at] = (read as u32, p);
                *at += 1;
            }
        }
        Postings { col_ptr, entries }
    }
}

/// A [`KmerMatrix`] transposed: for each column the `(read, position)`
/// entries in ascending read order, all columns in one flat array.
#[derive(Debug, Clone)]
pub struct Postings {
    /// Column `c` is `entries[col_ptr[c]..col_ptr[c + 1]]`.
    pub col_ptr: Vec<usize>,
    /// `(read, position)` per nonzero.
    pub entries: Vec<(u32, u32)>,
}

/// Incremental [`KmerMatrix`] construction from a stream of read
/// batches. The streaming pipeline appends rows batch by batch as reads
/// arrive; `build` is `new` + one `push_batch` + `finish`, so both
/// paths produce identical matrices by construction.
pub struct KmerMatrixBuilder {
    k: usize,
    col_of_code: FxHashMap<u64, u32>,
    /// Per assigned column, the last row that recorded it.
    last_row: Vec<u32>,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    pos: Vec<u32>,
}

impl KmerMatrixBuilder {
    /// Start an empty matrix over the reliable k-mer set.
    pub fn new(k: usize, reliable: &FxHashSet<u64>) -> KmerMatrixBuilder {
        let mut col_of_code: FxHashMap<u64, u32> = FxHashMap::default();
        col_of_code.reserve(reliable.len());
        col_of_code.extend(reliable.iter().map(|&code| (code, UNASSIGNED)));
        KmerMatrixBuilder {
            k,
            col_of_code,
            last_row: Vec::new(),
            row_ptr: vec![0],
            col_idx: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Rows appended so far.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Append `reads` as new rows. Row ids continue from the rows
    /// already pushed; column ids keep their global first-encounter
    /// assignment, so pushing a read set in any batching produces the
    /// same matrix as one [`KmerMatrix::build`] over the whole set.
    pub fn push_batch(&mut self, reads: &[Seq]) {
        for read in reads {
            let row = self.rows() as u32;
            for (p, km, _) in CanonicalKmerIter::new(read, self.k) {
                let Some(col) = self.col_of_code.get_mut(&km.code) else {
                    continue; // not reliable
                };
                if *col == UNASSIGNED {
                    *col = self.last_row.len() as u32;
                    self.last_row.push(row);
                } else {
                    // First occurrence per (read, k-mer) — later copies
                    // of a reliable k-mer inside the same read carry no
                    // extra pairing information and would bloat the
                    // SpGEMM.
                    let last = &mut self.last_row[*col as usize];
                    if *last == row {
                        continue;
                    }
                    *last = row;
                }
                self.col_idx.push(*col);
                self.pos.push(p as u32);
            }
            self.row_ptr.push(self.col_idx.len());
        }
    }

    /// Finish into the CSR matrix.
    pub fn finish(self) -> KmerMatrix {
        KmerMatrix {
            n_reads: self.row_ptr.len() - 1,
            n_cols: self.last_row.len(),
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            pos: self.pos,
            col_of_code: self.col_of_code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmer_count::count_kmers;
    use crate::prune::{reliable_kmers, ReliableBounds};

    fn seq(s: &str) -> Seq {
        Seq::from_str_strict(s).unwrap()
    }

    fn all_reliable(reads: &[Seq], k: usize) -> FxHashSet<u64> {
        count_kmers(reads, k).keys().copied().collect()
    }

    #[test]
    fn csr_shape_and_rows() {
        let reads = vec![seq("ACGTACGT"), seq("TTTTACGT")];
        let rel = all_reliable(&reads, 4);
        let m = KmerMatrix::build(&reads, 4, &rel);
        assert_eq!(m.n_reads, 2);
        assert_eq!(m.row_ptr.len(), 3);
        assert_eq!(m.nnz(), m.col_idx.len());
        // Row iteration covers each read's entries exactly once.
        let r0: Vec<_> = m.row(0).collect();
        let r1: Vec<_> = m.row(1).collect();
        assert_eq!(r0.len() + r1.len(), m.nnz());
    }

    #[test]
    fn first_occurrence_position_kept() {
        // ACGT occurs at 0 and 4; position stored must be 0.
        let reads = vec![seq("ACGTACGT")];
        let rel = all_reliable(&reads, 4);
        let m = KmerMatrix::build(&reads, 4, &rel);
        let acgt = logan_seq::Kmer::from_bases(seq("ACGT").as_slice()).canonical();
        let acgt_col = m.col_of(acgt.code).unwrap();
        let entry = m.row(0).find(|&(c, _)| c == acgt_col).unwrap();
        assert_eq!(entry.1, 0);
    }

    #[test]
    fn unreliable_kmers_excluded() {
        let reads = vec![seq("ACGTACGTACGT")];
        let counts = count_kmers(&reads, 4);
        // Canonical classes in ACGTACGTACGT (k=4): ACGT (palindromic,
        // ×3), {CGTA, TACG} (RC partners, ×4 combined), GTAC
        // (palindromic, ×2). A lo=3 window keeps the first two classes.
        let rel = reliable_kmers(&counts, ReliableBounds { lo: 3, hi: 100 });
        assert_eq!(rel.len(), 2);
        let m = KmerMatrix::build(&reads, 4, &rel);
        assert_eq!(m.n_cols, rel.len());
        // One first-occurrence entry per reliable class.
        assert_eq!(m.nnz(), 2);

        // GTAC (multiplicity 2) must be gone.
        let gtac = logan_seq::Kmer::from_bases(seq("GTAC").as_slice())
            .canonical()
            .code;
        assert!(!rel.contains(&gtac));
    }

    #[test]
    fn postings_are_transpose() {
        let reads = vec![seq("ACGTACGTAA"), seq("CCACGTACGG"), seq("ACGTTTTTTT")];
        let rel = all_reliable(&reads, 4);
        let m = KmerMatrix::build(&reads, 4, &rel);
        let t = m.transpose();
        assert_eq!(t.col_ptr.len(), m.n_cols + 1);
        assert_eq!((t.col_ptr[0], t.col_ptr[m.n_cols]), (0, m.nnz()));
        assert_eq!(t.entries.len(), m.nnz());
        for col in 0..m.n_cols {
            let entries = &t.entries[t.col_ptr[col]..t.col_ptr[col + 1]];
            assert!(!entries.is_empty(), "a column exists because a read has it");
            // Every posting entry must exist in the corresponding row.
            for &(read, p) in entries {
                assert!(m
                    .row(read as usize)
                    .any(|(c, pp)| c == col as u32 && pp == p));
            }
            // Strictly ascending reads: one entry per (read, column).
            for w in entries.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn incremental_builder_matches_one_shot_build() {
        use logan_seq::readsim::ReadSimulator;
        let sim = ReadSimulator {
            read_len: (200, 500),
            errors: logan_seq::ErrorProfile::pacbio(0.08),
            ..ReadSimulator::uniform(8_000, 5.0)
        };
        let rs = sim.generate(44);
        let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let counts = count_kmers(&seqs, 13);
        let rel = reliable_kmers(&counts, ReliableBounds { lo: 2, hi: 20 });
        let whole = KmerMatrix::build(&seqs, 13, &rel);
        for batch in [1, 3, 17, 1000] {
            let mut builder = KmerMatrixBuilder::new(13, &rel);
            for chunk in seqs.chunks(batch) {
                builder.push_batch(chunk);
            }
            assert_eq!(builder.rows(), seqs.len());
            let m = builder.finish();
            assert_eq!(m.n_reads, whole.n_reads, "batch={batch}");
            assert_eq!(m.n_cols, whole.n_cols);
            assert_eq!(m.row_ptr, whole.row_ptr);
            assert_eq!(
                m.col_idx, whole.col_idx,
                "column ids must not depend on batching"
            );
            assert_eq!(m.pos, whole.pos);
            assert_eq!(m.col_of_code, whole.col_of_code);
        }
    }

    #[test]
    fn empty_reads_produce_empty_matrix() {
        let reads = vec![seq("AC")]; // shorter than k
        let rel = FxHashSet::default();
        let m = KmerMatrix::build(&reads, 4, &rel);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.n_cols, 0);
    }
}
