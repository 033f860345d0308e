//! The sparse reads × reliable-k-mers matrix `A`: CSR rows and CSC
//! postings, both straight from the counter's sort.
//!
//! BELLA phrases overlap detection as sparse matrix multiplication:
//! `A(i, j) = position of reliable k-mer j in read i`. We store one entry
//! per *(read, k-mer)* pair — the first occurrence position — which is
//! what the binning stage needs to estimate offsets.
//!
//! There is no second pass over the k-mers. The counter
//! ([`crate::kmer_count`]) sorts packed `(code | read | position)` keys,
//! so a run of one code is a column candidate: its length is the
//! multiplicity, and its keys are its occurrences in `(read, position)`
//! order. A reliable run keeps its first key per read, compacted in place
//! behind the counter's scan: those are the column's postings, reads
//! ascending, first position kept. Column ids follow the first-encounter
//! order of a walk over the reads — the rank of a column's first
//! occurrence, which is its first posting — so one sort of the columns'
//! first occurrences numbers them. One pass over the kept keys then
//! copies each column to its id's place in the flat [`Postings`], and
//! walking the columns in id order fills every CSR row with its columns
//! ascending.
//!
//! Memory: the counter's key buffer (8 bytes a k-mer position, 16 past
//! `2k + occ_bits = 64`) is the peak; a wave's buffer shrinks to its
//! postings before the next wave, or the numbering, allocates.

use crate::fxhash::FxHashSet;
use crate::kmer_count::{for_each_count, Key, KeyLayout};
use crate::prune::ReliableBounds;
use logan_seq::Seq;

/// CSR matrix of reads over reliable k-mer columns, with its postings.
#[derive(Debug, Clone)]
pub struct KmerMatrix {
    /// Number of reads (rows).
    pub n_reads: usize,
    /// Number of columns: reliable k-mers that occur in some read.
    pub n_cols: usize,
    /// CSR row pointers, length `n_reads + 1`.
    pub row_ptr: Vec<usize>,
    /// Column index per nonzero; ascending within a row.
    pub col_idx: Vec<u32>,
    /// Position (of the k-mer in the read) per nonzero.
    pub pos: Vec<u32>,
    /// The same nonzeros column-major: the CSC side of the SpGEMM.
    pub postings: Postings,
}

/// A [`KmerMatrix`]'s columns: for each column the `(read, position)`
/// entries in ascending read order, all columns in one flat array.
#[derive(Debug, Clone)]
pub struct Postings {
    /// Column `c` is `entries[col_ptr[c]..col_ptr[c + 1]]`.
    pub col_ptr: Vec<usize>,
    /// `(read, position)` per nonzero.
    pub entries: Vec<(u32, u32)>,
}

impl KmerMatrix {
    /// Count, prune and build in one sort, in `shards` waves (0 counts as
    /// 1; the matrix is the same for any): the columns are the k-mers
    /// whose multiplicity `bounds` holds. Also returns how many distinct
    /// canonical k-mers the reads have.
    pub fn count_and_build(
        reads: &[Seq],
        k: usize,
        shards: usize,
        bounds: ReliableBounds,
    ) -> (usize, KmerMatrix) {
        one_sort(reads, k, shards, |_, n| bounds.contains(n))
    }

    /// [`KmerMatrix::count_and_build`] with "in `reliable`" for "in the
    /// window": the columns are the codes of the set that occur.
    pub fn build(reads: &[Seq], k: usize, reliable: &FxHashSet<u64>) -> KmerMatrix {
        one_sort(reads, k, 1, |code, _| reliable.contains(&code)).1
    }

    /// Nonzeros in the matrix.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The (column, position) entries of one read, columns ascending.
    pub fn row(&self, read: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.row_ptr[read];
        let hi = self.row_ptr[read + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.pos[lo..hi].iter().copied())
    }
}

/// [`one_sort_as`] on the narrowest keys that hold `reads` at `k`.
fn one_sort(
    reads: &[Seq],
    k: usize,
    shards: usize,
    column: impl FnMut(u64, u32) -> bool,
) -> (usize, KmerMatrix) {
    let layout = KeyLayout::of(reads);
    if layout.fits_u64(k) {
        one_sort_as::<u64>(reads, k, shards, layout, column)
    } else {
        one_sort_as::<u128>(reads, k, shards, layout, column)
    }
}

/// The counter over `(code | read | position)` keys, keeping the first
/// key per read of every run that `column(code, multiplicity)` accepts;
/// then the columns numbered and the matrix filled from those keys.
fn one_sort_as<K: Key>(
    reads: &[Seq],
    k: usize,
    shards: usize,
    layout: KeyLayout,
    mut column: impl FnMut(u64, u32) -> bool,
) -> (usize, KmerMatrix) {
    let n_reads = reads.len();
    let occ_bits = layout.occ_bits;
    let (mut distinct, mut n_cols) = (0usize, 0usize);
    // Nonzeros per row, at `row_ptr[read + 1]` until the prefix sum.
    let mut row_ptr = vec![0usize; n_reads + 1];
    // Each wave's postings, its buffer shrunk to them. Nothing else grows
    // while a wave's keys are resident.
    let mut waves: Vec<Vec<K>> = Vec::with_capacity(crate::kmer_count::waves(shards));
    for_each_count(
        reads,
        k,
        shards,
        layout,
        |code, run: &mut [K]| {
            distinct += 1;
            if !column(code, run.len() as u32) {
                return 0;
            }
            n_cols += 1;
            let mut kept = 0;
            let mut last = usize::MAX; // no read id
            for i in 0..run.len() {
                let read = layout.unpack(run[i].low()).0 as usize;
                if read != last {
                    run[kept] = run[i];
                    kept += 1;
                    last = read;
                    row_ptr[read + 1] += 1;
                }
            }
            kept
        },
        |mut keys| {
            keys.shrink_to_fit();
            waves.push(keys);
        },
    );
    assert!(
        u32::try_from(n_cols).is_ok(),
        "{n_cols} reliable k-mers: column ids are u32"
    );

    // Column ids in first-encounter order: a column's first posting is
    // its first occurrence, `read << 32 | pos`, and no two columns share
    // one. Beside it, the column's place in the waves and its length.
    let runs = || {
        waves
            .iter()
            .flat_map(|keys| keys.chunk_by(|a, b| a.code(occ_bits) == b.code(occ_bits)))
    };
    let mut first: Vec<(u64, u32, u32)> = Vec::with_capacity(n_cols);
    for (found, run) in runs().enumerate() {
        let (read, p) = layout.unpack(run[0].low());
        first.push((
            (read as u64) << 32 | p as u64,
            found as u32,
            run.len() as u32,
        ));
    }
    first.sort_unstable();
    let mut id_of = vec![0u32; n_cols];
    let mut col_ptr = Vec::with_capacity(n_cols + 1);
    col_ptr.push(0);
    for (col, &(_, found, len)) in first.iter().enumerate() {
        id_of[found as usize] = col as u32;
        col_ptr.push(col_ptr[col] + len as usize);
    }
    drop(first);

    // The postings in column-id order, from one pass over the waves.
    let nnz = col_ptr[n_cols];
    let mut entries = vec![(0u32, 0u32); nnz];
    for (run, &col) in runs().zip(&id_of) {
        let at = col_ptr[col as usize];
        for (entry, key) in entries[at..at + run.len()].iter_mut().zip(run) {
            *entry = layout.unpack(key.low());
        }
    }
    drop((waves, id_of));

    // Each row's columns ascending, from one pass over the postings.
    for read in 0..n_reads {
        row_ptr[read + 1] += row_ptr[read];
    }
    let mut next = row_ptr[..n_reads].to_vec();
    let (mut col_idx, mut pos) = (vec![0u32; nnz], vec![0u32; nnz]);
    for col in 0..n_cols {
        for &(read, p) in &entries[col_ptr[col]..col_ptr[col + 1]] {
            let slot = &mut next[read as usize];
            col_idx[*slot] = col as u32;
            pos[*slot] = p;
            *slot += 1;
        }
    }
    let matrix = KmerMatrix {
        n_reads,
        n_cols,
        row_ptr,
        col_idx,
        pos,
        postings: Postings { col_ptr, entries },
    };
    (distinct, matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmer_count::count_kmers;
    use crate::prune::reliable_kmers;

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
        // Row iteration covers each read's entries exactly once, columns
        // ascending.
        let r0: Vec<_> = m.row(0).collect();
        let r1: Vec<_> = m.row(1).collect();
        assert_eq!(r0.len() + r1.len(), m.nnz());
        for row in [&r0, &r1] {
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "{row:?}");
        }
    }

    #[test]
    fn first_occurrence_position_kept() {
        // ACGT occurs at 0 and 4; position stored must be 0. It is the
        // read's first k-mer, so it is column 0.
        let reads = vec![seq("ACGTACGT")];
        let rel = all_reliable(&reads, 4);
        let m = KmerMatrix::build(&reads, 4, &rel);
        assert_eq!(m.row(0).next(), Some((0, 0)));
        assert_eq!(m.postings.entries[..m.postings.col_ptr[1]], [(0, 0)]);
    }

    #[test]
    fn unreliable_kmers_excluded() {
        let reads = vec![seq("ACGTACGTACGT")];
        let counts = count_kmers(&reads, 4);
        // Canonical classes in ACGTACGTACGT (k=4): ACGT (palindromic,
        // ×3), {CGTA, TACG} (RC partners, ×4 combined), GTAC
        // (palindromic, ×2). A lo=3 window keeps the first two classes.
        let bounds = ReliableBounds { lo: 3, hi: 100 };
        let rel = reliable_kmers(&counts, bounds);
        assert_eq!(rel.len(), 2);
        let m = KmerMatrix::build(&reads, 4, &rel);
        assert_eq!(m.n_cols, rel.len());
        // One first-occurrence entry per reliable class: ACGT at 0, CGTA
        // at 1.
        assert_eq!(m.row(0).collect::<Vec<_>>(), [(0, 0), (1, 1)]);
        let (distinct, windowed) = KmerMatrix::count_and_build(&reads, 4, 1, bounds);
        assert_eq!(distinct, counts.len());
        assert_eq!(windowed.col_idx, m.col_idx);
        assert_eq!(windowed.pos, m.pos);
    }

    #[test]
    fn postings_are_transpose() {
        let reads = vec![seq("ACGTACGTAA"), seq("CCACGTACGG"), seq("ACGTTTTTTT")];
        let rel = all_reliable(&reads, 4);
        let m = KmerMatrix::build(&reads, 4, &rel);
        let t = &m.postings;
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
    fn waves_do_not_change_the_matrix() {
        use logan_seq::readsim::ReadSimulator;
        let sim = ReadSimulator {
            read_len: (200, 500),
            errors: logan_seq::ErrorProfile::pacbio(0.08),
            ..ReadSimulator::uniform(8_000, 5.0)
        };
        let rs = sim.generate(44);
        let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let bounds = ReliableBounds { lo: 2, hi: 20 };
        let (distinct, whole) = KmerMatrix::count_and_build(&seqs, 13, 1, bounds);
        assert!(whole.nnz() > 0);
        for shards in [0, 3, 17, usize::MAX] {
            let (d, m) = KmerMatrix::count_and_build(&seqs, 13, shards, bounds);
            assert_eq!(d, distinct, "shards={shards}");
            assert_eq!(m.n_cols, whole.n_cols);
            assert_eq!(m.row_ptr, whole.row_ptr);
            assert_eq!(m.col_idx, whole.col_idx, "shards={shards}");
            assert_eq!(m.pos, whole.pos);
            assert_eq!(m.postings.col_ptr, whole.postings.col_ptr);
            assert_eq!(m.postings.entries, whole.postings.entries);
        }
    }

    #[test]
    fn empty_reads_produce_empty_matrix() {
        let reads = vec![seq("AC")]; // shorter than k
        let rel = FxHashSet::default();
        let m = KmerMatrix::build(&reads, 4, &rel);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.n_cols, 0);
        assert_eq!(m.row_ptr, [0, 0]);
        assert_eq!(m.postings.col_ptr, [0]);
    }
}
