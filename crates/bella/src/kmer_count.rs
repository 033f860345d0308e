//! Canonical k-mer counting across a read set: collect, sort, scan.
//!
//! Hashing every k-mer of a long-read set into one table costs a DRAM
//! miss per k-mer (the table is hundreds of megabytes, the k-mers arrive
//! in random order), and the benchmark trace shows it: counting is the
//! largest stage of candidate generation. Minimap2 builds its index the
//! other way, and so does this module — there is one counter:
//!
//! 1. one pass over the reads sizes [`PARTITIONS`] hash partitions of
//!    the canonical code space ([`partition_of`]);
//! 2. a second pass scatters the codes of a *wave* — a contiguous group
//!    of partitions — into one flat buffer, partition by partition; a
//!    code of another wave's partition goes to a trash slot behind the
//!    buffer, so the pass never asks which wave a code belongs to;
//! 3. each partition (≈ total / 1024 codes, cache-sized) is sorted and
//!    run-length counted while it is resident.
//!
//! Two entry points share it:
//!
//! * [`count_reliable_sharded`] — the pipeline's counter, monolithic
//!   (one wave) and streaming (`shards` waves) alike: a wave is reduced
//!   to its reliable survivors as it is counted, so what is resident is
//!   `1/shards` of the codes plus the reliable set, never a table of
//!   every distinct k-mer (most are error k-mers seen once). A further
//!   wave costs one more roll of the (already resident) reads;
//!   DESIGN.md §8 records the trade.
//! * [`count_kmers`] — one wave kept as a [`KmerCounts`] table (the
//!   BELLA original's), for diagnostics, benches and reference tests.

use crate::fxhash::FxHashSet;
use crate::prune::ReliableBounds;
use logan_seq::{CanonicalKmerIter, Seq};
use std::ops::{Index, Range};

/// log2 of [`PARTITIONS`].
const PARTITION_BITS: u32 = 10;

/// Hash partitions of the canonical code space. At 2¹⁰ a partition of a
/// 20 M k-mer read set is ≈ 20 k codes (160 KB): it sorts inside the L2
/// cache, and the scatter's 1 024 write streams stay within the TLB.
pub const PARTITIONS: usize = 1 << PARTITION_BITS;

/// Which of the [`PARTITIONS`] a canonical k-mer code belongs to.
///
/// A multiply-shift mix spreads the decision across all code bits
/// (canonical 2-bit codes are far from uniform), so partition sizes
/// stay balanced even on repeat-heavy genomes.
#[inline]
pub fn partition_of(code: u64) -> usize {
    (code.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - PARTITION_BITS)) as usize
}

/// The partitions counted by wave `shard` of `shards`: contiguous,
/// disjoint, covering `0..PARTITIONS`; empty for some shards when
/// `shards > PARTITIONS`.
fn shard_partitions(shard: usize, shards: usize) -> Range<usize> {
    shard * PARTITIONS / shards..(shard + 1) * PARTITIONS / shards
}

/// The counter: `each(code, multiplicity)` for every distinct canonical
/// k-mer of `reads`, in `(partition, code)` order, holding the codes of
/// one of `shards` waves at a time.
fn for_each_count(reads: &[Seq], k: usize, shards: usize, mut each: impl FnMut(u64, u32)) {
    let mut sizes = [0usize; PARTITIONS];
    for read in reads {
        for (_, km, _) in CanonicalKmerIter::new(read, k) {
            sizes[partition_of(km.code)] += 1;
        }
    }
    for shard in 0..shards {
        let parts = shard_partitions(shard, shards);
        let total: usize = sizes[parts.clone()].iter().sum();
        // Every partition has a cursor, so the scatter is roll →
        // `partition_of` → store with no test of "is this partition in
        // the wave?": `(at, step)` is where partition `p` writes next and
        // how far that moves it. A partition of the wave walks its own
        // stretch of the buffer; all the others write over one trash
        // slot behind it and stay there.
        let mut cursors = [(total, 0usize); PARTITIONS];
        let mut at = 0usize;
        for p in parts.clone() {
            cursors[p] = (at, 1);
            at += sizes[p];
        }
        let mut codes = vec![0u64; total + 1];
        for read in reads {
            for (_, km, _) in CanonicalKmerIter::new(read, k) {
                let (at, step) = &mut cursors[partition_of(km.code)];
                codes[*at] = km.code;
                *at += *step;
            }
        }
        // Each cursor of the wave now stands at its partition's end.
        let mut lo = 0usize;
        for &(hi, _) in &cursors[parts] {
            let partition = &mut codes[lo..hi];
            partition.sort_unstable();
            for run in partition.chunk_by(|a, b| a == b) {
                each(run[0], run.len() as u32);
            }
            lo = hi;
        }
    }
}

/// Multiplicity of every distinct canonical k-mer of a read set: the
/// read side of a `HashMap<u64, u32>` over two flat arrays, ordered by
/// `(partition, code)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KmerCounts {
    codes: Vec<u64>,
    counts: Vec<u32>,
}

impl KmerCounts {
    /// Distinct k-mers.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when no k-mer was counted.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The distinct canonical codes.
    pub fn keys(&self) -> std::slice::Iter<'_, u64> {
        self.codes.iter()
    }

    /// The multiplicities, in [`KmerCounts::keys`] order.
    pub fn values(&self) -> std::slice::Iter<'_, u32> {
        self.counts.iter()
    }

    /// `(code, multiplicity)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &u32)> + '_ {
        self.codes.iter().zip(&self.counts)
    }

    /// Multiplicity of `code`, if it occurs: a binary search in the
    /// table's `(partition, code)` order.
    pub fn get(&self, code: &u64) -> Option<&u32> {
        let order = |c: &u64| (partition_of(*c), *c);
        let at = self.codes.binary_search_by_key(&order(code), order).ok()?;
        Some(&self.counts[at])
    }

    /// Does `code` occur in the read set?
    pub fn contains_key(&self, code: &u64) -> bool {
        self.get(code).is_some()
    }
}

impl Index<&u64> for KmerCounts {
    type Output = u32;

    /// Multiplicity of a k-mer that occurs; panics on one that does not.
    fn index(&self, code: &u64) -> &u32 {
        self.get(code).expect("k-mer not in the count table")
    }
}

/// Count canonical k-mers over all reads. Multiple occurrences within
/// one read all count (as in BELLA's counter; the *reliable* window
/// later caps what survives).
pub fn count_kmers(reads: &[Seq], k: usize) -> KmerCounts {
    let mut table = KmerCounts::default();
    for_each_count(reads, k, 1, |code, n| {
        table.codes.push(code);
        table.counts.push(n);
    });
    table
}

/// Sharded, bounded-memory equivalent of `count_kmers` +
/// [`crate::prune::reliable_kmers`]: returns the number of distinct
/// canonical k-mers and the set of reliable ones under `bounds`.
///
/// Exactly equal to the monolithic computation for every `shards`
/// (0 counts as 1): the waves are disjoint groups of the same
/// partitions. Only the peak changes, from every code of the read set
/// to roughly `1/shards` of them plus the (much smaller) reliable set.
pub fn count_reliable_sharded(
    reads: &[Seq],
    k: usize,
    shards: usize,
    bounds: ReliableBounds,
) -> (usize, FxHashSet<u64>) {
    let mut distinct = 0usize;
    let mut reliable = FxHashSet::default();
    for_each_count(reads, k, shards.max(1), |code, n| {
        distinct += 1;
        if bounds.contains(n) {
            reliable.insert(code);
        }
    });
    (distinct, reliable)
}

/// Histogram of multiplicities (index = multiplicity, capped), useful
/// for diagnostics and for choosing reliable bounds empirically.
pub fn multiplicity_histogram(counts: &KmerCounts, cap: usize) -> Vec<u64> {
    let mut hist = vec![0u64; cap + 1];
    for &c in counts.values() {
        hist[(c as usize).min(cap)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use logan_seq::readsim::{random_seq, ReadSimulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(s: &str) -> Seq {
        Seq::from_str_strict(s).unwrap()
    }

    #[test]
    fn counts_are_strand_canonical() {
        // A read and its reverse complement contribute identically.
        let fwd = seq("ACGTTGCATGCAACGTT");
        let rc = fwd.reverse_complement();
        let a = count_kmers(std::slice::from_ref(&fwd), 5);
        let b = count_kmers(&[rc], 5);
        assert_eq!(a, b);
    }

    #[test]
    fn simple_multiplicities() {
        // "ACGTACGT" with k=4: ACGT (x2... appears at 0 and 4), CGTA, GTAC, TACG.
        let counts = count_kmers(&[seq("ACGTACGT")], 4);
        let acgt = logan_seq::Kmer::from_bases(seq("ACGT").as_slice())
            .canonical()
            .code;
        assert_eq!(counts[&acgt], 2);
        assert_eq!(counts.values().sum::<u32>(), 5, "5 k-mer positions total");
    }

    #[test]
    fn shared_kmers_across_reads_accumulate() {
        // Canonicalization can merge a k-mer with another position's
        // reverse complement, so individual counts are multiples of the
        // read multiplicity rather than exactly equal to it.
        let r = seq("ACGTTGCAACGGT");
        let per_read = count_kmers(std::slice::from_ref(&r), 8);
        let counts = count_kmers(&[r.clone(), r.clone(), r], 8);
        assert_eq!(counts.len(), per_read.len());
        for (code, c) in counts.iter() {
            assert_eq!(*c, per_read[code] * 3);
        }
    }

    #[test]
    fn histogram_caps() {
        let r = seq("AAAAAAAAAA");
        let counts = count_kmers(&[r], 4); // poly-A k-mer, multiplicity 7
        let hist = multiplicity_histogram(&counts, 5);
        assert_eq!(hist[5], 1, "capped into the top bucket");
    }

    #[test]
    fn sharded_counting_equals_monolithic() {
        use crate::prune::reliable_kmers;
        let sim = ReadSimulator {
            read_len: (300, 700),
            errors: logan_seq::ErrorProfile::pacbio(0.08),
            ..ReadSimulator::uniform(12_000, 6.0)
        };
        let rs = sim.generate(31);
        let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let counts = count_kmers(&seqs, 17);
        for bounds in [
            ReliableBounds { lo: 2, hi: 8 },
            ReliableBounds { lo: 1, hi: 1000 },
        ] {
            let want = reliable_kmers(&counts, bounds);
            for shards in [1, 2, 7, 16] {
                let (distinct, got) = count_reliable_sharded(&seqs, 17, shards, bounds);
                assert_eq!(distinct, counts.len(), "shards={shards}");
                assert_eq!(got, want, "shards={shards} bounds={bounds:?}");
            }
        }
        // shards = 0 clamps instead of dividing by zero.
        let (distinct, _) = count_reliable_sharded(&seqs, 17, 0, ReliableBounds { lo: 2, hi: 8 });
        assert_eq!(distinct, counts.len());
    }

    #[test]
    fn shard_partition_is_total_and_balanced() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        // Shards tile the partitions exactly, whatever their number.
        for shards in [1, 2, 7, 8, 16, PARTITIONS, PARTITIONS + 5] {
            let mut next = 0;
            for shard in 0..shards {
                let parts = shard_partitions(shard, shards);
                assert_eq!(parts.start, next, "shards={shards}");
                next = parts.end;
            }
            assert_eq!(next, PARTITIONS, "shards={shards}");
        }
        let shards = 8;
        let mut sizes = vec![0usize; shards];
        for _ in 0..8_000 {
            // 34-bit codes mimic k=17 canonical space occupancy.
            let code: u64 = rng.gen_range(0..(1u64 << 34));
            let p = partition_of(code);
            assert!(p < PARTITIONS);
            sizes[p * shards / PARTITIONS] += 1;
        }
        let (min, max) = (
            *sizes.iter().min().unwrap() as f64,
            *sizes.iter().max().unwrap() as f64,
        );
        assert!(max / min < 1.25, "shard skew too high: {sizes:?}");
    }

    #[test]
    fn depth_drives_multiplicity_of_true_kmers() {
        // Error-free reads at depth ~8: genomic k-mers should show
        // multiplicities well above 1.
        let sim = ReadSimulator {
            read_len: (400, 600),
            errors: logan_seq::ErrorProfile::perfect(),
            ..ReadSimulator::uniform(5_000, 8.0)
        };
        let rs = sim.generate(3);
        let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let counts = count_kmers(&seqs, 17);
        let mean = counts.values().map(|&c| c as f64).sum::<f64>() / counts.len() as f64;
        assert!(mean > 4.0, "mean multiplicity {mean}");
        let mut rng = StdRng::seed_from_u64(1);
        let foreign = random_seq(17, &mut rng);
        // A random 17-mer almost surely absent.
        let code = logan_seq::Kmer::from_bases(foreign.as_slice())
            .canonical()
            .code;
        assert!(!counts.contains_key(&code) || counts[&code] < 3);
    }
}
