//! Canonical k-mer counting across a read set: collect, sort, scan.
//!
//! Hashing every k-mer of a long-read set into one table costs a DRAM
//! miss per k-mer (the table is hundreds of megabytes, the k-mers arrive
//! in random order). Minimap2 builds its index the other way, sorting
//! (hash, read, position) together so the occurrences ride with the key,
//! and so does this module — one counter over packed keys `code <<
//! occ_bits | read << pos_bits | pos` ([`KeyLayout`]; `u64` while they
//! fit, else `u128`):
//!
//! 1. one pass over the reads sizes [`PARTITIONS`] hash partitions of
//!    the canonical code space (`partition_of`);
//! 2. a second pass scatters the keys of a *wave* — a contiguous group
//!    of partitions — into one flat buffer, partition by partition; a
//!    key of another wave's partition goes to a trash slot behind the
//!    buffer, so the pass never asks which wave a key belongs to;
//! 3. each partition (≈ total / 1024 keys, cache-sized) is sorted and
//!    scanned while resident: a run is one canonical code, its length the
//!    multiplicity, its keys its occurrences in `(read, position)` order.
//!    Keys the caller keeps are compacted in place behind the scan.
//!
//! Three entry points share it: [`crate::matrix::KmerMatrix::count_and_build`]
//! (the SpGEMM path: it keeps each reliable run's first key per read, the
//! matrix column's postings); [`count_reliable_sharded`] (the minimizer
//! path and the benchmark: codes only, each wave reduced to the reliable
//! set as it is counted, `1/shards` of the codes resident); and
//! [`count_kmers`], a [`KmerCounts`] table for diagnostics, benches and
//! reference tests. A further wave costs one more roll of the resident
//! reads; DESIGN.md §8 records the trade.

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
pub(crate) fn partition_of(code: u64) -> usize {
    (code.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - PARTITION_BITS)) as usize
}

/// The partitions counted by wave `shard` of `shards`: contiguous,
/// disjoint, covering `0..PARTITIONS`; empty for some shards when
/// `shards > PARTITIONS`.
fn shard_partitions(shard: usize, shards: usize) -> Range<usize> {
    shard * PARTITIONS / shards..(shard + 1) * PARTITIONS / shards
}

/// The waves a request for `shards` runs: at least one, and no more
/// than [`PARTITIONS`] — a wave past the last partition would be an
/// empty pass over every read.
pub(crate) fn waves(shards: usize) -> usize {
    shards.clamp(1, PARTITIONS)
}

/// Bits needed to write `x` (0 for 0).
fn bits(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// The low `n ≤ 64` bits set.
fn low_mask(n: u32) -> u64 {
    u64::MAX.checked_shr(u64::BITS - n).unwrap_or(0)
}

/// How an occurrence packs below its canonical code in a counter key:
/// `code << occ_bits | read << pos_bits | pos`, so keys sort by code,
/// then read, then position. `KeyLayout::CODE_ONLY` packs none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyLayout {
    /// Bits of a position: the width of the longest read's last one.
    pub pos_bits: u32,
    /// Bits of an occurrence: the last read id's and `pos_bits`.
    pub occ_bits: u32,
}

impl KeyLayout {
    /// No occurrence below the code, as a count needs.
    pub(crate) const CODE_ONLY: KeyLayout = KeyLayout {
        pos_bits: 0,
        occ_bits: 0,
    };

    /// The layout of `reads`: see [`KeyLayout::new`].
    pub fn of(reads: &[Seq]) -> KeyLayout {
        let longest = reads.iter().map(Seq::len).max().unwrap_or(0);
        KeyLayout::new(reads.len(), longest)
    }

    /// The layout of `reads` reads, the longest `longest` bases.
    ///
    /// # Panics
    ///
    /// Past the `u32` read ids and positions the matrix stores: more than
    /// `u32::MAX` reads, or a read longer than 2³² bases.
    pub fn new(reads: usize, longest: usize) -> KeyLayout {
        assert!(
            u32::try_from(reads).is_ok(),
            "{reads} reads: read ids are u32, so at most u32::MAX reads"
        );
        assert!(
            longest as u64 <= 1 << 32,
            "a read of {longest} bases has positions past u32::MAX"
        );
        let pos_bits = bits(longest.saturating_sub(1) as u64);
        KeyLayout {
            pos_bits,
            occ_bits: bits(reads.saturating_sub(1) as u64) + pos_bits,
        }
    }

    /// Do keys of k-mer length `k` fit a `u64` (`2k + occ_bits ≤ 64`)?
    pub fn fits_u64(self, k: usize) -> bool {
        2 * k as u64 + self.occ_bits as u64 <= u64::BITS as u64
    }

    /// The occurrence bits of position `pos` of read `read` (none under
    /// [`KeyLayout::CODE_ONLY`]).
    #[inline]
    pub(crate) fn occ(self, read: usize, pos: usize) -> u64 {
        ((read as u64) << self.pos_bits | pos as u64) & low_mask(self.occ_bits)
    }

    /// `(read, position)` back out of a key's low 64 bits.
    #[inline]
    pub(crate) fn unpack(self, low: u64) -> (u32, u32) {
        let occ = low & low_mask(self.occ_bits);
        (
            (occ >> self.pos_bits) as u32,
            (occ & low_mask(self.pos_bits)) as u32,
        )
    }
}

/// A counter key: a `u64` while code and occurrence fit, else a `u128`.
pub(crate) trait Key: Copy + Ord {
    /// `code << occ_bits | occ`.
    fn pack(code: u64, occ: u64, occ_bits: u32) -> Self;
    /// The canonical code above `occ_bits`.
    fn code(self, occ_bits: u32) -> u64;
    /// The low 64 bits, where the occurrence is.
    fn low(self) -> u64;
}

macro_rules! key {
    ($t:ty) => {
        impl Key for $t {
            #[inline]
            fn pack(code: u64, occ: u64, occ_bits: u32) -> $t {
                (code as $t) << occ_bits | occ as $t
            }
            #[inline]
            fn code(self, occ_bits: u32) -> u64 {
                (self >> occ_bits) as u64
            }
            #[inline]
            fn low(self) -> u64 {
                self as u64
            }
        }
    };
}
key!(u64);
key!(u128);

/// The counter, holding the keys of one of `shards` waves at a time
/// ([`waves`] clamps the count).
///
/// `keep(code, run)` sees every distinct canonical k-mer of `reads`, in
/// `(partition, code)` order: `run` holds its keys in `(read, position)`
/// order, so `run.len()` is its multiplicity. It may move keys to the
/// front of `run` and returns how many of them to keep. The kept keys of
/// a wave are compacted, in order, to the front of its buffer, and
/// `wave` receives that buffer truncated to them.
pub(crate) fn for_each_count<K: Key>(
    reads: &[Seq],
    k: usize,
    shards: usize,
    layout: KeyLayout,
    mut keep: impl FnMut(u64, &mut [K]) -> usize,
    mut wave: impl FnMut(Vec<K>),
) {
    let shards = waves(shards);
    let occ_bits = layout.occ_bits;
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
        let mut keys = vec![K::pack(0, 0, 0); total + 1];
        for (r, read) in reads.iter().enumerate() {
            let occ = layout.occ(r, 0);
            for (pos, km, _) in CanonicalKmerIter::new(read, k) {
                let (at, step) = &mut cursors[partition_of(km.code)];
                keys[*at] = K::pack(km.code, occ | layout.occ(0, pos), occ_bits);
                *at += *step;
            }
        }
        // Each cursor of the wave now stands at its partition's end.
        let mut lo = 0usize;
        let mut kept = 0usize;
        for &(hi, _) in &cursors[parts] {
            keys[lo..hi].sort_unstable();
            let mut run = lo;
            while run < hi {
                let code = keys[run].code(occ_bits);
                let end = keys[run + 1..hi]
                    .iter()
                    .position(|key| key.code(occ_bits) != code)
                    .map_or(hi, |n| run + 1 + n);
                let n = keep(code, &mut keys[run..end]);
                if n > 0 {
                    keys.copy_within(run..run + n, kept);
                    kept += n;
                }
                run = end;
            }
            lo = hi;
        }
        keys.truncate(kept);
        wave(keys);
    }
}

/// The counter over codes alone: `each(code, multiplicity)`, no key kept.
fn for_each_code(reads: &[Seq], k: usize, shards: usize, mut each: impl FnMut(u64, u32)) {
    let count = |code, run: &mut [u64]| {
        each(code, run.len() as u32);
        0
    };
    for_each_count(reads, k, shards, KeyLayout::CODE_ONLY, count, drop);
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
    for_each_code(reads, k, 1, |code, n| {
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
    for_each_code(reads, k, shards, |code, n| {
        distinct += 1;
        if bounds.contains(n) {
            reliable.insert(code);
        }
    });
    (distinct, reliable)
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
        // Past PARTITIONS, one wave a partition: no wave is an empty
        // pass, so even usize::MAX waves return.
        let few = &seqs[..3];
        let bounds = ReliableBounds { lo: 1, hi: 1000 };
        let want = count_reliable_sharded(few, 17, 1, bounds);
        for shards in [PARTITIONS + 5, usize::MAX] {
            assert_eq!(count_reliable_sharded(few, 17, shards, bounds), want);
        }
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
    fn key_layout_widths_at_their_edges() {
        let layout = |reads, longest| {
            let l = KeyLayout::new(reads, longest);
            (l.pos_bits, l.occ_bits)
        };
        // Nothing to pack: no reads, or one read of at most one base.
        assert_eq!(layout(0, 0), (0, 0));
        assert_eq!(layout(1, 1), (0, 0));
        // A width grows one past a power of two: ids 0..=63 take 6 bits,
        // 64 a seventh; positions 0..=255 take 8, 256 a ninth.
        assert_eq!(layout(64, 256), (8, 14));
        assert_eq!(layout(65, 256), (8, 15));
        assert_eq!(layout(64, 257), (9, 15));
        // The largest read set that fits packs into exactly 64 bits.
        let widest = KeyLayout::new(u32::MAX as usize, 1 << 32);
        assert_eq!((widest.pos_bits, widest.occ_bits), (32, 64));
        // k = 25 leaves 14 occurrence bits in a u64, not 15.
        assert!(KeyLayout::new(16, 1024).fits_u64(25));
        assert!(!KeyLayout::new(16, 1025).fits_u64(25));
        assert!(!KeyLayout::new(17, 1024).fits_u64(25));
        // k = 32 fills a u64 with the code alone.
        assert!(KeyLayout::CODE_ONLY.fits_u64(32));
        assert!(!KeyLayout::new(2, 1).fits_u64(32));
    }

    #[test]
    fn keys_round_trip_at_the_widest_layout() {
        let widest = KeyLayout::new(u32::MAX as usize, 1 << 32);
        let code = u64::MAX; // k = 32, every base a T
        for (read, pos) in [(0, 0), (u32::MAX - 1, u32::MAX), (7, 1 << 31)] {
            let occ = widest.occ(read as usize, pos as usize);
            let key = u128::pack(code, occ, widest.occ_bits);
            assert_eq!(key.code(widest.occ_bits), code);
            assert_eq!(widest.unpack(key.low()), (read, pos));
        }
        let narrow = KeyLayout::new(65, 257);
        let key = u64::pack(0x3_FFFF, narrow.occ(64, 256), narrow.occ_bits);
        assert_eq!(key.code(narrow.occ_bits), 0x3_FFFF);
        assert_eq!(narrow.unpack(key.low()), (64, 256));
        // Keys order by code, then read, then position.
        let at = |read, pos| u64::pack(5, narrow.occ(read, pos), narrow.occ_bits);
        assert!(at(3, 256) < at(4, 0) && at(4, 0) < at(4, 1));
        assert!(at(64, 256) < u64::pack(6, 0, narrow.occ_bits));
        // No occurrence leaks into a code-only key.
        assert_eq!(KeyLayout::CODE_ONLY.occ(12345, 678), 0);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX reads")]
    fn too_many_reads_for_u32_ids_panics() {
        let _ = KeyLayout::new(u32::MAX as usize + 1, 100);
    }

    #[test]
    #[should_panic(expected = "positions past u32::MAX")]
    fn a_position_past_u32_panics() {
        let _ = KeyLayout::new(10, (1 << 32) + 1);
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
