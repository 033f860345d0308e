//! Differential tests of candidate generation (premerge step
//! `candidates-equivalence`): each stage against the slow thing it must
//! equal, on inputs chosen to break a sort-and-scan counter, a matrix
//! built from that sort's packed keys and a row-wise SpGEMM.
//!
//! * the counter ≡ a `HashMap` filled one k-mer at a time, through every
//!   read accessor of [`KmerCounts`], for every sharding;
//! * the one-sort [`KmerMatrix`] ≡ a `HashMap` walk of every read in
//!   order (first-encounter column ids, each read's first position,
//!   postings with reads ascending), for every wave count, at both key
//!   widths and at the edges of the packing; [`KmerMatrix::build`] over
//!   a set ≡ [`KmerMatrix::count_and_build`] over that set's window;
//! * [`BellaPipeline::candidates`], which builds no count table ≡ the
//!   table path (`count_kmers` + `reliable_kmers`) carried through the
//!   matrix and the product;
//! * [`spgemm_candidates`] ≡ concatenated [`spgemm_tiles`] ≡ a scan of
//!   every pair of rows.

use logan_bella::fxhash::FxHashSet;
use logan_bella::kmer_count::{
    count_kmers, count_reliable_sharded, KeyLayout, KmerCounts, PARTITIONS,
};
use logan_bella::matrix::KmerMatrix;
use logan_bella::prune::{reliable_kmers, ReliableBounds};
use logan_bella::spgemm::{spgemm_candidates, spgemm_tiles, CandidatePair, MAX_WITNESSES};
use logan_bella::{BellaConfig, BellaPipeline};
use logan_seq::readsim::random_seq;
use logan_seq::{Kmer, Seq};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

fn seq(s: &str) -> Seq {
    Seq::from_str_strict(s).unwrap()
}

fn all_reliable(reads: &[Seq], k: usize) -> FxHashSet<u64> {
    count_kmers(reads, k).keys().copied().collect()
}

/// The canonical code at every position of `read`, the slow way.
fn naive_codes(read: &Seq, k: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    (0..(read.len() + 1).saturating_sub(k)).map(move |pos| {
        let code = Kmer::from_bases(&read.as_slice()[pos..pos + k])
            .canonical()
            .code;
        (pos, code)
    })
}

/// The counter's specification: canonicalise every position the slow
/// way and count in a `HashMap`.
fn naive_counts(reads: &[Seq], k: usize) -> HashMap<u64, u32> {
    let mut counts = HashMap::new();
    for read in reads {
        for (_, code) in naive_codes(read, k) {
            *counts.entry(code).or_insert(0) += 1;
        }
    }
    counts
}

/// Every read accessor of the table against the reference map.
fn check_table(got: &KmerCounts, want: &HashMap<u64, u32>) {
    assert_eq!(got.len(), want.len());
    assert_eq!(got.is_empty(), want.is_empty());
    assert_eq!(got.keys().len(), got.values().len());
    for (code, n) in got.iter() {
        assert_eq!(want.get(code), Some(n), "code={code}");
        assert_eq!(got.get(code), Some(n));
        assert_eq!(got[code], *n);
        assert!(got.contains_key(code));
    }
    let absent = (0..u64::MAX).find(|c| !want.contains_key(c)).unwrap();
    assert_eq!(got.get(&absent), None);
    assert!(!got.contains_key(&absent));
}

/// `count_kmers`, `reliable_kmers` and `count_reliable_sharded` against
/// [`naive_counts`], for windows that sit exactly on occurring
/// multiplicities.
fn check_against_naive(reads: &[Seq], k: usize) {
    let want = naive_counts(reads, k);
    let got = count_kmers(reads, k);
    check_table(&got, &want);

    // Every occurring multiplicity as both edges of the window, so `lo`
    // and `hi` are each hit exactly and missed by one.
    let mut seen: Vec<u32> = want.values().copied().collect();
    seen.sort_unstable();
    seen.dedup();
    let mut windows = vec![ReliableBounds {
        lo: 1,
        hi: u32::MAX,
    }];
    for &m in &seen {
        windows.push(ReliableBounds { lo: m, hi: m });
        windows.push(ReliableBounds {
            lo: m + 1,
            hi: m + 1,
        });
        windows.push(ReliableBounds {
            lo: 2,
            hi: m.max(2),
        });
    }
    for bounds in windows {
        let reliable: HashSet<u64> = want
            .iter()
            .filter(|&(_, &n)| bounds.lo <= n && n <= bounds.hi)
            .map(|(&code, _)| code)
            .collect();
        let pruned = reliable_kmers(&got, bounds);
        assert_eq!(pruned.len(), reliable.len(), "k={k} {bounds:?}");
        assert!(pruned.iter().all(|c| reliable.contains(c)), "{bounds:?}");
        // A wave per partition, and more waves than partitions (some
        // then hold no partition at all, and on these inputs most hold no
        // k-mer: only the trash slot behind an empty buffer), cost a pass
        // over the reads per wave: once per input is enough.
        let many = if bounds.hi == u32::MAX {
            vec![PARTITIONS, PARTITIONS + 5]
        } else {
            vec![]
        };
        for shards in [0, 1, 2, 7, 8, 16].into_iter().chain(many) {
            let (distinct, sharded) = count_reliable_sharded(reads, k, shards, bounds);
            assert_eq!(distinct, want.len(), "k={k} shards={shards}");
            assert_eq!(sharded, pruned, "k={k} shards={shards} {bounds:?}");
        }
    }
}

#[test]
fn counter_equals_naive_reference_on_adversarial_inputs() {
    let mut rng = StdRng::seed_from_u64(17);
    // One partition takes every k-mer of a homopolymer.
    let homopolymers = vec![seq(&"A".repeat(300)), seq(&"T".repeat(120)), seq("AAAA")];
    let mixed = vec![
        random_seq(400, &mut rng),
        seq("ACG"), // shorter than most k below
        Seq::new(),
        seq("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"), // period-4 repeat
        random_seq(33, &mut rng),
    ];
    let mut overlapping = vec![random_seq(500, &mut rng)];
    for start in [0, 100, 250] {
        overlapping.push(overlapping[0].subseq(start, start + 200));
        overlapping.push(
            overlapping[0]
                .subseq(start, start + 200)
                .reverse_complement(),
        );
    }
    // Every read shorter than k: every wave of every sharding is empty.
    let short = vec![seq("ACGTA"), seq("TT"), Seq::new()];
    for k in [1, 4, 17, 32] {
        check_against_naive(&[], k);
        check_against_naive(&homopolymers, k);
        check_against_naive(&mixed, k);
        check_against_naive(&overlapping, k);
        check_against_naive(&short, k);
    }
    assert_eq!(count_kmers(&homopolymers, 17).len(), 1);
    assert!(count_kmers(&short, 17).is_empty());
}

/// `candidates()` counts straight into the reliable set; the table
/// path it no longer runs must still describe it: the same distinct
/// count, the same reliable set (seen through its size, the matrix it
/// selects and the pairs that matrix yields).
#[test]
fn candidates_equal_the_count_table_path() {
    let mut rng = StdRng::seed_from_u64(41);
    let genome = random_seq(900, &mut rng);
    let mut reads: Vec<Seq> = (0..14)
        .map(|i| genome.subseq(i * 50, i * 50 + 220))
        .collect();
    reads.push(reads[2].reverse_complement());
    reads.push(seq("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"));
    reads.push(seq("ACG")); // shorter than every k below
    reads.push(Seq::new());
    for k in [5, 17, 32] {
        let counts = count_kmers(&reads, k);
        let top = counts.values().copied().max().unwrap();
        assert!(top >= 3, "k={k}: windows below must cut somewhere");
        for (lo, hi) in [
            (1, u32::MAX),
            (2, top),
            (2, 2),
            (3, top - 1),
            (top + 1, top + 9),
        ] {
            let bounds = ReliableBounds { lo, hi };
            let config = BellaConfig {
                k,
                reliable_override: Some(bounds),
                ..BellaConfig::with_x(20)
            };
            let (pairs, meta, stats) = BellaPipeline::new(config).candidates(&reads);
            let reliable = reliable_kmers(&counts, bounds);
            let matrix = KmerMatrix::build(&reads, k, &reliable);
            let want = spgemm_candidates(&matrix);
            assert_eq!(stats.distinct_kmers, counts.len(), "k={k} {bounds:?}");
            assert_eq!(stats.reliable_kmers, reliable.len(), "k={k} {bounds:?}");
            assert_eq!(stats.matrix_nnz, matrix.nnz(), "k={k} {bounds:?}");
            assert_eq!(stats.candidates, want.len(), "k={k} {bounds:?}");
            let got: Vec<(u32, u32)> = meta.iter().map(|m| (m.0 as u32, m.1 as u32)).collect();
            let want: Vec<(u32, u32)> = want.iter().map(|c| (c.r1, c.r2)).collect();
            assert_eq!(got, want, "k={k} {bounds:?}");
            assert_eq!(pairs.len(), meta.len());
            // What candidates() computes is the one-wave case of the
            // sharded counter, set included.
            assert_eq!(
                count_reliable_sharded(&reads, k, 1, bounds),
                (counts.len(), reliable)
            );
        }
    }
}

/// The matrix's specification: walk every read's positions in order; a
/// code of `columns` takes the next column id the first time any read
/// shows it, and a row records a column once, at its first position.
/// Returns each row sorted by column and each column's postings.
fn naive_matrix(reads: &[Seq], k: usize, columns: &HashSet<u64>) -> NaiveMatrix {
    let mut col_of: HashMap<u64, u32> = HashMap::new();
    let mut m = NaiveMatrix::default();
    for (read, seq) in reads.iter().enumerate() {
        let mut row: HashMap<u32, u32> = HashMap::new();
        for (pos, code) in naive_codes(seq, k).filter(|(_, c)| columns.contains(c)) {
            let fresh = col_of.len() as u32;
            let col = *col_of.entry(code).or_insert(fresh);
            if col == fresh {
                m.postings.push(Vec::new());
            }
            if let Entry::Vacant(first) = row.entry(col) {
                first.insert(pos as u32);
                m.postings[col as usize].push((read as u32, pos as u32));
            }
        }
        let mut row: Vec<(u32, u32)> = row.into_iter().collect();
        row.sort_unstable();
        m.rows.push(row);
    }
    m
}

#[derive(Default)]
struct NaiveMatrix {
    rows: Vec<Vec<(u32, u32)>>,
    postings: Vec<Vec<(u32, u32)>>,
}

/// Every field of `got` against the reference.
fn check_matrix(got: &KmerMatrix, want: &NaiveMatrix, what: &str) {
    assert_eq!(got.n_reads, want.rows.len(), "{what}");
    assert_eq!(got.n_cols, want.postings.len(), "{what}");
    assert_eq!(got.row_ptr.len(), got.n_reads + 1, "{what}");
    for (read, row) in want.rows.iter().enumerate() {
        assert_eq!(
            got.row(read).collect::<Vec<_>>(),
            *row,
            "{what} read {read}"
        );
    }
    assert_eq!(got.nnz(), want.rows.iter().map(Vec::len).sum(), "{what}");
    let postings = &got.postings;
    assert_eq!(postings.col_ptr.len(), got.n_cols + 1, "{what}");
    for (col, entries) in want.postings.iter().enumerate() {
        let (lo, hi) = (postings.col_ptr[col], postings.col_ptr[col + 1]);
        assert_eq!(postings.entries[lo..hi], entries[..], "{what} column {col}");
    }
    assert_eq!(postings.entries.len(), got.nnz(), "{what}");
}

/// `count_and_build` over `bounds` and `build` over that window's set,
/// against [`naive_matrix`], for every wave count.
fn check_matrix_against_naive(reads: &[Seq], k: usize, bounds: ReliableBounds, waves: &[usize]) {
    let counts = naive_counts(reads, k);
    let reliable: HashSet<u64> = counts
        .iter()
        .filter(|&(_, &n)| bounds.contains(n))
        .map(|(&code, _)| code)
        .collect();
    let want = naive_matrix(reads, k, &reliable);
    let set: FxHashSet<u64> = reliable.iter().copied().collect();
    check_matrix(&KmerMatrix::build(reads, k, &set), &want, "build");
    for &shards in waves {
        let what = format!("k={k} {bounds:?} shards={shards}");
        let (distinct, m) = KmerMatrix::count_and_build(reads, k, shards, bounds);
        assert_eq!(distinct, counts.len(), "{what}");
        check_matrix(&m, &want, &what);
    }
}

#[test]
fn matrix_equals_naive_reference_for_every_wave_count() {
    let mut rng = StdRng::seed_from_u64(43);
    let genome = random_seq(700, &mut rng);
    let unit = random_seq(40, &mut rng);
    let mut reads: Vec<Seq> = (0..12)
        .map(|i| genome.subseq(i * 45, i * 45 + 160))
        .collect();
    reads.insert(3, reads[5].reverse_complement());
    // `unit`'s k-mers occur twice in one read and once in another: the
    // repeat keeps its first position.
    let mut twice = random_seq(30, &mut rng);
    twice.extend_from(&unit);
    twice.extend_from(&random_seq(25, &mut rng));
    twice.extend_from(&unit);
    reads.push(twice);
    reads.push(unit.clone());
    reads.push(seq("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"));
    reads.push(seq("ACG")); // shorter than every k below
    reads.push(Seq::new());
    for k in [5, 17, 32] {
        let top = naive_counts(&reads, k).into_values().max().unwrap();
        for (lo, hi) in [(1, u32::MAX), (2, top), (2, 2), (top + 1, top + 9)] {
            let waves = [1, 2, 7, PARTITIONS + 5];
            check_matrix_against_naive(&reads, k, ReliableBounds { lo, hi }, &waves);
        }
    }
    // The repeat, seen directly: the column of `unit`'s first 17-mer
    // holds read `twice` at its first copy (offset 30), and `unit` at 0.
    let k = 17;
    let (_, m) = KmerMatrix::count_and_build(&reads, k, 1, ReliableBounds { lo: 2, hi: 3 });
    let (twice, once) = (reads.len() as u32 - 5, reads.len() as u32 - 4);
    let col = m
        .postings
        .entries
        .iter()
        .position(|&e| e == (once, 0))
        .unwrap();
    let col = m.postings.col_ptr.partition_point(|&at| at <= col) - 1;
    let column = &m.postings.entries[m.postings.col_ptr[col]..m.postings.col_ptr[col + 1]];
    assert_eq!(column, [(twice, 30), (once, 0)]);
}

/// Reads that share k-mers: windows of one genome, the first and the
/// last `longest` bases long, the rest shorter.
fn window_reads(n_reads: usize, longest: usize, rng: &mut StdRng) -> Vec<Seq> {
    let genome = random_seq(longest + 5 * n_reads, rng);
    (0..n_reads)
        .map(|i| {
            let len = if i == 0 || i + 1 == n_reads {
                longest
            } else {
                longest - 40 + i % 40
            };
            genome.subseq(5 * i, 5 * i + len)
        })
        .collect()
}

/// Read ids and positions at, and one past, a power of two, and keys at
/// exactly 64 bits (narrow) and 65 (wide).
#[test]
fn matrix_packs_occurrences_at_the_width_edges() {
    let mut rng = StdRng::seed_from_u64(47);
    let all = ReliableBounds {
        lo: 1,
        hi: u32::MAX,
    };
    let pair = ReliableBounds { lo: 2, hi: 2 };
    for (n_reads, longest, k, narrow) in [
        (64, 256, 9, true),   // ids in 6 bits, positions in 8
        (65, 256, 9, true),   // a 7th read-id bit
        (64, 257, 9, true),   // a 9th position bit
        (16, 1024, 25, true), // 2k + occ_bits = 50 + 4 + 10 = 64
        (16, 1025, 25, false),
        (17, 1024, 25, false),
        (3, 100, 32, false), // k = 32 is wide with any occurrence bits
    ] {
        let reads = window_reads(n_reads, longest, &mut rng);
        let layout = KeyLayout::of(&reads);
        assert_eq!(layout, KeyLayout::new(n_reads, longest));
        assert_eq!(layout.fits_u64(k), narrow, "{n_reads} x {longest}, k={k}");
        for bounds in [all, pair] {
            check_matrix_against_naive(&reads, k, bounds, &[1, 3]);
        }
    }
}

#[test]
fn matrix_of_nothing_to_count_is_empty() {
    let all = ReliableBounds {
        lo: 1,
        hi: u32::MAX,
    };
    let short = [seq("ACGTA"), seq("TT"), Seq::new()];
    for (reads, k) in [(&[][..], 5), (&short[..], 17), (&short[..], 32)] {
        for shards in [0, 1, 7, PARTITIONS + 5] {
            let (distinct, m) = KmerMatrix::count_and_build(reads, k, shards, all);
            assert_eq!((distinct, m.n_cols, m.nnz()), (0, 0, 0));
            assert_eq!(m.n_reads, reads.len());
            assert_eq!(m.row_ptr, vec![0; reads.len() + 1]);
            assert_eq!(m.postings.col_ptr, [0]);
        }
    }
}

/// A reliable set that also holds codes no read has: `build` gives them
/// no column, and equals the window path over any wave count.
#[test]
fn matrix_waves_are_invisible_with_absent_reliable_codes() {
    let mut rng = StdRng::seed_from_u64(23);
    let genome = random_seq(600, &mut rng);
    let mut reads: Vec<Seq> = (0..12)
        .map(|i| genome.subseq(i * 40, i * 40 + 160))
        .collect();
    reads.push(seq("ACGTACGTACGTACGTACGTACGT")); // one k-mer many times
    reads.push(seq("ACG")); // shorter than k
    reads.push(reads[3].reverse_complement());
    let k = 9;
    let mut rel = all_reliable(&reads, k);
    let occurring = rel.len();
    // Codes of a foreign sequence: reliable on paper, in no read.
    let foreign = all_reliable(&[random_seq(200, &mut rng)], k);
    rel.extend(foreign.iter().copied());
    assert!(rel.len() > occurring, "the foreign codes must be new");

    let whole = KmerMatrix::build(&reads, k, &rel);
    assert_eq!(whole.n_cols, occurring, "only occurring codes are columns");
    assert_eq!(whole.postings.col_ptr.len(), occurring + 1);
    // Columns are dense and in first-encounter order.
    let mut next = 0;
    for read in 0..whole.n_reads {
        for (col, _) in whole.row(read) {
            assert!(col <= next, "column {col} skipped ahead of {next}");
            next = next.max(col + 1);
        }
    }
    assert_eq!(next as usize, whole.n_cols);

    let every = ReliableBounds {
        lo: 1,
        hi: u32::MAX,
    };
    for shards in [1, 2, 7, PARTITIONS + 5] {
        let (_, m) = KmerMatrix::count_and_build(&reads, k, shards, every);
        assert_eq!(m.n_cols, whole.n_cols, "shards={shards}");
        assert_eq!(m.row_ptr, whole.row_ptr, "shards={shards}");
        assert_eq!(m.col_idx, whole.col_idx, "shards={shards}");
        assert_eq!(m.pos, whole.pos, "shards={shards}");
        assert_eq!(m.postings.col_ptr, whole.postings.col_ptr);
        assert_eq!(m.postings.entries, whole.postings.entries);
    }
}

/// The product's specification: scan every pair of rows for common
/// columns.
fn naive_pairs(m: &KmerMatrix) -> Vec<CandidatePair> {
    let mut out = Vec::new();
    for i in 0..m.n_reads {
        for j in i + 1..m.n_reads {
            let mut common: Vec<(u32, (u32, u32))> = m
                .row(i)
                .flat_map(|(c1, p1)| {
                    m.row(j)
                        .filter(move |&(c2, _)| c2 == c1)
                        .map(move |(_, p2)| (c1, (p1, p2)))
                })
                .collect();
            common.sort_unstable();
            if !common.is_empty() {
                let witnesses: Vec<(u32, u32)> =
                    common.iter().take(MAX_WITNESSES).map(|&(_, w)| w).collect();
                let shared = common.len() as u32;
                out.push(CandidatePair::new(i as u32, j as u32, shared, &witnesses));
            }
        }
    }
    out
}

#[test]
fn product_equals_naive_pair_scan_for_every_tiling() {
    let mut rng = StdRng::seed_from_u64(29);
    let genome = random_seq(400, &mut rng);
    let unit = random_seq(30, &mut rng);
    // Staggered windows share long runs of k-mers (far more than
    // MAX_WITNESSES, met in an order that is not column order for the
    // reverse-complemented read); `repeat` holds every k-mer of `unit`
    // three times; two reads share nothing with anyone.
    let mut reads: Vec<Seq> = (0..9)
        .map(|i| genome.subseq(i * 35, i * 35 + 120))
        .collect();
    reads.insert(4, reads[1].reverse_complement());
    reads.insert(7, genome.subseq(109, 150)); // one k-mer into read 0
    let mut repeat = unit.clone();
    repeat.extend_from(&unit);
    repeat.extend_from(&unit);
    reads.push(repeat);
    reads.push(seq("TTTTTTTTTTTTTTTTTTTTTTTT"));
    reads.push(unit.clone());
    reads.push(seq("ACG")); // shorter than k
    let m = KmerMatrix::build(&reads, 11, &all_reliable(&reads, 11));
    let want = naive_pairs(&m);
    assert!(want.iter().any(|c| c.shared as usize > MAX_WITNESSES));
    assert!(want.iter().any(|c| c.witnesses().len() == 1));
    // The repeat read pairs with the unit read once per distinct k-mer,
    // not once per copy.
    let (rep, uni) = (reads.len() as u32 - 4, reads.len() as u32 - 2);
    let pair = want.iter().find(|c| (c.r1, c.r2) == (rep, uni)).unwrap();
    assert_eq!(pair.shared as usize, unit.len() - 11 + 1);

    assert_eq!(spgemm_candidates(&m), want);
    for tile_rows in 0..=reads.len() + 1 {
        let tiled: Vec<CandidatePair> = spgemm_tiles(&m, tile_rows).flatten().collect();
        assert_eq!(tiled, want, "tile_rows={tile_rows}");
    }
}
