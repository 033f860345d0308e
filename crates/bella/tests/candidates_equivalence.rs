//! Differential tests of candidate generation (premerge step
//! `candidates-equivalence`): each stage against the slow thing it must
//! equal, on inputs chosen to break a sort-and-scan counter, a
//! one-probe matrix builder and a row-wise SpGEMM.
//!
//! * the counter ≡ a `HashMap` filled one k-mer at a time, through every
//!   read accessor of [`KmerCounts`], for every sharding;
//! * [`BellaPipeline::candidates`], which builds no count table ≡ the
//!   table path (`count_kmers` + `reliable_kmers`) carried through the
//!   matrix and the product;
//! * [`KmerMatrix::build`] ≡ any batching of `push_batch`;
//! * [`spgemm_candidates`] ≡ concatenated [`spgemm_tiles`] ≡ a scan of
//!   every pair of rows.

use logan_bella::fxhash::FxHashSet;
use logan_bella::kmer_count::{count_kmers, count_reliable_sharded, KmerCounts, PARTITIONS};
use logan_bella::matrix::{KmerMatrix, KmerMatrixBuilder};
use logan_bella::prune::{reliable_kmers, ReliableBounds};
use logan_bella::spgemm::{spgemm_candidates, spgemm_tiles, CandidatePair, MAX_WITNESSES};
use logan_bella::{BellaConfig, BellaPipeline};
use logan_seq::readsim::random_seq;
use logan_seq::{Kmer, Seq};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

fn seq(s: &str) -> Seq {
    Seq::from_str_strict(s).unwrap()
}

fn all_reliable(reads: &[Seq], k: usize) -> FxHashSet<u64> {
    count_kmers(reads, k).keys().copied().collect()
}

/// The counter's specification: canonicalise every position the slow
/// way and count in a `HashMap`.
fn naive_counts(reads: &[Seq], k: usize) -> HashMap<u64, u32> {
    let mut counts = HashMap::new();
    for read in reads {
        for pos in 0..(read.len() + 1).saturating_sub(k) {
            let code = Kmer::from_bases(&read.as_slice()[pos..pos + k])
                .canonical()
                .code;
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

/// Any batching — empty batches, one read at a time, uneven cuts —
/// equals the one-shot build, on reads with k-mers repeated inside a
/// read, under a reliable set that also holds codes no read has.
#[test]
fn matrix_batching_is_invisible_with_absent_reliable_codes() {
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
    assert_eq!(whole.n_cols, occurring, "only assigned columns count");
    assert_eq!(whole.transpose().col_ptr.len(), occurring + 1);
    assert!(
        foreign.iter().any(|&c| whole.col_of(c).is_none()),
        "an unseen reliable code has no column"
    );
    // Columns are dense and in first-encounter order.
    let mut next = 0;
    for &col in &whole.col_idx {
        assert!(col <= next, "column {col} skipped ahead of {next}");
        next = next.max(col + 1);
    }
    assert_eq!(next as usize, whole.n_cols);

    for cuts in [
        vec![0, 0, 15],
        vec![1; 15],
        vec![4, 0, 7, 1, 3],
        vec![14, 1],
        vec![2, 13],
    ] {
        let mut builder = KmerMatrixBuilder::new(k, &rel);
        let mut rest = &reads[..];
        for &n in &cuts {
            let (batch, tail) = rest.split_at(n);
            builder.push_batch(batch);
            rest = tail;
        }
        assert!(rest.is_empty());
        let m = builder.finish();
        assert_eq!(m.n_cols, whole.n_cols, "{cuts:?}");
        assert_eq!(m.row_ptr, whole.row_ptr, "{cuts:?}");
        assert_eq!(m.col_idx, whole.col_idx, "{cuts:?}");
        assert_eq!(m.pos, whole.pos, "{cuts:?}");
        for &code in &rel {
            assert_eq!(m.col_of(code), whole.col_of(code), "{cuts:?}");
        }
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
                out.push(CandidatePair {
                    r1: i as u32,
                    r2: j as u32,
                    shared: common.len() as u32,
                    witnesses: common.iter().take(MAX_WITNESSES).map(|&(_, w)| w).collect(),
                });
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
    assert!(want.iter().any(|c| c.witnesses.len() == 1));
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
