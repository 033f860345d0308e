//! Differential tests for the minimizer seeding front-end, run as its
//! own premerge step (`minimizer-equivalence`):
//!
//! 1. the rolling canonical k-mer iterator is bit-identical to the
//!    naive per-position reverse complement it replaced;
//! 2. every candidate pair the minimizer + chaining path produces is
//!    also a SpGEMM candidate pair — minimizers are reliable k-mers, so
//!    a minimizer hit *is* a shared-k-mer witness (the subset property
//!    the "fewer candidates at equal recall" claim rests on);
//! 3. the full pipeline under [`Seeder::Minimizer`] aligns only pairs
//!    the SpGEMM path would also align, and its streaming execution is
//!    bit-identical to the monolithic one under adversarial budgets;
//! 4. the flat index and postings chain exactly like the hash-of-`Vec`s
//!    layout they replaced, kept here as an oracle: the same
//!    [`ChainedCandidate`]s, the `f64` chain score bit for bit, on the
//!    read sets that stress the layout (tandem repeats, duplicated and
//!    reverse-complemented reads, reads with no retained minimizer or
//!    shorter than `k`, windows longer than a read, one-row tiles);
//! 5. the seeder's acceptance bar: at w = 8, k = 17 it reaches ≥ 95 % of
//!    the SpGEMM path's recall while aligning ≤ 50 % of its candidates.

use logan::bella::chain::{
    chain_anchors, chain_candidates, chain_tiles, choose_chain_seed, Anchor, ChainConfig,
    ChainedCandidate, MinimizerIndex,
};
use logan::bella::fxhash::FxHashSet;
use logan::bella::kmer_count::count_kmers;
use logan::bella::matrix::KmerMatrix;
use logan::bella::pipeline::Seeder;
use logan::bella::prune::{reliable_bounds, reliable_kmers};
use logan::bella::spgemm::spgemm_candidates;
use logan::bella::{BellaConfig, BellaPipeline, PipelineBudget};
use logan::prelude::*;
use logan::seq::kmer::{CanonicalKmerIter, Kmer, KmerIter};
use logan::seq::minimizers;
use logan::seq::readsim::{random_seq, ReadSimulator};
use logan::seq::ErrorProfile;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};

fn arb_seq(min_len: usize, max_len: usize) -> impl Strategy<Value = Seq> {
    proptest::collection::vec(0u8..4, min_len..max_len)
        .prop_map(|codes| codes.into_iter().map(logan::seq::Base::from_code).collect())
}

/// Naive per-position canonical k-mer: build the forward k-mer, then
/// its reverse complement from scratch (O(k) per position).
fn naive_canonical(seq: &Seq, pos: usize, k: usize) -> (Kmer, bool) {
    let fwd = KmerIter::new(seq, k)
        .nth(pos)
        .map(|(_, km)| km)
        .expect("position in range");
    let rc = fwd.reverse_complement();
    if rc.code < fwd.code {
        (rc, false)
    } else {
        (fwd, true)
    }
}

fn cpu(x: i32) -> XDropCpuAligner {
    XDropCpuAligner::new(2, Scoring::default(), x, Engine::from_env())
}

type Pairs = BTreeSet<(u32, u32)>;

/// The candidate pair sets of both seeders, computed from the *same*
/// reliable-k-mer set (the pipeline's own pruning window).
fn pair_sets(reads: &[Seq], k: usize, w: usize) -> (Pairs, Pairs) {
    let counts = count_kmers(reads, k);
    let reliable: FxHashSet<u64> = reliable_kmers(&counts, reliable_bounds(8.0, 0.10, k, 1e-4));

    let matrix = KmerMatrix::build(reads, k, &reliable);
    let spgemm: Pairs = spgemm_candidates(&matrix)
        .into_iter()
        .map(|c| (c.r1, c.r2))
        .collect();

    let mut index = MinimizerIndex::new(w, k);
    index.push_batch(reads, &reliable);
    let minimizer: Pairs = chain_candidates(&index, ChainConfig::default())
        .into_iter()
        .map(|c| (c.r1, c.r2))
        .collect();

    (minimizer, spgemm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite 1: the incrementally rolled reverse complement in
    /// `CanonicalKmerIter` is bit-identical — code, position, and
    /// strand flag — to recomputing the canonical k-mer naively at
    /// every position, for every k.
    #[test]
    fn rolling_canonical_matches_naive(seq in arb_seq(0, 200), k in 1usize..=32) {
        let rolled: Vec<_> = CanonicalKmerIter::new(&seq, k).collect();
        prop_assert_eq!(rolled.len(), if seq.len() >= k { seq.len() - k + 1 } else { 0 });
        for (pos, km, fwd) in rolled {
            let (naive, naive_fwd) = naive_canonical(&seq, pos, k);
            prop_assert_eq!(km.code, naive.code, "code at pos {} (k={})", pos, k);
            prop_assert_eq!(fwd, naive_fwd, "strand flag at pos {} (k={})", pos, k);
        }
    }

    /// Tentpole invariant: minimizer-path candidate pairs are a subset
    /// of SpGEMM candidate pairs, for any (w, k) and any read set —
    /// the sketch is post-filtered by the same reliable set the matrix
    /// is built from, so a minimizer match implies a shared reliable
    /// k-mer.
    #[test]
    fn minimizer_pairs_subset_of_spgemm(
        seed in 0u64..1_000,
        w in 1usize..12,
        genome_len in 2_000usize..6_000,
    ) {
        let sim = ReadSimulator {
            read_len: (400, 900),
            errors: ErrorProfile::pacbio(0.10),
            ..ReadSimulator::uniform(genome_len, 6.0)
        };
        let rs = sim.generate(seed);
        let reads: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let (minimizer, spgemm) = pair_sets(&reads, 15, w);
        for pair in &minimizer {
            prop_assert!(
                spgemm.contains(pair),
                "minimizer pair {:?} not a SpGEMM candidate (w={})", pair, w
            );
        }
    }
}

/// End-to-end version of the subset property: with the same config, the
/// pairs the minimizer pipeline aligns are a subset of the pairs the
/// SpGEMM pipeline aligns — and every *kept* overlap it reports is kept
/// by the SpGEMM path too (same aligner, same threshold, same seeds'
/// pair, so losing a true overlap could only come from chaining).
#[test]
fn minimizer_pipeline_aligns_subset_of_spgemm() {
    let sim = ReadSimulator {
        read_len: (900, 1400),
        errors: ErrorProfile::pacbio(0.10),
        ..ReadSimulator::uniform(25_000, 8.0)
    };
    let rs = sim.generate(99);
    let backend = cpu(50);

    let mut cfg = BellaConfig {
        error_rate: 0.10,
        min_overlap: 700,
        ..BellaConfig::with_x(50)
    };
    let (sp_out, _) = BellaPipeline::new(cfg).run_on_readset(&rs, &backend, 700);
    cfg.seeder = Seeder::Minimizer;
    let (mn_out, _) = BellaPipeline::new(cfg).run_on_readset(&rs, &backend, 700);

    let sp_pairs: BTreeSet<(usize, usize)> = sp_out.overlaps.iter().map(|o| (o.r1, o.r2)).collect();
    assert!(
        !mn_out.overlaps.is_empty(),
        "minimizer path found no overlaps"
    );
    for o in &mn_out.overlaps {
        assert!(
            sp_pairs.contains(&(o.r1, o.r2)),
            "minimizer aligned ({}, {}) which SpGEMM never considered",
            o.r1,
            o.r2
        );
    }
    assert!(
        mn_out.overlaps.len() < sp_out.overlaps.len(),
        "minimizer path should align strictly fewer pairs ({} vs {})",
        mn_out.overlaps.len(),
        sp_out.overlaps.len()
    );
}

/// The streaming minimizer pipeline is bit-identical to the monolithic
/// one, including under adversarial budgets (one-read batches, odd
/// co-prime knobs) — tiling and admission filtering commute.
#[test]
fn minimizer_streaming_matches_monolithic() {
    let sim = ReadSimulator {
        read_len: (900, 1400),
        errors: ErrorProfile::pacbio(0.10),
        ..ReadSimulator::uniform(20_000, 7.0)
    };
    let rs = sim.generate(7);
    let reads: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
    let backend = cpu(50);

    for budget in [
        PipelineBudget::default(),
        PipelineBudget {
            batch_reads: 1,
            shards: 1,
            inflight_blocks: 1,
        },
        PipelineBudget {
            batch_reads: 7,
            shards: 13,
            inflight_blocks: 4,
        },
    ] {
        let cfg = BellaConfig {
            error_rate: 0.10,
            min_overlap: 700,
            seeder: Seeder::Minimizer,
            budget,
            ..BellaConfig::with_x(50)
        };
        let pipeline = BellaPipeline::new(cfg);
        let mono = pipeline.run(&reads, &backend);
        let streamed = pipeline.run_streaming(
            logan::seq::readsim::seq_batches(&reads, budget.batch_reads.max(1)),
            &backend,
        );
        assert_eq!(mono.overlaps, streamed.overlaps, "budget {budget:?}");
        assert_eq!(mono.stats, streamed.stats, "budget {budget:?}");
    }
}

/// The chaining of the hash-of-`Vec`s layout the flat index replaced:
/// one filtered `Vec` sketch per read, postings as code → `(read, pos,
/// fwd)` lists in read order, and per row a map from partner to its
/// anchors in gather order. Checks the index's sketches on the way.
fn oracle_candidates(
    reads: &[Seq],
    reliable: &FxHashSet<u64>,
    index: &MinimizerIndex,
) -> Vec<ChainedCandidate> {
    let (w, k) = (index.w, index.k);
    let cfg = ChainConfig::default();
    let sketches: Vec<Vec<_>> = reads
        .iter()
        .map(|read| {
            minimizers(read, w, k)
                .into_iter()
                .filter(|m| reliable.contains(&m.code))
                .collect()
        })
        .collect();
    let mut postings: HashMap<u64, Vec<(u32, u32, bool)>> = HashMap::new();
    for (read, sketch) in sketches.iter().enumerate() {
        assert_eq!(index.sketch(read), &sketch[..], "sketch of read {read}");
        assert_eq!(index.read_len(read), reads[read].len());
        for m in sketch {
            postings
                .entry(m.code)
                .or_default()
                .push((read as u32, m.pos, m.fwd));
        }
    }
    assert_eq!(index.n_reads(), reads.len());
    assert_eq!(index.nnz(), sketches.iter().map(Vec::len).sum::<usize>());
    let mut out = Vec::new();
    for (i, sketch) in sketches.iter().enumerate() {
        let mut acc: BTreeMap<u32, Vec<Anchor>> = BTreeMap::new();
        for m in sketch {
            for &(j, tpos, fwd) in postings.get(&m.code).into_iter().flatten() {
                if j as usize > i {
                    acc.entry(j).or_default().push(Anchor {
                        qpos: m.pos,
                        tpos,
                        fwd: m.fwd == fwd,
                    });
                }
            }
        }
        for (j, anchors) in acc {
            let chain = chain_anchors(&anchors, k, &cfg).expect("partner has anchors");
            let (seed, est) = choose_chain_seed(reads[i].len(), reads[j as usize].len(), &chain, k);
            out.push(ChainedCandidate {
                r1: i as u32,
                r2: j,
                seed,
                est,
                anchors: chain.anchors.len() as u32,
                score: chain.score,
            });
        }
    }
    out
}

/// Candidate lists equal field by field, the `f64` score bit for bit.
fn assert_same(got: &[ChainedCandidate], want: &[ChainedCandidate], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: candidate count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{what}");
        assert_eq!(g.score.to_bits(), w.score.to_bits(), "{what}: score bits");
    }
}

/// Index `reads` at (w, k) over the codes seen at least `min_count`
/// times, and check the flat chaining against the oracle, monolithic
/// and in tiles of 1, 3 and all rows. Returns the candidates.
fn check_against_oracle(reads: &[Seq], w: usize, k: usize, min_count: u32) -> usize {
    let reliable: FxHashSet<u64> = count_kmers(reads, k)
        .iter()
        .filter(|&(_, &n)| n >= min_count)
        .map(|(&code, _)| code)
        .collect();
    let mut index = MinimizerIndex::new(w, k);
    for chunk in reads.chunks(3) {
        index.push_batch(chunk, &reliable);
    }
    let want = oracle_candidates(reads, &reliable, &index);
    let what = format!("w={w} k={k} min_count={min_count}");
    let whole = chain_candidates(&index, ChainConfig::default());
    assert_same(&whole, &want, &what);
    for tile_rows in [1, 3, reads.len()] {
        let tiled: Vec<ChainedCandidate> = chain_tiles(&index, tile_rows, ChainConfig::default())
            .flatten()
            .collect();
        assert_same(&tiled, &want, &format!("{what} tile_rows={tile_rows}"));
    }
    want.len()
}

/// A read set built to stress the layout: overlapping reads of one
/// genome, a tandem repeat (one code at several positions of a read),
/// duplicated reads, reverse complements (anchors on the opposite
/// strand), an unrelated read (no retained minimizer once singletons are
/// dropped) and reads shorter than `k`.
fn adversarial_reads(seed: u64) -> Vec<Seq> {
    let mut rng = StdRng::seed_from_u64(seed);
    let unit = random_seq(37, &mut rng);
    let left = random_seq(900, &mut rng);
    let right = random_seq(900, &mut rng);
    let codes: Vec<u8> = left
        .as_slice()
        .iter()
        .chain((0..8).flat_map(|_| unit.as_slice().iter()))
        .chain(right.as_slice())
        .copied()
        .collect();
    let genome = Seq::from_codes(codes, logan::seq::Alphabet::Dna);
    let n = genome.len();
    let mut reads = vec![
        genome.subseq(0, 700),
        genome.subseq(500, 1300),
        genome.subseq(850, 1250), // mostly the tandem repeat
        genome.subseq(1000, n),
        genome.subseq(300, 1100).reverse_complement(),
        genome.subseq(1200, n - 100).reverse_complement(),
        random_seq(400, &mut rng), // shares nothing
        genome.subseq(40, 50),     // shorter than k
        Seq::from_codes(Vec::new(), logan::seq::Alphabet::Dna),
    ];
    reads.push(reads[1].clone()); // duplicates, forward and reverse
    reads.push(reads[1].clone());
    reads.push(reads[4].clone());
    reads.push(genome.subseq(600, 620)); // shorter than a window
    reads
}

/// The flat index chains exactly like the hash-of-`Vec`s oracle across
/// dense and typical windows and windows longer than every read, with
/// every code reliable and with singletons dropped.
#[test]
fn flat_chaining_matches_the_hash_oracle() {
    for seed in 0..2 {
        let reads = adversarial_reads(seed);
        let mut candidates = 0;
        for (w, k) in [(3, 15), (8, 17), (20_000, 15), (usize::MAX, 17)] {
            for min_count in [1, 2] {
                candidates += check_against_oracle(&reads, w, k, min_count);
            }
        }
        assert!(
            candidates > 100,
            "seed {seed}: only {candidates} candidates"
        );
    }
    // The properties the set is built to have, checked once.
    let reads = adversarial_reads(0);
    let reliable: FxHashSet<u64> = count_kmers(&reads, 15)
        .iter()
        .filter(|&(_, &n)| n >= 2)
        .map(|(&code, _)| code)
        .collect();
    let mut index = MinimizerIndex::new(5, 15);
    index.push_batch(&reads, &reliable);
    assert!(
        index.sketch(6).is_empty(),
        "the unrelated read keeps no minimizer"
    );
    assert!(index.sketch(7).is_empty() && index.sketch(8).is_empty());
    let codes: Vec<u64> = index.sketch(2).iter().map(|m| m.code).collect();
    let distinct: BTreeSet<u64> = codes.iter().copied().collect();
    assert!(
        distinct.len() < codes.len(),
        "a code repeats within the tandem read"
    );
    let cands = chain_candidates(&index, ChainConfig::default());
    let pair = |a, b| cands.iter().find(|c| (c.r1, c.r2) == (a, b));
    assert!(
        pair(1, 9).is_some_and(|c| c.est == 800),
        "duplicates pair whole"
    );
    assert!(pair(0, 4).is_some(), "a reverse complement pairs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same on random read sets drawn from one small genome, with
    /// reverse complements and duplicates mixed in, at any window.
    #[test]
    fn flat_chaining_matches_the_hash_oracle_on_random_sets(
        seed in 0u64..10_000,
        w in 1usize..24,
        n_reads in 1usize..14,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let genome = random_seq(1_500, &mut rng);
        let reads: Vec<Seq> = (0..n_reads)
            .map(|r| {
                let start = (seed as usize * 31 + r * 97) % 1_200;
                let read = genome.subseq(start, (start + 150 + r * 23).min(1_500));
                match r % 4 {
                    1 => read.reverse_complement(),
                    _ => read,
                }
            })
            .collect();
        check_against_oracle(&reads, w, 13, 1);
        check_against_oracle(&reads, w, 13, 2);
    }
}

/// The seeder's acceptance bar on a 2.5–4.5 kb, 10 %-error read set at
/// depth 10 and the default 2 kb overlap floor: at (w = 8, k = 17) the
/// minimizer path reaches ≥ 95 % of the SpGEMM path's recall while
/// aligning ≤ 50 % of its candidate pairs.
#[test]
fn minimizer_recall_at_half_the_candidates() {
    let sim = ReadSimulator {
        read_len: (2_500, 4_500),
        errors: ErrorProfile::pacbio(0.10),
        ..ReadSimulator::uniform(40_000, 10.0)
    };
    let rs = sim.generate(42);
    let min_overlap = 2000;
    let backend = cpu(50);
    let run = |seeder| {
        let cfg = BellaConfig {
            k: 17,
            min_overlap,
            seeder,
            minimizer_w: 8,
            ..BellaConfig::with_x(50)
        };
        let (out, metrics) = BellaPipeline::new(cfg).run_on_readset(&rs, &backend, min_overlap);
        (out.stats.candidates, metrics.recall)
    };
    let (sp_cands, sp_recall) = run(Seeder::SpGemm);
    let (mn_cands, mn_recall) = run(Seeder::Minimizer);
    let candidate_ratio = mn_cands as f64 / sp_cands.max(1) as f64;
    let recall_ratio = mn_recall / sp_recall;
    eprintln!(
        "minimizer: {mn_cands} candidates at recall {mn_recall:.3}; spgemm: {sp_cands} at \
         {sp_recall:.3} ({:.1} % of the candidates at {:.1} % of the recall)",
        100.0 * candidate_ratio,
        100.0 * recall_ratio
    );
    assert!(sp_recall > 0.5, "the SpGEMM baseline finds the overlaps");
    assert!(
        recall_ratio >= 0.95,
        "minimizer recall ratio {recall_ratio:.3} < 0.95 of SpGEMM"
    );
    assert!(
        candidate_ratio <= 0.50,
        "minimizer candidate ratio {candidate_ratio:.3} > 0.50 of SpGEMM"
    );
}
