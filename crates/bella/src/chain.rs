//! Minimizer seeding + colinear chaining — the minimap2-style
//! alternative to the SpGEMM candidate generator.
//!
//! Where the SpGEMM pairs reads sharing *any* reliable k-mer and picks
//! one witness by binning, this stage sketches each read down to its
//! (w,k) minimizers ([`logan_seq::minimizer`]), collects the shared
//! minimizers of a read pair as *anchors*, and chains colinear anchors
//! with a gap-cost DP. Only pairs whose best chain supports an overlap
//! of at least the pipeline's `min_overlap` floor are admitted to the
//! X-drop extender — fewer, better seeds for the same kernel.
//!
//! Sketches are post-filtered by the reliable k-mer set, so every
//! minimizer hit is also a shared reliable k-mer: the candidate set of
//! this path is a *subset* of the SpGEMM path's by construction (pinned
//! by `tests/minimizer_equivalence.rs`).

use crate::binning::overlap_estimate;
use crate::fxhash::FxHashSet;
use crate::kmer_count::{partition_of, PARTITIONS};
use logan_seq::minimizer::{Minimizer, Sketcher};
use logan_seq::{Seed, Seq};

/// A shared minimizer between two reads: its position in each, plus
/// whether the two occurrences came from the same strand (`fwd`) or
/// opposite strands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// Position in the first (query) read.
    pub qpos: u32,
    /// Position in the second (target) read.
    pub tpos: u32,
    /// Same-strand match (both canonical selections agree).
    pub fwd: bool,
}

/// Chaining knobs (minimap2's `-g`/`--max-chain-skip` family, reduced
/// to what the DP here needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Maximum diagonal drift `|dq - dt|` between chained anchors —
    /// bounds how much indel the chain may absorb between anchors.
    pub max_gap: usize,
    /// Maximum distance (on either read) between chained anchors.
    pub max_dist: usize,
}

impl Default for ChainConfig {
    fn default() -> ChainConfig {
        ChainConfig {
            max_gap: 500,
            max_dist: 5000,
        }
    }
}

/// The best colinear chain of one read pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// Chained anchors in ascending query position.
    pub anchors: Vec<Anchor>,
    /// DP score (matched bases minus gap costs).
    pub score: f64,
    /// Strand class of the chain: `true` = same-strand anchors.
    pub fwd: bool,
}

/// Concave gap cost between consecutive anchors, minimap2-style:
/// linear in the diagonal drift plus a log term that lets one long gap
/// beat many small ones.
fn gap_cost(g: usize, k: usize) -> f64 {
    if g == 0 {
        0.0
    } else {
        0.01 * k as f64 * g as f64 + 0.5 * (g as f64).log2()
    }
}

/// Chain one strand class (anchors already sorted ascending by
/// `(qpos, tpos)`). `rev` flips the target-side colinearity test:
/// same-strand chains need `tpos` increasing with `qpos`,
/// opposite-strand chains need it decreasing.
fn chain_class(anchors: &[Anchor], k: usize, cfg: &ChainConfig, rev: bool) -> Option<Chain> {
    if anchors.is_empty() {
        return None;
    }
    let n = anchors.len();
    let mut f: Vec<f64> = vec![k as f64; n];
    let mut parent: Vec<usize> = (0..n).collect();
    for i in 1..n {
        let a = anchors[i];
        for j in 0..i {
            let b = anchors[j];
            if b.qpos >= a.qpos {
                continue;
            }
            let dq = (a.qpos - b.qpos) as usize;
            let dt = if rev {
                if b.tpos <= a.tpos {
                    continue;
                }
                (b.tpos - a.tpos) as usize
            } else {
                if b.tpos >= a.tpos {
                    continue;
                }
                (a.tpos - b.tpos) as usize
            };
            if dq.max(dt) > cfg.max_dist {
                continue;
            }
            let g = dq.abs_diff(dt);
            if g > cfg.max_gap {
                continue;
            }
            let gain = dq.min(dt).min(k) as f64 - gap_cost(g, k);
            let cand = f[j] + gain;
            // Strict `>`: the earliest predecessor in sort order wins
            // ties, keeping chains deterministic.
            if cand > f[i] {
                f[i] = cand;
                parent[i] = j;
            }
        }
    }
    // Best chain end; strict `>` again breaks ties to the earliest.
    let mut best = 0usize;
    for i in 1..n {
        if f[i] > f[best] {
            best = i;
        }
    }
    let mut chain_rev = vec![best];
    while parent[*chain_rev.last().unwrap()] != *chain_rev.last().unwrap() {
        chain_rev.push(parent[*chain_rev.last().unwrap()]);
    }
    chain_rev.reverse();
    Some(Chain {
        anchors: chain_rev.into_iter().map(|i| anchors[i]).collect(),
        score: f[best],
        fwd: !rev,
    })
}

/// Find the best colinear chain over a pair's anchors, considering the
/// same-strand and opposite-strand classes separately (an overlap is
/// one or the other; mixing strands in one chain is geometric
/// nonsense). Returns `None` only for an empty anchor list; a single
/// anchor yields a single-anchor chain of score `k`. Ties between the
/// two classes go to the same-strand chain.
///
/// Equal anchors are interchangeable, so the chain depends only on the
/// multiset of `anchors`, not on their order.
pub fn chain_anchors(anchors: &[Anchor], k: usize, cfg: &ChainConfig) -> Option<Chain> {
    let mut sorted = anchors.to_vec();
    sorted.sort_unstable_by_key(class_order);
    let same = sorted.partition_point(|a| a.fwd);
    best_chain(&sorted[..same], &sorted[same..], k, cfg)
}

/// The order [`best_chain`] takes a pair's anchors in: same-strand
/// first, each class ascending by `qpos`, then by `tpos` ascending
/// (same strand) or descending (opposite strand).
fn class_order(a: &Anchor) -> (bool, u32, u32) {
    let t = if a.fwd { a.tpos } else { !a.tpos };
    (!a.fwd, a.qpos, t)
}

/// [`chain_anchors`] over anchors already split into the two strand
/// classes, each in [`class_order`].
fn best_chain(fwd: &[Anchor], rev: &[Anchor], k: usize, cfg: &ChainConfig) -> Option<Chain> {
    let cf = chain_class(fwd, k, cfg, false);
    let cr = chain_class(rev, k, cfg, true);
    match (cf, cr) {
        (Some(a), Some(b)) => Some(if b.score > a.score { b } else { a }),
        (a, b) => a.or(b),
    }
}

/// Choose the extension seed from a chain: the anchor implying the
/// longest overlap, mirroring [`crate::binning::choose_seed`] exactly —
/// strict `>` ties to the earliest anchor in chain order, degenerate
/// anchors estimate 0, and an all-degenerate chain falls back to the
/// first anchor clamped in-bounds (the extender aligns every admitted
/// pair, so the seed must satisfy `qpos + len <= len1 && tpos + len <=
/// len2` no matter what).
pub fn choose_chain_seed(len1: usize, len2: usize, chain: &Chain, k: usize) -> (Seed, usize) {
    assert!(!chain.anchors.is_empty(), "chain without anchors");
    let mut best = (0usize, 0usize); // (anchor index, estimate)
    for (i, a) in chain.anchors.iter().enumerate() {
        let est = overlap_estimate(len1, len2, a.qpos as usize, a.tpos as usize, k);
        if est > best.1 {
            best = (i, est);
        }
    }
    let a = chain.anchors[best.0];
    let (mut qpos, mut tpos, mut len) = (a.qpos as usize, a.tpos as usize, k);
    if best.1 == 0 {
        len = k.min(len1).min(len2);
        qpos = qpos.min(len1 - len);
        tpos = tpos.min(len2 - len);
    }
    (Seed { qpos, tpos, len }, best.1)
}

/// The reads × minimizers index: every read's reliable-filtered (w,k)
/// sketch, laid end to end in one array. The minimizer-path analogue of
/// [`crate::matrix::KmerMatrix`], built incrementally batch by batch
/// (sketching is per-read, so any batching produces the same index as
/// one shot). It retains 16 bytes a minimizer and 8 a read.
#[derive(Debug, Clone)]
pub struct MinimizerIndex {
    /// Window size.
    pub w: usize,
    /// K-mer length.
    pub k: usize,
    /// Every read's retained minimizers, read after read, each read's in
    /// ascending position.
    mins: Vec<Minimizer>,
    /// Read `i`'s sketch is `mins[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    read_lens: Vec<u32>,
}

impl MinimizerIndex {
    /// Start an empty index with the given sketch parameters.
    pub fn new(w: usize, k: usize) -> MinimizerIndex {
        MinimizerIndex {
            w: w.max(1),
            k,
            mins: Vec::new(),
            starts: vec![0],
            read_lens: Vec::new(),
        }
    }

    /// Sketch and append `reads`. Minimizers whose canonical code is not
    /// in `reliable` are dropped — the same pruning the SpGEMM path
    /// applies, and what makes this path's candidates a subset of its.
    pub fn push_batch(&mut self, reads: &[Seq], reliable: &FxHashSet<u64>) {
        let mut sketcher = Sketcher::new(self.w, self.k);
        self.starts.reserve_exact(reads.len());
        self.read_lens.reserve_exact(reads.len());
        for read in reads {
            sketcher.sketch(read, |m| {
                if reliable.contains(&m.code) {
                    self.mins.push(m);
                }
            });
            self.starts
                .push(u32::try_from(self.mins.len()).expect("index holds under 2^32 minimizers"));
            self.read_lens
                .push(u32::try_from(read.len()).expect("read shorter than 4 GiB"));
        }
        // The sketches grew by doubling: hand the slack back, so what
        // the index retains between batches is its data.
        self.mins.shrink_to_fit();
    }

    /// Reads indexed so far.
    pub fn n_reads(&self) -> usize {
        self.read_lens.len()
    }

    /// Total retained minimizers (the index's analogue of matrix nnz).
    pub fn nnz(&self) -> usize {
        self.mins.len()
    }

    /// Length of read `i`.
    pub fn read_len(&self, i: usize) -> usize {
        self.read_lens[i] as usize
    }

    /// The sketch of read `i`.
    pub fn sketch(&self, i: usize) -> &[Minimizer] {
        &self.mins[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// One occurrence of a minimizer: which read, where in it, and which
/// strand its canonical form came from.
#[derive(Debug, Clone, Copy)]
struct Posting {
    read: u32,
    pos: u32,
    fwd: bool,
}

/// Column-major postings of a [`MinimizerIndex`] as flat arrays: the
/// distinct codes in `(partition, code)` order — the k-mer counter's
/// order ([`partition_of`]) — and each code's occurrences in read order,
/// then sketch order within a read.
struct Postings {
    /// Partition `p`'s codes are `codes[parts[p]..parts[p + 1]]`.
    parts: Vec<u32>,
    codes: Vec<u64>,
    /// Code `codes[c]` occurs at `entries[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    entries: Vec<Posting>,
}

impl Postings {
    /// A place numbers a minimizer of the index, in read order, then
    /// sketch order. The places are bucketed by their code's partition
    /// (a counting sort), then each bucket is sorted by `(code, place)`
    /// through a bucket-sized scratch of codes: beside the postings,
    /// nothing holds more than the places and one bucket's keys.
    fn build(index: &MinimizerIndex) -> Postings {
        let mins = &index.mins;
        let mut parts = vec![0u32; PARTITIONS + 1];
        for m in mins {
            parts[partition_of(m.code) + 1] += 1;
        }
        for p in 0..PARTITIONS {
            parts[p + 1] += parts[p];
        }
        let mut cursor = parts.clone();
        let mut places = vec![0u32; mins.len()];
        for (g, m) in mins.iter().enumerate() {
            let at = &mut cursor[partition_of(m.code)];
            places[*at as usize] = g as u32;
            *at += 1;
        }

        let mut codes: Vec<u64> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut entries: Vec<Posting> = Vec::with_capacity(mins.len());
        let mut bucket: Vec<(u64, u32)> = Vec::new();
        for p in 0..PARTITIONS {
            let span = parts[p] as usize..parts[p + 1] as usize;
            // From here on `parts` numbers codes, not places.
            parts[p] = codes.len() as u32;
            bucket.clear();
            bucket.extend(places[span].iter().map(|&g| (mins[g as usize].code, g)));
            bucket.sort_unstable();
            for &(code, g) in &bucket {
                if codes.last() != Some(&code) {
                    codes.push(code);
                    offsets.push(entries.len() as u32);
                }
                // The last read whose sketch starts at or before `g`
                // holds it (reads with empty sketches start where the
                // next one does).
                let read = index.starts.partition_point(|&s| s <= g) - 1;
                let m = mins[g as usize];
                entries.push(Posting {
                    read: read as u32,
                    pos: m.pos,
                    fwd: m.fwd,
                });
            }
        }
        parts[PARTITIONS] = codes.len() as u32;
        offsets.push(entries.len() as u32);
        codes.shrink_to_fit();
        offsets.shrink_to_fit();
        Postings {
            parts,
            codes,
            offsets,
            entries,
        }
    }

    /// The occurrences of `code`, in read order (empty if it has none).
    fn of(&self, code: u64) -> &[Posting] {
        let p = partition_of(code);
        let lo = self.parts[p] as usize;
        match self.codes[lo..self.parts[p + 1] as usize].binary_search(&code) {
            Ok(c) => {
                &self.entries[self.offsets[lo + c] as usize..self.offsets[lo + c + 1] as usize]
            }
            Err(_) => &[],
        }
    }
}

/// One admitted-for-alignment candidate of the minimizer path.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainedCandidate {
    /// Lower read id.
    pub r1: u32,
    /// Higher read id.
    pub r2: u32,
    /// Extension seed chosen from the best chain.
    pub seed: Seed,
    /// Overlap estimate of the seeding anchor.
    pub est: usize,
    /// Anchors in the best chain.
    pub anchors: u32,
    /// Chain DP score.
    pub score: f64,
}

/// Tiled candidate generation over the minimizer index — the chaining
/// mirror of [`crate::spgemm::spgemm_tiles`]. Tile `t` holds every
/// candidate whose lower read id falls in `[t·tile_rows,
/// (t+1)·tile_rows)`, sorted by `(r1, r2)`, so the concatenation of all
/// tiles equals [`chain_candidates`] exactly and the streaming pipeline
/// can feed blocks through the same producer/consumer machinery.
pub fn chain_tiles<'a>(
    index: &'a MinimizerIndex,
    tile_rows: usize,
    cfg: ChainConfig,
) -> ChainTiles<'a> {
    ChainTiles {
        postings: Postings::build(index),
        index,
        cfg,
        next_row: 0,
        tile_rows: tile_rows.max(1),
        gathered: Vec::new(),
        pair: Vec::new(),
    }
}

/// Monolithic form: all candidates at once, sorted by `(r1, r2)`.
pub fn chain_candidates(index: &MinimizerIndex, cfg: ChainConfig) -> Vec<ChainedCandidate> {
    chain_tiles(index, index.n_reads().max(1), cfg)
        .flatten()
        .collect()
}

/// Iterator of chained-candidate tiles; see [`chain_tiles`].
pub struct ChainTiles<'a> {
    postings: Postings,
    index: &'a MinimizerIndex,
    cfg: ChainConfig,
    next_row: usize,
    tile_rows: usize,
    /// One row's anchors with their partner read, reused row to row.
    gathered: Vec<(u32, Anchor)>,
    /// One pair's anchors, reused pair to pair.
    pair: Vec<Anchor>,
}

impl ChainTiles<'_> {
    /// Candidates of anchor row `i`: every read `j > i` sharing a
    /// retained minimizer, chained and seeded.
    fn row_candidates(&mut self, i: usize, out: &mut Vec<ChainedCandidate>) {
        let gathered = &mut self.gathered;
        gathered.clear();
        for m in self.index.sketch(i) {
            let entries = self.postings.of(m.code);
            // Entries are in read order: the partners are a suffix.
            let later = entries.partition_point(|e| e.read as usize <= i);
            gathered.extend(entries[later..].iter().map(|e| {
                let anchor = Anchor {
                    qpos: m.pos,
                    tpos: e.pos,
                    fwd: m.fwd == e.fwd,
                };
                (e.read, anchor)
            }));
        }
        // By partner, then in the order `best_chain` takes: each pair's
        // anchors are then one run, already split and sorted.
        gathered.sort_unstable_by_key(|(j, a)| (*j, class_order(a)));
        for run in gathered.chunk_by(|a, b| a.0 == b.0) {
            let j = run[0].0;
            self.pair.clear();
            self.pair.extend(run.iter().map(|&(_, a)| a));
            let same = self.pair.partition_point(|a| a.fwd);
            let (fwd, rev) = self.pair.split_at(same);
            let chain = best_chain(fwd, rev, self.index.k, &self.cfg)
                .expect("a partner has at least one anchor");
            let (seed, est) = choose_chain_seed(
                self.index.read_len(i),
                self.index.read_len(j as usize),
                &chain,
                self.index.k,
            );
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
}

impl Iterator for ChainTiles<'_> {
    /// One tile's candidates, sorted by `(r1, r2)`; may be empty.
    type Item = Vec<ChainedCandidate>;

    fn next(&mut self) -> Option<Vec<ChainedCandidate>> {
        if self.next_row >= self.index.n_reads() {
            return None;
        }
        let lo = self.next_row;
        let hi = (lo + self.tile_rows).min(self.index.n_reads());
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

    fn fwd_anchor(qpos: u32, tpos: u32) -> Anchor {
        Anchor {
            qpos,
            tpos,
            fwd: true,
        }
    }

    fn rev_anchor(qpos: u32, tpos: u32) -> Anchor {
        Anchor {
            qpos,
            tpos,
            fwd: false,
        }
    }

    const K: usize = 17;

    #[test]
    fn empty_anchor_list_has_no_chain() {
        assert!(chain_anchors(&[], K, &ChainConfig::default()).is_none());
    }

    #[test]
    fn single_anchor_chain_scores_k() {
        let chain = chain_anchors(&[fwd_anchor(10, 30)], K, &ChainConfig::default()).unwrap();
        assert_eq!(chain.anchors, vec![fwd_anchor(10, 30)]);
        assert_eq!(chain.score, K as f64);
        assert!(chain.fwd);
    }

    #[test]
    fn colinear_anchors_chain_together() {
        // Three anchors on a clean diagonal: all chain, score grows by
        // ~min(dq, dt, k) per link with zero gap cost.
        let anchors = [
            fwd_anchor(0, 100),
            fwd_anchor(50, 150),
            fwd_anchor(100, 200),
        ];
        let chain = chain_anchors(&anchors, K, &ChainConfig::default()).unwrap();
        assert_eq!(chain.anchors.len(), 3);
        assert_eq!(chain.score, (K + K + K) as f64);
    }

    #[test]
    fn off_diagonal_anchor_excluded() {
        // A repeat-induced anchor far off the diagonal must not join
        // the chain (its drift exceeds max_gap).
        let anchors = [
            fwd_anchor(0, 100),
            fwd_anchor(50, 150),
            fwd_anchor(60, 3000), // drift 2840 ≫ max_gap
            fwd_anchor(100, 200),
        ];
        let chain = chain_anchors(&anchors, K, &ChainConfig::default()).unwrap();
        assert_eq!(chain.anchors.len(), 3);
        assert!(chain.anchors.iter().all(|a| a.tpos != 3000));
    }

    #[test]
    fn distant_anchors_not_chained() {
        let cfg = ChainConfig {
            max_gap: 500,
            max_dist: 1000,
        };
        // Two diagonal anchors 5 kb apart: beyond max_dist, so the best
        // chain is a single anchor.
        let anchors = [fwd_anchor(0, 0), fwd_anchor(5000, 5000)];
        let chain = chain_anchors(&anchors, K, &cfg).unwrap();
        assert_eq!(chain.anchors.len(), 1);
    }

    #[test]
    fn reverse_strand_anchors_chain_antidiagonally() {
        // Opposite-strand anchors: query ascending, target descending.
        let anchors = [
            rev_anchor(0, 300),
            rev_anchor(50, 250),
            rev_anchor(100, 200),
        ];
        let chain = chain_anchors(&anchors, K, &ChainConfig::default()).unwrap();
        assert!(!chain.fwd);
        assert_eq!(chain.anchors.len(), 3);
        // Ascending qpos, descending tpos through the chain.
        for w in chain.anchors.windows(2) {
            assert!(w[0].qpos < w[1].qpos && w[0].tpos > w[1].tpos);
        }
    }

    #[test]
    fn strand_classes_do_not_mix() {
        // A mixed bag: 3 colinear forward anchors beat 2 reverse ones.
        let anchors = [
            fwd_anchor(0, 100),
            rev_anchor(10, 400),
            fwd_anchor(50, 150),
            rev_anchor(60, 350),
            fwd_anchor(100, 200),
        ];
        let chain = chain_anchors(&anchors, K, &ChainConfig::default()).unwrap();
        assert!(chain.fwd);
        assert_eq!(chain.anchors.len(), 3);
        assert!(chain.anchors.iter().all(|a| a.fwd));
    }

    #[test]
    fn gap_cost_prefers_tight_diagonal() {
        // Two competing second anchors: same spacing, one drifts 400
        // off-diagonal (allowed but penalized), one stays tight. The
        // chain through the tight anchor must win.
        let tight = [fwd_anchor(0, 0), fwd_anchor(100, 100)];
        let drifty = [fwd_anchor(0, 0), fwd_anchor(100, 500)];
        let cfg = ChainConfig::default();
        let t = chain_anchors(&tight, K, &cfg).unwrap();
        let d = chain_anchors(&drifty, K, &cfg).unwrap();
        assert!(t.score > d.score);
    }

    #[test]
    fn contained_read_chains_within_container() {
        // Query (500 bp, conceptually) fully contained in a long
        // target: anchors span the whole query at a constant offset.
        let anchors: Vec<Anchor> = (0..5)
            .map(|i| fwd_anchor(i * 100, 2000 + i * 100))
            .collect();
        let chain = chain_anchors(&anchors, K, &ChainConfig::default()).unwrap();
        assert_eq!(chain.anchors.len(), 5);
        let (seed, est) = choose_chain_seed(500, 10_000, &chain, K);
        // Containment: the estimate is bounded by the contained read.
        assert_eq!(est, 500);
        assert!(seed.qpos + seed.len <= 500 && seed.tpos + seed.len <= 10_000);
    }

    #[test]
    fn seed_choice_mirrors_binning_semantics() {
        // The anchor implying the longest overlap wins; ties go to the
        // earliest anchor in chain order.
        let chain = Chain {
            anchors: vec![fwd_anchor(40, 40), fwd_anchor(60, 60)],
            score: 2.0 * K as f64,
            fwd: true,
        };
        let (seed, est) = choose_chain_seed(100, 100, &chain, 10);
        assert_eq!((seed.qpos, seed.tpos), (40, 40));
        assert_eq!(est, 100);
    }

    #[test]
    fn single_anchor_seed_is_clamped_in_bounds() {
        // A degenerate single anchor (k-mer window does not fit) must
        // still produce an in-bounds seed with estimate 0, exactly like
        // choose_seed's all-degenerate fallback.
        let chain = Chain {
            anchors: vec![fwd_anchor(98, 99)],
            score: 10.0,
            fwd: true,
        };
        let (seed, est) = choose_chain_seed(100, 100, &chain, 10);
        assert_eq!(est, 0);
        assert_eq!(seed.len, 10);
        assert!(seed.qpos + seed.len <= 100 && seed.tpos + seed.len <= 100);
        // Reads shorter than k shrink the seed instead of overflowing.
        let chain = Chain {
            anchors: vec![fwd_anchor(7, 2)],
            score: 10.0,
            fwd: true,
        };
        let (seed, est) = choose_chain_seed(6, 4, &chain, 10);
        assert_eq!(est, 0);
        assert_eq!(seed.len, 4);
        assert!(seed.qpos + seed.len <= 6 && seed.tpos + seed.len <= 4);
    }

    #[test]
    fn equal_scores_go_to_the_first_anchor_of_its_class_order() {
        // Anchors at one query position never chain to each other, so
        // each is a chain of score k and the first in the class's order
        // wins: ascending tpos on the same strand, descending on the
        // opposite one, whatever order the anchors come in.
        let cfg = ChainConfig::default();
        for anchors in [
            [fwd_anchor(10, 290), fwd_anchor(10, 100)],
            [fwd_anchor(10, 100), fwd_anchor(10, 290)],
        ] {
            let chain = chain_anchors(&anchors, K, &cfg).unwrap();
            assert_eq!(chain.anchors, vec![fwd_anchor(10, 100)]);
        }
        for anchors in [
            [rev_anchor(10, 100), rev_anchor(10, 290)],
            [rev_anchor(10, 290), rev_anchor(10, 100)],
        ] {
            let chain = chain_anchors(&anchors, K, &cfg).unwrap();
            assert_eq!(chain.anchors, vec![rev_anchor(10, 290)]);
        }
    }

    #[test]
    fn chain_determinism() {
        let anchors = [
            fwd_anchor(0, 100),
            fwd_anchor(50, 150),
            fwd_anchor(50, 150),
            fwd_anchor(100, 200),
        ];
        let a = chain_anchors(&anchors, K, &ChainConfig::default()).unwrap();
        let b = chain_anchors(&anchors, K, &ChainConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    fn index_of(reads: &[Seq], w: usize, k: usize) -> MinimizerIndex {
        // All canonical k-mers reliable: isolates the sketch/chain logic.
        let reliable: FxHashSet<u64> = crate::kmer_count::count_kmers(reads, k)
            .keys()
            .copied()
            .collect();
        let mut index = MinimizerIndex::new(w, k);
        index.push_batch(reads, &reliable);
        index
    }

    #[test]
    fn overlapping_reads_become_chained_candidates() {
        use logan_seq::readsim::random_seq;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let genome = random_seq(400, &mut rng);
        let r1 = genome.subseq(0, 250);
        let r2 = genome.subseq(100, 400);
        let r3 = {
            let mut rng = StdRng::seed_from_u64(99);
            random_seq(250, &mut rng)
        };
        let index = index_of(&[r1, r2, r3], 5, 11);
        let cands = chain_candidates(&index, ChainConfig::default());
        assert_eq!(cands.len(), 1, "only the true overlap pairs: {cands:?}");
        let c = &cands[0];
        assert_eq!((c.r1, c.r2), (0, 1));
        assert!(c.anchors >= 2, "150 bp of exact overlap chains >1 anchor");
        // The seed's implied offset matches the true 100 bp stagger.
        assert_eq!(c.seed.qpos as i64 - c.seed.tpos as i64, 100);
        assert!(c.est >= 140, "estimate ~150 bp, got {}", c.est);
        assert!(c.seed.qpos + c.seed.len <= 250);
        assert!(c.seed.tpos + c.seed.len <= 300);
    }

    #[test]
    fn tiles_concatenate_to_the_monolithic_candidates() {
        use logan_seq::readsim::ReadSimulator;
        let sim = ReadSimulator {
            read_len: (300, 600),
            errors: logan_seq::ErrorProfile::pacbio(0.08),
            ..ReadSimulator::uniform(5_000, 6.0)
        };
        let rs = sim.generate(8);
        let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let index = index_of(&seqs, 8, 13);
        let whole = chain_candidates(&index, ChainConfig::default());
        assert!(!whole.is_empty(), "depth-6 set must produce candidates");
        for w in whole.windows(2) {
            assert!((w[0].r1, w[0].r2) < (w[1].r1, w[1].r2));
        }
        for tile_rows in [1, 2, 7, 64, 10_000] {
            let tiled: Vec<ChainedCandidate> =
                chain_tiles(&index, tile_rows, ChainConfig::default())
                    .flatten()
                    .collect();
            assert_eq!(tiled, whole, "tile_rows={tile_rows}");
        }
        assert_eq!(chain_tiles(&index, 7, ChainConfig::default()).count(), {
            index.n_reads().div_ceil(7)
        });
        // tile_rows = 0 clamps to 1 instead of never advancing.
        assert_eq!(
            chain_tiles(&index, 0, ChainConfig::default()).count(),
            index.n_reads()
        );
    }

    #[test]
    fn incremental_index_matches_one_shot() {
        use logan_seq::readsim::ReadSimulator;
        let sim = ReadSimulator {
            read_len: (200, 500),
            errors: logan_seq::ErrorProfile::pacbio(0.08),
            ..ReadSimulator::uniform(8_000, 5.0)
        };
        let rs = sim.generate(44);
        let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let reliable: FxHashSet<u64> = crate::kmer_count::count_kmers(&seqs, 13)
            .keys()
            .copied()
            .collect();
        let mut whole = MinimizerIndex::new(8, 13);
        whole.push_batch(&seqs, &reliable);
        let want = chain_candidates(&whole, ChainConfig::default());
        for batch in [1, 3, 17, 1000] {
            let mut index = MinimizerIndex::new(8, 13);
            for chunk in seqs.chunks(batch) {
                index.push_batch(chunk, &reliable);
            }
            assert_eq!(index.n_reads(), seqs.len());
            assert_eq!(index.nnz(), whole.nnz(), "batch={batch}");
            assert_eq!(
                chain_candidates(&index, ChainConfig::default()),
                want,
                "batch={batch}"
            );
        }
    }

    #[test]
    fn no_self_pairs_and_empty_index() {
        let index = MinimizerIndex::new(8, 13);
        assert!(chain_candidates(&index, ChainConfig::default()).is_empty());
        // A self-repetitive read must not pair with itself.
        let r = Seq::from_str_strict("ACGTACGTACGTACGTACGT").unwrap();
        let index = index_of(&[r], 2, 8);
        assert!(chain_candidates(&index, ChainConfig::default()).is_empty());
    }
}
