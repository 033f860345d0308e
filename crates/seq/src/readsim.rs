//! Synthetic genomes, long reads, and the paper's benchmark data sets.
//!
//! The LOGAN evaluation uses three workloads, none of which ship with the
//! paper:
//!
//! 1. **100 K read pairs**, lengths 2.5–7.5 kb, ≈15 % divergence within a
//!    pair, with seed locations supplied by BELLA (Tables II/III,
//!    Figs. 8/9/12/13) — here [`PairSet::generate`];
//! 2. a **real E. coli** read set (1.8 M alignments, Table IV / Fig. 10);
//! 3. a **synthetic C. elegans** read set (235 M alignments, Table V /
//!    Fig. 11).
//!
//! We substitute synthetic equivalents with matching statistics
//! (documented in `DESIGN.md` §2): genomes are uniform random DNA —
//! optionally with planted repeat families for the C. elegans-like case,
//! since repeats are what stress BELLA's k-mer pruning — and reads are
//! sampled at a target depth with a PacBio-like error profile. Ground
//! truth (who truly overlaps whom) is retained so `logan-bella` can score
//! precision/recall.

use crate::alphabet::Base;
use crate::error::{ErrorModel, ErrorProfile};
use crate::seq::Seq;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An exact-match seed shared by the two sequences of a pair: LOGAN
/// extends left and right from such a seed (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed {
    /// Start of the seed in the first (query) sequence.
    pub qpos: usize,
    /// Start of the seed in the second (target) sequence.
    pub tpos: usize,
    /// Seed length (BELLA uses k = 17).
    pub len: usize,
}

/// A pair of reads plus the seed from which extension starts.
#[derive(Debug, Clone)]
pub struct ReadPair {
    /// First read of the pair ("query").
    pub query: Seq,
    /// Second read of the pair ("target").
    pub target: Seq,
    /// The shared exact seed.
    pub seed: Seed,
    /// Length of the clean template both reads were derived from; the
    /// best possible alignment spans roughly this many bases.
    pub template_len: usize,
}

/// A bounded chunk of reads flowing through a streaming pipeline.
///
/// Read ids are implicit in stream order: the batch covers ids
/// `start_id .. start_id + seqs.len()`, and a well-formed stream's
/// batches are contiguous (`next.start_id == prev.start_id +
/// prev.seqs.len()`). Sources that own richer records (FASTA names,
/// ground truth) keep them on the side, keyed by the same ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadBatch {
    /// Id of the first read in the batch.
    pub start_id: usize,
    /// The reads, in stream order.
    pub seqs: Vec<Seq>,
}

/// Chunk a resident slice of reads into bounded [`ReadBatch`]es — the
/// adapter that lets in-memory read sets drive the streaming pipeline
/// (and lets tests diff streaming against monolithic runs on identical
/// input).
pub fn seq_batches(seqs: &[Seq], batch_reads: usize) -> impl Iterator<Item = ReadBatch> + '_ {
    let batch_reads = batch_reads.max(1);
    seqs.chunks(batch_reads)
        .enumerate()
        .map(move |(i, chunk)| ReadBatch {
            start_id: i * batch_reads,
            seqs: chunk.to_vec(),
        })
}

/// A benchmark set of read pairs (the 100 K-alignment workload).
#[derive(Debug, Clone)]
pub struct PairSet {
    /// The pairs.
    pub pairs: Vec<ReadPair>,
    /// Nominal pairwise error rate between the two reads of a pair.
    pub pairwise_error: f64,
}

/// Default seed length (BELLA's k).
pub(crate) const DEFAULT_SEED_LEN: usize = 17;

impl PairSet {
    /// Generate `n` read pairs following the paper's §VI-A recipe:
    /// template lengths uniform in `[2500, 7500]`, pairwise divergence
    /// ≈ `pairwise_error` (default 0.15), one exact seed of length
    /// `DEFAULT_SEED_LEN` planted near the template midpoint.
    ///
    /// Each read is corrupted independently with per-read rate `r` such
    /// that `1 - (1-r)^2 = pairwise_error`, so the *divergence between
    /// the two reads* matches the paper's 15 %.
    pub fn generate(n: usize, pairwise_error: f64, seed: u64) -> PairSet {
        Self::generate_with_lengths(n, pairwise_error, 2500, 7500, seed)
    }

    /// As [`PairSet::generate`] with explicit template length bounds.
    pub fn generate_with_lengths(
        n: usize,
        pairwise_error: f64,
        min_len: usize,
        max_len: usize,
        seed: u64,
    ) -> PairSet {
        assert!(
            min_len >= 2 * DEFAULT_SEED_LEN,
            "templates too short for a seed"
        );
        assert!(min_len <= max_len);
        assert!((0.0..1.0).contains(&pairwise_error));
        let per_read = 1.0 - (1.0 - pairwise_error).sqrt();
        let model = ErrorModel::new(ErrorProfile::pacbio(per_read));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let tlen = rng.gen_range(min_len..=max_len);
            pairs.push(make_pair(tlen, DEFAULT_SEED_LEN, &model, &mut rng));
        }
        PairSet {
            pairs,
            pairwise_error,
        }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Total bases across all sequences (both sides of every pair).
    pub fn total_bases(&self) -> usize {
        self.pairs
            .iter()
            .map(|p| p.query.len() + p.target.len())
            .sum()
    }
}

/// Build one pair from a fresh random template of length `tlen`, planting
/// an exact `k`-mer seed near the middle.
fn make_pair<R: Rng>(tlen: usize, k: usize, model: &ErrorModel, rng: &mut R) -> ReadPair {
    let template = random_seq(tlen, rng);
    // Seed near the midpoint, as BELLA's binning tends to select central
    // k-mers; jitter by ±10% so seeds are not always perfectly centred.
    let mid = tlen / 2;
    let jitter = (tlen / 10).max(1);
    let lo = mid.saturating_sub(jitter).min(tlen - k);
    let hi = (mid + jitter).min(tlen - k).max(lo);
    let seed_at = rng.gen_range(lo..=hi);

    let (query, qpos) = corrupt_around_seed(&template, seed_at, k, model, rng);
    let (target, tpos) = corrupt_around_seed(&template, seed_at, k, model, rng);
    ReadPair {
        query,
        target,
        seed: Seed { qpos, tpos, len: k },
        template_len: tlen,
    }
}

/// Corrupt everything but the seed window, returning the read and the
/// seed's position inside it.
fn corrupt_around_seed<R: Rng>(
    template: &Seq,
    seed_at: usize,
    k: usize,
    model: &ErrorModel,
    rng: &mut R,
) -> (Seq, usize) {
    let left = template.subseq(0, seed_at);
    let seed = template.subseq(seed_at, seed_at + k);
    let right = template.subseq(seed_at + k, template.len());
    let (mut read, _) = model.corrupt(&left, rng);
    let seed_pos = read.len();
    read.extend_from(&seed);
    let (right_read, _) = model.corrupt(&right, rng);
    read.extend_from(&right_read);
    (read, seed_pos)
}

/// Uniform random DNA of length `n`.
pub fn random_seq<R: Rng>(n: usize, rng: &mut R) -> Seq {
    (0..n)
        .map(|_| Base::from_code(rng.gen_range(0..4)))
        .collect()
}

/// A read sampled from a genome, with its ground-truth origin.
#[derive(Debug, Clone)]
pub struct SimulatedRead {
    /// Read identifier (index in the set).
    pub id: usize,
    /// The (error-laden) read sequence.
    pub seq: Seq,
    /// Genome start of the clean template.
    pub start: usize,
    /// Genome end (exclusive) of the clean template.
    pub end: usize,
    /// Whether the read was sampled from the reverse strand. The BELLA
    /// pipeline in this reproduction works on forward-strand reads
    /// (reverse-complement handling is orthogonal to the alignment-kernel
    /// comparison the paper makes), so simulators default to forward.
    pub reverse: bool,
}

impl SimulatedRead {
    /// Length of overlap between the genomic intervals of two reads.
    pub(crate) fn overlap_with(&self, other: &SimulatedRead) -> usize {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        hi.saturating_sub(lo)
    }
}

/// A simulated read set with its genome and ground truth.
#[derive(Debug, Clone)]
pub struct ReadSet {
    /// The reference the reads were sampled from.
    pub genome: Seq,
    /// The reads.
    pub reads: Vec<SimulatedRead>,
    /// Nominal per-read error rate.
    pub error_rate: f64,
}

impl ReadSet {
    /// Ground-truth overlapping pairs: `(i, j, overlap_len)` for `i < j`
    /// whose templates overlap by at least `min_overlap` bases (BELLA
    /// uses 2 kb as the truth criterion).
    pub fn true_overlaps(&self, min_overlap: usize) -> Vec<(usize, usize, usize)> {
        // Sweep by start coordinate: O(n log n + k).
        let mut order: Vec<usize> = (0..self.reads.len()).collect();
        order.sort_by_key(|&i| self.reads[i].start);
        let mut out = Vec::new();
        for (oi, &i) in order.iter().enumerate() {
            for &j in order[oi + 1..].iter() {
                if self.reads[j].start >= self.reads[i].end {
                    break;
                }
                let ov = self.reads[i].overlap_with(&self.reads[j]);
                if ov >= min_overlap {
                    let (a, b) = if i < j { (i, j) } else { (j, i) };
                    out.push((a, b, ov));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Mean sequencing depth implied by the reads.
    pub fn depth(&self) -> f64 {
        let total: usize = self.reads.iter().map(|r| r.seq.len()).sum();
        total as f64 / self.genome.len() as f64
    }

    /// Stream the read sequences as bounded [`ReadBatch`]es of at most
    /// `batch_reads` reads, in id order — the simulated-data entry point
    /// of the streaming BELLA pipeline.
    pub fn seq_batches(&self, batch_reads: usize) -> impl Iterator<Item = ReadBatch> + '_ {
        let batch_reads = batch_reads.max(1);
        self.reads
            .chunks(batch_reads)
            .enumerate()
            .map(move |(i, chunk)| ReadBatch {
                start_id: i * batch_reads,
                seqs: chunk.iter().map(|r| r.seq.clone()).collect(),
            })
    }
}

/// Generator for [`ReadSet`]s.
#[derive(Debug, Clone)]
pub struct ReadSimulator {
    /// Genome length.
    pub genome_len: usize,
    /// Target sequencing depth (coverage).
    pub depth: f64,
    /// Read length bounds (uniform).
    pub read_len: (usize, usize),
    /// Error profile applied to each read.
    pub errors: ErrorProfile,
    /// Number of repeat families to plant (0 for a uniform genome).
    pub repeat_families: usize,
    /// Length of each planted repeat.
    pub repeat_len: usize,
    /// Copies per repeat family.
    pub repeat_copies: usize,
}

impl ReadSimulator {
    /// A uniform-genome simulator with PacBio-like 15 % errors.
    pub fn uniform(genome_len: usize, depth: f64) -> ReadSimulator {
        ReadSimulator {
            genome_len,
            depth,
            read_len: (2500, 7500),
            errors: ErrorProfile::pacbio(0.15),
            repeat_families: 0,
            repeat_len: 0,
            repeat_copies: 0,
        }
    }

    /// Generate the genome and reads.
    pub fn generate(&self, seed: u64) -> ReadSet {
        assert!(
            self.genome_len > self.read_len.1,
            "genome shorter than reads"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genome = random_seq(self.genome_len, &mut rng);
        // Plant repeat families: copy a template to several random loci.
        for _ in 0..self.repeat_families {
            let tmpl_start = rng.gen_range(0..self.genome_len - self.repeat_len);
            let tmpl = genome.subseq(tmpl_start, tmpl_start + self.repeat_len);
            for _ in 0..self.repeat_copies.saturating_sub(1) {
                let dst = rng.gen_range(0..self.genome_len - self.repeat_len);
                let mut codes = genome.as_slice().to_vec();
                codes[dst..dst + self.repeat_len].copy_from_slice(tmpl.as_slice());
                genome = Seq::from_codes(codes, crate::alphabet::Alphabet::Dna);
            }
        }

        let model = ErrorModel::new(self.errors);
        let target_bases = (self.genome_len as f64 * self.depth) as usize;
        let mut reads = Vec::new();
        let mut sampled = 0usize;
        while sampled < target_bases {
            let len = rng
                .gen_range(self.read_len.0..=self.read_len.1)
                .min(self.genome_len - 1);
            let start = rng.gen_range(0..self.genome_len - len);
            let template = genome.subseq(start, start + len);
            let (seq, _) = model.corrupt(&template, &mut rng);
            sampled += seq.len();
            reads.push(SimulatedRead {
                id: reads.len(),
                seq,
                start,
                end: start + len,
                reverse: false,
            });
        }
        ReadSet {
            genome,
            reads,
            error_rate: self.errors.total(),
        }
    }
}

/// Named data-set presets matching the paper's evaluation, each with a
/// `scale` knob (1.0 = paper scale) so benchmark harnesses can run a
/// CPU-affordable subset and report the scale factor alongside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatasetPreset {
    /// E. coli-like: 4.64 Mb genome, depth ~30 (Table IV / Fig. 10).
    EcoliLike,
    /// C. elegans-like: repeat-rich genome, depth ~25 (Table V / Fig. 11).
    /// The paper's set needs 235 M alignments; the preset keeps the repeat
    /// structure and scales the genome.
    CElegansLike,
}

impl DatasetPreset {
    /// Paper-scale genome length.
    pub(crate) fn paper_scale(&self) -> usize {
        match self {
            DatasetPreset::EcoliLike => 4_641_652,
            DatasetPreset::CElegansLike => 100_286_401,
        }
    }

    /// Build the read set for this preset (`EcoliLike` / `CElegansLike`).
    pub fn read_set(&self, scale: f64, seed: u64) -> ReadSet {
        match self {
            DatasetPreset::EcoliLike => {
                let len = ((self.paper_scale() as f64 * scale) as usize).max(20_000);
                let sim = ReadSimulator {
                    depth: 30.0,
                    ..ReadSimulator::uniform(len, 30.0)
                };
                sim.generate(seed)
            }
            DatasetPreset::CElegansLike => {
                let len = ((self.paper_scale() as f64 * scale) as usize).max(30_000);
                let sim = ReadSimulator {
                    depth: 25.0,
                    repeat_families: (len / 50_000).max(1),
                    repeat_len: 3_000.min(len / 10),
                    repeat_copies: 4,
                    ..ReadSimulator::uniform(len, 25.0)
                };
                sim.generate(seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_seed_is_exact_match() {
        let set = PairSet::generate(20, 0.15, 7);
        for p in &set.pairs {
            let q = p.query.subseq(p.seed.qpos, p.seed.qpos + p.seed.len);
            let t = p.target.subseq(p.seed.tpos, p.seed.tpos + p.seed.len);
            assert_eq!(q, t, "planted seed must match exactly");
        }
    }

    #[test]
    fn pair_lengths_in_paper_range() {
        let set = PairSet::generate(50, 0.15, 8);
        for p in &set.pairs {
            assert!(p.template_len >= 2500 && p.template_len <= 7500);
            // Indels shift lengths, but only by O(error * len).
            let tol = (p.template_len as f64 * 0.12) as usize;
            assert!(p.query.len() + tol >= p.template_len && p.query.len() <= p.template_len + tol);
        }
    }

    #[test]
    fn pair_generation_is_deterministic() {
        let a = PairSet::generate(5, 0.15, 42);
        let b = PairSet::generate(5, 0.15, 42);
        for (x, y) in a.pairs.iter().zip(&b.pairs) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.target, y.target);
            assert_eq!(x.seed, y.seed);
        }
    }

    #[test]
    fn pairwise_divergence_close_to_nominal() {
        // With substitution-heavy corruption the two reads of a pair
        // should differ by roughly the nominal pairwise rate. We measure
        // by comparing bases at matched template positions only
        // (crudely: hamming over the common prefix is an upper bound
        // once indels desynchronize; so use a long template and count
        // via edit-free profile instead).
        let set = PairSet::generate_with_lengths(30, 0.15, 3000, 3000, 11);
        // Just sanity: reads are neither identical nor unrelated.
        let mut identical = 0;
        for p in &set.pairs {
            if p.query == p.target {
                identical += 1;
            }
        }
        assert_eq!(identical, 0);
    }

    #[test]
    fn total_bases_consistent() {
        let set = PairSet::generate(10, 0.15, 3);
        let sum: usize = set
            .pairs
            .iter()
            .map(|p| p.query.len() + p.target.len())
            .sum();
        assert_eq!(set.total_bases(), sum);
    }

    #[test]
    fn readset_depth_near_target() {
        let sim = ReadSimulator {
            read_len: (500, 1500),
            ..ReadSimulator::uniform(100_000, 10.0)
        };
        let rs = sim.generate(5);
        assert!((rs.depth() - 10.0).abs() < 1.0, "depth {}", rs.depth());
        for r in &rs.reads {
            assert!(r.end <= rs.genome.len());
            assert!(r.end > r.start);
        }
    }

    #[test]
    fn true_overlaps_symmetric_and_thresholded() {
        let sim = ReadSimulator {
            read_len: (800, 1200),
            ..ReadSimulator::uniform(20_000, 8.0)
        };
        let rs = sim.generate(6);
        let ov = rs.true_overlaps(500);
        assert!(!ov.is_empty(), "depth-8 set must contain overlaps");
        for &(i, j, len) in &ov {
            assert!(i < j);
            assert!(len >= 500);
            assert_eq!(rs.reads[i].overlap_with(&rs.reads[j]), len);
        }
        // No duplicates.
        let mut dedup = ov.clone();
        dedup.dedup_by_key(|e| (e.0, e.1));
        assert_eq!(dedup.len(), ov.len());
    }

    #[test]
    fn true_overlaps_matches_bruteforce() {
        let sim = ReadSimulator {
            read_len: (300, 600),
            ..ReadSimulator::uniform(8_000, 6.0)
        };
        let rs = sim.generate(13);
        let fast = rs.true_overlaps(200);
        let mut brute = Vec::new();
        for i in 0..rs.reads.len() {
            for j in i + 1..rs.reads.len() {
                let ov = rs.reads[i].overlap_with(&rs.reads[j]);
                if ov >= 200 {
                    brute.push((i, j, ov));
                }
            }
        }
        brute.sort_unstable();
        assert_eq!(fast, brute);
    }

    #[test]
    fn seq_batches_cover_the_set_in_order() {
        let sim = ReadSimulator {
            read_len: (300, 600),
            ..ReadSimulator::uniform(10_000, 5.0)
        };
        let rs = sim.generate(9);
        for batch_reads in [1, 3, 7, 1000] {
            let batches: Vec<ReadBatch> = rs.seq_batches(batch_reads).collect();
            let mut id = 0usize;
            for b in &batches {
                assert_eq!(b.start_id, id, "batches must be contiguous");
                assert!(b.seqs.len() <= batch_reads.max(1));
                assert!(!b.seqs.is_empty());
                for (off, s) in b.seqs.iter().enumerate() {
                    assert_eq!(*s, rs.reads[id + off].seq);
                }
                id += b.seqs.len();
            }
            assert_eq!(id, rs.reads.len(), "every read streamed exactly once");
            // All but the last batch are full.
            for b in &batches[..batches.len() - 1] {
                assert_eq!(b.seqs.len(), batch_reads.max(1));
            }
        }
        // The free-function adapter agrees with the method.
        let seqs: Vec<Seq> = rs.reads.iter().map(|r| r.seq.clone()).collect();
        let a: Vec<ReadBatch> = rs.seq_batches(4).collect();
        let b: Vec<ReadBatch> = seq_batches(&seqs, 4).collect();
        assert_eq!(a, b);
        // batch_reads = 0 is clamped rather than looping forever.
        assert_eq!(seq_batches(&seqs, 0).next().unwrap().seqs.len(), 1);
    }

    #[test]
    fn celegans_preset_has_repeats() {
        let rs = DatasetPreset::CElegansLike.read_set(0.0005, 21);
        assert!(rs.genome.len() >= 30_000);
        assert!(!rs.reads.is_empty());
    }

    #[test]
    fn ecoli_preset_scales() {
        let rs = DatasetPreset::EcoliLike.read_set(0.01, 22);
        let expected = (4_641_652f64 * 0.01) as usize;
        assert_eq!(rs.genome.len(), expected);
    }
}
