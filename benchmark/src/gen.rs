//! The benchmark's own seeded input generator.
//!
//! Deliberately independent of `logan_seq::readsim`: a later change to
//! the program's simulator must not change the load the benchmark
//! offers. Everything here is plain symbol codes and numbers; the
//! workloads turn them into FASTA bytes or `ReadPair`s.

use std::ops::Range;

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word, full
/// period, good enough for input synthesis and trivially reproducible.
pub struct Rng(u64);

impl Rng {
    /// A stream for one workload: the user's seed mixed with the
    /// workload name, so workloads never share inputs.
    pub fn for_workload(seed: u64, workload: &str) -> Rng {
        Rng(seed ^ fnv1a(workload.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for
    /// every `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `len` uniform symbol codes below `alphabet`.
    pub fn symbols(&mut self, len: usize, alphabet: u8) -> Vec<u8> {
        (0..len)
            .map(|_| self.below(alphabet as usize) as u8)
            .collect()
    }
}

/// Values spread evenly over a range whatever the seed: a Kronecker
/// sequence from a seeded phase. Lengths and offsets are drawn this way so
/// that the amount of work a workload offers barely depends on the seed,
/// while every symbol, edit and arrival still does; otherwise the spread
/// between seeds (12 % of the wall time with 400 uniformly drawn reads)
/// would hide the regressions the bounds are there to catch.
pub struct Even {
    at: f64,
    step: f64,
}

impl Even {
    /// `step` is an irrational in `(0, 1)`; sequences that are combined
    /// must use different ones.
    pub fn new(rng: &mut Rng, step: f64) -> Even {
        Even {
            at: rng.unit(),
            step,
        }
    }

    /// The next point of the sequence, in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.at = (self.at + self.step).fract();
        self.at
    }

    /// The next point mapped onto `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.unit() * (hi - lo + 1) as f64) as usize
    }
}

/// Steps for [`Even`]: the fractional parts of the golden ratio, √2 and √3.
pub const GOLDEN: f64 = 0.618_033_988_749_894_9;
pub const ROOT2: f64 = 0.414_213_562_373_095_03;
pub const ROOT3: f64 = 0.732_050_807_568_877_2;

/// FNV-1a, 64 bit: the digest every workload prints for its inputs and
/// outputs so two commits can be shown to have seen the same bytes.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.bytes(bytes);
    d.finish()
}

/// Per-symbol edit probabilities.
#[derive(Clone, Copy)]
pub struct Errors {
    pub sub: f64,
    pub ins: f64,
    pub del: f64,
}

impl Errors {
    /// Long-read profile totalling `total`: insertions dominate
    /// (50 % insertions, 30 % deletions, 20 % substitutions, the PBSIM
    /// split the LOGAN paper's data sets follow).
    pub fn long_read(total: f64) -> Errors {
        Errors {
            sub: 0.2 * total,
            ins: 0.5 * total,
            del: 0.3 * total,
        }
    }
}

/// Copy `src` with per-symbol edits. Symbols inside `protect` are copied
/// verbatim; the second return is where `protect.start` landed in the
/// output (0 for an empty range).
pub fn corrupt(
    rng: &mut Rng,
    src: &[u8],
    alphabet: u8,
    e: Errors,
    protect: Range<usize>,
) -> (Vec<u8>, usize) {
    let mut out = Vec::with_capacity(src.len() + src.len() / 8);
    let mut landed = 0;
    for (i, &c) in src.iter().enumerate() {
        if protect.contains(&i) {
            if i == protect.start {
                landed = out.len();
            }
            out.push(c);
            continue;
        }
        let u = rng.unit();
        if u < e.del {
            continue;
        }
        if u < e.del + e.ins {
            out.push(rng.below(alphabet as usize) as u8);
            out.push(c);
        } else if u < e.del + e.ins + e.sub {
            let other = (c as usize + 1 + rng.below(alphabet as usize - 1)) % alphabet as usize;
            out.push(other as u8);
        } else {
            out.push(c);
        }
    }
    (out, landed)
}

/// Reads sampled from one genome, with the interval each was cut from.
pub struct ReadSet {
    /// DNA codes `0..4`, one read per entry.
    pub reads: Vec<Vec<u8>>,
    /// Genome interval `[start, end)` of each read: the ground truth.
    pub spans: Vec<(usize, usize)>,
}

/// A uniform random genome and forward-strand reads over it: read count
/// `depth * genome / mean length`, lengths spread evenly over `len`, starts
/// on a jittered grid (even coverage for every seed), every base corrupted
/// under `Errors::long_read(error)`, file order shuffled.
pub fn read_set(
    rng: &mut Rng,
    genome_len: usize,
    depth: usize,
    len: (usize, usize),
    error: f64,
) -> ReadSet {
    let genome = rng.symbols(genome_len, 4);
    let n = 2 * depth * genome_len / (len.0 + len.1);
    let mut lengths = Even::new(rng, GOLDEN);
    let mut reads = Vec::with_capacity(n);
    let mut spans = Vec::with_capacity(n);
    for i in 0..n {
        let l = lengths.between(len.0, len.1);
        let start = ((i as f64 + rng.unit()) / n as f64 * (genome_len - l + 1) as f64) as usize;
        let (read, _) = corrupt(
            rng,
            &genome[start..start + l],
            4,
            Errors::long_read(error),
            0..0,
        );
        reads.push(read);
        spans.push((start, start + l));
    }
    for i in (1..n).rev() {
        let j = rng.below(i + 1);
        reads.swap(i, j);
        spans.swap(i, j);
    }
    ReadSet { reads, spans }
}

impl ReadSet {
    /// Planted overlaps of at least `min_overlap` genome bases, as
    /// sorted `(i, j)` with `i < j`.
    pub fn true_overlaps(&self, min_overlap: usize) -> Vec<(u32, u32)> {
        let mut by_start: Vec<usize> = (0..self.spans.len()).collect();
        by_start.sort_by_key(|&i| self.spans[i]);
        let mut out = Vec::new();
        for (a, &i) in by_start.iter().enumerate() {
            let (_, end_i) = self.spans[i];
            for &j in &by_start[a + 1..] {
                let (start_j, end_j) = self.spans[j];
                if start_j >= end_i {
                    break;
                }
                if end_i.min(end_j) - start_j >= min_overlap {
                    out.push((i.min(j) as u32, i.max(j) as u32));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The reads as FASTA text (`>r<i>`, 80-column lines).
    pub fn to_fasta(&self) -> Vec<u8> {
        let total: usize = self.reads.iter().map(|r| r.len() + r.len() / 80 + 16).sum();
        let mut out = Vec::with_capacity(total);
        for (i, read) in self.reads.iter().enumerate() {
            out.extend_from_slice(format!(">r{i}\n").as_bytes());
            for line in read.chunks(80) {
                out.extend(line.iter().map(|&c| b"ACGT"[c as usize]));
                out.push(b'\n');
            }
        }
        out
    }
}

/// Two sequences sharing an exact seed, as plain codes.
pub struct RawPair {
    pub query: Vec<u8>,
    pub target: Vec<u8>,
    /// `(query position, target position, length)` of the exact seed.
    pub seed: (usize, usize, usize),
    /// Length of the clean region both sequences derive from.
    pub template_len: usize,
}

impl RawPair {
    pub fn digest_into(&self, d: &mut Digest) {
        d.bytes(&self.query);
        d.bytes(&self.target);
        for w in [self.seed.0, self.seed.1, self.seed.2, self.template_len] {
            d.word(w as u64);
        }
    }
}

/// Lengths of one pair after another, spread evenly over a range.
pub struct PairShapes {
    query: Even,
    target: Even,
    offset: Even,
    len: (usize, usize),
}

impl PairShapes {
    pub fn new(rng: &mut Rng, len: (usize, usize)) -> PairShapes {
        PairShapes {
            query: Even::new(rng, GOLDEN),
            target: Even::new(rng, ROOT2),
            offset: Even::new(rng, ROOT3),
            len,
        }
    }

    /// Two DNA reads overlapping on one template: the query is a clean
    /// prefix, the target starts up to a quarter of the query in and
    /// carries `divergence` edits, except on a `k`-base seed in the middle
    /// of the overlap.
    pub fn dna_overlap_pair(&mut self, rng: &mut Rng, divergence: f64, k: usize) -> RawPair {
        let lq = self.query.between(self.len.0, self.len.1);
        let lt = self.target.between(self.len.0, self.len.1);
        let offset = self.offset.between(0, lq / 4);
        let template = rng.symbols(lq.max(offset + lt), 4);
        let overlap = lq.min(offset + lt) - offset;
        let seed_q = offset + (overlap - k) / 2;
        let in_target = seed_q - offset;
        let (target, seed_t) = corrupt(
            rng,
            &template[offset..offset + lt],
            4,
            Errors::long_read(divergence),
            in_target..in_target + k,
        );
        RawPair {
            query: template[..lq].to_vec(),
            target,
            seed: (seed_q, seed_t, k),
            template_len: overlap,
        }
    }

    /// A protein and a homolog: `sub` substitutions and `indel` insertions
    /// plus deletions per residue, an exact `k`-residue seed in the middle.
    pub fn protein_homolog_pair(
        &mut self,
        rng: &mut Rng,
        sub: f64,
        indel: f64,
        k: usize,
    ) -> RawPair {
        let l = self.query.between(self.len.0, self.len.1);
        let query = rng.symbols(l, 20);
        let seed_q = (l - k) / 2;
        let e = Errors {
            sub,
            ins: indel / 2.0,
            del: indel / 2.0,
        };
        let (target, seed_t) = corrupt(rng, &query, 20, e, seed_q..seed_q + k);
        RawPair {
            query,
            target,
            seed: (seed_q, seed_t, k),
            template_len: l,
        }
    }
}

/// `n` arrival times in seconds of a Poisson process at `rate` per second,
/// conditioned on the `n`-th arrival falling at `n / rate`: gaps are
/// exponential, the realised mean rate is exactly `rate` for every seed.
pub fn poisson_schedule(rng: &mut Rng, n: usize, rate: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln();
            t
        })
        .collect();
    let scale = n as f64 / rate / t;
    times.iter_mut().for_each(|t| *t *= scale);
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fasta_digest(seed: u64) -> u64 {
        let mut rng = Rng::for_workload(seed, "t");
        fnv1a(&read_set(&mut rng, 20_000, 5, (300, 600), 0.1).to_fasta())
    }

    #[test]
    fn same_seed_same_digest_and_other_seed_differs() {
        assert_eq!(fasta_digest(42), fasta_digest(42));
        assert_ne!(fasta_digest(42), fasta_digest(43));
        let pairs = |seed| {
            let mut rng = Rng::for_workload(seed, "p");
            let mut d = Digest::new();
            let mut shapes = PairShapes::new(&mut rng, (200, 400));
            shapes
                .dna_overlap_pair(&mut rng, 0.15, 17)
                .digest_into(&mut d);
            shapes
                .protein_homolog_pair(&mut rng, 0.3, 0.02, 5)
                .digest_into(&mut d);
            for t in poisson_schedule(&mut rng, 50, 800.0) {
                d.word(t.to_bits());
            }
            d.finish()
        };
        assert_eq!(pairs(7), pairs(7));
        assert_ne!(pairs(7), pairs(8));
    }

    #[test]
    fn workloads_draw_from_separate_streams() {
        let a = Rng::for_workload(1, "a").next_u64();
        let b = Rng::for_workload(1, "b").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn seeds_are_exact_matches_and_in_bounds() {
        let mut rng = Rng::for_workload(3, "s");
        let mut shapes = PairShapes::new(&mut rng, (100, 300));
        for _ in 0..200 {
            let p = shapes.dna_overlap_pair(&mut rng, 0.15, 17);
            let (q, t, k) = p.seed;
            assert_eq!(p.query[q..q + k], p.target[t..t + k]);
            let p = shapes.protein_homolog_pair(&mut rng, 0.3, 0.02, 5);
            let (q, t, k) = p.seed;
            assert_eq!(p.query[q..q + k], p.target[t..t + k]);
        }
    }

    #[test]
    fn true_overlaps_match_the_quadratic_definition() {
        let mut rng = Rng::for_workload(5, "o");
        let rs = read_set(&mut rng, 10_000, 6, (300, 700), 0.05);
        let mut slow = Vec::new();
        for i in 0..rs.spans.len() {
            for j in i + 1..rs.spans.len() {
                let (a, b) = (rs.spans[i], rs.spans[j]);
                let (lo, hi) = (a.0.max(b.0), a.1.min(b.1));
                if hi > lo && hi - lo >= 200 {
                    slow.push((i as u32, j as u32));
                }
            }
        }
        assert_eq!(rs.true_overlaps(200), slow);
    }

    #[test]
    fn poisson_rate_is_as_asked() {
        let mut rng = Rng::for_workload(9, "r");
        let times = poisson_schedule(&mut rng, 20_000, 800.0);
        let rate = times.len() as f64 / times.last().unwrap();
        assert!((rate - 800.0).abs() < 1e-6, "rate {rate}");
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Exponential gaps: their standard deviation equals their mean.
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05);
    }
}
