//! The zero-allocation guarantee of DESIGN.md §7, asserted through the
//! global allocator: once an [`AlignWorkspace`] is warm (its buffers
//! have grown to the workload's largest extension), every further
//! extension through it — scalar or SIMD, single extension or whole
//! seed-extend — performs **zero** heap allocations. So does cloning a
//! [`ReadPair`]: its reads are shared, not copied (DESIGN.md §8). The
//! lane kernels are picked per CPU at run time (DESIGN.md §14); the
//! process's first dispatched call, feature detection included, is
//! held to the same zero. Candidate pairs carry their witnesses inline,
//! so the SpGEMM and binning allocate per growing vector, not per pair.
//!
//! The whole check lives in one `#[test]` function: the counting
//! allocator is process-global, so concurrently running test functions
//! would pollute each other's deltas.

use logan::prelude::*;
use logan_align::simd::extend_portable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocation events (alloc/realloc); deallocation is free to
/// ignore — a zero-alloc region cannot contain a dealloc of anything it
/// allocated, and frees of pre-existing buffers don't matter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Run `f` and return how many allocation events it performed.
fn alloc_delta<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}

/// The allocations of `spgemm_candidates` + binning on a read set, and
/// the candidates they produced.
fn candidate_allocations(reads: &[Seq]) -> (u64, usize) {
    use logan::bella::binning::choose_seed;
    use logan::bella::kmer_count::count_kmers;
    use logan::bella::matrix::KmerMatrix;
    use logan::bella::prune::{reliable_kmers, ReliableBounds};
    use logan::bella::spgemm::spgemm_candidates;
    let k = 17;
    let reliable = reliable_kmers(&count_kmers(reads, k), ReliableBounds { lo: 2, hi: 30 });
    let matrix = KmerMatrix::build(reads, k, &reliable);
    let (d, (n, seeded)) = alloc_delta(|| {
        let cands = spgemm_candidates(&matrix);
        let lens = |c: &logan::bella::spgemm::CandidatePair| {
            (reads[c.r1 as usize].len(), reads[c.r2 as usize].len())
        };
        let seeded = cands
            .iter()
            .map(|c| choose_seed(lens(c).0, lens(c).1, c, k).0)
            .filter(|seed| seed.len == k)
            .count();
        (cands.len(), seeded)
    });
    assert_eq!(seeded, n, "every candidate seeds a k-mer");
    (d, n)
}

/// Doubling the candidates — a second genome's reads beside the first's
/// — may cost the vectors that grow one more doubling each: O(log), not
/// O(candidates).
fn candidate_allocations_grow_by_doubling_only() {
    use logan::seq::readsim::ReadSimulator;
    let reads_of = |seed| {
        let sim = ReadSimulator {
            read_len: (400, 700),
            errors: logan::seq::ErrorProfile::pacbio(0.05),
            ..ReadSimulator::uniform(15_000, 6.0)
        };
        let reads = sim.generate(seed).reads.into_iter();
        reads.map(|r| r.seq).collect::<Vec<Seq>>()
    };
    let one = reads_of(1);
    let mut two = one.clone();
    two.extend(reads_of(2));
    let (allocs_one, cands_one) = candidate_allocations(&one);
    let (allocs_two, cands_two) = candidate_allocations(&two);
    assert!(
        cands_one > 500,
        "{cands_one} candidates are too few to tell"
    );
    assert!(
        cands_two > 19 * cands_one / 10,
        "{cands_two} candidates do not double {cands_one}"
    );
    assert!(
        allocs_two <= allocs_one + 4,
        "{cands_one} -> {cands_two} candidates took {allocs_one} -> {allocs_two} allocations"
    );
}

#[test]
fn warm_workspace_extensions_are_allocation_free() {
    // Same process-wide counter, so the same test function.
    candidate_allocations_grow_by_doubling_only();

    // A mixed workload: divergent pair (drops early), noisy related
    // pairs of different lengths, and a seeded pair for seed_extend.
    let pairs = PairSet::generate_with_lengths(6, 0.15, 300, 700, 17).pairs;
    let divergent = PairSet::generate_with_lengths(1, 0.5, 200, 200, 18).pairs;
    let scoring = Scoring::default();
    let x = 100;

    let mut ws = AlignWorkspace::new();
    let ext_scalar = XDropExtender::with_engine(scoring, x, Engine::Scalar);
    let ext_simd = XDropExtender::with_engine(scoring, x, Engine::Simd);
    let ext_adaptive = XDropExtender::with_engine(scoring, x, Engine::Adaptive);
    // A tighter X keeps `x + max_score` inside the i8 window, so the
    // 32-lane tier (and its escalation into the i16 buffers) gets real
    // warm-path coverage rather than falling back to scalar.
    let x8 = 40;
    let ext_i8 = XDropExtender::with_engine(scoring, x8, Engine::I8);
    // The adaptive selector inside the i8 window, where it runs i16
    // all the same.
    let ext_adaptive8 = XDropExtender::with_engine(scoring, x8, Engine::Adaptive);

    let protein = |n: usize, salt: usize| {
        let codes = (0..n)
            .map(|i| ((i * 7 + i / 5 + salt) % 20) as u8)
            .collect();
        Seq::from_codes(codes, logan::seq::Alphabet::Protein)
    };
    let b62 = logan::seq::ScoreProfile::blosum62(-6);
    let (long_p, long_h) = (protein(900, 0), protein(900, 3));

    // Nothing above ran a lane kernel, so the calls below are the
    // process's first dispatched ones: CPU feature detection happens
    // inside them. On a workspace warmed through the portable seam
    // (which detects nothing) they must allocate nothing — DNA and
    // BLOSUM62, the i16 tier and an escalating i8 run.
    {
        let p = &pairs[0];
        let dna = logan::seq::ScoreProfile::from(scoring);
        let cases = [
            (Engine::I8, &p.query, &p.target, dna, x8),
            (Engine::I8, &long_p, &long_h, b62, 50),
            (Engine::Simd, &p.query, &p.target, dna, x),
            (Engine::Simd, &long_p, &long_h, b62, 50),
        ];
        let mut ws = AlignWorkspace::new();
        let warm: Vec<ExtensionResult> = cases
            .iter()
            .map(|&(engine, q, t, profile, x)| extend_portable(engine, q, t, profile, x, &mut ws))
            .collect();
        assert_eq!(ws.tally.escalations, 2, "both i8 warm-ups must escalate");
        for (&(engine, q, t, profile, x), want) in cases.iter().zip(&warm) {
            let (d, r) = alloc_delta(|| engine.extend_with(q, t, profile, x, &mut ws));
            assert_eq!(d, 0, "a first dispatched {engine} extension allocated");
            assert_eq!(&r, want);
        }
        assert_eq!(
            ws.tally.escalations, 4,
            "both dispatched i8 runs must escalate"
        );
    }

    // Reference results through fresh workspaces, for the bit-equality
    // side of the contract.
    let reference: Vec<SeedExtendResult> = pairs
        .iter()
        .chain(&divergent)
        .map(|p| seed_extend(&p.query, &p.target, p.seed, &ext_scalar))
        .collect();
    let reference_i8: Vec<SeedExtendResult> = pairs
        .iter()
        .chain(&divergent)
        .map(|p| {
            seed_extend(
                &p.query,
                &p.target,
                p.seed,
                &XDropExtender::with_engine(scoring, x8, Engine::Scalar),
            )
        })
        .collect();

    // Warm-up pass: buffers grow to the workload's high-water mark.
    for p in pairs.iter().chain(&divergent) {
        seed_extend_with(&p.query, &p.target, p.seed, &ext_scalar, &mut ws);
        seed_extend_with(&p.query, &p.target, p.seed, &ext_simd, &mut ws);
        seed_extend_with(&p.query, &p.target, p.seed, &ext_i8, &mut ws);
        seed_extend_with(&p.query, &p.target, p.seed, &ext_adaptive, &mut ws);
        seed_extend_with(&p.query, &p.target, p.seed, &ext_adaptive8, &mut ws);
        xdrop_extend_with(&p.query, &p.target, scoring, x, &mut ws);
        Engine::Simd.extend_with(&p.query, &p.target, scoring, x, &mut ws);
        Engine::I8.extend_with(&p.query, &p.target, scoring, x8, &mut ws);
        Engine::Adaptive.extend_with(&p.query, &p.target, scoring, x, &mut ws);
    }

    // Warm pass: the heart of the test. Zero allocations per call, on
    // every entry point, for every pair shape, and results identical to
    // the fresh-workspace reference.
    let tally_before = ws.tally;
    let mut adaptive = TierTally::default();
    for ((p, want), want8) in pairs
        .iter()
        .chain(&divergent)
        .zip(&reference)
        .zip(&reference_i8)
    {
        let (d, r) =
            alloc_delta(|| seed_extend_with(&p.query, &p.target, p.seed, &ext_scalar, &mut ws));
        assert_eq!(d, 0, "warm scalar seed_extend_with allocated");
        assert_eq!(&r, want);

        let (d, r) =
            alloc_delta(|| seed_extend_with(&p.query, &p.target, p.seed, &ext_simd, &mut ws));
        assert_eq!(d, 0, "warm SIMD seed_extend_with allocated");
        assert_eq!(&r, want);

        let (d, r) =
            alloc_delta(|| seed_extend_with(&p.query, &p.target, p.seed, &ext_i8, &mut ws));
        assert_eq!(d, 0, "warm i8 seed_extend_with allocated");
        assert_eq!(&r, want8);

        let before = ws.tally;
        let (d, r) =
            alloc_delta(|| seed_extend_with(&p.query, &p.target, p.seed, &ext_adaptive, &mut ws));
        assert_eq!(d, 0, "warm adaptive seed_extend_with allocated");
        assert_eq!(&r, want);

        let (d, r) =
            alloc_delta(|| seed_extend_with(&p.query, &p.target, p.seed, &ext_adaptive8, &mut ws));
        assert_eq!(d, 0, "warm adaptive (i8 window) seed_extend_with allocated");
        assert_eq!(&r, want8);
        adaptive.merge(&ws.tally.diff(&before));

        let (d, _) = alloc_delta(|| xdrop_extend_with(&p.query, &p.target, scoring, x, &mut ws));
        assert_eq!(d, 0, "warm scalar xdrop_extend_with allocated");

        let (d, _) =
            alloc_delta(|| Engine::Simd.extend_with(&p.query, &p.target, scoring, x, &mut ws));
        assert_eq!(d, 0, "warm SIMD xdrop_extend_with allocated");

        let (d, _) =
            alloc_delta(|| Engine::I8.extend_with(&p.query, &p.target, scoring, x8, &mut ws));
        assert_eq!(d, 0, "warm i8 xdrop_extend_with allocated");

        let (d, _) =
            alloc_delta(|| Engine::Adaptive.extend_with(&p.query, &p.target, scoring, x, &mut ws));
        assert_eq!(d, 0, "warm adaptive xdrop_extend_with allocated");
    }

    // The i8 engine above must have taken the escalation edge (i8
    // buffers widened into the i16 scratch), or its zeros prove
    // nothing; the adaptive one runs i16 from the start, in the i8
    // window too.
    let warm = ws.tally.diff(&tally_before);
    assert!(warm.lanes8 > 0 && warm.lanes16 > 0);
    assert!(warm.escalations > 0, "no warm i8 run escalated: {warm:?}");
    assert!(adaptive.lanes16 > 0);
    assert_eq!(
        (adaptive.lanes8, adaptive.escalations, adaptive.scalar),
        (0, 0, 0)
    );

    // Anti-diagonal buffers are sized per extension, by the query: once
    // the longest pair has been through, shorter ones of any shape fit
    // — zero allocations — and read nothing the long one left behind:
    // each result equals a fresh workspace's. DNA through both SIMD
    // tiers, BLOSUM62 through the profile gather.
    let long = PairSet::generate_with_lengths(1, 0.1, 1500, 1500, 19).pairs;
    let short = PairSet::generate_with_lengths(5, 0.2, 40, 400, 20).pairs;
    for engine in [Engine::Simd, Engine::I8, Engine::Adaptive] {
        let x = if engine == Engine::I8 { x8 } else { x };
        let ext = XDropExtender::with_engine(scoring, x, engine);
        let p = &long[0];
        seed_extend_with(&p.query, &p.target, p.seed, &ext, &mut ws);
        engine.extend_with(&long_p, &long_h, b62, 50, &mut ws);
        for p in &short {
            let (d, r) =
                alloc_delta(|| seed_extend_with(&p.query, &p.target, p.seed, &ext, &mut ws));
            assert_eq!(d, 0, "{engine}: a shorter pair after the longest allocated");
            assert_eq!(
                r,
                seed_extend(&p.query, &p.target, p.seed, &ext),
                "{engine}"
            );
        }
        for n in [7, 60, 333] {
            let (a, b) = (protein(n, 1), protein(n + 9, 2));
            let (d, r) = alloc_delta(|| engine.extend_with(&a, &b, b62, 50, &mut ws));
            assert_eq!(d, 0, "{engine}: a shorter protein pair allocated");
            assert_eq!(r, engine.extend(&a, &b, b62, 50), "{engine} (BLOSUM62)");
        }
    }

    // Pairs share their reads: cloning one — what candidate
    // materialisation, fleet block slicing and serve's request pool do
    // per pair — copies no bases and allocates nothing, and the clone
    // extends through the warm workspace like the original.
    let p = &pairs[0];
    let (d, shared) = alloc_delta(|| p.clone());
    assert_eq!(d, 0, "ReadPair::clone allocated");
    let (d, r) = alloc_delta(|| {
        seed_extend_with(
            &shared.query,
            &shared.target,
            shared.seed,
            &ext_scalar,
            &mut ws,
        )
    });
    assert_eq!(d, 0, "warm seed_extend_with on a shared pair allocated");
    assert_eq!(r, reference[0]);

    // Sanity check on the counter itself: the allocating wrappers (and
    // a cold workspace) must register, or the zeros above prove nothing.
    let (d, _) = alloc_delta(|| seed_extend(&p.query, &p.target, p.seed, &ext_scalar));
    assert!(d > 0, "allocating wrapper registered no allocations");
    let (d, _) = alloc_delta(|| {
        let mut cold = AlignWorkspace::new();
        xdrop_extend_with(&p.query, &p.target, scoring, x, &mut cold)
    });
    assert!(d > 0, "cold workspace registered no allocations");
}
