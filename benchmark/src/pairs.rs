//! `pairs_blosum62_x400`: the `align` layer through the matrix-profile
//! path, with no `bella` and no FASTA in the way.

use crate::gen::{Digest, PairShapes, RawPair, Rng};
use crate::kernel;
use crate::meter;
use crate::metrics::{Outcome, Request, Scale};
use crate::trace::{Scope, TracedBackend, Tracer, ALIGN_SPAN};
use logan_align::{Engine, SeedExtendResult, XDropCpuAligner};
use logan_core::AlignBackend;
use logan_seq::readsim::{ReadPair, Seed};
use logan_seq::{Alphabet, ScoreProfile, Seq};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "pairs_blosum62_x400";
const X: i32 = 400;
const GAP: i32 = -6;
/// Seconds one repetition took at the commit that froze the sizes.
const NOMINAL_REP_S: f64 = 3.0;

fn pair_count(scale: Scale) -> usize {
    match scale {
        Scale::Full => 16_000,
        Scale::Quick => 480,
    }
}

/// Codes to the program's pair type.
pub fn read_pair(raw: &RawPair, alphabet: Alphabet) -> ReadPair {
    ReadPair {
        query: Seq::from_codes(raw.query.clone(), alphabet),
        target: Seq::from_codes(raw.target.clone(), alphabet),
        seed: Seed {
            qpos: raw.seed.0,
            tpos: raw.seed.1,
            len: raw.seed.2,
        },
        template_len: raw.template_len,
    }
}

pub fn digest_results(results: &[SeedExtendResult]) -> u64 {
    let mut d = Digest::new();
    for r in results {
        d.word(r.score as u64);
        for w in [r.query_start, r.query_end, r.target_start, r.target_end] {
            d.word(w as u64);
        }
        d.word(r.cells());
    }
    d.finish()
}

struct Ready {
    pairs: Vec<ReadPair>,
    input_digest: u64,
    backend: Arc<XDropCpuAligner>,
    oracle: Vec<SeedExtendResult>,
    setup_s: f64,
}

fn backend(engine: Engine) -> XDropCpuAligner {
    XDropCpuAligner::new(1, ScoreProfile::blosum62(GAP), X, engine)
}

fn set_up(req: &Request) -> Ready {
    let ((pairs, input_digest, backend), prep_s) = meter::thrice(|| {
        let mut rng = Rng::for_workload(req.seed, NAME);
        let mut digest = Digest::new();
        let mut shapes = PairShapes::new(&mut rng, (300, 1500));
        let pairs: Vec<ReadPair> = (0..pair_count(req.scale))
            .map(|_| {
                let raw = shapes.protein_homolog_pair(&mut rng, 0.30, 0.02, 5);
                raw.digest_into(&mut digest);
                read_pair(&raw, Alphabet::Protein)
            })
            .collect();
        (pairs, digest.finish(), Arc::new(backend(Engine::Adaptive)))
    });
    let start = Instant::now();
    let (oracle, _) = backend.align_block(&pairs);
    let warm_s = start.elapsed().as_secs_f64();
    Ready {
        pairs,
        input_digest,
        backend,
        oracle,
        setup_s: prep_s + warm_s,
    }
}

pub fn run(req: &Request, golden: Option<u64>) -> Outcome {
    let mut out = Outcome::default();
    let ready = set_up(req);
    out.input_digest = ready.input_digest;
    out.output_digest = digest_results(&ready.oracle);
    out.set("setup_s", ready.setup_s);

    let backend: &dyn AlignBackend = &*ready.backend;
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    for rep in 0..req.reps(NOMINAL_REP_S) {
        meter::reset_peak();
        let start = Instant::now();
        let (results, _) = black_box(backend.align_block(&ready.pairs));
        walls.push(start.elapsed().as_secs_f64());
        peaks.push(meter::peak_mib());
        out.check(results == ready.oracle, || {
            format!("{NAME}: repetition {rep} differs from the warm-up")
        });
    }
    out.push_batch_walls(walls);
    out.push("peak_mib", peaks);

    // The planted truth is the whole query: recall is the share of planted
    // homologous residues the alignments cover, and nothing reported can
    // lie outside the truth.
    let planted: usize = ready.pairs.iter().map(|p| p.query.len()).sum();
    let covered: usize = ready.oracle.iter().map(|r| r.query_span()).sum();
    out.set("recall", covered as f64 / planted as f64);
    out.set("precision", 1.0);

    out.check_golden(NAME, golden);
    kernel::check_against_scalar(
        &mut out,
        NAME,
        &ready.pairs,
        &ready.oracle,
        &self::backend(Engine::Scalar),
    );
    out
}

pub fn trace(req: &Request, tracer: &Arc<Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let ready = set_up(req);
    out.input_digest = ready.input_digest;
    out.output_digest = digest_results(&ready.oracle);

    let start = Instant::now();
    black_box(ready.backend.align_block(&ready.pairs));
    let untraced_wall = start.elapsed().as_secs_f64();

    let op = tracer.new_op();
    let traced = TracedBackend::new(
        ready.backend.clone(),
        Scope {
            tracer: tracer.clone(),
            parent: None,
            op,
        },
    );
    let (results, _) = traced.align_block(&ready.pairs);
    out.check(results == ready.oracle, || {
        format!("{NAME}: the traced block differs from the untraced one")
    });
    let traced_wall = tracer.busy(ALIGN_SPAN, op);
    kernel::extend_metrics(&mut out, traced_wall, &traced.report());
    out.set(
        "trace.overhead_share",
        (traced_wall - untraced_wall) / untraced_wall,
    );
    out.set("trace.wall_s", traced_wall);
    let sub = kernel::subsample(&ready.pairs, kernel::LADDER_PAIRS);
    kernel::ladder_metrics(&mut out, &sub, ScoreProfile::blosum62(GAP), X);
    out
}
