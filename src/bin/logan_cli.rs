//! `logan_cli` — command-line front end for LOGAN-rs.
//!
//! ```text
//! logan_cli pairs   <queries.fa> <targets.fa> [-x N] [--backend B] [--gpus N]
//!                                             [--engine scalar|simd|i8|adaptive]
//!                                             [--matrix dna|dna:M,MM,G|blosum62[:GAP]]
//!                                             [--translated [-k K]]
//! logan_cli overlap <reads.fa>                [-x N] [--backend B] [--gpus N]
//!                                             [-k K] [--min-overlap L]
//!                                             [--seeder spgemm|minimizer[:W]]
//!                                             [--engine scalar|simd|i8|adaptive] [--stream]
//!                                             [--batch-reads N] [--shards N] [--inflight N]
//! logan_cli serve                             [-x N] [--backend B] [--gpus N]
//!                                             [--serve batch=N,queue=N,quota=N,deadline=S]
//!                                             [--requests N] [--tenants T]
//!                                             [--clients C] [--seed S]
//!                                             [--chaos SEED:PLAN] [--supervise]
//! ```
//!
//! `--engine` picks the host X-drop kernel and changes no output, only
//! speed; the default is `adaptive` (i16 lanes where exact, else
//! scalar), or whatever `LOGAN_ENGINE` names.
//!
//! `pairs` aligns record *i* of the first file against record *i* of the
//! second (seed = first shared canonical 17-mer), printing one TSV row
//! per pair. `overlap` runs the BELLA pipeline on a read set and prints
//! kept overlaps in a PAF-like TSV.
//!
//! `serve` smoke-runs the always-on alignment service: it starts a
//! [`Server`] over the selected backend, drives it with `--requests`
//! seeded synthetic requests from `--clients` concurrent client
//! threads across `--tenants` tenants, prints one TSV row per request
//! (outcome, batches, score sum), and reports the coalescing and
//! admission ledger on exit. Latency *measurements* live on the
//! simulated clock (`logan_serve::simulate`) and in the repo
//! benchmark's `serve_cpu_open` workload, not here — this proves the
//! daemon end to end.
//!
//! `--backend` selects the alignment backend (all bit-identical):
//! `cpu[:T]` (host pool of T threads), `gpu` (one simulated V100),
//! `multi:N` (N statically partitioned simulated V100s — the default,
//! with N from `--gpus`), or `fleet:SPEC` (a work-stealing
//! heterogeneous fleet, e.g. `fleet:2gpu+cpu:4`).
//!
//! `--stream` runs `overlap` through the bounded-memory streaming
//! dataflow (bit-identical output): the parsed reads are ingested in
//! batches of `--batch-reads`, the k-mers are counted in `--shards`
//! waves, and at most `--inflight` candidate blocks sit between the
//! candidate producer and the alignment backend.
//!
//! `--seeder` picks the candidate generator for `overlap`: `spgemm`
//! (BELLA's align-everything default) or `minimizer[:W]` (minimap2-style
//! (W,k) sketches + colinear chaining; W defaults to 8). The minimizer
//! seeder aligns a strict subset of the SpGEMM candidates — the pairs
//! whose best chain supports `--min-overlap`.
//!
//! `--matrix` selects the substitution model every backend aligns
//! under: `dna` (the match/mismatch fast path, the default),
//! `dna:M,MM,G` (custom match/mismatch/gap), or `blosum62[:GAP]` (the
//! dense protein matrix; GAP defaults to -6). The serve config's
//! `matrix=` key sets the same knob; an explicit `--matrix` wins.
//!
//! `--translated` turns `pairs` into a BLASTX-style translated search:
//! the queries are DNA, the targets are protein, and each query is
//! translated in all six reading frames. Stop codons split every frame
//! into maximal stop-free segments; each segment sharing an exact
//! protein k-mer (`-k`, default 5 here) with its target is seed-split
//! extended on the selected backend, and the best frame is reported
//! per pair. With no explicit `--matrix`, translated search defaults
//! to `blosum62`.
//!
//! `--chaos SEED:PLAN` wraps the selected backend in a fault injector
//! (any command): `SEED:storm` generates the canonical seeded storm
//! sized to the backend, or spell faults out per lane, e.g.
//! `7:0=transient@2x3/stall@0.05,1=failstop@4`. `--supervise` layers
//! the self-healing supervisor (bounded retries with backoff,
//! re-dispatch, poison detection) on top; under `serve` the serving
//! core applies that policy to its own lanes instead. Without it, an
//! injected fault fails exactly the way a real one would have before
//! PR 8 (a panic, and under `serve` a failed batch, and a retired lane
//! on a fail-stop). See `DESIGN.md` §12.

use logan::bella::{BellaConfig, BellaPipeline, PipelineBudget, Seeder};
use logan::core::fleet::{check_pool_threads, check_workers};
use logan::prelude::*;
use logan::seq::fasta::{read_fasta, read_fasta_alphabet};
use logan::seq::kmer::{CanonicalKmerIter, MAX_K};
use logan::seq::readsim::seq_batches;
use logan::seq::translate::{six_frame_segments, Frame};
use logan::seq::{Alphabet, ScoreProfile};
use logan::serve::Reply;
use std::collections::HashMap;
use std::fs::File;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  logan_cli pairs   <queries.fa> <targets.fa> [-x N] [--backend B] [--gpus N] \
         [--engine scalar|simd|i8|adaptive] [--matrix dna|dna:M,MM,G|blosum62[:GAP]] [--translated [-k K]]\n  \
         logan_cli overlap <reads.fa> [-x N] [--backend B] [--gpus N] [-k K] [--min-overlap L] \
         [--seeder spgemm|minimizer[:W]] [--engine scalar|simd|i8|adaptive] [--stream] [--batch-reads N] \
         [--shards N] [--inflight N]\n  \
         logan_cli serve [-x N] [--backend B] [--gpus N] [--serve batch=N,queue=N,quota=N,deadline=S] \
         [--requests N] [--tenants T] [--clients C] [--seed S]\n\
         backends: cpu[:T] | gpu | multi:N (default, N from --gpus) | fleet:SPEC \
         (e.g. fleet:2gpu+cpu:4)\n\
         fault injection (any command): [--chaos SEED:storm | SEED:LANE=FAULT/FAULT,...] \
         [--supervise]\n\
         --engine changes speed only, never output; default: adaptive, or $LOGAN_ENGINE"
    );
    ExitCode::from(2)
}

struct Opts {
    x: i32,
    backend: Option<BackendSel>,
    gpus: usize,
    k: usize,
    k_explicit: bool,
    min_overlap: usize,
    engine: Engine,
    profile: ScoreProfile,
    matrix: Option<ScoreProfile>,
    translated: bool,
    stream: bool,
    seeder: Seeder,
    minimizer_w: usize,
    budget: PipelineBudget,
    serve: ServeConfig,
    requests: usize,
    tenants: usize,
    clients: usize,
    seed: u64,
    chaos: Option<ChaosSpec>,
    supervise: bool,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        x: 100,
        backend: None,
        gpus: 1,
        k: 17,
        k_explicit: false,
        min_overlap: 2000,
        // Results are engine-independent; the flag (or LOGAN_ENGINE)
        // only picks how fast the host computes them.
        engine: Engine::from_env(),
        profile: ScoreProfile::default(),
        matrix: None,
        translated: false,
        stream: false,
        seeder: Seeder::SpGemm,
        minimizer_w: 8,
        budget: PipelineBudget::default(),
        serve: ServeConfig::default(),
        requests: 32,
        tenants: 4,
        clients: 4,
        seed: 42,
        chaos: None,
        supervise: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "-x" => opts.x = grab("-x")?.parse().map_err(|e| format!("-x: {e}"))?,
            "--backend" => opts.backend = Some(grab("--backend")?.parse()?),
            "--gpus" => {
                opts.gpus = grab("--gpus")?
                    .parse()
                    .map_err(|e| format!("--gpus: {e}"))?
            }
            "-k" => {
                opts.k = grab("-k")?.parse().map_err(|e| format!("-k: {e}"))?;
                opts.k_explicit = true;
            }
            "--matrix" => {
                opts.matrix = Some(
                    grab("--matrix")?
                        .parse()
                        .map_err(|e| format!("--matrix: {e}"))?,
                )
            }
            "--translated" => opts.translated = true,
            "--min-overlap" => {
                opts.min_overlap = grab("--min-overlap")?
                    .parse()
                    .map_err(|e| format!("--min-overlap: {e}"))?
            }
            "--engine" => {
                opts.engine = grab("--engine")?
                    .parse()
                    .map_err(|e| format!("--engine: {e}"))?
            }
            "--stream" => opts.stream = true,
            "--seeder" => {
                let v = grab("--seeder")?;
                match v.as_str() {
                    "spgemm" => opts.seeder = Seeder::SpGemm,
                    "minimizer" => opts.seeder = Seeder::Minimizer,
                    other => {
                        if let Some(w) = other.strip_prefix("minimizer:") {
                            opts.seeder = Seeder::Minimizer;
                            opts.minimizer_w =
                                w.parse().map_err(|e| format!("--seeder minimizer: {e}"))?;
                            if opts.minimizer_w == 0 {
                                return Err("--seeder minimizer: window must be at least 1".into());
                            }
                        } else {
                            return Err(format!(
                                "--seeder {other:?}: expected spgemm or minimizer[:W]"
                            ));
                        }
                    }
                }
            }
            "--batch-reads" => {
                opts.budget.batch_reads = grab("--batch-reads")?
                    .parse()
                    .map_err(|e| format!("--batch-reads: {e}"))?
            }
            "--shards" => {
                opts.budget.shards = grab("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--inflight" => {
                opts.budget.inflight_blocks = grab("--inflight")?
                    .parse()
                    .map_err(|e| format!("--inflight: {e}"))?
            }
            // Parsed (and so validated) here with the other options: a
            // degenerate service config is a usage error, not a panic.
            "--serve" => opts.serve = grab("--serve")?.parse()?,
            "--requests" => {
                opts.requests = grab("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--tenants" => {
                opts.tenants = grab("--tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?
            }
            "--clients" => {
                opts.clients = grab("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--seed" => {
                opts.seed = grab("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            // Parsed here so a malformed storm is a usage error, not a
            // mid-alignment failure.
            "--chaos" => {
                opts.chaos = Some(
                    grab("--chaos")?
                        .parse()
                        .map_err(|e| format!("--chaos: {e}"))?,
                )
            }
            "--supervise" => opts.supervise = true,
            _ => opts.positional.push(a.clone()),
        }
    }
    if opts.x < 0 {
        return Err("-x must be non-negative".into());
    }
    check_workers(opts.gpus).map_err(|e| format!("--gpus: {e}"))?;
    if opts.budget.batch_reads == 0 || opts.budget.shards == 0 || opts.budget.inflight_blocks == 0 {
        return Err("--batch-reads/--shards/--inflight must be at least 1".into());
    }
    if opts.tenants == 0 || opts.clients == 0 {
        return Err("--tenants/--clients must be at least 1".into());
    }
    // Resolve the substitution model once, after the whole command line
    // is parsed (so flag order never matters): an explicit --matrix
    // wins over the serve config's matrix= key, and --translated with
    // neither defaults to BLOSUM62 — translated hits are protein
    // alignments. The serve config is updated to agree, since
    // Server::start refuses a backend whose profile differs from it.
    opts.profile = match opts.matrix {
        Some(p) => p,
        None if opts.translated && opts.serve.profile == ScoreProfile::default() => {
            ScoreProfile::blosum62(-6)
        }
        None => opts.serve.profile,
    };
    opts.serve.profile = opts.profile;
    if opts.translated {
        // Protein seeds are short: an exact 17-mer (the DNA default)
        // essentially never occurs between homologs at the amino-acid
        // level, so translated search defaults k to 5 and bounds it.
        if !opts.k_explicit {
            opts.k = 5;
        }
        if !(1..=12).contains(&opts.k) {
            return Err("--translated: -k must be between 1 and 12 (protein seed length)".into());
        }
    } else if !(1..=MAX_K).contains(&opts.k) {
        return Err(format!(
            "-k must be between 1 and {MAX_K} (a k-mer packs into 64 bits)"
        ));
    }
    Ok(opts)
}

/// A parsed `--backend` selection. Parsing happens with the other
/// option validation so a malformed value is a usage error (exit 2),
/// not a runtime failure.
enum BackendSel {
    Cpu(Option<usize>),
    Gpu,
    Multi(usize),
    Fleet(FleetSpec),
}

impl std::str::FromStr for BackendSel {
    type Err = String;

    fn from_str(sel: &str) -> Result<BackendSel, String> {
        match sel {
            "cpu" => Ok(BackendSel::Cpu(None)),
            "gpu" => Ok(BackendSel::Gpu),
            other => {
                if let Some(t) = other.strip_prefix("cpu:") {
                    let threads = t
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())
                        .and_then(check_pool_threads)
                        .map_err(|e| format!("--backend cpu: {e}"))?;
                    Ok(BackendSel::Cpu(Some(threads)))
                } else if let Some(n) = other.strip_prefix("multi:") {
                    let gpus = n
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())
                        .and_then(check_workers)
                        .map_err(|e| format!("--backend multi: {e}"))?;
                    Ok(BackendSel::Multi(gpus))
                } else if let Some(fleet_spec) = other.strip_prefix("fleet:") {
                    Ok(BackendSel::Fleet(
                        fleet_spec
                            .parse()
                            .map_err(|e| format!("--backend fleet: {e}"))?,
                    ))
                } else {
                    Err(format!(
                        "--backend {other:?}: expected cpu[:T], gpu, multi:N or fleet:SPEC"
                    ))
                }
            }
        }
    }
}

/// [`chaos_backend`], wrapped in [`Supervised`] under `--supervise`.
fn build_backend(opts: &Opts) -> Box<dyn AlignBackend> {
    let backend = chaos_backend(opts);
    if opts.supervise {
        return Box::new(Supervised::new(backend, SupervisePolicy::default()));
    }
    backend
}

/// Instantiate the `--backend` selection (default `multi:{--gpus}`),
/// under the `--chaos` fault injector if one is given. Every backend
/// aligns with the options' X, engine and substitution profile
/// (`--matrix`), on simulated V100s where a device is involved.
fn chaos_backend(opts: &Opts) -> Box<dyn AlignBackend> {
    let mut cfg = LoganConfig::with_x(opts.x);
    cfg.engine = opts.engine;
    cfg.profile = opts.profile;
    let spec = DeviceSpec::v100();
    let mut backend: Box<dyn AlignBackend> = match &opts.backend {
        Some(BackendSel::Cpu(threads)) => {
            let threads = threads.unwrap_or_else(logan::core::backend::host_threads);
            Box::new(XDropCpuAligner::new(
                threads,
                opts.profile,
                opts.x,
                opts.engine,
            ))
        }
        Some(BackendSel::Gpu) => Box::new(LoganExecutor::new(spec, cfg)),
        Some(BackendSel::Multi(gpus)) => Box::new(Fleet::static_gpus(*gpus, spec, cfg)),
        Some(BackendSel::Fleet(parsed)) => Box::new(parsed.build(spec, cfg)),
        None => Box::new(Fleet::static_gpus(opts.gpus, spec, cfg)),
    };
    if let Some(chaos) = &opts.chaos {
        let plan = chaos.resolve(backend.lanes());
        eprintln!("chaos: injecting {plan}");
        backend = Box::new(ChaosBackend::new(backend, plan));
    }
    backend
}

/// First shared canonical k-mer between two sequences.
fn find_seed(q: &Seq, t: &Seq, k: usize) -> Option<Seed> {
    if q.len() < k || t.len() < k {
        return None;
    }
    let mut index: HashMap<u64, (usize, bool)> = HashMap::new();
    for (pos, km, fwd) in CanonicalKmerIter::new(q, k) {
        index.entry(km.code).or_insert((pos, fwd));
    }
    for (pos, km, fwd) in CanonicalKmerIter::new(t, k) {
        if let Some(&(qpos, qfwd)) = index.get(&km.code) {
            // Only accept forward-strand exact matches (the aligners are
            // strand-naive; reverse-complement hits need an RC pass):
            // equal canonical codes chosen from the same strand mean the
            // forward k-mers themselves are equal.
            if qfwd == fwd {
                return Some(Seed {
                    qpos,
                    tpos: pos,
                    len: k,
                });
            }
        }
    }
    None
}

/// Translated (BLASTX-style) `pairs`: DNA queries against protein
/// targets. Each query is six-frame translated; stop codons split every
/// frame into maximal stop-free segments, each segment sharing an exact
/// protein k-mer with its target becomes one seeded candidate, and the
/// best-scoring frame is reported per pair. Query coordinates in the
/// output are amino-acid positions within the reported frame.
fn cmd_pairs_translated(opts: &Opts) -> Result<(), String> {
    let [qf, tf] = &opts.positional[..] else {
        return Err("pairs needs exactly two FASTA files".into());
    };
    let queries = read_fasta(File::open(qf).map_err(|e| format!("{qf}: {e}"))?)
        .map_err(|e| format!("{qf}: {e}"))?;
    let targets = read_fasta_alphabet(
        File::open(tf).map_err(|e| format!("{tf}: {e}"))?,
        Alphabet::Protein,
    )
    .map_err(|e| format!("{tf}: {e}"))?;
    if queries.len() != targets.len() {
        return Err(format!(
            "record count mismatch: {} queries vs {} targets",
            queries.len(),
            targets.len()
        ));
    }

    // One candidate per (frame segment, exact protein k-mer seed); the
    // provenance runs parallel to `pairs` so each result can be mapped
    // back to its pair and frame after the block aligns.
    struct Provenance {
        pair: usize,
        frame: Frame,
        aa_offset: usize,
    }
    let mut pairs: Vec<ReadPair> = Vec::new();
    let mut provenance: Vec<Provenance> = Vec::new();
    for (i, (qr, tr)) in queries.iter().zip(&targets).enumerate() {
        let t = tr.seq.as_slice();
        let mut index: HashMap<&[u8], usize> = HashMap::new();
        if t.len() >= opts.k {
            // Reverse insertion order so the *first* occurrence of each
            // k-mer wins, matching the DNA seeder's convention.
            for pos in (0..=t.len() - opts.k).rev() {
                index.insert(&t[pos..pos + opts.k], pos);
            }
        }
        for seg in six_frame_segments(&qr.seq) {
            let s = seg.seq.as_slice();
            if s.len() < opts.k {
                continue;
            }
            let seed = (0..=s.len() - opts.k)
                .find_map(|q| index.get(&s[q..q + opts.k]).map(|&tpos| (q, tpos)));
            if let Some((qpos, tpos)) = seed {
                pairs.push(ReadPair {
                    query: seg.seq.clone(),
                    target: tr.seq.clone(),
                    seed: Seed {
                        qpos,
                        tpos,
                        len: opts.k,
                    },
                    template_len: seg.seq.len().max(tr.seq.len()),
                });
                provenance.push(Provenance {
                    pair: i,
                    frame: seg.frame,
                    aa_offset: seg.aa_offset,
                });
            }
        }
    }

    let backend = build_backend(opts);
    let (results, report) = backend.align_block(&pairs);
    println!("#query\ttarget\tframe\tscore\tq_aa_start\tq_aa_end\tt_start\tt_end\tcells");
    for (i, (qr, tr)) in queries.iter().zip(&targets).enumerate() {
        let best = provenance
            .iter()
            .zip(&results)
            .filter(|(p, _)| p.pair == i)
            .max_by_key(|(_, r)| r.score);
        match best {
            Some((p, r)) => println!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                qr.id,
                tr.id,
                p.frame.label(),
                r.score,
                p.aa_offset + r.query_start,
                p.aa_offset + r.query_end,
                r.target_start,
                r.target_end,
                r.cells()
            ),
            None => eprintln!(
                "warning: no stop-free frame of pair {} ({} / {}) shares a protein {}-mer; skipped",
                i, qr.id, tr.id, opts.k
            ),
        }
    }
    eprintln!(
        "translated {} queries into {} seeded frame segments on {} ({}): \
         {:.3} s simulated ({:.1} GCUPS), {:.3} s host wall",
        queries.len(),
        pairs.len(),
        backend.name(),
        opts.profile,
        report.sim_time_s,
        report.gcups(),
        report.wall_s
    );
    Ok(())
}

fn cmd_pairs(opts: &Opts) -> Result<(), String> {
    if opts.translated {
        return cmd_pairs_translated(opts);
    }
    let [qf, tf] = &opts.positional[..] else {
        return Err("pairs needs exactly two FASTA files".into());
    };
    let queries = read_fasta(File::open(qf).map_err(|e| format!("{qf}: {e}"))?)
        .map_err(|e| format!("{qf}: {e}"))?;
    let targets = read_fasta(File::open(tf).map_err(|e| format!("{tf}: {e}"))?)
        .map_err(|e| format!("{tf}: {e}"))?;
    if queries.len() != targets.len() {
        return Err(format!(
            "record count mismatch: {} queries vs {} targets",
            queries.len(),
            targets.len()
        ));
    }

    let mut pairs = Vec::new();
    let mut skipped = Vec::new();
    for (i, (qr, tr)) in queries.iter().zip(&targets).enumerate() {
        match find_seed(&qr.seq, &tr.seq, opts.k) {
            Some(seed) => pairs.push(ReadPair {
                query: qr.seq.clone(),
                target: tr.seq.clone(),
                seed,
                template_len: qr.seq.len().max(tr.seq.len()),
            }),
            None => skipped.push(i),
        }
    }
    for i in &skipped {
        eprintln!(
            "warning: no shared {}-mer for pair {} ({} / {}); skipped",
            opts.k, i, queries[*i].id, targets[*i].id
        );
    }

    let backend = build_backend(opts);
    let (results, report) = backend.align_block(&pairs);
    println!("#query\ttarget\tscore\tq_start\tq_end\tt_start\tt_end\tcells");
    let mut pi = 0usize;
    for (i, (qr, tr)) in queries.iter().zip(&targets).enumerate() {
        if skipped.contains(&i) {
            continue;
        }
        let r = &results[pi];
        pi += 1;
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            qr.id,
            tr.id,
            r.score,
            r.query_start,
            r.query_end,
            r.target_start,
            r.target_end,
            r.cells()
        );
    }
    eprintln!(
        "aligned {} pairs on {}: {:.3} s simulated ({:.1} GCUPS), {:.3} s host wall",
        pairs.len(),
        backend.name(),
        report.sim_time_s,
        report.gcups(),
        report.wall_s
    );
    Ok(())
}

fn cmd_overlap(opts: &Opts) -> Result<(), String> {
    let [rf] = &opts.positional[..] else {
        return Err("overlap needs exactly one FASTA file".into());
    };
    let config = BellaConfig {
        k: opts.k,
        min_overlap: opts.min_overlap,
        budget: opts.budget,
        seeder: opts.seeder,
        minimizer_w: opts.minimizer_w,
        // Depth is unknown for arbitrary input; a neutral default keeps
        // the reliable window sane and can be refined by the caller.
        depth: 20.0,
        ..BellaConfig::with_x(opts.x)
    };
    let pipeline = BellaPipeline::new(config);
    let backend = build_backend(opts);
    let file = File::open(rf).map_err(|e| format!("{rf}: {e}"))?;
    // The whole file parses before any counting or alignment spends
    // time, so a parse error fails fast with nothing computed.
    let records = read_fasta(file).map_err(|e| format!("{rf}: {e}"))?;
    let total: usize = records.iter().map(|r| r.seq.len()).sum();
    let (ids, seqs): (Vec<String>, Vec<Seq>) = records.into_iter().map(|r| (r.id, r.seq)).unzip();
    let out = if opts.stream {
        pipeline.run_streaming(seq_batches(&seqs, opts.budget.batch_reads), &*backend)
    } else {
        pipeline.run(&seqs, &*backend)
    };
    let mean_len = total / ids.len().max(1);

    println!("#read1\tread2\tscore\test_overlap\tq_span\tt_span\tkept");
    for o in &out.overlaps {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            ids[o.r1],
            ids[o.r2],
            o.result.score,
            o.est_overlap,
            o.result.query_span(),
            o.result.target_span(),
            o.kept as u8
        );
    }
    eprintln!(
        "{} reads (mean {} bp) -> {} candidates, {} kept; {} DP cells on {}{}{}",
        ids.len(),
        mean_len,
        out.stats.candidates,
        out.stats.kept,
        out.stats.total_cells,
        backend.name(),
        match opts.seeder {
            Seeder::SpGemm => String::new(),
            Seeder::Minimizer => format!(" [seeder: minimizer w={}]", opts.minimizer_w),
        },
        if opts.stream {
            format!(
                " [streaming: batch-reads {}, shards {}, inflight {}]",
                opts.budget.batch_reads, opts.budget.shards, opts.budget.inflight_blocks
            )
        } else {
            String::new()
        }
    );
    Ok(())
}

/// Smoke-run the always-on service end to end: seeded synthetic
/// requests from concurrent client threads through the threaded
/// [`Server`], one TSV row per request, ledger on stderr. Measurements
/// belong to `logan_serve::simulate` (simulated clock); this proves the
/// daemon.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    if !opts.positional.is_empty() {
        return Err("serve takes no positional arguments".into());
    }
    // Under --supervise the serving core applies the policy to its own
    // lanes, so the backend goes in unwrapped.
    let backend: Arc<dyn AlignBackend> = Arc::from(chaos_backend(opts));
    let name = backend.name();
    let supervise = opts.supervise.then(SupervisePolicy::default);
    let server = Server::start_with(backend, opts.serve, supervise)?;

    // The synthetic mix: request i carries 1–4 pairs of 150–450 bp
    // reads for tenant i % --tenants, all derived from --seed.
    let requests: Vec<(u32, Vec<ReadPair>)> = (0..opts.requests)
        .map(|i| {
            let tenant = (i % opts.tenants) as u32;
            let n = 1 + i % 4;
            let pairs =
                PairSet::generate_with_lengths(n, 0.2, 150, 450, opts.seed ^ ((i as u64) << 8))
                    .pairs;
            (tenant, pairs)
        })
        .collect();

    // --clients concurrent submitters, requests dealt round-robin; each
    // client submits its whole share before collecting replies, so the
    // queue actually sees concurrent pressure.
    let replies: Mutex<Vec<(usize, Reply)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in 0..opts.clients {
            let server = &server;
            let requests = &requests;
            let replies = &replies;
            scope.spawn(move || {
                let handles: Vec<(usize, logan::serve::ReplyHandle)> = requests
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % opts.clients == client)
                    .map(|(i, (tenant, pairs))| (i, server.submit(*tenant, pairs.clone())))
                    .collect();
                let mut got: Vec<(usize, Reply)> =
                    handles.into_iter().map(|(i, h)| (i, h.recv())).collect();
                replies.lock().expect("reply log poisoned").append(&mut got);
            });
        }
    });
    let stats = server.shutdown();

    let mut replies = replies.into_inner().expect("reply log poisoned");
    replies.sort_by_key(|(i, _)| *i);
    println!("#request\ttenant\tpairs\toutcome\tbatches\tscore_sum");
    for (i, reply) in &replies {
        let (tenant, pairs) = &requests[*i];
        match reply {
            Ok(resp) => {
                let score_sum: i64 = resp.results.iter().map(|r| r.score as i64).sum();
                println!(
                    "{i}\t{tenant}\t{}\tok\t{}\t{score_sum}",
                    pairs.len(),
                    resp.batches
                );
            }
            Err(e) => println!("{i}\t{tenant}\t{}\terr:{e}\t0\t0", pairs.len()),
        }
    }
    eprintln!(
        "served {} requests on {name} with {} clients: {} ok, {} over quota, {} failed, \
         {} past deadline; {} batches ({} pairs, {} coalesced, largest {})",
        stats.submitted,
        opts.clients,
        stats.completed,
        stats.over_quota,
        stats.failed,
        stats.deadline_exceeded,
        stats.batches,
        stats.batched_pairs,
        stats.coalesced_batches,
        stats.max_batch_pairs
    );
    // The exactly-once ledger, checked on every CLI run.
    if stats.submitted
        != stats.completed
            + stats.failed
            + stats.over_quota
            + stats.rejected_shutdown
            + stats.deadline_exceeded
    {
        return Err(format!("reply ledger does not balance: {stats:?}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if opts.translated && cmd != "pairs" {
        eprintln!("error: --translated applies to the pairs command only");
        return usage();
    }
    let result = match cmd.as_str() {
        "pairs" => cmd_pairs(&opts),
        "overlap" => cmd_overlap(&opts),
        "serve" => cmd_serve(&opts),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
