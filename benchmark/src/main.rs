//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! benchmark trace   [--workload NAME] [--seed N] [--quick] [--out FILE]     (= run --trace 1)
//! benchmark compare A.json B.json
//! ```
//!
//! With `--workload` the last line of standard output is the driver's
//! result object; without it every workload runs and a table is printed.

mod bella;
mod compare;
mod gen;
mod kernel;
mod meter;
mod metrics;
mod pairs;
mod serve;
mod simlayers;
mod trace;

use metrics::{Metric, Outcome, Request, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use trace::Tracer;

#[global_allocator]
static ALLOC: meter::CountingAlloc = meter::CountingAlloc;

/// The seed whose output digests `golden.json` holds.
const DEFAULT_SEED: u64 = 42;
/// Default `--seconds`; the same number is `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]\n  \
         benchmark trace [--workload NAME] [--seed N] [--quick] [--out FILE]\n  \
         benchmark compare A.json B.json\nworkloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(command: &str, rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: command == "trace",
        scale: Scale::Full,
        out: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            "--quick" => args.scale = Scale::Quick,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Committed output digests for [`DEFAULT_SEED`], per scale and workload.
fn golden(workload: &str, args: &Args) -> Option<u64> {
    if args.seed != DEFAULT_SEED {
        return None;
    }
    let doc = serde_json::parse_value(include_str!("../golden.json")).expect("golden.json parses");
    let scale = match args.scale {
        Scale::Full => "full",
        Scale::Quick => "quick",
    };
    match compare::get(compare::get(&doc, scale)?, workload)? {
        Value::Str(hex) => Some(u64::from_str_radix(hex, 16).expect("golden digests are hex")),
        _ => None,
    }
}

fn run_workload(name: &str, args: &Args, tracer: &Arc<Tracer>) -> Outcome {
    let req = Request {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
    };
    let golden = golden(name, args);
    match (name, args.trace) {
        (pairs::NAME, false) => pairs::run(&req, golden),
        (pairs::NAME, true) => pairs::trace(&req, tracer),
        (serve::NAME, false) => serve::run(&req, golden),
        (serve::NAME, true) => serve::trace(&req, tracer),
        (fasta, false) => bella::run(&bella::spec(fasta, args.scale), &req, golden),
        (fasta, true) => bella::trace(&bella::spec(fasta, args.scale), &req, tracer),
    }
}

fn first_line(command: &str, args: &[&str]) -> String {
    std::process::Command::new(command)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The machine every result file records, so numbers are never compared
/// across boxes by accident.
fn machine() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Map(vec![
        ("nproc".into(), Value::Str(first_line("nproc", &[]))),
        (
            "available_parallelism".into(),
            Value::U64(parallelism as u64),
        ),
        ("cpu_model".into(), Value::Str(model)),
        ("rustc".into(), Value::Str(first_line("rustc", &["-V"]))),
        (
            "commit".into(),
            Value::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_json(path: &Path, value: Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&compare::Raw(value)).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn print_outcome(name: &str, outcome: &Outcome, metrics: &[Metric]) {
    println!(
        "{name}  input_digest {:016x}  output_digest {:016x}",
        outcome.input_digest, outcome.output_digest
    );
    for m in metrics {
        let samples = outcome.samples_of(m.name);
        let spread = if samples.len() > 1 {
            format!(
                "   [q1 {:.4}, q3 {:.4}, n = {}]",
                meter::percentile(samples, 0.25),
                meter::percentile(samples, 0.75),
                samples.len()
            )
        } else {
            String::new()
        };
        println!(
            "  {:<34} {:>16.6} {}{spread}",
            m.name,
            outcome.value(m.name),
            m.unit
        );
    }
    println!(
        "  {:<34} {:>16.6} share   ({} of {} operations)",
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for why in &outcome.failures {
        println!("  FAILED: {why}");
    }
}

/// What the workloads were built to show, checked on the traced results
/// of a full-size run of all five.
fn design_violations(results: &[(&str, Outcome)]) -> Vec<String> {
    let value = |workload: &str, metric: &str| {
        results
            .iter()
            .find(|(name, _)| *name == workload)
            .map_or(0.0, |(_, o)| o.value(metric))
    };
    let mut bad = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    for w in ["overlap_spgemm_x50", "overlap_minimizer_x7_stream"] {
        let share = value(w, "align.extend.busy_s") / value(w, "trace.wall_s");
        require(
            share >= 0.8,
            format!("{w}: extension is {share:.3} of the wall, below 0.8"),
        );
    }
    require(
        value("candidates_spgemm", "align.extend.busy_s") == 0.0,
        "candidates_spgemm: the align layer ran".into(),
    );
    let (narrow, wide) = (
        value("overlap_minimizer_x7_stream", "align.extend.gcups"),
        value("overlap_spgemm_x50", "align.extend.gcups"),
    );
    require(
        narrow <= wide / 2.0,
        format!("narrow-band GCUPS {narrow:.3} is above half the wide-band {wide:.3}"),
    );
    require(
        value("pairs_blosum62_x400", "align.tier.i16_share") == 1.0,
        "pairs_blosum62_x400: not every extension ran on the i16 tier".into(),
    );
    let busy = value("serve_cpu_open", "serve.lane_busy_share");
    require(
        (0.4..=0.7).contains(&busy),
        format!("serve_cpu_open: lane utilisation {busy:.3} is outside 0.4..0.7"),
    );
    let late = value("serve_cpu_open", "serve.generator_late_ms_max");
    require(
        late < 10.0,
        format!("serve_cpu_open: the generator ran {late:.2} ms late"),
    );
    bad
}

/// `run --quick` also checks the benchmark against its own declaration:
/// `BENCHMARK.json` names exactly the registry's workloads and metrics,
/// and the driver's result line has the contract's shape.
fn self_check(line: &str, metrics: &[Metric]) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<String> {
        match compare::get(&doc, key) {
            Some(Value::Seq(items)) => items
                .iter()
                .filter_map(|i| match compare::get(i, "name") {
                    Some(Value::Str(s)) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let declared = |key: &str, want: Vec<&str>| {
        if names(key) == want {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json `{key}` does not match the registry"
            ))
        }
    };
    declared("workloads", WORKLOADS.to_vec())?;
    declared("end_to_end", END_TO_END.iter().map(|m| m.name).collect())?;
    declared("per_layer", PER_LAYER.iter().map(|m| m.name).collect())?;

    let parsed = serde_json::parse_value(line).map_err(|e| format!("result line: {e}"))?;
    for key in ["correct", "attempted", "failed", "metrics"] {
        compare::get(&parsed, key).ok_or(format!("result line lacks `{key}`"))?;
    }
    let Some(Value::Map(reported)) = compare::get(&parsed, "metrics") else {
        return Err("result line `metrics` is not an object".into());
    };
    if reported.len() != metrics.len() {
        return Err("result line does not carry every metric exactly once".into());
    }
    Ok(())
}

/// Samples the live thread count while `--quick` runs; the benchmark must
/// never need more threads than the box has cores, besides the waiting
/// main thread.
struct ThreadWatch {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    handle: std::thread::JoinHandle<()>,
}

impl ThreadWatch {
    fn start() -> ThreadWatch {
        let (stop, peak) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicUsize::new(0)),
        );
        let (s, p) = (stop.clone(), peak.clone());
        let handle = std::thread::spawn(move || {
            while !s.load(Relaxed) {
                p.fetch_max(meter::live_threads(), Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        ThreadWatch { stop, peak, handle }
    }

    /// Peak threads besides the main thread and the watch itself.
    fn finish(self) -> usize {
        self.stop.store(true, Relaxed);
        self.handle.join().expect("the thread watch does not panic");
        self.peak.load(Relaxed).saturating_sub(2)
    }
}

fn run(args: Args) -> Result<bool, String> {
    let tracer = Arc::new(Tracer::new());
    let metrics: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = match &args.workload {
        Some(one) => vec![one.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let watch = (args.scale == Scale::Quick).then(ThreadWatch::start);
    let mut results: Vec<(&str, Outcome)> = Vec::new();
    for name in names {
        let outcome = run_workload(name, &args, &tracer);
        print_outcome(name, &outcome, metrics);
        results.push((name, outcome));
    }
    let mut ok = results.iter().all(|(_, o)| o.failed == 0);

    if let Some(watch) = watch {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let extra = watch.finish();
        if extra > cores.max(2) {
            return Err(format!(
                "{extra} threads ran beside the main thread on {cores} cores"
            ));
        }
        self_check(&results[0].1.driver_line(metrics), metrics)?;
        println!(
            "quick self-check passed: {extra} threads beside main, registry matches BENCHMARK.json"
        );
    }
    if args.trace && args.workload.is_none() && args.scale == Scale::Full {
        for violation in design_violations(&results) {
            println!("DESIGN CHECK FAILED: {violation}");
            ok = false;
        }
    }

    let kind = if args.trace { "trace" } else { "run" };
    let file = Value::Map(vec![
        ("schema".into(), Value::U64(1)),
        ("kind".into(), Value::Str(kind.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::U64(args.seconds)),
        ("quick".into(), Value::Bool(args.scale == Scale::Quick)),
        ("machine".into(), machine()),
        (
            "workloads".into(),
            Value::Map(
                results
                    .iter()
                    .map(|(name, o)| (name.to_string(), o.to_json(metrics)))
                    .collect(),
            ),
        ),
    ]);
    let default_name = if args.trace {
        "layers.json"
    } else {
        "run.json"
    };
    write_json(
        &args.out.unwrap_or_else(|| out_dir().join(default_name)),
        file,
    )?;
    if args.trace {
        write_json(&out_dir().join("trace.json"), tracer.to_json())?;
    }
    if let (Some(_), [(_, outcome)]) = (&args.workload, results.as_slice()) {
        println!("{}", outcome.driver_line(metrics));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return usage();
    };
    let outcome = match command.as_str() {
        "run" | "trace" => parse_args(command, rest).and_then(run),
        "compare" => match rest {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => return usage(),
        },
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
