//! Command-line values that once crashed or hung `logan_cli overlap`:
//! each must end in a usage error with a message (exit 2) or in normal
//! output, never in a panic or a hang. The binary runs as a child
//! process under a timeout, on a 40-read FASTA written for the test.
//!
//! * `--seeder minimizer:W` with `W` near `usize::MAX` — the sketch's
//!   window arithmetic wrapped (`w + 1`, `pos + w`); a window longer
//!   than a read now selects the read's single minimum;
//! * `-k 0` and `-k 33` — out of the range a k-mer packs into, once a
//!   panic deep in the k-mer iterator, now rejected at parse;
//! * `--shards usize::MAX` — one pass over the reads per wave, most of
//!   them empty: the counter clamps the waves to its partitions;
//! * `--inflight usize::MAX` — the block channel allocated its bound up
//!   front: the pipeline clamps it to the blocks that can exist;
//! * `--matrix dna:1,-2147483648,-1` and `dna:1073741824,-1,-1` — one
//!   cell's score wrapped the X-drop kernels' −∞ sentinel
//!   (`i32::MIN / 2`): an overflow panic in a debug build, a wrapped
//!   score in a release build. `ScoreProfile::from_str` now bounds
//!   every value it reads.

use logan::seq::fasta::{write_fasta, Record};
use logan::seq::readsim::ReadSimulator;
use logan::seq::ErrorProfile;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const MAX: &str = "18446744073709551615";

/// How long one run may take before it counts as a hang: the slowest
/// case here (1 024 counting waves in a debug build) takes a few seconds.
const TIMEOUT: Duration = Duration::from_secs(120);

/// A 40-read FASTA of one small genome, in a file of this test's own.
fn reads_fasta() -> PathBuf {
    let sim = ReadSimulator {
        read_len: (500, 900),
        errors: ErrorProfile::pacbio(0.05),
        ..ReadSimulator::uniform(5_000, 8.0)
    };
    let records: Vec<Record> = sim
        .generate(3)
        .reads
        .into_iter()
        .take(40)
        .enumerate()
        .map(|(i, r)| Record {
            id: format!("read{i}"),
            seq: r.seq,
        })
        .collect();
    assert_eq!(records.len(), 40);
    let path = std::env::temp_dir().join(format!("logan_cli_args_{}.fa", std::process::id()));
    let mut text = Vec::new();
    write_fasta(&mut text, &records, 80).expect("FASTA into memory");
    std::fs::write(&path, text).expect("write the test FASTA");
    path
}

/// Exit code, stdout and stderr of one run, or a failure on timeout.
fn run(args: &[&str]) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_logan_cli"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn logan_cli");
    // Drain both pipes on their own threads, so a full pipe cannot stall
    // the child while this thread waits for it.
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut text = String::new();
            pipe.read_to_string(&mut text).expect("read child output");
            text
        })
    };
    let stdout = drain(Box::new(child.stdout.take().expect("piped stdout")));
    let stderr = drain(Box::new(child.stderr.take().expect("piped stderr")));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll logan_cli") {
            break status;
        }
        if start.elapsed() > TIMEOUT {
            child.kill().expect("kill the hung child");
            child.wait().expect("reap the killed child");
            panic!("logan_cli {args:?} still running after {TIMEOUT:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let (out, err) = (
        stdout.join().expect("stdout reader"),
        stderr.join().expect("stderr reader"),
    );
    assert!(
        !err.contains("panicked"),
        "logan_cli {args:?} panicked:\n{err}"
    );
    (
        status.code().expect("exited, not killed by a signal"),
        out,
        err,
    )
}

/// `overlap` on `fasta` with `extra` options; the kept overlaps.
fn overlap(fasta: &str, extra: &[&str]) -> String {
    let mut args = vec![
        "overlap",
        fasta,
        "--backend",
        "cpu:1",
        "-x",
        "20",
        "--min-overlap",
        "200",
    ];
    args.extend_from_slice(extra);
    let (code, out, err) = run(&args);
    assert_eq!(code, 0, "logan_cli {args:?} failed:\n{err}");
    assert!(out.starts_with("#read1"), "no overlap table: {out}");
    out
}

/// A usage error: exit 2 with a message naming `what`.
fn rejected(fasta: &str, extra: &[&str], what: &str) {
    let mut args = vec!["overlap", fasta];
    args.extend_from_slice(extra);
    let (code, _, err) = run(&args);
    assert_eq!(code, 2, "logan_cli {args:?} was not a usage error:\n{err}");
    assert!(err.contains(what), "message does not name {what}: {err}");
}

#[test]
fn out_of_range_values_end_in_an_error_or_output() {
    let path = reads_fasta();
    let fasta = path.to_str().expect("UTF-8 temp path");

    // A window longer than every read: one minimizer a read, the same
    // as any other window past the longest read's k-mer count.
    let long = overlap(fasta, &["--seeder", "minimizer:100000"]);
    assert!(long.lines().count() > 1, "no overlaps at all: {long}");
    for extra in [
        &["--seeder", &format!("minimizer:{MAX}")][..],
        &["--seeder", &format!("minimizer:{MAX}"), "--stream"],
    ] {
        assert_eq!(overlap(fasta, extra), long, "{extra:?}");
    }

    for k in ["0", "33"] {
        rejected(fasta, &["-k", k], "-k");
        rejected(fasta, &["-k", k, "--seeder", "minimizer"], "-k");
    }
    for matrix in ["dna:1,-2147483648,-1", "dna:1073741824,-1,-1"] {
        rejected(fasta, &["--matrix", matrix], "--matrix");
    }

    // Budget values clamp to ones that cannot change the output.
    for seeder in ["spgemm", "minimizer"] {
        let streamed = overlap(fasta, &["--stream", "--seeder", seeder]);
        for knob in ["--shards", "--inflight"] {
            let extra = ["--stream", "--seeder", seeder, knob, MAX];
            assert_eq!(overlap(fasta, &extra), streamed, "{extra:?}");
        }
    }
    std::fs::remove_file(&path).expect("remove the test FASTA");
}

/// The `failed` count of `serve`'s stderr ledger line.
fn serve_failed(extra: &[&str]) -> usize {
    let mut args = vec![
        "serve",
        "--backend",
        "multi:2",
        "--chaos",
        "7:0=failstop@0",
        "--serve",
        "batch=2",
    ];
    args.extend_from_slice(extra);
    let (code, out, err) = run(&args);
    assert_eq!(code, 0, "logan_cli {args:?} failed:\n{err}");
    assert_eq!(out.lines().count(), 33, "one row a request: {out}");
    let ledger = err
        .lines()
        .find(|l| l.starts_with("served "))
        .unwrap_or_else(|| panic!("no ledger line: {err}"));
    let failed = ledger
        .split(", ")
        .find_map(|part| part.strip_suffix(" failed"))
        .unwrap_or_else(|| panic!("no failed count: {ledger}"));
    failed.parse().expect("a count")
}

/// `serve --supervise` hands the policy to the serving core: lane 0
/// fail-stops on its first batch, the core retires it and moves the
/// batch to lane 1, and nothing fails. The bare run of the same storm
/// fails the batches lane 0 took.
#[test]
fn serve_supervise_moves_a_failstopped_lanes_batch() {
    assert_eq!(serve_failed(&["--supervise"]), 0);
    assert!(
        serve_failed(&[]) > 0,
        "the bare run must fail lane 0's batch"
    );
}
