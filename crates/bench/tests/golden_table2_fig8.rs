//! Golden-file regression test: the `table2_fig8` binary, run at a
//! fixed tiny scale and seed, must reproduce its JSON artifact
//! byte-for-byte up to float formatting — the whole pipeline (read
//! simulation, X-drop work, device simulation, projection) is
//! deterministic, so any drift here is an unintended behaviour change.
//!
//! Both sides are read with `serde_json::parse_value` and compared as
//! trees, floats with a relative tolerance rather than textually;
//! non-finite values degrade to `null` in the writer (see the
//! `serde_json` subset) and compare as such. To regenerate the snapshot
//! after an *intended* change:
//!
//! ```sh
//! LOGAN_SCALE=0.00001 LOGAN_SEED=42 LOGAN_RESULTS_DIR=crates/bench/tests/golden \
//!     cargo run -p logan-bench --bin table2_fig8
//! ```

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::I64(n) => Some(n as f64),
        Value::U64(n) => Some(n as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

/// `got` against `want` at `path`: the same shape, keys and key order,
/// with numbers equal up to a 1e-9 relative tolerance.
fn assert_tree_close(got: &Value, want: &Value, path: &str) {
    match (got, want) {
        (Value::Seq(g), Value::Seq(w)) => {
            assert_eq!(g.len(), w.len(), "{path}: length drifted");
            for (i, (g, w)) in g.iter().zip(w).enumerate() {
                assert_tree_close(g, w, &format!("{path}[{i}]"));
            }
        }
        (Value::Map(g), Value::Map(w)) => {
            let keys = |m: &[(String, Value)]| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            assert_eq!(keys(g), keys(w), "{path}: keys drifted");
            for ((k, g), (_, w)) in g.iter().zip(w) {
                assert_tree_close(g, w, &format!("{path}.{k}"));
            }
        }
        _ => match (number(got), number(want)) {
            (Some(a), Some(b)) => assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                "{path} drifted: got {a} want {b}"
            ),
            _ => assert_eq!(got, want, "{path} drifted"),
        },
    }
}

fn assert_json_close(got: &str, want: &str) {
    let parse = |text| serde_json::parse_value(text).expect("valid JSON");
    assert_tree_close(&parse(got), &parse(want), "$");
}

#[test]
fn table2_fig8_matches_golden_snapshot() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_results");
    std::fs::create_dir_all(&out_dir).expect("scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_table2_fig8"))
        .env("LOGAN_SCALE", "0.00001")
        .env("LOGAN_SEED", "42")
        .env("LOGAN_RESULTS_DIR", &out_dir)
        .output()
        .expect("failed to launch table2_fig8");
    assert!(
        output.status.success(),
        "table2_fig8 failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let got = std::fs::read_to_string(out_dir.join("table2_fig8.json"))
        .expect("binary should have written its JSON artifact");
    let want = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/table2_fig8.json"),
    )
    .expect("checked-in golden snapshot");
    assert_json_close(&got, &want);
}

#[test]
fn tolerant_compare_accepts_formatting_noise_only() {
    assert_json_close("[1.0000000000001]", "[1.0]");
    let r = std::panic::catch_unwind(|| assert_json_close("[1.01]", "[1.0]"));
    assert!(r.is_err(), "a real drift must fail the comparison");
    let r = std::panic::catch_unwind(|| assert_json_close("[1, 2]", "[1]"));
    assert!(r.is_err(), "shape drift must fail the comparison");
}
