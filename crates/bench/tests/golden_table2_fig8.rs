//! Golden-file regression test: the `table2_fig8` binary, run at a
//! fixed tiny scale and seed, must reproduce its JSON artifact
//! byte-for-byte up to float formatting — the whole pipeline (read
//! simulation, X-drop work, device simulation, projection) is
//! deterministic, so any drift here is an unintended behaviour change.
//!
//! Floats are compared with a relative tolerance rather than textually;
//! non-finite values degrade to `null` in the writer (see the
//! `serde_json` subset) and compare as such. To regenerate the snapshot
//! after an *intended* change:
//!
//! ```sh
//! LOGAN_SCALE=0.00001 LOGAN_SEED=42 LOGAN_RESULTS_DIR=crates/bench/tests/golden \
//!     cargo run -p logan-bench --bin table2_fig8
//! ```

use std::path::PathBuf;
use std::process::Command;

/// A lexical JSON token; numbers carry their parsed value so the
/// comparison can be tolerant.
#[derive(Debug, PartialEq)]
enum Tok {
    Punct(char),
    Str(String),
    Num(f64),
    Null,
    Bool(bool),
}

/// Tokenize a JSON document (strings kept with their raw escapes — both
/// sides come from the same writer, so escape-level equality is exact).
fn lex(src: &str) -> Vec<Tok> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '{' | '}' | '[' | ']' | ',' | ':' => {
                toks.push(Tok::Punct(c));
                i += 1;
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += if bytes[j] == b'\\' { 2 } else { 1 };
                }
                toks.push(Tok::Str(src[start..j].to_string()));
                i = j + 1;
            }
            'n' => {
                assert_eq!(&src[i..i + 4], "null", "bad literal at byte {i}");
                toks.push(Tok::Null);
                i += 4;
            }
            't' => {
                assert_eq!(&src[i..i + 4], "true", "bad literal at byte {i}");
                toks.push(Tok::Bool(true));
                i += 4;
            }
            'f' => {
                assert_eq!(&src[i..i + 5], "false", "bad literal at byte {i}");
                toks.push(Tok::Bool(false));
                i += 5;
            }
            _ => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                let num: f64 = src[start..i].parse().unwrap_or_else(|e| {
                    panic!("bad number {:?} at byte {start}: {e}", &src[start..i])
                });
                toks.push(Tok::Num(num));
            }
        }
    }
    toks
}

fn assert_json_close(got: &str, want: &str) {
    let got_toks = lex(got);
    let want_toks = lex(want);
    assert_eq!(
        got_toks.len(),
        want_toks.len(),
        "token count drifted: got {} want {}",
        got_toks.len(),
        want_toks.len()
    );
    for (idx, (g, w)) in got_toks.iter().zip(&want_toks).enumerate() {
        let ok = match (g, w) {
            (Tok::Num(a), Tok::Num(b)) => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            _ => g == w,
        };
        assert!(ok, "token {idx} drifted: got {g:?} want {w:?}");
    }
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
fn lexer_handles_the_artifact_grammar() {
    let toks = lex(r#"{"a": [1, -2.5e3, null, true, false], "b\"c": "x"}"#);
    assert_eq!(toks.len(), 19);
    assert!(toks.contains(&Tok::Num(-2500.0)));
    assert!(toks.contains(&Tok::Str("b\\\"c".into())));
    assert!(toks.contains(&Tok::Null));
}

#[test]
fn tolerant_compare_accepts_formatting_noise_only() {
    assert_json_close("[1.0000000000001]", "[1.0]");
    let r = std::panic::catch_unwind(|| assert_json_close("[1.01]", "[1.0]"));
    assert!(r.is_err(), "a real drift must fail the comparison");
    let r = std::panic::catch_unwind(|| assert_json_close("[1, 2]", "[1]"));
    assert!(r.is_err(), "shape drift must fail the comparison");
}
