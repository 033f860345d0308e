#!/usr/bin/env bash
# Pre-merge gate for LOGAN-rs. Run from the repository root:
#
#     ./scripts/premerge.sh          # full gate (what CI runs)
#     ./scripts/premerge.sh --quick  # skip the release build and what runs on it
#
# Mirrors the tier-1 definition in ROADMAP.md plus the style gates:
# no-#[ignore] guard, one-kernel-source, one-recurrence,
# one-supervisor, one-concurrent-component, one-serving-core,
# one-pipeline-driver, reports-are-written-never-read and
# public-surface-has-callers guards, rustfmt,
# clippy (warnings are errors),
# release build, the engine_tiers smoke, the protein_homology example,
# the repo benchmark's own gate (benchmark/check.sh), the test suite,
# and warning-free rustdoc.
# Every differential/contract suite (tests/*.rs, crates/*/tests/*.rs)
# runs exactly once, inside the single `cargo test -q`; DESIGN.md §4
# maps each suite to the contract it pins. Only steps that run
# something `cargo test -q` does not get a step of their own.
# `--quick` skips the release build, the release smokes and the
# benchmark gate.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() { printf '\n==> %s\n' "$*"; }

step "guard: no #[ignore]d tests"
# An ignored test silently drops coverage — in particular the
# differential suites must never be muted. Fail if any sneaks in.
if grep -RIn --include='*.rs' -e '#\[ignore' crates src tests examples; then
  echo "error: #[ignore]d tests are not allowed (listed above)" >&2
  exit 1
fi

step "guard: one kernel source (unsafe only at the two ISA dispatch calls, no intrinsics)"
# logan-align is safe, bounds-checked code compiled twice (DESIGN.md
# §14): the only `unsafe` allowed under crates/align/src is the call of
# an AVX2-compiled wrapper in run_i16 and run_i8, and vendor intrinsics
# are not allowed at all — a hand-written kernel would be a second
# source the differential suites do not know about.
unsafe_sites=$(grep -RInE --include='*.rs' '\bunsafe\b' crates/align/src |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
dispatch_sites=$(grep -cE 'simd\.rs:[0-9]+:[[:space:]]*return unsafe \{ i(8|16)_kernel_avx2\(' \
  <<<"$unsafe_sites" || true)
if [[ $(grep -c . <<<"$unsafe_sites" || true) -ne 2 || $dispatch_sites -ne 2 ]]; then
  echo "$unsafe_sites"
  echo "error: crates/align/src must hold exactly two \`unsafe\` sites, the" \
    "i16_kernel_avx2 / i8_kernel_avx2 dispatch calls in simd.rs (found above)" >&2
  exit 1
fi
if grep -RInE --include='*.rs' \
  -e 'core::arch::' -e 'std::arch::[a-z0-9_]+::' -e '\b_mm[0-9]*_' crates/align/src; then
  echo "error: vendor intrinsics are not allowed under crates/align/src (listed above)" >&2
  exit 1
fi

step "guard: one recurrence (the simulated kernel charges costs, it computes no cells)"
# The LOGAN kernel in logan-core runs the host engines' recurrence and
# books SIMT costs from the per-anti-diagonal statistics they hand its
# sink (DESIGN.md §2). Outside #[cfg(test)], crates/core/src must not
# name the scalar rings, the lane stepper or the −∞ sentinel: a fourth
# copy of the recurrence could not be written without them.
recurrence_sites=$(for f in crates/core/src/*.rs; do
  awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$f"
done | grep -E '\b(ScalarRings|AntiDiag|SimdState|NEG_INF)\b' || true)
if [[ -n "$recurrence_sites" ]]; then
  echo "$recurrence_sites"
  echo "error: crates/core/src computes X-drop cells itself (listed above);" \
    "run an Engine with a StepSink instead (logan_core::kernel)" >&2
  exit 1
fi

step "guard: one supervisor (a block's fate after a fault is decided once, in logan_core::faults)"
# Supervised, the fleet and the serve simulator apply the verdicts of
# faults::Supervisor, each on its own clock (DESIGN.md §12). Outside
# #[cfg(test)] and comments, crates/*/src builds TraceEvent::Poisoned at
# exactly one site and calls backoff_s( at exactly one: a second
# supervision loop could not poison a block or back off without them.
non_test_src=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
  awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$f"
done | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
# (A `Poisoned { .. } =>` match arm reads the event; it builds nothing.)
poison_sites=$(grep -E 'TraceEvent::Poisoned \{' <<<"$non_test_src" |
  grep -vE 'Poisoned \{[^}]*\}[[:space:]]*=>' || true)
backoff_sites=$(grep -E '\bbackoff_s\(' <<<"$non_test_src" | grep -vE 'fn backoff_s\(' || true)
if [[ $(grep -c . <<<"$poison_sites" || true) -ne 1 ||
  $(grep -c . <<<"$backoff_sites" || true) -ne 1 ]]; then
  printf '%s\n%s\n' "$poison_sites" "$backoff_sites"
  echo "error: crates/*/src must build TraceEvent::Poisoned at exactly one site and" \
    "call backoff_s( at exactly one (found above); apply a faults::Supervisor" \
    "verdict instead of re-implementing it" >&2
  exit 1
fi

step "guard: one concurrent component (only logan-serve waits on a condition variable)"
# The fleet's dynamic schedule is one event loop on the virtual clock
# (DESIGN.md §9), so logan-serve's Server is the one component whose
# threads wait on each other. Outside #[cfg(test)] and comments,
# crates/*/src names Condvar only under crates/serve/src: a second
# turnstile would bring thread interleaving back into an outcome.
condvar_sites=$(grep -E '\bCondvar\b' <<<"$non_test_src" | grep -vE '^crates/serve/src/' || true)
if [[ -n "$condvar_sites" ]]; then
  echo "$condvar_sites"
  echo "error: Condvar outside crates/serve/src (listed above); schedule on a" \
    "virtual clock instead of making threads wait" >&2
  exit 1
fi

step "guard: one serving core (the coalescer and admission are built once, in logan-serve's core)"
# The threaded Server, the simulator and the order explorer drive one
# clockless ServeCore (DESIGN.md §10). Outside #[cfg(test)] and comments,
# crates/serve/src calls Coalescer::new( and Admission::new( once each:
# a second assembly table, ledger or lane-retirement rule could not be
# kept without a queue and an admission state of its own.
serve_src=$(grep -E '^crates/serve/src/' <<<"$non_test_src" || true)
coalescer_sites=$(grep -E '\bCoalescer::new\(' <<<"$serve_src" || true)
admission_sites=$(grep -E '\bAdmission::new\(' <<<"$serve_src" || true)
if [[ $(grep -c . <<<"$coalescer_sites" || true) -ne 1 ||
  $(grep -c . <<<"$admission_sites" || true) -ne 1 ]]; then
  printf '%s\n%s\n' "$coalescer_sites" "$admission_sites"
  echo "error: crates/serve/src must call Coalescer::new( and Admission::new( exactly" \
    "once each (found above); drive the one ServeCore instead of keeping a second" \
    "serving state machine" >&2
  exit 1
fi

step "guard: one pipeline driver (the seed index and the classifier are built once, in the BELLA pipeline)"
# run, candidates and run_streaming are the one-tile and the streaming
# case of the same stages (DESIGN.md §8). Outside #[cfg(test)] and
# comments, crates/bella/src matches Seeder::Minimizer => once and calls
# AdaptiveThreshold::new( once: a second copy of the stages could not
# build a seed index or classify an overlap without them.
bella_src=$(grep -E '^crates/bella/src/' <<<"$non_test_src" || true)
seeder_sites=$(grep -E 'Seeder::Minimizer =>' <<<"$bella_src" || true)
threshold_sites=$(grep -E '\bAdaptiveThreshold::new\(' <<<"$bella_src" || true)
if [[ $(grep -c . <<<"$seeder_sites" || true) -ne 1 ||
  $(grep -c . <<<"$threshold_sites" || true) -ne 1 ]]; then
  printf '%s\n%s\n' "$seeder_sites" "$threshold_sites"
  echo "error: crates/bella/src must match Seeder::Minimizer => and call" \
    "AdaptiveThreshold::new( exactly once each (found above); run the stages of" \
    "crates/bella/src/pipeline.rs instead of a second copy of them" >&2
  exit 1
fi

step "guard: reports are written, never read (no typed JSON reader)"
# The program writes its reports and turns no JSON back into a typed
# value (DESIGN.md §4): serde derives Serialize on the artifacts it
# writes, and the benchmark reads JSON as an untyped serde::Value
# (serde_json::parse_value). A Deserialize impl would be a second,
# unchecked way into types whose FromStr grammars bound every value.
if grep -RInE --include='*.rs' \
  -e '\bDeserialize(Error)?\b' -e '\bfrom_value\b' -e 'serde_json::from_str\b' \
  crates src tests examples third_party; then
  echo "error: typed deserialization is not allowed (listed above); read JSON" \
    "with serde_json::parse_value, or compare the written bytes" >&2
  exit 1
fi

step "guard: public surface has callers (every pub item under crates/*/src is used beyond its file)"
# dead_code cannot see a `pub` item of a library crate (DESIGN.md §4):
# outside #[cfg(test)] and comments, each pub fn / type / const under
# crates/*/src must be named in another file under crates, src, tests,
# examples or benchmark, or by the signature of one that is;
# scripts/pub_surface.allow holds intended API with no caller yet.
scripts/pub_surface.sh

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $quick -eq 0 ]]; then
  step "cargo build --release"
  cargo build --release

  step "engine_tiers --quick smoke"
  # The tier ladder in smoke form: all four engines and the i16
  # kernel's portable compilation bit-identical on every regime, and
  # each engine running the tiers it should (read from TierTally; no
  # wall-clock bound is asserted).
  cargo run --release -q -p logan-bench --bin engine_tiers -- --quick >/dev/null

  step "protein_homology example (asserts in-binary)"
  # The §VIII future-work demo: the homolog must rank first through both
  # engines (asserted equal) and through a profile-bound backend.
  cargo run --release -q --example protein_homology >/dev/null

  step "benchmark/check.sh: repo benchmark on tiny inputs, golden output digests"
  # The benchmark package's own gate (fmt, clippy, unit tests) plus every
  # workload once at --quick size, end to end and traced: outputs are
  # checked against benchmark/golden.json and Engine::Adaptive against
  # Engine::Scalar, so a kernel change that moves a single result fails
  # here before merge. (Design checks of a full-size `trace` describe
  # the kernel the benchmark was sized on and are not part of this gate.)
  benchmark/check.sh
fi

step "cargo test -q (tier-1: unit tests + every contract suite of DESIGN.md §4, once)"
cargo test -q

step "cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

printf '\npremerge: all gates green\n'
