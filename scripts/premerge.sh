#!/usr/bin/env bash
# Pre-merge gate for LOGAN-rs. Run from the repository root:
#
#     ./scripts/premerge.sh          # full gate (what CI runs)
#     ./scripts/premerge.sh --quick  # skip the release build and benches
#
# Mirrors the tier-1 definition in ROADMAP.md plus the style gates:
# no-#[ignore] guard, rustfmt, clippy (warnings are errors), release
# build, the engine differential suite, the repo benchmark's own gate
# (benchmark/check.sh), the full test suite, and warning-free rustdoc.
# `--quick` skips the release build, the bench smokes and the benchmark
# gate, and leaves bench targets out of clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() { printf '\n==> %s\n' "$*"; }

step "guard: no #[ignore]d tests"
# An ignored test silently drops coverage — in particular the engine
# differential suite must never be muted. Fail if any sneaks in.
if grep -RIn --include='*.rs' -e '#\[ignore' crates src tests examples; then
  echo "error: #[ignore]d tests are not allowed (listed above)" >&2
  exit 1
fi

step "cargo fmt --check"
cargo fmt --check

if [[ $quick -eq 0 ]]; then
  step "cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  step "cargo build --release"
  cargo build --release

  step "fleet_scaling --quick smoke"
  # The scheduler bench in smoke mode: asserts both schedules stay
  # bit-identical on a real workload and exercises the probe/steal path
  # end to end (full-sweep speedup assertions run in the full binary).
  cargo run --release -q -p logan-bench --bin fleet_scaling -- --quick >/dev/null

  step "serve_load --quick smoke"
  # The serving harness in smoke mode: open-loop Poisson sweep on the
  # simulated clock, asserting the service invariants (exactly-one
  # outcome per arrival, per-tenant quota never exceeded) and that
  # coalescing beats per-request submission at overload.
  cargo run --release -q -p logan-bench --bin serve_load -- --quick >/dev/null

  step "minimizer_bench --quick smoke"
  # The seeding front-end's acceptance bar on a small seeded read set:
  # at the default (w=8, k=17) the minimizer + chaining seeder must
  # reach >= 95% of the SpGEMM path's recall while aligning <= 50% of
  # its candidate pairs (asserted inside the binary).
  cargo run --release -q -p logan-bench --bin minimizer_bench -- --quick >/dev/null

  step "engine_tiers --quick smoke"
  # The tier ladder's acceptance bar in smoke form: all four engines
  # bit-identical on every workload, with loosened (smoke) performance
  # floors on the i8-vs-i16 and adaptive-vs-best-fixed ratios (i8 >=
  # i16 and 7%; the tight 1.05x / 3% bounds are asserted by the full
  # binary).
  cargo run --release -q -p logan-bench --bin engine_tiers -- --quick >/dev/null

  step "protein_bench --quick smoke"
  # The protein scoring path's acceptance bar: scalar and SIMD engines
  # and a second backend bit-identical under BLOSUM62, and the i16
  # query-profile kernel sustaining >= 1.5x the scalar single-thread
  # GCUPS (asserted inside the binary).
  cargo run --release -q -p logan-bench --bin protein_bench -- --quick >/dev/null

  step "protein_homology example (asserts in-binary)"
  # The §VIII future-work demo: the homolog must rank first through both
  # engines (asserted equal) and through a profile-bound backend.
  cargo run --release -q --example protein_homology >/dev/null

  step "chaos_recovery --quick smoke"
  # One seeded storm on the simulated clock, both backend shapes:
  # supervised runs must complete 100% of non-poison requests, beat
  # the unsupervised baseline's goodput >= 1.5x on the fleet, and
  # replay an identical recovery trace (asserted inside the binary).
  cargo run --release -q -p logan-bench --bin chaos_recovery -- --quick >/dev/null
else
  step "cargo clippy (quick: benches skipped)"
  cargo clippy --workspace --lib --bins --tests --examples -- -D warnings
fi

step "differential suite: Engine::Simd vs Engine::Scalar vs gpusim"
cargo test -q --test simd_equivalence

step "engine-tiers: i8/i16/adaptive tier ladder diffs clean"
# The DESIGN.md §14 contract: every tier (i8/32-lane, i16/16-lane,
# adaptive) is bit-identical to scalar across random DNA and BLOSUM62
# pairs, X values straddling both eligibility boundaries, and forced
# saturation-escalation paths; tier dispatch and escalation counts are
# pinned through TierTally.
cargo test -q --test engine_tiers

step "protein-equivalence: ScoreProfile seam diffs clean (DNA bit-identity + BLOSUM + six-frame)"
# The profile contract: legacy Scoring, its profile wrapping and the
# dense-matrix spelling are bit-identical across engines and backends
# (proptest); scalar vs SIMD agree under BLOSUM62 on both sides of the
# i16 eligibility boundary; six-frame translation round-trips and stop
# codons segment frames exactly.
cargo test -q --test protein_equivalence

step "backend-equivalence: fleet/static/single backends diff clean"
# The backend/fleet contract: every AlignBackend — CPU pool, single GPU,
# static multi-GPU, work-stealing fleet — returns bit-identical results,
# across seeds and worker interleavings (proptest included).
cargo test -q --test backend_equivalence

step "serve-equivalence: coalesced serving diffs clean + shutdown/fault drills"
# The serving contract: whatever the coalescer batches or splits — and
# whichever lane wins each batch — replies are bit-identical to direct
# per-request alignment; admission refusals are explicit and quota-true;
# graceful shutdown drains exactly once; a panicking lane fails only its
# own requests and a fully-dead server fails fast instead of hanging.
cargo test -q --test serve_equivalence --test serve_shutdown

step "chaos-recovery: supervision transparent, storms recover, traces replay"
# The DESIGN.md §12 contract: supervision over a fault-free backend is
# bit-for-bit invisible (proptest); seeded storms through Supervised /
# Fleet quarantine / the serve simulator recover results identical to a
# healthy run; the same seed replays the identical TraceEvent sequence.
cargo test -q --test chaos_supervision

step "minimizer-equivalence: rolling canonical + chaining subset diff clean"
# The seeding contract: the rolling canonical k-mer iterator is
# bit-identical to the naive reverse complement; every minimizer-path
# candidate pair is a SpGEMM candidate pair (proptest over read sets and
# window sizes); the streaming minimizer pipeline matches the monolithic
# one under adversarial budgets.
cargo test -q --test minimizer_equivalence

step "candidates-equivalence: counter, matrix builder and SpGEMM diff clean vs naive references"
# The candidate-generation contract: the sort-and-scan k-mer counter
# equals a HashMap filled one k-mer at a time (homopolymers, reads
# shorter than k, k = 1 and 32, windows sitting on occurring
# multiplicities, every sharding); KmerMatrix::build equals any batching
# of push_batch; spgemm_candidates equals the concatenated tiles for
# every tile height and a scan of all row pairs.
cargo test -q -p logan-bella --test candidates_equivalence

step "allocation-count: warm AlignWorkspace and ReadPair::clone are allocation-free"
# The DESIGN.md §7 contract: zero heap allocations per extension once a
# workspace is warm (and per cloned pair: reads are shared, §8), run as
# its own step so a regression names itself.
cargo test -q --test alloc_count

step "streaming-equivalence: streaming pipeline diffs clean vs monolithic"
# The DESIGN.md §8 contract: on a seeded read set, the streaming,
# sharded dataflow reproduces the monolithic BELLA pipeline bit for bit
# (overlaps, stats, order) — from both the in-memory and FASTA sources.
cargo test -q --test bella_pipeline streaming_

step "peak-memory smoke: streaming below monolithic, candidate pairs hold no sequence bytes"
cargo test -q --test stream_mem

if [[ $quick -eq 0 ]]; then
  step "benchmark/check.sh: repo benchmark on tiny inputs, golden output digests"
  # The benchmark package's own gate (fmt, clippy, unit tests) plus every
  # workload once at --quick size, end to end and traced: outputs are
  # checked against benchmark/golden.json and Engine::Adaptive against
  # Engine::Scalar, so a kernel change that moves a single result fails
  # here before merge. (Design checks of a full-size `trace` describe
  # the kernel the benchmark was sized on and are not part of this gate.)
  benchmark/check.sh
fi

step "cargo test -q"
cargo test -q

step "cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

printf '\npremerge: all gates green\n'
