#!/usr/bin/env bash
# Gate for the benchmark package: format, lints, unit tests, then every
# workload once on tiny inputs, end to end and traced. `run --quick` also
# checks the result line's shape, that BENCHMARK.json names exactly the
# registry's workloads and metrics, and the thread count.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --all-targets -- -D warnings
cargo test --release --quiet
cargo build --release --quiet
bench=(cargo run --release --quiet --)

start=$(date +%s)
"${bench[@]}" run --quick
took=$(($(date +%s) - start))
if [ "$took" -gt 20 ]; then
    echo "run --quick took ${took}s, over the 20s it is allowed" >&2
    exit 1
fi
"${bench[@]}" trace --quick
echo "benchmark check passed (run --quick took ${took}s)"
