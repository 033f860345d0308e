#!/usr/bin/env bash
# The paired rule of the choosing-metrics guide, for one workload of the
# repo benchmark — or, with `all`, for every workload BENCHMARK.json
# names, one table each (what a no-claim PR shows to say "nothing
# moved"): a parent commit against the working tree.
#
#     scripts/bench_pairs.sh <parent-ref> <workload|all> [pairs=10] [seed=42]
#
# Exports <parent-ref> with `git archive` (no worktree entry is left in
# .git), builds benchmark/ of both sides once into separate target
# directories, then per workload runs `pairs` alternating pairs of
#
#     benchmark run --workload W --seed N --seconds 15 --trace 0
#
# flipping which side goes first each pair. Per end-to-end metric it
# prints both medians and quartiles, how many pairs the change won, and
# the parent's inter-quartile distance. A gain may be claimed when the
# change wins at least nine tenths of the pairs and the medians are
# further apart than that distance.
#
# BENCH_PAIRS_DIR (default: a fresh mktemp directory) holds the export,
# both target directories and every result line (<workload>.parent.jsonl
# and <workload>.change.jsonl, one line per run, in pair order).
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,25p' "$0" >&2
  exit 2
fi
ref=$1
selection=$2
pairs=${3:-10}
seed=${4:-42}

repo=$(cd "$(dirname "$0")/.." && pwd)
work=${BENCH_PAIRS_DIR:-$(mktemp -d)}
mkdir -p "$work/parent"
if [[ $selection == all ]]; then
  workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$repo/BENCHMARK.json")
else
  workloads=$selection
fi
echo "bench_pairs: $ref vs working tree, $workloads, $pairs pairs each, seed $seed, in $work" >&2

git -C "$repo" archive "$ref" | tar -x -C "$work/parent"
CARGO_TARGET_DIR="$work/target-parent" \
  cargo build --release --quiet --manifest-path "$work/parent/benchmark/Cargo.toml"
CARGO_TARGET_DIR="$work/target-change" \
  cargo build --release --quiet --manifest-path "$repo/benchmark/Cargo.toml"

# One run of one side of $workload, from its own package root; the
# driver's result line is the last line of standard output.
run_side() {
  local side=$1 root=$2
  (cd "$root/benchmark" &&
    "$work/target-$side/release/benchmark" run --workload "$workload" \
      --seed "$seed" --seconds 15 --trace 0 --out "$work/last-$side.json" |
    tail -n 1) >>"$work/$workload.$side.jsonl"
}

status=0
for workload in $workloads; do
  : >"$work/$workload.parent.jsonl"
  : >"$work/$workload.change.jsonl"
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
      run_side parent "$work/parent"
      run_side change "$repo"
    else
      run_side change "$repo"
      run_side parent "$work/parent"
    fi
    echo "bench_pairs: $workload pair $((i + 1))/$pairs done" >&2
  done

  echo "== $workload"
  python3 - "$work/$workload.parent.jsonl" "$work/$workload.change.jsonl" \
    "$repo/BENCHMARK.json" <<'EOF' || status=1
import json, statistics, sys

def load(path):
    return [json.loads(line) for line in open(path) if line.strip()]

parent, change = load(sys.argv[1]), load(sys.argv[2])
spec = json.load(open(sys.argv[3]))
pairs = len(parent)
bad = [side for side, runs in (("parent", parent), ("change", change))
       if not all(r["correct"] and r["failed"] == 0 for r in runs)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"{'metric':<22}{'parent med [q1, q3]':>36}{'change med [q1, q3]':>36}"
      f"{'wins':>8}{'delta':>9}{'parent iqr':>12}  verdict")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(p), quartiles(c)
    gain = (pmed - cmed) if lower else (cmed - pmed)
    iqr = pq3 - pq1
    if ties == pairs:
        verdict = "equal"
    elif wins >= 0.9 * pairs and gain > iqr:
        verdict = "gain"
    elif gain < 0 and -gain > metric["bound"] * abs(pmed):
        verdict = "WORSE than the bound"
    else:
        verdict = "no claim"
    rel = gain / abs(pmed) if pmed else 0.0
    print(f"{name:<22}{pmed:>14.4f} [{pq1:>9.4f},{pq3:>9.4f}]"
          f"{cmed:>14.4f} [{cq1:>9.4f},{cq3:>9.4f}]"
          f"{wins:>5}/{pairs:<2}{rel:>+9.1%}{iqr:>12.4f}  {verdict}")
if bad:
    sys.exit(f"output checks failed on: {', '.join(bad)}")
EOF
done
exit $status
