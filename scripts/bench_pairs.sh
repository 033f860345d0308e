#!/usr/bin/env bash
# The paired rule of the choosing-metrics guide, for one workload of the
# repo benchmark — or, with `all`, for every workload BENCHMARK.json
# names, one table each (what a no-claim PR shows to say "nothing
# moved"): a parent commit against the working tree.
#
#     scripts/bench_pairs.sh [--layers] <parent-ref> <workload|all> [pairs=10] [seed=42]
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
# With --layers, each workload's table is followed by one traced run
# (`--trace 1`) of each side and the per-layer metrics that differ: which
# layer moved, from the same script as the verdict. One run a side is a
# reading, not a measurement — times carry the run-to-run spread of the
# table above them. Counts of work repeat exactly, so a metric of unit
# `count` that differs between the sides is marked COUNT MOVED and the
# script exits non-zero: a change that aligns fewer cells or keeps fewer
# k-mers has not made the same work faster. (`serve.*` counts are what
# the coalescer did on the wall clock — batches formed, pairs a batch —
# and differ between two runs of one binary; they are only marked.)
# The `bella.kmer_count`, `bella.prune` and `bella.matrix` rows are
# tagged [recomposed]: they time the benchmark's recomposition of the
# stages (`count_kmers` + `reliable_kmers` + `KmerMatrix::build` over a
# set), not the one sort that `candidates()` runs.
#
# BENCH_PAIRS_DIR (default: a fresh mktemp directory) holds the export,
# both target directories and every result line (<workload>.parent.jsonl
# and <workload>.change.jsonl, one line per run, in pair order).
set -euo pipefail

layers=0
if [[ ${1:-} == --layers ]]; then
  layers=1
  shift
fi
if [[ $# -lt 2 ]]; then
  sed -n '2,38p' "$0" >&2
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

# One run of one side of $workload, from its own package root, traced
# or not; the driver's result line is the last line of standard output.
run_side() {
  local side=$1 root=$2 trace=${3:-0}
  local to=${4:-$work/$workload.$side.jsonl}
  (cd "$root/benchmark" &&
    "$work/target-$side/release/benchmark" run --workload "$workload" \
      --seed "$seed" --seconds 15 --trace "$trace" --out "$work/last-$side.json" |
    tail -n 1) >>"$to"
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

  if ((layers)); then
    : >"$work/$workload.parent.layers.json"
    : >"$work/$workload.change.layers.json"
    run_side parent "$work/parent" 1 "$work/$workload.parent.layers.json"
    run_side change "$repo" 1 "$work/$workload.change.layers.json"
    echo "-- $workload, per layer (one traced run a side; metrics that read the same are left out)"
    python3 - "$work/$workload.parent.layers.json" "$work/$workload.change.layers.json" \
      "$repo/BENCHMARK.json" <<'EOF' || status=1
import json, sys

parent, change = (json.load(open(path))["metrics"] for path in sys.argv[1:3])
recomposed = ("bella.kmer_count.", "bella.prune.", "bella.matrix.")
moved, tagged = [], False
print(f"{'layer metric':<34}{'parent':>16}{'change':>16}{'delta':>9}  unit")
for metric in json.load(open(sys.argv[3]))["per_layer"]:
    name = metric["name"]
    p, c = (side.get(name, {}).get("value", 0.0) for side in (parent, change))
    if p == c:
        continue
    rel = f"{(c - p) / abs(p):>+9.1%}" if p else f"{'new':>9}"
    note = ""
    if name.startswith(recomposed):
        note, tagged = "  [recomposed]", True
    if metric["unit"] == "count" and name.startswith("serve."):
        note = "  (follows the clock)"
    elif metric["unit"] == "count":
        note += "  COUNT MOVED"
        moved.append(name)
    print(f"{name:<34}{p:>16.6g}{c:>16.6g}{rel}  {metric['unit']}{note}")
if tagged:
    print("[recomposed]: the benchmark's recomposition (count_kmers + reliable_kmers +"
          " KmerMatrix::build over a set), not what candidates() runs")
if moved:
    sys.exit(f"the sides did different work: {', '.join(moved)}")
EOF
  fi
done
exit $status
