#!/usr/bin/env bash
# Paired A/B of the paper benchmark: a git revision against the working
# tree, on the end-to-end metrics BENCHMARK.json declares.
#
# Usage (from the repository root):
#
#   ./scripts/ab.sh PARENT [N] [WORKLOAD]
#
#   PARENT    any git revision (HEAD~, a commit hash, a branch)
#   N         number of pairs (default 5)
#   WORKLOAD  paperbench workload (default paper-service)
#
# PARENT is exported with `git archive` into .bench_build/ab/parent,
# which keeps its build cache across invocations; the working tree is
# used as it is, uncommitted changes included. Each pair runs
#   bash paperbench/run.sh --workload W --seed S --seconds 40 --trace 0
# once in each checkout. Pair i uses seed i+1 on both sides, and the side
# that runs first alternates, so host drift lands on both sides alike.
# Every result line is kept in .bench_build/ab/runs/.
#
# For each end-to-end metric the summary prints both sides' median and
# quartiles, how many pairs the working tree won, and a verdict:
#   resolved           the working tree is better on at least 90% of the
#                      pairs and its median beats the parent's by more
#                      than the parent's interquartile range;
#   regressed          the same, in the worse direction;
#   inside parent IQR  neither.
# The script exits non-zero if any run is not `correct` (its figures do
# not match paperbench/digests.txt) or fails to produce a result line.
set -euo pipefail

parent=${1:?usage: scripts/ab.sh PARENT [N] [WORKLOAD]}
pairs=${2:-5}
workload=${3:-paper-service}

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/paperbench/run.sh" ]; then
	echo "ab: run from the repository root" >&2
	exit 2
fi
case "$pairs" in
'' | *[!0-9]*) echo "ab: N must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac
if [ "$pairs" -lt 1 ]; then
	echo "ab: N must be at least 1" >&2
	exit 2
fi
rev=$(git rev-parse --verify "$parent^{commit}")

ab="$root/.bench_build/ab"
# The parent's own .bench_build (its Go build cache) survives re-runs;
# everything else is replaced by a fresh export.
mkdir -p "$ab/parent"
find "$ab/parent" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
rm -rf "$ab/runs"
mkdir -p "$ab/runs"
git archive "$rev" | tar -x -C "$ab/parent"
echo "ab: parent $parent = ${rev:0:12} in $ab/parent; $pairs pairs of $workload" >&2

# one SIDE DIR PAIR: one paperbench run, its last line kept as the result.
one() {
	local side=$1 dir=$2 i=$3
	local log="$ab/runs/$side-$i.log"
	(cd "$dir" && bash paperbench/run.sh --workload "$workload" --seed $((i + 1)) --seconds 40 --trace 0) >"$log" 2>&1 || true
	tail -n 1 "$log" >"$ab/runs/$side-$i.json"
	echo "ab: pair $i $side: $(tail -n 1 "$log")" >&2
}

for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		one parent "$ab/parent" "$i"
		one work "$root" "$i"
	else
		one work "$root" "$i"
		one parent "$ab/parent" "$i"
	fi
done

python3 - "$root/BENCHMARK.json" "$ab/runs" "$pairs" "$workload" "$parent" <<'EOF'
import json, math, sys

bench_path, runs, pairs, workload, parent = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
metrics = json.load(open(bench_path))["end_to_end"]

def load(side, i):
    try:
        return json.load(open(f"{runs}/{side}-{i}.json"))
    except (OSError, ValueError):
        return None

bad = []
values = {"parent": [], "work": []}
for i in range(pairs):
    for side in values:
        r = load(side, i)
        if r is None or not r.get("correct"):
            bad.append(f"{side} pair {i} (see {runs}/{side}-{i}.log)")
        values[side].append(r["metrics"] if r and r.get("correct") else None)

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        k = (len(xs) - 1) * p
        lo, hi = math.floor(k), math.ceil(k)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return q(0.25), q(0.5), q(0.75)

need = math.ceil(0.9 * pairs)
print(f"# {workload}: working tree vs {parent}, {pairs} pairs; a verdict needs {need} wins and a median shift beyond the parent IQR")
if pairs < 10:
    print("# fewer than 10 pairs: too few to claim a gain; read the verdicts as indicative")
print(f"{'metric':<16} {'parent q1/med/q3':>26} {'tree q1/med/q3':>26} {'wins':>6}  verdict")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    both = [(p[name]["value"], w[name]["value"]) for p, w in zip(values["parent"], values["work"])
            if p is not None and w is not None and name in p and name in w]
    if not both:
        print(f"{name:<16} {'no paired results':>26}")
        continue
    pq, wq = quartiles([p for p, _ in both]), quartiles([w for _, w in both])
    better = lambda a, b: a < b if lower else a > b
    wins = sum(better(w, p) for p, w in both)
    losses = sum(better(p, w) for p, w in both)
    iqr, shift = pq[2] - pq[0], wq[1] - pq[1]
    gain = -shift if lower else shift
    if len(both) == pairs and wins >= need and gain > iqr:
        verdict = "resolved"
    elif len(both) == pairs and losses >= need and -gain > iqr:
        verdict = "regressed"
    else:
        verdict = "inside parent IQR"
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:<16} {fmt(pq):>26} {fmt(wq):>26} {wins:>3}/{len(both):<2}  {verdict} ({gain / pq[1] * 100 if pq[1] else 0:+.1f}% median)")
if bad:
    print("# not correct: " + "; ".join(bad))
    sys.exit(1)
EOF
