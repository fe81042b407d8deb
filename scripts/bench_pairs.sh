#!/usr/bin/env bash
# Paired benchmark runs: the parent checkout against the change, one
# workload, one run per seed on each side, alternating which side goes
# first — the procedure bench/README.md and BENCHMARK.json ask a
# performance claim to follow.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED_FROM SEED_TO
#
# Each checkout is built and run through its own bench/run.sh (which keeps
# its build in that checkout's .bench_build/), so both sides run the
# benchmark code they carry. Every result line is kept, one file per side
# and seed, under $OUT (default: a fresh directory under ${TMPDIR:-/tmp});
# nothing is written into either tree beyond what bench/run.sh writes.
#
# For every end-to-end metric of CHANGE_DIR/BENCHMARK.json it prints both
# medians with their quartiles, how many pairs the change won (ties count
# for neither side), the change's quartile distance over the parent's
# median beside the metric's bound (a cell whose runs spread wider than
# its bound is unresolved, however good its median), and failed/attempted
# operations per side. SECONDS_PER_RUN (default: run_seconds of
# BENCHMARK.json) and TRACE (default 0) are passed through.
set -euo pipefail

if [ $# -ne 5 ]; then
	sed -n '2,8p' "$0" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
from=$4
to=$5
out=${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")}
mkdir -p "$out"
secs=${SECONDS_PER_RUN:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$change/BENCHMARK.json")}

dir_of() { [ "$1" = parent ] && echo "$parent" || echo "$change"; }

run() { # side seed
	( cd "$(dir_of "$1")" && bash bench/run.sh --workload "$workload" --seed "$2" --seconds "$secs" --trace "${TRACE:-0}" ) \
		2>>"$out/$1.stderr" | tail -n 1 >"$out/$1.$workload.seed$2.json"
}

# Build both sides before anything is timed.
for side in parent change; do
	echo "building $side ($(dir_of $side))" >&2
	( cd "$(dir_of $side)" && bash bench/run.sh --workload "$workload" --smoke --seconds 0.2 ) >/dev/null 2>>"$out/$side.stderr"
done

for seed in $(seq "$from" "$to"); do
	if [ $(((seed - from) % 2)) -eq 0 ]; then
		order="parent change"
	else
		order="change parent"
	fi
	for side in $order; do
		echo "seed $seed: $side" >&2
		run "$side" "$seed"
	done
done

python3 - "$out" "$workload" "$from" "$to" "$change/BENCHMARK.json" <<'EOF'
import json, statistics, sys

out, workload, lo, hi, spec = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
runs = {side: [json.load(open(f"{out}/{side}.{workload}.seed{s}.json")) for s in range(lo, hi + 1)]
        for side in ("parent", "change")}
n = hi - lo + 1

def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, med, q3

print(f"{workload}: {n} pairs, seeds {lo}..{hi}; result lines in {out}")
for side in ("parent", "change"):
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    wrong = sum(not r["correct"] for r in runs[side])
    print(f"  {side}: failed {failed} of {attempted} ops; {wrong} of {n} runs incorrect")
print(f"  {'metric':<18} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
      f"{'wins':<7} {'change/parent':<14} iqr(change)/median(parent) vs bound")
for m in json.load(open(spec))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    spread = (cq[2] - cq[0]) / pq[1] if pq[1] else float("nan")
    apart = abs(cq[1] - pq[1]) > (pq[2] - pq[0])
    verdict = "wide" if spread > m["bound"] else "ok"
    print(f"  {name:<18} {fmt(pq):<34} {fmt(cq):<34} {f'{wins}/{n - ties}':<7} {ratio:<14.3f} "
          f"{spread:.3f} vs {m['bound']} {verdict}; medians {'further' if apart else 'closer'} than parent's q3-q1")
EOF
