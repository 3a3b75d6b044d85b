#!/usr/bin/env bash
# Paired benchmark runs of a reference commit against the working tree,
# the protocol PERF.md asks of every performance claim:
#
#   scripts/pairs.sh REF WORKLOADS N [SECONDS]
#
# REF is any commit-ish, WORKLOADS a comma-separated list of benchmark
# workloads (or "all"), N the number of pairs, SECONDS the measuring
# time per workload (default 2, so that the 20 pairs a claim needs take
# minutes rather than an hour). PAIRS_SEED sets the benchmark seed
# (default 1).
#
# REF is exported with `git archive` into a temporary directory, so the
# script leaves nothing behind in .git and works from a dirty tree. Each
# side is built and run by its own checkout's bench/run.sh, from its own
# root, into its own .bench_build. Pairs alternate which side runs
# first. Per workload and end-to-end metric it prints both medians, both
# quartile pairs, how many pairs the working tree won (ties count for
# neither side), and the median of the per-pair ratios tree/ref as a
# change with a bootstrap 95% interval (10,000 resamples of the pairs,
# fixed resampling seed), then every run's value; the direction of
# "better" is BENCHMARK.json's. A claimed change is resolved when its
# interval lies wholly on the claimed side of 0.
# Nothing under bench/ is read except through `bench/run.sh --json`.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
	exit 2
fi
ref=$1 workloads=$2 pairs=$3 seconds=${4:-2} seed=${PAIRS_SEED:-1}

root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify "$ref^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref" "$tmp/out"
git -C "$root" archive "$commit" | tar -x -C "$tmp/ref"

# run SIDE DIR PAIR: one benchmark run of DIR's checkout.
run() {
	(cd "$2" && bash bench/run.sh --workload "$workloads" --seconds "$seconds" \
		--seed "$seed" --trace 0 --json "$tmp/out/$1-$3.json" >"$tmp/out/$1-$3.log" 2>&1) || {
		echo "pairs: $1 run of pair $3 failed:" >&2
		tail -n 20 "$tmp/out/$1-$3.log" >&2
		exit 1
	}
}

echo "pairs: ${commit:0:12} (ref) against the working tree: $pairs pairs, workloads $workloads, $seconds s, seed $seed" >&2
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run ref "$tmp/ref" "$i" && run tree "$root" "$i"
	else
		run tree "$root" "$i" && run ref "$tmp/ref" "$i"
	fi
	echo "pairs: pair $i of $pairs done" >&2
done

python3 - "$tmp/out" "$pairs" "$root/BENCHMARK.json" <<'PY'
import json, random, statistics, sys

out, pairs, bench = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}

def load(side, i):
    runs = json.load(open(f"{out}/{side}-{i}.json"))
    return {r["workload"]: r["result"] for r in runs}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def ratio_interval(a, b, resamples=10000):
    """Median of the per-pair ratios b/a, and a bootstrap 95% interval
    for it, both as changes; None when a ref value is 0."""
    if any(x == 0 for x in a):
        return None
    ratios = [y / x for x, y in zip(a, b)]
    rnd = random.Random(1)
    meds = sorted(statistics.median(rnd.choices(ratios, k=len(ratios))) for _ in range(resamples))
    lo, hi = meds[int(0.025 * resamples)], meds[int(0.975 * resamples) - 1]
    return statistics.median(ratios) - 1, lo - 1, hi - 1

ref = [load("ref", i) for i in range(1, pairs + 1)]
tree = [load("tree", i) for i in range(1, pairs + 1)]
print(f"{'workload':<24}{'metric':<21}{'ref median [q1, q3]':<40}{'tree median [q1, q3]':<40}{'change':>8}  {'tree won':<15}paired ratio [95% interval]")
for w in ref[0]:
    failed = sum(r[w]["failed"] for r in ref), sum(t[w]["failed"] for t in tree)
    for m in sorted(ref[0][w]["metrics"]):
        a = [r[w]["metrics"][m]["value"] for r in ref]
        b = [t[w]["metrics"][m]["value"] for t in tree]
        lower = better.get(m, "lower") == "lower"
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        lost = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
        (aq1, am, aq3), (bq1, bm, bq3) = quartiles(a), quartiles(b)
        change = f"{100 * (bm - am) / am:+.1f}%" if am else "n/a"
        ri = ratio_interval(a, b)
        paired = f"{100 * ri[0]:+.1f}% [{100 * ri[1]:+.1f}%, {100 * ri[2]:+.1f}%]" if ri else "n/a"
        print(f"{w:<24}{m:<21}{f'{am:.6g} [{aq1:.6g}, {aq3:.6g}]':<40}{f'{bm:.6g} [{bq1:.6g}, {bq3:.6g}]':<40}{change:>8}  {f'{won}/{pairs} (lost {lost})':<15}{paired}")
    if any(failed):
        print(f"{w:<24}failed operations: ref {failed[0]}, tree {failed[1]}")
print("\nevery run, in pair order (odd pairs ran ref first):")
for w in ref[0]:
    for m in sorted(ref[0][w]["metrics"]):
        for side, runs in (("ref", ref), ("tree", tree)):
            print(f"{w} {m} {side}:", " ".join(f"{r[w]['metrics'][m]['value']:.6g}" for r in runs))
PY
