#!/usr/bin/env bash
# Non-test Go lines (wc -l) per package and in total, outside bench/ —
# the number ROADMAP.md tracks — then the test Go lines outside bench/
# and the line counts of PERF.md and README.md. Files count whether or
# not they are staged yet; only what .gitignore excludes is left out.
# Report only: it never fails a build.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
all=$(git ls-files --cached --others --exclude-standard '*.go' | grep -v '^bench/' | sort -u)
files=$(echo "$all" | grep -v '_test\.go$')
tests=$(echo "$all" | grep '_test\.go$')
for f in $files; do
	[ -f "$f" ] || continue # deleted but not yet staged
	echo "$(dirname "$f") $(wc -l <"$f")"
done | awk '{ n[$1] += $2 } END { for (p in n) printf "%6d %s\n", n[p], p }' | sort -k2
total=0
for f in $files; do
	[ -f "$f" ] && total=$((total + $(wc -l <"$f")))
done
printf '%6d total\n' "$total"
test_total=0
for f in $tests; do
	[ -f "$f" ] && test_total=$((test_total + $(wc -l <"$f")))
done
printf '%6d test lines\n' "$test_total"
printf 'docs: %d PERF.md, %d README.md lines\n' "$(wc -l <PERF.md)" "$(wc -l <README.md)"
