#!/usr/bin/env bash
# Non-test Go lines (wc -l) per package and in total, outside bench/ —
# the number ROADMAP.md tracks — then the line counts of PERF.md and
# README.md. Files count whether or not they are staged yet; only what
# .gitignore excludes is left out. Report only: it never fails a build.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
files=$(git ls-files --cached --others --exclude-standard '*.go' | grep -v -e '_test\.go$' -e '^bench/' | sort -u)
for f in $files; do
	[ -f "$f" ] || continue # deleted but not yet staged
	echo "$(dirname "$f") $(wc -l <"$f")"
done | awk '{ n[$1] += $2 } END { for (p in n) printf "%6d %s\n", n[p], p }' | sort -k2
total=0
for f in $files; do
	[ -f "$f" ] && total=$((total + $(wc -l <"$f")))
done
printf '%6d total\n' "$total"
printf 'docs: %d PERF.md, %d README.md lines\n' "$(wc -l <PERF.md)" "$(wc -l <README.md)"
