#!/usr/bin/env bash
# Non-test Go lines (wc -l) per package and in total, outside bench/ —
# the number ROADMAP.md tracks. Report only: it never fails a build.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
files=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^bench/')
for f in $files; do
	echo "$(dirname "$f") $(wc -l <"$f")"
done | awk '{ n[$1] += $2 } END { for (p in n) printf "%6d %s\n", n[p], p }' | sort -k2
printf '%6d total\n' "$(cat $files | wc -l)"
