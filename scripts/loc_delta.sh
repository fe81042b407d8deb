#!/usr/bin/env bash
# Go line delta of the working tree against a base commit, split the way
# every simplicity PR's CHANGES.md entry quotes it: `git diff --numstat`
# over *.go, non-test files apart from *_test.go.
#
#   scripts/loc_delta.sh [BASE]      (default HEAD~1)
#
# Untracked files are not in a git diff: `git add` new files first.
set -euo pipefail

base=${1:-HEAD~1}
cd "$(git rev-parse --show-toplevel)"
git diff --numstat "$base" -- '*.go' | awk '
	{ k = ($3 ~ /_test\.go$/) ? "test" : "non-test"; add[k] += $1; del[k] += $2 }
	END {
		split("non-test test", ks, " ")
		for (i = 1; i <= 2; i++) {
			k = ks[i]
			printf "%-8s Go lines: +%d -%d = %+d\n", k, add[k], del[k], add[k] - del[k]
		}
	}'
