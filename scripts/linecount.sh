#!/bin/sh
# Prints the non-test Go line counts ROADMAP tracks (aim 2: internal/server
# −30 %, repo-wide net-negative; the solver side, internal/lp and
# internal/core, shrinks by deleting paths the traffic never takes),
# README.md's length (a map of at most 500 lines) and the largest non-test
# file of internal/server (every file under 800 lines), one "<lines> <what>"
# row each, so a PR reads its reduction off this script instead of
# re-deriving it. Report only: there is no threshold here, a ceiling would be
# one more knob to tune.
#
# Usage:
#
#   scripts/linecount.sh
#
set -eu
cd "$(dirname "$0")/.."

count() { # count <label> <go files...>
	label="$1"
	shift
	printf '%6d %s\n' "$(cat "$@" | wc -l)" "$label"
}

for dir in internal/server internal/shardlink internal/model internal/lp internal/core internal/sim; do
	count "$dir" $(ls "$dir"/*.go | grep -v _test)
done
count "internal/server + internal/shardlink" $(ls internal/server/*.go internal/shardlink/*.go | grep -v _test)
count "cmd/" $(find cmd -name '*.go' ! -name '*_test.go')
count "repo total (bench/ included)" $(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*')
count "README.md" README.md
largest=$(wc -l $(ls internal/server/*.go | grep -v _test) | grep -v ' total$' | sort -n | tail -1)
printf '%6d largest in internal/server: %s\n' $largest
