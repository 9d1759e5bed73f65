#!/bin/sh
# Runs `go test -run <regex>` over one package, after checking that every
# |-separated alternative of the regex names at least one test, fuzz target,
# benchmark or example there. A renamed or deleted test then fails the gate
# that names it, instead of silently dropping out of it. The regex is split at
# every |, so it must not group alternatives in parentheses.
#
# Usage:
#
#   scripts/testnamed.sh '<regex>' <package> [go test flags...]
#
# Example:
#
#   scripts/testnamed.sh 'TestWAL|TestShardPanic' ./internal/server -race -count=1
#
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: $0 '<regex>' <package> [go test flags...]" >&2
	exit 2
fi
regex="$1"
pkg="$2"
shift 2

listed=$(go test -list "$regex" "$pkg")
missing=0
set -f
IFS='|'
for alt in $regex; do
	if ! printf '%s\n' "$listed" | grep -E '^(Test|Fuzz|Benchmark|Example)' | grep -qE -- "$alt"; then
		echo "testnamed: '$alt' matches no test in $pkg" >&2
		missing=1
	fi
done
unset IFS
set +f
if [ "$missing" -ne 0 ]; then
	exit 1
fi

exec go test -run "$regex" "$@" "$pkg"
