#!/bin/sh
# Appends one row to TRAJECTORY.md: the six gated end-to-end metrics on each
# of the four workloads, from one untraced run of the benchmark at seed 1.
# The file is the repository's performance history in the harness's own
# numbers, one row per PR; a gain is still claimed only from paired runs
# (bench/README.md), never from two rows of this file.
#
# Usage:
#
#   scripts/trajectory.sh [label]
#
# label names the row; it defaults to the checked-out commit, marked "+wip"
# when the tree has uncommitted changes.
set -eu
cd "$(dirname "$0")/.."

label="${1:-}"
if [ -z "$label" ]; then
	label="$(git rev-parse --short HEAD)"
	git diff --quiet HEAD -- || label="$label+wip"
fi
workloads="offline-exact http-open replay-sla replay-ops"
metrics="setup_s jobs_per_s request_p50_ms flow_mean_s wflow_max mem_held_mb"

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
go run -C bench divflow/bench -seed 1 >"$out"

if [ ! -f TRAJECTORY.md ]; then
	{
		echo "# Performance trajectory"
		echo
		echo "One row per PR, appended by \`scripts/trajectory.sh\` from"
		echo "\`go run -C bench divflow/bench -seed 1\`. Units and directions are"
		echo "BENCHMARK.json's; rows taken on different days are not a paired"
		echo "comparison."
		echo
		printf '| commit | date |'
		for w in $workloads; do for m in $metrics; do printf ' %s %s |' "$w" "$m"; done; done
		echo
		printf '|---|---|'
		for w in $workloads; do for m in $metrics; do printf -- '---|'; done; done
		echo
	} >TRAJECTORY.md
fi

row="| $label | $(date -u +%Y-%m-%d) |"
for w in $workloads; do
	for m in $metrics; do
		v="$(awk -v w="$w" -v m="$m" '$1 == w && $2 == m { print $3 }' "$out")"
		[ -n "$v" ] || { echo "trajectory: no $m for $w in the benchmark's output" >&2; exit 1; }
		row="$row $v |"
	done
done
echo "$row" | tee -a TRAJECTORY.md
