#!/bin/sh
# Runs the divflowvet analyzer suite over the whole module — the same gate
# the CI `analysis` job applies to every PR. Two passes:
#
#   1. standalone:   go run ./cmd/divflowvet ./...
#      (one process, in-memory cross-package facts; any diagnostic fails)
#   2. vet driver:   go vet -vettool=<built divflowvet> ./...
#      (the incremental unitchecker protocol with gob vetx fact files —
#      exercised here so the path users hit locally can never silently rot),
#      then the same over bench/, the benchmark harness: a module of its own
#      that `./...` here does not reach
#
# Usage:
#
#   scripts/analysis.sh
#
set -eu
cd "$(dirname "$0")/.."

echo "==> divflowvet (standalone)"
go run ./cmd/divflowvet ./...

echo "==> divflowvet (go vet -vettool)"
TOOL="$(mktemp -d)/divflowvet"
trap 'rm -rf "$(dirname "$TOOL")"' EXIT
go build -o "$TOOL" ./cmd/divflowvet
go vet -vettool="$TOOL" ./...
go vet -C bench -vettool="$TOOL" ./...

echo "analysis clean"
