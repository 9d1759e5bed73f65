#!/bin/sh
# Runs the divflowvet analyzer suite — the gate the CI `analysis` job applies
# to every PR — over the root module and over bench/, the benchmark harness: a
# module of its own that `./...` from the root does not reach. One process per
# module, cross-package facts in memory; any diagnostic fails.
#
# Usage:
#
#   scripts/analysis.sh
#
set -eu
cd "$(dirname "$0")/.."

echo "==> divflowvet ./..."
go run ./cmd/divflowvet ./...

echo "==> divflowvet ./... (bench/)"
(cd bench && go run divflow/cmd/divflowvet ./...)

echo "analysis clean"
