#!/usr/bin/env bash
# Builds the benchmark and chowd from this checkout's sources, then runs
# one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "../$out/perfbench" . && go build -o "../$out/chowd" chow88/cmd/chowd) >&2
exec "$out/perfbench" -chowd "$out/chowd" -workdir "$out/run" "$@"
