#!/usr/bin/env bash
# Builds the benchmark (compiler cache and binary under benchmark/out) and
# runs it with the arguments given. Called from the repository root:
#   bash benchmark/run.sh --workload echo_rtt --seed 1 --seconds 8 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/rover-benchmark" .)
exec "$out/rover-benchmark" -out "$out" "$@"
