#!/usr/bin/env bash
# The command BENCHMARK.json declares. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the benchmark from source (build cache and binary under
# benchmark/out/, where the WAL scratch and span files go too), runs one
# workload once and leaves one JSON object on the last line of standard
# output. Nothing outside the checkout is written.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOMODCACHE="$PWD/out/gomod"
export XDG_CONFIG_HOME="$PWD/out/config" # where the go command keeps its telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw

go build -o out/hraft-benchmark . >&2
exec out/hraft-benchmark "$@"
