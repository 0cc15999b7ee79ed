#!/usr/bin/env bash
# Builds bench/srvperf from this checkout and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload suite --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files and the binary.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/bin/srvperf" ./srvperf)
exec "$out/bin/srvperf" "$@"
