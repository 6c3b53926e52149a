#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash scopebench/run.sh --workload cell16 --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write (Go build cache, binary, lake
# segments, span dumps, digests) stays under .bench_build/scopebench in
# the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/scopebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$out/scopebench" .)
exec "$out/scopebench" --workdir "$out/run" "$@"
