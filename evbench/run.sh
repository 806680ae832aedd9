#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash evbench/run.sh --workload oneshot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, results and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/evbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# A checkout without the repository's module next to this directory
# fails here, before any result is printed.
(cd "$root/evbench" && go build -buildvcs=false -o "$out/evbench" .) >&2
exec "$out/evbench" "$@"
