#!/usr/bin/env bash
# Builds the perfbench benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload bfs-queries --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The build cache and the binary
# stay under .bench_build/ there, and the Go toolchain is never fetched.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
