#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout's root. Build outputs, the Go build
# cache and trace files stay under .bench_build/ in the checkout.
#
#   bash clankbench/run.sh --workload fleet-exec --seed 1 --seconds 15 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go build -C "$root/clankbench" -o "$out/clankbench" .
cd "$root"
exec "$out/clankbench" "$@"
