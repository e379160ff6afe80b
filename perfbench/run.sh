#!/usr/bin/env bash
# Builds spectm-server and the benchmark from the tree it is run in,
# then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/spectm-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a spectm source tree (no go.mod or cmd/spectm-server here)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
# With telemetry on (the default, "local"), the go command forks a
# detached sidecar process that outlives it; switch it off first.
go telemetry off
go build -o "$out/bin/spectm-server" ./cmd/spectm-server
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -server "$out/bin/spectm-server" -work "$out/perfbench" "$@"
