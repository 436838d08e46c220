#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload dv-converge --seed 5 --seconds 15 --trace 0
# Run from the repository root. Everything the build writes (binary, Go
# build cache, toolchain config and telemetry, temporary files) stays
# under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
		GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
