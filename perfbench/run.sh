#!/usr/bin/env bash
# Builds the benchmark and the gatewords module it drives from source, then
# runs it with the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload itc-large --seed 1 --seconds 40 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, temporary files, the binary, the generated
# workload and the span traces.
set -euo pipefail
# Fall back to Go's default install location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOWORK=off \
	GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
