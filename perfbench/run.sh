#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fit-inmem-100k --seed 11 --seconds 16 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# and everything a run writes (colstore files, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/gotmp"
export GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --out "$out/run" "$@"
