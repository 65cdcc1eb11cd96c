#!/usr/bin/env bash
# Builds cmd/mvkvd and the benchmark from this source tree, then runs one
# benchmark invocation against the freshly built daemon. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload kv-hot-get --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the WAL probe's directory all
# live under .bench_build/perfbench in the tree.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
if [ -d .git ]; then
	PERFBENCH_COMMIT=$(git rev-parse --short HEAD)
	export PERFBENCH_COMMIT
fi
go build -o "$out/mvkvd" ./cmd/mvkvd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
work=$(mktemp -d "$out/work.XXXXXX")
trap 'rm -rf "$work"' EXIT
"$out/perfbench" --mvkvd "$out/mvkvd" --work "$work" "$@"
