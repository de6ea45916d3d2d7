#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload paper-cv --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# stays under .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
