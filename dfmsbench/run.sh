#!/usr/bin/env bash
# Builds the DfMS benchmark from source and runs it. Run from the root of
# a checkout of the repository; every argument passes through:
#
#   bash dfmsbench/run.sh --workload ilm-sweep --seed 1 --seconds 8 --trace 0
#
# The build cache, the binary and everything a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/matrix" ]; then
	echo "dfmsbench: run from the root of a datagridflow checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/dfmsbench" && go build -o "$out/dfmsbench" .)
exec "$out/dfmsbench" -root "$root" "$@"
