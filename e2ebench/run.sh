#!/usr/bin/env bash
# End-to-end benchmark of the mobilehpc reproduction. Run it from the
# repository root:
#
#   bash e2ebench/run.sh --workload registry-full --seed 1 --seconds 35 --trace 0
#   bash e2ebench/run.sh compare .bench_build/results [OTHER_RESULTS_DIR]
#
# It builds mhpc, mhpcd and the benchmark program from this checkout into
# .bench_build (the Go build cache included, so nothing is written
# outside the checkout), then hands its arguments to that program. The
# workloads, metrics and checks are documented in e2ebench/doc.go.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
mkdir -p "$build/bin"
go build -o "$build/bin/" ./cmd/mhpc ./cmd/mhpcd
(cd e2ebench && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" -root "$root" -bin "$build/bin" "$@"
