#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload publish|serve|coord --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and the benchmark's temporary files all
# stay under .bench_build/ at the root of the checkout. The build needs the
# repository's own module one directory up; without it the build fails and
# the script exits non-zero before printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export TMPDIR=$out/tmp GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
