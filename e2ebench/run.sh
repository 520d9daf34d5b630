#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload plan --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under $CARGO_TARGET_DIR (default .bench_build): the Go
# build cache, the binary, per-run journal directories and trace files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --build "$build" "$@"
