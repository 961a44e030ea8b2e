#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it:
#
#   bash perfbench/run.sh --workload round-gm --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write stays under .bench_build/ in that root: the Go build cache, the
# toolchain's temporary and configuration files, and the binary. The
# build fails, and so does this script, when the repository's module is
# not beside perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
