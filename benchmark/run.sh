#!/bin/bash
# The command BENCHMARK.json names: builds the harness from source and runs it,
# passing every argument through. The go build cache, go's temporary files and
# its per-user configuration directory are pointed inside the checkout
# (.bench_build/), so a run reads and writes nothing outside it; the first run
# in a fresh checkout therefore compiles the standard library too (about a
# minute on two cores) and later runs only relink from the cache.
#
# No process outlives this script. The go command, given a configuration
# directory it has not seen, starts a detached child of itself to set up
# telemetry, and that child is still running when a quick `go` invocation (a
# build that fails at once, say) has already returned. Telemetry is therefore
# switched off in the private configuration directory before go runs at all,
# and a checkout without the program is refused before go is started. The
# harness is built to a file and then replaces this shell (exec), so there is
# no `go run` parent between the driver and the measured process either.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $root holds no go.mod and internal/: the program under test is not here" >&2
	exit 2
fi
build="$root/.bench_build"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/benchmark.bin" ./benchmark
exec "$build/benchmark.bin" "$@"
