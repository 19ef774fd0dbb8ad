#!/usr/bin/env bash
# Builds the daemon and the benchmark from source inside the checkout,
# then runs the benchmark with the caller's arguments:
#
#   bash bench/run.sh --workload open_pbr --seed 1 --seconds 24 --trace 0
#   bash bench/run.sh                      # every workload, untraced then traced
#   bash bench/run.sh -compare A.json B.json
#
# Everything it writes (build cache, binaries, daemon logs, results) goes
# under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"

# Without the program there is nothing to measure: say so before starting
# anything.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/resilientd" ]]; then
	echo "bench/run.sh: $root holds no resilientft module (go.mod, cmd/resilientd)" >&2
	exit 2
fi

mkdir -p "$build"

# Keep the toolchain's own files (build cache, temporary files, its
# config and telemetry directory) inside the checkout, and off the network.
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

# With telemetry in its default "local" mode the go command starts a
# detached child of itself (own session, not waited for) whenever the config
# directory holds no upload token for the day — which a fresh checkout never
# does. That child outlives this script. Mode "off" starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$build/resilientd" ./cmd/resilientd)
(cd "$root/bench" && go build -o "$build/bench" .)

cd "$root"
exec "$build/bench" -daemon "$build/resilientd" -work "$build" "$@"
