#!/usr/bin/env bash
# The benchmark's run command (BENCHMARK.json): build the program once into
# bench/out/ and run it with the driver's arguments. The build is outside
# every measured interval; `go build` is a no-op when nothing changed.
# Everything the build and the run write stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME is where the go command keeps its telemetry state. With no
# mode file there (a fresh checkout) the mode is "local" and the first go
# command detaches a telemetry sidecar that outlives this script; the mode
# file turns telemetry off, so no process is left behind on any path out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/hybridsbench" ./bench
exec "$out/hybridsbench" "$@"
