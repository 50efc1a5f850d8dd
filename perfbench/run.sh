#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/
# and runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 30 --trace 0
#
# The Go build and module caches, and the toolchain's own config and
# telemetry files (under HOME), live in .bench_build/, so the benchmark
# reads and writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off \
	go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
