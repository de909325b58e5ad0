#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes one run:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything it leaves behind (Go build
# cache, the binary, trace files) goes under $CARGO_TARGET_DIR, default
# .bench_build, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOTOOLCHAIN=local \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" \
		GOTMPDIR="$out/tmp" GOTELEMETRY=off \
		go build -o "$out/perfbench" . >&2
)
exec "$out/perfbench" --out "$out" "$@"
