#!/usr/bin/env bash
# Builds the benchmark and the alignd daemon from the source tree this
# script sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Binaries, the Go build cache and trace
# files go to $CARGO_TARGET_DIR (default .bench_build) so nothing is written
# outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin"

export GOCACHE="$out/gocache"
export GOTELEMETRY=off
export GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2
go -C "$root/perfbench" build -o "$out/bin/alignd" graphalign/cmd/alignd >&2

exec "$out/bin/perfbench" --alignd "$out/bin/alignd" --out "$out/traces" "$@"
