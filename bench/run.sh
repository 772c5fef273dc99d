#!/usr/bin/env bash
# Builds the benchmark harness and runs it against this checkout:
#
#   bash bench/run.sh [flags]                 # flags: see bench/README.md
#   bash bench/run.sh compare OLD.json NEW.json
#
# The harness builds reachsim from the same checkout. Every file the builds
# and the runs write stays under .bench_build/ at the repository root: the
# Go build cache, temporary files and the binaries.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=

go -C "$root/bench" build -o "$out/bench" .
if [ "${1:-}" = compare ]; then
	exec "$out/bench" "$@"
fi
exec "$out/bench" -root "$root" -out "$out" "$@"
