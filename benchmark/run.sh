#!/usr/bin/env bash
# Driver entry point: builds the harness with every Go cache inside the
# checkout (nothing is written outside it), then runs it. Arguments are passed
# through, e.g.  bash benchmark/run.sh --workload route_cold --seed 7 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPROXY=off
(cd "$here" && go build -o "$build/bin/connload" .) >&2
cd "$root"
exec "$build/bin/connload" "$@"
