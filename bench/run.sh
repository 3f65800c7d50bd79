#!/usr/bin/env bash
# The benchmark's one command: build the harness and the daemon from the
# checkout's source, then hand every argument to the harness.
#
# Everything the build and the runs write stays under bench/out: the Go
# build cache, the binaries, the prepared snapshot stores and the work
# directories. Nothing is read from or left in the user's home.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/bench/out
mkdir -p "$out/bin"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bin/bench" .)
(cd "$root" && go build -o "$out/bin/" ./cmd/sharesimd)
exec "$out/bin/bench" -root "$root" "$@"
