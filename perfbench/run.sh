#!/usr/bin/env bash
# Builds csjserve, csjcoord and the perfbench binary from the checkout
# it is run in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload pairs-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that root: the Go build cache, the
# binaries, server logs, store directories and trace files.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/csjserve || ! -d cmd/csjcoord ]]; then
	echo "run.sh: $root holds no csj source tree (go.mod, cmd/csjserve, cmd/csjcoord); run it from the repository root" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/home/.config/go/telemetry"
# With telemetry on, the go command starts a detached child that can
# outlive the build; turning it off keeps the run to its own processes.
printf 'off\n' >"$build/home/.config/go/telemetry/mode"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"

go build -o "$build/bin/csjserve" ./cmd/csjserve
go build -o "$build/bin/csjcoord" ./cmd/csjcoord
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -out "$build/out" "$@"
