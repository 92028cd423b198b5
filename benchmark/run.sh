#!/bin/sh
# Builds the harness and the SUT from source into out/bin and runs the
# harness with the caller's arguments. Everything the toolchain writes (build
# cache, temporary files, its usage counters) stays inside the checkout too.
set -e
cd "$(dirname "$0")"
mkdir -p out/tmp
GOCACHE="$PWD/out/gocache" GOMODCACHE="$PWD/out/gomod" GOTMPDIR="$PWD/out/tmp" \
	XDG_CONFIG_HOME="$PWD/out/config" GOTOOLCHAIN=local \
	go build -o out/bin/ ./cmd/ssbench ./cmd/ssbench-sut
exec out/bin/ssbench "$@"
