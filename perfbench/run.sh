#!/usr/bin/env bash
# Builds hotpathsd, hotpathsgw and the perfbench program from the source
# tree this script sits in, then runs perfbench with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload athens-wal --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build in the current
# directory, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/hotpathsd" ] || [ ! -d "$root/cmd/hotpathsgw" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/hotpathsd and cmd/hotpathsgw must be present)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
	/*) ;;
	*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export XDG_CONFIG_HOME="$build/config" # go env file and telemetry
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -o "$build/bin/hotpathsd" ./cmd/hotpathsd
go build -o "$build/bin/hotpathsgw" ./cmd/hotpathsgw
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/run" "$@"
