#!/bin/sh
# Builds fgbsbench from source and runs it with the given arguments,
# from the root of a checkout:
#
#   sh cmd/fgbsbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
# checkout root): the Go build cache, the binary, and the servers'
# profile directories. The toolchain is the local one; nothing is
# downloaded.
set -eu
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/cmd/fgbsbench" && go build -buildvcs=false -o "$out/fgbsbench" .)
exec "$out/fgbsbench" "$@"
