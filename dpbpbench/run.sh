#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it, passing every argument through. Run it from the repository
# root:
#
#   bash dpbpbench/run.sh --workload paper_all --seed 1 --seconds 25 --trace 0
#
# The binary and the Go build cache go under $CARGO_TARGET_DIR when it is
# set, else under .bench_build, both relative to the checkout; HOME points
# there too, so the toolchain writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/dpbpbench" build -o "$out/dpbpbench" .
exec "$out/dpbpbench" "$@"
