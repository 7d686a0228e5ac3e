#!/bin/sh
# run.sh builds perfbench and the shipped nptsn-serve and nptsn-pretrain
# binaries from the tree it sits in, then runs perfbench.
#
#	bash perfbench/run.sh --workload train-orion --seed 1 --seconds 20 --trace 0
#	bash perfbench/run.sh compare old.txt new.txt
#
# Run it from the repository root. Everything it builds, caches or writes
# stays under .bench_build/ in that directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GONOSUMDB=*
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/" ./cmd/nptsn-serve ./cmd/nptsn-pretrain
if [ "${1:-}" = compare ]; then
	exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -root "$root" "$@"
