#!/usr/bin/env bash
# Builds prambench from source and runs one workload in the calling
# convention of BENCHMARK.json:
#
#   bash cmd/prambench/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, span traces) stays under .bench_build/ there. The
# last line of standard output is the run's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

workload= seed= seconds= trace=0
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload=$2 ;;
	--seed) seed=$2 ;;
	--seconds) seconds=$2 ;;
	--trace) trace=$2 ;;
	*)
		echo "bench.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
	shift 2
done
if [ -z "$workload" ] || [ -z "$seed" ] || [ -z "$seconds" ]; then
	echo "usage: bench.sh --workload W --seed N --seconds S [--trace 0|1]" >&2
	exit 2
fi

(cd "$root/cmd/prambench" && go build -o "$out/prambench" .)

args=(-workload "$workload" -seed "$seed" -duration "${seconds}s" -json)
case "$trace" in
0) ;;
1) args+=(-trace "$out/trace") ;;
*)
	echo "bench.sh: --trace wants 0 or 1, got $trace" >&2
	exit 2
	;;
esac
exec "$out/prambench" "${args[@]}"
