#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives from this checkout's
# sources, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --digest
#
# Build outputs, the Go build cache and the daemon's scratch directories
# all live under $CARGO_TARGET_DIR (default .bench_build), so nothing is
# written outside the checkout. Build logs go to stderr; the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/polyufc-serve || ! -d cmd/polyufc-bench ]]; then
	echo "run.sh: no PolyUFC sources in $root; run from the repository root" >&2
	exit 1
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/work" "$out/tmp" "$out/config/go/telemetry"

# With a fresh config directory every go command would start a detached
# telemetry upload process that outlives the build; turn telemetry off
# before the first go command runs.
printf 'off\n' >"$out/config/go/telemetry/mode"

export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS="-mod=mod -buildvcs=false"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache GOTMPDIR=$out/tmp TMPDIR=$out/tmp

go build -o "$out/bin/" ./cmd/polyufc-serve ./cmd/polyufc-bench >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
