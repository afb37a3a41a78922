#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs one workload:
#
#   bash perfbench/run.sh --workload climb|poll|suite --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), inside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [[ ! -f $root/go.mod || ! -d $root/internal/service ]]; then
	echo "perfbench: $root does not hold the greednet sources to benchmark" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build=$root/$build

command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export TMPDIR=$build/tmp GOTMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$TMPDIR"

bin=$build/perfbench/perfbench
(cd "$root/perfbench" && go build -o "$bin" .)
cd "$root"
exec "$bin" --trace-dir "$build/perfbench" "$@"
