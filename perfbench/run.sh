#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload eval-quick --seed 7 --seconds 10 --trace 0
#
# The binary, the Go build cache, temporary files and span logs all stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOMODCACHE="$build/modcache" \
	GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

# Stamp the git revision only when the checkout is a repository.
vcs=false
if [ -e "$root/.git" ]; then
	vcs=auto
fi
(cd "$root/perfbench" && go build -buildvcs="$vcs" -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
