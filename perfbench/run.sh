#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload friending --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every file it writes (Go build cache,
# binary, rack data directories, span dumps) stays under .bench_build/ there.
# It fails, printing no result, when the repository sources are missing.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off

commit=unknown
if [[ -e "$root/.git" ]] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" --commit "$commit" "$@"
