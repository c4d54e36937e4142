#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh compare OLD.json NEW.json
#
# Run from the repository root. Every build and run artifact (Go build
# cache, temp files, result records) stays under $CARGO_TARGET_DIR, by
# default .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/results"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOMODCACHE=$out/gomod GOPATH=$out/gopath \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
if [[ ${1:-} == compare ]]; then
	exec "$out/perfbench" "$@"
fi
commit=unknown
if [[ -e "$root/.git" ]] && rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit=$rev
	[[ -z $(git -C "$root" status --porcelain 2>/dev/null) ]] || commit+=+dirty
fi
exec "$out/perfbench" -root "$root" -records "$out/results" -commit "$commit" "$@"
