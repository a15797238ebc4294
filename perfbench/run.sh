#!/usr/bin/env bash
# Builds and runs the benchmark. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# --trace 0 builds and runs the end-to-end target (cmd/e2e), which
# depends only on the public dispatch package, the HTTP handler and the
# trace generator; --trace 1 builds and runs the traced target
# (cmd/traced), which wraps the engine's internal seams. The build
# outputs, the Go build cache and the results files all stay under
# .bench_build in the checkout.
set -euo pipefail

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--trace) trace="${args[i + 1]:-}" ;;
	--trace=*) trace="${args[i]#--trace=}" ;;
	esac
done
case "$trace" in
0) target=e2e ;;
1) target=traced ;;
*)
	echo "run.sh: --trace must be 0 or 1" >&2
	exit 2
	;;
esac

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C perfbench build -o "$out/bin/$target" "./cmd/$target"
exec "$out/bin/$target" "$@"
