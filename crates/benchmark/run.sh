#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from the sources
# of this checkout (nothing is built when nothing changed) and runs it with
# the arguments given:
#
#   bash crates/benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs and scratch data go under $CARGO_TARGET_DIR, else under
# .bench_build in the checkout; nothing outside the checkout is touched.
# `cargo` builds against the real crates when they are available offline;
# otherwise build_offline.sh links the std-backed stand-ins and the binary
# marks its numbers `"comparable": false`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac

cd "$root"
if CARGO_TARGET_DIR="$out" cargo build --offline --release -p tman-benchmark >/dev/null 2>&1; then
  bin="$out/release/benchmark"
else
  "$here/build_offline.sh" "$out/offline"
  bin="$out/offline/benchmark"
fi
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$bin" --dir "$out/tman-benchmark-data" \
  --rustc "$(rustc --version)" --commit "$commit" "$@"
