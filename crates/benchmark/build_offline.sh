#!/usr/bin/env bash
# Offline build of the benchmark: compile the product crates and this
# crate with bare rustc, substituting the std-backed stand-ins in
# offline/ for parking_lot and crossbeam (the only registry crates the
# product needs at run time). For hosts where the crate registry is
# unreachable; `cargo` is the normal build. The binary reports
# `deps: stub`, because CARGO_PKG_NAME is unset under bare rustc.
#
#   build_offline.sh <out-dir>     # leaves <out-dir>/benchmark
#   build_offline.sh <out-dir> test  # also <out-dir>/benchmark_tests
#
# A crate is recompiled only when one of its sources or dependencies is
# newer than its rlib.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
crates="$(cd "$here/.." && pwd)"
out="${1:?usage: build_offline.sh <out-dir> [test]}"
mkdir -p "$out"

# name : source root : dependencies, in dependency order
chain=(
  "parking_lot:$here/offline/parking_lot.rs:"
  "crossbeam:$here/offline/crossbeam.rs:"
  "tman_telemetry:$crates/telemetry/src/lib.rs:"
  "tman_common:$crates/common/src/lib.rs:tman_telemetry"
  "tman_lang:$crates/lang/src/lib.rs:tman_common"
  "tman_expr:$crates/expr/src/lib.rs:tman_common tman_lang"
  "tman_storage:$crates/storage/src/lib.rs:tman_common parking_lot"
  "tman_sql:$crates/sql/src/lib.rs:tman_common tman_storage tman_lang tman_expr parking_lot"
  "tman_predindex:$crates/predindex/src/lib.rs:tman_telemetry tman_common tman_storage tman_sql tman_expr tman_lang parking_lot"
  "tman_network:$crates/network/src/lib.rs:tman_common tman_expr tman_lang parking_lot"
  "triggerman:$crates/engine/src/lib.rs:tman_telemetry tman_common tman_storage tman_sql tman_lang tman_expr tman_predindex tman_network parking_lot crossbeam"
  "tman_wire:$crates/wire/src/lib.rs:tman_telemetry tman_common tman_storage tman_sql triggerman parking_lot crossbeam"
)
bench_deps="tman_telemetry tman_common tman_storage tman_sql tman_lang tman_expr tman_predindex tman_wire triggerman crossbeam"

externs() {
  for d in $1; do printf -- '--extern %s=%s/lib%s.rlib ' "$d" "$out" "$d"; done
}

# stale <artefact> <source root> <deps>: is the artefact missing or older
# than any source beside its root, or than any dependency's rlib?
stale() {
  local art=$1 src=$2 d
  [ -f "$art" ] || return 0
  [ -n "$(find "$(dirname "$src")" -name '*.rs' -newer "$art" -print -quit)" ] && return 0
  for d in $3; do [ "$out/lib$d.rlib" -nt "$art" ] && return 0; done
  return 1
}

for item in "${chain[@]}"; do
  IFS=: read -r name src deps <<<"$item"
  if stale "$out/lib$name.rlib" "$src" "$deps"; then
    echo "rustc $name" >&2
    # shellcheck disable=SC2046
    rustc --edition 2021 -C opt-level=3 --cap-lints allow --crate-type rlib \
      --crate-name "$name" "$src" -o "$out/lib$name.rlib" -L "$out" $(externs "$deps") >&2
  fi
done

main="$here/src/main.rs"
if stale "$out/benchmark" "$main" "$bench_deps"; then
  echo "rustc benchmark" >&2
  # shellcheck disable=SC2046
  rustc --edition 2021 -C opt-level=3 --crate-name benchmark "$main" \
    -o "$out/benchmark" -L "$out" $(externs "$bench_deps") >&2
fi
# The tests embed BENCHMARK.json (they hold it equal to src/spec.rs).
if [ "${2:-}" = test ] && { stale "$out/benchmark_tests" "$main" "$bench_deps" ||
  [ "$crates/../BENCHMARK.json" -nt "$out/benchmark_tests" ]; }; then
  echo "rustc benchmark (tests)" >&2
  # shellcheck disable=SC2046
  rustc --edition 2021 -C opt-level=3 --test --crate-name benchmark "$main" \
    -o "$out/benchmark_tests" -L "$out" $(externs "$bench_deps") >&2
fi
