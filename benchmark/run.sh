#!/usr/bin/env bash
# The one command of the repo's benchmark (benchmark/README.md).
#
#   benchmark/run.sh                        build, unit tests, every workload in its own
#                                           process (end-to-end pass, tracing off), then the
#                                           traced pass; checks outputs, prints every metric
#                                           by name with its unit, writes out/results.json
#   benchmark/run.sh --check-agreement      the whole set twice on one seed and once more on
#                                           a second seed; fails if any end-to-end metric
#                                           differs by more than its bound or any *_per_op
#                                           count is not identical
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                           one run; the last line of stdout is the JSON
#                                           result BENCHMARK.json's contract describes
#
# The first two forms also take --seed <n> and --seconds <s>. They print the wall time of
# every run and the total, and fail if a single run reaches 30 s. Results carry a host
# fingerprint (cpus, arch, rustc, git rev, build flavour); files with different fingerprints
# are not compared. Fewer than 2 cpus: refused, the clients need a core each.
#
# BENCH_contend.json, BENCH_store.json and BENCH_native.json at the repo root were recorded
# on a 1-CPU host. As performance evidence they are superseded by this benchmark; they stay
# in place until a later clean-up PR removes them.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
[[ $target == /* ]] || target="$PWD/$target"

# Two flavours of one package, a target directory each so neither evicts the other:
# the default build everything is timed on, and the `obs` build the count pass runs.
build() {
    cargo build --release --offline --manifest-path "$here/Cargo.toml" "$@" >&2
}
build_obs() {
    build --features obs --target-dir "$target/obs"
    export KEXBENCH_OBS_BIN="$target/obs/release/kexbench"
}
build --target-dir "$target"
bin="$target/release/kexbench"
export KEXBENCH_OUT="$here/out"

if [[ " $* " == *" --workload "* ]]; then
    [[ " $* " != *" --trace 1 "* ]] || build_obs
    exec "$bin" "$@"
fi

build_obs
KEXBENCH_RUSTC="$(rustc --version)"
rev="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo none)"
[[ -z "$(git -C "$here" status --porcelain 2>/dev/null)" ]] || rev="$rev-dirty"
export KEXBENCH_RUSTC KEXBENCH_GIT_REV="$rev"

cargo test --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

if [[ ${1:-} == --check-agreement ]]; then
    shift
    seed=1
    args=()
    while (($#)); do
        if [[ $1 == --seed ]]; then seed="$2"; else args+=("$1" "$2"); fi
        shift 2
    done
    a="$KEXBENCH_OUT/agreement-A.json"
    b="$KEXBENCH_OUT/agreement-B.json"
    b2="$KEXBENCH_OUT/agreement-B-second-seed.json"
    "$bin" suite --seed "$seed" "${args[@]}" --out "$a"
    "$bin" suite --seed "$seed" "${args[@]}" --out "$b"
    "$bin" suite --seed "$((seed + 1))" "${args[@]}" --out "$b2"
    status=0
    "$bin" agree "$a" "$b" || status=1
    "$bin" agree "$a" "$b2" || status=1
    exit "$status"
else
    "$bin" suite "$@" --out "$KEXBENCH_OUT/results.json"
fi
