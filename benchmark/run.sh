#!/usr/bin/env bash
# The repo's one benchmark command. Builds `wsrep-server` and the benchmark
# (offline, release), then runs it:
#
#   bash benchmark/run.sh                      every workload, untraced then traced
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                              one run; the last line of stdout is
#                                              the JSON result (BENCHMARK.json)
#   bash benchmark/run.sh --repeat 5           five untraced sets and their spread
#   bash benchmark/run.sh --quick              windows of 0.1 s: a self-test only
#
# Also: --out DIR (span files, default .bench_out) and --tmp DIR (journals,
# default .bench_tmp; must not be a RAM filesystem). Build products go to
# $CARGO_TARGET_DIR, or `target` at the repo root when that is unset.
set -euo pipefail

invoked_from="$PWD"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$invoked_from/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
export CARGO_NET_OFFLINE=true

cd "$root"
# The program under test, from the repo's own workspace; then the benchmark,
# a package of its own whose lock file and build never touch that workspace.
cargo build --release -p wsrep-server --bin wsrep-server >&2
cargo build --release --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/wsrep-benchmark" --server-bin "$target/release/wsrep-server" "$@"
