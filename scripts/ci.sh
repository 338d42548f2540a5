#!/usr/bin/env bash
# Tier-1 gate: a rustfmt-clean tree, release build, full test suite
# (tests/contracts.rs among it: the metrics, trace-kind and opcode
# contracts, no clock in model code, each crate root's lint header), the
# same suites under the deadlock witness,
# lint-clean under clippy, the memtable's unit tests under AddressSanitizer
# when a nightly is installed.
#   ./scripts/ci.sh                        the gate
#   ./scripts/ci.sh --bench-compare <rev|dir>  the gate, then the benchmark against a base revision or checkout
set -euo pipefail
cd "$(dirname "$0")/.."

base_rev=
case "${1-}" in
    "") ;;
    --bench-compare) base_rev=${2:?--bench-compare needs a revision or a checkout directory} ;;
    *) echo "usage: $0 [--bench-compare <rev|dir>]" >&2; exit 2 ;;
esac

# lane <title> <command…>: prints the title, runs the command, then its wall
# time in seconds.
lane() {
    echo "==> $1"
    shift
    SECONDS=0
    "$@"
    echo "    (${SECONDS}s)"
}

vendor_declares_no_dependencies() {
    if grep -n '^\[.*dependencies' vendor/*/Cargo.toml; then
        echo "ci: a vendored shim declares dependencies; shims stand in for leaf crates.io packages" >&2
        return 1
    fi
}

benchmark_untouched() {
    local touched
    touched=$(git status --porcelain -- BENCHMARK.json benchmark/)
    if [ -n "$touched" ]; then
        echo "$touched" >&2
        echo "ci: the benchmark changed; leave it to a PR of its own" >&2
        return 1
    fi
}

lane "cargo fmt --all -- --check (the tree stays as rustfmt's defaults leave it; benchmark/ is its own workspace and not checked)" \
    cargo fmt --all -- --check
lane "cargo build --release" \
    cargo build --release
lane "cargo build --examples --release" \
    cargo build --examples --release
lane "cargo test -q --workspace (every crate's unit, integration and e2e suites; tests/contracts.rs holds the docs-vs-code contracts)" \
    cargo test -q --workspace
lane "vendor/*/Cargo.toml declare no dependencies (L5: a shim cannot then name a pcp_* crate)" \
    vendor_declares_no_dependencies
# A witness violation on a background thread can surface only as a hang of
# whoever waits for that thread, so the lane has a deadline; the violation
# itself is printed as a `lock_order witness:` line.
lane "cargo test -q --workspace --features lock_order (the deadlock witness over every crate's suites: lock order, and no blocking under a lock)" \
    timeout 1800 cargo test -q --workspace --features lock_order
# The sanitizer needs an explicit --target; take the nightly's own host.
nightly_host=$(rustc +nightly -vV 2>/dev/null | sed -n 's/^host: //p' || true)
if [ -n "$nightly_host" ]; then
    lane "cargo +nightly test -p pcp-lsm --lib under AddressSanitizer (the arena memtable's and the iterators' unit tests, merge_reads_each_part_at_its_own_sequence among them: the merged cursor over two arenas; own target dir target/asan)" \
        env RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR=target/asan \
        cargo +nightly test -q -p pcp-lsm --lib --target "$nightly_host" -- memtable:: iter::
else
    echo "==> not run: cargo +nightly test -p pcp-lsm --lib under AddressSanitizer (no nightly toolchain installed)"
fi
lane "cargo test --manifest-path benchmark/Cargo.toml (the benchmark package builds and self-tests against this engine)" \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
lane "scripts/bench_gain.py --check bench_results/trajectory.jsonl (the committed trajectory parses and its PR numbers increase)" \
    python3 scripts/bench_gain.py --check bench_results/trajectory.jsonl
lane "git status -- BENCHMARK.json benchmark/ (the benchmark is untouched: an engine change may not edit it, nor may building it rewrite its Cargo.lock)" \
    benchmark_untouched
lane "cargo clippy -- -D warnings (also L1-L3: clippy.toml plus each crate root's lint header; no incremental cache, whose stale entries can crash clippy on correct code)" \
    env CARGO_INCREMENTAL=0 cargo clippy --workspace --all-targets -- -D warnings
lane "cargo doc --no-deps (rustdoc warnings are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

if [ -n "$base_rev" ]; then
    lane "scripts/bench_compare.sh $base_rev (the benchmark against the base, failing outside the BENCHMARK.json bounds)" \
        ./scripts/bench_compare.sh "$base_rev"
else
    echo "==> not run: ./scripts/bench_compare.sh <base-rev | base-dir> [pairs=3] [seed0=now] [workloads=all] (the benchmark against a base revision; --bench-compare <rev> adds it here)"
fi

echo "==> ci green"
