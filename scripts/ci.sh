#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint-clean under clippy.
# Run from the repository root:  ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --examples --release"
cargo build --examples --release

echo "==> cargo test -q --workspace (every crate's unit, integration and e2e suites)"
cargo test -q --workspace

echo "==> cargo run -p pcp-lint --release (architectural lint, L1-L8; JSON report archived under target/)"
mkdir -p target
cargo run -q -p pcp-lint --release -- --format json > target/lint_findings.json
# The JSON lane already failed the build on any finding (nonzero exit);
# surface the human-readable summary and rule rationales for the log.
cargo run -q -p pcp-lint --release
cargo run -q -p pcp-lint --release -- --explain L6 L7 L8 > /dev/null

echo "==> cargo test -q --features lock_order (runtime lock-order witness; includes tests/background_lanes.rs)"
cargo test -q --features lock_order

echo "==> cargo test --manifest-path benchmark/Cargo.toml (the benchmark package builds and self-tests against this engine)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo bench -p pcp-bench --bench write_concurrency (syncs-per-write smoke, quick mode; reports go to target/bench_results/)"
cargo bench -p pcp-bench --bench write_concurrency

echo "==> cargo bench -p pcp-bench --bench reactor (connections x depth sweep, quick mode)"
cargo bench -p pcp-bench --bench reactor

echo "==> cargo bench -p pcp-bench --bench adaptive (adaptive-vs-fixed-shapes smoke, quick mode)"
cargo bench -p pcp-bench --bench adaptive

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> ci green"
