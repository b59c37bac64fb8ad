#!/usr/bin/env sh
# Tier-1 verification: build, full test suite, batteries, goldens,
# CLI self-tests, lint and docs. Everything is offline and deterministic;
# a green run here is the repository's definition of "working".
set -eu

cd "$(dirname "$0")/.."

echo "== format (rustfmt --check) =="
cargo fmt --check
cargo fmt --check --manifest-path perfbench/Cargo.toml

echo "== build (release) =="
cargo build --release

echo "== workspace tests and goldens (UPDATE_GOLDENS=1 rewrites every golden; a changed or new file under tests/goldens fails) =="
UPDATE_GOLDENS=1 cargo test -q --workspace
stale=$(git status --porcelain -- tests/goldens)
if [ -n "$stale" ]; then
    echo "stale goldens (rerun with UPDATE_GOLDENS=1 and commit them if the change is intended):"
    echo "$stale"
    exit 1
fi

echo "== benchmark self-test (perfbench builds, metric names match BENCHMARK.json, virtual replay) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== debugging-plane CLI self-test (bisect + checkpoint resume on the pinned seed) =="
cargo run -q --release -p vino-bench -- bisect --seed 3405691582 --steps 48
cargo run -q --release -p vino-bench -- checkpoints --seed 3405691582 --steps 48

echo "== watch-plane CLI self-test (hostile storm, byte-identical replay) =="
cargo run -q --release -p vino-bench -- watch --seed 3405691582 --hostile

echo "== replication CLI self-test (lossy-wire census, byte-identical replay) =="
cargo run -q --release -p vino-bench -- repl --seed 3405691582 --steps 24

echo "== lag-path CLI self-test (per-hop sum must reconcile with the lag-age gauge) =="
cargo run -q --release -p vino-bench -- lagpath --seed 3405691582 --steps 8

echo "== bench census (1M-packet storm sweep, planes, checksum, VM, post-mortem) =="
cargo run -q --release -p vino-bench -- census

echo "== lint (clippy, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== docs (rustdoc, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== ci.sh: all green =="
