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

echo "== workspace tests =="
cargo test -q --workspace

echo "== benchmark self-test (perfbench builds, metric names match BENCHMARK.json, virtual replay) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== packet-storm battery (pinned seed, 1M packets) =="
PACKET_STORM_SEED=3405691582 cargo test -q --test packet_storm

echo "== recovery battery (crash points x workloads, fault-site exhaustiveness) =="
cargo test -q --test recovery

echo "== golden traces (fails on drift; UPDATE_GOLDENS=1 to regenerate) =="
cargo test -q --test trace_golden

echo "== golden metrics snapshots (fails on drift; UPDATE_GOLDENS=1 to regenerate) =="
cargo test -q --test metrics_golden

echo "== golden profile snapshots (fails on drift; UPDATE_GOLDENS=1 to regenerate) =="
cargo test -q --test profile_golden

echo "== golden timelines (fails on drift; UPDATE_GOLDENS=1 to regenerate) =="
cargo test -q --test timeline_golden

echo "== stale-golden guard (regenerated goldens must match the checked-in files) =="
UPDATE_GOLDENS=1 cargo test -q --workspace
git diff --exit-code -- tests/goldens

echo "== debugging plane (checkpoint/restore, bisect bound, shrinker minimality) =="
cargo test -q --test debug_battery

echo "== watch plane (SLO alerts, admission gate, golden alert streams) =="
cargo test -q --test watch_battery

echo "== replication battery (crash-point x loss-pattern convergence, failover byte-identity) =="
cargo test -q --test repl_battery

echo "== causal battery (cross-kernel spans, merge stability, lag-path reconciliation) =="
cargo test -q --test causal_battery

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

echo "== zero-allocation proofs (trace, vm.sfi batches, metrics, profile, watch) =="
cargo test -q --test zero_alloc

echo "== lint (clippy, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== docs (rustdoc, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== ci.sh: all green =="
