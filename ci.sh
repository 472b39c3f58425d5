#!/usr/bin/env bash
# Local CI: formatting, lints (warnings are errors), full test suite.
# Everything runs offline against the vendored third_party/ crates.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
# The tier-1 gate builds release before testing; catching release-only
# breakage (e.g. debug_assert-guarded code) locally keeps CI honest.
cargo build --release --workspace

echo "== cargo test -q"
cargo test --workspace -q

echo "== trace schema validation (examples/trace.rs)"
# Runs TPC-H Q1 fused + unfused, reconciles per-span deltas against the
# aggregate SimStats and validates the exported Chrome trace JSON; the
# example exits non-zero on any schema or reconciliation failure.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -q -p kw-examples --example trace -- "$trace_dir" > /dev/null
for f in "$trace_dir"/q1.fused.trace.json "$trace_dir"/q1.baseline.trace.json; do
    [ -s "$f" ] || { echo "missing trace export: $f" >&2; exit 1; }
done

echo "== trace writer edge cases (examples/empty_trace_check.rs)"
# Empty span lists must serialize to well-formed JSON (regression: trailing
# comma) and a one-span trace must validate; exits non-zero on INVALID.
cargo run -q -p kw-examples --example empty_trace_check

echo "== scheduler benchmark JSON (paper_tables -- scheduler)"
# Runs the multi-query batch experiment into a scratch dir, then re-parses
# bench_results/BENCH_scheduler.json and checks its required keys; the
# section itself asserts batched-fused < batched-unfused < serial-fused.
bench_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$bench_dir"' EXIT
cargo run -q --release -p kw-bench --bin paper_tables -- scheduler profile batch_resilience out_of_core service arena --csv "$bench_dir" > /dev/null
cargo run -q -p kw-examples --example bench_json_check -- "$bench_dir/BENCH_scheduler.json"

echo "== batch resilience gate (examples/batch_resilience.rs)"
# Runs a seeded batch whose outcomes must cover the whole taxonomy
# (Completed / Retried / Degraded / Failed) with survivors byte-identical
# to the fault-free run, then schema-validates the campaign's
# BENCH_batch_resilience.json; exits non-zero on any INVALID line.
cargo run -q -p kw-examples --example batch_resilience -- \
    "$bench_dir/BENCH_batch_resilience.json" > /dev/null

echo "== out-of-core chunking gate (examples/out_of_core_check.rs)"
# Schema-validates the chunk-strategy campaign's BENCH_out_of_core.json:
# every row must be genuinely out of core (device < inputs), chunked under
# a named strategy, with fusion_gain = unfused/fused; exits non-zero on
# any INVALID line.
cargo run -q -p kw-examples --example out_of_core_check -- \
    "$bench_dir/BENCH_out_of_core.json" > /dev/null

echo "== open-loop service gate (examples/service_check.rs)"
# Schema-validates the service campaign's BENCH_service.json: percentile
# monotonicity, completed+failed == arrivals, one cache lookup per arrival
# (hits + misses == arrivals), cached variant hits while the disabled
# baseline never does, p99_gain > 1, explicit nulls for all-failed runs;
# exits non-zero on any INVALID line.
cargo run -q -p kw-examples --example service_check -- \
    "$bench_dir/BENCH_service.json" > /dev/null

echo "== scratch arena gate (examples/arena_check.rs)"
# Live-checks the arena contract on patterns (a)-(d), fused and unfused:
# exactly one Alloc/Free span per plan, high-water <= reservation, zero
# spills, tracker peak bit-equal to the admission reservation; then
# schema-validates the campaign's BENCH_arena.json row by row; exits
# non-zero on any INVALID line.
cargo run -q --release -p kw-examples --example arena_check -- \
    "$bench_dir/BENCH_arena.json" > /dev/null

echo "== observability schema validation (examples/profile.rs)"
# Prints the bottleneck profile and Prometheus export for a staged run and
# validates the metrics-registry JSON and profile JSON schemas plus the
# batch latency percentiles; exits non-zero on any INVALID line.
cargo run -q --release -p kw-examples --example profile > /dev/null

echo "== bench regression gate (bench_regression vs bench_results/baselines)"
# Diffs the freshly generated BENCH_*.json against the committed baselines
# with per-metric direction-aware tolerances (times may not rise, speedups
# and utilizations may not fall, classifications must match exactly).
cargo run -q --release -p kw-bench --bin bench_regression -- \
    --baseline-dir bench_results/baselines --fresh-dir "$bench_dir"

echo "== repo benchmark tests (benchmark/)"
# benchmark/ is its own workspace, so `cargo test --workspace` above never
# reaches its determinism, BENCHMARK.json-schema and oracle tests.
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "CI OK"
