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

echo "== cargo doc --no-deps -- -D warnings"
# Rustdoc warnings are errors, so a doc link to a renamed or deleted item
# fails the build. Only the kw-* crates: the third_party/ stand-ins are
# not this project's API.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p kw-relational -p kw-gpu-sim -p kw-kernel-ir -p kw-primitives \
    -p kw-core -p kw-datalog -p kw-tpch -p kw-bench

echo "== cargo build --release"
# The tier-1 gate builds release before testing; catching release-only
# breakage (e.g. debug_assert-guarded code) locally keeps CI honest.
cargo build --release --workspace

echo "== cargo test -q"
cargo test --workspace -q

echo "== kw-kernel-ir unit tests, ten more runs"
# The step interpreter runs a large grid's CTAs on several host threads,
# and the tests of its claim protocol run real threads alongside the rest
# of the binary. A test whose outcome depends on how the OS schedules them
# then fails here, not in a later run by chance.
for run in $(seq 10); do
    echo "run $run of 10"
    cargo test -q -p kw-kernel-ir --lib
done

echo "== cargo test --release -q (kw-relational, kw-kernel-ir)"
# The test profile builds at opt-level 1, but the block evaluators and the
# row copies of these two crates are loops the release optimizer vectorizes
# and reorders, and two NaN bugs (swapped NaN operands, an unquieted
# signalling NaN) showed only in optimized code. So both crates' tests,
# block_eval and interp_golden among them, run again at release settings.
cargo test --release -q -p kw-relational -p kw-kernel-ir

echo "== trace schema validation (examples/trace.rs)"
# Runs TPC-H Q1 fused + unfused, reconciles per-span deltas against the
# aggregate SimStats and validates the exported Chrome trace JSON, then
# runs fused Q1 again on the same device: the second report's spans must
# reconcile with its stats and repeat the first run's. The example exits
# non-zero on any schema, reconciliation or rerun mismatch.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -q -p kw-examples --example trace -- "$trace_dir" > /dev/null
for f in "$trace_dir"/q1.fused.trace.json "$trace_dir"/q1.baseline.trace.json; do
    [ -s "$f" ] || { echo "missing trace export: $f" >&2; exit 1; }
done

echo "== host fusion smoke gate (examples/host_fusion.rs)"
# Runs every Figure 14 pattern fused and unfused at 2^12-2^16 tuples and
# exits non-zero if their outputs differ. Its stdout holds host wall times,
# which vary between runs, so it is not diffed.
cargo run -q --release -p kw-examples --example host_fusion > /dev/null

echo "== paper tables gate (paper_tables, every section, vs paper_tables_output.txt and bench_results/)"
# One run of every section. Its numbers are simulated, deterministic for the
# committed configuration, so its stdout must match paper_tables_output.txt
# byte for byte; that gates the sections without a table (table2, fig15,
# density, capacity, platforms, ablations, trace) too. Every section with a
# table writes it as <name>.csv and BENCH_<name>.json: every committed CSV
# must match its fresh copy byte for byte, and every fresh file must have a
# committed counterpart: a CSV in bench_results/, a BENCH document in
# bench_results/baselines/. The campaigns assert their own
# invariants while they build their rows (e.g. batched-fused <
# batched-unfused < serial-fused, hits + misses == arrivals, one Alloc/Free
# span per arena run), so a violation fails the section and paper_tables
# exits non-zero. bench_regression then diffs each BENCH document against
# its baseline by the directions the baseline declares per column (fused
# costs may not rise, speedups may not fall, labels and counts must match).
tables_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$tables_dir"' EXIT
cargo run -q --release -p kw-bench --bin paper_tables -- --csv "$tables_dir" \
    | diff -u paper_tables_output.txt -
for committed in bench_results/*.csv; do
    cmp "$committed" "$tables_dir/$(basename "$committed")"
done
for fresh in "$tables_dir"/*.csv "$tables_dir"/BENCH_*.json; do
    name="$(basename "$fresh")"
    case "$name" in
        BENCH_*) committed="bench_results/baselines/$name" ;;
        *) committed="bench_results/$name" ;;
    esac
    [ -e "$committed" ] || { echo "$name has no committed counterpart $committed" >&2; exit 1; }
done
cargo run -q --release -p kw-bench --bin bench_regression -- \
    --baseline-dir bench_results/baselines --fresh-dir "$tables_dir"

echo "== observability export gate (examples/profile.rs)"
# Prints the bottleneck profile and Prometheus export for a staged run (the
# device's rendering of its records plus the plan report's series) and
# validates the metrics JSON and profile JSON schemas plus the batch
# latency percentiles; exits non-zero on any INVALID line. Its stdout must
# match the committed golden byte for byte.
cargo run -q --release -p kw-examples --example profile \
    | diff -u bench_results/baselines/profile_example.txt -

echo "== repo benchmark fmt, clippy and tests (benchmark/)"
# benchmark/ is its own workspace, so the workspace-wide fmt, clippy and
# test runs above never reach its sources or its determinism,
# BENCHMARK.json-schema and oracle tests.
cargo fmt --manifest-path benchmark/Cargo.toml -- --check
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "CI OK"
