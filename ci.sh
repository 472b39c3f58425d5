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

echo "== host fusion smoke gate (examples/host_fusion.rs)"
# Runs every Figure 14 pattern fused and unfused at 2^12-2^16 tuples and
# exits non-zero if their outputs differ. Its stdout holds host wall times,
# which vary between runs, so it is not diffed.
cargo run -q --release -p kw-examples --example host_fusion > /dev/null

echo "== campaign benchmarks and CSV gate (paper_tables -- scheduler ... robustness)"
# Regenerates the six BENCH_*.json files into a scratch dir for the
# regression gate below. Each campaign asserts its own invariants while it
# builds its rows (e.g. batched-fused < batched-unfused < serial-fused,
# hits + misses == arrivals, one Alloc/Free span per arena run), so a
# violation fails the section and paper_tables exits non-zero. The
# campaigns' CSVs are simulated numbers, deterministic for the committed
# configuration, so each must match its committed copy byte for byte:
# overlap is the one run of staged chunks, robustness drives the
# degradation ladder under faults.
bench_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$bench_dir"' EXIT
cargo run -q --release -p kw-bench --bin paper_tables -- scheduler profile batch_resilience out_of_core service arena overlap robustness --csv "$bench_dir" > /dev/null
for csv in arena batch_resilience out_of_core profile scheduler service overlap robustness_faults robustness_ladder; do
    cmp "$bench_dir/$csv.csv" "bench_results/$csv.csv"
done

echo "== paper figure gate (paper_tables -- fig4 fig16 ... fig21 vs bench_results/)"
# The Figure 4 and 16-21 series are simulated numbers, deterministic for
# the committed configuration. Regenerate them and compare each CSV byte
# for byte with its committed copy, so a change that moves any of the
# paper's figures fails here.
fig_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$bench_dir" "$fig_dir"' EXIT
cargo run -q --release -p kw-bench --bin paper_tables -- fig4 fig16 fig17 fig18 fig19 fig20 fig21 --csv "$fig_dir" > /dev/null
for fig in fig04 fig16 fig17 fig18 fig19 fig20 fig21; do
    cmp "$fig_dir/$fig.csv" "bench_results/$fig.csv"
done

echo "== observability export gate (examples/profile.rs)"
# Prints the bottleneck profile and Prometheus export for a staged run (the
# device's rendering of its records plus the plan report's series) and
# validates the metrics JSON and profile JSON schemas plus the batch
# latency percentiles; exits non-zero on any INVALID line. Its stdout must
# match the committed golden byte for byte.
cargo run -q --release -p kw-examples --example profile \
    | diff -u bench_results/baselines/profile_example.txt -

echo "== bench regression gate (bench_regression vs bench_results/baselines)"
# Diffs the freshly generated BENCH_*.json against the committed baselines
# with per-metric direction-aware tolerances (times may not rise, speedups
# and utilizations may not fall, classifications must match exactly).
cargo run -q --release -p kw-bench --bin bench_regression -- \
    --baseline-dir bench_results/baselines --fresh-dir "$bench_dir"

echo "== repo benchmark fmt, clippy and tests (benchmark/)"
# benchmark/ is its own workspace, so the workspace-wide fmt, clippy and
# test runs above never reach its sources or its determinism,
# BENCHMARK.json-schema and oracle tests.
cargo fmt --manifest-path benchmark/Cargo.toml -- --check
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "CI OK"
