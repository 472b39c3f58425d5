//! Benchmark harness for the Kernel Weaver reproduction.
//!
//! Every table and figure of the paper's evaluation has an experiment
//! module under [`experiments`]; the `paper_tables` binary renders them all
//! as text and writes each experiment's [`table::Table`] as a CSV and a
//! `BENCH_*.json` document, which the `bench_regression` binary diffs
//! against the committed baselines.
//!
//! ```bash
//! cargo run --release -p kw-bench --bin paper_tables                # all sections
//! cargo run --release -p kw-bench --bin paper_tables -- fig16      # one section
//! cargo run --release -p kw-bench --bin paper_tables -- --csv out  # tables into out/
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
