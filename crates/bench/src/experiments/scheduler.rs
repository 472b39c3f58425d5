//! Multi-query batch scheduling: throughput on one shared device.
//!
//! The paper evaluates fusion one query at a time; production databases run
//! many queries at once. This experiment batches independent queries through
//! [`kw_core::execute_batch`] and compares three regimes:
//!
//! * **batched-fused** — fused plans, concurrently scheduled on the shared
//!   device's stream/event graph;
//! * **batched-unfused** — the same concurrency without fusion;
//! * **serial-fused** — fused plans run one at a time (sum of solo
//!   makespans), the paper's own regime.
//!
//! The headline ordering is `batched-fused < batched-unfused <
//! serial-fused`: batching hides one query's transfers under another's
//! compute, and fusion then shrinks the compute-engine busy time that
//! bounds the batch from below. [`run`] asserts it on every row, so it
//! panics at sizes too small for batching to pay (two queries of 16Ki
//! tuples each lose to serial-fused when unfused).

use kw_core::{execute_batch, BatchQuery, RetryPolicy, WeaverConfig};
use kw_relational::Relation;
use kw_tpch::{Pattern, Workload};

use crate::table::Direction::{Exact, Higher, Lower, TwoSided};
use crate::table::Table;

/// One batch size of the scheduler experiment.
#[derive(Debug, Clone)]
pub struct Row {
    /// Number of concurrent queries in the batch.
    pub queries: usize,
    /// Shared-device makespan of the fused batch, seconds.
    pub batched_fused: f64,
    /// Shared-device makespan of the unfused batch, seconds.
    pub batched_unfused: f64,
    /// Sum of solo fused makespans (one query at a time), seconds.
    pub serial_fused: f64,
    /// Queries per second of makespan for the fused batch.
    pub throughput_qps: f64,
    /// Median per-query latency of the fused batch, seconds (exact
    /// nearest-rank order statistic over the successful queries).
    pub latency_p50: f64,
    /// 95th-percentile per-query latency of the fused batch, seconds.
    pub latency_p95: f64,
    /// 99th-percentile per-query latency of the fused batch, seconds.
    pub latency_p99: f64,
    /// Per-engine utilization of the fused batch (busy / makespan), keyed
    /// by engine name, in name order.
    pub engine_utilization: Vec<(String, f64)>,
    /// Transient-fault retries absorbed across the fused batch's queries
    /// (0 on this fault-free campaign — quoted so the table states it).
    pub retries_total: u64,
    /// Retry backoff charged across the fused batch's queries, seconds.
    pub backoff_seconds: f64,
}

impl Row {
    /// Batched-fused speedup over running the fused queries serially.
    pub fn speedup_vs_serial(&self) -> f64 {
        self.serial_fused / self.batched_fused
    }

    /// What fusion adds on top of batching alone.
    pub fn fusion_gain(&self) -> f64 {
        self.batched_unfused / self.batched_fused
    }
}

/// Pattern mix a batch cycles through: select chains, shared-input selects
/// and arithmetic pipelines — the shapes whose transfers batching can hide.
pub const MIX: [Pattern; 3] = [Pattern::A, Pattern::D, Pattern::E];

/// Run one batch per entry of `sizes`, each query at `n` tuples.
pub fn run(n: usize, sizes: &[usize]) -> Vec<Row> {
    sizes.iter().map(|&k| run_batch(n, k)).collect()
}

fn run_batch(n: usize, k: usize) -> Row {
    let workloads: Vec<Workload> = (0..k)
        .map(|i| MIX[i % MIX.len()].build(n, super::SEED + i as u64))
        .collect();
    let bindings: Vec<Vec<(&str, &Relation)>> = workloads.iter().map(|w| w.bindings()).collect();
    let queries: Vec<BatchQuery<'_>> = workloads
        .iter()
        .zip(&bindings)
        .map(|(w, b)| BatchQuery {
            name: &w.name,
            plan: &w.plan,
            bindings: b,
        })
        .collect();

    let cfg = WeaverConfig::default();
    let policy = RetryPolicy::default();
    let fused_plans = super::compile_batch(&queries, &cfg);
    let mut fused_dev = super::device();
    let fused =
        execute_batch(&queries, &fused_plans, &mut fused_dev, &cfg, &policy).expect("fused batch");
    kw_gpu_sim::reconcile(fused_dev.spans(), fused_dev.stats()).expect("fused batch reconciles");

    let base_cfg = cfg.baseline();
    let base_plans = super::compile_batch(&queries, &base_cfg);
    let mut base_dev = super::device();
    let base = execute_batch(&queries, &base_plans, &mut base_dev, &base_cfg, &policy)
        .expect("unfused batch");

    // Serial-fused: the same queries one at a time, each on a fresh device.
    // Batching must never change a query's answer along the way.
    let mut serial = 0.0;
    for ((q, c), r) in queries.iter().zip(&fused_plans).zip(&fused.queries) {
        let mut dev = super::device();
        let solo = execute_batch(&[*q], std::slice::from_ref(c), &mut dev, &cfg, &policy)
            .expect("solo run");
        serial += solo.makespan_seconds;
        assert_eq!(
            solo.queries[0].outputs, r.outputs,
            "{}: batching changed results",
            r.name
        );
    }
    for (f, b) in fused.queries.iter().zip(&base.queries) {
        assert_eq!(f.outputs, b.outputs, "{}: fusion changed results", f.name);
    }
    assert!(
        fused.makespan_seconds < base.makespan_seconds,
        "{k} queries: fusion must win inside a batch: {} vs {}",
        fused.makespan_seconds,
        base.makespan_seconds
    );
    assert!(
        base.makespan_seconds < serial,
        "{k} queries: batching must beat serial even unfused: {} vs {serial}",
        base.makespan_seconds
    );

    Row {
        queries: k,
        batched_fused: fused.makespan_seconds,
        batched_unfused: base.makespan_seconds,
        serial_fused: serial,
        throughput_qps: fused.throughput_qps,
        latency_p50: fused.latency_p50_seconds,
        latency_p95: fused.latency_p95_seconds,
        latency_p99: fused.latency_p99_seconds,
        engine_utilization: fused
            .engine_utilization
            .iter()
            .map(|(name, &u)| (name.clone(), u))
            .collect(),
        retries_total: fused.queries.iter().map(|q| u64::from(q.retries)).sum(),
        backoff_seconds: fused.queries.iter().map(|q| q.backoff_seconds).sum(),
    }
}

/// The campaign at `n` tuples per query as the `scheduler` table, with one
/// `<engine>_utilization` column per engine of the first row.
pub fn table(n: usize, rows: &[Row]) -> Table {
    let mut t = Table::new("scheduler")
        .param("tuples_per_query", n)
        .column(rows, "queries", Exact, |r| r.queries)
        .column(rows, "batched_fused_seconds", Lower, |r| r.batched_fused)
        .column(rows, "batched_unfused_seconds", Lower, |r| {
            r.batched_unfused
        })
        .column(rows, "serial_fused_seconds", Lower, |r| r.serial_fused)
        .column(rows, "throughput_qps", Higher, |r| r.throughput_qps)
        .column(rows, "speedup_vs_serial", Higher, Row::speedup_vs_serial)
        .column(rows, "fusion_gain", Higher, Row::fusion_gain)
        .column(rows, "latency_p50_seconds", Lower, |r| r.latency_p50)
        .column(rows, "latency_p95_seconds", Lower, |r| r.latency_p95)
        .column(rows, "latency_p99_seconds", Lower, |r| r.latency_p99)
        .column(rows, "retries_total", TwoSided, |r| r.retries_total)
        .column(rows, "backoff_seconds", Lower, |r| r.backoff_seconds);
    for (engine, _) in rows.first().map_or(&[][..], |r| &r.engine_utilization) {
        t = t.column(rows, &format!("{engine}_utilization"), Higher, |r| {
            r.engine_utilization
                .iter()
                .find(|(e, _)| e == engine)
                .map(|&(_, u)| u)
        });
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::declared;

    #[test]
    fn batching_orders_the_three_regimes() {
        // `run` asserts batched-fused < batched-unfused < serial-fused.
        for r in run(1 << 16, &[2, 4]) {
            assert!(r.throughput_qps > 0.0, "{r:?}");
        }
    }

    #[test]
    fn json_export_is_well_formed() {
        // `run` asserts the ordering, which two 16Ki-tuple queries miss.
        let rows = run(1 << 16, &[2]);
        let t = table(1 << 16, &rows);
        let doc = kw_gpu_sim::parse_json(&t.json()).expect("scheduler JSON parses");
        let json_rows = doc.get("rows").and_then(|r| r.as_array()).expect("rows");
        assert_eq!(json_rows.len(), rows.len());
        for key in [
            "batched_fused_seconds",
            "throughput_qps",
            "speedup_vs_serial",
        ] {
            assert!(json_rows[0].get(key).is_some(), "missing {key}");
        }
        // Every engine's utilization is a column, and it may not fall.
        assert!(!rows[0].engine_utilization.is_empty());
        for (engine, u) in &rows[0].engine_utilization {
            let column = format!("{engine}_utilization");
            assert_eq!(json_rows[0].get(&column).and_then(|v| v.as_f64()), Some(*u));
            assert_eq!(declared(&t, &column), Some(Higher), "{column}");
        }
    }
}
