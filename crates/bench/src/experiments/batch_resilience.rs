//! Batch resilience campaign: goodput under injected faults and memory
//! pressure.
//!
//! The multi-query scheduler claims each query is its own fault domain:
//! transient faults retry with backoff, capacity misses re-route down the
//! admission ladder, and nothing short of a fatal per-query error costs
//! more than that one query. This campaign puts numbers on the claim by
//! sweeping transient fault rate × batch size on a deliberately small
//! device:
//!
//! * every batch is oversubscribed — its summed resident peaks exceed the
//!   device, so admission must split it into sequential waves;
//! * every batch carries one *whale* (6× the normal tuple count) that
//!   cannot fit a solo wave and must degrade down the
//!   Resident → Staged → Chunked ladder;
//! * fault rates climb from 0 to 10% on transfers and launches.
//!
//! Reported per cell: outcome taxonomy (completed / retried / degraded /
//! quarantined), waves, total retries and backoff, goodput (successful
//! queries per second of makespan) and tail latency. Surviving queries are
//! checked byte-identical against the fault-free run of the same batch —
//! fault isolation must never change an answer, only delay or drop it.

use std::collections::BTreeMap;

use kw_core::{execute_batch, BatchQuery, NodeId, RetryPolicy, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig, FaultConfig};
use kw_relational::Relation;
use kw_tpch::Workload;

use super::scheduler::MIX;
use super::SEED;
use crate::table::Direction::{Exact, Higher, Lower, TwoSided};
use crate::table::Table;

/// One (fault rate × batch size) cell of the campaign.
#[derive(Debug, Clone)]
pub struct Row {
    /// Per-operation transient fault probability (transfers + launches).
    pub fault_rate: f64,
    /// Queries submitted in the batch (including the whale).
    pub queries: usize,
    /// Admission waves the batch actually issued.
    pub waves: usize,
    /// Queries that completed clean on the first try.
    pub completed: usize,
    /// Queries that completed after absorbing transient faults.
    pub retried: usize,
    /// Queries that completed via a cheaper ladder mode.
    pub degraded: usize,
    /// Queries quarantined without producing outputs.
    pub quarantined: usize,
    /// Transient-fault retries absorbed across the whole batch.
    pub retries_total: u64,
    /// Simulated seconds of retry backoff charged across the batch.
    pub backoff_seconds: f64,
    /// Successful queries per second of batch makespan.
    pub goodput_qps: f64,
    /// Shared-device makespan of the batch, seconds.
    pub makespan_seconds: f64,
    /// 99th-percentile per-query latency over successful queries, seconds.
    pub latency_p99_seconds: f64,
}

/// Default fault rates swept by the campaign.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];
/// Default batch sizes swept by the campaign.
pub const BATCH_SIZES: [usize; 2] = [4, 8];
/// The whale's tuple count as a multiple of the campaign's `n`.
pub const WHALE_FACTOR: usize = 6;

/// Generous retry budget so the campaign measures the taxonomy rather than
/// dying to bad luck; the default per-phase budget of 4 is exercised by
/// the unit and property tests instead.
fn campaign_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 64,
        base_backoff_seconds: 1e-4,
        backoff_multiplier: 1.1,
    }
}

/// Fused resident peak of each MIX pattern at `n` tuples.
fn mix_peaks(n: usize) -> Vec<u64> {
    MIX.iter()
        .map(|p| {
            let w = p.build(n, SEED);
            super::robustness::resident_peaks(&w).0
        })
        .collect()
}

/// Device capacity that forces the interesting regimes at tuple count `n`:
/// the largest normal query's resident peak plus half the smallest's, so
/// every normal query fits a wave solo but the heaviest can never share
/// one (any batch of 4+ splits into multiple waves), while the
/// [`WHALE_FACTOR`]× whale cannot fit even a solo wave and takes the
/// ladder.
pub fn capacity_for(n: usize) -> u64 {
    let peaks = mix_peaks(n);
    let max = peaks.iter().copied().max().expect("MIX is non-empty");
    let min = peaks.iter().copied().min().expect("MIX is non-empty");
    max + min / 2
}

/// The campaign's batch at size `k`: `k - 1` normal queries cycling the
/// scheduler's pattern mix, plus one whale at `WHALE_FACTOR * n` tuples of
/// the mix's largest-footprint pattern — so the whale's resident peak
/// (~`WHALE_FACTOR`× that pattern's) exceeds [`capacity_for`]'s 2.5× and
/// the whale is guaranteed onto the ladder.
fn build_batch(n: usize, k: usize) -> Vec<Workload> {
    let peaks = mix_peaks(n);
    let heaviest = (0..MIX.len())
        .max_by_key(|&i| peaks[i])
        .expect("MIX is non-empty");
    let mut workloads: Vec<Workload> = (0..k.saturating_sub(1))
        .map(|i| MIX[i % MIX.len()].build(n, SEED + i as u64))
        .collect();
    workloads.push(MIX[heaviest].build(n * WHALE_FACTOR, SEED + 1000));
    workloads
}

fn run_cell(
    workloads: &[Workload],
    rate: f64,
    capacity: u64,
    clean_outputs: Option<&[BTreeMap<NodeId, Relation>]>,
) -> (Row, Vec<BTreeMap<NodeId, Relation>>) {
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

    let mut device = Device::new(DeviceConfig {
        global_mem_bytes: capacity,
        ..DeviceConfig::fermi_c2050()
    });
    if rate > 0.0 {
        device.inject_faults(FaultConfig {
            seed: SEED,
            transfer_rate: rate,
            launch_rate: rate,
            ..FaultConfig::default()
        });
    }
    let config = WeaverConfig::default();
    let batch = execute_batch(
        &queries,
        &super::compile_batch(&queries, &config),
        &mut device,
        &config,
        &campaign_policy(),
    )
    .expect("batches never abort wholesale");
    kw_gpu_sim::reconcile(device.spans(), device.stats()).expect("batch trace reconciles");
    assert_eq!(
        device.memory().in_use(),
        0,
        "rate {rate}: batch leaked device memory"
    );

    // Fault isolation must never change an answer: every survivor matches
    // the fault-free run of the same batch byte-for-byte.
    if let Some(clean) = clean_outputs {
        for (i, q) in batch.queries.iter().enumerate() {
            if q.outcome.is_success() {
                assert_eq!(
                    q.outputs, clean[i],
                    "rate {rate}: survivor {} diverged from fault-free run",
                    q.name
                );
            }
        }
    }

    let outputs: Vec<BTreeMap<NodeId, Relation>> =
        batch.queries.iter().map(|q| q.outputs.clone()).collect();
    let row = Row {
        fault_rate: rate,
        queries: queries.len(),
        waves: batch.waves,
        completed: batch.completed_count(),
        retried: batch.retried_count(),
        degraded: batch.degraded_count(),
        quarantined: batch.quarantined_count(),
        retries_total: batch.queries.iter().map(|q| u64::from(q.retries)).sum(),
        backoff_seconds: batch.queries.iter().map(|q| q.backoff_seconds).sum(),
        goodput_qps: batch.goodput_qps,
        makespan_seconds: batch.makespan_seconds,
        latency_p99_seconds: batch.latency_p99_seconds,
    };
    assert_eq!(
        row.completed + row.retried + row.degraded + row.quarantined,
        row.queries,
        "rate {rate}: outcome taxonomy must account for every query: {row:?}"
    );
    assert!(
        row.goodput_qps > 0.0 && row.waves >= 1,
        "rate {rate}: every cell must issue a wave and finish a query: {row:?}"
    );
    (row, outputs)
}

/// Run the full campaign: `rates` × `sizes` cells at `n` tuples per normal
/// query, on a [`capacity_for`]-sized device. Each size's fault-free cell
/// runs first and its outputs anchor the byte-identity check for every
/// faulted cell of that size.
pub fn run(n: usize, rates: &[f64], sizes: &[usize]) -> Vec<Row> {
    let capacity = capacity_for(n);
    let mut rows = Vec::with_capacity(rates.len() * sizes.len());
    for &k in sizes {
        let workloads = build_batch(n, k);
        let (clean_row, clean_outputs) = run_cell(&workloads, 0.0, capacity, None);
        for &rate in rates {
            if rate == 0.0 {
                rows.push(clean_row.clone());
            } else {
                let (row, _) = run_cell(&workloads, rate, capacity, Some(&clean_outputs));
                rows.push(row);
            }
        }
    }
    rows
}

/// The campaign at `n` tuples per query as the `batch_resilience` table.
pub fn table(n: usize, rows: &[Row]) -> Table {
    Table::new("batch_resilience")
        .param("tuples_per_query", n)
        .param("whale_factor", WHALE_FACTOR)
        .column(rows, "fault_rate", Exact, |r| r.fault_rate)
        .column(rows, "queries", Exact, |r| r.queries)
        .column(rows, "waves", Exact, |r| r.waves)
        .column(rows, "completed", Exact, |r| r.completed)
        .column(rows, "retried", TwoSided, |r| r.retried)
        .column(rows, "degraded", TwoSided, |r| r.degraded)
        .column(rows, "quarantined", Lower, |r| r.quarantined)
        .column(rows, "retries_total", TwoSided, |r| r.retries_total)
        .column(rows, "backoff_seconds", Lower, |r| r.backoff_seconds)
        .column(rows, "goodput_qps", Higher, |r| r.goodput_qps)
        .column(rows, "makespan_seconds", Lower, |r| r.makespan_seconds)
        .column(rows, "latency_p99_seconds", Lower, |r| {
            r.latency_p99_seconds
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::declared;

    #[test]
    fn fault_free_batches_split_into_waves_and_degrade_the_whale() {
        let rows = run(1 << 12, &[0.0], &[4]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.quarantined, 0, "{r:?}");
        assert_eq!(r.retries_total, 0, "{r:?}");
        assert!(r.waves >= 2, "oversubscribed batch must split: {r:?}");
        assert!(r.degraded >= 1, "the whale must ride the ladder: {r:?}");
    }

    #[test]
    fn faulted_batches_retry_and_keep_goodput_positive() {
        let rows = run(1 << 12, &[0.0, 0.10], &[4]);
        assert_eq!(rows.len(), 2);
        let (clean, hot) = (&rows[0], &rows[1]);
        assert!(
            hot.retries_total > 0,
            "10% faults must force at least one retry: {hot:?}"
        );
        assert!(hot.backoff_seconds > 0.0);
        // Backoff and re-execution cost wallclock relative to the clean run.
        assert!(hot.makespan_seconds > clean.makespan_seconds, "{hot:?}");
    }

    #[test]
    fn json_export_is_well_formed() {
        let rows = run(1 << 12, &[0.0], &[4]);
        let t = table(1 << 12, &rows);
        let doc = kw_gpu_sim::parse_json(&t.json()).expect("batch_resilience JSON parses");
        let json_rows = doc.get("rows").and_then(|r| r.as_array()).expect("rows");
        assert_eq!(json_rows.len(), rows.len());
        for key in [
            "fault_rate",
            "goodput_qps",
            "quarantined",
            "waves",
            "latency_p99_seconds",
        ] {
            assert!(
                json_rows[0].get(key).is_some(),
                "missing {key} in {json_rows:?}"
            );
        }
        // Goodput may not fall, quarantines may not rise, and the wave
        // structure is exact.
        assert_eq!(declared(&t, "goodput_qps"), Some(Higher));
        assert_eq!(declared(&t, "quarantined"), Some(Lower));
        assert_eq!(declared(&t, "waves"), Some(Exact));
    }
}
