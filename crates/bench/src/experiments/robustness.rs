//! Resilient execution under memory pressure and injected faults.
//!
//! Two sweeps, both over micro-benchmark pattern (a) (an elementwise
//! SELECT chain, so the whole degradation ladder is reachable):
//!
//! * **Ladder sweep** — shrink the device until plans stop fitting
//!   GPU-resident. Fusion's smaller footprint (§2.3 benefit #4) keeps the
//!   fused plan on the Resident rung at capacities where the baseline has
//!   already degraded to Staged or Chunked, and cheaper rungs mean cheaper
//!   queries.
//! * **Fault sweep** — raise the transient fault rate and count the retries
//!   both plans need. A fused plan issues fewer kernel launches and fewer
//!   transfers per attempt, so it exposes a smaller fault cross-section and
//!   re-executes less work to finish.
//!
//! Like the campaigns, both sweeps assert their invariants while they build
//! their rows: a run that fails even with the sweep's retry budget, or that
//! comes back without its [`ResilienceReport`], panics naming the workload
//! and the fusion flag, so a partial sweep is never mistaken for a full one.

use kw_core::{
    admit, compile, execute_compiled_resilient, AdmittedMode, PlanReport, ResilienceReport,
    RetryPolicy, WeaverConfig,
};
use kw_gpu_sim::{Device, DeviceConfig, FaultConfig};
use kw_relational::Relation;
use kw_tpch::{Pattern, Workload};

use super::SEED;
use crate::table::Direction::{Exact, Lower, TwoSided};
use crate::table::Table;

/// One device size in the degradation-ladder sweep.
#[derive(Debug, Clone)]
pub struct LadderRow {
    /// Device global-memory bytes.
    pub capacity: u64,
    /// Rung the fused plan finished on.
    pub fused_mode: AdmittedMode,
    /// Rung the unfused plan finished on.
    pub baseline_mode: AdmittedMode,
    /// Fused end-to-end seconds.
    pub fused_seconds: f64,
    /// Baseline end-to-end seconds.
    pub baseline_seconds: f64,
}

/// One fault rate in the fault-rate sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultRow {
    /// Per-operation transient fault probability (transfers + launches).
    pub rate: f64,
    /// Transient faults the fused plan retried through.
    pub fused_retries: u32,
    /// Transient faults the baseline retried through.
    pub baseline_retries: u32,
    /// Fused GPU seconds including re-executed attempts.
    pub fused_gpu_seconds: f64,
    /// Baseline GPU seconds including re-executed attempts.
    pub baseline_gpu_seconds: f64,
    /// Fused end-to-end seconds including backoff.
    pub fused_seconds: f64,
    /// Baseline end-to-end seconds including backoff.
    pub baseline_seconds: f64,
}

/// Generous retry budget so the sweep itself never dies to bad luck; the
/// per-rung default of 4 is exercised by the unit/property tests instead.
fn sweep_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 64,
        base_backoff_seconds: 1e-4,
        backoff_multiplier: 1.1,
    }
}

/// Run `w` through the resilient driver and return its report with the
/// resilience report taken out of it.
///
/// # Panics
///
/// When the run fails even with [`sweep_policy`]'s budget, or its report
/// carries no resilience report.
fn run_resilient(
    w: &Workload,
    device: &mut Device,
    fusion: bool,
) -> (PlanReport, ResilienceReport) {
    let config = WeaverConfig {
        fusion,
        ..WeaverConfig::default()
    };
    let mut report = compile(&w.plan, &config)
        .and_then(|compiled| {
            execute_compiled_resilient(
                &w.plan,
                &compiled,
                &w.bindings(),
                device,
                &config,
                &sweep_policy(),
            )
        })
        .unwrap_or_else(|e| panic!("{} (fusion={fusion}) failed resiliently: {e}", w.name));
    let resilience = report
        .resilience
        .take()
        .unwrap_or_else(|| panic!("{} (fusion={fusion}) returned no resilience report", w.name));
    (report, resilience)
}

/// Predicted resident peaks `(fused, baseline)` for `w`, used to position
/// the capacity sweep around the interesting thresholds.
pub fn resident_peaks(w: &Workload) -> (u64, u64) {
    let bindings = w.bindings();
    let fused = compile(&w.plan, &WeaverConfig::default()).expect("compile fused");
    let base = compile(&w.plan, &WeaverConfig::default().baseline()).expect("compile baseline");
    let f = admit(&w.plan, &fused, &bindings, u64::MAX).expect("admit fused");
    let b = admit(&w.plan, &base, &bindings, u64::MAX).expect("admit baseline");
    (f.resident_peak, b.resident_peak)
}

/// Degradation-ladder sweep: pattern (a) with `n` tuples, on devices sized
/// around the fused/baseline resident thresholds.
///
/// # Panics
///
/// When a rung fails to execute resiliently, changes the answer or leaks
/// device memory.
pub fn run_ladder(n: usize) -> Vec<LadderRow> {
    let w = Pattern::A.build(n, SEED);
    let (fused_peak, base_peak) = resident_peaks(&w);
    let capacities = [
        base_peak + base_peak / 4,    // both fit resident
        (fused_peak + base_peak) / 2, // only the fused plan fits resident
        fused_peak / 2,               // neither fits; staged territory
        fused_peak / 8,               // chunked territory
    ];

    let mut oracle: Option<std::collections::BTreeMap<kw_core::NodeId, Relation>> = None;
    let mut rows = Vec::with_capacity(capacities.len());
    for &capacity in &capacities {
        let cfg = DeviceConfig {
            global_mem_bytes: capacity,
            ..DeviceConfig::fermi_c2050()
        };
        let mut fused_dev = Device::new(cfg.clone());
        let (fused, fused_res) = run_resilient(&w, &mut fused_dev, true);
        let mut base_dev = Device::new(cfg);
        let (base, base_res) = run_resilient(&w, &mut base_dev, false);

        assert_eq!(
            fused.outputs, base.outputs,
            "ladder rung changed the answer"
        );
        let o = oracle.get_or_insert_with(|| fused.outputs.clone());
        assert_eq!(&fused.outputs, o, "capacity changed the answer");
        assert_eq!(fused_dev.memory().in_use(), 0, "fused run leaked");
        assert_eq!(base_dev.memory().in_use(), 0, "baseline run leaked");

        rows.push(LadderRow {
            capacity,
            fused_mode: fused_res.final_mode,
            baseline_mode: base_res.final_mode,
            fused_seconds: fused.total_seconds,
            baseline_seconds: base.total_seconds,
        });
    }
    rows
}

/// Default fault rates for [`run_faults`]. A single attempt of pattern (a)
/// exposes only a handful of faultable operations, so the sweep reaches high
/// rates to show retries actually happening.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.25];

/// Fault-rate sweep: pattern (a) with `n` tuples on a full-size device,
/// transient faults injected on transfers and launches at each `rate`.
///
/// # Panics
///
/// As [`run_ladder`].
pub fn run_faults(n: usize, rates: &[f64]) -> Vec<FaultRow> {
    let w = Pattern::A.build(n, SEED);
    let mut oracle: Option<std::collections::BTreeMap<kw_core::NodeId, Relation>> = None;

    let mut rows = Vec::with_capacity(rates.len());
    for &rate in rates {
        let faults = FaultConfig {
            seed: SEED,
            transfer_rate: rate,
            launch_rate: rate,
            ..FaultConfig::default()
        };
        let mut fused_dev = Device::new(DeviceConfig::fermi_c2050());
        fused_dev.inject_faults(faults.clone());
        let (fused, fused_res) = run_resilient(&w, &mut fused_dev, true);
        let mut base_dev = Device::new(DeviceConfig::fermi_c2050());
        base_dev.inject_faults(faults);
        let (base, base_res) = run_resilient(&w, &mut base_dev, false);

        assert_eq!(fused.outputs, base.outputs, "faults changed the answer");
        let o = oracle.get_or_insert_with(|| fused.outputs.clone());
        assert_eq!(&fused.outputs, o, "fault rate changed the answer");
        assert_eq!(fused_dev.memory().in_use(), 0, "fused run leaked");
        assert_eq!(base_dev.memory().in_use(), 0, "baseline run leaked");

        rows.push(FaultRow {
            rate,
            fused_retries: fused_res.retries,
            baseline_retries: base_res.retries,
            fused_gpu_seconds: fused.gpu_seconds,
            baseline_gpu_seconds: base.gpu_seconds,
            fused_seconds: fused.total_seconds,
            baseline_seconds: base.total_seconds,
        });
    }
    rows
}

/// The ladder sweep at `n` tuples as the `robustness_ladder` table.
pub fn ladder_table(n: usize, rows: &[LadderRow]) -> Table {
    Table::new("robustness_ladder")
        .param("tuples_per_input", n)
        .column(rows, "capacity", Exact, |r| r.capacity)
        .column(rows, "fused_mode", Exact, |r| r.fused_mode.to_string())
        .column(rows, "baseline_mode", Exact, |r| {
            r.baseline_mode.to_string()
        })
        .column(rows, "fused_seconds", Lower, |r| r.fused_seconds)
        .column(rows, "baseline_seconds", TwoSided, |r| r.baseline_seconds)
}

/// The fault sweep at `n` tuples as the `robustness_faults` table.
pub fn faults_table(n: usize, rows: &[FaultRow]) -> Table {
    Table::new("robustness_faults")
        .param("tuples_per_input", n)
        .column(rows, "rate", Exact, |r| r.rate)
        .column(rows, "fused_retries", Lower, |r| r.fused_retries)
        .column(rows, "baseline_retries", TwoSided, |r| r.baseline_retries)
        .column(rows, "fused_gpu_seconds", Lower, |r| r.fused_gpu_seconds)
        .column(rows, "baseline_gpu_seconds", TwoSided, |r| {
            r.baseline_gpu_seconds
        })
        .column(rows, "fused_seconds", Lower, |r| r.fused_seconds)
        .column(rows, "baseline_seconds", TwoSided, |r| r.baseline_seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_plans_stay_resident_longer() {
        let rows = run_ladder(1 << 15);
        assert_eq!(rows[0].fused_mode, AdmittedMode::Resident);
        assert_eq!(rows[0].baseline_mode, AdmittedMode::Resident);
        // The threshold capacity: fusion still fits, the baseline degraded.
        assert_eq!(rows[1].fused_mode, AdmittedMode::Resident);
        assert_ne!(rows[1].baseline_mode, AdmittedMode::Resident);
        // The smallest capacity pushes everyone off Resident.
        assert_ne!(rows[3].fused_mode, AdmittedMode::Resident);
        assert!(matches!(
            rows[3].baseline_mode,
            AdmittedMode::Chunked { .. }
        ));
    }

    #[test]
    fn faults_are_survived_and_fused_exposes_less_cross_section() {
        let rows = run_faults(1 << 14, &FAULT_RATES);
        assert_eq!(rows[0].fused_retries + rows[0].baseline_retries, 0);
        let faulty_retries: u32 = rows[1..]
            .iter()
            .map(|r| r.fused_retries + r.baseline_retries)
            .sum();
        assert!(
            faulty_retries > 0,
            "sweep never injected a survivable fault"
        );
        // Under faults the baseline re-executes more work than fused.
        let hot = rows.last().unwrap();
        assert!(hot.baseline_gpu_seconds > hot.fused_gpu_seconds);
    }
}
