//! Bottleneck-attribution profile over the paper's five patterns.
//!
//! For every pattern (a)–(e) this experiment runs the fused plan on the
//! discrete Fermi (resident and staged) and on the paper's §2.3 fused
//! APU (PCIe removed), then folds each span log through
//! [`kw_core::ProfileReport`]: which resource bounds the run (PCIe link,
//! launch overhead, global-memory bandwidth or raw compute), how busy each
//! engine was, and what fraction of peak bandwidth the run achieved. On
//! the Fermi the 8 GB/s link dominates every pattern; on the APU the same
//! plans turn launch-, memory- or compute-bound. The JSON export pins the
//! classification strings so a change to the roofline rule fails the
//! bench-regression gate rather than drifting silently.

use kw_core::ExecMode;
use kw_gpu_sim::{Device, DeviceConfig};
use kw_tpch::Pattern;

use crate::table::Direction::{Exact, TwoSided};
use crate::table::Table;

/// One pattern/platform/mode cell of the profile table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Pattern label, e.g. `(a)`.
    pub pattern: String,
    /// Simulated platform: `fermi` (discrete, PCIe-attached) or `apu`
    /// (fused, no PCIe link).
    pub platform: String,
    /// Execution mode: `resident` or `staged`.
    pub mode: String,
    /// Roofline verdict for the whole run (`transfer`, `launch`,
    /// `memory` or `compute`).
    pub bottleneck: String,
    /// Fraction of wall time the compute engine was busy.
    pub gpu_busy_fraction: f64,
    /// Fraction of wall time the PCIe link was busy.
    pub pcie_busy_fraction: f64,
    /// Share of GPU cycles that were fixed launch overhead.
    pub launch_share: f64,
    /// Achieved global-memory bandwidth over the device peak.
    pub global_bw_utilization: f64,
    /// Achieved PCIe bandwidth over the device peak.
    pub pcie_bw_utilization: f64,
}

fn mode_name(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Resident => "resident",
        ExecMode::Staged => "staged",
    }
}

/// Profile every pattern, fused, at `n` tuples per input: Fermi resident,
/// Fermi staged, and fused-APU resident.
pub fn run(n: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for pattern in Pattern::all() {
        for (platform, config, mode) in [
            ("fermi", DeviceConfig::fermi_c2050(), ExecMode::Resident),
            ("fermi", DeviceConfig::fermi_c2050(), ExecMode::Staged),
            ("apu", DeviceConfig::fused_apu(), ExecMode::Resident),
        ] {
            let w = pattern.build(n, super::SEED);
            let cfg = kw_core::WeaverConfig {
                mode,
                ..super::resident()
            };
            let mut dev = Device::new(config);
            let report = w.run(&mut dev, &cfg).expect("profiled run");
            let p = &report.profile;
            rows.push(Row {
                pattern: pattern.label().to_string(),
                platform: platform.to_string(),
                mode: mode_name(mode).to_string(),
                bottleneck: p.bottleneck.name().to_string(),
                gpu_busy_fraction: p.gpu_busy_fraction,
                pcie_busy_fraction: p.pcie_busy_fraction,
                launch_share: p.launch_share,
                global_bw_utilization: p.global_bw_utilization,
                pcie_bw_utilization: p.pcie_bw_utilization,
            });
        }
    }
    rows
}

/// The profile at `n` tuples per query as the `profile` table.
pub fn table(n: usize, rows: &[Row]) -> Table {
    Table::new("profile")
        .param("tuples_per_query", n)
        .column(rows, "pattern", Exact, |r| r.pattern.as_str())
        .column(rows, "platform", Exact, |r| r.platform.as_str())
        .column(rows, "mode", Exact, |r| r.mode.as_str())
        .column(rows, "bottleneck", Exact, |r| r.bottleneck.as_str())
        .column(rows, "gpu_busy_fraction", TwoSided, |r| r.gpu_busy_fraction)
        .column(rows, "pcie_busy_fraction", TwoSided, |r| {
            r.pcie_busy_fraction
        })
        .column(rows, "launch_share", TwoSided, |r| r.launch_share)
        .column(rows, "global_bw_utilization", TwoSided, |r| {
            r.global_bw_utilization
        })
        .column(rows, "pcie_bw_utilization", TwoSided, |r| {
            r.pcie_bw_utilization
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_pattern_d_is_transfer_bound_and_apu_is_not() {
        let rows = run(1 << 16);
        let d = rows
            .iter()
            .find(|r| r.pattern == "(d)" && r.platform == "fermi" && r.mode == "staged")
            .expect("pattern (d) fermi staged row");
        assert_eq!(d.bottleneck, "transfer", "{d:?}");
        assert!(d.pcie_busy_fraction > 0.0);
        // Removing the PCIe link (§2.3) must move the verdict off transfer.
        for r in rows.iter().filter(|r| r.platform == "apu") {
            assert_ne!(r.bottleneck, "transfer", "{r:?}");
        }
    }

    #[test]
    fn json_export_is_well_formed() {
        let rows = run(1 << 12);
        assert_eq!(rows.len(), 3 * Pattern::all().len());
        let t = table(1 << 12, &rows);
        let doc = kw_gpu_sim::parse_json(&t.json()).expect("profile JSON parses");
        let json_rows = doc.get("rows").and_then(|r| r.as_array()).expect("rows");
        assert_eq!(json_rows.len(), rows.len());
        for key in ["bottleneck", "gpu_busy_fraction", "launch_share"] {
            assert!(json_rows[0].get(key).is_some(), "missing {key}");
        }
    }
}
