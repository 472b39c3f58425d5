//! Figure 21: large inputs — every baseline operator stages its result
//! over PCIe, fused kernels keep intermediates on the GPU.
//!
//! Paper result (averages across patterns): ≈ 2.91× GPU computation,
//! ≈ 2.08× PCIe transfer, ≈ 1.98× overall; pattern (d) gains nothing on
//! PCIe (fused and unfused move the same bytes). Restricted to the four
//! producer-consumer patterns: ≈ 2.35× PCIe and ≈ 2.22× overall.

use kw_tpch::Pattern;

use super::{geomean, run_pair, staged, DEFAULT_N, SEED};
use crate::table::Direction::{Exact, Higher};
use crate::table::Table;

/// One pattern's Figure 21 measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig21Row {
    /// Which micro-benchmark pattern.
    pub pattern: Pattern,
    /// GPU computation speedup.
    pub gpu_speedup: f64,
    /// PCIe transfer-time speedup.
    pub pcie_speedup: f64,
    /// Overall (GPU + PCIe) speedup. The paper's Figure 21 measures the
    /// serialized compute + transfer cost (its harness did not overlap
    /// staged transfers), so this ratio uses `serialized_seconds` — the
    /// streamed wallclock lives in `PlanReport::pipelined_seconds`.
    pub overall_speedup: f64,
}

/// Run Figure 21 over all five patterns.
pub fn run() -> Vec<Fig21Row> {
    Pattern::all()
        .into_iter()
        .map(|pattern| {
            let w = pattern.build(DEFAULT_N, SEED);
            let (fused, base) = run_pair(&w, &staged());
            Fig21Row {
                pattern,
                gpu_speedup: base.gpu_seconds / fused.gpu_seconds,
                pcie_speedup: base.pcie_seconds / fused.pcie_seconds,
                overall_speedup: base.serialized_seconds / fused.serialized_seconds,
            }
        })
        .collect()
}

/// Averages over all patterns: `(gpu, pcie, overall)`.
pub fn averages(rows: &[Fig21Row]) -> (f64, f64, f64) {
    (
        geomean(&rows.iter().map(|r| r.gpu_speedup).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.pcie_speedup).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.overall_speedup).collect::<Vec<_>>()),
    )
}

/// Averages over the four producer-consumer patterns (excluding (d)).
pub fn producer_consumer_averages(rows: &[Fig21Row]) -> (f64, f64) {
    let pc: Vec<&Fig21Row> = rows.iter().filter(|r| r.pattern != Pattern::D).collect();
    (
        geomean(&pc.iter().map(|r| r.pcie_speedup).collect::<Vec<_>>()),
        geomean(&pc.iter().map(|r| r.overall_speedup).collect::<Vec<_>>()),
    )
}

/// The figure as the `fig21` table.
pub fn table(rows: &[Fig21Row]) -> Table {
    Table::new("fig21")
        .column(rows, "pattern", Exact, |r| r.pattern.label())
        .column(rows, "gpu_speedup", Higher, |r| r.gpu_speedup)
        .column(rows, "pcie_speedup", Higher, |r| r.pcie_speedup)
        .column(rows, "overall_speedup", Higher, |r| r.overall_speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_mode_shapes() {
        let rows = run();
        let d = rows.iter().find(|r| r.pattern == Pattern::D).unwrap();
        // Pattern (d) gets (almost) no PCIe benefit.
        assert!(
            d.pcie_speedup < 1.15,
            "(d) should not gain PCIe time: {d:?}"
        );
        // Producer-consumer patterns gain both.
        for r in rows.iter().filter(|r| r.pattern != Pattern::D) {
            assert!(r.pcie_speedup > 1.3, "{:?}", r);
            assert!(r.overall_speedup > 1.3, "{:?}", r);
        }
        let (gpu, _pcie, overall) = averages(&rows);
        assert!(gpu > 1.8, "gpu avg {gpu}");
        assert!(overall > 1.4, "overall avg {overall}");
        let (pc_pcie, pc_overall) = producer_consumer_averages(&rows);
        assert!(pc_pcie > pc_overall * 0.6, "{pc_pcie} {pc_overall}");
    }
}
