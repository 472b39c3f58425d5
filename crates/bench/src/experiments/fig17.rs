//! Figure 17: GPU global memory allocated with and without kernel fusion.
//!
//! Paper result: fusion shrinks the allocation footprint everywhere except
//! pattern (d), where the fused kernel holds *two* gather outputs at once
//! and uses slightly more.

use kw_tpch::Pattern;

use super::{resident, run_pair, DEFAULT_N, SEED};
use crate::table::Direction::{Exact, Lower, TwoSided};
use crate::table::Table;

/// One pattern's Figure 17 measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig17Row {
    /// Which micro-benchmark pattern.
    pub pattern: Pattern,
    /// Peak device bytes, baseline.
    pub baseline_bytes: u64,
    /// Peak device bytes, fused.
    pub fused_bytes: u64,
}

impl Fig17Row {
    /// Footprint ratio baseline/fused (>1 means fusion shrinks memory).
    pub fn reduction(&self) -> f64 {
        self.baseline_bytes as f64 / self.fused_bytes as f64
    }
}

/// Run Figure 17 over all five patterns.
pub fn run() -> Vec<Fig17Row> {
    Pattern::all()
        .into_iter()
        .map(|pattern| {
            let w = pattern.build(DEFAULT_N, SEED);
            let (fused, base) = run_pair(&w, &resident());
            Fig17Row {
                pattern,
                baseline_bytes: base.peak_device_bytes,
                fused_bytes: fused.peak_device_bytes,
            }
        })
        .collect()
}

/// The figure as the `fig17` table.
pub fn table(rows: &[Fig17Row]) -> Table {
    Table::new("fig17")
        .column(rows, "pattern", Exact, |r| r.pattern.label())
        .column(rows, "baseline_bytes", TwoSided, |r| r.baseline_bytes)
        .column(rows, "fused_bytes", Lower, |r| r.fused_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_shrinks_footprint_except_pattern_d() {
        let rows = run();
        for r in &rows {
            match r.pattern {
                Pattern::D => assert!(
                    r.reduction() <= 1.02,
                    "(d) should use as much or slightly more memory fused: {r:?}"
                ),
                _ => assert!(
                    r.reduction() > 1.1,
                    "{} should shrink footprint: {r:?}",
                    r.pattern.label()
                ),
            }
        }
    }
}
