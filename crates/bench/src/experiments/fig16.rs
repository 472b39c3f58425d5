//! Figure 16: GPU-computation speedup from kernel fusion, small inputs
//! (everything GPU-resident, PCIe excluded).
//!
//! Paper result: average ≈ 2.89×; thread-dependence-only patterns (a) and
//! (e) highest; input-dependence pattern (d) lowest; (c) above (b).

use kw_tpch::Pattern;

use super::{geomean, resident, run_pair, SWEEP};
use crate::table::Direction::{Exact, Higher};
use crate::table::Table;

/// One pattern's Figure 16 measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig16Row {
    /// Which micro-benchmark pattern.
    pub pattern: Pattern,
    /// GPU-compute speedup (baseline / fused), averaged over the sweep.
    pub speedup: f64,
}

/// Run Figure 16 over all five patterns.
pub fn run() -> Vec<Fig16Row> {
    Pattern::all()
        .into_iter()
        .map(|pattern| {
            let speedups: Vec<f64> = SWEEP
                .iter()
                .map(|&n| {
                    let w = pattern.build(n, super::SEED);
                    let (fused, base) = run_pair(&w, &resident());
                    base.gpu_seconds / fused.gpu_seconds
                })
                .collect();
            Fig16Row {
                pattern,
                speedup: geomean(&speedups),
            }
        })
        .collect()
}

/// Average speedup across patterns (the paper's 2.89× headline).
pub fn average(rows: &[Fig16Row]) -> f64 {
    geomean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>())
}

/// The figure as the `fig16` table.
pub fn table(rows: &[Fig16Row]) -> Table {
    Table::new("fig16")
        .column(rows, "pattern", Exact, |r| r.pattern.label())
        .column(rows, "speedup", Higher, |r| r.speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let rows = run();
        let get = |p: Pattern| rows.iter().find(|r| r.pattern == p).unwrap().speedup;
        let (a, b, c, d, e) = (
            get(Pattern::A),
            get(Pattern::B),
            get(Pattern::C),
            get(Pattern::D),
            get(Pattern::E),
        );
        // Every pattern speeds up.
        for r in &rows {
            assert!(r.speedup > 1.05, "{:?}", r);
        }
        // (d) is the smallest; (a) and (e) are thread-only and large.
        assert!(d < a && d < b && d < c && d < e, "(d) lowest: {rows:?}");
        assert!(a > b, "(a) should beat CTA-dependent (b): {rows:?}");
        assert!(e > b, "(e) should beat CTA-dependent (b): {rows:?}");
        // (c) above (b): fusing some thread-dependent operators helps.
        assert!(c > b, "(c) > (b): {rows:?}");
        // Headline average in the paper's band (2.89x): accept 1.8–4.5.
        let avg = average(&rows);
        assert!(avg > 1.8 && avg < 4.5, "average {avg}");
    }
}
