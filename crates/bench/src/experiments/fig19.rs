//! Figure 19: how much `-O3` buys over `-O0`, with and without fusion.
//!
//! Paper result: for every pattern the optimizer helps *more* when kernels
//! are fused — fusion enlarges the optimization scope, so the compiler has
//! more redundant work to remove (and, at `-O0`, fused kernels spill their
//! larger register sets to local memory).

use kw_core::WeaverConfig;
use kw_kernel_ir::OptLevel;
use kw_tpch::Pattern;

use super::{device, DEFAULT_N, SEED};
use crate::table::Direction::{Exact, Higher};
use crate::table::Table;

/// One pattern's Figure 19 measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig19Row {
    /// Which micro-benchmark pattern.
    pub pattern: Pattern,
    /// O3-over-O0 speedup without fusion.
    pub unfused_o3_speedup: f64,
    /// O3-over-O0 speedup with fusion.
    pub fused_o3_speedup: f64,
}

fn gpu_seconds(pattern: Pattern, fusion: bool, opt: OptLevel) -> f64 {
    let w = pattern.build(DEFAULT_N, SEED);
    let config = WeaverConfig {
        fusion,
        opt,
        ..WeaverConfig::default()
    };
    let mut dev = device();
    w.run(&mut dev, &config).expect("fig19 run").gpu_seconds
}

/// Run Figure 19 over all five patterns.
pub fn run() -> Vec<Fig19Row> {
    Pattern::all()
        .into_iter()
        .map(|pattern| Fig19Row {
            pattern,
            unfused_o3_speedup: gpu_seconds(pattern, false, OptLevel::O0)
                / gpu_seconds(pattern, false, OptLevel::O3),
            fused_o3_speedup: gpu_seconds(pattern, true, OptLevel::O0)
                / gpu_seconds(pattern, true, OptLevel::O3),
        })
        .collect()
}

/// The figure as the `fig19` table.
pub fn table(rows: &[Fig19Row]) -> Table {
    Table::new("fig19")
        .column(rows, "pattern", Exact, |r| r.pattern.label())
        .column(rows, "unfused_o3_speedup", Higher, |r| r.unfused_o3_speedup)
        .column(rows, "fused_o3_speedup", Higher, |r| r.fused_o3_speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimization_helps_fused_kernels_more() {
        let rows = run();
        for r in &rows {
            assert!(r.unfused_o3_speedup >= 1.0, "O3 should never hurt: {r:?}");
            assert!(
                r.fused_o3_speedup > r.unfused_o3_speedup,
                "{} fusion should enlarge optimization scope: {r:?}",
                r.pattern.label()
            );
        }
    }
}
