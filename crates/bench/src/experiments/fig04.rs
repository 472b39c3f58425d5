//! Figure 4: throughput of back-to-back SELECTs with and without manual
//! kernel fusion.
//!
//! Paper result: fusing two SELECTs ≈ 1.80× throughput, fusing three ≈
//! 2.35×, growing slightly with problem size (launch overheads amortize).

use kw_core::QueryPlan;
use kw_primitives::RaOp;
use kw_relational::{CmpOp, Predicate, Value};
use kw_tpch::Workload;

use super::{resident, run_pair, SEED};
use crate::table::Direction::{Exact, Higher};
use crate::table::Table;

/// One row of the Figure 4 series.
#[derive(Debug, Clone, Copy)]
pub struct Fig04Row {
    /// Problem size in tuples.
    pub n: usize,
    /// Throughput ratio fused/unfused for two SELECTs.
    pub fused2_speedup: f64,
    /// Throughput ratio fused/unfused for three SELECTs.
    pub fused3_speedup: f64,
}

/// A back-to-back SELECT chain of `depth` 50%-selectivity filters.
pub fn select_chain(n: usize, depth: usize, seed: u64) -> Workload {
    let input = kw_relational::gen::micro_input(n, seed);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let mut prev = t;
    for d in 0..depth {
        prev = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(1 + (d % 3), CmpOp::Lt, Value::U32(u32::MAX / 2)),
                },
                &[prev],
            )
            .expect("chain select");
    }
    plan.mark_output(prev);
    Workload::new(
        format!("select-chain x{depth}"),
        plan,
        vec![("t".into(), input)],
    )
}

/// Run the Figure 4 sweep.
pub fn run(sizes: &[usize]) -> Vec<Fig04Row> {
    sizes
        .iter()
        .map(|&n| {
            let w2 = select_chain(n, 2, SEED);
            let (f2, b2) = run_pair(&w2, &resident());
            let w3 = select_chain(n, 3, SEED);
            let (f3, b3) = run_pair(&w3, &resident());
            Fig04Row {
                n,
                fused2_speedup: b2.gpu_seconds / f2.gpu_seconds,
                fused3_speedup: b3.gpu_seconds / f3.gpu_seconds,
            }
        })
        .collect()
}

/// The series as the `fig04` table.
pub fn table(rows: &[Fig04Row]) -> Table {
    Table::new("fig04")
        .column(rows, "tuples", Exact, |r| r.n)
        .column(rows, "fused2_speedup", Higher, |r| r.fused2_speedup)
        .column(rows, "fused3_speedup", Higher, |r| r.fused3_speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_beats_two_beats_one() {
        let rows = run(&[1 << 16]);
        let r = rows[0];
        assert!(
            r.fused2_speedup > 1.3,
            "two fused selects should win: {r:?}"
        );
        assert!(
            r.fused3_speedup > r.fused2_speedup,
            "three fused selects should beat two: {r:?}"
        );
        // Paper band: 1.80x and 2.35x; accept the same ordering with
        // comparable magnitudes.
        assert!(r.fused2_speedup < 4.0 && r.fused3_speedup < 6.0);
    }
}
