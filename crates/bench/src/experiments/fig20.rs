//! Figure 20: sensitivity of fusing two SELECTs to the selection ratio.
//!
//! Paper result: fusing two 10%-selectivity SELECTs gives ≈ 1.28× (idle
//! threads after the first filter waste lanes), rising to ≈ 2.01× at 90%.
//! Idle threads dent the benefit but never negate it.

use kw_core::QueryPlan;
use kw_primitives::RaOp;
use kw_relational::{gen, CmpOp, Predicate};
use kw_tpch::Workload;

use super::{resident, run_pair, DEFAULT_N, SEED};
use crate::table::Direction::{Exact, Higher};
use crate::table::Table;

/// One selectivity point of the Figure 20 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig20Row {
    /// Selectivity of each of the two SELECTs.
    pub selectivity: f64,
    /// GPU-compute speedup of the fused pair.
    pub speedup: f64,
}

/// Two chained SELECTs at the given selectivity each (attribute 1 carries
/// the controlled distribution; attribute 2 mirrors it through the uniform
/// u32 domain).
pub fn two_selects(n: usize, selectivity: f64, seed: u64) -> Workload {
    let input = gen::selectivity_input(n, 4, seed);
    let mut plan = QueryPlan::new();
    let t = plan.add_input("t", input.schema().clone());
    let s1 = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(1, CmpOp::Lt, gen::selectivity_threshold(selectivity)),
            },
            &[t],
        )
        .expect("first select");
    let thresh2 = (u32::MAX as f64 * selectivity) as u32;
    let s2 = plan
        .add_op(
            RaOp::Select {
                pred: Predicate::cmp(2, CmpOp::Lt, kw_relational::Value::U32(thresh2)),
            },
            &[s1],
        )
        .expect("second select");
    plan.mark_output(s2);
    Workload::new(
        format!("two selects @ {selectivity}"),
        plan,
        vec![("t".into(), input)],
    )
}

/// Run the Figure 20 sweep.
pub fn run(selectivities: &[f64]) -> Vec<Fig20Row> {
    selectivities
        .iter()
        .map(|&s| {
            let w = two_selects(DEFAULT_N, s, SEED);
            let (fused, base) = run_pair(&w, &resident());
            Fig20Row {
                selectivity: s,
                speedup: base.gpu_seconds / fused.gpu_seconds,
            }
        })
        .collect()
}

/// The paper's sweep points.
pub const PAPER_SWEEP: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// The series as the `fig20` table.
pub fn table(rows: &[Fig20Row]) -> Table {
    Table::new("fig20")
        .column(rows, "selectivity", Exact, |r| r.selectivity)
        .column(rows, "speedup", Higher, |r| r.speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_grows_with_selectivity() {
        let rows = run(&PAPER_SWEEP);
        for pair in rows.windows(2) {
            assert!(
                pair[1].speedup > pair[0].speedup,
                "speedup should grow with selectivity: {rows:?}"
            );
        }
        // Paper endpoints: 1.28x at 10%, 2.01x at 90%.
        assert!(rows[0].speedup > 1.0 && rows[0].speedup < 1.8, "{rows:?}");
        let last = rows.last().unwrap();
        assert!(last.speedup > 1.6 && last.speedup < 3.0, "{rows:?}");
    }
}
