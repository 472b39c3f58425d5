//! Section 5.2: the real TPC-H queries Q1 and Q21.
//!
//! Paper results: Q1's SORT (inside the grouped aggregation) takes ≈ 71% of
//! execution time and cannot be fused; fusing the rest still yields ≈ 1.25×
//! overall and ≈ 3.18× on the non-SORT operators. Q21, built on JOINs,
//! gains ≈ 1.22× overall.

use kw_gpu_sim::cycles_for_label;
use kw_tpch::Workload;

use super::{device, resident, SEED};

/// Measurements for one query.
#[derive(Debug, Clone)]
pub struct QueryRow {
    /// Query name.
    pub name: String,
    /// Overall GPU speedup from fusion.
    pub overall_speedup: f64,
    /// Fraction of baseline GPU cycles spent in SORT kernels.
    pub sort_fraction: f64,
    /// Speedup over the non-SORT portion only.
    pub speedup_excluding_sort: f64,
    /// Operators before fusion.
    pub baseline_operators: usize,
    /// Operators after fusion.
    pub fused_operators: usize,
    /// Kernels launched by the baseline.
    pub baseline_kernels: u64,
    /// Kernels launched fused.
    pub fused_kernels: u64,
}

/// Run one query fused vs baseline and collect the Section 5.2 metrics.
pub fn run_query(workload: &Workload) -> QueryRow {
    let mut fused_dev = device();
    let fused = workload
        .run(&mut fused_dev, &resident())
        .expect("fused query");
    let fused_sort = cycles_for_label(fused_dev.spans(), "sort");

    let mut base_dev = device();
    let base = workload
        .run(&mut base_dev, &resident().baseline())
        .expect("baseline query");
    let base_sort = cycles_for_label(base_dev.spans(), "sort");

    assert_eq!(fused.outputs, base.outputs, "{} mismatch", workload.name);

    let base_cycles = base.stats.gpu_cycles;
    let fused_cycles = fused.stats.gpu_cycles;
    QueryRow {
        name: workload.name.clone(),
        overall_speedup: base_cycles as f64 / fused_cycles as f64,
        sort_fraction: base_sort as f64 / base_cycles as f64,
        speedup_excluding_sort: (base_cycles - base_sort) as f64
            / (fused_cycles - fused_sort) as f64,
        baseline_operators: base.operator_count,
        fused_operators: fused.operator_count,
        baseline_kernels: base.stats.kernel_launches,
        fused_kernels: fused.stats.kernel_launches,
    }
}

/// Q1 at the given scale.
pub fn q1(scale: f64) -> QueryRow {
    run_query(&kw_tpch::q1(scale, SEED))
}

/// Q21 at the given scale.
pub fn q21(scale: f64) -> QueryRow {
    run_query(&kw_tpch::q21(scale, SEED))
}

/// The wider query suite (Q1, Q3, Q6, Q21) backing the paper's closing
/// claim that the fused patterns "appear very frequently in all 22 queries
/// of TPC-H so that they can all get similar speedup from kernel fusion".
pub fn suite(scale: f64) -> Vec<QueryRow> {
    vec![
        run_query(&kw_tpch::q1(scale, SEED)),
        run_query(&kw_tpch::q3(scale, SEED)),
        run_query(&kw_tpch::q6(scale, SEED)),
        run_query(&kw_tpch::q21(scale, SEED)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_shapes() {
        let r = q1(8.0);
        assert!(
            r.sort_fraction > 0.5 && r.sort_fraction < 0.95,
            "paper: ~71%, got {:.0}%",
            r.sort_fraction * 100.0
        );
        assert!(
            r.overall_speedup > 1.05 && r.overall_speedup < 2.0,
            "paper: ~1.25x, got {:.2}x",
            r.overall_speedup
        );
        assert!(
            r.speedup_excluding_sort > 1.5,
            "paper: ~3.18x excluding SORT, got {:.2}x",
            r.speedup_excluding_sort
        );
        assert!(r.fused_operators < r.baseline_operators);
    }

    #[test]
    fn suite_gets_similar_speedups() {
        // The paper's closing generalization: every query gains, and the
        // non-SORT (fusible) portions gain substantially.
        let rows = suite(4.0);
        for r in &rows {
            assert!(
                r.overall_speedup > 1.05,
                "{} should speed up: {:.2}x",
                r.name,
                r.overall_speedup
            );
            assert!(
                r.speedup_excluding_sort > 1.3,
                "{} fusible portion: {:.2}x",
                r.name,
                r.speedup_excluding_sort
            );
            assert!(r.fused_kernels < r.baseline_kernels, "{}", r.name);
        }
    }

    #[test]
    fn q21_shapes() {
        let r = q21(8.0);
        assert!(
            r.overall_speedup > 1.05 && r.overall_speedup < 2.5,
            "paper: ~1.22x, got {:.2}x",
            r.overall_speedup
        );
        assert!(r.fused_kernels < r.baseline_kernels);
    }
}
