//! TPC-H Q1 — the paper's arithmetic-centric query (Section 5.2).
//!
//! Shows the pricing-summary result table, the per-stage cost breakdown
//! (the SORT inside the grouped aggregation dominates, as in the paper),
//! and the fusion speedup on the remaining operators.
//!
//! ```bash
//! cargo run --release -p kw-examples --example tpch_q1
//! ```

use kw_core::WeaverConfig;
use kw_gpu_sim::{cycles_for_label, Device, DeviceConfig};
use kw_relational::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = kw_tpch::q1(16.0, 7);
    println!("lineitem: {} rows\n", workload.data[0].1.len());

    let mut fused_dev = Device::new(DeviceConfig::fermi_c2050());
    let fused = workload.run(&mut fused_dev, &WeaverConfig::default())?;
    let mut base_dev = Device::new(DeviceConfig::fermi_c2050());
    let base = workload.run(&mut base_dev, &WeaverConfig::default().baseline())?;
    assert_eq!(fused.outputs, base.outputs);

    // The Q1 pricing summary.
    let result = fused.outputs.values().next().expect("one output");
    println!("rf ls |   sum_qty    sum_price     sum_disc_price   sum_charge      avg_qty  count");
    for row in result.to_rows() {
        let f = |v: &Value| v.as_f64();
        println!(
            "{:>2} {:>2} | {:>9.0} {:>12.0} {:>16.0} {:>14.0} {:>10.2} {:>6.0}",
            f(&row[0]),
            f(&row[1]),
            f(&row[2]),
            f(&row[3]),
            f(&row[4]),
            f(&row[5]),
            f(&row[6]),
            f(&row[9]),
        );
    }

    // Cost breakdown of the baseline: SORT dominates (paper: ~71%).
    let base_sort = cycles_for_label(base_dev.spans(), "sort");
    let base_total = base.stats.gpu_cycles;
    println!(
        "\nbaseline: {} operators, {} kernels; SORT = {:.0}% of GPU cycles",
        base.operator_count,
        base.stats.kernel_launches,
        100.0 * base_sort as f64 / base_total as f64
    );
    let fused_sort = cycles_for_label(fused_dev.spans(), "sort");
    println!(
        "fusion: overall {:.2}x speedup; {:.2}x on the non-SORT operators \
         (paper: 1.25x / 3.18x)",
        base_total as f64 / fused.stats.gpu_cycles as f64,
        (base_total - base_sort) as f64 / (fused.stats.gpu_cycles - fused_sort) as f64,
    );
    Ok(())
}
