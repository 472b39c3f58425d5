//! Table 3: per-kernel resource usage and occupancy.
//!
//! Left half: the unfused primitive-library operators. Right half: the five
//! fused patterns. Paper shape: fusion usually *raises* register and shared
//! demand and can lower occupancy (patterns (b)–(e)); fused pattern (a)
//! uses *less* shared memory than a lone SELECT because its thread-
//! dependent intermediates never touch shared memory and the PROJECT
//! shrinks the tuple buffered for compaction.

use kw_core::{compile, WeaverConfig};
use kw_gpu_sim::{occupancy, DeviceConfig, KernelResources};
use kw_kernel_ir::{estimate_resources, infer_schemas, OptLevel, DEFAULT_THREADS_PER_CTA};
use kw_primitives::{build_unfused, RaOp};
use kw_relational::{CmpOp, Expr, Predicate, Schema, Value};
use kw_tpch::Pattern;

use super::SEED;
use crate::table::Direction::Exact;
use crate::table::Table;

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Operator or pattern name.
    pub name: String,
    /// Estimated registers per thread.
    pub registers: u32,
    /// Estimated shared memory per CTA, bytes.
    pub shared_bytes: u32,
    /// Occupancy on the C2050 at the default CTA size.
    pub occupancy: f64,
}

fn row(name: impl Into<String>, res: KernelResources) -> Table3Row {
    let occ = occupancy(
        &DeviceConfig::fermi_c2050(),
        DEFAULT_THREADS_PER_CTA,
        res.registers_per_thread,
        res.shared_per_cta,
    );
    Table3Row {
        name: name.into(),
        registers: res.registers_per_thread,
        shared_bytes: res.shared_per_cta,
        occupancy: occ.occupancy,
    }
}

/// Resource rows for the individual (unfused) operators.
pub fn individual_operators() -> Vec<Table3Row> {
    let s4 = Schema::uniform_u32(4);
    let ops: Vec<(&str, RaOp, Vec<Schema>)> = vec![
        (
            "PROJECT",
            RaOp::Project {
                attrs: vec![0, 1],
                key_arity: 1,
            },
            vec![s4.clone()],
        ),
        (
            "SELECT",
            RaOp::Select {
                pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(7)),
            },
            vec![s4.clone()],
        ),
        (
            "MAP",
            RaOp::Map {
                exprs: vec![Expr::attr(0), Expr::attr(1).mul(Expr::attr(2))],
                key_arity: 1,
            },
            vec![s4.clone()],
        ),
        (
            "JOIN",
            RaOp::Join { key_len: 1 },
            vec![s4.clone(), s4.clone()],
        ),
        ("PRODUCT", RaOp::Product, vec![s4.clone(), s4.clone()]),
        ("UNION", RaOp::Union, vec![s4.clone(), s4.clone()]),
        ("INTERSECT", RaOp::Intersect, vec![s4.clone(), s4.clone()]),
        ("DIFFERENCE", RaOp::Difference, vec![s4.clone(), s4.clone()]),
        ("UNIQUE", RaOp::Unique, vec![s4.clone()]),
    ];
    ops.into_iter()
        .map(|(name, op, inputs)| {
            let gpu = build_unfused(&op, &inputs, name).expect("skeleton");
            let inferred = infer_schemas(&gpu).expect("inference");
            let res = estimate_resources(&gpu, &inferred, OptLevel::O3).expect("resources");
            row(name, res)
        })
        .collect()
}

/// Resource rows for the five fused patterns.
pub fn fused_patterns() -> Vec<Table3Row> {
    Pattern::all()
        .into_iter()
        .map(|pattern| {
            let w = pattern.build(1_024, SEED);
            let compiled = compile(&w.plan, &WeaverConfig::default()).expect("compile");
            let fused = compiled
                .steps
                .iter()
                .find(|s| s.fused)
                .expect("each pattern fuses something");
            let inferred = infer_schemas(&fused.op).expect("inference");
            let res = estimate_resources(&fused.op, &inferred, OptLevel::O3).expect("resources");
            row(format!("fused {}", pattern.label()), res)
        })
        .collect()
}

/// Table 3 as the `table3` table.
pub fn table(rows: &[Table3Row]) -> Table {
    Table::new("table3")
        .column(rows, "name", Exact, |r| r.name.as_str())
        .column(rows, "registers", Exact, |r| r.registers)
        .column(rows, "shared_bytes", Exact, |r| r.shared_bytes)
        .column(rows, "occupancy", Exact, |r| r.occupancy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(rows: &'a [Table3Row], name: &str) -> &'a Table3Row {
        rows.iter().find(|r| r.name.contains(name)).unwrap()
    }

    #[test]
    fn join_is_heavier_than_project() {
        let rows = individual_operators();
        let join = get(&rows, "JOIN");
        let project = get(&rows, "PROJECT");
        assert!(join.registers > project.registers);
        assert!(join.shared_bytes > project.shared_bytes);
        assert!(join.occupancy <= project.occupancy);
    }

    #[test]
    fn fused_b_uses_more_resources_than_one_join() {
        let singles = individual_operators();
        let fused = fused_patterns();
        let join = get(&singles, "JOIN");
        let b = get(&fused, "(b)");
        assert!(b.shared_bytes > join.shared_bytes, "{b:?} vs {join:?}");
        assert!(b.occupancy <= join.occupancy);
    }

    #[test]
    fn fused_a_uses_less_shared_than_one_select() {
        let singles = individual_operators();
        let fused = fused_patterns();
        let select = get(&singles, "SELECT");
        let a = get(&fused, "(a)");
        assert!(
            a.shared_bytes < select.shared_bytes,
            "pattern (a)'s PROJECT shrinks the compaction buffer: {a:?} vs {select:?}"
        );
    }

    #[test]
    fn occupancies_are_valid() {
        for r in individual_operators().iter().chain(&fused_patterns()) {
            assert!(r.occupancy > 0.0 && r.occupancy <= 1.0, "{r:?}");
            assert!(r.registers >= 10, "{r:?}");
        }
    }
}
