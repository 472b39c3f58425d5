//! Admission control: predict peak device memory per execution mode and
//! choose the cheapest mode that fits *before* running anything.
//!
//! The paper's §2.3 benefit #4 is that fusion "admits larger resident
//! inputs": fused steps never materialize the intermediates inside a fusion
//! set, so the predicted resident peak of a fused plan is smaller and a
//! larger input still fits [`AdmittedMode::Resident`]. When Resident does
//! not fit, the ladder continues downward: [`AdmittedMode::Staged`] (free
//! operator results after every step, the Fig. 21 setup) and, for plans
//! with a [`ChunkStrategy`] (row-sliceable, hash-partitionable, or
//! merge-aggregable), [`AdmittedMode::Chunked`] streaming.
//!
//! Predictions replay the compiled plan's buffer schedule — same
//! refcounts, same gather-scratch, same release points as the executor —
//! through an unbounded [`kw_gpu_sim::ArenaLayout`] planner, over
//! *estimated* relation sizes (row-count upper estimates per operator;
//! inputs use their actual bound sizes). The executor sizes its scratch
//! arena with the same replay, so the predicted peak and the arena
//! reservation are the same number by construction; an estimate that
//! under-shoots spills to a counted device allocation
//! (`kw_arena_spills_total`), and a spill the device cannot hold is a
//! capacity miss for the resilient driver's ladder, not for admission.

use std::collections::BTreeMap;

use kw_gpu_sim::{ArenaLayout, ArenaSlice};
use kw_primitives::RaOp;
use kw_relational::Relation;

use crate::{
    select_chunk_strategy, ChunkStrategy, CompiledPlan, ExecMode, NodeId, PlanNode, QueryPlan,
    Result, WeaverError,
};

/// Hard ceiling on the chunk count the ladder will try.
pub const MAX_CHUNKS: usize = 1024;

/// An execution mode the admission controller can choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmittedMode {
    /// Everything stays on the device (fastest; largest footprint).
    Resident,
    /// Operator results round-trip to the host after every step.
    Staged,
    /// Chunked streaming with double buffering, under the plan's
    /// [`ChunkStrategy`] (row slices, hash buckets, or partial-aggregate
    /// slices).
    Chunked {
        /// Number of chunks (row slices or hash buckets) the inputs are
        /// split into.
        chunks: usize,
    },
}

impl std::fmt::Display for AdmittedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmittedMode::Resident => write!(f, "resident"),
            AdmittedMode::Staged => write!(f, "staged"),
            AdmittedMode::Chunked { chunks } => write!(f, "chunked({chunks})"),
        }
    }
}

/// The admission controller's pre-flight verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionReport {
    /// Device bytes available when admission ran.
    pub capacity: u64,
    /// Predicted peak device bytes in resident mode.
    pub resident_peak: u64,
    /// Predicted peak device bytes in staged mode.
    pub staged_peak: u64,
    /// For plans with a chunk strategy: the smallest power-of-two chunk
    /// count whose predicted per-chunk peak fits, with that peak.
    pub chunked: Option<(usize, u64)>,
    /// The chunk strategy available to this plan, if any — `None` means the
    /// ladder has no rung below Staged.
    pub strategy: Option<ChunkStrategy>,
    /// The cheapest mode predicted to fit.
    pub chosen: AdmittedMode,
}

/// Estimate output rows of one operator from its input row estimates.
///
/// Streaming/reordering operators are row-preserving upper bounds; joins use
/// the larger side (a heuristic, not a bound — the degradation ladder covers
/// underestimates); products multiply.
fn estimate_op_rows(op: &RaOp, ins: &[u64]) -> u64 {
    match op {
        RaOp::Select { .. }
        | RaOp::Project { .. }
        | RaOp::Map { .. }
        | RaOp::Unique
        | RaOp::Sort { .. }
        | RaOp::Aggregate { .. } => ins[0],
        RaOp::Join { .. } => ins[0].max(ins[1]),
        RaOp::Product => ins[0].saturating_mul(ins[1]),
        RaOp::SemiJoin { .. } | RaOp::AntiJoin { .. } | RaOp::Difference => ins[0],
        RaOp::Union => ins[0].saturating_add(ins[1]),
        RaOp::Intersect => ins[0].min(ins[1]),
    }
}

/// Estimated row count per plan node: actual sizes for bound inputs,
/// [`estimate_op_rows`] propagated topologically for operators.
fn estimated_rows(
    plan: &QueryPlan,
    bindings: &[(&str, &Relation)],
) -> Result<BTreeMap<NodeId, u64>> {
    let mut rows = BTreeMap::new();
    for id in plan.node_ids() {
        let n = match plan.node(id) {
            PlanNode::Input { name, .. } => bindings
                .iter()
                .find(|(b, _)| b == name)
                .map(|(_, r)| r.len() as u64)
                .ok_or_else(|| WeaverError::binding(format!("no relation bound to '{name}'")))?,
            PlanNode::Operator { op, inputs } => {
                let ins: Vec<u64> = inputs.iter().map(|i| rows[i]).collect();
                estimate_op_rows(op, &ins)
            }
        };
        rows.insert(id, n);
    }
    Ok(rows)
}

/// Row estimates for a chunked execution at `chunks` chunks: *input* row
/// counts shrink by the chunk factor (a row slice or hash bucket holds
/// ~1/chunks of each input) and the shrunken counts re-propagate through
/// [`estimate_op_rows`]. Re-propagating — rather than dividing every node's
/// rows uniformly — is what prices a hash-partitioned join correctly: the
/// per-bucket join sees bucket-pair inputs, so its estimate is
/// `max(l/chunks, r/chunks)`, the bucket-pair resident bytes, not the whole
/// join output divided by the chunk count.
fn chunked_rows(
    plan: &QueryPlan,
    rows: &BTreeMap<NodeId, u64>,
    chunks: u64,
) -> BTreeMap<NodeId, u64> {
    let mut scaled = BTreeMap::new();
    for id in plan.node_ids() {
        let n = match plan.node(id) {
            PlanNode::Input { .. } => rows[&id].div_ceil(chunks),
            PlanNode::Operator { op, inputs } => {
                let ins: Vec<u64> = inputs.iter().map(|i| scaled[i]).collect();
                estimate_op_rows(op, &ins)
            }
        };
        scaled.insert(id, n);
    }
    scaled
}

/// Estimated buffer bytes per node, with every row count divided (rounding
/// up) by `chunks`.
fn node_bytes(
    plan: &QueryPlan,
    rows: &BTreeMap<NodeId, u64>,
    chunks: u64,
) -> BTreeMap<NodeId, u64> {
    rows.iter()
        .map(|(&id, &n)| {
            (
                id,
                n.div_ceil(chunks) * plan.schema(id).tuple_bytes() as u64,
            )
        })
        .collect()
}

/// Reference counts of buffer liveness, one derivation shared by the
/// executor and this predictor: each step counts a unique input once; every
/// marked plan output holds one extra reference.
pub(crate) fn buffer_refcounts(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
) -> BTreeMap<NodeId, usize> {
    let mut refcount: BTreeMap<NodeId, usize> = BTreeMap::new();
    for step in &compiled.steps {
        let mut seen = Vec::new();
        for &i in &step.inputs {
            if !seen.contains(&i) {
                seen.push(i);
                *refcount.entry(i).or_insert(0) += 1;
            }
        }
    }
    for &o in plan.outputs() {
        *refcount.entry(o).or_insert(0) += 1;
    }
    refcount
}

/// Predicted peak device bytes: the executor's exact acquire/release
/// schedule (upload inputs once; per step acquire gather scratch + outputs,
/// release scratch, release dead inputs; staged mode additionally re-stages
/// consumed intermediates and releases outputs after download) replayed
/// through an unbounded [`ArenaLayout`] planner.
///
/// The executor sizes its upfront [`kw_gpu_sim::ScratchArena`] reservation
/// with this same replay, so the prediction and the reservation are one
/// computation: the arena reservation *is* the predicted peak, the memory
/// tracker charges exactly that, and any misprediction surfaces as a
/// counted spill at the offending sub-allocation instead of a silent
/// mid-plan OOM.
///
/// [`ArenaLayout`]: kw_gpu_sim::ArenaLayout
fn predict_peak(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bytes: &BTreeMap<NodeId, u64>,
    mode: ExecMode,
) -> u64 {
    replay_arena_schedule(plan, compiled, bytes, mode).unwrap_or(u64::MAX)
}

/// Replay the executor's buffer schedule through an unbounded planner
/// layout and return its high-water mark. Fails only on byte-count
/// overflow (pathological `Product` estimates), which [`predict_peak`]
/// maps to "fits nothing".
fn replay_arena_schedule(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bytes: &BTreeMap<NodeId, u64>,
    mode: ExecMode,
) -> std::result::Result<u64, kw_gpu_sim::SimError> {
    let mut refcount = buffer_refcounts(plan, compiled);
    let mut layout = ArenaLayout::planner();
    let mut held: BTreeMap<NodeId, ArenaSlice> = BTreeMap::new();

    for id in plan.node_ids() {
        if matches!(plan.node(id), PlanNode::Input { .. })
            && refcount.get(&id).copied().unwrap_or(0) > 0
        {
            held.insert(id, layout.acquire(bytes[&id])?);
        }
    }

    for step in &compiled.steps {
        if mode == ExecMode::Staged {
            for &i in &step.inputs {
                if let std::collections::btree_map::Entry::Vacant(e) = held.entry(i) {
                    e.insert(layout.acquire(bytes[&i])?);
                }
            }
        }

        let out_bytes: u64 = step.outputs.iter().map(|o| bytes[o]).sum();
        let scratch = layout.acquire(out_bytes)?; // gather scratch
        for &o in &step.outputs {
            let slice = layout.acquire(bytes[&o])?;
            held.insert(o, slice);
        }
        layout.release(scratch)?;

        let mut seen = Vec::new();
        for &i in &step.inputs {
            if seen.contains(&i) {
                continue;
            }
            seen.push(i);
            let rc = refcount.get_mut(&i).expect("counted above");
            *rc -= 1;
            let intermediate = !matches!(plan.node(i), PlanNode::Input { .. });
            if *rc == 0 || (mode == ExecMode::Staged && intermediate) {
                if let Some(slice) = held.remove(&i) {
                    layout.release(slice)?;
                }
            }
        }

        if mode == ExecMode::Staged {
            for &o in &step.outputs {
                if let Some(slice) = held.remove(&o) {
                    layout.release(slice)?;
                }
            }
        }
    }
    Ok(layout.high_water())
}

/// The arena reservation `execute_compiled` makes for `plan` in `mode`:
/// [`predict_peak`] over whole-input row estimates. Admission's
/// `resident_peak`/`staged_peak` report exactly this value, which is what
/// makes the predictor-fidelity contract (`MemoryTracker::peak()` equals
/// the admission peak bit-exactly) hold by construction.
pub(crate) fn predict_reservation(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bindings: &[(&str, &Relation)],
    mode: ExecMode,
) -> Result<u64> {
    let rows = estimated_rows(plan, bindings)?;
    let whole = node_bytes(plan, &rows, 1);
    Ok(predict_peak(plan, compiled, &whole, mode))
}

/// Choose the cheapest execution mode predicted to fit in `capacity` device
/// bytes.
///
/// # Errors
///
/// Returns [`WeaverError::Binding`] for unbound plan inputs and
/// [`WeaverError::Admission`] when no mode is predicted to fit (including
/// chunked at [`MAX_CHUNKS`], or plans with no [`ChunkStrategy`] whose staged
/// footprint exceeds capacity).
pub fn admit(
    plan: &QueryPlan,
    compiled: &CompiledPlan,
    bindings: &[(&str, &Relation)],
    capacity: u64,
) -> Result<AdmissionReport> {
    let rows = estimated_rows(plan, bindings)?;
    let whole = node_bytes(plan, &rows, 1);
    let resident_peak = predict_peak(plan, compiled, &whole, ExecMode::Resident);
    let staged_peak = predict_peak(plan, compiled, &whole, ExecMode::Staged);
    let strategy = select_chunk_strategy(plan);

    let chunked = strategy.and_then(|_| {
        let mut chunks = 2usize;
        while chunks <= MAX_CHUNKS {
            let scaled = node_bytes(plan, &chunked_rows(plan, &rows, chunks as u64), 1);
            let peak = predict_peak(plan, compiled, &scaled, ExecMode::Resident);
            if peak <= capacity {
                return Some((chunks, peak));
            }
            chunks *= 2;
        }
        None
    });

    let chosen = if resident_peak <= capacity {
        AdmittedMode::Resident
    } else if staged_peak <= capacity {
        AdmittedMode::Staged
    } else if let Some((chunks, _)) = chunked {
        AdmittedMode::Chunked { chunks }
    } else {
        return Err(WeaverError::admission(format!(
            "no mode fits {capacity} device bytes: resident needs {resident_peak}, staged \
             {staged_peak}, {}",
            match strategy {
                Some(s) => format!("chunked ({s}) still over capacity at {MAX_CHUNKS} chunks"),
                None =>
                    "plan admits no chunk strategy so chunked streaming is unavailable".to_string(),
            }
        )));
    };

    Ok(AdmissionReport {
        capacity,
        resident_peak,
        staged_peak,
        chunked,
        strategy,
        chosen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, WeaverConfig};
    use kw_relational::{gen, CmpOp, Predicate, Value};

    fn select_chain(schema: kw_relational::Schema, depth: usize) -> QueryPlan {
        let mut p = QueryPlan::new();
        let mut cur = p.add_input("t", schema);
        for a in 0..depth {
            cur = p
                .add_op(
                    RaOp::Select {
                        pred: Predicate::cmp(a % 4, CmpOp::Lt, Value::U32(u32::MAX / 2)),
                    },
                    &[cur],
                )
                .unwrap();
        }
        p.mark_output(cur);
        p
    }

    #[test]
    fn big_capacity_admits_resident() {
        let input = gen::micro_input(10_000, 1);
        let plan = select_chain(input.schema().clone(), 3);
        let compiled = compile(&plan, &WeaverConfig::default()).unwrap();
        let report = admit(&plan, &compiled, &[("t", &input)], u64::MAX).unwrap();
        assert_eq!(report.chosen, AdmittedMode::Resident);
        assert!(report.resident_peak > 0);
    }

    #[test]
    fn fusion_widens_what_fits_resident() {
        // A widening MAP whose fat intermediate a fused kernel never
        // materializes: the baseline must hold it in device memory, so its
        // predicted resident peak is strictly larger (§2.3 benefit #4).
        let input = gen::micro_input(10_000, 2);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let wide = plan
            .add_op(
                RaOp::Map {
                    exprs: (0..8)
                        .map(|a| kw_relational::Expr::attr(a.min(2)))
                        .collect(),
                    key_arity: 1,
                },
                &[t],
            )
            .unwrap();
        let narrow = plan
            .add_op(
                RaOp::Project {
                    attrs: vec![0, 1],
                    key_arity: 1,
                },
                &[wide],
            )
            .unwrap();
        plan.mark_output(narrow);
        let fused = compile(&plan, &WeaverConfig::default()).unwrap();
        let base = compile(&plan, &WeaverConfig::default().baseline()).unwrap();
        let b = &[("t", &input)];
        let fused_peak = admit(&plan, &fused, b, u64::MAX).unwrap().resident_peak;
        let base_peak = admit(&plan, &base, b, u64::MAX).unwrap().resident_peak;
        assert!(
            fused_peak < base_peak,
            "fused {fused_peak} should undercut baseline {base_peak}"
        );
        // A capacity strictly between the two admits the fused plan Resident
        // and pushes the baseline down the ladder.
        let capacity = (fused_peak + base_peak) / 2;
        assert_eq!(
            admit(&plan, &fused, b, capacity).unwrap().chosen,
            AdmittedMode::Resident
        );
        assert_ne!(
            admit(&plan, &base, b, capacity).unwrap().chosen,
            AdmittedMode::Resident
        );
    }

    #[test]
    fn tiny_capacity_degrades_to_chunked_for_elementwise_plans() {
        let input = gen::micro_input(50_000, 3);
        let plan = select_chain(input.schema().clone(), 2);
        let compiled = compile(&plan, &WeaverConfig::default()).unwrap();
        let report = admit(
            &plan,
            &compiled,
            &[("t", &input)],
            input.byte_size() as u64 / 4,
        )
        .unwrap();
        assert!(matches!(report.chosen, AdmittedMode::Chunked { .. }));
        let (chunks, peak) = report.chunked.unwrap();
        assert!(chunks >= 2 && peak <= report.capacity);
    }

    #[test]
    fn impossible_capacity_rejected_with_typed_error() {
        // A join now HAS a chunk strategy (hash partitioning), so at an
        // absurd capacity the rejection cites the chunk ceiling, not a
        // missing strategy.
        let (l, r) = gen::join_inputs(5_000, 2, 0.5, 4);
        let mut plan = QueryPlan::new();
        let x = plan.add_input("x", l.schema().clone());
        let y = plan.add_input("y", r.schema().clone());
        let j = plan.add_op(RaOp::Join { key_len: 1 }, &[x, y]).unwrap();
        plan.mark_output(j);
        let compiled = compile(&plan, &WeaverConfig::default()).unwrap();
        let err = admit(&plan, &compiled, &[("x", &l), ("y", &r)], 64).unwrap_err();
        assert!(matches!(err, WeaverError::Admission { .. }), "{err}");
        assert!(err.to_string().contains("hash-partition"), "{err}");
        assert!(err.to_string().contains("over capacity"), "{err}");

        // A full sort has no strategy at all: the rejection says so.
        let input = gen::micro_input(5_000, 4);
        let mut sorty = QueryPlan::new();
        let t = sorty.add_input("t", input.schema().clone());
        let s = sorty.add_op(RaOp::Sort { attrs: vec![1] }, &[t]).unwrap();
        sorty.mark_output(s);
        let compiled = compile(&sorty, &WeaverConfig::default()).unwrap();
        let err = admit(&sorty, &compiled, &[("t", &input)], 64).unwrap_err();
        assert!(matches!(err, WeaverError::Admission { .. }), "{err}");
        assert!(err.to_string().contains("no chunk strategy"), "{err}");
    }

    #[test]
    fn joins_admit_chunked_on_small_devices() {
        // A join whose staged peak exceeds capacity degrades to hash
        // partitioning; the predicted per-bucket peak prices bucket-pair
        // inputs, so it fits once the bucket count divides the inputs down.
        let (l, r) = gen::join_inputs(50_000, 2, 0.5, 14);
        let mut plan = QueryPlan::new();
        let x = plan.add_input("x", l.schema().clone());
        let y = plan.add_input("y", r.schema().clone());
        let j = plan.add_op(RaOp::Join { key_len: 1 }, &[x, y]).unwrap();
        plan.mark_output(j);
        let compiled = compile(&plan, &WeaverConfig::default()).unwrap();
        let bindings: &[(&str, &Relation)] = &[("x", &l), ("y", &r)];
        let solo = admit(&plan, &compiled, bindings, u64::MAX).unwrap();
        assert_eq!(solo.strategy, Some(ChunkStrategy::HashPartition));

        let capacity = solo.staged_peak / 4;
        let report = admit(&plan, &compiled, bindings, capacity).unwrap();
        assert!(
            matches!(report.chosen, AdmittedMode::Chunked { .. }),
            "{report:?}"
        );
        let (chunks, peak) = report.chunked.unwrap();
        assert!(chunks >= 2 && peak <= capacity, "{report:?}");
    }

    #[test]
    fn unbound_input_is_a_binding_error() {
        let input = gen::micro_input(10, 5);
        let plan = select_chain(input.schema().clone(), 1);
        let compiled = compile(&plan, &WeaverConfig::default()).unwrap();
        let err = admit(&plan, &compiled, &[("wrong", &input)], u64::MAX).unwrap_err();
        assert!(matches!(err, WeaverError::Binding { .. }));
    }
}
