//! Chunk-strategy selection: which out-of-core decomposition, if any, lets
//! a plan stream through a device smaller than its inputs.
//!
//! The chunked rung of the degradation ladder used to admit only
//! *elementwise* plans (row-slicing distributes over SELECT/PROJECT/MAP but
//! changes a join's or aggregate's answer). This pass generalizes the rung
//! into three strategies, selected from the plan's operator mix and
//! [`consumer_class`]/[`DependenceClass`] structure:
//!
//! * [`ChunkStrategy::RowSlice`] — every operator thread-dependent: slice
//!   every input uniformly by row index (the original chunked mode).
//! * [`ChunkStrategy::HashPartition`] — co-partition every input by a hash
//!   of its leading key word into P buckets and run the whole plan per
//!   bucket. Sound when every operator preserves the bucket invariant
//!   ("all rows of a relation hash to this bucket"): key-matching operators
//!   (JOIN, SEMI/ANTI-JOIN, set ops) only combine key-equal rows, which
//!   share word 0 bit-for-bit, so every output row stays in its bucket and
//!   bucket-local results are disjoint by construction.
//! * [`ChunkStrategy::PartialAggregate`] — a thread-dependent prefix feeding
//!   one final AGGREGATE: row-slice the inputs, aggregate each slice into
//!   *partials*, then merge the partials under the aggregate's
//!   associativity (COUNT/SUM add, MIN/MAX compare, AVG decomposes into
//!   SUM + COUNT).
//!
//! Plans with none of these shapes (a full SORT, a cross PRODUCT, an
//! aggregate sandwiched between joins) genuinely cannot stream, and the
//! ladder reports [`crate::LadderStop::NonElementwiseBlocksChunking`].

use kw_primitives::{consumer_class, DependenceClass, RaOp};
use kw_relational::ops::AggFn;
use kw_relational::{compare_words, AttrType, Relation, Schema, Value};

use crate::{NodeId, PlanNode, QueryPlan, Result, WeaverError};

/// How the chunked executor decomposes a plan into device-sized pieces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkStrategy {
    /// Slice every input uniformly by row index (elementwise plans only).
    RowSlice,
    /// Co-partition every input by key hash into buckets and run the plan
    /// per bucket; bucket outputs are disjoint and concatenate.
    HashPartition,
    /// Row-slice the inputs, aggregate each slice into partials, and merge
    /// the partials under the aggregate's associativity.
    PartialAggregate,
}

impl std::fmt::Display for ChunkStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkStrategy::RowSlice => write!(f, "row-slice"),
            ChunkStrategy::HashPartition => write!(f, "hash-partition"),
            ChunkStrategy::PartialAggregate => write!(f, "partial-aggregate"),
        }
    }
}

/// Choose the chunk strategy for `plan`, or `None` if no decomposition
/// preserves its answer (e.g. a full sort).
///
/// Selection order is cheapest-first: row-slicing needs no repartitioning
/// pass, hash partitioning needs one hash scan per input, partial
/// aggregation needs a recompile plus a host-side merge.
pub fn select_chunk_strategy(plan: &QueryPlan) -> Option<ChunkStrategy> {
    if plan
        .operator_nodes()
        .all(|(_, op, _)| consumer_class(op) == DependenceClass::Thread)
    {
        return Some(ChunkStrategy::RowSlice);
    }
    if hash_partitionable(plan) {
        return Some(ChunkStrategy::HashPartition);
    }
    if mergeable_aggregate(plan).is_some() {
        return Some(ChunkStrategy::PartialAggregate);
    }
    None
}

/// Whether every operator of `plan` preserves the bucket invariant under a
/// word-0 hash partition of its inputs.
///
/// | operator | bucket-safe because |
/// |---|---|
/// | SELECT, UNIQUE | output rows are (bit-identical) input rows |
/// | PROJECT/MAP, `key_arity >= 1` | key attributes pass through unchanged |
/// | JOIN/SEMI/ANTI (`key_len >= 1`) | matches are key-equal, so word 0 is shared |
/// | UNION/INTERSECT/DIFFERENCE | match and dedup by key (`key_arity >= 1`) |
/// | PRODUCT | **no** — pairs rows across buckets |
/// | SORT | **no** — global order crosses buckets |
/// | AGGREGATE | **no** — groups cross buckets (see partial-aggregate) |
///
/// Additionally every node's leading attribute must not be F32: the hash
/// partitions by bit pattern, but key *equality* compares floats, so
/// `+0.0`/`-0.0` (equal keys, different bits) could land matching rows in
/// different buckets.
fn hash_partitionable(plan: &QueryPlan) -> bool {
    let ops_safe = plan.operator_nodes().all(|(_, op, _)| match op {
        RaOp::Select { .. } | RaOp::Unique => true,
        RaOp::Project { key_arity, .. } | RaOp::Map { key_arity, .. } => *key_arity >= 1,
        // `join_schema` structurally requires `key_len >= 1`.
        RaOp::Join { .. } | RaOp::SemiJoin { .. } | RaOp::AntiJoin { .. } => true,
        RaOp::Union | RaOp::Intersect | RaOp::Difference => true,
        RaOp::Product | RaOp::Sort { .. } | RaOp::Aggregate { .. } => false,
    });
    if !ops_safe {
        return false;
    }
    plan.node_ids().all(|id| {
        let schema = plan.schema(id);
        // Set ops match by key and keep their input schema, so the node's
        // own key arity is its match width.
        let keyed_matcher = match plan.node(id) {
            PlanNode::Operator { op, .. } => {
                matches!(op, RaOp::Union | RaOp::Intersect | RaOp::Difference)
            }
            PlanNode::Input { .. } => false,
        };
        schema.attrs().first().is_some_and(|&t| t != AttrType::F32)
            && (!keyed_matcher || schema.key_arity() >= 1)
    })
}

/// The final AGGREGATE node of a partial-aggregate-shaped plan, or `None`.
///
/// The shape: exactly one AGGREGATE, it is the sole marked output with no
/// consumers, every other operator is thread-dependent (so row slices of
/// the inputs reach the aggregate as row slices of its input), the group
/// attributes are not F32 (group equality must equal bit equality for the
/// host merge), and every aggregate function is associatively mergeable:
///
/// * COUNT — partial counts add;
/// * SUM over a non-F32 attribute — `u64` wrapping addition is exactly
///   associative (F32 sums accumulate in f64 left-to-right and are not);
/// * MIN/MAX over a non-F32 attribute — comparison ties are bit-identical;
/// * AVG over a U32/Bool attribute — decomposes into SUM + COUNT whose f64
///   quotient is exact while group sums stay below 2^53.
fn mergeable_aggregate(plan: &QueryPlan) -> Option<NodeId> {
    let mut agg: Option<(NodeId, &Vec<usize>, &Vec<AggFn>)> = None;
    for (id, op, inputs) in plan.operator_nodes() {
        match op {
            RaOp::Aggregate { group_by, aggs } => {
                if agg.is_some() {
                    return None; // more than one aggregate
                }
                let input_schema = plan.schema(inputs[0]);
                agg = Some((id, group_by, aggs));
                if !mergeable_fns(input_schema, group_by, aggs) {
                    return None;
                }
            }
            other if consumer_class(other) != DependenceClass::Thread => return None,
            _ => {}
        }
    }
    let (id, _, _) = agg?;
    (plan.outputs() == [id] && plan.consumers(id).is_empty()).then_some(id)
}

/// Whether `group_by`/`aggs` over `input_schema` merge exactly.
fn mergeable_fns(input_schema: &Schema, group_by: &[usize], aggs: &[AggFn]) -> bool {
    let non_f32 = |a: usize| {
        input_schema
            .attrs()
            .get(a)
            .is_some_and(|&t| t != AttrType::F32)
    };
    group_by.iter().all(|&a| non_f32(a))
        && aggs.iter().all(|agg| match *agg {
            AggFn::Count => true,
            AggFn::Sum(a) | AggFn::Min(a) | AggFn::Max(a) => non_f32(a),
            AggFn::Avg(a) => input_schema
                .attrs()
                .get(a)
                .is_some_and(|&t| matches!(t, AttrType::U32 | AttrType::Bool)),
        })
}

/// Deterministic 64-bit mix (splitmix64 finalizer) — the bucket hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Bucket of a tuple whose leading key word is `word0`.
pub(crate) fn bucket_of(word0: u64, buckets: usize) -> usize {
    (splitmix64(word0) % buckets.max(1) as u64) as usize
}

/// The partial-aggregate rewrite of a [`mergeable_aggregate`] plan plus the
/// data the merge step needs.
pub(crate) struct PartialAggregate {
    /// `plan` with its final AGGREGATE replaced by the partial aggregate
    /// (AVG decomposed into SUM + COUNT); node ids are identical to the
    /// original plan's.
    pub plan: QueryPlan,
    /// Node id of the aggregate (same in both plans).
    pub node: NodeId,
    /// The original aggregate's grouping attributes.
    pub group_by: Vec<usize>,
    /// The original aggregate functions.
    pub aggs: Vec<AggFn>,
    /// Schema of the aggregate's input relation (attribute types drive the
    /// merge comparators).
    pub input_schema: Schema,
    /// Output schema of the *original* aggregate — the merged result's.
    pub final_schema: Schema,
}

/// Build the partial-aggregate rewrite for `plan` (which must satisfy
/// [`mergeable_aggregate`]).
pub(crate) fn partial_aggregate_plan(plan: &QueryPlan) -> Result<PartialAggregate> {
    let node = mergeable_aggregate(plan).ok_or_else(|| {
        WeaverError::plan("plan is not partial-aggregate-shaped (no mergeable final aggregate)")
    })?;
    let (group_by, aggs, input_schema) = match plan.node(node) {
        PlanNode::Operator {
            op: RaOp::Aggregate { group_by, aggs },
            inputs,
        } => (
            group_by.clone(),
            aggs.clone(),
            plan.schema(inputs[0]).clone(),
        ),
        _ => unreachable!("mergeable_aggregate returns an Aggregate node"),
    };
    let partial_aggs: Vec<AggFn> = aggs
        .iter()
        .flat_map(|agg| match *agg {
            AggFn::Avg(a) => vec![AggFn::Sum(a), AggFn::Count],
            other => vec![other],
        })
        .collect();

    // Rebuild node-for-node in id order so every NodeId carries over.
    let mut partial = QueryPlan::new();
    for id in plan.node_ids() {
        let rebuilt = match plan.node(id) {
            PlanNode::Input { name, schema } => partial.add_input(name.clone(), schema.clone()),
            PlanNode::Operator { op, inputs } => {
                let op = if id == node {
                    RaOp::Aggregate {
                        group_by: group_by.clone(),
                        aggs: partial_aggs.clone(),
                    }
                } else {
                    op.clone()
                };
                partial.add_op(op, inputs)?
            }
        };
        debug_assert_eq!(rebuilt, id, "rebuild must preserve node ids");
    }
    partial.mark_output(node);

    let final_schema = plan.schema(node).clone();
    Ok(PartialAggregate {
        plan: partial,
        node,
        group_by,
        aggs,
        input_schema,
        final_schema,
    })
}

/// How one partial column merges across chunks.
enum MergeCol {
    /// `u64` wrapping addition (COUNT, non-F32 SUM, AVG's decomposed pair).
    Add,
    /// Keep the smaller word under the attribute's comparator.
    Min(AttrType),
    /// Keep the larger word under the attribute's comparator.
    Max(AttrType),
}

/// Merge per-chunk partial-aggregate rows into the final aggregate
/// relation, byte-identical to resident execution of the original plan.
///
/// `partials` is every chunk's partial rows merged into one canonical
/// relation. Its group attributes lead each row and are non-F32, so rows
/// of one group are adjacent and bit equality is group equality: one pass
/// folds each run of a group into its final row, in group order.
pub(crate) fn merge_partials(spec: &PartialAggregate, partials: &Relation) -> Result<Relation> {
    let g = spec.group_by.len();
    let mut merge_cols: Vec<MergeCol> = Vec::new();
    for agg in &spec.aggs {
        match *agg {
            AggFn::Count | AggFn::Sum(_) => merge_cols.push(MergeCol::Add),
            AggFn::Min(a) => merge_cols.push(MergeCol::Min(spec.input_schema.attr(a))),
            AggFn::Max(a) => merge_cols.push(MergeCol::Max(spec.input_schema.attr(a))),
            AggFn::Avg(_) => {
                merge_cols.push(MergeCol::Add); // sum
                merge_cols.push(MergeCol::Add); // count
            }
        }
    }
    debug_assert_eq!(partials.schema().arity(), g + merge_cols.len());

    let mut out = Vec::new();
    let mut acc: Vec<u64> = Vec::with_capacity(merge_cols.len());
    let mut rows = partials.iter().peekable();
    while let Some(row) = rows.next() {
        let (key, cols) = row.split_at(g);
        acc.clear();
        acc.extend_from_slice(cols);
        while let Some(next) = rows.next_if(|next| next[..g] == *key) {
            for (acc, (&w, kind)) in acc.iter_mut().zip(next[g..].iter().zip(&merge_cols)) {
                match kind {
                    MergeCol::Add => *acc = acc.wrapping_add(w),
                    MergeCol::Min(ty) => {
                        if compare_words(w, *acc, *ty) == std::cmp::Ordering::Less {
                            *acc = w;
                        }
                    }
                    MergeCol::Max(ty) => {
                        if compare_words(w, *acc, *ty) == std::cmp::Ordering::Greater {
                            *acc = w;
                        }
                    }
                }
            }
        }

        // Finalize the group into the original aggregate's output layout.
        out.extend_from_slice(key);
        let mut c = 0usize;
        for agg in &spec.aggs {
            match *agg {
                AggFn::Avg(_) => {
                    let (sum, count) = (acc[c], acc[c + 1]);
                    out.push(Value::F32((sum as f64 / count as f64) as f32).encode());
                    c += 2;
                }
                _ => {
                    out.push(acc[c]);
                    c += 1;
                }
            }
        }
    }
    Ok(Relation::from_words(spec.final_schema.clone(), out)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_relational::{gen, CmpOp, Expr, Predicate};

    fn join_plan() -> QueryPlan {
        let (l, r) = gen::join_inputs(64, 2, 0.5, 1);
        let mut plan = QueryPlan::new();
        let x = plan.add_input("x", l.schema().clone());
        let y = plan.add_input("y", r.schema().clone());
        let j = plan.add_op(RaOp::Join { key_len: 1 }, &[x, y]).unwrap();
        plan.mark_output(j);
        plan
    }

    #[test]
    fn elementwise_plans_row_slice() {
        let input = gen::micro_input(64, 2);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let s = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(0, CmpOp::Lt, Value::U32(7)),
                },
                &[t],
            )
            .unwrap();
        plan.mark_output(s);
        assert_eq!(select_chunk_strategy(&plan), Some(ChunkStrategy::RowSlice));
    }

    #[test]
    fn joins_hash_partition() {
        assert_eq!(
            select_chunk_strategy(&join_plan()),
            Some(ChunkStrategy::HashPartition)
        );
    }

    #[test]
    fn select_join_chains_hash_partition() {
        // Pattern (c)'s shape: selects feeding a join tree.
        let (l, r) = gen::join_inputs(64, 2, 0.5, 3);
        let mut plan = QueryPlan::new();
        let x = plan.add_input("x", l.schema().clone());
        let y = plan.add_input("y", r.schema().clone());
        let sx = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
                },
                &[x],
            )
            .unwrap();
        let j = plan.add_op(RaOp::Join { key_len: 1 }, &[sx, y]).unwrap();
        plan.mark_output(j);
        assert_eq!(
            select_chunk_strategy(&plan),
            Some(ChunkStrategy::HashPartition)
        );
    }

    #[test]
    fn rekeying_projection_blocks_hash_partitioning() {
        // A projection that drops the key (key_arity 0) may emit rows whose
        // word 0 no longer matches their bucket, so the invariant breaks.
        let (l, r) = gen::join_inputs(64, 2, 0.5, 4);
        let mut plan = QueryPlan::new();
        let x = plan.add_input("x", l.schema().clone());
        let y = plan.add_input("y", r.schema().clone());
        let j = plan.add_op(RaOp::Join { key_len: 1 }, &[x, y]).unwrap();
        let p = plan
            .add_op(
                RaOp::Project {
                    attrs: vec![1, 2],
                    key_arity: 0,
                },
                &[j],
            )
            .unwrap();
        plan.mark_output(p);
        assert_eq!(select_chunk_strategy(&plan), None);
    }

    #[test]
    fn sorts_and_products_have_no_strategy() {
        let input = gen::micro_input(64, 5);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let s = plan.add_op(RaOp::Sort { attrs: vec![1] }, &[t]).unwrap();
        plan.mark_output(s);
        assert_eq!(select_chunk_strategy(&plan), None);

        let mut prod = QueryPlan::new();
        let a = prod.add_input("a", input.schema().clone());
        let b = prod.add_input("b", input.schema().clone());
        let p = prod.add_op(RaOp::Product, &[a, b]).unwrap();
        prod.mark_output(p);
        assert_eq!(select_chunk_strategy(&prod), None);
    }

    #[test]
    fn final_aggregates_partial_aggregate() {
        let input = gen::micro_input(64, 6);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let s = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
                },
                &[t],
            )
            .unwrap();
        let a = plan
            .add_op(
                RaOp::Aggregate {
                    group_by: vec![0],
                    aggs: vec![AggFn::Sum(1), AggFn::Count, AggFn::Avg(2), AggFn::Min(3)],
                },
                &[s],
            )
            .unwrap();
        plan.mark_output(a);
        assert_eq!(
            select_chunk_strategy(&plan),
            Some(ChunkStrategy::PartialAggregate)
        );

        // The rewrite preserves node ids and decomposes AVG.
        let partial = partial_aggregate_plan(&plan).unwrap();
        assert_eq!(partial.node, a);
        match partial.plan.node(a) {
            PlanNode::Operator {
                op: RaOp::Aggregate { aggs, .. },
                ..
            } => {
                assert_eq!(
                    aggs,
                    &[
                        AggFn::Sum(1),
                        AggFn::Count,
                        AggFn::Sum(2),
                        AggFn::Count,
                        AggFn::Min(3)
                    ]
                );
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn float_aggregates_are_not_mergeable() {
        // SUM over an F32 attribute accumulates in f64 left-to-right; the
        // partial merge cannot reproduce it bit-for-bit, so no strategy.
        let schema = Schema::new(vec![AttrType::U32, AttrType::F32], 1);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", schema);
        let a = plan
            .add_op(
                RaOp::Aggregate {
                    group_by: vec![0],
                    aggs: vec![AggFn::Sum(1)],
                },
                &[t],
            )
            .unwrap();
        plan.mark_output(a);
        assert_eq!(select_chunk_strategy(&plan), None);
    }

    #[test]
    fn map_after_aggregate_blocks_partial_merge() {
        // The aggregate must be the sink: a consumer below it would see
        // partials, not the merged result.
        let input = gen::micro_input(64, 7);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let a = plan
            .add_op(
                RaOp::Aggregate {
                    group_by: vec![0],
                    aggs: vec![AggFn::Count],
                },
                &[t],
            )
            .unwrap();
        let m = plan
            .add_op(
                RaOp::Map {
                    exprs: vec![Expr::attr(0), Expr::attr(1)],
                    key_arity: 1,
                },
                &[a],
            )
            .unwrap();
        plan.mark_output(m);
        assert_eq!(select_chunk_strategy(&plan), None);
    }

    #[test]
    fn bucket_of_is_deterministic_and_in_range() {
        for p in [1usize, 2, 3, 7, 64] {
            for w in [0u64, 1, 7, u64::MAX, 0x9E37_79B9] {
                let b = bucket_of(w, p);
                assert!(b < p);
                assert_eq!(b, bucket_of(w, p));
            }
        }
    }
}
