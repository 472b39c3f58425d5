//! Property tests for the chunk-strategy layer: hash-partitioned join
//! chunking and partial-aggregate/merge chunking must be *byte-identical*
//! to resident execution for any bucket count and any key skew, and every
//! strategy's double-buffered makespan must beat (or tie) full
//! serialization.

use kw_core::{execute_plan, ChunkStrategy, QueryPlan, WeaverConfig};
use kw_gpu_sim::{Device, DeviceConfig};
use kw_primitives::RaOp;
use kw_relational::ops::AggFn;
use kw_relational::{gen, ops, CmpOp, Predicate, Relation, Schema, Value};
use proptest::prelude::*;

/// Deterministic xorshift-style stream for building skewed inputs.
fn mix(state: &mut u64) -> u32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as u32
}

/// `n` rows of `(key % keys, payload)` — `keys == 1` is the all-collide
/// worst case where hash partitioning degenerates to a single bucket.
fn skewed_relation(n: usize, keys: u32, seed: u64) -> Relation {
    let schema = Schema::uniform_u32(2);
    let mut s = seed | 1;
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| vec![Value::U32(mix(&mut s) % keys), Value::U32(mix(&mut s))])
        .collect();
    Relation::from_rows(schema, &rows).unwrap()
}

fn chunked(chunks: usize) -> WeaverConfig {
    WeaverConfig {
        chunks: Some(chunks),
        ..WeaverConfig::default()
    }
}

fn join_plan(schema: Schema) -> QueryPlan {
    let mut plan = QueryPlan::new();
    let l = plan.add_input("l", schema.clone());
    let r = plan.add_input("r", schema);
    let j = plan.add_op(RaOp::Join { key_len: 1 }, &[l, r]).unwrap();
    plan.mark_output(j);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hash-partitioned join chunking returns byte-identical relations to
    /// the relational oracle for any bucket count and any key skew — from
    /// well-spread keys down to every key colliding in one bucket.
    #[test]
    fn hash_partitioned_join_is_byte_identical(
        n_left in 0usize..240,
        n_right in 0usize..240,
        keys in 1u32..24,
        chunks in 1usize..12,
        seed in any::<u64>(),
    ) {
        let left = skewed_relation(n_left, keys, seed);
        let right = skewed_relation(n_right, keys, seed.rotate_left(17));
        let plan = join_plan(left.schema().clone());
        let oracle = ops::join(&left, &right, 1).unwrap();

        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("l", &left), ("r", &right)], &mut dev, &chunked(chunks))
        .unwrap();

        prop_assert_eq!(report.strategy, Some(ChunkStrategy::HashPartition));
        let out = report.outputs.values().next().unwrap();
        prop_assert_eq!(out.words(), oracle.words(), "join bytes diverged");
        prop_assert_eq!(out.schema(), oracle.schema());
        prop_assert!(
            report.total_seconds <= report.serialized_seconds + 1e-12,
            "total {} > serialized {}",
            report.total_seconds,
            report.serialized_seconds
        );
        prop_assert_eq!(dev.memory().in_use(), 0, "chunked join leaked");
    }

    /// Partial-aggregate/merge chunking is byte-identical to the oracle for
    /// every mergeable aggregate function at once (COUNT, SUM, MIN, MAX and
    /// integer AVG), across group-count skew and chunk counts.
    #[test]
    fn partial_aggregate_merge_is_byte_identical(
        n in 0usize..400,
        groups in 1u32..16,
        chunks in 1usize..10,
        seed in any::<u64>(),
    ) {
        let schema = Schema::uniform_u32(4);
        let mut s = seed | 1;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                vec![
                    Value::U32(mix(&mut s) % groups),
                    Value::U32(mix(&mut s)),
                    Value::U32(mix(&mut s)),
                    Value::U32(mix(&mut s)),
                ]
            })
            .collect();
        let input = Relation::from_rows(schema.clone(), &rows).unwrap();
        let group_by = vec![0usize];
        let aggs = vec![
            AggFn::Count,
            AggFn::Sum(1),
            AggFn::Min(2),
            AggFn::Max(3),
            AggFn::Avg(1),
        ];
        let oracle = ops::aggregate(&input, &group_by, &aggs).unwrap();

        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", schema);
        let a = plan
            .add_op(
                RaOp::Aggregate {
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                },
                &[t],
            )
            .unwrap();
        plan.mark_output(a);

        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &chunked(chunks))
        .unwrap();

        prop_assert_eq!(report.strategy, Some(ChunkStrategy::PartialAggregate));
        let out = report.outputs.values().next().unwrap();
        prop_assert_eq!(out.words(), oracle.words(), "aggregate bytes diverged");
        prop_assert_eq!(out.schema(), oracle.schema());
        prop_assert!(
            report.total_seconds <= report.serialized_seconds + 1e-12,
            "total {} > serialized {}",
            report.total_seconds,
            report.serialized_seconds
        );
        prop_assert_eq!(dev.memory().in_use(), 0, "chunked aggregate leaked");
    }

    /// Row-sliced (elementwise) chunking keeps the same contract: oracle
    /// bytes and a pipelined makespan no worse than serialization.
    #[test]
    fn row_slice_chunking_is_byte_identical(
        n in 0usize..600,
        chunks in 1usize..10,
        seed in any::<u64>(),
    ) {
        let input = gen::micro_input(n, seed);
        let mut plan = QueryPlan::new();
        let t = plan.add_input("t", input.schema().clone());
        let sel = plan
            .add_op(
                RaOp::Select {
                    pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
                },
                &[t],
            )
            .unwrap();
        plan.mark_output(sel);
        let oracle = ops::select(
            &input,
            &Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
        )
        .unwrap();

        let mut dev = Device::new(DeviceConfig::fermi_c2050());
        let report = execute_plan(&plan, &[("t", &input)], &mut dev, &chunked(chunks))
        .unwrap();

        prop_assert_eq!(report.strategy, Some(ChunkStrategy::RowSlice));
        prop_assert_eq!(report.outputs[&sel].words(), oracle.words());
        prop_assert!(
            report.total_seconds <= report.serialized_seconds + 1e-12,
            "total {} > serialized {}",
            report.total_seconds,
            report.serialized_seconds
        );
        prop_assert_eq!(dev.memory().in_use(), 0, "chunked select leaked");
    }
}

/// The all-keys-collide corner deserves a deterministic pin alongside the
/// property: one bucket receives everything, the other buckets are skipped,
/// and the answer is still exact.
#[test]
fn all_keys_collide_lands_in_one_bucket_and_still_matches() {
    let left = skewed_relation(500, 1, 0xA11C0111DE);
    let right = skewed_relation(300, 1, 0xB0B);
    let plan = join_plan(left.schema().clone());
    let oracle = ops::join(&left, &right, 1).unwrap();

    let mut dev = Device::new(DeviceConfig::fermi_c2050());
    let report =
        execute_plan(&plan, &[("l", &left), ("r", &right)], &mut dev, &chunked(8)).unwrap();

    assert_eq!(report.strategy, Some(ChunkStrategy::HashPartition));
    // Every row shares one key word, so 7 of the 8 bucket pairs are empty
    // and skipped: exactly one chunk executes.
    assert_eq!(report.chunks, 1);
    assert_eq!(report.outputs.values().next().unwrap(), &oracle);
    assert_eq!(dev.memory().in_use(), 0);
}
