//! Kernel-IR integration suite: mixed-type schemas, multi-attribute keys,
//! grid clamping, the semi-join step, and optimizer edge cases.

use kw_gpu_sim::{Device, DeviceConfig};
use kw_kernel_ir::{
    estimate_resources, execute, infer_schemas, optimize, validate, GpuOperator, OptLevel,
    PartitionSpec, SlotDecl, SlotId, Space, Step, MAX_GRID_CTAS,
};
use kw_relational::{gen, ops, AttrType, CmpOp, Expr, Predicate, Relation, Schema, Value};

fn device() -> Device {
    Device::new(DeviceConfig::fermi_c2050())
}

fn select_op(schema: Schema, pred: Predicate) -> GpuOperator {
    GpuOperator::streaming(
        "select",
        vec![schema],
        1,
        vec![
            SlotDecl::new("in", Space::Register),
            SlotDecl::new("f", Space::Register),
            SlotDecl::new("dense", Space::Shared),
        ],
        vec![
            Step::Load {
                input: 0,
                dst: SlotId(0),
            },
            Step::Filter {
                src: SlotId(0),
                pred,
                dst: SlotId(1),
            },
            Step::Compact {
                src: SlotId(1),
                dst: SlotId(2),
            },
            Step::Barrier,
            Step::Store {
                src: SlotId(2),
                output: 0,
            },
        ],
        PartitionSpec::Even,
    )
}

#[test]
fn mixed_type_schema_through_pipeline() {
    // (u32 key, f32, u64, bool)
    let schema = Schema::new(
        vec![AttrType::U32, AttrType::F32, AttrType::U64, AttrType::Bool],
        1,
    );
    let rows: Vec<Vec<Value>> = (0..2_000)
        .map(|i| {
            vec![
                Value::U32(i),
                Value::F32(i as f32 * 0.5),
                Value::U64(u64::from(i) << 33),
                Value::Bool(i % 3 == 0),
            ]
        })
        .collect();
    let input = Relation::from_rows(schema.clone(), &rows).unwrap();
    let pred = Predicate::cmp(1, CmpOp::Lt, Value::F32(300.0)).and(Predicate::cmp(
        3,
        CmpOp::Eq,
        Value::Bool(true),
    ));
    let op = select_op(schema, pred.clone());
    let mut dev = device();
    let result = execute(&op, &[&input], &mut dev, OptLevel::O3).unwrap();
    assert_eq!(result.outputs[0], ops::select(&input, &pred).unwrap());
    assert!(!result.outputs[0].is_empty());
    // u64 attributes cost two registers.
    let inferred = infer_schemas(&op).unwrap();
    let res = estimate_resources(&op, &inferred, OptLevel::O3).unwrap();
    assert!(res.registers_per_thread > 12);
}

#[test]
fn multi_attribute_key_join_in_kernel() {
    let schema = Schema::new(vec![AttrType::U32, AttrType::U32, AttrType::U32], 2);
    let mut r = gen::rng(5);
    use rand::Rng;
    let mk = |r: &mut rand::rngs::StdRng, n: usize| {
        let words: Vec<u64> = (0..n)
            .flat_map(|_| {
                vec![
                    u64::from(r.gen_range(0..40u32)),
                    u64::from(r.gen_range(0..4u32)),
                    u64::from(r.gen::<u32>()),
                ]
            })
            .collect();
        Relation::from_words(schema.clone(), words).unwrap()
    };
    let l = mk(&mut r, 2_000);
    let rt = mk(&mut r, 1_500);
    let op = GpuOperator::streaming(
        "join2",
        vec![schema.clone(), schema.clone()],
        1,
        vec![
            SlotDecl::new("l", Space::Shared),
            SlotDecl::new("r", Space::Shared),
            SlotDecl::new("o", Space::Shared),
        ],
        vec![
            Step::Load {
                input: 0,
                dst: SlotId(0),
            },
            Step::Load {
                input: 1,
                dst: SlotId(1),
            },
            Step::Barrier,
            Step::Join {
                left: SlotId(0),
                right: SlotId(1),
                key_len: 2,
                dst: SlotId(2),
            },
            Step::Barrier,
            Step::Store {
                src: SlotId(2),
                output: 0,
            },
        ],
        PartitionSpec::KeyRange {
            pivot: 0,
            key_len: 2,
        },
    );
    let mut dev = device();
    let result = execute(&op, &[&l, &rt], &mut dev, OptLevel::O3).unwrap();
    assert_eq!(result.outputs[0], ops::join(&l, &rt, 2).unwrap());
}

#[test]
fn semi_join_step_matches_oracle_and_respects_negation() {
    let (l, r) = gen::join_inputs(3_000, 2, 0.5, 9);
    for negated in [false, true] {
        let op = GpuOperator::streaming(
            if negated { "anti" } else { "semi" },
            vec![l.schema().clone(), r.schema().clone()],
            1,
            vec![
                SlotDecl::new("l", Space::Shared),
                SlotDecl::new("r", Space::Shared),
                SlotDecl::new("o", Space::Shared),
            ],
            vec![
                Step::Load {
                    input: 0,
                    dst: SlotId(0),
                },
                Step::Load {
                    input: 1,
                    dst: SlotId(1),
                },
                Step::Barrier,
                Step::SemiJoin {
                    left: SlotId(0),
                    right: SlotId(1),
                    key_len: 1,
                    negated,
                    dst: SlotId(2),
                },
                Step::Barrier,
                Step::Store {
                    src: SlotId(2),
                    output: 0,
                },
            ],
            PartitionSpec::KeyRange {
                pivot: 0,
                key_len: 1,
            },
        );
        let mut dev = device();
        let result = execute(&op, &[&l, &r], &mut dev, OptLevel::O3).unwrap();
        let oracle = if negated {
            ops::anti_join(&l, &r, 1).unwrap()
        } else {
            ops::semi_join(&l, &r, 1).unwrap()
        };
        assert_eq!(result.outputs[0], oracle, "negated={negated}");
    }
}

#[test]
fn grid_clamps_at_cuda_limit() {
    // One thread per CTA: 100k tuples would want 100k CTAs > 65535.
    let input = gen::micro_input(100_000, 3);
    let mut op = select_op(input.schema().clone(), Predicate::True);
    op.threads_per_cta = 1; // force the clamp with a small input
    let mut dev = device();
    let result = execute(&op, &[&input], &mut dev, OptLevel::O3).unwrap();
    assert_eq!(result.outputs[0], input);
    // The partition kernel reads one 16-byte pivot key per CTA, so its
    // traffic shows the clamped grid.
    let partition = dev
        .spans()
        .iter()
        .find(|s| s.label == "select.partition")
        .unwrap();
    assert_eq!(
        partition.delta.global_bytes_read,
        u64::from(MAX_GRID_CTAS) * 16
    );
}

#[test]
fn optimizer_never_alters_results_on_handwritten_ir() {
    // A body with redundancy the optimizer attacks: duplicate loads,
    // chained filters, a dead projection.
    let input = gen::micro_input(4_000, 8);
    let schema = input.schema().clone();
    let op = GpuOperator::streaming(
        "messy",
        vec![schema.clone()],
        1,
        vec![
            SlotDecl::new("a", Space::Register),
            SlotDecl::new("b", Space::Register),
            SlotDecl::new("f1", Space::Register),
            SlotDecl::new("f2", Space::Register),
            SlotDecl::new("dead", Space::Register),
            SlotDecl::new("dense", Space::Shared),
        ],
        vec![
            Step::Load {
                input: 0,
                dst: SlotId(0),
            },
            Step::Load {
                input: 0,
                dst: SlotId(1),
            },
            Step::Filter {
                src: SlotId(0),
                pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
                dst: SlotId(2),
            },
            Step::Project {
                src: SlotId(1),
                attrs: vec![0, 1],
                key_arity: 1,
                dst: SlotId(4),
            },
            Step::Filter {
                src: SlotId(2),
                pred: Predicate::cmp(2, CmpOp::Ge, Value::U32(10)),
                dst: SlotId(3),
            },
            Step::Compact {
                src: SlotId(3),
                dst: SlotId(5),
            },
            Step::Barrier,
            Step::Store {
                src: SlotId(5),
                output: 0,
            },
        ],
        PartitionSpec::Even,
    );
    let (optimized, stats) = optimize(&op, OptLevel::O3).unwrap();
    assert!(stats.filters_combined >= 1);
    assert!(stats.dead_steps_removed >= 1);
    assert!(stats.steps_deduplicated >= 1);
    validate(&optimized).unwrap();

    let mut d1 = device();
    let raw = execute(&op, &[&input], &mut d1, OptLevel::O3).unwrap();
    let mut d2 = device();
    let opt = execute(&optimized, &[&input], &mut d2, OptLevel::O3).unwrap();
    assert_eq!(raw.outputs[0], opt.outputs[0]);
    // The optimized kernel does strictly less work.
    assert!(d2.stats().alu_ops <= d1.stats().alu_ops);
}

#[test]
fn optimizer_keeps_required_barriers() {
    // select -> join via shared memory: the barrier between the shared def
    // and the join must survive barrier simplification.
    let (l, r) = gen::join_inputs(1_000, 2, 0.5, 11);
    let op = GpuOperator::streaming(
        "sel-join",
        vec![l.schema().clone(), r.schema().clone()],
        1,
        vec![
            SlotDecl::new("lin", Space::Register),
            SlotDecl::new("lsel", Space::Shared),
            SlotDecl::new("rin", Space::Shared),
            SlotDecl::new("out", Space::Shared),
        ],
        vec![
            Step::Load {
                input: 0,
                dst: SlotId(0),
            },
            Step::Load {
                input: 1,
                dst: SlotId(2),
            },
            Step::Filter {
                src: SlotId(0),
                pred: Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2)),
                dst: SlotId(1),
            },
            Step::Barrier,
            Step::Barrier, // redundant: must be removed
            Step::Join {
                left: SlotId(1),
                right: SlotId(2),
                key_len: 1,
                dst: SlotId(3),
            },
            Step::Barrier,
            Step::Store {
                src: SlotId(3),
                output: 0,
            },
        ],
        PartitionSpec::KeyRange {
            pivot: 0,
            key_len: 1,
        },
    );
    let (optimized, stats) = optimize(&op, OptLevel::O3).unwrap();
    assert_eq!(stats.barriers_removed, 1);
    validate(&optimized).unwrap();
    let mut dev = device();
    let result = execute(&optimized, &[&l, &r], &mut dev, OptLevel::O3).unwrap();
    let oracle = ops::join(
        &ops::select(&l, &Predicate::cmp(1, CmpOp::Lt, Value::U32(u32::MAX / 2))).unwrap(),
        &r,
        1,
    )
    .unwrap();
    assert_eq!(result.outputs[0], oracle);
}

#[test]
fn compute_with_constant_folding_runs_folded() {
    let input = gen::micro_input(1_000, 13);
    let op = GpuOperator::streaming(
        "arith",
        vec![input.schema().clone()],
        1,
        vec![
            SlotDecl::new("in", Space::Register),
            SlotDecl::new("c", Space::Register),
        ],
        vec![
            Step::Load {
                input: 0,
                dst: SlotId(0),
            },
            Step::Compute {
                src: SlotId(0),
                exprs: vec![
                    Expr::attr(0),
                    Expr::attr(1)
                        .mul(Expr::lit(3u32).add(Expr::lit(4u32)))
                        .add(Expr::lit(10u32).sub(Expr::lit(10u32))),
                ],
                key_arity: 1,
                dst: SlotId(1),
            },
            Step::Store {
                src: SlotId(1),
                output: 0,
            },
        ],
        PartitionSpec::Even,
    );
    let (optimized, stats) = optimize(&op, OptLevel::O3).unwrap();
    assert!(stats.constants_folded >= 1);
    let mut d1 = device();
    let a = execute(&op, &[&input], &mut d1, OptLevel::O3).unwrap();
    let mut d2 = device();
    let b = execute(&optimized, &[&input], &mut d2, OptLevel::O3).unwrap();
    assert_eq!(a.outputs[0], b.outputs[0]);
    assert!(d2.stats().alu_ops < d1.stats().alu_ops);
}
