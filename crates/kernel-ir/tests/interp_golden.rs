//! Interpreter equivalence: a committed golden over a fixed corpus, and a
//! property test against step-by-step `kw_relational::ops` chains.
//!
//! The golden pins, for every case at `-O0` and `-O3`, the relations
//! `execute` returns and the `SimStats` it charges the simulated device.
//! The corpus covers every step kind (all three set operations, semi- and
//! anti-join, Product and Unique included), the Even, KeyRange and
//! ReplicateRight partitions, an empty input and empty CTAs,
//! duplicate-heavy keys, F32 columns holding -0.0, NaN and ±inf, and
//! Compute over U32/U64/F32 mixes with wrapping overflow and division by
//! zero. Regenerate the golden, for an intended change only, with
//!
//! ```text
//! cargo test -p kw-kernel-ir --test interp_golden -- --ignored
//! ```

use std::fmt::Write as _;

use kw_gpu_sim::{Device, DeviceConfig};
use kw_kernel_ir::{
    execute, GpuOperator, OptLevel, PartitionSpec, SetOpKind, SlotDecl, SlotId, Space, Step,
};
use kw_relational::ops::{self, AggFn};
use kw_relational::{AttrType, CmpOp, Expr, Predicate, Relation, Schema, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN: &str = "tests/golden/interp_corpus.txt";

fn device() -> Device {
    Device::new(DeviceConfig::fermi_c2050())
}

fn slot(i: usize) -> SlotId {
    SlotId(i)
}

fn load(input: usize, dst: usize) -> Step {
    Step::Load {
        input,
        dst: slot(dst),
    }
}

fn filter(src: usize, pred: Predicate, dst: usize) -> Step {
    Step::Filter {
        src: slot(src),
        pred,
        dst: slot(dst),
    }
}

fn project(src: usize, attrs: &[usize], key_arity: usize, dst: usize) -> Step {
    Step::Project {
        src: slot(src),
        attrs: attrs.to_vec(),
        key_arity,
        dst: slot(dst),
    }
}

fn compute(src: usize, exprs: Vec<Expr>, key_arity: usize, dst: usize) -> Step {
    Step::Compute {
        src: slot(src),
        exprs,
        key_arity,
        dst: slot(dst),
    }
}

fn compact(src: usize, dst: usize) -> Step {
    Step::Compact {
        src: slot(src),
        dst: slot(dst),
    }
}

fn unique(src: usize, dst: usize) -> Step {
    Step::Unique {
        src: slot(src),
        dst: slot(dst),
    }
}

fn join(left: usize, right: usize, key_len: usize, dst: usize) -> Step {
    Step::Join {
        left: slot(left),
        right: slot(right),
        key_len,
        dst: slot(dst),
    }
}

fn store(src: usize, output: usize) -> Step {
    Step::Store {
        src: slot(src),
        output,
    }
}

/// A streaming operator over `inputs` with one slot per entry of `spaces`.
fn streaming(
    label: &str,
    inputs: &[&Relation],
    outputs: usize,
    spaces: &[Space],
    steps: Vec<Step>,
    partition: PartitionSpec,
    threads: u32,
) -> GpuOperator {
    let slots = spaces
        .iter()
        .enumerate()
        .map(|(i, &sp)| SlotDecl::new(format!("s{i}"), sp))
        .collect();
    let schemas = inputs.iter().map(|r| r.schema().clone()).collect();
    let mut op = GpuOperator::streaming(label, schemas, outputs, slots, steps, partition);
    op.threads_per_cta = threads;
    op
}

// ---- corpus data ------------------------------------------------------------

/// F32 words the corpus draws from: signed zeros, NaNs with payloads,
/// infinities and ordinary values.
fn float_pool() -> Vec<u64> {
    [
        (-0.0f32).to_bits(),
        0.0f32.to_bits(),
        0x7fc0_0000, // quiet NaN
        0x7f80_0001, // signalling NaN payload
        0xffc0_0000, // negative NaN
        f32::INFINITY.to_bits(),
        f32::NEG_INFINITY.to_bits(),
        1.5f32.to_bits(),
        (-2.25f32).to_bits(),
        1e30f32.to_bits(),
        (-1e-30f32).to_bits(),
        3.0f32.to_bits(),
    ]
    .into_iter()
    .map(u64::from)
    .collect()
}

fn rows(
    schema: Schema,
    n: usize,
    seed: u64,
    mut word: impl FnMut(usize, &mut StdRng) -> u64,
) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = schema.arity();
    let words = (0..n * arity).map(|i| word(i % arity, &mut rng)).collect();
    Relation::from_words(schema, words).unwrap()
}

/// `(u32 key, u32)` with keys in `0..keys` and values in `0..vals`: heavy
/// key duplication and many fully duplicate rows.
fn dups(n: usize, keys: u64, vals: u64, seed: u64) -> Relation {
    rows(Schema::uniform_u32(2), n, seed, |a, r| {
        r.gen_range(0..if a == 0 { keys } else { vals })
    })
}

/// `(f32 key, u32, f32)` drawn from [`float_pool`].
fn floats(n: usize, seed: u64) -> Relation {
    let pool = float_pool();
    let schema = Schema::new(vec![AttrType::F32, AttrType::U32, AttrType::F32], 1);
    rows(schema, n, seed, |a, r| {
        if a == 1 {
            r.gen_range(0..5)
        } else {
            pool[r.gen_range(0..pool.len())]
        }
    })
}

/// `(u32 key, u64, f32)` with values at the wrapping edges and zeros.
fn mixed(n: usize, seed: u64) -> Relation {
    let pool = float_pool();
    let schema = Schema::new(vec![AttrType::U32, AttrType::U64, AttrType::F32], 1);
    rows(schema, n, seed, |a, r| match a {
        0 => [
            0,
            1,
            7,
            u64::from(u32::MAX),
            u64::from(u32::MAX - 1),
            r.gen::<u32>().into(),
        ][r.gen_range(0..6)],
        1 => [0, 1, u64::MAX, u64::MAX / 3, r.gen::<u64>()][r.gen_range(0..5)],
        _ => pool[r.gen_range(0..pool.len())],
    })
}

fn micro(n: usize, seed: u64) -> Relation {
    kw_relational::gen::micro_input(n, seed)
}

// ---- corpus operators -------------------------------------------------------

/// Load → Filter → Compact → Store over one input (Even partition).
fn select_compact(label: &str, input: &Relation, pred: Predicate, threads: u32) -> GpuOperator {
    streaming(
        label,
        &[input],
        1,
        &[Space::Register, Space::Register, Space::Shared],
        vec![
            load(0, 0),
            filter(0, pred, 1),
            compact(1, 2),
            Step::Barrier,
            store(2, 0),
        ],
        PartitionSpec::Even,
        threads,
    )
}

/// Load both inputs into shared memory, apply `step` (reading slots 0 and
/// 1, writing slot 2), store slot 2.
fn binary(
    label: &str,
    l: &Relation,
    r: &Relation,
    step: Step,
    partition: PartitionSpec,
    threads: u32,
) -> GpuOperator {
    streaming(
        label,
        &[l, r],
        1,
        &[Space::Shared, Space::Shared, Space::Shared],
        vec![
            load(0, 0),
            load(1, 1),
            Step::Barrier,
            step,
            Step::Barrier,
            store(2, 0),
        ],
        partition,
        threads,
    )
}

const KEY_RANGE: PartitionSpec = PartitionSpec::KeyRange {
    pivot: 0,
    key_len: 1,
};

fn semi_step(negated: bool) -> Step {
    Step::SemiJoin {
        left: slot(0),
        right: slot(1),
        key_len: 1,
        negated,
        dst: slot(2),
    }
}

fn setop_step(kind: SetOpKind) -> Step {
    Step::SetOp {
        kind,
        left: slot(0),
        right: slot(1),
        dst: slot(2),
    }
}

struct Case {
    name: String,
    op: GpuOperator,
    inputs: Vec<Relation>,
}

fn case(name: &str, op: GpuOperator, inputs: &[&Relation]) -> Case {
    Case {
        name: name.to_string(),
        op,
        inputs: inputs.iter().map(|r| (*r).clone()).collect(),
    }
}

fn corpus() -> Vec<Case> {
    let micro_in = micro(3000, 11);
    let empty = Relation::empty(Schema::uniform_u32(4));
    let dl = dups(2000, 8, 4, 21);
    let dr = dups(300, 12, 3, 22);
    let fl = floats(600, 31);
    let fr = floats(200, 32);
    let mx = mixed(900, 41);
    // Every left key equal: KeyRange puts the whole input in one CTA.
    let skew = rows(Schema::uniform_u32(2), 1000, 51, |a, r| {
        if a == 0 {
            7
        } else {
            r.gen_range(0..50)
        }
    });
    let skew_r = rows(Schema::uniform_u32(2), 30, 52, |a, r| {
        if a == 0 {
            [3, 7, 9][r.gen_range(0..3)]
        } else {
            r.gen_range(0..4)
        }
    });
    let dirty_schema = Schema::new(vec![AttrType::U32, AttrType::U32, AttrType::F32], 1);
    let dirty = rows(dirty_schema, 400, 61, |a, r| match a {
        0 => r.gen_range(0..1000),
        1 => r.gen_range(0..3),
        _ => {
            [0, 1u64 << 32, 5u64 << 32][r.gen_range(0..3)]
                | [0x7fc0_0000, 0, 0x8000_0000, 0x3fc0_0000][r.gen_range(0..4)]
        }
    });
    let prod_l = micro(500, 4);
    let prod_r = micro(40, 5);
    let half = Value::U32(u32::MAX / 2);

    let mut cases = vec![
        case(
            "select_compact/micro",
            select_compact("sel", &micro_in, Predicate::cmp(1, CmpOp::Lt, half), 256),
            &[&micro_in],
        ),
        case(
            "select_compact/empty",
            select_compact("sel", &empty, Predicate::cmp(1, CmpOp::Lt, half), 256),
            &[&empty],
        ),
        case(
            "select_compact/floats",
            select_compact(
                "sel",
                &fl,
                Predicate::cmp(0, CmpOp::Ge, Value::F32(-0.0))
                    .and(Predicate::cmp(2, CmpOp::Ne, Value::F32(f32::INFINITY)))
                    .or(Predicate::cmp_attr(0, CmpOp::Eq, 2)),
                64,
            ),
            &[&fl],
        ),
    ];

    // Filter straight into shared memory (dense lanes), two outputs.
    cases.push(case(
        "filter_shared_two_outputs/micro",
        streaming(
            "fshared",
            &[&micro_in],
            2,
            &[Space::Register, Space::Shared, Space::Register],
            vec![
                load(0, 0),
                filter(0, Predicate::cmp(2, CmpOp::Ge, half).not(), 1),
                project(0, &[3, 1], 1, 2),
                Step::Barrier,
                store(1, 0),
                store(2, 1),
            ],
            PartitionSpec::Even,
            128,
        ),
        &[&micro_in],
    ));

    // Register chain with wrapping and division by zero, stored unsorted.
    let wrap_exprs = vec![
        Expr::attr(0).add(Expr::lit(u32::MAX)),
        Expr::attr(1).mul(Expr::attr(1)),
        Expr::attr(2).div(Expr::attr(0)),
        Expr::attr(0).div(Expr::attr(0).sub(Expr::attr(0))),
        Expr::attr(1).div(Expr::lit(0u64)),
        Expr::attr(1).add(Expr::attr(0)),
        Expr::attr(2).mul(Expr::lit(-0.0f32)),
        Expr::attr(0).sub(Expr::lit(9u32)).mul(Expr::attr(2)),
    ];
    cases.push(case(
        "compute_project_chain/mixed",
        streaming(
            "chain",
            &[&mx],
            1,
            &[Space::Register; 4],
            vec![
                load(0, 0),
                filter(0, Predicate::cmp(0, CmpOp::Ne, Value::U32(1)), 1),
                compute(1, wrap_exprs, 1, 2),
                project(2, &[3, 0, 6, 2, 7], 2, 3),
                store(3, 0),
            ],
            PartitionSpec::Even,
            64,
        ),
        &[&mx],
    ));

    // Compute over F32 specials, then a CTA-wide Unique of the unsorted
    // result.
    cases.push(case(
        "compute_unique/floats",
        streaming(
            "cunique",
            &[&fl],
            1,
            &[
                Space::Register,
                Space::Register,
                Space::Shared,
                Space::Shared,
            ],
            vec![
                load(0, 0),
                compute(
                    0,
                    vec![
                        Expr::attr(0).add(Expr::attr(2)),
                        Expr::attr(2).div(Expr::attr(0)),
                        Expr::attr(1).sub(Expr::lit(1u32)),
                        Expr::attr(0).mul(Expr::attr(1)),
                    ],
                    2,
                    1,
                ),
                compact(1, 2),
                Step::Barrier,
                unique(2, 3),
                Step::Barrier,
                store(3, 0),
            ],
            PartitionSpec::Even,
            64,
        ),
        &[&fl],
    ));

    // Project that drops the key into shared memory, then Unique.
    cases.push(case(
        "project_unique/dups",
        streaming(
            "punique",
            &[&dl],
            1,
            &[Space::Shared, Space::Shared, Space::Shared],
            vec![
                load(0, 0),
                Step::Barrier,
                project(0, &[1, 0], 1, 1),
                Step::Barrier,
                unique(1, 2),
                Step::Barrier,
                store(2, 0),
            ],
            PartitionSpec::Even,
            64,
        ),
        &[&dl],
    ));

    cases.push(case(
        "unique_key_range/dups",
        streaming(
            "unique",
            &[&dl],
            1,
            &[Space::Shared, Space::Shared],
            vec![
                load(0, 0),
                Step::Barrier,
                unique(0, 1),
                Step::Barrier,
                store(1, 0),
            ],
            KEY_RANGE,
            64,
        ),
        &[&dl],
    ));

    let empty2 = Relation::empty(Schema::uniform_u32(2));
    for (name, l, r) in [
        ("dups", &dl, &dr),
        ("skew", &skew, &skew_r),
        ("floats", &fl, &fr),
        ("empty_right", &dl, &empty2),
    ] {
        let label = format!("join/{name}");
        cases.push(case(
            &label,
            binary("join", l, r, join(0, 1, 1, 2), KEY_RANGE, 64),
            &[l, r],
        ));
        for negated in [false, true] {
            let label = format!("semijoin{}/{name}", if negated { "_anti" } else { "" });
            cases.push(case(
                &label,
                binary("semi", l, r, semi_step(negated), KEY_RANGE, 64),
                &[l, r],
            ));
        }
        for kind in [
            SetOpKind::Union,
            SetOpKind::Intersect,
            SetOpKind::Difference,
        ] {
            let label = format!("setop_{kind}/{name}");
            cases.push(case(
                &label,
                binary("setop", l, r, setop_step(kind), KEY_RANGE, 64),
                &[l, r],
            ));
        }
    }

    cases.push(case(
        "product/replicate_right",
        binary(
            "product",
            &prod_l,
            &prod_r,
            Step::Product {
                left: slot(0),
                right: slot(1),
                dst: slot(2),
            },
            PartitionSpec::ReplicateRight,
            128,
        ),
        &[&prod_l, &prod_r],
    ));

    // A fused chain: filter, compact, join, then compute and project off
    // the join, with the join result stored too.
    cases.push(case(
        "fused_join_chain/dups",
        streaming(
            "fused",
            &[&dl, &dr],
            2,
            &[
                Space::Register,
                Space::Register,
                Space::Shared,
                Space::Shared,
                Space::Shared,
                Space::Register,
                Space::Register,
            ],
            vec![
                load(0, 0),
                filter(0, Predicate::cmp(1, CmpOp::Le, Value::U32(2)), 1),
                compact(1, 2),
                load(1, 3),
                Step::Barrier,
                join(2, 3, 1, 4),
                Step::Barrier,
                compute(
                    4,
                    vec![
                        Expr::attr(2),
                        Expr::attr(1).mul(Expr::lit(3u32)).sub(Expr::attr(0)),
                    ],
                    1,
                    5,
                ),
                project(5, &[1, 0], 1, 6),
                store(4, 0),
                store(6, 1),
            ],
            KEY_RANGE,
            64,
        ),
        &[&dl, &dr],
    ));

    // Join on a recomputed (unsorted) key, and a set operation on a
    // filtered (still sorted) left side.
    cases.push(case(
        "join_after_compute/dups",
        streaming(
            "recompute",
            &[&dl, &dr],
            1,
            &[
                Space::Register,
                Space::Shared,
                Space::Shared,
                Space::Shared,
                Space::Shared,
            ],
            vec![
                load(0, 0),
                compute(
                    0,
                    vec![Expr::attr(1).add(Expr::attr(0)), Expr::attr(0)],
                    1,
                    1,
                ),
                load(1, 2),
                Step::Barrier,
                join(1, 2, 1, 3),
                Step::Barrier,
                project(3, &[0, 2], 1, 4),
                Step::Barrier,
                store(4, 0),
            ],
            KEY_RANGE,
            64,
        ),
        &[&dl, &dr],
    ));
    cases.push(case(
        "setop_after_filter/dups",
        streaming(
            "fsetop",
            &[&dl, &dr],
            1,
            &[Space::Register, Space::Shared, Space::Shared, Space::Shared],
            vec![
                load(0, 0),
                filter(0, Predicate::cmp(1, CmpOp::Gt, Value::U32(0)), 1),
                load(1, 2),
                Step::Barrier,
                Step::SetOp {
                    kind: SetOpKind::Union,
                    left: slot(1),
                    right: slot(2),
                    dst: slot(3),
                },
                Step::Barrier,
                store(3, 0),
            ],
            KEY_RANGE,
            64,
        ),
        &[&dl, &dr],
    ));

    // F32 words with high bits set compare equal to their low 32 bits but
    // differ in bytes. Reordered by the first Project and narrowed to the
    // F32 column by the second, rows that differ only in those bits must
    // still reach Unique in canonical order, so it keeps the same ones.
    cases.push(case(
        "project_project_dirty_f32/dirty",
        streaming(
            "dirty",
            &[&dirty],
            2,
            &[
                Space::Register,
                Space::Register,
                Space::Shared,
                Space::Shared,
            ],
            vec![
                load(0, 0),
                project(0, &[2, 1, 0], 1, 1),
                project(1, &[0], 1, 2),
                Step::Barrier,
                unique(2, 3),
                Step::Barrier,
                store(3, 0),
                store(1, 1),
            ],
            PartitionSpec::Even,
            32,
        ),
        &[&dirty],
    ));

    cases.push(case(
        "global_sort/floats",
        GpuOperator::global_sort("gsort", fl.schema().clone(), vec![2]),
        &[&fl],
    ));
    cases.push(case(
        "global_aggregate/dups",
        GpuOperator::global_aggregate(
            "gagg",
            dl.schema().clone(),
            vec![0],
            vec![
                AggFn::Sum(1),
                AggFn::Count,
                AggFn::Min(1),
                AggFn::Max(1),
                AggFn::Avg(1),
            ],
        ),
        &[&dl],
    ));
    cases
}

// ---- rendering --------------------------------------------------------------

fn fnv(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every case at `-O0` and `-O3`: kernels, resources, each output's
/// schema, length and word hash, and the device's `SimStats`.
fn render() -> String {
    let mut out = String::new();
    for c in corpus() {
        for opt in [OptLevel::O0, OptLevel::O3] {
            let mut dev = device();
            let refs: Vec<&Relation> = c.inputs.iter().collect();
            let result = execute(&c.op, &refs, &mut dev, opt).expect(&c.name);
            writeln!(out, "== {} {opt:?}", c.name).unwrap();
            writeln!(out, "kernels {} {:?}", result.kernels, result.resources).unwrap();
            for (i, rel) in result.outputs.iter().enumerate() {
                writeln!(
                    out,
                    "out{i} {} len {} fnv {:016x}",
                    rel.schema(),
                    rel.len(),
                    fnv(rel.words())
                )
                .unwrap();
            }
            writeln!(out, "{:?}", dev.stats()).unwrap();
        }
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

#[test]
fn corpus_matches_golden() {
    let expected = std::fs::read_to_string(golden_path()).expect("golden file");
    let actual = render();
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "golden line {} differs", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "golden length differs"
    );
}

#[test]
#[ignore = "rewrites the committed golden"]
fn regenerate_golden() {
    std::fs::write(golden_path(), render()).unwrap();
}

// ---- property: streaming == per-CTA ops chain -------------------------------

/// One operation of a random streaming chain.
#[derive(Debug, Clone)]
enum ChainOp {
    Filter(Predicate),
    Project(Vec<usize>, usize),
    Compute(Vec<Expr>, usize),
    Unique,
    Join,
    SemiJoin(bool),
    SetOp(SetOpKind),
    Product,
}

impl ChainOp {
    fn cta_wide(&self) -> bool {
        !matches!(
            self,
            ChainOp::Filter(_) | ChainOp::Project(..) | ChainOp::Compute(..)
        )
    }
}

/// A random program: input schema, two inputs, a chain and launch choices.
#[derive(Debug, Clone)]
struct Program {
    left: Relation,
    right: Relation,
    chain: Vec<ChainOp>,
    register_dst: Vec<bool>,
    threads: u32,
    opt: OptLevel,
}

/// A stored word of type `ty`. U32, F32 and Bool words sometimes carry bits
/// outside their type's image (high 32 bits, or a Bool other than 0/1), so
/// Filter and Compute must read them exactly as the reference does.
fn word_for(ty: AttrType, rng: &mut proptest::test_runner::TestRng) -> u64 {
    let pool = float_pool();
    let pick = |rng: &mut proptest::test_runner::TestRng, xs: &[u64]| xs[rng.usize_in(0, xs.len())];
    match ty {
        AttrType::U32 => pick(
            rng,
            &[0, 1, 2, 3, 5, u64::from(u32::MAX), (1 << 32) | 2, u64::MAX],
        ),
        AttrType::U64 => pick(rng, &[0, 1, 2, u64::MAX, u64::MAX / 2]),
        AttrType::F32 => match rng.usize_in(0, 4) {
            0 => pick(rng, &pool) | rng.next_u64() << 32,
            _ => pick(rng, &pool),
        },
        AttrType::Bool => pick(rng, &[0, 1, 2, 1 << 33]),
    }
}

fn random_schema(rng: &mut proptest::test_runner::TestRng) -> Schema {
    let types = [AttrType::U32, AttrType::U64, AttrType::F32, AttrType::Bool];
    let arity = rng.usize_in(2, 5);
    // Key attributes are numeric so every chain op accepts them.
    let attrs: Vec<AttrType> = (0..arity)
        .map(|i| types[rng.usize_in(0, if i == 0 { 3 } else { 4 })])
        .collect();
    let key = rng.usize_in(1, 3.min(arity) + 1);
    Schema::new(attrs, key)
}

fn random_relation(
    schema: &Schema,
    max: usize,
    rng: &mut proptest::test_runner::TestRng,
) -> Relation {
    let n = rng.usize_in(0, max);
    let words = (0..n * schema.arity())
        .map(|i| word_for(schema.attr(i % schema.arity()), rng))
        .collect();
    Relation::from_words(schema.clone(), words).unwrap()
}

fn random_pred(
    schema: &Schema,
    depth: usize,
    rng: &mut proptest::test_runner::TestRng,
) -> Predicate {
    match rng.usize_in(0, if depth == 0 { 3 } else { 6 }) {
        0 | 1 => {
            let a = rng.usize_in(0, schema.arity());
            let ty = schema.attr(a);
            let ops = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            let op = ops[rng.usize_in(0, ops.len())];
            Predicate::cmp(a, op, Value::decode(word_for(ty, rng), ty))
        }
        2 => {
            let a = rng.usize_in(0, schema.arity());
            let same: Vec<usize> = (0..schema.arity())
                .filter(|&b| schema.attr(b) == schema.attr(a))
                .collect();
            let b = same[rng.usize_in(0, same.len())];
            Predicate::cmp_attr(a, CmpOp::Le, b)
        }
        3 => random_pred(schema, depth - 1, rng).and(random_pred(schema, depth - 1, rng)),
        4 => random_pred(schema, depth - 1, rng).or(random_pred(schema, depth - 1, rng)),
        _ => random_pred(schema, depth - 1, rng).not(),
    }
}

fn random_expr(numeric: &[usize], depth: usize, rng: &mut proptest::test_runner::TestRng) -> Expr {
    match rng.usize_in(0, if depth == 0 { 2 } else { 6 }) {
        0 => Expr::attr(numeric[rng.usize_in(0, numeric.len())]),
        1 => {
            let ty = [AttrType::U32, AttrType::U64, AttrType::F32][rng.usize_in(0, 3)];
            Expr::lit(Value::decode(word_for(ty, rng), ty))
        }
        k => {
            let a = random_expr(numeric, depth - 1, rng);
            let b = random_expr(numeric, depth - 1, rng);
            match k {
                2 => a.add(b),
                3 => a.sub(b),
                4 => a.mul(b),
                _ => a.div(b),
            }
        }
    }
}

/// The schema after applying `op` to `cur` (with `right` as the second
/// input of binary ops), or `None` if `op` does not apply.
fn apply_schema(cur: &Schema, right: &Schema, op: &ChainOp) -> Option<Schema> {
    let rel = |s: &Schema| Relation::empty(s.clone());
    let out = match op {
        ChainOp::Filter(p) => ops::select(&rel(cur), p),
        ChainOp::Project(a, k) => ops::project(&rel(cur), a, *k),
        ChainOp::Compute(e, k) => ops::compute(&rel(cur), e, *k),
        ChainOp::Unique => ops::unique(&rel(cur)),
        ChainOp::Join => ops::join(&rel(cur), &rel(right), 1),
        ChainOp::SemiJoin(false) => ops::semi_join(&rel(cur), &rel(right), 1),
        ChainOp::SemiJoin(true) => ops::anti_join(&rel(cur), &rel(right), 1),
        ChainOp::SetOp(SetOpKind::Union) => ops::union(&rel(cur), &rel(right)),
        ChainOp::SetOp(SetOpKind::Intersect) => ops::intersect(&rel(cur), &rel(right)),
        ChainOp::SetOp(SetOpKind::Difference) => ops::difference(&rel(cur), &rel(right)),
        ChainOp::Product => ops::product(&rel(cur), &rel(right)),
    };
    out.ok().map(|r| r.schema().clone())
}

fn random_program(rng: &mut proptest::test_runner::TestRng) -> Program {
    let schema = random_schema(rng);
    let left = random_relation(&schema, 700, rng);
    let right = random_relation(&schema, 60, rng);
    let mut cur = schema.clone();
    let mut chain = Vec::new();
    let mut products = 0;
    for _ in 0..rng.usize_in(1, 6) {
        let numeric: Vec<usize> = (0..cur.arity())
            .filter(|&a| cur.attr(a).is_numeric())
            .collect();
        let op = match rng.usize_in(0, 9) {
            0 | 1 => ChainOp::Filter(random_pred(&cur, 2, rng)),
            2 => {
                let n = rng.usize_in(1, cur.arity() + 2);
                let attrs: Vec<usize> = (0..n).map(|_| rng.usize_in(0, cur.arity())).collect();
                let key = rng.usize_in(0, n + 1);
                ChainOp::Project(attrs, key)
            }
            3 if !numeric.is_empty() => {
                let n = rng.usize_in(1, 4);
                let exprs = (0..n).map(|_| random_expr(&numeric, 2, rng)).collect();
                ChainOp::Compute(exprs, rng.usize_in(0, n + 1))
            }
            4 => ChainOp::Unique,
            5 => ChainOp::Join,
            6 => ChainOp::SemiJoin(rng.usize_in(0, 2) == 1),
            7 => {
                let kinds = [
                    SetOpKind::Union,
                    SetOpKind::Intersect,
                    SetOpKind::Difference,
                ];
                ChainOp::SetOp(kinds[rng.usize_in(0, 3)])
            }
            _ if products == 0 => {
                products += 1;
                ChainOp::Product
            }
            _ => ChainOp::Unique,
        };
        if let Some(next) = apply_schema(&cur, &schema, &op) {
            cur = next;
            chain.push(op);
        }
    }
    let register_dst = (0..chain.len()).map(|_| rng.usize_in(0, 2) == 1).collect();
    let threads = [16, 32, 64][rng.usize_in(0, 3)];
    let opt = if rng.usize_in(0, 2) == 0 {
        OptLevel::O0
    } else {
        OptLevel::O3
    };
    Program {
        left,
        right,
        chain,
        register_dst,
        threads,
        opt,
    }
}

/// Lower `p` to one streaming operator (ReplicateRight: each CTA sees an
/// even slice of the left input and all of the right input).
fn lower(p: &Program) -> GpuOperator {
    let mut spaces = vec![Space::Register, Space::Shared];
    let mut steps = vec![load(0, 0), load(1, 1), Step::Barrier];
    let mut cur = slot(0);
    let new_slot = |spaces: &mut Vec<Space>, sp: Space| {
        spaces.push(sp);
        slot(spaces.len() - 1)
    };
    for (op, &reg) in p.chain.iter().zip(&p.register_dst) {
        if op.cta_wide() && spaces[cur.0] == Space::Register {
            let dense = new_slot(&mut spaces, Space::Shared);
            steps.push(Step::Compact {
                src: cur,
                dst: dense,
            });
            steps.push(Step::Barrier);
            cur = dense;
        }
        let sp = if reg && !op.cta_wide() {
            Space::Register
        } else {
            Space::Shared
        };
        let dst = new_slot(&mut spaces, sp);
        let right = slot(1);
        steps.push(match op.clone() {
            ChainOp::Filter(pred) => Step::Filter {
                src: cur,
                pred,
                dst,
            },
            ChainOp::Project(attrs, key_arity) => Step::Project {
                src: cur,
                attrs,
                key_arity,
                dst,
            },
            ChainOp::Compute(exprs, key_arity) => Step::Compute {
                src: cur,
                exprs,
                key_arity,
                dst,
            },
            ChainOp::Unique => Step::Unique { src: cur, dst },
            ChainOp::Join => Step::Join {
                left: cur,
                right,
                key_len: 1,
                dst,
            },
            ChainOp::SemiJoin(negated) => Step::SemiJoin {
                left: cur,
                right,
                key_len: 1,
                negated,
                dst,
            },
            ChainOp::SetOp(kind) => Step::SetOp {
                kind,
                left: cur,
                right,
                dst,
            },
            ChainOp::Product => Step::Product {
                left: cur,
                right,
                dst,
            },
        });
        steps.push(Step::Barrier);
        cur = dst;
    }
    steps.push(Step::Store {
        src: cur,
        output: 0,
    });
    streaming(
        "prop",
        &[&p.left, &p.right],
        1,
        &spaces,
        steps,
        PartitionSpec::ReplicateRight,
        p.threads,
    )
}

/// The chain applied with `kw_relational::ops`, CTA by CTA, over the same
/// partition the interpreter uses, then gathered.
fn reference(p: &Program) -> Relation {
    let n = p.left.len();
    let grid = n.div_ceil(p.threads as usize).max(1);
    let arity = p.left.schema().arity();
    let mut words = Vec::new();
    let mut schema = p.left.schema().clone();
    for cta in 0..grid {
        let (s, e) = (cta * n / grid, (cta + 1) * n / grid);
        let part = p.left.words()[s * arity..e * arity].to_vec();
        let mut cur = Relation::from_sorted_words(p.left.schema().clone(), part).unwrap();
        let r = &p.right;
        for op in &p.chain {
            cur = match op {
                ChainOp::Filter(pred) => ops::select(&cur, pred),
                ChainOp::Project(a, k) => ops::project(&cur, a, *k),
                ChainOp::Compute(e, k) => ops::compute(&cur, e, *k),
                ChainOp::Unique => ops::unique(&cur),
                ChainOp::Join => ops::join(&cur, r, 1),
                ChainOp::SemiJoin(false) => ops::semi_join(&cur, r, 1),
                ChainOp::SemiJoin(true) => ops::anti_join(&cur, r, 1),
                ChainOp::SetOp(SetOpKind::Union) => ops::union(&cur, r),
                ChainOp::SetOp(SetOpKind::Intersect) => ops::intersect(&cur, r),
                ChainOp::SetOp(SetOpKind::Difference) => ops::difference(&cur, r),
                ChainOp::Product => ops::product(&cur, r),
            }
            .unwrap();
        }
        schema = cur.schema().clone();
        words.extend_from_slice(cur.words());
    }
    Relation::from_words(schema, words).unwrap()
}

/// Strategy adapter: draws a whole [`Program`] from the case's rng.
struct Programs;

impl Strategy for Programs {
    type Value = Program;
    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Program {
        random_program(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A random streaming operator returns exactly what the matching
    /// step-by-step chain of `kw_relational::ops` calls returns.
    #[test]
    fn prop_streaming_matches_ops_chain(p in Programs) {
        let op = lower(&p);
        let mut dev = device();
        let result = execute(&op, &[&p.left, &p.right], &mut dev, p.opt).unwrap();
        prop_assert_eq!(&result.outputs[0], &reference(&p), "chain {:?}", p.chain);
    }
}
