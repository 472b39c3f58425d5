//! Block evaluation against the per-tuple reference: for random schemas,
//! expressions, predicates and blocks, [`BoundExpr::eval_block_into`] must
//! write, row by row, exactly `BoundExpr::eval(row).encode()` into its column
//! of the output rows and no other word, and [`BoundPredicate::eval_block`]
//! must return exactly `BoundPredicate::eval(row)`.
//!
//! The word pools reach the edges where a column-at-a-time evaluator can
//! drift from the reference: words with their high 32 bits set, F32 signed
//! zeros, NaN payloads (quiet, signalling, negative), infinities and
//! subnormals, sums that an `f32` rounds but an `f64` does not, wrapping
//! overflow and integer division by zero.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use kw_relational::{AttrType, BoundExpr, BoundPredicate, CmpOp, Expr, Predicate, Schema, Value};

const TYPES: [AttrType; 4] = [AttrType::U32, AttrType::U64, AttrType::F32, AttrType::Bool];

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// F32 bit patterns: signed zeros, NaN payloads, infinities, subnormals,
/// values an `f32` sum rounds away, and ordinary values.
const F32_BITS: [u32; 20] = [
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x7fc0_0000, // quiet NaN
    0x7fc0_0001, // quiet NaN with payload
    0x7f80_0001, // signalling NaN
    0xffc0_0000, // negative quiet NaN
    0xff80_0003, // negative signalling NaN
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // largest negative subnormal
    0x0080_0000, // smallest normal
    0x4b80_0000, // 2^24: adding 1.0 rounds back to it in f32
    0x3f80_0000, // 1.0
    0x3dcc_cccd, // 0.1
    0x3e4c_cccd, // 0.2
    0x3fc0_0000, // 1.5
    0xc010_0000, // -2.25
    0x7149_f2ca, // 1e30
    0x7f7f_ffff, // f32::MAX
];

fn pick(rng: &mut TestRng, xs: &[u64]) -> u64 {
    xs[rng.usize_in(0, xs.len())]
}

/// A stored word of type `ty`, often with bits outside the type's 32-bit
/// or 0/1 image set.
fn word_for(ty: AttrType, rng: &mut TestRng) -> u64 {
    match ty {
        AttrType::U32 => pick(
            rng,
            &[0, 1, 2, 3, 7, u64::from(u32::MAX), (1 << 32) | 2, u64::MAX],
        ),
        AttrType::U64 => pick(rng, &[0, 1, 2, 3, u64::MAX, u64::MAX / 2, 1 << 32]),
        AttrType::F32 => {
            let w = u64::from(F32_BITS[rng.usize_in(0, F32_BITS.len())]);
            match rng.usize_in(0, 4) {
                0 => w | (rng.next_u64() << 32),
                _ => w,
            }
        }
        AttrType::Bool => pick(rng, &[0, 1, 2, 1 << 33]),
    }
}

/// A literal of type `ty`: decoded, so its word is clean.
fn literal(ty: AttrType, rng: &mut TestRng) -> Value {
    Value::decode(word_for(ty, rng), ty)
}

fn random_schema(rng: &mut TestRng) -> Schema {
    let attrs = (0..rng.usize_in(1, 7))
        .map(|_| TYPES[rng.usize_in(0, TYPES.len())])
        .collect();
    Schema::new(attrs, 0)
}

/// An expression of depth at most `depth` over the numeric attributes in
/// `numeric`; literals of every type, Bool included, may appear anywhere.
fn random_expr(numeric: &[usize], depth: usize, rng: &mut TestRng) -> Expr {
    let leaf = depth == 0 || rng.usize_in(0, 4) == 0;
    if leaf {
        if !numeric.is_empty() && rng.usize_in(0, 3) != 0 {
            return Expr::attr(numeric[rng.usize_in(0, numeric.len())]);
        }
        return Expr::lit(literal(TYPES[rng.usize_in(0, TYPES.len())], rng));
    }
    let a = random_expr(numeric, depth - 1, rng);
    let b = random_expr(numeric, depth - 1, rng);
    match rng.usize_in(0, 4) {
        0 => a.add(b),
        1 => a.sub(b),
        2 => a.mul(b),
        _ => a.div(b),
    }
}

fn random_pred(schema: &Schema, depth: usize, rng: &mut TestRng) -> Predicate {
    let leaf = depth == 0 || rng.usize_in(0, 3) == 0;
    let op = CMP_OPS[rng.usize_in(0, CMP_OPS.len())];
    match rng.usize_in(0, if leaf { 4 } else { 7 }) {
        0 => [Predicate::True, Predicate::False][rng.usize_in(0, 2)].clone(),
        1 | 2 => {
            let a = rng.usize_in(0, schema.arity());
            Predicate::cmp(a, op, literal(schema.attr(a), rng))
        }
        3 => {
            let a = rng.usize_in(0, schema.arity());
            let same: Vec<usize> = (0..schema.arity())
                .filter(|&b| schema.attr(b) == schema.attr(a))
                .collect();
            Predicate::cmp_attr(a, op, same[rng.usize_in(0, same.len())])
        }
        4 => random_pred(schema, depth - 1, rng).and(random_pred(schema, depth - 1, rng)),
        5 => random_pred(schema, depth - 1, rng).or(random_pred(schema, depth - 1, rng)),
        _ => random_pred(schema, depth - 1, rng).not(),
    }
}

/// A block of 0, 1, a few, or more than 256 rows.
fn random_block(schema: &Schema, rng: &mut TestRng) -> Vec<u64> {
    let rows = match rng.usize_in(0, 4) {
        0 => 0,
        1 => 1,
        2 => rng.usize_in(2, 40),
        _ => rng.usize_in(257, 600),
    };
    (0..rows * schema.arity())
        .map(|i| word_for(schema.attr(i % schema.arity()), rng))
        .collect()
}

/// One random case: a schema, expressions and a predicate over it, a block
/// of its rows, and for each expression the width of the output rows and
/// the column it writes.
#[derive(Debug)]
struct Case {
    schema: Schema,
    exprs: Vec<Expr>,
    pred: Predicate,
    block: Vec<u64>,
    layouts: Vec<(usize, usize)>,
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;
    fn generate(&self, rng: &mut TestRng) -> Case {
        let schema = random_schema(rng);
        let numeric: Vec<usize> = (0..schema.arity())
            .filter(|&a| schema.attr(a).is_numeric())
            .collect();
        let exprs: Vec<Expr> = (0..4).map(|_| random_expr(&numeric, 4, rng)).collect();
        let pred = random_pred(&schema, 4, rng);
        let block = random_block(&schema, rng);
        let layouts = exprs
            .iter()
            .map(|_| {
                let width = rng.usize_in(1, 7);
                (width, rng.usize_in(0, width))
            })
            .collect();
        Case {
            schema,
            exprs,
            pred,
            block,
            layouts,
        }
    }
}

/// What a word of the output rows holds until the evaluator writes it.
const SENTINEL: u64 = 0xa5a5_5a5a_a5a5_5a5a;

/// Evaluate `e` into column `col` of sentinel-filled output rows of `width`
/// words: that column must hold the per-tuple reference's word for every
/// row, and every other word must still be the sentinel.
fn assert_expr_matches(
    e: &BoundExpr,
    block: &[u64],
    arity: usize,
    (width, col): (usize, usize),
    what: &str,
) {
    let rows = block.len() / arity;
    let mut out = vec![SENTINEL; rows * width];
    e.eval_block_into(block, arity, &mut out, width, col);
    for (r, (row, t)) in out
        .chunks_exact(width)
        .zip(block.chunks_exact(arity))
        .enumerate()
    {
        assert_eq!(row[col], e.eval(t).encode(), "{what}: row {r} {t:x?}");
        for (c, &w) in row.iter().enumerate().filter(|&(c, _)| c != col) {
            assert_eq!(w, SENTINEL, "{what}: row {r} word {c} outside column {col}");
        }
    }
}

fn assert_pred_matches(p: &BoundPredicate, block: &[u64], arity: usize, what: &str) {
    let got = p.eval_block(block, arity);
    let want: Vec<bool> = block.chunks_exact(arity).map(|t| p.eval(t)).collect();
    assert_eq!(got.len(), want.len(), "{what}: one flag per row");
    for (r, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{what}: row {r} {:x?}", &block[r * arity..][..arity]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every block result equals the per-tuple reference on every row.
    #[test]
    fn prop_block_eval_matches_per_tuple(c in Cases) {
        let arity = c.schema.arity();
        for (e, &layout) in c.exprs.iter().zip(&c.layouts) {
            let bound = e.bind(&c.schema).expect("generated over numeric attributes");
            let what = format!("{e} over {} into {layout:?}", c.schema);
            assert_expr_matches(&bound, &c.block, arity, layout, &what);
        }
        let bound = c.pred.bind(&c.schema).expect("generated type-correct");
        assert_pred_matches(&bound, &c.block, arity, &format!("{} over {}", c.pred, c.schema));
    }
}

/// Edges named one by one, so a failure says which rule broke.
#[test]
fn block_eval_edges_match_per_tuple() {
    let f = |x: f32| u64::from(x.to_bits());
    let schema = Schema::new(
        vec![AttrType::F32, AttrType::F32, AttrType::U32, AttrType::U64],
        0,
    );
    let (neg_nan, pos_snan) = (0xffc0_0000u64, 0x7f80_0001u64);
    let block = [
        // NaN on both sides, with the high bits of the F32 words set.
        neg_nan | 1 << 40,
        pos_snan,
        3,
        0,
        // 2^24 + 1 rounds to 2^24 in f32 but not in f64.
        f(16_777_216.0),
        f(1.0),
        u64::from(u32::MAX),
        u64::MAX,
        // Signed zeros, subnormals, division by zero.
        f(-0.0),
        0x0000_0001,
        (1 << 32) | 2,
        2,
    ];
    let exprs = [
        Expr::attr(0).add(Expr::attr(1)),
        Expr::attr(1).mul(Expr::attr(0)),
        Expr::attr(0).add(Expr::attr(1)).sub(Expr::attr(0)),
        Expr::attr(2).add(Expr::lit(1u32)),
        Expr::attr(3).mul(Expr::attr(3)),
        Expr::attr(2).div(Expr::lit(0u32)),
        Expr::attr(3).div(Expr::attr(2).sub(Expr::attr(2))),
        Expr::attr(2).add(Expr::lit(true)),
        Expr::attr(0).div(Expr::lit(false)),
        Expr::attr(2),
        Expr::attr(0),
    ];
    for e in &exprs {
        let bound = e.bind(&schema).unwrap();
        // Alone, as the last of three columns, and over no rows at all.
        for layout in [(1, 0), (3, 2)] {
            assert_expr_matches(&bound, &block, 4, layout, &e.to_string());
            assert_expr_matches(&bound, &[], 4, layout, &e.to_string());
        }
    }
    for op in CMP_OPS {
        for p in [
            Predicate::cmp(0, op, Value::F32(-0.0)),
            Predicate::cmp(1, op, Value::F32(f32::NAN)),
            Predicate::cmp(2, op, Value::U32(2)),
            Predicate::cmp_attr(0, op, 1),
            Predicate::cmp_attr(2, op, 2),
        ] {
            assert_pred_matches(&p.bind(&schema).unwrap(), &block, 4, &p.to_string());
        }
    }
}
