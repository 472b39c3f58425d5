//! Arithmetic expressions over tuple attributes.
//!
//! These are the "simple arithmetic operations" of the paper's Section 4.4
//! extension: addition, subtraction, multiplication and division over tuple
//! attributes, e.g. TPC-H Q1's `price * (1 - discount) * (1 + tax)`
//! (micro-benchmark pattern (e)).
//!
//! A [`BoundExpr`] evaluates two ways. [`BoundExpr::eval`] walks the tree
//! once per tuple through [`Value`]; it is the reference semantics, and the
//! CPU oracle [`crate::ops::compute`] uses it. [`BoundExpr::eval_block_into`]
//! evaluates each node over a whole block of rows before its parent, the way
//! one CTA of the fused kernel runs each instruction across its threads, and
//! writes the root's words into one column of the caller's output rows; the
//! kernel-IR interpreter uses it. Both give the same word for every row.

use std::fmt;

use crate::{AttrType, RelationalError, Result, Schema, Value};

/// An arithmetic expression evaluated per tuple.
///
/// # Examples
///
/// ```
/// use kw_relational::{Expr, Schema, AttrType, Value};
/// // price * (1 - discount)
/// let e = Expr::attr(0).mul(Expr::lit(Value::F32(1.0)).sub(Expr::attr(1)));
/// let schema = Schema::new(vec![AttrType::F32, AttrType::F32], 0);
/// let tuple = [Value::F32(10.0).encode(), Value::F32(0.25).encode()];
/// assert_eq!(e.eval(&schema, &tuple)?, Value::F32(7.5));
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to attribute `i` of the input tuple.
    Attr(usize),
    /// A literal constant.
    Const(Value),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division. Integer division by zero yields zero (GPU semantics are
    /// undefined; the simulator picks a deterministic result).
    Div(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Attribute reference.
    pub fn attr(i: usize) -> Expr {
        Expr::Attr(i)
    }

    /// Literal constant.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)] // builder API, not operator overloading
    pub fn add(self, other: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(other))
    }

    /// `self / other`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(other))
    }

    /// The result type of the expression under `schema`.
    ///
    /// Mixed integer/float arithmetic promotes to [`AttrType::F32`];
    /// mixed-width integers promote to [`AttrType::U64`].
    ///
    /// # Errors
    ///
    /// Returns [`RelationalError::AttrOutOfBounds`] for bad attribute
    /// references and [`RelationalError::TypeMismatch`] when a boolean
    /// attribute is used in arithmetic.
    pub fn result_type(&self, schema: &Schema) -> Result<AttrType> {
        match self {
            Expr::Attr(i) => numeric_attr(schema, *i),
            Expr::Const(v) => {
                let ty = v.attr_type();
                if !ty.is_numeric() {
                    return Err(RelationalError::TypeMismatch {
                        expected: AttrType::U64,
                        found: ty,
                    });
                }
                Ok(ty)
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                Ok(promote(a.result_type(schema)?, b.result_type(schema)?))
            }
        }
    }

    /// Type-check the expression against `schema` once, for repeated
    /// evaluation with [`BoundExpr::eval`].
    ///
    /// These are exactly the checks [`Expr::eval`] makes: attribute
    /// references must be in bounds and numeric. (Literal types are checked
    /// by [`Expr::result_type`], not here.)
    ///
    /// # Errors
    ///
    /// Returns [`RelationalError::AttrOutOfBounds`] for bad attribute
    /// references and [`RelationalError::TypeMismatch`] when a boolean
    /// attribute is used in arithmetic.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(BoundExpr {
            node: Node::bind(self, schema)?,
        })
    }

    /// Evaluate against the raw words of one tuple.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Expr::bind`].
    pub fn eval(&self, schema: &Schema, tuple: &[u64]) -> Result<Value> {
        Ok(self.bind(schema)?.eval(tuple))
    }

    /// Estimated ALU operations per evaluation (for the GPU cost model).
    pub fn alu_ops(&self) -> u64 {
        match self {
            Expr::Attr(_) | Expr::Const(_) => 0,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                1 + a.alu_ops() + b.alu_ops()
            }
        }
    }

    /// Highest attribute index referenced, if any.
    pub fn max_attr(&self) -> Option<usize> {
        match self {
            Expr::Attr(i) => Some(*i),
            Expr::Const(_) => None,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                match (a.max_attr(), b.max_attr()) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
        }
    }

    /// Fold constant sub-expressions; a compiler pass leveraged at `-O3`.
    pub fn fold_constants(&self, schema: &Schema) -> Expr {
        match self {
            Expr::Attr(_) | Expr::Const(_) => self.clone(),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                let fa = a.fold_constants(schema);
                let fb = b.fold_constants(schema);
                let rebuilt = match self {
                    Expr::Add(..) => fa.clone().add(fb.clone()),
                    Expr::Sub(..) => fa.clone().sub(fb.clone()),
                    Expr::Mul(..) => fa.clone().mul(fb.clone()),
                    Expr::Div(..) => fa.clone().div(fb.clone()),
                    _ => unreachable!(),
                };
                if let (Expr::Const(_), Expr::Const(_)) = (&fa, &fb) {
                    // Constant operands: evaluate with a dummy tuple.
                    if let Ok(v) = rebuilt.eval(schema, &[]) {
                        return Expr::Const(v);
                    }
                }
                rebuilt
            }
        }
    }
}

/// The type of attribute `i`, which arithmetic must be able to read.
fn numeric_attr(schema: &Schema, i: usize) -> Result<AttrType> {
    if i >= schema.arity() {
        return Err(RelationalError::AttrOutOfBounds {
            attr: i,
            arity: schema.arity(),
        });
    }
    let ty = schema.attr(i);
    if !ty.is_numeric() {
        return Err(RelationalError::TypeMismatch {
            expected: AttrType::U64,
            found: ty,
        });
    }
    Ok(ty)
}

fn promote(a: AttrType, b: AttrType) -> AttrType {
    use AttrType::*;
    match (a, b) {
        (F32, _) | (_, F32) => F32,
        (U64, _) | (_, U64) => U64,
        _ => U32,
    }
}

/// An [`Expr`] type-checked against one schema by [`Expr::bind`]: attribute
/// types and every operator's result type are resolved, so evaluation does
/// no checking.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundExpr {
    node: Node,
}

impl BoundExpr {
    /// Evaluate against the raw words of one tuple of the bound schema.
    ///
    /// Integer arithmetic wraps and integer division by zero yields zero;
    /// an operation with an F32 operand is computed in `f64` and rounded to
    /// `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `tuple` is shorter than an attribute the expression reads.
    pub fn eval(&self, tuple: &[u64]) -> Value {
        self.node.eval(tuple)
    }

    /// Evaluate against every row of `block`, whole rows of `arity` words of
    /// the bound schema, row-major, into column `col` of `out`, whole rows of
    /// `width` words, one per block row: row `r`'s word,
    /// `self.eval(row).encode()`, goes to `out[r * width + col]`, and no
    /// other word of `out` is written.
    ///
    /// Each node is evaluated over the whole block before its parent, with
    /// its operator and operand types resolved once per block; the root
    /// writes straight into `out`, so a Compute step fills its output rows
    /// one expression column at a time.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero or smaller than an attribute the expression
    /// reads, if `col >= width`, or if `out` does not hold exactly one row of
    /// `width` words per row of `block`.
    pub fn eval_block_into(
        &self,
        block: &[u64],
        arity: usize,
        out: &mut [u64],
        width: usize,
        col: usize,
    ) {
        assert!(
            arity > 0 && col < width && out.len() == block.len() / arity * width,
            "one output row of {width} words per row of {arity}, column {col} inside it"
        );
        let column = out.chunks_exact_mut(width).map(|row| &mut row[col]);
        self.node.eval_into(block, arity, column);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    fn int(self, x: u64, y: u64) -> u64 {
        match self {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => x.checked_div(y).unwrap_or(0),
        }
    }

    /// A NaN operand is the result, the left one if both are: IEEE 754
    /// leaves that choice open and an optimizer may swap the operands of
    /// `+` and `*`, so it is made here, the way x86 arithmetic makes it.
    fn float(self, x: f64, y: f64) -> f64 {
        if x.is_nan() {
            return x;
        }
        if y.is_nan() {
            return y;
        }
        match self {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Attr(usize, AttrType),
    Const(Value),
    Bin {
        op: BinOp,
        /// `promote` of the operand types: never `Bool`.
        ty: AttrType,
        lhs: Box<Node>,
        rhs: Box<Node>,
    },
}

impl Node {
    fn bind(e: &Expr, schema: &Schema) -> Result<Node> {
        let (op, a, b) = match e {
            Expr::Attr(i) => return Ok(Node::Attr(*i, numeric_attr(schema, *i)?)),
            Expr::Const(v) => return Ok(Node::Const(*v)),
            Expr::Add(a, b) => (BinOp::Add, a, b),
            Expr::Sub(a, b) => (BinOp::Sub, a, b),
            Expr::Mul(a, b) => (BinOp::Mul, a, b),
            Expr::Div(a, b) => (BinOp::Div, a, b),
        };
        let lhs = Node::bind(a, schema)?;
        let rhs = Node::bind(b, schema)?;
        Ok(Node::Bin {
            op,
            ty: promote(lhs.ty(), rhs.ty()),
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn ty(&self) -> AttrType {
        match self {
            Node::Attr(_, ty) | Node::Bin { ty, .. } => *ty,
            Node::Const(v) => v.attr_type(),
        }
    }

    fn eval(&self, tuple: &[u64]) -> Value {
        match self {
            Node::Attr(i, ty) => Value::decode(tuple[*i], *ty),
            Node::Const(v) => *v,
            Node::Bin { op, ty, lhs, rhs } => {
                let (a, b) = (lhs.eval(tuple), rhs.eval(tuple));
                match ty {
                    AttrType::F32 => Value::F32(op.float(a.as_f64(), b.as_f64()) as f32),
                    AttrType::U64 => Value::U64(op.int(int_word(a), int_word(b))),
                    AttrType::U32 | AttrType::Bool => {
                        Value::U32(op.int(int_word(a), int_word(b)) as u32)
                    }
                }
            }
        }
    }
}

fn int_word(v: Value) -> u64 {
    match v {
        Value::U32(x) => u64::from(x),
        Value::U64(x) => x,
        Value::F32(x) => x as u64,
        Value::Bool(x) => u64::from(x),
    }
}

// ---- Block evaluation --------------------------------------------------------
//
// A column holds one encoded word per row: `Value::encode` of what
// `Node::eval` returns for that row. Under that encoding a U32, U64 or Bool
// operand's word already is its `int_word` and, converted `as f64`, its
// `Value::as_f64`; only an F32 operand is decoded from its low 32 bits.
// Each node writes its column through an iterator over the places its words
// go: an operand's own buffer, or for the root, one word of each output row.
//
// The arithmetic is stated again here rather than by calling `BinOp::int`
// and `BinOp::float` per row: the operator is matched once per block, and
// the per-tuple reference that tests compare against shares no code with
// this path.

const LOW32: u64 = 0xffff_ffff;

impl Node {
    /// This node's column over `block`, as an operand of its parent.
    fn column(&self, block: &[u64], arity: usize) -> Vec<u64> {
        let mut words = vec![0; block.len() / arity];
        self.eval_into(block, arity, words.iter_mut());
        words
    }

    /// Write this node's word for each row of `block` to the next place
    /// `out` yields.
    fn eval_into<'o>(&self, block: &[u64], arity: usize, out: impl Iterator<Item = &'o mut u64>) {
        let rows = block.chunks_exact(arity);
        match self {
            Node::Attr(i, ty) => {
                let words = rows.map(|t| t[*i]);
                match ty {
                    AttrType::U64 => write(out, words),
                    AttrType::U32 | AttrType::F32 => write(out, words.map(|w| w & LOW32)),
                    AttrType::Bool => write(out, words.map(|w| u64::from(w != 0))),
                }
            }
            Node::Const(v) => write(out, rows.map(|_| v.encode())),
            Node::Bin { op, ty, lhs, rhs } => {
                let a = lhs.column(block, arity);
                let b = rhs.column(block, arity);
                let (a, b) = (&a[..], &b[..]);
                match (ty, lhs.ty() == AttrType::F32, rhs.ty() == AttrType::F32) {
                    (AttrType::F32, true, true) => float_block(out, *op, a, b, f32_word, f32_word),
                    (AttrType::F32, true, false) => float_block(out, *op, a, b, f32_word, int_f64),
                    (AttrType::F32, false, true) => float_block(out, *op, a, b, int_f64, f32_word),
                    (AttrType::F32, false, false) => float_block(out, *op, a, b, int_f64, int_f64),
                    (AttrType::U64, ..) => int_block(out, *op, a, b, u64::MAX),
                    // `promote` gives an integer node no F32 operand.
                    (AttrType::U32 | AttrType::Bool, ..) => int_block(out, *op, a, b, LOW32),
                }
            }
        }
    }
}

/// Write `words` to the places `out` yields, one each.
fn write<'o>(out: impl Iterator<Item = &'o mut u64>, words: impl Iterator<Item = u64>) {
    out.zip(words).for_each(|(place, w)| *place = w);
}

/// An F32 column word as `f64`.
fn f32_word(w: u64) -> f64 {
    f64::from(f32::from_bits(w as u32))
}

/// A U32, U64 or Bool column word as `f64`.
fn int_f64(w: u64) -> f64 {
    w as f64
}

/// Apply `f` to the two operand columns row by row, into `out`.
fn zip_block<'o>(
    out: impl Iterator<Item = &'o mut u64>,
    a: &[u64],
    b: &[u64],
    f: impl Fn(u64, u64) -> u64,
) {
    write(out, a.iter().zip(b).map(|(&x, &y)| f(x, y)));
}

/// An integer node over its operand columns: wrapping arithmetic, division
/// by zero is zero, and the result keeps the bits in `mask`.
fn int_block<'o>(
    out: impl Iterator<Item = &'o mut u64>,
    op: BinOp,
    a: &[u64],
    b: &[u64],
    mask: u64,
) {
    match op {
        BinOp::Add => zip_block(out, a, b, |x, y| x.wrapping_add(y) & mask),
        BinOp::Sub => zip_block(out, a, b, |x, y| x.wrapping_sub(y) & mask),
        BinOp::Mul => zip_block(out, a, b, |x, y| x.wrapping_mul(y) & mask),
        BinOp::Div => zip_block(out, a, b, |x, y| x.checked_div(y).unwrap_or(0) & mask),
    }
}

/// An F32 node over its operand columns, each widened to `f64` by `fa` or
/// `fb`.
fn float_block<'o>(
    out: impl Iterator<Item = &'o mut u64>,
    op: BinOp,
    a: &[u64],
    b: &[u64],
    fa: impl Fn(u64) -> f64,
    fb: impl Fn(u64) -> f64,
) {
    match op {
        BinOp::Add => float_zip(out, a, b, fa, fb, |x, y| x + y),
        BinOp::Sub => float_zip(out, a, b, fa, fb, |x, y| x - y),
        BinOp::Mul => float_zip(out, a, b, fa, fb, |x, y| x * y),
        BinOp::Div => float_zip(out, a, b, fa, fb, |x, y| x / y),
    }
}

/// `f` over widened operands under [`BinOp::float`]'s NaN rule (a NaN
/// operand is the result, the left one if both are), rounded to `f32`.
fn float_zip<'o>(
    out: impl Iterator<Item = &'o mut u64>,
    a: &[u64],
    b: &[u64],
    fa: impl Fn(u64) -> f64,
    fb: impl Fn(u64) -> f64,
    f: impl Fn(f64, f64) -> f64,
) {
    zip_block(out, a, b, |x, y| {
        let (x, y) = (fa(x), fb(y));
        if x.is_nan() {
            nan_f32_word(x)
        } else if y.is_nan() {
            nan_f32_word(y)
        } else {
            u64::from((f(x, y) as f32).to_bits())
        }
    })
}

/// The F32 word of a NaN rounded to `f32`: quiet, with its sign and the
/// high bits of its payload, as IEEE 754 conversion keeps them.
///
/// Spelled out because the compiler may fold `(f64::from(v) as f32)` into
/// `v`, which would hand a signalling NaN operand through unquieted, while
/// [`Node::eval`], whose operands pass through [`Value`], quiets it.
fn nan_f32_word(z: f64) -> u64 {
    let b = z.to_bits();
    (b >> 32 & 0x8000_0000) | 0x7fc0_0000 | (b >> 29 & 0x003f_ffff)
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Attr(i) => write!(f, "a{i}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fschema() -> Schema {
        Schema::new(vec![AttrType::F32, AttrType::F32, AttrType::F32], 0)
    }

    #[test]
    fn q1_style_expression() {
        // price * (1 - discount) * (1 + tax)
        let e = Expr::attr(0)
            .mul(Expr::lit(1.0f32).sub(Expr::attr(1)))
            .mul(Expr::lit(1.0f32).add(Expr::attr(2)));
        let t = [
            Value::F32(100.0).encode(),
            Value::F32(0.1).encode(),
            Value::F32(0.05).encode(),
        ];
        let v = e.eval(&fschema(), &t).unwrap();
        match v {
            Value::F32(x) => assert!((x - 94.5).abs() < 1e-4),
            other => panic!("expected f32, got {other:?}"),
        }
        assert_eq!(e.alu_ops(), 4);
    }

    #[test]
    fn integer_arithmetic_wraps() {
        let s = Schema::new(vec![AttrType::U32], 0);
        let e = Expr::attr(0).add(Expr::lit(1u32));
        assert_eq!(e.eval(&s, &[u32::MAX as u64]).unwrap(), Value::U32(0));
    }

    #[test]
    fn division_by_zero_integer_is_zero() {
        let s = Schema::new(vec![AttrType::U32], 0);
        let e = Expr::attr(0).div(Expr::lit(0u32));
        assert_eq!(e.eval(&s, &[10]).unwrap(), Value::U32(0));
    }

    #[test]
    fn promotion() {
        let s = Schema::new(vec![AttrType::U32, AttrType::F32], 0);
        let e = Expr::attr(0).add(Expr::attr(1));
        assert_eq!(e.result_type(&s).unwrap(), AttrType::F32);
        let s2 = Schema::new(vec![AttrType::U32, AttrType::U64], 0);
        let e2 = Expr::attr(0).add(Expr::attr(1));
        assert_eq!(e2.result_type(&s2).unwrap(), AttrType::U64);
    }

    #[test]
    fn bool_rejected() {
        let s = Schema::new(vec![AttrType::Bool], 0);
        let e = Expr::attr(0).add(Expr::lit(1u32));
        assert!(e.result_type(&s).is_err());
    }

    #[test]
    fn constant_folding() {
        let s = fschema();
        let e = Expr::lit(2.0f32).mul(Expr::lit(3.0f32)).add(Expr::attr(0));
        let folded = e.fold_constants(&s);
        match &folded {
            Expr::Add(a, _) => assert_eq!(**a, Expr::Const(Value::F32(6.0))),
            other => panic!("unexpected fold result {other:?}"),
        }
        assert!(folded.alu_ops() < e.alu_ops());
    }

    #[test]
    fn bound_expression_matches_eval_and_rejects_bad_attrs() {
        let s = Schema::new(vec![AttrType::U32, AttrType::U64, AttrType::F32], 0);
        let e = Expr::attr(0)
            .mul(Expr::attr(1))
            .sub(Expr::lit(3u32))
            .div(Expr::attr(2));
        let bound = e.bind(&s).unwrap();
        let t = [7, u64::MAX, Value::F32(-0.5).encode()];
        assert_eq!(bound.eval(&t), e.eval(&s, &t).unwrap());
        assert!(Expr::attr(3).bind(&s).is_err());
        let b = Schema::new(vec![AttrType::Bool], 0);
        assert!(Expr::lit(1u32).add(Expr::attr(0)).bind(&b).is_err());
    }

    #[test]
    fn nan_operands_propagate_left_first() {
        let s = Schema::new(vec![AttrType::F32, AttrType::F32], 0);
        let (neg, pos) = (0xffc0_0000u64, 0x7fc0_0001u64);
        for e in [
            Expr::attr(0).add(Expr::attr(1)),
            Expr::attr(0).mul(Expr::attr(1)),
            Expr::attr(0).sub(Expr::attr(1)),
            Expr::attr(0).div(Expr::attr(1)),
        ] {
            assert_eq!(e.eval(&s, &[neg, pos]).unwrap().encode(), neg, "{e}");
            assert_eq!(e.eval(&s, &[pos, neg]).unwrap().encode(), pos, "{e}");
        }
    }

    #[test]
    fn max_attr_and_display() {
        let e = Expr::attr(3).mul(Expr::attr(1));
        assert_eq!(e.max_attr(), Some(3));
        assert_eq!(e.to_string(), "(a3 * a1)");
    }
}
