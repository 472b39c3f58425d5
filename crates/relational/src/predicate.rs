//! Selection predicates.
//!
//! A [`Predicate`] is the filter expression evaluated by SELECT. Predicates
//! also report an ALU cost estimate, which the kernel-IR interpreter charges
//! per evaluated tuple — this is how the paper's "larger optimization scope"
//! effects (e.g. combining back-to-back filters) become measurable.

use std::fmt;

use crate::{compare_words, AttrType, RelationalError, Result, Schema, Value};

/// A comparison operator between an attribute and a value or attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Apply the comparison to an [`std::cmp::Ordering`].
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean predicate over one tuple.
///
/// # Examples
///
/// ```
/// use kw_relational::{Predicate, CmpOp, Value, Schema, AttrType};
/// // attr0 >= 10 && attr1 < 5
/// let p = Predicate::cmp(0, CmpOp::Ge, Value::U32(10))
///     .and(Predicate::cmp(1, CmpOp::Lt, Value::U32(5)));
/// let schema = Schema::new(vec![AttrType::U32, AttrType::U32], 1);
/// assert!(p.eval(&schema, &[12, 3])?);
/// assert!(!p.eval(&schema, &[12, 9])?);
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Compare attribute `attr` against a constant.
    Cmp {
        /// Attribute index.
        attr: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Compare two attributes of the same tuple.
    CmpAttr {
        /// Left attribute index.
        left: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right attribute index.
        right: usize,
    },
    /// Logical conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Logical disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Logical negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Build an attribute-vs-constant comparison.
    pub fn cmp(attr: usize, op: CmpOp, value: Value) -> Predicate {
        Predicate::Cmp { attr, op, value }
    }

    /// Build an attribute-vs-attribute comparison.
    pub fn cmp_attr(left: usize, op: CmpOp, right: usize) -> Predicate {
        Predicate::CmpAttr { left, op, right }
    }

    /// Conjunction with another predicate.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction with another predicate.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Type-check the predicate against `schema` once, for repeated
    /// evaluation with [`BoundPredicate::eval`]. Every sub-predicate is
    /// checked, including ones evaluation would short-circuit past.
    ///
    /// # Errors
    ///
    /// Returns [`RelationalError::AttrOutOfBounds`] for a bad attribute index
    /// or [`RelationalError::TypeMismatch`] when a constant's type differs
    /// from the attribute type, or two compared attributes differ in type.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate> {
        Ok(BoundPredicate {
            node: Node::bind(self, schema)?,
        })
    }

    /// Evaluate against the raw words of one tuple.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Predicate::bind`].
    pub fn eval(&self, schema: &Schema, tuple: &[u64]) -> Result<bool> {
        Ok(self.bind(schema)?.eval(tuple))
    }

    /// Validate the predicate against a schema without evaluating it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Predicate::bind`].
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        self.bind(schema).map(drop)
    }

    /// Estimated ALU operations per evaluation (used by the GPU cost model).
    pub fn alu_ops(&self) -> u64 {
        match self {
            Predicate::True | Predicate::False => 0,
            Predicate::Cmp { .. } | Predicate::CmpAttr { .. } => 1,
            Predicate::And(a, b) | Predicate::Or(a, b) => 1 + a.alu_ops() + b.alu_ops(),
            Predicate::Not(a) => 1 + a.alu_ops(),
        }
    }

    /// Highest attribute index referenced, if any.
    pub fn max_attr(&self) -> Option<usize> {
        match self {
            Predicate::True | Predicate::False => None,
            Predicate::Cmp { attr, .. } => Some(*attr),
            Predicate::CmpAttr { left, right, .. } => Some((*left).max(*right)),
            Predicate::And(a, b) | Predicate::Or(a, b) => match (a.max_attr(), b.max_attr()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            },
            Predicate::Not(a) => a.max_attr(),
        }
    }

    /// Remap attribute indices through `map` (used when predicates are pushed
    /// through PROJECT during fusion). `map[i]` is the new index of old
    /// attribute `i`; `None` means the attribute was discarded.
    ///
    /// Returns `None` if the predicate references a discarded attribute.
    pub fn remap_attrs(&self, map: &[Option<usize>]) -> Option<Predicate> {
        let get = |i: usize| map.get(i).copied().flatten();
        match self {
            Predicate::True => Some(Predicate::True),
            Predicate::False => Some(Predicate::False),
            Predicate::Cmp { attr, op, value } => Some(Predicate::Cmp {
                attr: get(*attr)?,
                op: *op,
                value: *value,
            }),
            Predicate::CmpAttr { left, op, right } => Some(Predicate::CmpAttr {
                left: get(*left)?,
                op: *op,
                right: get(*right)?,
            }),
            Predicate::And(a, b) => Some(Predicate::And(
                Box::new(a.remap_attrs(map)?),
                Box::new(b.remap_attrs(map)?),
            )),
            Predicate::Or(a, b) => Some(Predicate::Or(
                Box::new(a.remap_attrs(map)?),
                Box::new(b.remap_attrs(map)?),
            )),
            Predicate::Not(a) => Some(Predicate::Not(Box::new(a.remap_attrs(map)?))),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Cmp { attr, op, value } => write!(f, "a{attr} {op} {value}"),
            Predicate::CmpAttr { left, op, right } => write!(f, "a{left} {op} a{right}"),
            Predicate::And(a, b) => write!(f, "({a} && {b})"),
            Predicate::Or(a, b) => write!(f, "({a} || {b})"),
            Predicate::Not(a) => write!(f, "!({a})"),
        }
    }
}

/// A [`Predicate`] type-checked against one schema by [`Predicate::bind`]:
/// attribute types and constant encodings are resolved, so evaluation does
/// no checking.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPredicate {
    node: Node,
}

impl BoundPredicate {
    /// Evaluate against the raw words of one tuple of the bound schema.
    ///
    /// # Panics
    ///
    /// Panics if `tuple` is shorter than an attribute the predicate reads.
    pub fn eval(&self, tuple: &[u64]) -> bool {
        self.node.eval(tuple)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Const(bool),
    Cmp {
        attr: usize,
        op: CmpOp,
        ty: AttrType,
        word: u64,
    },
    CmpAttr {
        left: usize,
        op: CmpOp,
        right: usize,
        ty: AttrType,
    },
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
}

impl Node {
    fn bind(p: &Predicate, schema: &Schema) -> Result<Node> {
        let both = |a: &Predicate, b: &Predicate| -> Result<(Box<Node>, Box<Node>)> {
            Ok((
                Box::new(Node::bind(a, schema)?),
                Box::new(Node::bind(b, schema)?),
            ))
        };
        Ok(match p {
            Predicate::True => Node::Const(true),
            Predicate::False => Node::Const(false),
            Predicate::Cmp { attr, op, value } => {
                let ty = attr_ty(schema, *attr)?;
                if value.attr_type() != ty {
                    return Err(RelationalError::TypeMismatch {
                        expected: ty,
                        found: value.attr_type(),
                    });
                }
                Node::Cmp {
                    attr: *attr,
                    op: *op,
                    ty,
                    word: value.encode(),
                }
            }
            Predicate::CmpAttr { left, op, right } => {
                let lt = attr_ty(schema, *left)?;
                let rt = attr_ty(schema, *right)?;
                if lt != rt {
                    return Err(RelationalError::TypeMismatch {
                        expected: lt,
                        found: rt,
                    });
                }
                Node::CmpAttr {
                    left: *left,
                    op: *op,
                    right: *right,
                    ty: lt,
                }
            }
            Predicate::And(a, b) => {
                let (a, b) = both(a, b)?;
                Node::And(a, b)
            }
            Predicate::Or(a, b) => {
                let (a, b) = both(a, b)?;
                Node::Or(a, b)
            }
            Predicate::Not(a) => Node::Not(Box::new(Node::bind(a, schema)?)),
        })
    }

    fn eval(&self, tuple: &[u64]) -> bool {
        match self {
            Node::Const(b) => *b,
            Node::Cmp { attr, op, ty, word } => op.eval(compare_words(tuple[*attr], *word, *ty)),
            Node::CmpAttr {
                left,
                op,
                right,
                ty,
            } => op.eval(compare_words(tuple[*left], tuple[*right], *ty)),
            Node::And(a, b) => a.eval(tuple) && b.eval(tuple),
            Node::Or(a, b) => a.eval(tuple) || b.eval(tuple),
            Node::Not(a) => !a.eval(tuple),
        }
    }
}

fn attr_ty(schema: &Schema, attr: usize) -> Result<AttrType> {
    if attr >= schema.arity() {
        return Err(RelationalError::AttrOutOfBounds {
            attr,
            arity: schema.arity(),
        });
    }
    Ok(schema.attr(attr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![AttrType::U32, AttrType::U32, AttrType::F32], 1)
    }

    #[test]
    fn cmp_ops() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal));
        assert!(CmpOp::Ne.eval(Less));
        assert!(CmpOp::Lt.eval(Less));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Gt.eval(Greater));
        assert!(CmpOp::Ge.eval(Greater));
        assert!(!CmpOp::Gt.eval(Equal));
    }

    #[test]
    fn eval_basic() {
        let s = schema();
        let p = Predicate::cmp(0, CmpOp::Lt, Value::U32(5));
        assert!(p.eval(&s, &[4, 0, 0]).unwrap());
        assert!(!p.eval(&s, &[5, 0, 0]).unwrap());
    }

    #[test]
    fn eval_float() {
        let s = schema();
        let p = Predicate::cmp(2, CmpOp::Ge, Value::F32(1.5));
        let t = [0u64, 0, Value::F32(2.0).encode()];
        assert!(p.eval(&s, &t).unwrap());
    }

    #[test]
    fn eval_attr_vs_attr_and_logic() {
        let s = schema();
        let p = Predicate::cmp_attr(0, CmpOp::Eq, 1)
            .or(Predicate::cmp(0, CmpOp::Eq, Value::U32(9)))
            .not();
        assert!(!p.eval(&s, &[3, 3, 0]).unwrap());
        assert!(p.eval(&s, &[3, 4, 0]).unwrap());
    }

    #[test]
    fn type_mismatch_detected() {
        let s = schema();
        let p = Predicate::cmp(0, CmpOp::Eq, Value::F32(1.0));
        assert!(matches!(
            p.validate(&s),
            Err(RelationalError::TypeMismatch { .. })
        ));
        let p = Predicate::cmp_attr(0, CmpOp::Eq, 2);
        assert!(p.validate(&s).is_err());
    }

    #[test]
    fn out_of_bounds_detected() {
        let s = schema();
        let p = Predicate::cmp(7, CmpOp::Eq, Value::U32(0));
        assert!(matches!(
            p.validate(&s),
            Err(RelationalError::AttrOutOfBounds { .. })
        ));
    }

    #[test]
    fn bind_checks_every_branch() {
        let s = schema();
        let p = Predicate::False.and(Predicate::cmp(7, CmpOp::Eq, Value::U32(0)));
        assert!(matches!(
            p.bind(&s),
            Err(RelationalError::AttrOutOfBounds { .. })
        ));
        assert!(p.eval(&s, &[0, 0, 0]).is_err());
        let ok = Predicate::cmp(2, CmpOp::Lt, Value::F32(0.0)).or(Predicate::True);
        assert!(ok.bind(&s).unwrap().eval(&[0, 0, Value::F32(1.0).encode()]));
    }

    #[test]
    fn alu_ops_counts() {
        let p = Predicate::cmp(0, CmpOp::Eq, Value::U32(0)).and(Predicate::cmp(
            1,
            CmpOp::Eq,
            Value::U32(0),
        ));
        assert_eq!(p.alu_ops(), 3);
        assert_eq!(Predicate::True.alu_ops(), 0);
    }

    #[test]
    fn remap() {
        let p = Predicate::cmp(2, CmpOp::Eq, Value::U32(0));
        let q = p.remap_attrs(&[Some(0), None, Some(1)]).unwrap();
        assert_eq!(q, Predicate::cmp(1, CmpOp::Eq, Value::U32(0)));
        let p = Predicate::cmp(1, CmpOp::Eq, Value::U32(0));
        assert!(p.remap_attrs(&[Some(0), None]).is_none());
    }

    #[test]
    fn max_attr() {
        let p =
            Predicate::cmp(1, CmpOp::Eq, Value::U32(0)).and(Predicate::cmp_attr(0, CmpOp::Lt, 2));
        assert_eq!(p.max_attr(), Some(2));
        assert_eq!(Predicate::True.max_attr(), None);
    }
}
