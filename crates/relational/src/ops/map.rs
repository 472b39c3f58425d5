//! COMPUTE (arithmetic MAP): evaluate expressions per tuple.
//!
//! This implements the paper's Section 4.4 arithmetic extension: simple
//! per-tuple arithmetic such as TPC-H's `price * (1-discount) * (1+tax)`
//! (micro-benchmark pattern (e)). Each output attribute is an [`Expr`];
//! `Expr::Attr(i)` passes an input attribute through unchanged.

use crate::{Expr, RelView, Relation, RelationalError, Result, Schema};

/// Produce a relation whose attributes are `outputs` evaluated per tuple of
/// `input`; the first `key_arity` outputs form the new key.
///
/// # Errors
///
/// Returns expression type/bounds errors, or
/// [`RelationalError::BadKeyArity`] if `key_arity` exceeds the output arity
/// or `outputs` is empty.
///
/// # Examples
///
/// ```
/// use kw_relational::{ops, Expr, Relation, Schema};
/// let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 10, 2, 20])?;
/// let out = ops::compute(&r, &[Expr::attr(0), Expr::attr(1).mul(Expr::lit(2u32))], 1)?;
/// assert_eq!(out.tuple(0), &[1, 20]);
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
pub fn compute<'a>(
    input: impl Into<RelView<'a>>,
    outputs: &[Expr],
    key_arity: usize,
) -> Result<Relation> {
    compute_view(input.into(), outputs, key_arity)
}

fn compute_view(input: RelView<'_>, outputs: &[Expr], key_arity: usize) -> Result<Relation> {
    if outputs.is_empty() || key_arity > outputs.len() {
        return Err(RelationalError::BadKeyArity {
            key_arity,
            arity: outputs.len(),
        });
    }
    let attrs = outputs
        .iter()
        .map(|e| e.result_type(input.schema()))
        .collect::<Result<Vec<_>>>()?;
    let bound = outputs
        .iter()
        .map(|e| e.bind(input.schema()))
        .collect::<Result<Vec<_>>>()?;
    let schema = Schema::new(attrs, key_arity);
    let mut data = Vec::with_capacity(input.len() * outputs.len());
    for t in input.iter() {
        data.extend(bound.iter().map(|e| e.eval(t).encode()));
    }
    Relation::from_words(schema, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Value};

    #[test]
    fn arithmetic_pipeline() {
        let s = Schema::new(vec![AttrType::F32, AttrType::F32, AttrType::F32], 0);
        let r = Relation::from_rows(
            s,
            &[vec![Value::F32(100.0), Value::F32(0.1), Value::F32(0.05)]],
        )
        .unwrap();
        let e = Expr::attr(0)
            .mul(Expr::lit(1.0f32).sub(Expr::attr(1)))
            .mul(Expr::lit(1.0f32).add(Expr::attr(2)));
        let out = compute(&r, &[e], 0).unwrap();
        match out.value(0, 0) {
            Value::F32(x) => assert!((x - 94.5).abs() < 1e-4),
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn passthrough_preserves_data() {
        let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 10, 2, 20]).unwrap();
        let out = compute(&r, &[Expr::attr(0), Expr::attr(1)], 1).unwrap();
        assert_eq!(out.words(), r.words());
    }

    #[test]
    fn empty_outputs_rejected() {
        let r = Relation::from_words(Schema::uniform_u32(1), vec![1]).unwrap();
        assert!(compute(&r, &[], 0).is_err());
        assert!(compute(&r, &[Expr::attr(0)], 2).is_err());
    }

    #[test]
    fn type_error_propagates() {
        let s = Schema::new(vec![AttrType::Bool], 0);
        let r = Relation::from_rows(s, &[vec![Value::Bool(true)]]).unwrap();
        assert!(compute(&r, &[Expr::attr(0).add(Expr::lit(1u32))], 0).is_err());
    }
}
