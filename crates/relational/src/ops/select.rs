//! SELECT: filter tuples by a predicate.

use crate::{Predicate, RelView, Relation, Result};

/// Keep the tuples of `input` satisfying `pred`.
///
/// The output preserves the input's schema and sort order.
///
/// # Errors
///
/// Propagates predicate validation errors ([`crate::RelationalError`]).
///
/// # Examples
///
/// ```
/// use kw_relational::{ops, Relation, Schema, AttrType, Predicate, CmpOp, Value};
/// let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 10, 2, 20, 3, 30])?;
/// let out = ops::select(&r, &Predicate::cmp(0, CmpOp::Ge, Value::U32(2)))?;
/// assert_eq!(out.len(), 2);
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
pub fn select<'a>(input: impl Into<RelView<'a>>, pred: &Predicate) -> Result<Relation> {
    select_view(input.into(), pred)
}

fn select_view(input: RelView<'_>, pred: &Predicate) -> Result<Relation> {
    let pred = pred.bind(input.schema())?;
    let mut out = Vec::new();
    for t in input.iter() {
        if pred.eval(t) {
            out.extend_from_slice(t);
        }
    }
    // Filtering preserves order, so the result is already sorted.
    Ok(Relation::from_canonical_words(input.schema().clone(), out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Schema, Value};

    #[test]
    fn filters_and_preserves_order() {
        let r = Relation::from_words(Schema::uniform_u32(2), vec![4, 1, 1, 2, 3, 3, 2, 4]).unwrap();
        let out = select(&r, &Predicate::cmp(0, CmpOp::Le, Value::U32(3))).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.is_sorted());
        assert_eq!(out.tuple(0), &[1, 2]);
    }

    #[test]
    fn empty_result() {
        let r = Relation::from_words(Schema::uniform_u32(1), vec![1, 2, 3]).unwrap();
        let out = select(&r, &Predicate::False).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn select_true_is_identity() {
        let r = Relation::from_words(Schema::uniform_u32(2), vec![5, 0, 1, 1]).unwrap();
        let out = select(&r, &Predicate::True).unwrap();
        assert_eq!(out, r);
    }

    #[test]
    fn invalid_predicate_rejected() {
        let r = Relation::from_words(Schema::uniform_u32(1), vec![1]).unwrap();
        assert!(select(&r, &Predicate::cmp(9, CmpOp::Eq, Value::U32(0))).is_err());
    }
}
