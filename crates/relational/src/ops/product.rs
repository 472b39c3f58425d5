//! CROSS PRODUCT: all ordered combinations of tuples from two relations.

use crate::{RelView, Relation, Result, Schema};

/// The cross product of `left` and `right`.
///
/// The output schema is the concatenation of both input schemas and keeps
/// the left relation's key arity (the result is re-sorted on it).
///
/// # Examples
///
/// ```
/// use kw_relational::{ops, Relation, Schema};
/// let x = Relation::from_words(Schema::uniform_u32(2), vec![3, 10, 4, 10])?;
/// let y = Relation::from_words(Schema::uniform_u32(1), vec![3])?;
/// let out = ops::product(&x, &y)?;
/// assert_eq!(out.len(), 2);
/// assert_eq!(out.tuple(0), &[3, 10, 3]);
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
pub fn product<'a>(
    left: impl Into<RelView<'a>>,
    right: impl Into<RelView<'a>>,
) -> Result<Relation> {
    product_view(left.into(), right.into())
}

fn product_view(left: RelView<'_>, right: RelView<'_>) -> Result<Relation> {
    let mut attrs = left.schema().attrs().to_vec();
    attrs.extend_from_slice(right.schema().attrs());
    let schema = Schema::new(attrs, left.schema().key_arity());
    let mut out = Vec::with_capacity(left.len() * right.len() * schema.arity());
    for lt in left.iter() {
        for rt in right.iter() {
            out.extend_from_slice(lt);
            out.extend_from_slice(rt);
        }
    }
    Relation::from_words(schema, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_is_product() {
        let x = Relation::from_words(Schema::uniform_u32(1), vec![1, 2, 3]).unwrap();
        let y = Relation::from_words(Schema::uniform_u32(1), vec![7, 8]).unwrap();
        let out = product(&x, &y).unwrap();
        assert_eq!(out.len(), 6);
        assert_eq!(out.schema().arity(), 2);
    }

    #[test]
    fn empty_side_gives_empty() {
        let x = Relation::from_words(Schema::uniform_u32(1), vec![1]).unwrap();
        let y = Relation::empty(Schema::uniform_u32(1));
        assert!(product(&x, &y).unwrap().is_empty());
        assert!(product(&y, &x).unwrap().is_empty());
    }

    #[test]
    fn output_sorted() {
        let x = Relation::from_words(Schema::uniform_u32(1), vec![2, 1]).unwrap();
        let y = Relation::from_words(Schema::uniform_u32(1), vec![9, 8]).unwrap();
        let out = product(&x, &y).unwrap();
        assert!(out.is_sorted());
        assert_eq!(out.tuple(0), &[1, 8]);
    }
}
