//! PROJECT: keep a subset of attributes.

use crate::{RelView, Relation, Result};

/// Project `input` onto the attribute indices `attrs` (in the given order);
/// the first `key_arity` output attributes become the new key.
///
/// The result is re-sorted because projection may destroy key order (e.g.
/// when the original key attributes are dropped).
///
/// # Errors
///
/// Returns [`crate::RelationalError::AttrOutOfBounds`] or
/// [`crate::RelationalError::BadKeyArity`] for invalid projections.
///
/// # Examples
///
/// ```
/// use kw_relational::{ops, Relation, Schema, AttrType};
/// let s = Schema::new(vec![AttrType::U32, AttrType::Bool, AttrType::U32], 1);
/// let r = Relation::from_words(s, vec![2, 0, 20, 3, 1, 30])?;
/// let out = ops::project(&r, &[0, 2], 1)?;
/// assert_eq!(out.schema().arity(), 2);
/// assert_eq!(out.tuple(0), &[2, 20]);
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
pub fn project<'a>(
    input: impl Into<RelView<'a>>,
    attrs: &[usize],
    key_arity: usize,
) -> Result<Relation> {
    project_view(input.into(), attrs, key_arity)
}

fn project_view(input: RelView<'_>, attrs: &[usize], key_arity: usize) -> Result<Relation> {
    let schema = input.schema().project(attrs, key_arity)?;
    let mut out = Vec::with_capacity(input.len() * attrs.len());
    for t in input.iter() {
        for &a in attrs {
            out.push(t[a]);
        }
    }
    Relation::from_words(schema, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrType, Schema};

    #[test]
    fn drops_attributes() {
        let s = Schema::new(vec![AttrType::U32, AttrType::U32, AttrType::U32], 1);
        let r = Relation::from_words(s, vec![1, 9, 10, 2, 8, 20]).unwrap();
        let out = project(&r, &[0, 2], 1).unwrap();
        assert_eq!(out.to_rows().len(), 2);
        assert_eq!(out.tuple(0), &[1, 10]);
        assert_eq!(out.tuple(1), &[2, 20]);
    }

    #[test]
    fn resorts_when_key_dropped() {
        let s = Schema::new(vec![AttrType::U32, AttrType::U32], 1);
        let r = Relation::from_words(s, vec![1, 9, 2, 3]).unwrap();
        let out = project(&r, &[1], 1).unwrap();
        assert!(out.is_sorted());
        assert_eq!(out.tuple(0), &[3]);
    }

    #[test]
    fn can_duplicate_and_reorder() {
        let s = Schema::new(vec![AttrType::U32, AttrType::U32], 1);
        let r = Relation::from_words(s, vec![1, 9]).unwrap();
        let out = project(&r, &[1, 1, 0], 1).unwrap();
        assert_eq!(out.tuple(0), &[9, 9, 1]);
    }

    #[test]
    fn bad_attr_rejected() {
        let r = Relation::from_words(Schema::uniform_u32(1), vec![1]).unwrap();
        assert!(project(&r, &[4], 1).is_err());
        assert!(project(&r, &[], 0).is_err());
    }
}
