//! SORT: reorder a relation so that a chosen attribute list becomes the key.
//!
//! In the paper SORT is the canonical *kernel-dependent* operator: it acts
//! as a global barrier in the dependence graph and can never be fused with
//! its producers or consumers.

use crate::{ops::project, RelView, Relation, Result};

/// Sort `input` on the attribute indices `attrs`, producing a relation whose
/// schema is permuted so `attrs` come first and form the new key; the
/// remaining attributes follow in their original order.
///
/// # Errors
///
/// Returns [`crate::RelationalError::AttrOutOfBounds`] for invalid indices.
///
/// # Examples
///
/// ```
/// use kw_relational::{ops, Relation, Schema};
/// let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 9, 2, 3])?;
/// let out = ops::sort_on(&r, &[1])?;
/// assert_eq!(out.tuple(0), &[3, 2]); // sorted on former attr 1
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
pub fn sort_on<'a>(input: impl Into<RelView<'a>>, attrs: &[usize]) -> Result<Relation> {
    sort_view(input.into(), attrs)
}

fn sort_view(input: RelView<'_>, attrs: &[usize]) -> Result<Relation> {
    let mut order: Vec<usize> = attrs.to_vec();
    for a in 0..input.schema().arity() {
        if !attrs.contains(&a) {
            order.push(a);
        }
    }
    project(input, &order, attrs.len().max(1).min(order.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    #[test]
    fn sorts_on_new_key() {
        let r = Relation::from_words(Schema::uniform_u32(3), vec![1, 5, 9, 2, 4, 8]).unwrap();
        let out = sort_on(&r, &[1]).unwrap();
        assert_eq!(out.schema().key_arity(), 1);
        assert_eq!(out.tuple(0), &[4, 2, 8]);
        assert_eq!(out.tuple(1), &[5, 1, 9]);
    }

    #[test]
    fn multi_attr_sort() {
        let r = Relation::from_words(Schema::uniform_u32(3), vec![1, 2, 9, 2, 2, 1]).unwrap();
        let out = sort_on(&r, &[1, 2]).unwrap();
        assert_eq!(out.schema().key_arity(), 2);
        assert_eq!(out.tuple(0), &[2, 1, 2]);
    }

    #[test]
    fn bad_attr_rejected() {
        let r = Relation::from_words(Schema::uniform_u32(1), vec![1]).unwrap();
        assert!(sort_on(&r, &[3]).is_err());
    }
}
