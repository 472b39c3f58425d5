//! ANTI-JOIN: keep left tuples whose key has no match on the right.
//!
//! The relational form of `NOT EXISTS` (TPC-H Q21's third `lineitem`
//! correlate); unlike [`super::difference`] the two sides only need to
//! agree on the join-key prefix, not on their full schemas.

use std::cmp::Ordering;

use crate::{compare_words, RelView, Relation, RelationalError, Result};

/// Tuples of `left` whose first `key_len` attributes match no tuple of
/// `right`.
///
/// # Errors
///
/// Returns [`RelationalError::BadKeyArity`] if `key_len` is zero or exceeds
/// either key arity, and [`RelationalError::SchemaMismatch`] if the key
/// prefix types differ.
///
/// # Examples
///
/// ```
/// use kw_relational::{ops, Relation, Schema};
/// let x = Relation::from_words(Schema::uniform_u32(2), vec![1, 10, 2, 20, 3, 30])?;
/// let y = Relation::from_words(Schema::uniform_u32(1), vec![2])?;
/// let out = ops::anti_join(&x, &y, 1)?;
/// assert_eq!(out.len(), 2); // keys 1 and 3 survive
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
pub fn anti_join<'a>(
    left: impl Into<RelView<'a>>,
    right: impl Into<RelView<'a>>,
    key_len: usize,
) -> Result<Relation> {
    matching(left.into(), right.into(), key_len, false)
}

/// SEMI-JOIN: tuples of `left` whose key prefix *does* match `right`
/// (`EXISTS`), keeping each left tuple at most once.
///
/// # Errors
///
/// Same conditions as [`anti_join`].
pub fn semi_join<'a>(
    left: impl Into<RelView<'a>>,
    right: impl Into<RelView<'a>>,
    key_len: usize,
) -> Result<Relation> {
    matching(left.into(), right.into(), key_len, true)
}

/// The tuples of `left` whose key prefix has a match in `right` exactly
/// when `matched` is set.
fn matching(
    left: RelView<'_>,
    right: RelView<'_>,
    key_len: usize,
    matched: bool,
) -> Result<Relation> {
    check_keys(left, right, key_len)?;
    let mut out = Vec::new();
    for t in left.iter() {
        if has_match(right, &t[..key_len], left, key_len) == matched {
            out.extend_from_slice(t);
        }
    }
    // An ordered subsequence of `left`.
    Ok(Relation::from_canonical_words(left.schema().clone(), out))
}

fn check_keys(left: RelView<'_>, right: RelView<'_>, key_len: usize) -> Result<()> {
    if key_len == 0 || key_len > left.schema().key_arity() || key_len > right.schema().key_arity() {
        return Err(RelationalError::BadKeyArity {
            key_arity: key_len,
            arity: left.schema().key_arity().min(right.schema().key_arity()),
        });
    }
    for k in 0..key_len {
        if left.schema().attr(k) != right.schema().attr(k) {
            return Err(RelationalError::SchemaMismatch {
                detail: format!(
                    "anti/semi-join key attribute {k} has type {} on the left but {} on the right",
                    left.schema().attr(k),
                    right.schema().attr(k)
                ),
            });
        }
    }
    Ok(())
}

fn has_match(right: RelView<'_>, probe: &[u64], left: RelView<'_>, key_len: usize) -> bool {
    let lo = right.lower_bound(probe);
    if lo >= right.len() {
        return false;
    }
    let cand = right.tuple(lo);
    (0..key_len).all(|k| compare_words(cand[k], probe[k], left.schema().attr(k)) == Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn rel2(words: Vec<u64>) -> Relation {
        Relation::from_words(Schema::uniform_u32(2), words).unwrap()
    }

    #[test]
    fn anti_join_filters_matching_keys() {
        let l = rel2(vec![1, 10, 2, 20, 2, 21, 3, 30]);
        let r = rel2(vec![2, 99]);
        let out = anti_join(&l, &r, 1).unwrap();
        assert_eq!(out.words(), &[1, 10, 3, 30]);
    }

    #[test]
    fn semi_join_keeps_matching_keys_with_duplicates() {
        let l = rel2(vec![1, 10, 2, 20, 2, 21, 3, 30]);
        let r = rel2(vec![2, 99, 2, 98]);
        let out = semi_join(&l, &r, 1).unwrap();
        assert_eq!(out.words(), &[2, 20, 2, 21]);
    }

    #[test]
    fn anti_and_semi_partition_left() {
        let l = rel2(vec![1, 0, 2, 0, 3, 0, 4, 0]);
        let r = rel2(vec![2, 0, 4, 0, 9, 0]);
        let anti = anti_join(&l, &r, 1).unwrap();
        let semi = semi_join(&l, &r, 1).unwrap();
        assert_eq!(anti.len() + semi.len(), l.len());
    }

    #[test]
    fn differing_value_schemas_allowed() {
        let l = rel2(vec![1, 10, 2, 20]);
        let r = Relation::from_words(Schema::uniform_u32(3), vec![2, 0, 0]).unwrap();
        let out = anti_join(&l, &r, 1).unwrap();
        assert_eq!(out.words(), &[1, 10]);
    }

    #[test]
    fn key_type_mismatch_rejected() {
        let l = rel2(vec![1, 10]);
        let r = Relation::from_words(Schema::new(vec![crate::AttrType::U64], 1), vec![1]).unwrap();
        assert!(anti_join(&l, &r, 1).is_err());
        assert!(semi_join(&l, &r, 1).is_err());
    }

    #[test]
    fn empty_right_is_identity_for_anti() {
        let l = rel2(vec![1, 10]);
        let r = Relation::empty(l.schema().clone());
        assert_eq!(anti_join(&l, &r, 1).unwrap(), l);
        assert!(semi_join(&l, &r, 1).unwrap().is_empty());
    }

    #[test]
    fn bad_key_len_rejected() {
        let l = rel2(vec![1, 10]);
        assert!(anti_join(&l, &l, 0).is_err());
        assert!(anti_join(&l, &l, 2).is_err());
    }
}
