//! SET UNION / INTERSECTION / DIFFERENCE, keyed as in the paper's Table 1.
//!
//! All three operate on the *key* attributes: e.g. UNION keeps tuples whose
//! keys appear in at least one input, preferring the left tuple's value
//! attributes when a key appears in both.

use std::cmp::Ordering;

use crate::relation::compare_keys;
use crate::{RelView, Relation, RelationalError, Result};

fn check_schemas(left: RelView<'_>, right: RelView<'_>) -> Result<()> {
    if left.schema() != right.schema() {
        return Err(RelationalError::SchemaMismatch {
            detail: format!(
                "set operations require identical schemas, got {} and {}",
                left.schema(),
                right.schema()
            ),
        });
    }
    Ok(())
}

/// Tuples whose keys are present in at least one input (left-preferred on
/// key collisions), deduplicated by key.
///
/// # Errors
///
/// Returns [`RelationalError::SchemaMismatch`] unless both schemas are equal.
///
/// # Examples
///
/// ```
/// use kw_relational::{ops, Relation, Schema};
/// let x = Relation::from_words(Schema::uniform_u32(2), vec![2, 11, 3, 10, 4, 10])?;
/// let y = Relation::from_words(Schema::uniform_u32(2), vec![0, 10, 2, 11])?;
/// let out = ops::union(&x, &y)?;
/// assert_eq!(out.len(), 4); // keys 0,2,3,4
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
pub fn union<'a>(left: impl Into<RelView<'a>>, right: impl Into<RelView<'a>>) -> Result<Relation> {
    union_view(left.into(), right.into())
}

fn union_view(left: RelView<'_>, right: RelView<'_>) -> Result<Relation> {
    check_schemas(left, right)?;
    let schema = left.schema();
    let mut out = Vec::new();
    let mut i = 0;
    let mut j = 0;
    while i < left.len() || j < right.len() {
        let take_left = if i >= left.len() {
            false
        } else if j >= right.len() {
            true
        } else {
            compare_keys(schema, left.tuple(i), right.tuple(j)) != Ordering::Greater
        };
        let t = if take_left {
            left.tuple(i)
        } else {
            right.tuple(j)
        };
        // Deduplicate by key against the last emitted tuple.
        let dup = out
            .len()
            .checked_sub(schema.arity())
            .map(|s| compare_keys(schema, &out[s..], t) == Ordering::Equal)
            .unwrap_or(false);
        if !dup {
            out.extend_from_slice(t);
        }
        if take_left {
            i += 1;
        } else {
            j += 1;
        }
    }
    // A key-ordered merge with one tuple per key.
    Ok(Relation::from_canonical_words(schema.clone(), out))
}

/// Tuples of `left` whose keys are also present in `right`, deduplicated by
/// key (the paper's example keeps a single tuple per matching key).
///
/// # Errors
///
/// Returns [`RelationalError::SchemaMismatch`] unless both schemas are equal.
pub fn intersect<'a>(
    left: impl Into<RelView<'a>>,
    right: impl Into<RelView<'a>>,
) -> Result<Relation> {
    let (left, right) = (left.into(), right.into());
    check_schemas(left, right)?;
    Ok(filter_by_membership(left, right, true))
}

/// Tuples of `left` whose keys are absent from `right`.
///
/// # Errors
///
/// Returns [`RelationalError::SchemaMismatch`] unless both schemas are equal.
pub fn difference<'a>(
    left: impl Into<RelView<'a>>,
    right: impl Into<RelView<'a>>,
) -> Result<Relation> {
    let (left, right) = (left.into(), right.into());
    check_schemas(left, right)?;
    Ok(filter_by_membership(left, right, false))
}

fn filter_by_membership(left: RelView<'_>, right: RelView<'_>, keep_present: bool) -> Relation {
    let schema = left.schema();
    let mut out = Vec::new();
    for t in left.iter() {
        let lo = right.lower_bound(&t[..schema.key_arity()]);
        let present =
            lo < right.len() && compare_keys(schema, right.tuple(lo), t) == Ordering::Equal;
        if present == keep_present {
            let dup = keep_present
                && out
                    .len()
                    .checked_sub(schema.arity())
                    .map(|s| compare_keys(schema, &out[s..], t) == Ordering::Equal)
                    .unwrap_or(false);
            if !dup {
                out.extend_from_slice(t);
            }
        }
    }
    // An ordered subsequence of `left`.
    Relation::from_canonical_words(schema.clone(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn rel(words: Vec<u64>) -> Relation {
        Relation::from_words(Schema::uniform_u32(2), words).unwrap()
    }

    #[test]
    fn paper_union_example() {
        // x = {(2,b),(3,a),(4,a)}, y = {(0,a),(2,b)} -> {(0,a),(2,b),(3,a),(4,a)}
        let x = rel(vec![2, 11, 3, 10, 4, 10]);
        let y = rel(vec![0, 10, 2, 11]);
        let out = union(&x, &y).unwrap();
        assert_eq!(out.words(), &[0, 10, 2, 11, 3, 10, 4, 10]);
    }

    #[test]
    fn paper_intersect_example() {
        // x = {(2,b),(3,a),(4,a)}, y = {(0,a),(2,b)} -> {(2,b)}
        let x = rel(vec![2, 11, 3, 10, 4, 10]);
        let y = rel(vec![0, 10, 2, 11]);
        let out = intersect(&x, &y).unwrap();
        assert_eq!(out.words(), &[2, 11]);
    }

    #[test]
    fn paper_difference_example() {
        // x = {(2,b),(3,a),(4,a)}, y = {(3,a),(4,a)} -> {(2,b)}
        let x = rel(vec![2, 11, 3, 10, 4, 10]);
        let y = rel(vec![3, 10, 4, 10]);
        let out = difference(&x, &y).unwrap();
        assert_eq!(out.words(), &[2, 11]);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let x = rel(vec![1, 1]);
        let y = Relation::from_words(Schema::uniform_u32(1), vec![1]).unwrap();
        assert!(union(&x, &y).is_err());
        assert!(intersect(&x, &y).is_err());
        assert!(difference(&x, &y).is_err());
    }

    #[test]
    fn union_with_empty() {
        let x = rel(vec![1, 1]);
        let e = Relation::empty(x.schema().clone());
        assert_eq!(union(&x, &e).unwrap(), x);
        assert_eq!(union(&e, &x).unwrap(), x);
    }

    #[test]
    fn intersect_dedups_by_key() {
        let x = rel(vec![1, 10, 1, 11]);
        let y = rel(vec![1, 99]);
        let out = intersect(&x, &y).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn difference_keeps_duplicates_of_survivors() {
        let x = rel(vec![1, 10, 1, 11, 2, 12]);
        let y = rel(vec![2, 0]);
        let out = difference(&x, &y).unwrap();
        assert_eq!(out.len(), 2);
    }
}
