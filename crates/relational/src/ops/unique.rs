//! UNIQUE: remove duplicate tuples from a sorted relation.

use std::cmp::Ordering;

use crate::relation::compare_tuples;
use crate::{RelView, Relation, Result};

/// Remove exact duplicate tuples, keeping the first occurrence.
///
/// # Examples
///
/// ```
/// use kw_relational::{ops, Relation, Schema};
/// let r = Relation::from_words(Schema::uniform_u32(1), vec![1, 1, 2, 3, 3])?;
/// assert_eq!(ops::unique(&r)?.len(), 3);
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
pub fn unique<'a>(input: impl Into<RelView<'a>>) -> Result<Relation> {
    Ok(unique_view(input.into()))
}

fn unique_view(input: RelView<'_>) -> Relation {
    let schema = input.schema();
    let arity = schema.arity();
    let mut out: Vec<u64> = Vec::new();
    for t in input.iter() {
        let dup = out
            .len()
            .checked_sub(arity)
            .map(|s| compare_tuples(schema, &out[s..], t) == Ordering::Equal)
            .unwrap_or(false);
        if !dup {
            out.extend_from_slice(t);
        }
    }
    // An ordered subsequence of the input.
    Relation::from_canonical_words(schema.clone(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    #[test]
    fn removes_exact_duplicates_only() {
        let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 10, 1, 10, 1, 11]).unwrap();
        let out = unique(&r).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn idempotent() {
        let r = Relation::from_words(Schema::uniform_u32(1), vec![1, 1, 2]).unwrap();
        let once = unique(&r).unwrap();
        let twice = unique(&once).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn empty_input() {
        let r = Relation::empty(Schema::uniform_u32(1));
        assert!(unique(&r).unwrap().is_empty());
    }
}
