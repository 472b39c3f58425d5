//! JOIN: intersect on key attributes, cross-product of value attributes.

use std::cmp::Ordering;

use crate::{compare_words, RelView, Relation, RelationalError, Result, Schema};

/// Join `left` and `right` on their first `key_len` attributes.
///
/// As in the paper's Table 1, JOIN "intersects on the key attribute and
/// cross-products the value attributes": the output tuple is the shared key
/// followed by the non-key attributes of the left then right tuple.
///
/// Both inputs are key-sorted, so this is a merge join — the same structure
/// the GPU skeleton exploits per CTA partition.
///
/// # Errors
///
/// Returns [`RelationalError::BadKeyArity`] if `key_len` is zero or exceeds
/// either input's key arity, and [`RelationalError::SchemaMismatch`] if the
/// key attribute types differ.
///
/// # Examples
///
/// ```
/// use kw_relational::{ops, Relation, Schema};
/// let x = Relation::from_words(Schema::uniform_u32(2), vec![2, 100, 3, 101, 4, 102])?;
/// let y = Relation::from_words(Schema::uniform_u32(2), vec![2, 200, 3, 201, 3, 202])?;
/// let out = ops::join(&x, &y, 1)?;
/// // (2,100,200), (3,101,201), (3,101,202)
/// assert_eq!(out.len(), 3);
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
pub fn join<'a>(
    left: impl Into<RelView<'a>>,
    right: impl Into<RelView<'a>>,
    key_len: usize,
) -> Result<Relation> {
    join_view(left.into(), right.into(), key_len)
}

fn join_view(left: RelView<'_>, right: RelView<'_>, key_len: usize) -> Result<Relation> {
    let schema = join_schema(left.schema(), right.schema(), key_len)?;
    let la = left.schema().arity();
    let ra = right.schema().arity();
    let mut out = Vec::new();
    let mut i = 0;
    let mut j = 0;
    while i < left.len() && j < right.len() {
        let lt = left.tuple(i);
        let rt = right.tuple(j);
        match compare_key_prefix(left.schema(), lt, rt, key_len) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // Find the runs of equal keys on both sides, emit the cross
                // product of their value attributes.
                let i_end = run_end(left, i, key_len);
                let j_end = run_end(right, j, key_len);
                for li in i..i_end {
                    for rj in j..j_end {
                        let lt = left.tuple(li);
                        let rt = right.tuple(rj);
                        out.extend_from_slice(&lt[..key_len]);
                        out.extend_from_slice(&lt[key_len..la]);
                        out.extend_from_slice(&rt[key_len..ra]);
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    Relation::from_words(schema, out)
}

/// The output schema of a join on the first `key_len` attributes.
///
/// # Errors
///
/// Same conditions as [`join`].
pub fn join_schema(left: &Schema, right: &Schema, key_len: usize) -> Result<Schema> {
    if key_len == 0 || key_len > left.key_arity() || key_len > right.key_arity() {
        return Err(RelationalError::BadKeyArity {
            key_arity: key_len,
            arity: left.key_arity().min(right.key_arity()),
        });
    }
    for k in 0..key_len {
        if left.attr(k) != right.attr(k) {
            return Err(RelationalError::SchemaMismatch {
                detail: format!(
                    "join key attribute {k} has type {} on the left but {} on the right",
                    left.attr(k),
                    right.attr(k)
                ),
            });
        }
    }
    let mut attrs = Vec::with_capacity(left.arity() + right.arity() - key_len);
    attrs.extend_from_slice(&left.attrs()[..key_len]);
    attrs.extend_from_slice(&left.attrs()[key_len..]);
    attrs.extend_from_slice(&right.attrs()[key_len..]);
    Ok(Schema::new(attrs, key_len))
}

fn compare_key_prefix(schema: &Schema, a: &[u64], b: &[u64], key_len: usize) -> Ordering {
    for k in 0..key_len {
        let ord = compare_words(a[k], b[k], schema.attr(k));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn run_end(rel: RelView<'_>, start: usize, key_len: usize) -> usize {
    let mut end = start + 1;
    while end < rel.len()
        && compare_key_prefix(rel.schema(), rel.tuple(start), rel.tuple(end), key_len)
            == Ordering::Equal
    {
        end += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrType;

    #[test]
    fn paper_example() {
        // x = {(2,b),(3,a),(4,a)}, y = {(2,f),(3,c),(3,d)}
        // JOIN x y -> {(2,b,f),(3,a,c),(3,a,d)}
        let x = Relation::from_words(Schema::uniform_u32(2), vec![2, 11, 3, 10, 4, 10]).unwrap();
        let y = Relation::from_words(Schema::uniform_u32(2), vec![2, 15, 3, 12, 3, 13]).unwrap();
        let out = join(&x, &y, 1).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.tuple(0), &[2, 11, 15]);
        assert_eq!(out.tuple(1), &[3, 10, 12]);
        assert_eq!(out.tuple(2), &[3, 10, 13]);
    }

    #[test]
    fn duplicate_keys_cross_product() {
        let x = Relation::from_words(Schema::uniform_u32(2), vec![1, 10, 1, 11]).unwrap();
        let y = Relation::from_words(Schema::uniform_u32(2), vec![1, 20, 1, 21]).unwrap();
        let out = join(&x, &y, 1).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn disjoint_keys_empty() {
        let x = Relation::from_words(Schema::uniform_u32(1), vec![1, 2]).unwrap();
        let y = Relation::from_words(Schema::uniform_u32(1), vec![3, 4]).unwrap();
        assert!(join(&x, &y, 1).unwrap().is_empty());
    }

    #[test]
    fn multi_attr_key() {
        let s = Schema::new(vec![AttrType::U32, AttrType::U32, AttrType::U32], 2);
        let x = Relation::from_words(s.clone(), vec![1, 1, 10, 1, 2, 11]).unwrap();
        let y = Relation::from_words(s, vec![1, 1, 20, 1, 3, 21]).unwrap();
        let out = join(&x, &y, 2).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuple(0), &[1, 1, 10, 20]);
    }

    #[test]
    fn key_type_mismatch_rejected() {
        let x = Relation::from_words(Schema::new(vec![AttrType::U64], 1), vec![1]).unwrap();
        let y = Relation::from_words(Schema::uniform_u32(1), vec![1]).unwrap();
        assert!(matches!(
            join(&x, &y, 1),
            Err(RelationalError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn bad_key_len_rejected() {
        let x = Relation::from_words(Schema::uniform_u32(2), vec![1, 2]).unwrap();
        assert!(join(&x, &x, 0).is_err());
        assert!(join(&x, &x, 2).is_err()); // key arity is 1
    }

    #[test]
    fn output_schema_shape() {
        let s = join_schema(&Schema::uniform_u32(3), &Schema::uniform_u32(2), 1).unwrap();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.key_arity(), 1);
    }
}
