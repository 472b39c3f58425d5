//! AGGREGATE: grouped reduction (SUM / AVG / MIN / MAX / COUNT).
//!
//! TPC-H Q1 is the paper's "arithmetic centric" query: it groups `lineitem`
//! by two flag attributes and computes sums and averages. Aggregation over
//! groups requires a globally sorted order on the group attributes, so like
//! SORT it introduces a *kernel dependence* in the plan graph.

use std::cmp::Ordering;

use crate::{
    compare_words, ops::sort_on, AttrType, RelView, Relation, RelationalError, Result, Schema,
    Value,
};

/// An aggregation function over one attribute of each group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Number of tuples in the group (the attribute index is ignored but
    /// kept for uniformity).
    Count,
    /// Sum of the attribute (u32 promotes to u64; f32 stays f32).
    Sum(usize),
    /// Arithmetic mean of the attribute, as f32.
    Avg(usize),
    /// Minimum of the attribute.
    Min(usize),
    /// Maximum of the attribute.
    Max(usize),
}

impl AggFn {
    fn attr(self) -> Option<usize> {
        match self {
            AggFn::Count => None,
            AggFn::Sum(a) | AggFn::Avg(a) | AggFn::Min(a) | AggFn::Max(a) => Some(a),
        }
    }

    fn result_type(self, schema: &Schema) -> Result<AttrType> {
        match self {
            AggFn::Count => Ok(AttrType::U64),
            AggFn::Avg(_) => Ok(AttrType::F32),
            AggFn::Sum(a) => {
                let ty = check_numeric(schema, a)?;
                Ok(match ty {
                    AttrType::F32 => AttrType::F32,
                    _ => AttrType::U64,
                })
            }
            AggFn::Min(a) | AggFn::Max(a) => check_numeric(schema, a),
        }
    }

    /// ALU operations contributed per input tuple (for the GPU cost model).
    pub fn alu_ops(self) -> u64 {
        match self {
            AggFn::Count => 1,
            AggFn::Sum(_) | AggFn::Min(_) | AggFn::Max(_) => 1,
            AggFn::Avg(_) => 2,
        }
    }
}

fn check_numeric(schema: &Schema, attr: usize) -> Result<AttrType> {
    if attr >= schema.arity() {
        return Err(RelationalError::AttrOutOfBounds {
            attr,
            arity: schema.arity(),
        });
    }
    let ty = schema.attr(attr);
    if !ty.is_numeric() {
        return Err(RelationalError::TypeMismatch {
            expected: AttrType::U64,
            found: ty,
        });
    }
    Ok(ty)
}

/// Group `input` by the attributes `group_by` and compute `aggs` per group.
///
/// Output schema: the group attributes (as the key) followed by one
/// attribute per aggregate. Groups appear in sorted order.
///
/// Canonical order is full-tuple order, so it already groups the input on
/// any leading prefix of its attributes: a `group_by` of `[0, 1, …, g-1]`,
/// the empty one included, reads the input where it lies. Any other
/// `group_by` first re-sorts a copy with the group attributes in front
/// ([`sort_on`]).
///
/// # Errors
///
/// Returns attribute/type errors from [`crate::RelationalError`] if a group
/// or aggregate attribute is invalid.
///
/// # Examples
///
/// ```
/// use kw_relational::{ops, ops::AggFn, Relation, Schema};
/// let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 10, 1, 20, 2, 5])?;
/// let out = ops::aggregate(&r, &[0], &[AggFn::Sum(1), AggFn::Count])?;
/// assert_eq!(out.len(), 2);
/// assert_eq!(out.tuple(0), &[1, 30, 2]);
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
pub fn aggregate<'a>(
    input: impl Into<RelView<'a>>,
    group_by: &[usize],
    aggs: &[AggFn],
) -> Result<Relation> {
    aggregate_view(input.into(), group_by, aggs)
}

fn aggregate_view(input: RelView<'_>, group_by: &[usize], aggs: &[AggFn]) -> Result<Relation> {
    for agg in aggs {
        if let Some(a) = agg.attr() {
            check_numeric(input.schema(), a)?;
        }
    }
    // Group attributes must lead; aggregate over runs.
    let leading = group_by.len() <= input.schema().arity()
        && group_by.iter().enumerate().all(|(i, &a)| a == i);
    let resorted;
    let grouped = if leading {
        input
    } else {
        resorted = sort_on(input, group_by)?;
        resorted.view()
    };
    reduce(grouped, input.schema(), group_by, aggs)
}

/// Aggregate `grouped`, whose first `group_by.len()` attributes are the
/// group attributes of `orig` and whose rows are in canonical order. Its
/// other attributes are those of `orig`, in their original order.
fn reduce(
    grouped: RelView<'_>,
    orig: &Schema,
    group_by: &[usize],
    aggs: &[AggFn],
) -> Result<Relation> {
    // Attribute a of `orig` sits at remap[a] in `grouped`.
    let remap = build_remap(orig.arity(), group_by);

    let mut out_attrs: Vec<AttrType> = group_by.iter().map(|&a| orig.attr(a)).collect();
    for agg in aggs {
        out_attrs.push(agg.result_type(orig)?);
    }
    if out_attrs.is_empty() {
        return Err(RelationalError::BadKeyArity {
            key_arity: 0,
            arity: 0,
        });
    }
    let out_schema = Schema::new(
        out_attrs,
        group_by.len().max(if aggs.is_empty() { 1 } else { 0 }),
    );

    let g = group_by.len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < grouped.len() {
        // Find the end of this group (run of equal leading g attributes).
        let mut end = i + 1;
        while end < grouped.len() && same_group(grouped, i, end, g) {
            end += 1;
        }
        out.extend_from_slice(&grouped.tuple(i)[..g]);
        for agg in aggs {
            out.push(eval_agg(grouped, i, end, *agg, &remap, orig));
        }
        i = end;
    }
    Relation::from_words(out_schema, out)
}

fn build_remap(arity: usize, group_by: &[usize]) -> Vec<usize> {
    // remap[original_attr] = position in the grouped relation.
    let mut remap = vec![usize::MAX; arity];
    for (pos, &a) in group_by.iter().enumerate() {
        remap[a] = pos;
    }
    let mut next = group_by.len();
    for slot in remap.iter_mut() {
        if *slot == usize::MAX {
            *slot = next;
            next += 1;
        }
    }
    remap
}

/// Whether tuples `a` and `b` agree on the first `g` attributes.
fn same_group(rel: RelView<'_>, a: usize, b: usize, g: usize) -> bool {
    let (ta, tb) = (rel.tuple(a), rel.tuple(b));
    (0..g).all(|k| compare_words(ta[k], tb[k], rel.schema().attr(k)) == Ordering::Equal)
}

fn eval_agg(
    rel: RelView<'_>,
    start: usize,
    end: usize,
    agg: AggFn,
    remap: &[usize],
    orig_schema: &Schema,
) -> u64 {
    match agg {
        AggFn::Count => (end - start) as u64,
        AggFn::Sum(a) => {
            let col = remap[a];
            match orig_schema.attr(a) {
                AttrType::F32 => {
                    let s: f64 = (start..end)
                        .map(|i| f64::from(f32::from_bits(rel.tuple(i)[col] as u32)))
                        .sum();
                    Value::F32(s as f32).encode()
                }
                _ => (start..end).fold(0u64, |acc, i| acc.wrapping_add(rel.tuple(i)[col])),
            }
        }
        AggFn::Avg(a) => {
            let col = remap[a];
            let n = (end - start) as f64;
            let s: f64 = (start..end)
                .map(|i| match orig_schema.attr(a) {
                    AttrType::F32 => f64::from(f32::from_bits(rel.tuple(i)[col] as u32)),
                    _ => rel.tuple(i)[col] as f64,
                })
                .sum();
            Value::F32((s / n) as f32).encode()
        }
        AggFn::Min(a) | AggFn::Max(a) => {
            let col = remap[a];
            let ty = orig_schema.attr(a);
            let mut best = rel.tuple(start)[col];
            for i in start + 1..end {
                let w = rel.tuple(i)[col];
                let ord = compare_words(w, best, ty);
                let better = if matches!(agg, AggFn::Min(_)) {
                    ord == Ordering::Less
                } else {
                    ord == Ordering::Greater
                };
                if better {
                    best = w;
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::tests::Rows;
    use proptest::prelude::*;

    /// The re-sorting path for every `group_by`: the input copied through
    /// [`sort_on`] (as it is when `group_by` is empty), then reduced.
    fn aggregate_resorted(
        input: &Relation,
        group_by: &[usize],
        aggs: &[AggFn],
    ) -> Result<Relation> {
        let sorted = if group_by.is_empty() {
            input.clone()
        } else {
            sort_on(input, group_by)?
        };
        reduce(sorted.view(), input.schema(), group_by, aggs)
    }

    /// Every aggregate over every numeric attribute, plus a count.
    fn all_aggs(schema: &Schema) -> Vec<AggFn> {
        let mut aggs = vec![AggFn::Count];
        for a in (0..schema.arity()).filter(|&a| schema.attr(a).is_numeric()) {
            aggs.extend([AggFn::Sum(a), AggFn::Avg(a), AggFn::Min(a), AggFn::Max(a)]);
        }
        aggs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A leading-prefix `group_by`, the empty one included, reads the
        /// input where it lies; the result must equal re-sorting it through
        /// `sort_on`, bit for bit. The rows mix U32, U64, F32 and Bool
        /// attributes, and some F32 words have high bits set, so rows can
        /// compare equal yet differ in bytes. Non-prefix group-bys keep
        /// re-sorting and are checked against the same reference.
        #[test]
        fn prop_leading_prefix_matches_resorting((schema, words) in Rows) {
            let rel = Relation::from_words(schema.clone(), words).unwrap();
            let aggs = all_aggs(&schema);
            let arity = schema.arity();
            let mut group_bys: Vec<Vec<usize>> = (0..=arity.min(4)).map(|g| (0..g).collect()).collect();
            if arity > 1 {
                group_bys.extend([vec![1], vec![1, 0], vec![0, 0]]);
            }
            for group_by in &group_bys {
                let got = aggregate(&rel, group_by, &aggs);
                let want = aggregate_resorted(&rel, group_by, &aggs);
                prop_assert_eq!(&got, &want, "group_by {:?}", group_by);
                if let Ok(out) = got {
                    prop_assert!(out.is_sorted());
                }
            }
            // A view of part of the relation takes the same path.
            let half = rel.view().slice(0, rel.len() / 2);
            prop_assert_eq!(
                aggregate(half, &[0], &aggs),
                aggregate_resorted(&half.to_relation(), &[0], &aggs)
            );
        }
    }

    #[test]
    fn prefix_groups_keep_the_first_rows_bytes() {
        // F32 words equal in their low 32 bits but not in their high ones
        // compare equal, so the group key and Min/Max keep the first row's
        // bytes, on both paths.
        let s = Schema::new(vec![AttrType::F32, AttrType::F32], 1);
        let one = u64::from(1.0f32.to_bits());
        let words = vec![one | 2 << 32, one, one | 1 << 32, one | 3 << 32];
        let r = Relation::from_words(s, words).unwrap();
        let aggs = [AggFn::Min(1), AggFn::Max(1), AggFn::Count];
        let got = aggregate(&r, &[0], &aggs).unwrap();
        assert_eq!(got, aggregate_resorted(&r, &[0], &aggs).unwrap());
        assert_eq!(got.tuple(0), &[one | 2 << 32, one, one, 2]);
        let global = aggregate(&r, &[], &aggs).unwrap();
        assert_eq!(global, aggregate_resorted(&r, &[], &aggs).unwrap());
    }

    #[test]
    fn grouped_sum_count() {
        let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 10, 1, 20, 2, 5, 2, 6, 2, 7])
            .unwrap();
        let out = aggregate(&r, &[0], &[AggFn::Sum(1), AggFn::Count]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.tuple(0), &[1, 30, 2]);
        assert_eq!(out.tuple(1), &[2, 18, 3]);
    }

    #[test]
    fn min_max() {
        let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 9, 1, 3, 1, 7]).unwrap();
        let out = aggregate(&r, &[0], &[AggFn::Min(1), AggFn::Max(1)]).unwrap();
        assert_eq!(out.tuple(0), &[1, 3, 9]);
    }

    #[test]
    fn avg_is_f32() {
        let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 1, 1, 2]).unwrap();
        let out = aggregate(&r, &[0], &[AggFn::Avg(1)]).unwrap();
        assert_eq!(out.value(0, 1), Value::F32(1.5));
    }

    #[test]
    fn float_sum() {
        let s = Schema::new(vec![AttrType::U32, AttrType::F32], 1);
        let r = Relation::from_rows(
            s,
            &[
                vec![Value::U32(1), Value::F32(0.5)],
                vec![Value::U32(1), Value::F32(0.25)],
            ],
        )
        .unwrap();
        let out = aggregate(&r, &[0], &[AggFn::Sum(1)]).unwrap();
        assert_eq!(out.value(0, 1), Value::F32(0.75));
    }

    #[test]
    fn global_aggregate_without_group() {
        let r = Relation::from_words(Schema::uniform_u32(1), vec![1, 2, 3]).unwrap();
        let out = aggregate(&r, &[], &[AggFn::Sum(0), AggFn::Count]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuple(0), &[6, 3]);
    }

    #[test]
    fn group_by_non_key_attr() {
        let r = Relation::from_words(Schema::uniform_u32(2), vec![1, 5, 2, 5, 3, 6]).unwrap();
        let out = aggregate(&r, &[1], &[AggFn::Count]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.tuple(0), &[5, 2]);
        assert_eq!(out.tuple(1), &[6, 1]);
    }

    #[test]
    fn bad_attr_rejected() {
        let r = Relation::from_words(Schema::uniform_u32(1), vec![1]).unwrap();
        assert!(aggregate(&r, &[0], &[AggFn::Sum(7)]).is_err());
    }
}
