//! The [`Relation`] container: a densely packed, key-sorted array of tuples.
//!
//! This mirrors the storage format of Diamos et al. used by the paper: a
//! relation is a dense array of fixed-width tuples maintained in strict weak
//! order on the key attributes, which enables the binary-search partitioning
//! used by the multi-stage GPU skeletons.

use std::cmp::Ordering;
use std::fmt;

use crate::{compare_words, AttrType, RelationalError, Result, Schema, Value};

/// A relation: a schema plus a densely packed, key-sorted tuple array.
///
/// Tuples are stored row-major, one `u64` word per attribute. The invariant
/// maintained by every constructor and operator is *canonical order*: key
/// order, then the remaining attributes, i.e. full-tuple order under
/// [`compare_tuples`] (the total order of [`compare_words`] per attribute).
/// Operators such as [`crate::ops::unique`] rely on all of it, not only on
/// key order.
///
/// # Examples
///
/// ```
/// use kw_relational::{Relation, Schema, AttrType, Value};
/// let schema = Schema::new(vec![AttrType::U32, AttrType::U32], 1);
/// let rel = Relation::from_rows(
///     schema,
///     &[vec![Value::U32(3), Value::U32(30)], vec![Value::U32(1), Value::U32(10)]],
/// )?;
/// assert_eq!(rel.len(), 2);
/// // Stored sorted by key:
/// assert_eq!(rel.value(0, 0), Value::U32(1));
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    data: Vec<u64>,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            data: Vec::new(),
        }
    }

    /// Build a relation from raw words, sorting by key.
    ///
    /// # Errors
    ///
    /// Returns [`RelationalError::MalformedData`] if `data.len()` is not a
    /// multiple of the schema arity.
    pub fn from_words(schema: Schema, mut data: Vec<u64>) -> Result<Relation> {
        let arity = schema.arity();
        if !data.len().is_multiple_of(arity) {
            return Err(RelationalError::MalformedData {
                words: data.len(),
                arity,
            });
        }
        sort_words(&schema, &mut data);
        Ok(Relation { schema, data })
    }

    /// Build a relation from raw words that are already in canonical order
    /// (key order, then the remaining attributes).
    ///
    /// # Errors
    ///
    /// Same conditions as [`check_sorted`].
    pub fn from_sorted_words(schema: Schema, data: Vec<u64>) -> Result<Relation> {
        check_sorted(&schema, &data)?;
        Ok(Relation { schema, data })
    }

    /// Build a relation from typed rows, sorting by key.
    ///
    /// # Errors
    ///
    /// Returns [`RelationalError::MalformedData`] if a row's length differs
    /// from the schema arity, and [`RelationalError::TypeMismatch`] if a
    /// value's type differs from the schema's attribute type.
    pub fn from_rows(schema: Schema, rows: &[Vec<Value>]) -> Result<Relation> {
        let arity = schema.arity();
        let mut data = Vec::with_capacity(rows.len() * arity);
        for row in rows {
            if row.len() != arity {
                return Err(RelationalError::MalformedData {
                    words: row.len(),
                    arity,
                });
            }
            for (i, v) in row.iter().enumerate() {
                if v.attr_type() != schema.attr(i) {
                    return Err(RelationalError::TypeMismatch {
                        expected: schema.attr(i),
                        found: v.attr_type(),
                    });
                }
                data.push(v.encode());
            }
        }
        Relation::from_words(schema, data)
    }

    /// The schema of this relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        if self.data.is_empty() {
            0
        } else {
            self.data.len() / self.schema.arity()
        }
    }

    /// Whether the relation contains no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total packed size on the device, in bytes.
    pub fn byte_size(&self) -> usize {
        self.len() * self.schema.tuple_bytes()
    }

    /// Raw word storage (row-major).
    pub fn words(&self) -> &[u64] {
        &self.data
    }

    /// The raw words of tuple `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn tuple(&self, i: usize) -> &[u64] {
        let a = self.schema.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// The decoded value of attribute `attr` of tuple `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `attr` is out of bounds.
    pub fn value(&self, i: usize, attr: usize) -> Value {
        Value::decode(self.tuple(i)[attr], self.schema.attr(attr))
    }

    /// Iterate over tuples as raw word slices.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.data.chunks_exact(self.schema.arity().max(1))
    }

    /// Compare the keys of two raw tuples under this relation's schema.
    pub fn compare_keys(&self, a: &[u64], b: &[u64]) -> Ordering {
        compare_keys(&self.schema, a, b)
    }

    /// Index of the first tuple whose key is `>=` the key of `probe`
    /// (lower bound by binary search). `probe` needs only `key_arity` words.
    pub fn lower_bound(&self, probe: &[u64]) -> usize {
        self.bound(probe, true)
    }

    /// Index of the first tuple whose key is `>` the key of `probe`
    /// (upper bound by binary search).
    pub fn upper_bound(&self, probe: &[u64]) -> usize {
        self.bound(probe, false)
    }

    fn bound(&self, probe: &[u64], lower: bool) -> usize {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let ord = compare_key_to_probe(&self.schema, self.tuple(mid), probe);
            let go_right = if lower {
                ord == Ordering::Less
            } else {
                ord != Ordering::Greater
            };
            if go_right {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Whether the canonical-order invariant holds (always true for
    /// relations produced by this crate; exposed for tests and debugging).
    pub fn is_sorted(&self) -> bool {
        first_unsorted(&self.schema, &self.data).is_none()
    }

    /// Collect the rows as decoded values (convenience for tests).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len())
            .map(|i| (0..self.schema.arity()).map(|a| self.value(i, a)).collect())
            .collect()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation{} [{} tuples]", self.schema, self.len())?;
        let show = self.len().min(8);
        for i in 0..show {
            write!(f, "\n  (")?;
            for a in 0..self.schema.arity() {
                if a > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.value(i, a))?;
            }
            write!(f, ")")?;
        }
        if self.len() > show {
            write!(f, "\n  ... {} more", self.len() - show)?;
        }
        Ok(())
    }
}

/// Compare the key attributes of two raw tuples under `schema`.
pub fn compare_keys(schema: &Schema, a: &[u64], b: &[u64]) -> Ordering {
    for k in 0..schema.key_arity() {
        let ord = compare_words(a[k], b[k], schema.attr(k));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Compare the full tuples (all attributes) of two raw tuples.
pub fn compare_tuples(schema: &Schema, a: &[u64], b: &[u64]) -> Ordering {
    for k in 0..schema.arity() {
        let ord = compare_words(a[k], b[k], schema.attr(k));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Check that `data` holds whole tuples of `schema` in canonical order (key
/// order, then the remaining attributes), the invariant of [`Relation`].
///
/// # Errors
///
/// Returns [`RelationalError::MalformedData`] if `data.len()` is not a
/// multiple of the schema arity and [`RelationalError::NotSorted`] at the
/// first tuple that compares below its predecessor.
pub fn check_sorted(schema: &Schema, data: &[u64]) -> Result<()> {
    let arity = schema.arity();
    if !data.len().is_multiple_of(arity) {
        return Err(RelationalError::MalformedData {
            words: data.len(),
            arity,
        });
    }
    match first_unsorted(schema, data) {
        Some(index) => Err(RelationalError::NotSorted { index }),
        None => Ok(()),
    }
}

/// First tuple index (if any) that compares below its predecessor.
fn first_unsorted(schema: &Schema, data: &[u64]) -> Option<usize> {
    let arity = schema.arity();
    data.chunks_exact(arity)
        .zip(data.chunks_exact(arity).skip(1))
        .position(|(a, b)| compare_tuples(schema, a, b) == Ordering::Greater)
        .map(|i| i + 1)
}

/// Whether tuples of `data` that compare equal are bit-identical.
///
/// True unless an F32 word has any of its high 32 bits set: the order
/// compares F32 attributes by their low 32 bits only, so such rows can
/// compare equal yet differ in bytes, and then their relative order is
/// observable.
pub fn equal_rows_are_identical(schema: &Schema, data: &[u64]) -> bool {
    let floats = f32_attrs(schema);
    floats.is_empty()
        || data
            .chunks_exact(schema.arity())
            .all(|t| floats.iter().all(|&a| t[a] >> 32 == 0))
}

/// Indices of the F32 attributes of `schema`.
fn f32_attrs(schema: &Schema) -> Vec<usize> {
    (0..schema.arity())
        .filter(|&a| schema.attr(a) == AttrType::F32)
        .collect()
}

/// Compare a tuple's key against a probe key that may be shorter than the
/// full key (prefix comparison over `probe.len()` attributes).
fn compare_key_to_probe(schema: &Schema, tuple: &[u64], probe: &[u64]) -> Ordering {
    let n = probe.len().min(schema.key_arity());
    for k in 0..n {
        let ord = compare_words(tuple[k], probe[k], schema.attr(k));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Widest tuple, in words, that [`sort_words`] sorts in place as a
/// fixed-size row.
const MAX_ROW_SORT_ARITY: usize = 16;

/// Sort raw tuple words into canonical order: by key, then by the remaining
/// attributes, to make operator outputs deterministic.
///
/// Tuples of up to [`MAX_ROW_SORT_ARITY`] words are sorted in place as
/// `[u64; N]` rows: each F32 word is first mapped to its [`f32::total_cmp`]
/// image, so plain integer order on the row is [`compare_tuples`] order, and
/// mapped back afterwards. Rows that compare equal are then bit-identical,
/// so an unstable sort gives the same result as a stable one. Wider tuples,
/// and data where that does not hold (see [`equal_rows_are_identical`]),
/// take a stable comparator sort. Sorted input is a linear pass either way.
pub(crate) fn sort_words(schema: &Schema, data: &mut Vec<u64>) {
    let arity = schema.arity();
    if data.len() <= arity {
        return;
    }
    if arity > MAX_ROW_SORT_ARITY || !equal_rows_are_identical(schema, data) {
        sort_by_comparator(schema, data);
        return;
    }
    let floats = f32_attrs(schema);
    map_words(data, arity, &floats, f32_order_image);
    macro_rules! sort_rows_of {
        ($($n:literal)+) => {
            match arity {
                $($n => sort_rows::<$n>(data),)+
                _ => unreachable!("arity {arity} above MAX_ROW_SORT_ARITY"),
            }
        };
    }
    sort_rows_of!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
    map_words(data, arity, &floats, f32_from_order_image);
}

/// Sort `data` as rows of `N` words in lexicographic integer order.
fn sort_rows<const N: usize>(data: &mut [u64]) {
    let (rows, rest) = data.as_chunks_mut::<N>();
    debug_assert!(rest.is_empty(), "data is whole rows");
    rows.sort_unstable();
}

/// Apply `f` to attribute `a` of every row, for each `a` in `attrs`.
fn map_words(data: &mut [u64], arity: usize, attrs: &[usize], f: fn(u64) -> u64) {
    if attrs.is_empty() {
        return;
    }
    for row in data.chunks_exact_mut(arity) {
        for &a in attrs {
            row[a] = f(row[a]);
        }
    }
}

/// The F32 word's position in [`f32::total_cmp`] order, as an unsigned
/// 32-bit integer (negative floats flip every bit, non-negative ones only
/// the sign bit). The word's high 32 bits must be zero.
fn f32_order_image(w: u64) -> u64 {
    let b = w as u32;
    u64::from(if b >> 31 == 1 { !b } else { b | 0x8000_0000 })
}

/// Inverse of [`f32_order_image`].
fn f32_from_order_image(w: u64) -> u64 {
    let b = w as u32;
    u64::from(if b >> 31 == 1 { b & 0x7fff_ffff } else { !b })
}

/// Stable sort under [`compare_tuples`], through a permutation of row
/// indices: exact even when rows that compare equal differ in bytes.
fn sort_by_comparator(schema: &Schema, data: &mut Vec<u64>) {
    let arity = schema.arity();
    let row = |i: usize| &data[i * arity..(i + 1) * arity];
    let mut order: Vec<usize> = (0..data.len() / arity).collect();
    order.sort_by(|&a, &b| compare_tuples(schema, row(a), row(b)));
    *data = order.iter().flat_map(|&i| row(i)).copied().collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn schema2() -> Schema {
        Schema::new(vec![AttrType::U32, AttrType::U32], 1)
    }

    #[test]
    fn sorts_on_construction() {
        let r = Relation::from_words(schema2(), vec![5, 50, 1, 10, 3, 30]).unwrap();
        assert!(r.is_sorted());
        assert_eq!(r.tuple(0), &[1, 10]);
        assert_eq!(r.tuple(2), &[5, 50]);
    }

    #[test]
    fn from_sorted_rejects_unsorted() {
        let err = Relation::from_sorted_words(schema2(), vec![5, 50, 1, 10]).unwrap_err();
        assert_eq!(err, RelationalError::NotSorted { index: 1 });
    }

    #[test]
    fn from_sorted_requires_order_beyond_the_key() {
        // Key order holds (every key is 1), full-tuple order does not; a
        // relation accepted here would make `unique` keep three tuples.
        let err = Relation::from_sorted_words(schema2(), vec![1, 5, 1, 3, 1, 5]).unwrap_err();
        assert_eq!(err, RelationalError::NotSorted { index: 1 });
        let sorted = Relation::from_words(schema2(), vec![1, 5, 1, 3, 1, 5]).unwrap();
        assert_eq!(crate::ops::unique(&sorted).unwrap().len(), 2);
        assert!(Relation::from_sorted_words(schema2(), sorted.words().to_vec()).is_ok());
    }

    #[test]
    fn malformed_data_rejected() {
        assert!(matches!(
            Relation::from_words(schema2(), vec![1, 2, 3]),
            Err(RelationalError::MalformedData { .. })
        ));
    }

    #[test]
    fn from_rows_type_checks() {
        let rows = vec![vec![Value::U32(1), Value::F32(1.0)]];
        assert!(matches!(
            Relation::from_rows(schema2(), &rows),
            Err(RelationalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn bounds() {
        let r = Relation::from_words(schema2(), vec![1, 0, 3, 0, 3, 1, 7, 0]).unwrap();
        assert_eq!(r.lower_bound(&[3]), 1);
        assert_eq!(r.upper_bound(&[3]), 3);
        assert_eq!(r.lower_bound(&[0]), 0);
        assert_eq!(r.lower_bound(&[8]), 4);
    }

    #[test]
    fn byte_size_uses_packed_widths() {
        let s = Schema::new(vec![AttrType::U32, AttrType::Bool], 1);
        let r = Relation::from_words(s, vec![1, 1, 2, 0]).unwrap();
        assert_eq!(r.byte_size(), 2 * 5);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(schema2());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.is_sorted());
        assert_eq!(r.lower_bound(&[1]), 0);
    }

    #[test]
    fn debug_nonempty() {
        let r = Relation::empty(schema2());
        assert!(!format!("{r:?}").is_empty());
    }

    /// A plain stable comparator sort: the reference the in-place row sort
    /// must reproduce exactly.
    fn reference_sort(schema: &Schema, data: &mut Vec<u64>) {
        let arity = schema.arity();
        if arity == 0 || data.is_empty() {
            return;
        }
        let mut tuples: Vec<&[u64]> = data.chunks_exact(arity).collect();
        tuples.sort_by(|a, b| compare_tuples(schema, a, b));
        let sorted: Vec<u64> = tuples.into_iter().flatten().copied().collect();
        *data = sorted;
    }

    /// F32 words with ordering edge cases: signed zeros, NaNs of both signs
    /// and several payloads, infinities, subnormals and ordinary values.
    const F32_SPECIALS: [u32; 12] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x7fc0_0000, // quiet NaN
        0x7f80_0001, // NaN with payload 1
        0xffc0_0000, // negative NaN
        0xffff_ffff, // negative NaN, full payload
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x0000_0001, // smallest subnormal
        0x8000_0001, // negative subnormal
        0x3fc0_0000, // 1.5
        0xc010_0000, // -2.25
    ];

    /// Random rows: arities 1-24 over all four attribute types, heavy
    /// duplication, F32 edge cases, and in some cases F32 words with high
    /// bits set.
    struct Rows;

    impl Strategy for Rows {
        type Value = (Schema, Vec<u64>);

        fn generate(&self, rng: &mut TestRng) -> (Schema, Vec<u64>) {
            let types = [AttrType::U32, AttrType::U64, AttrType::F32, AttrType::Bool];
            let arity = rng.usize_in(1, 25);
            let attrs: Vec<AttrType> = (0..arity).map(|_| types[rng.usize_in(0, 4)]).collect();
            let key_arity = rng.usize_in(0, arity + 1);
            let schema = Schema::new(attrs, key_arity);
            let wide_f32 = rng.usize_in(0, 6) == 0;
            let domain = [2, 4, 1 << 16][rng.usize_in(0, 3)];
            let n = rng.usize_in(0, 300);
            let mut data: Vec<u64> = Vec::with_capacity(n * arity);
            for i in 0..n {
                if i > 0 && rng.usize_in(0, 3) == 0 {
                    // A duplicate of an earlier row.
                    let j = rng.usize_in(0, i);
                    data.extend_from_within(j * arity..(j + 1) * arity);
                    continue;
                }
                for &ty in schema.attrs() {
                    let small = rng.next_u64() % domain;
                    data.push(match ty {
                        AttrType::U32 => small.min(u64::from(u32::MAX)),
                        AttrType::U64 if rng.usize_in(0, 4) == 0 => rng.next_u64(),
                        AttrType::U64 => small,
                        AttrType::Bool => small % 2,
                        AttrType::F32 => {
                            let low = if rng.usize_in(0, 2) == 0 {
                                F32_SPECIALS[rng.usize_in(0, F32_SPECIALS.len())]
                            } else {
                                (small as f32 - 2.0).to_bits()
                            };
                            let high = if wide_f32 { rng.next_u64() % 3 } else { 0 };
                            (high << 32) | u64::from(low)
                        }
                    });
                }
            }
            (schema, data)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `from_words` produces exactly the reference comparator sort, on
        /// shuffled, sorted and reversed input.
        #[test]
        fn prop_sort_matches_reference((schema, words) in Rows) {
            let mut expected = words.clone();
            reference_sort(&schema, &mut expected);
            let rel = Relation::from_words(schema.clone(), words).unwrap();
            prop_assert_eq!(rel.words(), &expected[..]);
            prop_assert!(rel.is_sorted());
            let again = Relation::from_words(schema.clone(), expected.clone()).unwrap();
            prop_assert_eq!(again.words(), &expected[..]);
            let arity = schema.arity();
            let reversed: Vec<u64> = expected.rchunks(arity).flatten().copied().collect();
            let mut expected_rev = reversed.clone();
            reference_sort(&schema, &mut expected_rev);
            let rel = Relation::from_words(schema, reversed).unwrap();
            prop_assert_eq!(rel.words(), &expected_rev[..]);
        }
    }

    #[test]
    fn f32_order_image_is_total_cmp_order() {
        let mut words: Vec<u32> = F32_SPECIALS.to_vec();
        words.extend([0x7f7f_ffff, 0xff7f_ffff, 0x7fff_ffff, 0x0080_0000]);
        for &a in &words {
            let img = f32_order_image(u64::from(a));
            assert_eq!(f32_from_order_image(img), u64::from(a));
            for &b in &words {
                let expected = f32::from_bits(a).total_cmp(&f32::from_bits(b));
                assert_eq!(
                    img.cmp(&f32_order_image(u64::from(b))),
                    expected,
                    "{a:#x} {b:#x}"
                );
            }
        }
    }
}
