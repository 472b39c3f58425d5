//! The [`Relation`] container, a densely packed, key-sorted array of tuples,
//! and [`RelView`], a borrowed run of such tuples.
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
/// key order. Operators read a relation through its [`RelView`].
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
    /// Returns [`RelationalError::MalformedData`] if `data.len()` is not a
    /// multiple of the schema arity and [`RelationalError::NotSorted`] at the
    /// first tuple that compares below its predecessor.
    pub fn from_sorted_words(schema: Schema, data: Vec<u64>) -> Result<Relation> {
        check_sorted(&schema, &data)?;
        Ok(Relation { schema, data })
    }

    /// Wrap words that are canonical by construction: an ordered
    /// subsequence or an ordered merge of canonical rows. Only debug builds
    /// check the order.
    pub(crate) fn from_canonical_words(schema: Schema, data: Vec<u64>) -> Relation {
        debug_assert_eq!(
            check_sorted(&schema, &data),
            Ok(()),
            "rows built as canonical are not"
        );
        Relation { schema, data }
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

    /// Merge relations of `schema` into one, in canonical order: a stable
    /// k-way merge in which an earlier part wins ties. The result is
    /// therefore [`Relation::from_words`] of the parts' concatenation, word
    /// for word, even where rows that compare equal differ in bytes (F32
    /// words with high bits set).
    ///
    /// The parts are merged pairwise, neighbour with neighbour, in
    /// `⌈log2 k⌉` rounds; a pair whose later part starts at or after the
    /// end of the earlier one is concatenated without comparisons. A single
    /// part is returned as it is.
    ///
    /// # Examples
    ///
    /// ```
    /// use kw_relational::{Relation, Schema};
    /// let schema = Schema::uniform_u32(1);
    /// let a = Relation::from_words(schema.clone(), vec![1, 4])?;
    /// let b = Relation::from_words(schema.clone(), vec![2, 3])?;
    /// assert_eq!(Relation::merge(schema, vec![a, b])?.words(), &[1, 2, 3, 4]);
    /// # Ok::<(), kw_relational::RelationalError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`RelationalError::SchemaMismatch`] if a part's schema is not
    /// `schema`.
    pub fn merge(schema: Schema, parts: Vec<Relation>) -> Result<Relation> {
        if let Some(part) = parts.iter().find(|p| p.schema != schema) {
            return Err(RelationalError::SchemaMismatch {
                detail: format!("merging a {} part into {schema}", part.schema),
            });
        }
        let mut runs: Vec<Vec<u64>> = parts
            .into_iter()
            .map(|p| p.data)
            .filter(|d| !d.is_empty())
            .collect();
        while runs.len() > 1 {
            let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
            let mut pairs = runs.into_iter();
            while let Some(first) = pairs.next() {
                merged.push(match pairs.next() {
                    Some(second) => merge_runs(&schema, &first, &second),
                    None => first,
                });
            }
            runs = merged;
        }
        let data = runs.pop().unwrap_or_default();
        Ok(Relation::from_canonical_words(schema, data))
    }

    /// The schema of this relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The whole relation as a view, the form every operator reads.
    pub fn view(&self) -> RelView<'_> {
        RelView {
            schema: &self.schema,
            data: &self.data,
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// Whether the relation contains no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total packed size on the device, in bytes.
    pub fn byte_size(&self) -> usize {
        self.view().byte_size()
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
        self.view().tuple(i)
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
        self.view().iter()
    }

    /// Compare the keys of two raw tuples under this relation's schema.
    pub fn compare_keys(&self, a: &[u64], b: &[u64]) -> Ordering {
        compare_keys(&self.schema, a, b)
    }

    /// Index of the first tuple whose key is `>=` the key of `probe`
    /// (lower bound by binary search). `probe` needs only `key_arity` words.
    pub fn lower_bound(&self, probe: &[u64]) -> usize {
        self.view().lower_bound(probe)
    }

    /// Index of the first tuple whose key is `>` the key of `probe`
    /// (upper bound by binary search).
    pub fn upper_bound(&self, probe: &[u64]) -> usize {
        self.view().upper_bound(probe)
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
        self.view().fmt_rows("Relation", f)
    }
}

/// A borrowed run of tuples in canonical order: a schema plus row-major
/// words, as in a [`Relation`].
///
/// The order holds by construction. A view is made from a [`Relation`]
/// ([`Relation::view`], or `From<&Relation>`), by sub-slicing the rows of
/// another view ([`RelView::slice`]), or by one order check
/// ([`RelView::checked`]); there is no other constructor. Every operator in
/// [`crate::ops`] reads its inputs as views, so none re-checks their order,
/// and the rows a view selects or splits off ([`RelView::filter`],
/// [`RelView::split`]) are relations without a check either: an ordered
/// subsequence of canonical rows is canonical.
///
/// # Examples
///
/// ```
/// use kw_relational::{RelView, Relation, Schema};
/// let rel = Relation::from_words(Schema::uniform_u32(1), vec![3, 1, 2])?;
/// let tail = rel.view().slice(1, 3);
/// assert_eq!(tail.words(), &[2, 3]);
/// assert!(RelView::checked(rel.schema(), &[3, 1]).is_err());
/// # Ok::<(), kw_relational::RelationalError>(())
/// ```
#[derive(Clone, Copy)]
pub struct RelView<'a> {
    schema: &'a Schema,
    data: &'a [u64],
}

impl<'a> RelView<'a> {
    /// View `data` as tuples of `schema`, checking once that they are whole
    /// tuples in canonical order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Relation::from_sorted_words`].
    pub fn checked(schema: &'a Schema, data: &'a [u64]) -> Result<RelView<'a>> {
        check_sorted(schema, data)?;
        Ok(RelView { schema, data })
    }

    /// The schema of the viewed tuples.
    pub fn schema(self) -> &'a Schema {
        self.schema
    }

    /// Raw word storage (row-major).
    pub fn words(self) -> &'a [u64] {
        self.data
    }

    /// Number of tuples.
    pub fn len(self) -> usize {
        if self.data.is_empty() {
            0
        } else {
            self.data.len() / self.schema.arity()
        }
    }

    /// Whether the view holds no tuples.
    pub fn is_empty(self) -> bool {
        self.data.is_empty()
    }

    /// Total packed size on the device, in bytes.
    pub fn byte_size(self) -> usize {
        self.len() * self.schema.tuple_bytes()
    }

    /// The raw words of tuple `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn tuple(self, i: usize) -> &'a [u64] {
        let a = self.schema.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterate over tuples as raw word slices.
    pub fn iter(self) -> std::slice::ChunksExact<'a, u64> {
        self.data.chunks_exact(self.schema.arity().max(1))
    }

    /// Tuples `start..end` of this view.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(self, start: usize, end: usize) -> RelView<'a> {
        let a = self.schema.arity();
        RelView {
            schema: self.schema,
            data: &self.data[start * a..end * a],
        }
    }

    /// Index of the first tuple whose key is `>=` the key of `probe`
    /// (lower bound by binary search). `probe` needs only `key_arity` words.
    pub fn lower_bound(self, probe: &[u64]) -> usize {
        self.bound(probe, true)
    }

    /// Index of the first tuple whose key is `>` the key of `probe`
    /// (upper bound by binary search).
    pub fn upper_bound(self, probe: &[u64]) -> usize {
        self.bound(probe, false)
    }

    fn bound(self, probe: &[u64], lower: bool) -> usize {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let ord = compare_key_to_probe(self.schema, self.tuple(mid), probe);
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

    /// A copy of the viewed tuples as an owned relation.
    pub fn to_relation(self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            data: self.data.to_vec(),
        }
    }

    /// The tuples whose flag in `keep` is set, in order ([`keep_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.len()`.
    pub fn filter(self, keep: &[bool]) -> Relation {
        assert_eq!(keep.len(), self.len(), "one flag per tuple");
        let data = keep_rows(self.data, self.schema.arity(), keep);
        Relation::from_canonical_words(self.schema.clone(), data)
    }

    /// Split the tuples into `parts` relations, tuple `t` going to part
    /// `part_of(t)`, each keeping the tuples' order. `part_of` runs once
    /// per tuple, and every part is allocated at its final size.
    ///
    /// # Panics
    ///
    /// Panics if `part_of` returns an index `>= parts`.
    pub fn split(self, parts: usize, part_of: impl Fn(&[u64]) -> usize) -> Vec<Relation> {
        let mut sizes = vec![0usize; parts];
        let part: Vec<usize> = self
            .iter()
            .map(|t| {
                let p = part_of(t);
                sizes[p] += t.len();
                p
            })
            .collect();
        let mut data: Vec<Vec<u64>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (t, &p) in self.iter().zip(&part) {
            data[p].extend_from_slice(t);
        }
        data.into_iter()
            .map(|words| Relation::from_canonical_words(self.schema.clone(), words))
            .collect()
    }

    /// Debug rendering shared with [`Relation`]: the schema, the tuple count
    /// and the first eight tuples.
    fn fmt_rows(self, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{name}{} [{} tuples]", self.schema, self.len())?;
        let show = self.len().min(8);
        for i in 0..show {
            write!(f, "\n  (")?;
            for (a, &w) in self.tuple(i).iter().enumerate() {
                if a > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", Value::decode(w, self.schema.attr(a)))?;
            }
            write!(f, ")")?;
        }
        if self.len() > show {
            write!(f, "\n  ... {} more", self.len() - show)?;
        }
        Ok(())
    }
}

impl<'a> From<&'a Relation> for RelView<'a> {
    fn from(rel: &'a Relation) -> RelView<'a> {
        rel.view()
    }
}

impl fmt::Debug for RelView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_rows("RelView", f)
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
/// Only the checked constructors, [`Relation::from_sorted_words`] and
/// [`RelView::checked`], and debug assertions call it.
///
/// # Errors
///
/// Returns [`RelationalError::MalformedData`] if `data.len()` is not a
/// multiple of the schema arity and [`RelationalError::NotSorted`] at the
/// first tuple that compares below its predecessor.
fn check_sorted(schema: &Schema, data: &[u64]) -> Result<()> {
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

/// Widest tuple, in words, that [`sort_words`] and [`keep_rows`] move as
/// one fixed-size `[u64; N]` row.
const MAX_ROW_ARITY: usize = 16;

/// `$f::<N>($args)` for `N` = `$arity`, an arity from 1 to
/// [`MAX_ROW_ARITY`].
macro_rules! with_row_arity {
    ($arity:expr, $f:ident $args:tt) => {
        with_row_arity!(@ $arity, $f $args; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    };
    (@ $arity:expr, $f:ident $args:tt; $($n:literal)+) => {
        match $arity {
            $($n => $f::<$n> $args,)+
            a => unreachable!("arity {a} outside 1..=MAX_ROW_ARITY"),
        }
    };
}

/// The rows of `words`, whole rows of `arity` words, row-major, whose flag
/// in `keep` is set, in order, in a buffer of exactly their size.
///
/// This is SELECT as a stream compaction, the way the fused kernels run it:
/// the flags become the kept rows' positions without a branch, and each kept
/// row is then copied once to its place, as one `[u64; N]` row for arities up
/// to 16 and word by word for wider ones. Both
/// [`RelView::filter`] and the kernel-IR interpreter's Filter of plain rows
/// select through it.
///
/// # Panics
///
/// Panics if `arity` is zero or `words.len() != keep.len() * arity`.
pub fn keep_rows(words: &[u64], arity: usize, keep: &[bool]) -> Vec<u64> {
    assert!(
        arity > 0 && words.len() == keep.len() * arity,
        "whole rows of a non-zero arity, one flag per row"
    );
    let mut positions = vec![0; keep.len()];
    let mut kept = 0;
    for (i, &k) in keep.iter().enumerate() {
        positions[kept] = i;
        kept += usize::from(k);
    }
    positions.truncate(kept);
    if arity > MAX_ROW_ARITY {
        let mut out = vec![0; kept * arity];
        for (row, &i) in out.chunks_exact_mut(arity).zip(&positions) {
            row.copy_from_slice(&words[i * arity..(i + 1) * arity]);
        }
        return out;
    }
    with_row_arity!(arity, gather_rows(words, &positions))
}

/// The `N`-word rows of `words` at `positions`, in that order.
fn gather_rows<const N: usize>(words: &[u64], positions: &[usize]) -> Vec<u64> {
    let (rows, rest) = words.as_chunks::<N>();
    debug_assert!(rest.is_empty(), "words are whole rows");
    let out: Vec<[u64; N]> = positions.iter().map(|&i| rows[i]).collect();
    out.into_flattened()
}

/// Sort raw tuple words into canonical order: by key, then by the remaining
/// attributes, to make operator outputs deterministic.
///
/// Tuples of up to [`MAX_ROW_ARITY`] words are sorted in place as
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
    if arity > MAX_ROW_ARITY || !equal_rows_are_identical(schema, data) {
        sort_by_comparator(schema, data);
        return;
    }
    let floats = f32_attrs(schema);
    map_words(data, arity, &floats, f32_order_image);
    with_row_arity!(arity, sort_rows(data));
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
/// the sign bit). Like [`compare_words`] it reads only the low 32 bits, so
/// [`f32_from_order_image`] restores the word only if its high bits are zero.
pub(crate) fn f32_order_image(w: u64) -> u64 {
    let b = w as u32;
    u64::from(if b >> 31 == 1 { !b } else { b | 0x8000_0000 })
}

/// Inverse of [`f32_order_image`].
fn f32_from_order_image(w: u64) -> u64 {
    let b = w as u32;
    u64::from(if b >> 31 == 1 { b & 0x7fff_ffff } else { !b })
}

/// Merge two runs of canonical rows of `schema` into one buffer of exactly
/// their size; on ties the row of `first` goes first.
fn merge_runs(schema: &Schema, first: &[u64], second: &[u64]) -> Vec<u64> {
    let arity = schema.arity();
    // Without F32 attributes, canonical order is the rows' integer order.
    let plain = f32_attrs(schema).is_empty();
    let below = |a: &[u64], b: &[u64]| {
        if plain {
            a < b
        } else {
            compare_tuples(schema, a, b) == Ordering::Less
        }
    };
    let mut out = Vec::with_capacity(first.len() + second.len());
    let (mut i, mut j) = (0, 0);
    if below(&second[..arity], &first[first.len() - arity..]) {
        while i < first.len() && j < second.len() {
            let (a, b) = (&first[i..i + arity], &second[j..j + arity]);
            if below(b, a) {
                out.extend_from_slice(b);
                j += arity;
            } else {
                out.extend_from_slice(a);
                i += arity;
            }
        }
    }
    out.extend_from_slice(&first[i..]);
    out.extend_from_slice(&second[j..]);
    out
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
pub(crate) mod tests {
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
    pub(crate) struct Rows;

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

    /// Random indices `lo <= hi <= n`.
    fn range_in(rng: &mut TestRng, n: usize) -> (usize, usize) {
        let a = rng.usize_in(0, n + 1);
        let b = rng.usize_in(0, n + 1);
        (a.min(b), a.max(b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A sub-slice of a view, and a sub-slice of that, are canonical:
        /// the checked constructors accept their words as they are.
        #[test]
        fn prop_sub_slices_stay_canonical((schema, words) in Rows, seed in any::<u32>()) {
            let rel = Relation::from_words(schema.clone(), words).unwrap();
            let mut rng = TestRng::for_case("picks", seed);
            let (lo, hi) = range_in(&mut rng, rel.len());
            let slice = rel.view().slice(lo, hi);
            prop_assert_eq!(slice.len(), hi - lo);
            let arity = schema.arity();
            prop_assert_eq!(slice.words(), &rel.words()[lo * arity..hi * arity]);
            prop_assert!(RelView::checked(&schema, slice.words()).is_ok());
            let copy = Relation::from_sorted_words(schema.clone(), slice.words().to_vec());
            prop_assert_eq!(copy.as_ref(), Ok(&slice.to_relation()));
            let (a, b) = range_in(&mut rng, slice.len());
            let inner = slice.slice(a, b);
            prop_assert_eq!(inner.words(), rel.view().slice(lo + a, lo + b).words());
            prop_assert!(RelView::checked(&schema, inner.words()).is_ok());
        }

        /// `RelView::checked` and `Relation::from_sorted_words` accept and
        /// reject the same words, at the same `NotSorted` index.
        #[test]
        fn prop_checked_rejects_like_from_sorted_words((schema, words) in Rows, cut in 0usize..3) {
            // Whole tuples, plus (for `cut == 2`) one stray word.
            let mut words = words;
            if cut == 2 {
                words.push(0);
            }
            let view = RelView::checked(&schema, &words).map(RelView::len);
            let rel = Relation::from_sorted_words(schema.clone(), words.clone());
            prop_assert_eq!(view, rel.map(|r| r.len()));
        }

        /// The tuples a view filters or splits off keep canonical order.
        #[test]
        fn prop_filter_and_split_stay_canonical((schema, words) in Rows, seed in any::<u32>()) {
            let rel = Relation::from_words(schema.clone(), words).unwrap();
            let mut rng = TestRng::for_case("picks", seed);
            let keep: Vec<bool> = (0..rel.len()).map(|_| rng.usize_in(0, 2) == 1).collect();
            let kept = rel.view().filter(&keep);
            prop_assert!(kept.is_sorted());
            let expected: Vec<u64> = rel
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .flat_map(|(t, _)| t.iter().copied())
                .collect();
            prop_assert_eq!(kept.words(), &expected[..]);

            let parts = rng.usize_in(1, 5);
            let split = rel.view().split(parts, |t| (t[0] % parts as u64) as usize);
            prop_assert_eq!(split.len(), parts);
            let mut rows = 0;
            for (p, part) in split.iter().enumerate() {
                prop_assert!(part.is_sorted());
                prop_assert!(part.iter().all(|t| (t[0] % parts as u64) as usize == p));
                rows += part.len();
            }
            prop_assert_eq!(rows, rel.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Merging 1-8 canonical parts gives `from_words` of their
        /// concatenation, word for word: parts that interleave (each row
        /// dealt to a random part) or do not overlap (the sorted rows cut
        /// at random points, in either order), empty parts, duplicates and
        /// compare-equal F32 rows that differ in their high bits.
        #[test]
        fn prop_merge_is_from_words_of_the_concatenation(
            (schema, words) in Rows,
            seed in any::<u32>(),
        ) {
            let mut rng = TestRng::for_case("parts", seed);
            let arity = schema.arity();
            let k = rng.usize_in(1, 9);
            let mut dealt = vec![Vec::new(); k];
            if rng.usize_in(0, 2) == 0 {
                for row in words.chunks_exact(arity) {
                    dealt[rng.usize_in(0, k)].extend_from_slice(row);
                }
            } else {
                let sorted = Relation::from_words(schema.clone(), words.clone()).unwrap();
                let mut cuts: Vec<usize> =
                    (1..k).map(|_| rng.usize_in(0, sorted.len() + 1)).collect();
                cuts.push(0);
                cuts.push(sorted.len());
                cuts.sort_unstable();
                for (part, cut) in dealt.iter_mut().zip(cuts.windows(2)) {
                    part.extend_from_slice(sorted.view().slice(cut[0], cut[1]).words());
                }
                if rng.usize_in(0, 2) == 0 {
                    dealt.reverse();
                }
            }
            let parts: Vec<Relation> = dealt
                .into_iter()
                .map(|w| Relation::from_words(schema.clone(), w).unwrap())
                .collect();
            let concatenated: Vec<u64> = parts.iter().flat_map(|p| p.words().to_vec()).collect();
            let expected = Relation::from_words(schema.clone(), concatenated).unwrap();
            let merged = Relation::merge(schema.clone(), parts).unwrap();
            prop_assert_eq!(merged.words(), expected.words());
        }
    }

    #[test]
    fn merge_rejects_a_part_of_another_schema() {
        let part = Relation::from_words(Schema::uniform_u32(1), vec![1]).unwrap();
        let err = Relation::merge(schema2(), vec![part]).unwrap_err();
        assert!(matches!(err, RelationalError::SchemaMismatch { .. }));
        assert_eq!(
            Relation::merge(schema2(), Vec::new()).unwrap(),
            Relation::empty(schema2())
        );
    }

    /// The reference [`keep_rows`] must reproduce: the kept rows, one at a
    /// time.
    fn reference_keep(words: &[u64], arity: usize, keep: &[bool]) -> Vec<u64> {
        words
            .chunks_exact(arity)
            .zip(keep)
            .filter(|(_, &k)| k)
            .flat_map(|(t, _)| t.iter().copied())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `keep_rows` returns exactly the per-row reference's rows, in a
        /// buffer of their size, for every arity from 1 to 20 (above 16 the
        /// word-by-word copy) and masks that keep every row, none, every
        /// other one, or a random 2%, 50% or 96%, over zero or more rows.
        #[test]
        fn prop_keep_rows_matches_per_row_reference(seed in any::<u32>()) {
            let mut rng = TestRng::for_case("keep", seed);
            let rows = if rng.usize_in(0, 8) == 0 { 0 } else { rng.usize_in(1, 600) };
            for arity in 1..=20 {
                let words: Vec<u64> = (0..rows * arity).map(|_| rng.next_u64()).collect();
                for mask in 0..6 {
                    let keep: Vec<bool> = (0..rows)
                        .map(|i| match mask {
                            0 => true,
                            1 => false,
                            2 => i % 2 == 0,
                            3 => rng.usize_in(0, 50) == 0,
                            4 => rng.usize_in(0, 2) == 0,
                            _ => rng.usize_in(0, 25) != 0,
                        })
                        .collect();
                    let kept = keep_rows(&words, arity, &keep);
                    prop_assert_eq!(&kept, &reference_keep(&words, arity, &keep));
                    prop_assert_eq!(kept.capacity(), kept.len());
                }
            }
        }
    }

    #[test]
    fn views_of_empty_relations() {
        let empty = Relation::empty(schema2());
        let view = empty.view();
        assert!(view.is_empty());
        assert_eq!(view.len(), 0);
        assert_eq!(view.byte_size(), 0);
        assert_eq!(view.iter().count(), 0);
        assert_eq!(view.lower_bound(&[1]), 0);
        assert_eq!(view.upper_bound(&[1]), 0);
        assert!(view.slice(0, 0).is_empty());
        assert_eq!(view.to_relation(), empty);
        assert_eq!(view.filter(&[]), empty);
        assert_eq!(view.split(3, |_| 0), vec![empty.clone(); 3]);
        assert!(RelView::checked(&schema2(), &[]).unwrap().is_empty());
        assert_eq!(crate::ops::unique(view).unwrap(), empty);
        // An empty slice of a non-empty relation, at either end.
        let r = Relation::from_words(schema2(), vec![1, 10, 2, 20]).unwrap();
        assert!(r.view().slice(0, 0).is_empty());
        assert!(r.view().slice(2, 2).is_empty());
        assert_eq!(
            format!("{:?}", r.view().slice(1, 1)),
            "RelView(*u32, u32) [0 tuples]"
        );
    }

    #[test]
    fn view_bounds_and_debug_match_the_relation() {
        let r = Relation::from_words(schema2(), vec![1, 0, 3, 0, 3, 1, 7, 0]).unwrap();
        let v = RelView::from(&r);
        assert_eq!(v.lower_bound(&[3]), r.lower_bound(&[3]));
        assert_eq!(v.upper_bound(&[3]), r.upper_bound(&[3]));
        assert_eq!(v.slice(1, 4).lower_bound(&[7]), 2);
        assert_eq!(
            format!("{v:?}").replacen("RelView", "Relation", 1),
            format!("{r:?}")
        );
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
