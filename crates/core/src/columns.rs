//! Columnar (struct-of-arrays) batch storage — the hot-path twin of
//! [`Batch`].
//!
//! [`Batch`] stores an array of 28-byte [`StreamItem`] structs. Every
//! kernel that cares about one field — stratum grouping reads `stratum`,
//! weight/value sums read `value`, the codec writes all four — still
//! drags whole items through the cache and defeats vectorization. A
//! [`ColumnarBatch`] keeps the same logical content as four separate
//! contiguous buffers (`strata`, `values`, `seqs`, `source_ts`) plus the
//! [`WeightMap`], so:
//!
//! * stratum grouping ([`crate::StrataIndex::build_columns`]) scans a flat
//!   `&[u32]`,
//! * value sums reduce over a flat `&[f64]` the compiler auto-vectorizes,
//! * Floyd's selection and SRS draws gather survivors **by index** into
//!   column outputs instead of copying whole structs, and
//! * the wire codec's columnar frame (v2) is a handful of bulk
//!   `extend_from_slice`/`copy_from_slice` calls per frame.
//!
//! The conversion contract: a `ColumnarBatch` and the [`Batch`] it was
//! built from describe the same items in the same order, so
//! [`ColumnarBatch::from_batch`] followed by [`ColumnarBatch::to_batch`]
//! is the identity. `Batch` stays the API-boundary type (examples,
//! workload generators, the sim engine); `ColumnarBatch` is what the
//! threaded pipeline moves between decode, sampling and encode.

use crate::batch::Batch;
use crate::item::{StratumId, StreamItem};
use crate::weight::WeightMap;

/// A batch stored as struct-of-arrays: one contiguous buffer per
/// [`StreamItem`] field, plus the weight metadata.
///
/// All four columns always have the same length; every mutator preserves
/// that invariant.
///
/// # Examples
///
/// ```
/// use approxiot_core::{Batch, ColumnarBatch, StratumId, StreamItem};
///
/// let aos = Batch::from_items(vec![
///     StreamItem::with_meta(StratumId::new(3), 1.5, 7, 100),
///     StreamItem::with_meta(StratumId::new(0), 2.5, 8, 200),
/// ]);
/// let cols = ColumnarBatch::from_batch(&aos);
/// assert_eq!(cols.len(), 2);
/// assert_eq!(cols.strata, vec![3, 0]);
/// assert_eq!(cols.values, vec![1.5, 2.5]);
/// assert_eq!(cols.to_batch(), aos); // lossless round-trip
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnarBatch {
    /// Weight metadata accompanying the items (possibly partial).
    pub weights: WeightMap,
    /// Raw stratum ids, one per item ([`StratumId::index`] values).
    pub strata: Vec<u32>,
    /// Item values, one per item.
    pub values: Vec<f64>,
    /// Source-assigned sequence numbers, one per item.
    pub seqs: Vec<u64>,
    /// Source event timestamps (nanoseconds), one per item.
    pub source_ts: Vec<u64>,
}

impl ColumnarBatch {
    /// Creates an empty columnar batch.
    pub fn new() -> Self {
        ColumnarBatch::default()
    }

    /// Creates an empty batch with room for `n` items in every column.
    pub fn with_capacity(n: usize) -> Self {
        ColumnarBatch {
            weights: WeightMap::new(),
            strata: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
            seqs: Vec::with_capacity(n),
            source_ts: Vec::with_capacity(n),
        }
    }

    /// Number of items (the shared length of all four columns).
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.strata.len(), self.values.len());
        debug_assert_eq!(self.strata.len(), self.seqs.len());
        debug_assert_eq!(self.strata.len(), self.source_ts.len());
        self.strata.len()
    }

    /// Returns `true` when the batch carries no items.
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// Empties every column and the weight map, keeping the four column
    /// allocations — how the wire decoder and the samplers refill one
    /// reused column set per frame. The weight map's tree nodes are
    /// freed, so refilling it allocates again.
    pub fn clear(&mut self) {
        self.weights.clear();
        self.strata.clear();
        self.values.clear();
        self.seqs.clear();
        self.source_ts.clear();
    }

    /// Reserves room for `n` more items in every column.
    pub fn reserve(&mut self, n: usize) {
        self.strata.reserve(n);
        self.values.reserve(n);
        self.seqs.reserve(n);
        self.source_ts.reserve(n);
    }

    /// Appends one item, split across the columns.
    pub fn push(&mut self, item: StreamItem) {
        self.push_parts(item.stratum.index(), item.value, item.seq, item.source_ts);
    }

    /// Appends one item from its raw fields.
    pub fn push_parts(&mut self, stratum: u32, value: f64, seq: u64, source_ts: u64) {
        self.strata.push(stratum);
        self.values.push(value);
        self.seqs.push(seq);
        self.source_ts.push(source_ts);
    }

    /// Reassembles item `i` from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn item(&self, i: usize) -> StreamItem {
        StreamItem::with_meta(
            StratumId::new(self.strata[i]),
            self.values[i],
            self.seqs[i],
            self.source_ts[i],
        )
    }

    /// Iterates the items in order, reassembled from the columns.
    pub fn iter_items(&self) -> impl Iterator<Item = StreamItem> + '_ {
        (0..self.len()).map(move |i| self.item(i))
    }

    /// Sum of item values — a flat slice reduction the compiler can
    /// vectorize, unlike the field-hopping walk over `Vec<StreamItem>`.
    pub fn value_sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// A borrowed view of all four columns (the type sampling kernels and
    /// shard jobs take).
    pub fn view(&self) -> ColumnsView<'_> {
        ColumnsView {
            strata: &self.strata,
            values: &self.values,
            seqs: &self.seqs,
            source_ts: &self.source_ts,
        }
    }

    /// Bulk-appends `view[start..end]` — four `extend_from_slice` calls.
    pub fn extend_from_view(&mut self, view: ColumnsView<'_>, start: usize, end: usize) {
        self.strata.extend_from_slice(&view.strata[start..end]);
        self.values.extend_from_slice(&view.values[start..end]);
        self.seqs.extend_from_slice(&view.seqs[start..end]);
        self.source_ts
            .extend_from_slice(&view.source_ts[start..end]);
    }

    /// Appends the items of `view` at `positions`, in that order: one
    /// gather per column, so each column is reserved once and written
    /// without a per-item capacity check.
    pub(crate) fn extend_gathered<I>(&mut self, view: ColumnsView<'_>, positions: I)
    where
        I: Iterator<Item = usize> + Clone,
    {
        self.strata
            .extend(positions.clone().map(|src| view.strata[src]));
        self.values
            .extend(positions.clone().map(|src| view.values[src]));
        self.seqs
            .extend(positions.clone().map(|src| view.seqs[src]));
        self.source_ts
            .extend(positions.map(|src| view.source_ts[src]));
    }

    /// Builds a columnar batch from an AoS batch (one transposing pass;
    /// weights are cloned).
    pub fn from_batch(batch: &Batch) -> Self {
        let mut cols = ColumnarBatch::with_capacity(batch.len());
        cols.fill_from_batch(batch);
        cols
    }

    /// Refills this batch from an AoS batch, reusing all five allocations.
    pub fn fill_from_batch(&mut self, batch: &Batch) {
        self.clear();
        self.weights.merge_from(&batch.weights);
        self.reserve(batch.len());
        for item in &batch.items {
            self.push(*item);
        }
    }

    /// Converts back to an AoS batch (one transposing pass).
    pub fn to_batch(&self) -> Batch {
        let mut batch = Batch::new();
        self.fill_batch(&mut batch);
        batch
    }

    /// Refills an AoS batch from the columns, reusing its allocations.
    pub fn fill_batch(&self, batch: &mut Batch) {
        batch.clear();
        batch.weights.merge_from(&self.weights);
        batch.items.reserve(self.len());
        batch.items.extend(self.iter_items());
    }
}

impl From<&Batch> for ColumnarBatch {
    fn from(batch: &Batch) -> Self {
        ColumnarBatch::from_batch(batch)
    }
}

impl FromIterator<StreamItem> for ColumnarBatch {
    fn from_iter<I: IntoIterator<Item = StreamItem>>(iter: I) -> Self {
        let mut cols = ColumnarBatch::new();
        for item in iter {
            cols.push(item);
        }
        cols
    }
}

/// A borrowed view of the four item columns — what flat-slice kernels and
/// worker-shard jobs consume. Shard `idx` of `workers` simply takes
/// [`ColumnsView::range`] over the [`crate::shard_bounds`] `(start, end)`
/// pair; no per-shard item copies.
#[derive(Debug, Clone, Copy)]
pub struct ColumnsView<'a> {
    /// Raw stratum ids, one per item.
    pub strata: &'a [u32],
    /// Item values.
    pub values: &'a [f64],
    /// Sequence numbers.
    pub seqs: &'a [u64],
    /// Source event timestamps.
    pub source_ts: &'a [u64],
}

impl<'a> ColumnsView<'a> {
    /// Number of items in the view.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// Returns `true` when the view covers no items.
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// The sub-view covering items `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if `start..end` is out of bounds.
    pub fn range(&self, start: usize, end: usize) -> ColumnsView<'a> {
        ColumnsView {
            strata: &self.strata[start..end],
            values: &self.values[start..end],
            seqs: &self.seqs[start..end],
            source_ts: &self.source_ts[start..end],
        }
    }

    /// Reassembles item `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn item(&self, i: usize) -> StreamItem {
        StreamItem::with_meta(
            StratumId::new(self.strata[i]),
            self.values[i],
            self.seqs[i],
            self.source_ts[i],
        )
    }
}

/// Collects the distinct strata of a raw stratum column into `out`
/// (ascending) — the columnar twin of [`crate::distinct_strata_into`],
/// with the same run-aware scan: one push per stratum *run*, then
/// sort+dedup of the tiny list.
pub(crate) fn distinct_strata_u32_into(strata: &[u32], out: &mut Vec<StratumId>) {
    out.clear();
    let mut last = None;
    for &s in strata {
        if last != Some(s) {
            out.push(StratumId::new(s));
            last = Some(s);
        }
    }
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(stratum: u32, value: f64, seq: u64, ts: u64) -> StreamItem {
        StreamItem::with_meta(StratumId::new(stratum), value, seq, ts)
    }

    fn sample_batch() -> Batch {
        let mut batch = Batch::from_items(vec![
            item(1, 10.0, 1, 100),
            item(0, -2.5, 2, 200),
            item(1, 0.5, 3, 300),
        ]);
        batch.weights.set(StratumId::new(1), 2.0);
        batch
    }

    #[test]
    fn batch_roundtrip_is_identity() {
        let aos = sample_batch();
        let cols = ColumnarBatch::from_batch(&aos);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.to_batch(), aos);
        assert_eq!(ColumnarBatch::from(&aos), cols);
    }

    #[test]
    fn push_and_item_agree() {
        let mut cols = ColumnarBatch::new();
        cols.push(item(7, 1.5, 9, 90));
        cols.push_parts(8, 2.5, 10, 100);
        assert_eq!(cols.item(0), item(7, 1.5, 9, 90));
        assert_eq!(cols.item(1), item(8, 2.5, 10, 100));
        let all: Vec<_> = cols.iter_items().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn value_sum_matches_aos() {
        let aos = sample_batch();
        let cols = ColumnarBatch::from_batch(&aos);
        assert_eq!(cols.value_sum(), aos.value_sum());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut cols = ColumnarBatch::from_batch(&sample_batch());
        let cap = cols.strata.capacity();
        cols.clear();
        assert!(cols.is_empty());
        assert!(cols.weights.is_empty());
        assert_eq!(cols.strata.capacity(), cap);
    }

    #[test]
    fn view_range_and_extend() {
        let cols = ColumnarBatch::from_batch(&sample_batch());
        let view = cols.view();
        assert_eq!(view.len(), 3);
        let mid = view.range(1, 3);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid.item(0), cols.item(1));
        let mut out = ColumnarBatch::new();
        out.extend_from_view(view, 1, 3);
        assert_eq!(out.len(), 2);
        assert_eq!(out.item(1), cols.item(2));
    }

    #[test]
    fn fill_from_batch_reuses_storage() {
        let aos = sample_batch();
        let mut cols = ColumnarBatch::from_batch(&aos);
        let ptr = cols.strata.as_ptr();
        cols.fill_from_batch(&aos);
        assert_eq!(cols.strata.as_ptr(), ptr, "same allocation refilled");
        assert_eq!(cols.to_batch(), aos);
    }

    #[test]
    fn distinct_strata_u32_matches_aos_helper() {
        let aos = sample_batch();
        let cols = ColumnarBatch::from_batch(&aos);
        let mut from_cols = Vec::new();
        distinct_strata_u32_into(&cols.strata, &mut from_cols);
        let mut from_items = Vec::new();
        crate::batch::distinct_strata_into(&aos.items, &mut from_items);
        assert_eq!(from_cols, from_items);
    }

    #[test]
    fn collect_from_iterator() {
        let cols: ColumnarBatch = (0..5).map(|i| item(0, i as f64, i as u64, 0)).collect();
        assert_eq!(cols.len(), 5);
        assert_eq!(cols.values[4], 4.0);
    }
}
