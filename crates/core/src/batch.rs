//! Batches: the unit of data exchanged between nodes.
//!
//! Algorithm 2 of the paper describes each node consuming a store `Ψ` of
//! `(W_in, items)` pairs per time interval and emitting `(W_out, sample)`
//! pairs. A [`Batch`] is one such pair: a set of items plus the weight
//! metadata that accompanied them. The root node accumulates output batches
//! into its `Θ` store before running the query.

use crate::item::{StratumId, StreamItem};
use crate::weight::WeightMap;
use std::collections::BTreeMap;

/// A set of stream items together with the weight metadata that travelled
/// with them.
///
/// `weights` may be *partial*: a stratum present in `items` but absent from
/// `weights` models the paper's Figure 3 situation where items and their
/// weight crossed an interval boundary in transit. Receiving nodes resolve
/// such strata through a [`crate::WeightStore`].
///
/// # Examples
///
/// ```
/// use approxiot_core::{Batch, StratumId, StreamItem};
///
/// let batch = Batch::from_items(vec![
///     StreamItem::new(StratumId::new(0), 1.0),
///     StreamItem::new(StratumId::new(0), 2.0),
/// ]);
/// assert_eq!(batch.len(), 2);
/// assert!(batch.weights.is_empty()); // sources attach no weights
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    /// Weight metadata accompanying the items (possibly partial).
    pub weights: WeightMap,
    /// The data items.
    pub items: Vec<StreamItem>,
}

impl Batch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Wraps raw source items (no weight metadata, i.e. all weights `1.0`).
    pub fn from_items(items: Vec<StreamItem>) -> Self {
        Batch {
            weights: WeightMap::new(),
            items,
        }
    }

    /// Creates a batch with explicit weight metadata.
    pub fn with_weights(weights: WeightMap, items: Vec<StreamItem>) -> Self {
        Batch { weights, items }
    }

    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Empties the batch (items and weights), keeping both allocations so
    /// the storage can be refilled — the recycling primitive behind the
    /// wire codec's `decode_batch_into`.
    pub fn clear(&mut self) {
        self.items.clear();
        self.weights.clear();
    }

    /// Returns `true` when the batch carries no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Splits the batch into one batch per stratum — ascending by stratum,
    /// arrival order preserved within each — modelling one source per
    /// sub-stream (the usual shape of test and example inputs).
    ///
    /// Groups through a [`StrataIndex`] (contiguous scratch, no per-item
    /// map inserts), paying one allocation per output batch instead of
    /// log-time tree insertion per item — line 5 of Algorithm 1,
    /// `Update(items)`.
    pub fn split_by_stratum(&self) -> Vec<Batch> {
        let mut index = StrataIndex::new();
        index.build(&self.items);
        index
            .iter_in(&self.items)
            .map(|(_, items)| Batch::from_items(items.to_vec()))
            .collect()
    }

    /// The set of strata present in the batch, in ascending order.
    ///
    /// Costs one pass over the items and one small vector — no per-stratum
    /// item clones just to read the keys. Callers on a hot path should
    /// prefer [`distinct_strata_into`] with a reused buffer.
    pub fn strata(&self) -> Vec<StratumId> {
        let mut ids = Vec::new();
        distinct_strata_into(&self.items, &mut ids);
        ids
    }

    /// Sum of item values, for ground-truth bookkeeping in tests/benches.
    pub fn value_sum(&self) -> f64 {
        self.items.iter().map(|i| i.value).sum()
    }

    /// Splits the batch into chunks of at most `chunk_len` items, replicating
    /// the weight metadata only on the **first** chunk. This models the
    /// paper's interval-split scenario (Figure 3) where trailing items arrive
    /// without their weight.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn split_weight_first(&self, chunk_len: usize) -> Vec<Batch> {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let mut out = Vec::new();
        for (idx, chunk) in self.items.chunks(chunk_len).enumerate() {
            let weights = if idx == 0 {
                self.weights.clone()
            } else {
                WeightMap::new()
            };
            out.push(Batch {
                weights,
                items: chunk.to_vec(),
            });
        }
        if out.is_empty() {
            out.push(Batch {
                weights: self.weights.clone(),
                items: Vec::new(),
            });
        }
        out
    }
}

/// Reusable zero-copy stratification: groups a batch of items into
/// contiguous per-stratum ranges over an internal scratch buffer.
///
/// This is the allocation-free grouping primitive of the sampling hot
/// path. Where a naive per-batch `BTreeMap<StratumId, Vec<StreamItem>>`
/// costs one heap vector per stratum with every item pushed through
/// `BTreeMap` lookups, a `StrataIndex`
/// owns all its buffers and reuses them across batches: after the first
/// few batches of a steady workload, [`StrataIndex::build`] performs
/// **zero allocations**, and for the common case of inputs that already
/// arrive grouped by stratum (per-source batches, a sampler's output) it
/// also copies **zero items** — the counting pass detects that every
/// stratum forms one contiguous run and the ranges then index the caller's
/// slice directly. Interleaved inputs (the round-robin frames the threaded
/// drains send) take one extra scatter pass through the internal scratch
/// buffer. [`StrataIndex::build`] and [`StrataIndex::build_columns`] share
/// that one counting pass; it probes the stratum table only where the
/// stratum changes and counts per run, so its per-item cost is one compare
/// and one `u32` store, plus one table probe per stratum change.
///
/// Within each stratum the arrival order of items is preserved, matching
/// the map-based grouping semantics (line 5 of Algorithm 1).
///
/// Stratum ids index a sparse lookup table, so they are assumed *dense*
/// (as [`StratumId`]'s docs promise). Ids above an internal cap fall back
/// to a tree map so a stray huge id degrades performance, not memory.
///
/// Because the ranges may point into the indexed slice, the accessors take
/// the same `items` slice that was passed to [`StrataIndex::build`].
///
/// # Examples
///
/// ```
/// use approxiot_core::{Batch, StrataIndex, StratumId, StreamItem};
///
/// let batch = Batch::from_items(vec![
///     StreamItem::new(StratumId::new(1), 10.0),
///     StreamItem::new(StratumId::new(0), 1.0),
///     StreamItem::new(StratumId::new(1), 20.0),
/// ]);
/// let mut index = StrataIndex::new();
/// index.build(&batch.items);
/// let groups: Vec<_> = index.iter_in(&batch.items).collect();
/// assert_eq!(groups.len(), 2);
/// assert_eq!(groups[0].0, StratumId::new(0));
/// assert_eq!(groups[1].1.len(), 2);
/// assert_eq!(groups[1].1[0].value, 10.0); // arrival order kept
/// ```
#[derive(Debug, Clone, Default)]
pub struct StrataIndex {
    /// Items regrouped contiguously by stratum (scatter path only); only
    /// `..len` is valid.
    scratch: Vec<StreamItem>,
    len: usize,
    /// `true` when the input was already grouped and the ranges index the
    /// caller's slice instead of `scratch`.
    grouped: bool,
    /// Per-stratum ranges, ascending by stratum.
    ranges: Vec<StratumRange>,
    /// Per-item bucket assignment from the counting pass.
    bucket_of_item: Vec<u32>,
    /// Sparse stratum-id → bucket table, invalidated by generation stamps
    /// so it never needs clearing between batches.
    table: Vec<TableSlot>,
    /// Fallback for stratum ids beyond [`TABLE_CAP`] (cleared per build).
    overflow: BTreeMap<StratumId, u32>,
    generation: u32,
    /// The strata of the last build, in first-seen order.
    buckets: Vec<Bucket>,
    /// Grouped position → original position (columnar scatter path only);
    /// columnar kernels gather through this instead of copying items.
    perm: Vec<u32>,
    /// `true` when the last build came from [`StrataIndex::build_columns`]
    /// (the scatter product is `perm`, not `scratch`).
    columnar: bool,
}

/// One contiguous per-stratum range of the scratch buffer.
#[derive(Debug, Clone, Copy)]
struct StratumRange {
    stratum: StratumId,
    bucket: u32,
    start: usize,
    end: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct TableSlot {
    generation: u32,
    bucket: u32,
}

/// One stratum of the current build, indexed by bucket (first-seen
/// order).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    stratum: StratumId,
    count: usize,
    /// The input position of the stratum's first item after the counting
    /// pass; on the scatter path, the next grouped position to fill.
    pos: usize,
}

/// Largest stratum id served by the O(1) sparse table (4 MiB of slots);
/// ids at or above this go through the `overflow` tree map.
const TABLE_CAP: usize = 1 << 19;

impl StrataIndex {
    /// Creates an empty index; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        StrataIndex::default()
    }

    /// Rebuilds the index over `items`, reusing all internal buffers.
    pub fn build(&mut self, items: &[StreamItem]) {
        self.columnar = false;
        if self.count_and_layout(items.iter().map(|item| item.stratum.index())) {
            return;
        }
        // Interleaved input: scatter items into the contiguous scratch
        // ranges (pass 2), preserving arrival order within each stratum.
        if self.scratch.len() < items.len() {
            let filler = items
                .first()
                .copied()
                .unwrap_or_else(|| StreamItem::new(StratumId::new(0), 0.0));
            self.scratch.resize(items.len(), filler);
        }
        for (item, &bucket) in items.iter().zip(&self.bucket_of_item) {
            let cursor = &mut self.buckets[bucket as usize].pos;
            self.scratch[*cursor] = *item;
            *cursor += 1;
        }
    }

    /// Rebuilds the index over a raw stratum **column** — the columnar
    /// twin of [`StrataIndex::build`], sharing its counting pass (same
    /// grouped-input fast path, same resulting ranges).
    ///
    /// The difference is in what the scatter pass produces: instead of
    /// copying 28-byte items into `scratch`, interleaved inputs fill a
    /// `u32` permutation mapping each *grouped* position back to its
    /// *original* position. Columnar kernels then gather survivor fields
    /// by index through [`StrataIndex::src_index`]; already-grouped
    /// inputs skip even that (identity mapping, zero extra work).
    pub fn build_columns(&mut self, strata: &[u32]) {
        self.columnar = true;
        if self.count_and_layout(strata.iter().copied()) {
            return;
        }
        // Interleaved input: fill the grouped-position → original-position
        // permutation (pass 2) instead of moving any item data.
        self.perm.clear();
        self.perm.resize(strata.len(), 0);
        for (pos, &bucket) in self.bucket_of_item.iter().enumerate() {
            let cursor = &mut self.buckets[bucket as usize].pos;
            self.perm[*cursor] = pos as u32;
            *cursor += 1;
        }
    }

    /// Counts and lays out one build (pass 1 plus the range layout) and
    /// returns `true` when the grouped zero-copy path applies; otherwise
    /// every bucket's `pos` is its scatter cursor for the caller's pass 2.
    fn count_and_layout(&mut self, strata: impl ExactSizeIterator<Item = u32>) -> bool {
        self.len = strata.len();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Generation counter wrapped: stale stamps could collide, so
            // wipe the table once every 2^32 builds.
            self.table
                .iter_mut()
                .for_each(|s| *s = TableSlot::default());
            self.generation = 1;
        }
        let contiguous = self.count_pass(strata);
        self.layout(contiguous)
    }

    /// Pass 1: assigns every item its stratum's bucket (first-seen order)
    /// and counts each bucket, returning whether every stratum forms a
    /// single contiguous run.
    ///
    /// The table is consulted only where the stratum changes from the
    /// previous item, so a run of one stratum — per-source frames, a
    /// sampler's stratum-ascending output — costs one compare per item. A
    /// changed stratum that the table already holds for this build is a
    /// stratum re-entered after a gap, which is exactly what breaks
    /// contiguity; a stratum the table lacks (new this build, or an id at
    /// or above [`TABLE_CAP`]) takes the out-of-line [`discover`] path.
    /// The loop writes through local slices: no per-item push and no call.
    fn count_pass(&mut self, strata: impl ExactSizeIterator<Item = u32>) -> bool {
        let StrataIndex {
            bucket_of_item,
            table,
            overflow,
            generation,
            buckets,
            ..
        } = self;
        let generation = *generation;
        buckets.clear();
        overflow.clear();
        bucket_of_item.clear();
        bucket_of_item.resize(strata.len(), 0);
        let mut contiguous = true;
        let mut prev = None;
        let mut bucket = 0u32;
        // Counts are added per run: `run_start` is where the current
        // stratum's run began.
        let mut run_start = 0usize;
        for (pos, (id, slot)) in strata.zip(bucket_of_item.iter_mut()).enumerate() {
            if prev != Some(id) {
                if prev.is_some() {
                    buckets[bucket as usize].count += pos - run_start;
                }
                prev = Some(id);
                run_start = pos;
                match table.get(id as usize) {
                    Some(hit) if hit.generation == generation => {
                        bucket = hit.bucket;
                        contiguous = false;
                    }
                    _ => {
                        let (found, seen) = discover(table, overflow, buckets, generation, id, pos);
                        bucket = found;
                        contiguous &= !seen;
                    }
                }
            }
            *slot = bucket;
        }
        if prev.is_some() {
            buckets[bucket as usize].count += bucket_of_item.len() - run_start;
        }
        contiguous
    }

    /// Orders the (few) strata and assigns their ranges. Returns `true`
    /// when the grouped zero-copy path applies (no scatter pass needed);
    /// otherwise the contiguous scatter layout is prepared and every
    /// bucket's `pos` set to its range start, the caller's pass-2 cursor.
    fn layout(&mut self, contiguous: bool) -> bool {
        self.ranges.clear();
        self.ranges.extend(
            self.buckets
                .iter()
                .enumerate()
                .map(|(b, bucket)| StratumRange {
                    stratum: bucket.stratum,
                    bucket: b as u32,
                    start: 0,
                    end: 0,
                }),
        );
        self.ranges.sort_unstable_by_key(|r| r.stratum);

        self.grouped = contiguous;
        if contiguous {
            // Zero-copy path: the ranges index the caller's slice.
            for range in &mut self.ranges {
                let bucket = &self.buckets[range.bucket as usize];
                range.start = bucket.pos;
                range.end = bucket.pos + bucket.count;
            }
            return true;
        }

        let mut offset = 0usize;
        for range in &mut self.ranges {
            let bucket = &mut self.buckets[range.bucket as usize];
            range.start = offset;
            offset += bucket.count;
            range.end = offset;
            bucket.pos = range.start;
        }
        false
    }

    /// Number of items indexed by the last [`StrataIndex::build`].
    pub fn total_items(&self) -> usize {
        self.len
    }

    /// Number of distinct strata in the last build.
    pub fn num_strata(&self) -> usize {
        self.ranges.len()
    }

    /// Returns `true` when the last build saw no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The distinct strata, ascending.
    pub fn strata(&self) -> impl Iterator<Item = StratumId> + '_ {
        self.ranges.iter().map(|r| r.stratum)
    }

    /// `(stratum, item count)` pairs, ascending by stratum.
    pub fn counts(&self) -> impl Iterator<Item = (StratumId, usize)> + '_ {
        self.ranges.iter().map(|r| (r.stratum, r.end - r.start))
    }

    /// Returns `true` when the last build hit the grouped zero-copy fast
    /// path (every stratum one contiguous run, ranges index the input
    /// directly, identity permutation).
    pub fn grouped(&self) -> bool {
        self.grouped
    }

    /// `(stratum, grouped range)` pairs, ascending by stratum. Map a
    /// grouped position back to the input through
    /// [`StrataIndex::src_index`].
    pub fn column_ranges(&self) -> impl Iterator<Item = (StratumId, std::ops::Range<usize>)> + '_ {
        self.ranges.iter().map(|r| (r.stratum, r.start..r.end))
    }

    /// Maps a grouped position (from [`StrataIndex::column_ranges`]) to
    /// its position in the input passed to the last
    /// [`StrataIndex::build_columns`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the last build was not columnar, and
    /// (always) when `pos` exceeds the indexed length on the scatter path.
    #[inline]
    pub fn src_index(&self, pos: usize) -> usize {
        debug_assert!(self.columnar, "src_index is only valid after build_columns");
        if self.grouped {
            pos
        } else {
            self.perm[pos] as usize
        }
    }

    /// `(stratum, items)` groups, ascending by stratum, arrival order
    /// preserved within each group.
    ///
    /// `items` must be the slice passed to the matching
    /// [`StrataIndex::build`] — for already-grouped inputs the ranges
    /// index it directly (the zero-copy path).
    ///
    /// # Panics
    ///
    /// Panics if `items` has a different length than the indexed slice.
    pub fn iter_in<'a>(
        &'a self,
        items: &'a [StreamItem],
    ) -> impl Iterator<Item = (StratumId, &'a [StreamItem])> + 'a {
        assert_eq!(
            items.len(),
            self.len,
            "iter_in needs the slice passed to build"
        );
        assert!(
            !self.columnar || self.grouped,
            "iter_in after build_columns: the scatter product is a permutation, \
             not regrouped items — use column_ranges/src_index"
        );
        let source: &'a [StreamItem] = if self.grouped {
            items
        } else {
            &self.scratch[..self.len]
        };
        self.ranges
            .iter()
            .map(move |r| (r.stratum, &source[r.start..r.end]))
    }
}

/// The count pass's slow path, for a stratum the sparse table does not
/// hold for the current build: returns its bucket and whether the build
/// had already seen it (possible only for ids at or above [`TABLE_CAP`],
/// which live in `overflow`). A new stratum gets the next bucket, with
/// `pos` as its first position.
#[cold]
#[inline(never)]
fn discover(
    table: &mut Vec<TableSlot>,
    overflow: &mut BTreeMap<StratumId, u32>,
    buckets: &mut Vec<Bucket>,
    generation: u32,
    id: u32,
    pos: usize,
) -> (u32, bool) {
    let stratum = StratumId::new(id);
    let next = buckets.len() as u32;
    let idx = id as usize;
    if idx >= TABLE_CAP {
        match overflow.entry(stratum) {
            std::collections::btree_map::Entry::Occupied(e) => return (*e.get(), true),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(next);
            }
        }
    } else {
        if idx >= table.len() {
            table.resize(idx + 1, TableSlot::default());
        }
        table[idx] = TableSlot {
            generation,
            bucket: next,
        };
    }
    buckets.push(Bucket {
        stratum,
        count: 0,
        pos,
    });
    (next, false)
}

/// Collects the distinct strata of `items` into `out` (ascending) with a
/// run-aware scan: one push per stratum *run*, then sort+dedup of the tiny
/// list. For the per-source batches real pipelines carry, this is a single
/// pass with zero allocations once `out` has warmed up — unlike per-item
/// set insertions. Shared by [`Batch::strata`] and the stateful sampler's
/// weight resolution.
pub fn distinct_strata_into(items: &[StreamItem], out: &mut Vec<StratumId>) {
    out.clear();
    let mut last = None;
    for item in items {
        if last != Some(item.stratum) {
            out.push(item.stratum);
            last = Some(item.stratum);
        }
    }
    out.sort_unstable();
    out.dedup();
}

impl FromIterator<StreamItem> for Batch {
    fn from_iter<I: IntoIterator<Item = StreamItem>>(iter: I) -> Self {
        Batch::from_items(iter.into_iter().collect())
    }
}

impl Extend<StreamItem> for Batch {
    fn extend<I: IntoIterator<Item = StreamItem>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(stratum: u32, value: f64) -> StreamItem {
        StreamItem::new(StratumId::new(stratum), value)
    }

    #[test]
    fn split_by_stratum_groups_ascending_preserving_order() {
        let batch = Batch::from_items(vec![item(1, 10.0), item(0, 1.0), item(1, 20.0)]);
        let strata = batch.split_by_stratum();
        assert_eq!(strata.len(), 2);
        assert_eq!(strata[0].items[0].stratum, StratumId::new(0));
        assert_eq!(strata[1].len(), 2);
        assert_eq!(strata[1].items[0].value, 10.0);
        assert_eq!(strata[1].items[1].value, 20.0);
        assert_eq!(batch.strata(), vec![StratumId::new(0), StratumId::new(1)]);
    }

    #[test]
    fn value_sum_adds_all_items() {
        let batch = Batch::from_items(vec![item(0, 1.5), item(1, 2.5)]);
        assert_eq!(batch.value_sum(), 4.0);
    }

    #[test]
    fn split_keeps_weights_only_on_first_chunk() {
        let mut weights = WeightMap::new();
        weights.set(StratumId::new(0), 1.5);
        let batch = Batch::with_weights(weights, vec![item(0, 1.0), item(0, 2.0), item(0, 3.0)]);
        let chunks = batch.split_weight_first(2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].weights.get(StratumId::new(0)), 1.5);
        assert!(chunks[1].weights.is_empty());
        assert_eq!(chunks[0].len() + chunks[1].len(), 3);
    }

    #[test]
    fn split_of_empty_batch_yields_one_empty_chunk() {
        let batch = Batch::new();
        let chunks = batch.split_weight_first(4);
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn split_rejects_zero_chunk() {
        Batch::new().split_weight_first(0);
    }

    #[test]
    fn strata_index_matches_map_grouping_interleaved() {
        // Interleaved strata exercise the scatter path.
        let batch = Batch::from_items(vec![
            item(3, 1.0),
            item(1, 2.0),
            item(3, 3.0),
            item(0, 4.0),
            item(1, 5.0),
        ]);
        let mut index = StrataIndex::new();
        index.build(&batch.items);
        // Independent oracle: naive per-item map grouping.
        let mut by_map: BTreeMap<StratumId, Vec<StreamItem>> = BTreeMap::new();
        for item in &batch.items {
            by_map.entry(item.stratum).or_default().push(*item);
        }
        assert_eq!(index.num_strata(), by_map.len());
        assert_eq!(index.total_items(), batch.len());
        for ((stratum, slice), (map_stratum, map_items)) in
            index.iter_in(&batch.items).zip(by_map.iter())
        {
            assert_eq!(stratum, *map_stratum);
            assert_eq!(
                slice,
                map_items.as_slice(),
                "order preserved within {stratum}"
            );
        }
    }

    #[test]
    fn strata_index_grouped_input_is_zero_copy() {
        // Per-stratum runs (descending ids to prove order-independence)
        // exercise the grouped fast path: ranges must serve the caller's
        // slice itself.
        let items = vec![
            item(5, 1.0),
            item(5, 2.0),
            item(2, 3.0),
            item(0, 4.0),
            item(0, 5.0),
        ];
        let mut index = StrataIndex::new();
        index.build(&items);
        let groups: Vec<_> = index.iter_in(&items).collect();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].0, StratumId::new(0));
        assert_eq!(groups[2].0, StratumId::new(5));
        // Zero-copy: the served slices alias the input allocation.
        assert!(std::ptr::eq(groups[2].1.as_ptr(), items[0..].as_ptr()));
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[0].1[0].value, 4.0);
    }

    #[test]
    fn strata_index_reuse_across_batches() {
        let mut index = StrataIndex::new();
        // Interleaved (scatter) build first...
        let first = [item(0, 1.0), item(1, 2.0), item(0, 3.0)];
        index.build(&first);
        assert_eq!(index.num_strata(), 2);
        // ...then a grouped rebuild: stale state must vanish.
        let second = [item(7, 9.0)];
        index.build(&second);
        assert_eq!(index.num_strata(), 1);
        assert_eq!(index.total_items(), 1);
        let (stratum, slice) = index.iter_in(&second).next().expect("one group");
        assert_eq!(stratum, StratumId::new(7));
        assert_eq!(slice[0].value, 9.0);
        // And empty batches are fine.
        index.build(&[]);
        assert!(index.is_empty());
        assert_eq!(index.num_strata(), 0);
    }

    #[test]
    fn strata_index_handles_huge_stratum_ids() {
        let mut index = StrataIndex::new();
        let big = u32::MAX - 1;
        index.build(&[item(big, 1.0), item(2, 2.0), item(big, 3.0)]);
        assert_eq!(index.num_strata(), 2);
        let strata: Vec<_> = index.strata().collect();
        assert_eq!(strata, vec![StratumId::new(2), StratumId::new(big)]);
        let counts: Vec<_> = index.counts().collect();
        assert_eq!(counts[1], (StratumId::new(big), 2));
    }

    #[test]
    fn build_columns_matches_build_interleaved() {
        // Same logical input through both builds: the ranges must agree
        // and the permutation must regroup the columns exactly like the
        // AoS scatter pass regroups the items.
        let items = vec![
            item(3, 1.0),
            item(1, 2.0),
            item(3, 3.0),
            item(0, 4.0),
            item(1, 5.0),
        ];
        let strata: Vec<u32> = items.iter().map(|i| i.stratum.index()).collect();
        let mut aos = StrataIndex::new();
        aos.build(&items);
        let mut soa = StrataIndex::new();
        soa.build_columns(&strata);
        assert!(!soa.grouped());
        assert_eq!(soa.num_strata(), aos.num_strata());
        let aos_groups: Vec<_> = aos.iter_in(&items).collect();
        for ((stratum, range), (aos_stratum, aos_items)) in
            soa.column_ranges().zip(aos_groups.iter())
        {
            assert_eq!(stratum, *aos_stratum);
            let gathered: Vec<_> = range.map(|pos| items[soa.src_index(pos)]).collect();
            assert_eq!(gathered.as_slice(), *aos_items);
        }
    }

    #[test]
    fn build_columns_grouped_is_identity_permutation() {
        let strata = vec![5u32, 5, 2, 0, 0];
        let mut index = StrataIndex::new();
        index.build_columns(&strata);
        assert!(index.grouped());
        let ranges: Vec<_> = index.column_ranges().collect();
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[0], (StratumId::new(0), 3..5));
        assert_eq!(ranges[2], (StratumId::new(5), 0..2));
        assert_eq!(index.src_index(4), 4);
    }

    #[test]
    fn build_columns_then_build_reuses_cleanly() {
        let mut index = StrataIndex::new();
        index.build_columns(&[0, 1, 0]);
        assert_eq!(index.num_strata(), 2);
        let second = [item(7, 9.0)];
        index.build(&second);
        assert_eq!(index.num_strata(), 1);
        let (stratum, slice) = index.iter_in(&second).next().expect("one group");
        assert_eq!(stratum, StratumId::new(7));
        assert_eq!(slice[0].value, 9.0);
        index.build_columns(&[]);
        assert!(index.is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let batch: Batch = (0..5).map(|i| item(0, i as f64)).collect();
        assert_eq!(batch.len(), 5);
        let mut batch = batch;
        batch.extend([item(1, 9.0)]);
        assert_eq!(batch.len(), 6);
    }
}
