//! Weighted hierarchical sampling — Algorithm 1 of the paper.
//!
//! `WHSamp` runs independently at every node of the logical tree. For each
//! incoming `(W_in, items)` pair it:
//!
//! 1. stratifies the items by source (sub-stream),
//! 2. sizes a reservoir per stratum from the node's sample budget,
//! 3. reservoir-samples each stratum independently, and
//! 4. scales each stratum's weight by `c_i / N_i` whenever the stratum
//!    overflowed its reservoir (Equations 1–2).
//!
//! The output `(W_out, sample)` preserves the count-reconstruction invariant
//! `W_out · c̃ = W_in · c` (paper Equation 9), which is what makes the root's
//! SUM/MEAN estimators unbiased without any cross-node coordination.

use crate::batch::{Batch, StrataIndex};
use crate::columns::{ColumnarBatch, ColumnsView};
use crate::item::{StratumId, StreamItem};
use crate::sampling::allocation::{Allocation, SizingScratch};
use crate::sampling::reservoir::Reservoir;
use crate::weight::{WeightMap, WeightStore};
use rand::Rng;
use std::collections::BTreeMap;

/// Result of one `WHSamp` invocation: the updated weight map and the
/// surviving items.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WhsOutput {
    /// Output weights per stratum (`W_out` in the paper).
    pub weights: WeightMap,
    /// Sampled items across all strata.
    pub sample: Vec<StreamItem>,
}

impl WhsOutput {
    /// Converts the output into a [`Batch`] for forwarding to the parent.
    pub fn into_batch(self) -> Batch {
        Batch::with_weights(self.weights, self.sample)
    }
}

/// Pure `WHSamp` (Algorithm 1): samples one batch given resolved input
/// weights.
///
/// `w_in` must already be resolved for every stratum present in `batch`
/// (use [`WhsSampler`] for the stateful carry-forward variant).
///
/// # Examples
///
/// ```
/// use approxiot_core::{whs_sample, Allocation, Batch, StratumId, StreamItem, WeightMap};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let items: Vec<_> = (0..6).map(|i| StreamItem::new(StratumId::new(0), i as f64)).collect();
/// let out = whs_sample(&Batch::from_items(items), 3, &WeightMap::new(),
///                      Allocation::Uniform, &mut rng);
/// assert_eq!(out.sample.len(), 3);
/// assert_eq!(out.weights.get(StratumId::new(0)), 2.0); // 6 items / 3 slots
/// ```
pub fn whs_sample<R: Rng + ?Sized>(
    batch: &Batch,
    sample_size: usize,
    w_in: &WeightMap,
    allocation: Allocation,
    rng: &mut R,
) -> WhsOutput {
    // Line 5: stratify the input into sub-streams. (The clone-per-item
    // map grouping is exactly what makes this the readable reference —
    // the hot paths group through `StrataIndex`.)
    let mut strata: BTreeMap<StratumId, Vec<StreamItem>> = BTreeMap::new();
    for item in &batch.items {
        strata.entry(item.stratum).or_default().push(*item);
    }
    let counts: BTreeMap<_, _> = strata.iter().map(|(&s, v)| (s, v.len())).collect();
    // Line 7: decide the reservoir size for each sub-stream.
    let sizes = allocation.reservoir_sizes(&counts, sample_size);

    let mut weights = WeightMap::new();
    let mut sample = Vec::new();
    for (stratum, items) in strata {
        let c_i = items.len();
        let n_i = sizes[&stratum];
        // Line 10: traditional reservoir sampling per sub-stream. When the
        // whole stratum fits its reservoir the sample is the stratum itself;
        // skip the reservoir churn (this is the hot path at high fractions
        // and what keeps ApproxIoT's overhead near native at 100%).
        let kept = if c_i <= n_i {
            items
        } else {
            let mut reservoir = Reservoir::new(n_i);
            reservoir.offer_all(items, rng);
            reservoir.into_items()
        };
        // Lines 12–18: update the weight (Equations 1–2).
        let input = w_in.get(stratum);
        let w_out = if c_i > n_i {
            input * c_i as f64 / n_i.max(1) as f64
        } else {
            input
        };
        if c_i > n_i && n_i == 0 {
            // Entire stratum dropped: no items survive to carry the weight,
            // so recording it would be meaningless. The estimator simply
            // never sees this stratum for this batch (a bias the error bound
            // accounts for only via other batches of the same stratum).
            continue;
        }
        weights.set(stratum, w_out);
        sample.extend(kept);
    }
    WhsOutput { weights, sample }
}

/// Reusable zero-allocation `WHSamp` kernel: the Algorithm 1 hot path over
/// item slices.
///
/// This is the engine behind [`WhsSampler`] and the sharded sampler. It
/// owns every buffer the per-batch loop needs — the [`StrataIndex`], the
/// per-stratum size table and the selection-sampling scratch — so that in
/// steady state a call to [`WhsScratch::sample_slice`] allocates only the
/// returned output. Three changes versus the original [`whs_sample`] path:
///
/// 1. stratification builds contiguous ranges with a reusable
///    [`StrataIndex`] instead of a fresh `BTreeMap<_, Vec<_>>` of cloned
///    items — zero item copies when the input already arrives grouped by
///    stratum;
/// 2. reservoir sizing runs on slices ([`Allocation::reservoir_sizes_slice`])
///    instead of allocating two more `BTreeMap`s;
/// 3. overflowing strata draw a uniform `N_i`-subset with Floyd's
///    selection sampling — exactly `N_i` cheap uniform draws per stratum
///    instead of Algorithm R's `O(c_i)`. With the whole stratum
///    materialised as a slice there is no need to *stream* at all. The
///    draw's chosen set is a bitset over the stratum: one `u64` kept in a
///    register when the stratum has at most 64 items (every stratum of
///    the pipeline's 512-item, 8-stratum frames), else a reused word
///    slice — 64 because that is what one machine word holds.
///
/// The statistics are unchanged: per-stratum uniform sampling without
/// replacement and the Equation 1–2 weight update, so the Equation 9
/// count-reconstruction invariant holds exactly as for [`whs_sample`].
///
/// # Examples
///
/// ```
/// use approxiot_core::{Allocation, StratumId, StreamItem, WeightMap, WhsScratch};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut kernel = WhsScratch::new();
/// let items: Vec<_> = (0..100).map(|i| StreamItem::new(StratumId::new(0), i as f64)).collect();
/// let out = kernel.sample_slice(&items, 10, &WeightMap::new(), Allocation::Uniform, &mut rng);
/// assert_eq!(out.sample.len(), 10);
/// assert_eq!(out.weights.get(StratumId::new(0)), 10.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WhsScratch {
    index: StrataIndex,
    sizes: Vec<usize>,
    counts: Vec<usize>,
    sizing: SizingScratch,
    /// Indices chosen by the current Floyd draw.
    chosen: Vec<u32>,
    /// One bit per candidate index, for strata too large for the
    /// register bitset; cleared after each draw, so the buffer stays
    /// all-zero between strata.
    chosen_bits: Vec<u64>,
}

impl WhsScratch {
    /// Creates a kernel; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        WhsScratch::default()
    }

    /// Runs `WHSamp` over `items` with resolved input weights `w_in`.
    ///
    /// Equivalent in distribution to
    /// `whs_sample(&Batch::from_items(items.to_vec()), ...)`, without the
    /// per-batch allocations (the RNG draw sequences differ, so samples
    /// are not bit-identical between the two paths).
    pub fn sample_slice<R: Rng + ?Sized>(
        &mut self,
        items: &[StreamItem],
        sample_size: usize,
        w_in: &WeightMap,
        allocation: Allocation,
        rng: &mut R,
    ) -> WhsOutput {
        self.index.build(items);
        self.sample_indexed(items, sample_size, w_in, allocation, rng)
    }

    /// The distinct strata of the most recently indexed items, ascending.
    /// Valid after [`WhsScratch::index_items`].
    pub fn strata(&self) -> impl Iterator<Item = crate::item::StratumId> + '_ {
        self.index.strata()
    }

    /// Builds the stratum index for `items` without sampling yet — used by
    /// callers that must resolve carried weights between indexing and
    /// sampling (see [`WhsSampler::sample_batch`]).
    pub fn index_items(&mut self, items: &[StreamItem]) {
        self.index.build(items);
    }

    /// Samples the previously indexed items (Algorithm 1 lines 7–18).
    /// `items` must be the slice passed to [`WhsScratch::index_items`].
    pub fn sample_indexed<R: Rng + ?Sized>(
        &mut self,
        items: &[StreamItem],
        sample_size: usize,
        w_in: &WeightMap,
        allocation: Allocation,
        rng: &mut R,
    ) -> WhsOutput {
        // Line 7: per-stratum reservoir sizes from the interval budget.
        self.counts.clear();
        self.counts.extend(self.index.counts().map(|(_, c)| c));
        allocation.reservoir_sizes_slice(
            &self.counts,
            sample_size,
            &mut self.sizes,
            &mut self.sizing,
        );

        let mut kept_total = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            kept_total += c.min(self.sizes[i]);
        }
        let mut weights = WeightMap::new();
        let mut sample = Vec::with_capacity(kept_total);
        for (i, (stratum, stratum_items)) in self.index.iter_in(items).enumerate() {
            let c_i = stratum_items.len();
            let n_i = self.sizes[i];
            let input = w_in.get(stratum);
            if c_i <= n_i {
                // Whole stratum fits: keep it verbatim, weight unchanged.
                sample.extend_from_slice(stratum_items);
                weights.set(stratum, input);
            } else if n_i == 0 {
                // Entire stratum dropped; no surviving item can carry the
                // weight (same rule as `whs_sample`).
                continue;
            } else {
                // Line 10 overflow path: Floyd's selection sampling picks
                // a uniform n_i-subset with exactly n_i draws.
                floyd_sample_into(
                    stratum_items,
                    n_i,
                    &mut self.chosen,
                    &mut self.chosen_bits,
                    &mut sample,
                    rng,
                );
                // Lines 12–18, Equations 1–2.
                weights.set(stratum, input * c_i as f64 / n_i as f64);
            }
        }
        WhsOutput { weights, sample }
    }

    /// Builds the stratum index for a raw stratum column without sampling
    /// yet — the columnar twin of [`WhsScratch::index_items`].
    pub fn index_columns(&mut self, strata: &[u32]) {
        self.index.build_columns(strata);
    }

    /// Runs `WHSamp` over a columnar view with resolved input weights,
    /// writing the `(W_out, sample)` pair into `out` (weights into
    /// `out.weights`).
    ///
    /// **Bit-identical** to [`WhsScratch::sample_slice`] on the same
    /// logical items with the same RNG state: the counting pass, the
    /// reservoir sizing inputs and the Floyd draw sequence are shared, and
    /// survivors are *gathered by index* into the output columns instead
    /// of copied as structs. Parity is pinned by tests.
    pub fn sample_columns_into<R: Rng + ?Sized>(
        &mut self,
        input: ColumnsView<'_>,
        sample_size: usize,
        w_in: &WeightMap,
        allocation: Allocation,
        out: &mut ColumnarBatch,
        rng: &mut R,
    ) {
        self.index.build_columns(input.strata);
        self.sample_columns_indexed(input, sample_size, w_in, allocation, out, rng)
    }

    /// Samples the previously indexed columns (Algorithm 1 lines 7–18).
    /// `input` must be the view whose `strata` column was passed to
    /// [`WhsScratch::index_columns`].
    pub fn sample_columns_indexed<R: Rng + ?Sized>(
        &mut self,
        input: ColumnsView<'_>,
        sample_size: usize,
        w_in: &WeightMap,
        allocation: Allocation,
        out: &mut ColumnarBatch,
        rng: &mut R,
    ) {
        out.clear();
        // Line 7: per-stratum reservoir sizes from the interval budget.
        self.counts.clear();
        self.counts.extend(self.index.counts().map(|(_, c)| c));
        allocation.reservoir_sizes_slice(
            &self.counts,
            sample_size,
            &mut self.sizes,
            &mut self.sizing,
        );

        let mut kept_total = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            kept_total += c.min(self.sizes[i]);
        }
        out.reserve(kept_total);
        let grouped = self.index.grouped();
        for (i, (stratum, range)) in self.index.column_ranges().enumerate() {
            let c_i = range.end - range.start;
            let n_i = self.sizes[i];
            let input_w = w_in.get(stratum);
            if c_i <= n_i {
                // Whole stratum fits: keep it verbatim, weight unchanged.
                if grouped {
                    // Grouped fast path: four bulk column copies.
                    out.extend_from_view(input, range.start, range.end);
                } else {
                    let index = &self.index;
                    out.extend_gathered(input, range.map(|pos| index.src_index(pos)));
                }
                out.weights.set(stratum, input_w);
            } else if n_i == 0 {
                // Entire stratum dropped; no surviving item can carry the
                // weight (same rule as `whs_sample`).
                continue;
            } else {
                // Line 10 overflow path: Floyd's selection sampling picks
                // a uniform n_i-subset with exactly n_i draws, then the
                // survivors are gathered by index into the columns.
                floyd_pick_into(c_i, n_i, &mut self.chosen, &mut self.chosen_bits, rng);
                let index = &self.index;
                out.extend_gathered(
                    input,
                    self.chosen
                        .iter()
                        .map(|&local| index.src_index(range.start + local as usize)),
                );
                // Lines 12–18, Equations 1–2.
                out.weights.set(stratum, input_w * c_i as f64 / n_i as f64);
            }
        }
    }
}

/// Appends a uniform `n`-subset of `items` to `out` using Floyd's
/// selection-sampling algorithm: exactly `n` uniform draws, no
/// transcendentals, no replacement.
///
/// `chosen` and `bits` are caller-owned scratch, used as
/// [`floyd_pick_into`] describes.
fn floyd_sample_into<R: Rng + ?Sized>(
    items: &[StreamItem],
    n: usize,
    chosen: &mut Vec<u32>,
    bits: &mut Vec<u64>,
    out: &mut Vec<StreamItem>,
    rng: &mut R,
) {
    floyd_pick_into(items.len(), n, chosen, bits, rng);
    out.extend(chosen.iter().map(|&i| items[i as usize]));
}

/// Fills `chosen` with a uniform `n`-subset of `0..c` using Floyd's
/// draws (the selection half of [`floyd_sample_into`], shared by the AoS
/// and columnar kernels so their RNG consumption is identical by
/// construction). Picks land in `chosen` in draw order.
///
/// The chosen set is a bitset over `0..c`. When `c <= 64` it is one
/// `u64` held in a register for the whole draw — every stratum of a
/// 512-item, 8-stratum frame fits — and `bits` is not touched. Larger
/// strata use the first `c.div_ceil(64)` words of `bits`, which must be
/// all-zero on entry and are returned all-zero (cleared word by word,
/// which costs less than revisiting `n` picks). Both sides run the one
/// draw loop in [`floyd_draws`], so they pick identically.
fn floyd_pick_into<R: Rng + ?Sized>(
    c: usize,
    n: usize,
    chosen: &mut Vec<u32>,
    bits: &mut Vec<u64>,
    rng: &mut R,
) {
    debug_assert!(n <= c, "selection needs n <= c");
    if c <= 64 {
        floyd_draws(c, n, &mut 0u64, chosen, rng);
    } else {
        let words = c.div_ceil(64);
        if bits.len() < words {
            bits.resize(words, 0);
        }
        let set = &mut bits[..words];
        floyd_draws(c, n, set, chosen, rng);
        set.fill(0);
    }
}

/// Floyd's draw loop over either side of [`floyd_pick_into`]'s bitset:
/// for each `j` in `c - n..c`, draw `t` uniform in `0..=j`, and pick `t`
/// unless it is already chosen, in which case pick `j` (never chosen
/// before, since every earlier pick is below `j`).
#[inline(always)]
fn floyd_draws<S: PickSet + ?Sized, R: Rng + ?Sized>(
    c: usize,
    n: usize,
    set: &mut S,
    chosen: &mut Vec<u32>,
    rng: &mut R,
) {
    chosen.clear();
    chosen.extend(((c - n)..c).map(|j| {
        let t = rng.random_range(0..(j as u64 + 1)) as usize;
        if set.insert(t) {
            t as u32
        } else {
            set.insert(j);
            j as u32
        }
    }));
}

/// The chosen set of one Floyd draw: a bitset over the candidate indices.
trait PickSet {
    /// Adds `i`, returning `true` when it was not already present.
    fn insert(&mut self, i: usize) -> bool;
}

/// One register word, for `c <= 64`.
impl PickSet for u64 {
    #[inline(always)]
    fn insert(&mut self, i: usize) -> bool {
        let bit = 1u64 << i;
        let fresh = *self & bit == 0;
        *self |= bit;
        fresh
    }
}

/// A word slice, for larger strata.
impl PickSet for [u64] {
    #[inline(always)]
    fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// Stateful per-node sampler: `WHSamp` plus the paper's Figure 3 weight
/// carry-forward rule.
///
/// One `WhsSampler` lives on each node of the logical tree. Batches may
/// arrive with partial weight metadata (items and weights can cross interval
/// boundaries in transit); the sampler resolves missing weights from the
/// last value seen for that stratum.
///
/// Since the hot-path rebuild, the sampler runs on a private
/// [`WhsScratch`] kernel, so per-batch work is allocation-free apart from
/// the output and the resolved input weights; see [`WhsScratch`] for
/// what changed versus the pure [`whs_sample`] function (which is kept
/// as the readable reference and comparison baseline).
///
/// # Examples
///
/// ```
/// use approxiot_core::{Allocation, Batch, StratumId, StreamItem, WhsSampler};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut node = WhsSampler::new(Allocation::Uniform);
/// let items: Vec<_> = (0..10).map(|i| StreamItem::new(StratumId::new(0), i as f64)).collect();
/// let out = node.sample_batch(&Batch::from_items(items), 5, &mut rng);
/// assert_eq!(out.sample.len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WhsSampler {
    allocation: Allocation,
    store: WeightStore,
    scratch: WhsScratch,
    /// Reusable buffer for weight resolution's distinct-strata scan.
    strata_scratch: Vec<crate::item::StratumId>,
}

impl WhsSampler {
    /// Creates a sampler with the given allocation policy.
    pub fn new(allocation: Allocation) -> Self {
        WhsSampler {
            allocation,
            store: WeightStore::new(),
            scratch: WhsScratch::new(),
            strata_scratch: Vec::new(),
        }
    }

    /// The allocation policy in use.
    pub fn allocation(&self) -> Allocation {
        self.allocation
    }

    /// Resolves the input weights for `batch` via the carry-forward rule
    /// without sampling: explicit weights update the store, missing strata
    /// fall back to the last value seen. Used by callers that drive
    /// [`whs_sample`] themselves.
    pub fn resolve_weights(&mut self, batch: &Batch) -> WeightMap {
        crate::batch::distinct_strata_into(&batch.items, &mut self.strata_scratch);
        let strata = std::mem::take(&mut self.strata_scratch);
        let resolved = self.store.resolve(strata.iter().copied(), &batch.weights);
        self.strata_scratch = strata;
        resolved
    }

    /// Runs `WHSamp` on one batch with `sample_size` total reservoir slots,
    /// resolving missing input weights via the carry-forward rule.
    ///
    /// Runs on the reusable [`WhsScratch`] kernel: zero steady-state
    /// allocations beyond the returned output.
    pub fn sample_batch<R: Rng + ?Sized>(
        &mut self,
        batch: &Batch,
        sample_size: usize,
        rng: &mut R,
    ) -> WhsOutput {
        self.scratch.index_items(&batch.items);
        let resolved = self
            .store
            .resolve(self.scratch.index.strata(), &batch.weights);
        self.scratch
            .sample_indexed(&batch.items, sample_size, &resolved, self.allocation, rng)
    }

    /// Resolves the input weights for a columnar batch via the
    /// carry-forward rule without sampling — the columnar twin of
    /// [`WhsSampler::resolve_weights`], scanning the raw `u32` stratum
    /// column.
    pub fn resolve_weights_columns(&mut self, batch: &ColumnarBatch) -> WeightMap {
        crate::columns::distinct_strata_u32_into(&batch.strata, &mut self.strata_scratch);
        let strata = std::mem::take(&mut self.strata_scratch);
        let resolved = self.store.resolve(strata.iter().copied(), &batch.weights);
        self.strata_scratch = strata;
        resolved
    }

    /// Runs `WHSamp` on one columnar batch, resolving missing input
    /// weights via the carry-forward rule and writing the `(W_out,
    /// sample)` pair into `out`. Bit-identical to
    /// [`WhsSampler::sample_batch`] on the same logical items and RNG
    /// state (see [`WhsScratch::sample_columns_into`]).
    pub fn sample_columns_into<R: Rng + ?Sized>(
        &mut self,
        batch: &ColumnarBatch,
        sample_size: usize,
        out: &mut ColumnarBatch,
        rng: &mut R,
    ) {
        self.scratch.index_columns(&batch.strata);
        let resolved = self
            .store
            .resolve(self.scratch.index.strata(), &batch.weights);
        self.scratch.sample_columns_indexed(
            batch.view(),
            sample_size,
            &resolved,
            self.allocation,
            out,
            rng,
        );
    }

    /// Forgets all carried weights (used between independent runs).
    pub fn reset(&mut self) {
        self.store.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::StratumId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn s(i: u32) -> StratumId {
        StratumId::new(i)
    }

    fn batch_of(counts: &[(u32, usize)]) -> Batch {
        let mut items = Vec::new();
        for &(stratum, n) in counts {
            for k in 0..n {
                items.push(StreamItem::with_meta(s(stratum), k as f64, k as u64, 0));
            }
        }
        Batch::from_items(items)
    }

    #[test]
    fn paper_figure_2_example() {
        // Sub-stream S1: 4 items into reservoir of 3 → w_out = 4/3.
        // Sub-stream S2: 2 items into reservoir of 3 → w_out unchanged (= 2...
        // in the figure W_in = 2 stays 2). We emulate with explicit inputs.
        let mut rng = StdRng::seed_from_u64(42);
        let mut w_in = WeightMap::new();
        w_in.set(s(1), 3.0);
        w_in.set(s(2), 2.0);
        // Allocate exactly 3 slots to each stratum by giving budget 6 over
        // two strata (uniform → 3 each, but stratum 2 only needs 2, slack
        // goes to stratum 1 → 4!). Use per-test allocation: budget 5 gives
        // stratum 1 three and stratum 2 two... To pin N1 = 3 exactly we use
        // budget such that uniform share is 3: strata counts (4, 2), budget 5
        // → share 2 each, redistribution... Simplest: call whs_sample with
        // both strata separately.
        let batch1 = batch_of(&[(1, 4)]);
        let out1 = whs_sample(&batch1, 3, &w_in, Allocation::Uniform, &mut rng);
        assert_eq!(out1.sample.len(), 3);
        assert!(
            (out1.weights.get(s(1)) - 4.0).abs() < 1e-12,
            "W_out = 3 * 4/3 = 4"
        );

        let batch2 = batch_of(&[(2, 2)]);
        let out2 = whs_sample(&batch2, 3, &w_in, Allocation::Uniform, &mut rng);
        assert_eq!(out2.sample.len(), 2, "c <= N keeps everything");
        assert_eq!(out2.weights.get(s(2)), 2.0, "W_out = W_in when c <= N");
    }

    #[test]
    fn count_reconstruction_invariant_single_node() {
        // Equation 9: W_out * c̃ == W_in * c for every stratum.
        let mut rng = StdRng::seed_from_u64(7);
        let batch = batch_of(&[(0, 100), (1, 17), (2, 3)]);
        let mut w_in = WeightMap::new();
        w_in.set(s(0), 2.0);
        w_in.set(s(1), 1.5);
        let out = whs_sample(&batch, 30, &w_in, Allocation::Uniform, &mut rng);
        for originals in batch.split_by_stratum() {
            let stratum = originals.items[0].stratum;
            let c = originals.len() as f64;
            let kept = out.sample.iter().filter(|i| i.stratum == stratum).count() as f64;
            let lhs = out.weights.get(stratum) * kept;
            let rhs = w_in.get(stratum) * c;
            assert!(
                (lhs - rhs).abs() < 1e-9,
                "{stratum}: W_out*c̃ = {lhs}, W_in*c = {rhs}"
            );
        }
    }

    #[test]
    fn no_stratum_is_dropped_with_fair_allocation() {
        let mut rng = StdRng::seed_from_u64(8);
        // A dominating stratum plus a tiny one; budget well above stratum count.
        let batch = batch_of(&[(0, 10_000), (1, 5)]);
        let out = whs_sample(
            &batch,
            100,
            &WeightMap::new(),
            Allocation::Uniform,
            &mut rng,
        );
        let tiny = out.sample.iter().filter(|i| i.stratum == s(1)).count();
        assert_eq!(tiny, 5, "uniform allocation keeps the tiny stratum whole");
    }

    #[test]
    fn weights_multiply_across_two_hops() {
        let mut rng = StdRng::seed_from_u64(9);
        // Hop 1: 8 items → 4 slots → w = 2.
        let batch = batch_of(&[(0, 8)]);
        let out1 = whs_sample(&batch, 4, &WeightMap::new(), Allocation::Uniform, &mut rng);
        assert_eq!(out1.weights.get(s(0)), 2.0);
        // Hop 2: those 4 items → 2 slots → w = 2 * 2 = 4.
        let out2 = whs_sample(
            &out1.clone().into_batch(),
            2,
            &out1.weights,
            Allocation::Uniform,
            &mut rng,
        );
        assert_eq!(out2.weights.get(s(0)), 4.0);
        assert_eq!(out2.sample.len(), 2);
    }

    #[test]
    fn sampler_carries_weights_across_batches() {
        // Figure 3: second batch of a stratum arrives without weight
        // metadata; the sampler must reuse the last seen input weight.
        let mut rng = StdRng::seed_from_u64(10);
        let mut node = WhsSampler::new(Allocation::Uniform);

        let mut first = batch_of(&[(0, 2)]);
        first.weights.set(s(0), 1.5);
        let out1 = node.sample_batch(&first, 1, &mut rng);
        assert!(
            (out1.weights.get(s(0)) - 3.0).abs() < 1e-12,
            "1.5 * 2/1 = 3"
        );

        let second = batch_of(&[(0, 2)]); // no weight metadata
        let out2 = node.sample_batch(&second, 1, &mut rng);
        assert!(
            (out2.weights.get(s(0)) - 3.0).abs() < 1e-12,
            "carried 1.5 * 2 = 3"
        );
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let mut rng = StdRng::seed_from_u64(11);
        let out = whs_sample(
            &Batch::new(),
            10,
            &WeightMap::new(),
            Allocation::Uniform,
            &mut rng,
        );
        assert!(out.sample.is_empty());
        assert!(out.weights.is_empty());
    }

    #[test]
    fn budget_zero_drops_everything_without_weights() {
        let mut rng = StdRng::seed_from_u64(12);
        let batch = batch_of(&[(0, 5)]);
        let out = whs_sample(&batch, 0, &WeightMap::new(), Allocation::Uniform, &mut rng);
        assert!(out.sample.is_empty());
        assert!(
            out.weights.is_empty(),
            "fully dropped strata carry no weight"
        );
    }

    #[test]
    fn budget_larger_than_batch_is_lossless() {
        let mut rng = StdRng::seed_from_u64(13);
        let batch = batch_of(&[(0, 5), (1, 7)]);
        let out = whs_sample(
            &batch,
            100,
            &WeightMap::new(),
            Allocation::Uniform,
            &mut rng,
        );
        assert_eq!(out.sample.len(), 12);
        assert_eq!(out.weights.get(s(0)), 1.0);
        assert_eq!(out.weights.get(s(1)), 1.0);
    }

    #[test]
    fn sampler_reset_forgets_carried_weights() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut node = WhsSampler::new(Allocation::Uniform);
        let mut first = batch_of(&[(0, 1)]);
        first.weights.set(s(0), 5.0);
        node.sample_batch(&first, 10, &mut rng);
        node.reset();
        let out = node.sample_batch(&batch_of(&[(0, 1)]), 10, &mut rng);
        assert_eq!(
            out.weights.get(s(0)),
            1.0,
            "after reset unknown strata weigh 1"
        );
    }

    #[test]
    fn columnar_kernel_bit_identical_to_aos() {
        // The acceptance invariant of the columnar refactor: same logical
        // items + same RNG state ⇒ byte-for-byte the same sample and
        // weights through either layout. Cover grouped inputs (bulk-copy
        // fast path), interleaved inputs (permutation gather) and several
        // budgets (fit / overflow / drop arms).
        let grouped = batch_of(&[(0, 40), (1, 7), (5, 120)]);
        let mut interleaved_items = Vec::new();
        for k in 0..60 {
            interleaved_items.push(StreamItem::with_meta(
                s(k % 3),
                k as f64,
                k as u64,
                k as u64,
            ));
        }
        let interleaved = Batch::from_items(interleaved_items);
        for (batch, label) in [(&grouped, "grouped"), (&interleaved, "interleaved")] {
            for budget in [0, 2, 25, 500] {
                for seed in [1u64, 42, 0xDEAD] {
                    let mut w_in = WeightMap::new();
                    w_in.set(s(0), 2.5);
                    let mut aos_rng = StdRng::seed_from_u64(seed);
                    let mut kernel = WhsScratch::new();
                    let aos = kernel.sample_slice(
                        &batch.items,
                        budget,
                        &w_in,
                        Allocation::Uniform,
                        &mut aos_rng,
                    );
                    let cols_in = ColumnarBatch::from_batch(batch);
                    let mut soa_rng = StdRng::seed_from_u64(seed);
                    let mut soa_kernel = WhsScratch::new();
                    let mut cols_out = ColumnarBatch::new();
                    soa_kernel.sample_columns_into(
                        cols_in.view(),
                        budget,
                        &w_in,
                        Allocation::Uniform,
                        &mut cols_out,
                        &mut soa_rng,
                    );
                    assert_eq!(
                        cols_out.to_batch(),
                        aos.clone().into_batch(),
                        "{label}/budget {budget}/seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn columnar_sampler_carries_weights_like_aos() {
        // The stateful carry-forward rule (Figure 3) must behave the same
        // through the columnar entry, including across batches where the
        // second arrives without weight metadata.
        let mut first = batch_of(&[(0, 8), (1, 3)]);
        first.weights.set(s(0), 1.5);
        let second = batch_of(&[(0, 6)]); // no weight metadata

        let mut aos_rng = StdRng::seed_from_u64(99);
        let mut aos_node = WhsSampler::new(Allocation::Uniform);
        let aos1 = aos_node.sample_batch(&first, 4, &mut aos_rng);
        let aos2 = aos_node.sample_batch(&second, 2, &mut aos_rng);

        let mut soa_rng = StdRng::seed_from_u64(99);
        let mut soa_node = WhsSampler::new(Allocation::Uniform);
        let mut out1 = ColumnarBatch::new();
        let mut out2 = ColumnarBatch::new();
        soa_node.sample_columns_into(
            &ColumnarBatch::from_batch(&first),
            4,
            &mut out1,
            &mut soa_rng,
        );
        soa_node.sample_columns_into(
            &ColumnarBatch::from_batch(&second),
            2,
            &mut out2,
            &mut soa_rng,
        );

        assert_eq!(out1.to_batch(), aos1.into_batch());
        assert_eq!(out2.to_batch(), aos2.into_batch());
        // And the resolved-weights helper agrees with the AoS one.
        let mut a = WhsSampler::new(Allocation::Uniform);
        let mut b = WhsSampler::new(Allocation::Uniform);
        assert_eq!(
            a.resolve_weights(&first),
            b.resolve_weights_columns(&ColumnarBatch::from_batch(&first))
        );
    }

    /// Floyd's draws over a plain word-slice bitset: the reference both
    /// sides of `floyd_pick_into` must reproduce.
    fn floyd_pick_reference(c: usize, n: usize, rng: &mut StdRng) -> Vec<u32> {
        let mut bits = vec![0u64; c.div_ceil(64)];
        let mut chosen = Vec::new();
        for j in (c - n)..c {
            let t = rng.random_range(0..(j as u64 + 1)) as usize;
            let pick = if bits[t / 64] >> (t % 64) & 1 == 1 {
                j
            } else {
                t
            };
            bits[pick / 64] |= 1 << (pick % 64);
            chosen.push(pick as u32);
        }
        chosen
    }

    #[test]
    fn floyd_register_and_slice_bitsets_pick_like_the_word_loop() {
        // Spans the register side (c <= 64), the cutoff and two- and
        // three-word slices, with one shared scratch so a bit left set
        // by one draw would corrupt the next.
        let mut chosen = Vec::new();
        let mut bits = Vec::new();
        for c in 1..=130usize {
            for n in [1, c / 2, c - 1, c] {
                let seed = (c * 1000 + n) as u64;
                let mut expected_rng = StdRng::seed_from_u64(seed);
                let expected = floyd_pick_reference(c, n, &mut expected_rng);
                let mut rng = StdRng::seed_from_u64(seed);
                floyd_pick_into(c, n, &mut chosen, &mut bits, &mut rng);
                assert_eq!(chosen, expected, "c {c}, n {n}: picks and their order");
                assert_eq!(
                    rng.random::<u64>(),
                    expected_rng.random::<u64>(),
                    "c {c}, n {n}: same RNG draws consumed"
                );
                assert!(
                    bits.iter().all(|&w| w == 0),
                    "c {c}, n {n}: bitset returned all-zero"
                );
                // The word slice serves exactly the strata one register
                // cannot hold (it only ever grows, from empty).
                assert_eq!(bits.is_empty(), c <= 64, "c {c}: bitset side");
            }
        }
    }

    #[test]
    fn output_batch_roundtrip() {
        let mut rng = StdRng::seed_from_u64(15);
        let batch = batch_of(&[(0, 10)]);
        let out = whs_sample(&batch, 5, &WeightMap::new(), Allocation::Uniform, &mut rng);
        let forwarded = out.clone().into_batch();
        assert_eq!(forwarded.items.len(), out.sample.len());
        assert_eq!(forwarded.weights, out.weights);
    }
}
