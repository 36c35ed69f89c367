//! Sharded execution of the sampler — paper §III-E.
//!
//! The paper's design extension for parallelisation: a sub-stream handled by
//! a node is split over `w` worker shards. Each shard samples its portion
//! into a local reservoir of size at most `N_i / w` and keeps a local
//! arrival counter for weight calculation. Because each shard produces its
//! own `(W_out, items)` pair and the root's `Θ` handling already accepts
//! multiple pairs per stratum (Equation 3 sums over pairs), no other part of
//! the design changes — the whole point of the section.

use crate::columns::{ColumnarBatch, ColumnsView};
use crate::item::StreamItem;
use crate::sampling::allocation::Allocation;
use crate::sampling::whs::{WhsOutput, WhsScratch};
use crate::weight::WeightMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shard `idx`'s reservoir budget: `total / workers`, with the remainder
/// distributed one slot each to the lowest-indexed shards so the budgets
/// sum exactly to `total`.
pub fn shard_budget(total: usize, workers: usize, idx: usize) -> usize {
    total / workers + usize::from(idx < total % workers)
}

/// Contiguous slice partitioning: shard `idx` of `workers` gets
/// `items.len() / workers` items, the remainder spread over the first
/// shards. Slices index directly into the caller's buffer — no per-shard
/// item vectors.
pub fn shard_slice(items: &[StreamItem], workers: usize, idx: usize) -> &[StreamItem] {
    let (start, end) = shard_bounds(items.len(), workers, idx);
    &items[start..end]
}

/// The `(start, end)` bounds [`shard_slice`] cuts for shard `idx` of
/// `workers` over `n` items. Columnar shards take these bounds directly
/// over the column buffers ([`ColumnsView::range`]), so both layouts
/// partition identically by construction.
pub fn shard_bounds(n: usize, workers: usize, idx: usize) -> (usize, usize) {
    let base = n / workers;
    let extra = n % workers;
    let start = idx * base + idx.min(extra);
    let len = base + usize::from(idx < extra);
    (start, start + len)
}

/// §III-E sharding: the node's sub-stream is split over `w` worker shards,
/// each with its own reservoir budget, arrival counts and RNG. The shards
/// run one after another on the caller's thread.
///
/// * **Slice partitioning** — each shard samples a contiguous slice of the
///   input (no per-shard copies of the batch). The paper's analysis only
///   needs each shard to count its own arrivals, so any partition is
///   admissible.
/// * **Per-shard deterministic RNG** — shard `i` owns a `StdRng` seeded
///   `seed ^ i` at construction and advanced only by that shard, so a
///   fixed `(seed, workers)` pair reproduces identical samples.
/// * **Per-shard reusable [`WhsScratch`]** — the zero-allocation hot-path
///   kernel, one per shard, reused across batches.
/// * **Exact budget split** — remainder slots are distributed, so the
///   shard budgets always sum to the requested sample size.
///
/// Input weights arrive resolved: the carry-forward rule (Figure 3) is the
/// caller's, so a node keeps one weight store whether it shards or not.
///
/// Each shard emits its own `(W_out, items)` pair; the root's `Θ`
/// handling (Equation 3) sums over pairs, so downstream code is unchanged
/// — the whole point of §III-E. The section fixes what each shard counts
/// and emits, not which thread runs it: on the 2-CPU hosts this repo is
/// measured on, the edge-node threads already keep every core busy, and
/// shard threads only added handoffs (README, "Sharded nodes sample on
/// the node thread").
///
/// # Examples
///
/// ```
/// use approxiot_core::{Allocation, ShardedSampler, StratumId, StreamItem, WeightMap};
///
/// let items: Vec<_> = (0..100).map(|i| StreamItem::new(StratumId::new(0), i as f64)).collect();
/// let mut sampler = ShardedSampler::new(Allocation::Uniform, 4, 7);
/// let outs = sampler.sample_with_weights(&items, 20, &WeightMap::new());
/// assert_eq!(outs.len(), 4);
/// let total: usize = outs.iter().map(|o| o.sample.len()).sum();
/// assert_eq!(total, 20);
/// ```
#[derive(Debug)]
pub struct ShardedSampler {
    allocation: Allocation,
    shards: Vec<ShardState>,
}

/// One shard's private state, reused across batches.
#[derive(Debug)]
struct ShardState {
    rng: StdRng,
    scratch: WhsScratch,
}

impl ShardedSampler {
    /// Creates a sampler with `workers` shards. Shard `i` draws from a
    /// generator seeded `seed ^ i`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(allocation: Allocation, workers: usize, seed: u64) -> Self {
        assert!(workers > 0, "workers must be positive");
        let shards = (0..workers as u64)
            .map(|i| ShardState {
                // D3-allowlisted shard seeding: the node seed fans out per
                // shard with the documented `^ i` scheme.
                #[allow(clippy::disallowed_methods)]
                rng: StdRng::seed_from_u64(seed ^ i),
                scratch: WhsScratch::new(),
            })
            .collect();
        ShardedSampler { allocation, shards }
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Samples `items` across all shards with resolved input weights; one
    /// [`WhsOutput`] per shard, in shard order.
    pub fn sample_with_weights(
        &mut self,
        items: &[StreamItem],
        sample_size: usize,
        w_in: &WeightMap,
    ) -> Vec<WhsOutput> {
        let workers = self.shards.len();
        let allocation = self.allocation;
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(idx, shard)| {
                shard.scratch.sample_slice(
                    shard_slice(items, workers, idx),
                    shard_budget(sample_size, workers, idx),
                    w_in,
                    allocation,
                    &mut shard.rng,
                )
            })
            .collect()
    }

    /// Samples a columnar view across all shards with resolved input
    /// weights, into caller-owned outputs: `outs` is resized to one batch
    /// per shard and shard `idx` overwrites `outs[idx]` with its sample of
    /// `input.range(start, end)`, whatever it held, keeping its storage.
    /// The range is the [`shard_bounds`] cut — the same partition
    /// [`shard_slice`] makes — and each shard draws with the same RNG and
    /// budget as [`ShardedSampler::sample_with_weights`], so for a fixed
    /// seed the shard outputs are **bit-identical** to the AoS path
    /// (pinned by tests). A caller that passes the same `outs` every frame
    /// allocates no output columns once they have grown to the frame size.
    pub fn sample_columns_with_weights_into(
        &mut self,
        input: ColumnsView<'_>,
        sample_size: usize,
        w_in: &WeightMap,
        outs: &mut Vec<ColumnarBatch>,
    ) {
        let workers = self.shards.len();
        let allocation = self.allocation;
        outs.resize_with(workers, ColumnarBatch::new);
        for (idx, (shard, out)) in self.shards.iter_mut().zip(outs.iter_mut()).enumerate() {
            let (start, end) = shard_bounds(input.len(), workers, idx);
            shard.scratch.sample_columns_into(
                input.range(start, end),
                shard_budget(sample_size, workers, idx),
                w_in,
                allocation,
                out,
                &mut shard.rng,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::estimate::ThetaStore;
    use crate::item::StratumId;

    fn s(i: u32) -> StratumId {
        StratumId::new(i)
    }

    fn batch_of(counts: &[(u32, usize)]) -> Batch {
        let mut items = Vec::new();
        for &(stratum, n) in counts {
            for k in 0..n {
                items.push(StreamItem::with_meta(s(stratum), 1.0, k as u64, 0));
            }
        }
        Batch::from_items(items)
    }

    /// Samples `batch` with its own weights as the resolved input weights.
    fn sample(sampler: &mut ShardedSampler, batch: &Batch, size: usize) -> Vec<WhsOutput> {
        sampler.sample_with_weights(&batch.items, size, &batch.weights)
    }

    /// Samples `cols` with its own weights as the resolved input weights,
    /// into fresh outputs.
    fn sample_columns(
        sampler: &mut ShardedSampler,
        cols: &ColumnarBatch,
        size: usize,
    ) -> Vec<ColumnarBatch> {
        let mut outs = Vec::new();
        sampler.sample_columns_with_weights_into(cols.view(), size, &cols.weights, &mut outs);
        outs
    }

    #[test]
    fn shard_budgets_are_local_fractions() {
        let mut sampler = ShardedSampler::new(Allocation::Uniform, 4, 2);
        let outs = sample(&mut sampler, &batch_of(&[(0, 400)]), 40);
        assert_eq!(outs.len(), 4);
        for out in &outs {
            assert_eq!(out.sample.len(), 10, "each shard keeps N/w items");
            assert_eq!(out.weights.get(s(0)), 10.0, "100 local items / 10 slots");
        }
    }

    #[test]
    fn count_reconstruction_holds_across_shards() {
        // The union of shard outputs must still reconstruct the ground-truth
        // count (Equation 8) because each shard's local counter feeds its
        // local weight — also for the small stratum the slices split
        // unevenly.
        let batch = batch_of(&[(0, 1_000), (1, 37)]);
        let mut sampler = ShardedSampler::new(Allocation::Uniform, 3, 3);
        let theta: ThetaStore = sample(&mut sampler, &batch, 120).into_iter().collect();
        let est = theta.stratum_estimates();
        for (stratum, expected) in [(s(0), 1_000.0), (s(1), 37.0)] {
            let got = est[&stratum].count_hat;
            assert!(
                (got - expected).abs() < 1e-9,
                "{stratum}: reconstructed {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn shards_preserve_input_weights() {
        let mut batch = batch_of(&[(0, 90)]);
        batch.weights.set(s(0), 2.0);
        let mut sampler = ShardedSampler::new(Allocation::Uniform, 3, 4);
        let outs = sample(&mut sampler, &batch, 30);
        assert_eq!(outs.len(), 3);
        for out in &outs {
            // 30 local items into 10 slots: w = 2 * 3 = 6.
            assert!((out.weights.get(s(0)) - 6.0).abs() < 1e-12);
        }
    }

    #[test]
    fn budget_remainder_is_not_lost() {
        // 10 budget over 3 workers: an integer-truncated split would give
        // 3+3+3 = 9 slots; the remainder split gives 4+3+3 = 10.
        let mut sampler = ShardedSampler::new(Allocation::Uniform, 3, 6);
        let outs = sample(&mut sampler, &batch_of(&[(0, 300)]), 10);
        let total: usize = outs.iter().map(|o| o.sample.len()).sum();
        assert_eq!(total, 10, "remainder slots distributed across shards");
        assert_eq!(outs[0].sample.len(), 4);
        assert_eq!(outs[1].sample.len(), 3);
    }

    #[test]
    fn shard_slices_partition_exactly() {
        let items: Vec<_> = (0..10)
            .map(|k| StreamItem::with_meta(s(0), 0.0, k, 0))
            .collect();
        let mut seen = Vec::new();
        for idx in 0..3 {
            seen.extend_from_slice(shard_slice(&items, 3, idx));
        }
        assert_eq!(seen.len(), 10);
        assert!(
            seen.iter().enumerate().all(|(k, i)| i.seq == k as u64),
            "cover in order"
        );
        assert_eq!(shard_slice(&items, 3, 0).len(), 4);
        assert_eq!(shard_slice(&items, 3, 2).len(), 3);
    }

    #[test]
    fn parallel_sampler_matches_budget_and_reconstructs_counts() {
        let batch = batch_of(&[(0, 20_000), (1, 1_000)]);
        let mut sampler = ShardedSampler::new(Allocation::Uniform, 8, 42);
        let outs = sample(&mut sampler, &batch, 2_100);
        assert_eq!(outs.len(), 8);
        let total: usize = outs.iter().map(|o| o.sample.len()).sum();
        assert_eq!(total, 2_100, "budgets sum exactly to the request");
        let theta: ThetaStore = outs.into_iter().collect();
        let est = theta.stratum_estimates();
        for (stratum, expected) in [(s(0), 20_000.0), (s(1), 1_000.0)] {
            let got = est[&stratum].count_hat;
            assert!(
                (got - expected).abs() < 1e-6,
                "{stratum}: reconstructed {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn parallel_sampler_is_deterministic_for_fixed_seed() {
        // Per-shard RNGs seeded `seed ^ i`: a fixed seed reproduces the
        // shard outputs exactly, a different seed diverges.
        for n in [100usize, 50_000] {
            let batch = batch_of(&[(0, n), (1, n / 2)]);
            let run = |seed: u64| {
                let mut sampler = ShardedSampler::new(Allocation::Uniform, 4, seed);
                sample(&mut sampler, &batch, n / 5)
            };
            let a = run(7);
            assert_eq!(
                a,
                run(7),
                "fixed seed + workers reproduces samples (n = {n})"
            );
            assert_ne!(a, run(8), "different seed diverges (n = {n})");
        }
    }

    #[test]
    fn parallel_sampler_carries_weights_forward() {
        // Carried weights arrive resolved in `w_in`, for a batch that
        // carries none of its own: they must reach every shard, and
        // strata missing from the map weigh 1.
        let mut carried = WeightMap::new();
        carried.set(s(0), 3.0);
        // Strata interleaved, so both shards see both.
        let items: Vec<_> = (0..16)
            .map(|k| StreamItem::with_meta(s(k % 2), 1.0, u64::from(k), 0))
            .collect();
        let mut sampler = ShardedSampler::new(Allocation::Uniform, 2, 3);
        let outs = sampler.sample_with_weights(&items, 8, &carried);
        assert_eq!(outs.len(), 2);
        for out in &outs {
            // 4 local items of a stratum into 2 slots.
            assert_eq!(out.weights.get(s(0)), 6.0, "3.0 carried into each shard");
            assert_eq!(out.weights.get(s(1)), 2.0, "no carry: weight 1");
        }
        let theta: ThetaStore = outs.into_iter().collect();
        let est = theta.stratum_estimates();
        assert!((est[&s(0)].count_hat - 24.0).abs() < 1e-9);
        assert!((est[&s(1)].count_hat - 8.0).abs() < 1e-9);
        // The sampler keeps no weights of its own: the next call without
        // a carry reconstructs the plain counts.
        let outs = sampler.sample_with_weights(&items, 8, &WeightMap::new());
        let theta: ThetaStore = outs.into_iter().collect();
        assert!(
            (theta.count_estimate() - 16.0).abs() < 1e-9,
            "nothing carried over between calls: {}",
            theta.count_estimate()
        );
    }

    #[test]
    fn columnar_shards_bit_identical_to_aos() {
        // Small and large batches over two rounds, with input weights: the
        // columnar shard outputs must match the AoS shard outputs exactly,
        // pair by pair.
        for n in [100usize, 20_000] {
            let mut batch = batch_of(&[(0, n), (1, n / 2)]);
            batch.weights.set(s(0), 2.0);
            let cols = ColumnarBatch::from_batch(&batch);
            let mut aos = ShardedSampler::new(Allocation::Uniform, 4, 11);
            let mut soa = ShardedSampler::new(Allocation::Uniform, 4, 11);
            for round in 0..2 {
                let a = sample(&mut aos, &batch, n / 5);
                let b = sample_columns(&mut soa, &cols, n / 5);
                assert_eq!(a.len(), b.len());
                for (shard_a, shard_b) in a.into_iter().zip(b) {
                    assert_eq!(
                        shard_b.to_batch(),
                        shard_a.into_batch(),
                        "n = {n}, round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn reused_shard_outputs_match_fresh_ones() {
        // One `outs` vector across frames that grow and shrink, with and
        // without carried weights: every frame's shard outputs equal a
        // same-seeded sampler's freshly allocated ones.
        let mut fresh = ShardedSampler::new(Allocation::Uniform, 3, 8);
        let mut reusing = ShardedSampler::new(Allocation::Uniform, 3, 8);
        let mut outs = Vec::new();
        for (round, n) in [600usize, 40, 2, 900, 0, 75].into_iter().enumerate() {
            let mut batch = batch_of(&[(0, n), (1, n / 3), (2, 5)]);
            if round % 2 == 1 {
                batch.weights.set(s(1), 4.0);
            }
            let cols = ColumnarBatch::from_batch(&batch);
            let expected = sample_columns(&mut fresh, &cols, n / 4);
            reusing.sample_columns_with_weights_into(cols.view(), n / 4, &cols.weights, &mut outs);
            assert_eq!(outs, expected, "round {round}, n = {n}");
        }
    }

    #[test]
    fn shard_bounds_match_shard_slice() {
        let items: Vec<_> = (0..17)
            .map(|k| StreamItem::with_meta(s(0), 0.0, k, 0))
            .collect();
        for workers in 1..6 {
            for idx in 0..workers {
                let (start, end) = shard_bounds(items.len(), workers, idx);
                assert_eq!(&items[start..end], shard_slice(&items, workers, idx));
            }
        }
    }

    #[test]
    fn parallel_one_worker_equals_whole_budget() {
        let batch = batch_of(&[(0, 100)]);
        let mut sampler = ShardedSampler::new(Allocation::Uniform, 1, 1);
        let outs = sample(&mut sampler, &batch, 10);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].sample.len(), 10);
        assert_eq!(outs[0].weights.get(s(0)), 10.0);
    }

    #[test]
    #[should_panic(expected = "workers must be positive")]
    fn parallel_rejects_zero_workers() {
        ShardedSampler::new(Allocation::Uniform, 0, 0);
    }

    #[test]
    fn uneven_item_count_distributes_remainder() {
        let mut sampler = ShardedSampler::new(Allocation::Uniform, 3, 5);
        let outs = sample(&mut sampler, &batch_of(&[(0, 10)]), 100);
        let total: usize = outs.iter().map(|o| o.sample.len()).sum();
        assert_eq!(total, 10, "budget exceeds items: everything survives");
    }

    #[test]
    fn empty_and_tiny_batches_are_fine() {
        // Both layouts: every shard still answers, with an empty pair.
        let mut sampler = ShardedSampler::new(Allocation::Uniform, 4, 9);
        let outs = sample(&mut sampler, &Batch::new(), 10);
        assert_eq!(outs.len(), 4);
        assert!(outs
            .iter()
            .all(|o| o.sample.is_empty() && o.weights.is_empty()));
        let empty = ColumnarBatch::new();
        let outs = sample_columns(&mut sampler, &empty, 10);
        assert_eq!(outs.len(), 4);
        assert!(outs.iter().all(|o| o.is_empty() && o.weights.is_empty()));
        // Fewer items than shards: trailing shards see empty slices.
        let tiny = batch_of(&[(0, 2)]);
        let outs = sample(&mut sampler, &tiny, 10);
        let sizes: Vec<usize> = outs.iter().map(|o| o.sample.len()).collect();
        assert_eq!(sizes, [1, 1, 0, 0]);
        let cols = ColumnarBatch::from_batch(&tiny);
        let outs = sample_columns(&mut sampler, &cols, 10);
        let sizes: Vec<usize> = outs.iter().map(ColumnarBatch::len).collect();
        assert_eq!(sizes, [1, 1, 0, 0]);
    }
}
