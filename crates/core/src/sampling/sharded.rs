//! Sharded (distributed) execution of the sampler — paper §III-E.
//!
//! The paper's design extension for parallelisation: a sub-stream handled by
//! a node is split over `w` worker shards. Each shard samples its portion
//! into a local reservoir of size at most `N_i / w` and keeps a local
//! arrival counter for weight calculation. Because each shard produces its
//! own `(W_out, items)` pair and the root's `Θ` handling already accepts
//! multiple pairs per stratum (Equation 3 sums over pairs), no other part of
//! the design changes — the whole point of the section.

use crate::batch::Batch;
use crate::columns::{ColumnarBatch, ColumnsView};
use crate::item::StreamItem;
use crate::sampling::allocation::Allocation;
use crate::sampling::whs::{WhsOutput, WhsScratch};
use crate::weight::{WeightMap, WeightStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shard `idx`'s reservoir budget: `total / workers`, with the remainder
/// distributed one slot each to the lowest-indexed shards so the budgets
/// sum exactly to `total`.
///
/// Public because the persistent `WorkerPool` in `approxiot-runtime` must
/// split budgets **identically** to [`ParallelShardedSampler`] for its
/// bit-identical-output guarantee to hold.
pub fn shard_budget(total: usize, workers: usize, idx: usize) -> usize {
    total / workers + usize::from(idx < total % workers)
}

/// Contiguous slice partitioning: shard `idx` of `workers` gets
/// `items.len() / workers` items, the remainder spread over the first
/// shards. Slices index directly into the caller's buffer — no per-shard
/// item vectors.
///
/// Public for the same reason as [`shard_budget`]: every execution engine
/// of the §III-E design must partition identically or fixed-seed outputs
/// diverge between engines.
pub fn shard_slice(items: &[StreamItem], workers: usize, idx: usize) -> &[StreamItem] {
    let (start, end) = shard_bounds(items.len(), workers, idx);
    &items[start..end]
}

/// The `(start, end)` bounds [`shard_slice`] cuts for shard `idx` of
/// `workers` over `n` items. Columnar shard jobs take these bounds
/// directly over the column buffers ([`ColumnsView::range`]), so both
/// layouts partition identically by construction.
pub fn shard_bounds(n: usize, workers: usize, idx: usize) -> (usize, usize) {
    let base = n / workers;
    let extra = n % workers;
    let start = idx * base + idx.min(extra);
    let len = base + usize::from(idx < extra);
    (start, start + len)
}

/// Truly parallel §III-E sharding: the node's sub-stream is split over `w`
/// worker shards that sample **concurrently** on a scoped-thread pool.
///
/// * **Slice partitioning** — each shard samples a contiguous slice of the
///   input (no per-shard copies of the batch). The paper's analysis only
///   needs each shard to count its own arrivals, so any partition is
///   admissible.
/// * **Per-shard deterministic RNG** — shard `i` owns a `StdRng` seeded
///   `seed ^ i` at construction and advanced only by that shard, so a
///   fixed `(seed, workers)` pair reproduces identical samples regardless
///   of thread scheduling, batch sizes or how often the parallel path
///   engages.
/// * **Per-shard reusable [`WhsScratch`]** — the zero-allocation hot-path
///   kernel, one per worker, reused across batches.
/// * **No `WeightMap` clones** — shards share the resolved input weights
///   by reference across the scope.
/// * **Exact budget split** — remainder slots are distributed, so the
///   shard budgets always sum to the requested sample size.
///
/// Each shard still emits its own `(W_out, items)` pair; the root's `Θ`
/// handling (Equation 3) sums over pairs, so downstream code is unchanged
/// — the whole point of §III-E.
///
/// Small batches (fewer than [`ParallelShardedSampler::MIN_PARALLEL_ITEMS`]
/// items) run the shards inline on the calling thread: identical output,
/// no spawn overhead.
///
/// The worker scope is spawned **per batch**; on hosts where thread
/// spawn+join (tens of µs per worker) is comparable to the per-batch
/// sampling work, that overhead matters. The runtime crate's persistent
/// `WorkerPool` amortises it with long-lived channel-fed workers and is
/// what the threaded pipeline uses; it produces bit-identical output to
/// this sampler (same [`shard_slice`]/[`shard_budget`] partitioning, same
/// per-shard RNG discipline), which keeps this type as the reference
/// implementation and property-test oracle.
///
/// # Examples
///
/// ```
/// use approxiot_core::{Allocation, Batch, ParallelShardedSampler, StratumId, StreamItem};
///
/// let items: Vec<_> = (0..100).map(|i| StreamItem::new(StratumId::new(0), i as f64)).collect();
/// let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 4, 7);
/// let outs = sampler.sample_batch(&Batch::from_items(items), 20);
/// assert_eq!(outs.len(), 4);
/// let total: usize = outs.iter().map(|o| o.sample.len()).sum();
/// assert_eq!(total, 20);
/// ```
#[derive(Debug)]
pub struct ParallelShardedSampler {
    allocation: Allocation,
    store: WeightStore,
    shards: Vec<ShardState>,
    /// Reusable buffer for the batch's distinct strata (weight
    /// resolution).
    strata_scratch: Vec<crate::item::StratumId>,
    /// Spawn the worker scope for large batches. Defaults to whether the
    /// machine has more than one logical CPU; override with
    /// [`ParallelShardedSampler::set_threaded`]. Output is identical
    /// either way — each shard's RNG belongs to the shard, not a thread.
    threaded: bool,
}

/// One worker shard's private state, reused across batches.
#[derive(Debug)]
struct ShardState {
    rng: StdRng,
    scratch: WhsScratch,
}

impl ParallelShardedSampler {
    /// Batches smaller than this sample inline instead of spawning the
    /// worker scope (thread startup would dominate the sampling work).
    pub const MIN_PARALLEL_ITEMS: usize = 4096;

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
                // D3-allowlisted worker-lane seeding: the node seed fans
                // out per shard with the documented `^ i` scheme.
                #[allow(clippy::disallowed_methods)]
                rng: StdRng::seed_from_u64(seed ^ i),
                scratch: WhsScratch::new(),
            })
            .collect();
        let threaded = std::thread::available_parallelism()
            .map(|n| n.get() > 1)
            .unwrap_or(false);
        ParallelShardedSampler {
            allocation,
            store: WeightStore::new(),
            shards,
            strata_scratch: Vec::new(),
            threaded,
        }
    }

    /// Forces the scoped-thread path on or off (on by default when the
    /// machine has more than one logical CPU). Sampling output is
    /// unaffected; this only trades thread-spawn overhead against
    /// parallel speedup.
    pub fn set_threaded(&mut self, threaded: bool) {
        self.threaded = threaded;
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The allocation policy in use.
    pub fn allocation(&self) -> Allocation {
        self.allocation
    }

    /// Samples one batch across all shards, resolving missing input
    /// weights via the carry-forward rule (like [`crate::WhsSampler`]); one
    /// [`WhsOutput`] per shard, in shard order.
    pub fn sample_batch(&mut self, batch: &Batch, sample_size: usize) -> Vec<WhsOutput> {
        let mut strata = std::mem::take(&mut self.strata_scratch);
        crate::batch::distinct_strata_into(&batch.items, &mut strata);
        let resolved = self.store.resolve(strata.iter().copied(), &batch.weights);
        self.strata_scratch = strata;
        self.sample_with_weights(&batch.items, sample_size, &resolved)
    }

    /// Samples `items` across all shards with already-resolved input
    /// weights, shared by reference with every worker.
    pub fn sample_with_weights(
        &mut self,
        items: &[StreamItem],
        sample_size: usize,
        w_in: &WeightMap,
    ) -> Vec<WhsOutput> {
        let workers = self.shards.len();
        let allocation = self.allocation;
        if workers == 1 || !self.threaded || items.len() < Self::MIN_PARALLEL_ITEMS {
            // Inline path: identical per-shard RNG/scratch usage, so the
            // output matches the threaded path bit for bit.
            return self
                .shards
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
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(idx, shard)| {
                    let slice = shard_slice(items, workers, idx);
                    let budget = shard_budget(sample_size, workers, idx);
                    scope.spawn(move || {
                        shard
                            .scratch
                            .sample_slice(slice, budget, w_in, allocation, &mut shard.rng)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    }

    /// Samples one columnar batch across all shards, resolving missing
    /// input weights via the carry-forward rule — the columnar twin of
    /// [`ParallelShardedSampler::sample_batch`]. One output per shard, in
    /// shard order, each carrying its `(W_out, sample)` pair.
    pub fn sample_columns(
        &mut self,
        batch: &ColumnarBatch,
        sample_size: usize,
    ) -> Vec<ColumnarBatch> {
        let mut strata = std::mem::take(&mut self.strata_scratch);
        crate::columns::distinct_strata_u32_into(&batch.strata, &mut strata);
        let resolved = self.store.resolve(strata.iter().copied(), &batch.weights);
        self.strata_scratch = strata;
        self.sample_columns_with_weights(batch.view(), sample_size, &resolved)
    }

    /// Samples a columnar view across all shards with already-resolved
    /// input weights. Shard `idx` samples `input.range(start, end)` with
    /// the [`shard_bounds`] cut — the same partition [`shard_slice`]
    /// makes — with the same per-shard RNG and budget as
    /// [`ParallelShardedSampler::sample_with_weights`], so for a fixed
    /// seed the shard outputs are **bit-identical** to the AoS path
    /// (pinned by tests).
    pub fn sample_columns_with_weights(
        &mut self,
        input: ColumnsView<'_>,
        sample_size: usize,
        w_in: &WeightMap,
    ) -> Vec<ColumnarBatch> {
        let workers = self.shards.len();
        let allocation = self.allocation;
        if workers == 1 || !self.threaded || input.len() < Self::MIN_PARALLEL_ITEMS {
            // Inline path: identical per-shard RNG/scratch usage, so the
            // output matches the threaded path bit for bit.
            return self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(idx, shard)| {
                    let (start, end) = shard_bounds(input.len(), workers, idx);
                    let mut out = ColumnarBatch::new();
                    shard.scratch.sample_columns_into(
                        input.range(start, end),
                        shard_budget(sample_size, workers, idx),
                        w_in,
                        allocation,
                        &mut out,
                        &mut shard.rng,
                    );
                    out
                })
                .collect();
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(idx, shard)| {
                    let (start, end) = shard_bounds(input.len(), workers, idx);
                    let view = input.range(start, end);
                    let budget = shard_budget(sample_size, workers, idx);
                    scope.spawn(move || {
                        let mut out = ColumnarBatch::new();
                        shard.scratch.sample_columns_into(
                            view,
                            budget,
                            w_in,
                            allocation,
                            &mut out,
                            &mut shard.rng,
                        );
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    }

    /// Forgets carried weights (between independent runs). Shard RNGs keep
    /// advancing; rebuild the sampler to reproduce a run from its seed.
    pub fn reset(&mut self) {
        self.store.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn shard_budgets_are_local_fractions() {
        let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 4, 2);
        let outs = sampler.sample_batch(&batch_of(&[(0, 400)]), 40);
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
        let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 3, 3);
        let theta: ThetaStore = sampler.sample_batch(&batch, 120).into_iter().collect();
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
        let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 3, 4);
        let outs = sampler.sample_batch(&batch, 30);
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
        let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 3, 6);
        let outs = sampler.sample_batch(&batch_of(&[(0, 300)]), 10);
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
        let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 8, 42);
        let outs = sampler.sample_batch(&batch, 2_100);
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
        // Threaded and inline execution must both reproduce exactly for a
        // fixed seed — per-shard RNGs make the output independent of the
        // thread schedule (and of whether threads are used at all).
        for n in [100usize, 50_000] {
            let batch = batch_of(&[(0, n), (1, n / 2)]);
            let run = |seed: u64, threaded: bool| {
                let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 4, seed);
                sampler.set_threaded(threaded);
                sampler.sample_batch(&batch, n / 5)
            };
            let a = run(7, true);
            let b = run(7, true);
            assert_eq!(a, b, "fixed seed + workers reproduces samples (n = {n})");
            let inline = run(7, false);
            assert_eq!(a, inline, "inline path matches threaded path (n = {n})");
            let c = run(8, true);
            assert_ne!(a, c, "different seed diverges (n = {n})");
        }
    }

    #[test]
    fn parallel_sampler_carries_weights_forward() {
        let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 2, 3);
        let mut first = batch_of(&[(0, 8)]);
        first.weights.set(s(0), 3.0);
        sampler.sample_batch(&first, 8);
        // Weightless follow-up: carried 3.0 must reach every shard.
        let outs = sampler.sample_batch(&batch_of(&[(0, 8)]), 4);
        let theta: ThetaStore = outs.into_iter().collect();
        assert!(
            (theta.count_estimate() - 24.0).abs() < 1e-9,
            "3.0 carried into both shards: {}",
            theta.count_estimate()
        );
        sampler.reset();
        let outs = sampler.sample_batch(&batch_of(&[(0, 8)]), 4);
        let theta: ThetaStore = outs.into_iter().collect();
        assert!(
            (theta.count_estimate() - 8.0).abs() < 1e-9,
            "reset clears carry"
        );
    }

    #[test]
    fn columnar_shards_bit_identical_to_aos() {
        // Small (inline) and large (threaded) batches, with carried
        // weights: the columnar shard outputs must match the AoS shard
        // outputs exactly, pair by pair.
        for n in [100usize, 20_000] {
            let mut batch = batch_of(&[(0, n), (1, n / 2)]);
            batch.weights.set(s(0), 2.0);
            let cols = ColumnarBatch::from_batch(&batch);
            let mut aos = ParallelShardedSampler::new(Allocation::Uniform, 4, 11);
            let mut soa = ParallelShardedSampler::new(Allocation::Uniform, 4, 11);
            for round in 0..2 {
                let a = aos.sample_batch(&batch, n / 5);
                let b = soa.sample_columns(&cols, n / 5);
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
        let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 1, 1);
        let outs = sampler.sample_batch(&batch, 10);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].sample.len(), 10);
        assert_eq!(outs[0].weights.get(s(0)), 10.0);
    }

    #[test]
    #[should_panic(expected = "workers must be positive")]
    fn parallel_rejects_zero_workers() {
        ParallelShardedSampler::new(Allocation::Uniform, 0, 0);
    }

    #[test]
    fn uneven_item_count_distributes_remainder() {
        let mut sampler = ParallelShardedSampler::new(Allocation::Uniform, 3, 5);
        let outs = sampler.sample_batch(&batch_of(&[(0, 10)]), 100);
        let total: usize = outs.iter().map(|o| o.sample.len()).sum();
        assert_eq!(total, 10, "budget exceeds items: everything survives");
    }
}
