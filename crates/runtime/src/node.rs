//! Sampling nodes: the per-node behaviour of Algorithm 2, parameterised by
//! sampling strategy so the same pipeline can run ApproxIoT, the SRS
//! baseline or the native (no sampling) execution.

use crate::query::QuerySpec;
use approxiot_core::{
    Allocation, Batch, ColumnarBatch, CostFunction, SamplingBudget, ShardedSampler, SketchConfig,
    SrsSampler, StratumSummaries, StreamItem, WhsSampler,
};
use approxiot_streams::TumblingWindow;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The sampling strategy a node runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Weighted hierarchical sampling (the paper's contribution).
    Whs {
        /// Per-stratum reservoir allocation policy.
        allocation: Allocation,
    },
    /// Coin-flip simple random sampling (the paper's baseline).
    Srs,
    /// No sampling: forward everything (the paper's "native execution").
    Native,
    /// Mergeable per-stratum summaries instead of sampled items: leaves
    /// fold their input into moment/KLL/Space-Saving summaries, inner
    /// nodes merge child summaries with no per-item work, and the root
    /// answers queries from the merged state. Frame size per hop is
    /// `O(strata · k)`, independent of the item rate.
    Sketch(SketchConfig),
}

impl Strategy {
    /// The default ApproxIoT strategy (uniform allocation).
    pub fn whs() -> Self {
        Strategy::Whs {
            allocation: Allocation::Uniform,
        }
    }

    /// The sketch strategy with the default summary sizes.
    pub fn sketch() -> Self {
        Strategy::Sketch(SketchConfig::default())
    }

    /// Short label for reports ("approxiot", "srs", "native", "sketch").
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Whs { .. } => "approxiot",
            Strategy::Srs => "srs",
            Strategy::Native => "native",
            Strategy::Sketch(_) => "sketch",
        }
    }

    /// Whether the strategy runs on sampled items (WHS/SRS/native) rather
    /// than mergeable summaries.
    pub fn ships_items(&self) -> bool {
        !matches!(self, Strategy::Sketch(_))
    }

    /// Whether a root running this strategy can answer `query`.
    ///
    /// Item strategies reconstruct every query from the weighted sample.
    /// Sketch strata answer moments-backed queries always, but
    /// `Quantile(q)` needs a KLL sketch (`kll_k > 0`) and `TopK(k)` a
    /// Space-Saving summary (`heavy_capacity > 0`) — a
    /// [`SketchConfig::counts_only`] topology supports neither. The
    /// [`crate::Driver`] front door rejects unsupported combinations with
    /// [`crate::EngineError::UnsupportedQuery`] instead of answering
    /// wrong-or-empty.
    pub fn supports(&self, query: &QuerySpec) -> bool {
        match self {
            Strategy::Whs { .. } | Strategy::Srs | Strategy::Native => true,
            Strategy::Sketch(config) => match query {
                QuerySpec::Sum
                | QuerySpec::Mean
                | QuerySpec::Count
                | QuerySpec::SumPerStratum
                | QuerySpec::MeanPerStratum
                | QuerySpec::CountPerStratum => true,
                QuerySpec::Quantile(_) => config.kll_k > 0,
                QuerySpec::TopK(_) => config.heavy_capacity > 0,
            },
        }
    }
}

/// What a node emits to its parent: sampled items (WHS/SRS/native) or
/// per-window mergeable summaries (sketch). The payload-typed output is
/// what lets one tree mix per-item and per-summary hops without the
/// engines assuming "always a [`Batch`]".
#[derive(Debug, Clone, PartialEq)]
pub enum NodePayload {
    /// A `(W_out, sample)` batch of items.
    Items(Batch),
    /// Per-stratum summaries keyed by window index, in window order.
    Summaries(Vec<(u64, StratumSummaries)>),
}

/// The sketch identity of one stream item: a deterministic function of the
/// item alone (never of arrival order or node placement), so every engine
/// and every node hashes the same item to the same KLL priority.
#[inline]
pub(crate) fn sketch_identity(item: &StreamItem) -> u64 {
    item.seq ^ item.source_ts.rotate_left(32)
}

/// Merges windowed summaries into a window-keyed accumulator. Summary
/// merge is associative and commutative bit-for-bit, so accumulation
/// order never shows in the result.
fn merge_windowed_summaries(
    acc: &mut BTreeMap<u64, StratumSummaries>,
    input: &[(u64, StratumSummaries)],
) {
    for (window, summaries) in input {
        match acc.entry(*window) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(summaries),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(summaries.clone());
            }
        }
    }
}

/// One sampling node of the logical tree (Algorithm 2, lines 2–19).
///
/// For every incoming `(W_in, items)` batch, the node derives its sample
/// size from the cost function and produces a `(W_out, sample)` batch for
/// its parent.
///
/// # Examples
///
/// ```
/// use approxiot_core::{Batch, StratumId, StreamItem};
/// use approxiot_runtime::{SamplingNode, Strategy};
///
/// let mut node = SamplingNode::new(Strategy::whs(), 0.5, 42)?;
/// let batch = Batch::from_items(
///     (0..100).map(|i| StreamItem::new(StratumId::new(0), i as f64)).collect(),
/// );
/// let out = node.process_batch(&batch);
/// assert_eq!(out.len(), 50);
/// # Ok::<(), approxiot_core::BudgetError>(())
/// ```
#[derive(Debug)]
pub struct SamplingNode {
    strategy: Strategy,
    budget: SamplingBudget,
    whs: WhsSampler,
    srs: Option<SrsSampler>,
    /// §III-E shards, present when the node was built with more than one
    /// worker and runs the WHS strategy. They sample on the node's own
    /// thread, with input weights resolved through `whs`'s store.
    shards: Option<ShardedSampler>,
    /// The summary path (`Some` only for sketch nodes): config, the
    /// topology-wide sketch seed, and the window-keyed accumulator that
    /// absorbed payloads merge into until [`SamplingNode::take_summaries`].
    sketch: Option<SketchState>,
    rng: StdRng,
    items_in: u64,
    items_out: u64,
}

/// The per-node state of the summary path.
#[derive(Debug)]
struct SketchState {
    config: SketchConfig,
    /// The topology-wide sketch seed ([`crate::Topology::sketch_seed`]):
    /// shared by every node so summaries merge (KLL requires it).
    seed: u64,
    /// Window-keyed merged summaries absorbed since the last take.
    acc: BTreeMap<u64, StratumSummaries>,
}

impl SamplingNode {
    /// Creates a node keeping `fraction` of its input under `strategy`.
    ///
    /// # Errors
    ///
    /// Returns [`approxiot_core::BudgetError`] unless `0 < fraction <= 1`.
    pub fn new(
        strategy: Strategy,
        fraction: f64,
        seed: u64,
    ) -> Result<Self, approxiot_core::BudgetError> {
        SamplingNode::with_workers(strategy, fraction, seed, 1)
    }

    /// Creates a node whose WHS sampling splits each batch over `workers`
    /// shards (the paper's §III-E): each shard has its own reservoir
    /// budget, arrival counts and RNG, and emits its own `(W_out, sample)`
    /// pair. The shards run one after another on the calling thread.
    /// `workers == 1` is the plain unsharded node; non-WHS strategies
    /// ignore the worker count (their samplers are per-item).
    ///
    /// # Errors
    ///
    /// Returns [`approxiot_core::BudgetError`] unless `0 < fraction <= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_workers(
        strategy: Strategy,
        fraction: f64,
        seed: u64,
        workers: usize,
    ) -> Result<Self, approxiot_core::BudgetError> {
        assert!(workers > 0, "workers must be positive");
        let budget = SamplingBudget::new(fraction)?;
        // The budget already validated the (0, 1] domain SrsSampler requires.
        let srs = match strategy {
            // analysis: allow(P1, reason = "SamplingBudget::new above already validated the (0, 1] domain")
            Strategy::Srs => Some(SrsSampler::new(fraction).expect("fraction validated by budget")),
            _ => None,
        };
        let allocation = match strategy {
            Strategy::Whs { allocation } => allocation,
            _ => Allocation::Uniform,
        };
        let shards = match strategy {
            Strategy::Whs { allocation } if workers > 1 => {
                // Deterministic shard seeds derive from the node seed; the
                // mixing constant keeps them disjoint from the node RNG.
                Some(ShardedSampler::new(allocation, workers, seed ^ 0x5A4D_BEEF))
            }
            _ => None,
        };
        let sketch = match strategy {
            Strategy::Sketch(config) => Some(SketchState {
                config,
                seed,
                acc: BTreeMap::new(),
            }),
            _ => None,
        };
        Ok(SamplingNode {
            strategy,
            budget,
            whs: WhsSampler::new(allocation),
            srs,
            shards,
            sketch,
            // D3-allowlisted: `seed` comes from Topology::node_seed.
            #[allow(clippy::disallowed_methods)]
            rng: StdRng::seed_from_u64(seed),
            items_in: 0,
            items_out: 0,
        })
    }

    /// The node's strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Worker shards the node samples with (1 = unsharded).
    pub fn workers(&self) -> usize {
        self.shards.as_ref().map_or(1, ShardedSampler::workers)
    }

    /// The node's sampling fraction.
    pub fn fraction(&self) -> f64 {
        self.budget.fraction()
    }

    /// Replaces the sampling fraction (adaptive feedback, §IV).
    ///
    /// # Errors
    ///
    /// Returns [`approxiot_core::BudgetError`] unless `0 < fraction <= 1`.
    pub fn set_fraction(&mut self, fraction: f64) -> Result<(), approxiot_core::BudgetError> {
        self.budget = SamplingBudget::new(fraction)?;
        if self.srs.is_some() {
            // analysis: allow(P1, reason = "SamplingBudget::new above already validated the (0, 1] domain")
            self.srs = Some(SrsSampler::new(fraction).expect("same domain as budget"));
        }
        Ok(())
    }

    /// Processes one incoming batch into the batch forwarded upstream.
    ///
    /// # Panics
    ///
    /// Panics on a sketch node — summary nodes forward summaries, not
    /// items; use [`SamplingNode::absorb_batch`] and
    /// [`SamplingNode::take_summaries`].
    pub fn process_batch(&mut self, batch: &Batch) -> Batch {
        self.items_in += batch.len() as u64;
        let out = match self.strategy {
            Strategy::Whs { .. } => {
                let size = self.budget.sample_size(batch.len());
                self.whs
                    .sample_batch(batch, size, &mut self.rng)
                    .into_batch()
            }
            Strategy::Srs => {
                let srs = self
                    .srs
                    .as_ref()
                    // analysis: allow(P1, reason = "constructor creates the sampler whenever strategy is Srs")
                    .expect("srs sampler present for Srs strategy");
                Batch::from_items(srs.sample(batch, &mut self.rng))
            }
            Strategy::Native => batch.clone(),
            Strategy::Sketch(_) => {
                // analysis: allow(P1, reason = "documented contract panic; the Driver front door never routes item batches to sketch nodes")
                panic!("sketch nodes forward summaries, not item batches; use absorb_batch and take_summaries")
            }
        };
        self.items_out += out.len() as u64;
        out
    }

    /// Processes one batch on the node's §III-E shards: one output batch
    /// per shard that kept an item, sampled on the calling thread.
    ///
    /// Falls back to a single [`SamplingNode::process_batch`] output when
    /// the node was built with one worker or runs a non-WHS strategy.
    /// Carried weights share the same store as the unsharded path, so the
    /// two entry points can be mixed freely.
    pub fn process_batch_parallel(&mut self, batch: &Batch) -> Vec<Batch> {
        let Some(shards) = self.shards.as_mut() else {
            return vec![self.process_batch(batch)];
        };
        self.items_in += batch.len() as u64;
        let size = self.budget.sample_size(batch.len());
        // Resolve carried weights through the node's single weight store.
        let resolved = self.whs.resolve_weights(batch);
        let outs = shards.sample_with_weights(&batch.items, size, &resolved);
        outs.into_iter()
            .filter(|o| !o.sample.is_empty())
            .map(|o| {
                self.items_out += o.sample.len() as u64;
                o.into_batch()
            })
            .collect()
    }

    /// Processes one incoming **columnar** batch — the hot-path twin of
    /// [`SamplingNode::process_batch`], running the flat-slice kernels.
    /// Bit-identical output for the same logical items and node state:
    /// every strategy consumes the node RNG exactly like its AoS
    /// counterpart. A fresh-output wrapper over
    /// [`SamplingNode::process_columns_into`].
    pub fn process_columns(&mut self, batch: &ColumnarBatch) -> ColumnarBatch {
        let mut out = ColumnarBatch::new();
        self.process_columns_into(batch, &mut out);
        out
    }

    /// [`SamplingNode::process_columns`] into a caller-owned output,
    /// replacing its contents (items and weights) and keeping its
    /// allocations — how an edge thread samples every frame into one
    /// reused column set. The result is the same as sampling into a fresh
    /// batch, whatever `out` held before.
    ///
    /// # Panics
    ///
    /// Panics on a sketch node, like [`SamplingNode::process_batch`].
    pub fn process_columns_into(&mut self, batch: &ColumnarBatch, out: &mut ColumnarBatch) {
        self.items_in += batch.len() as u64;
        match self.strategy {
            Strategy::Whs { .. } => {
                let size = self.budget.sample_size(batch.len());
                self.whs
                    .sample_columns_into(batch, size, out, &mut self.rng);
            }
            Strategy::Srs => {
                let srs = self
                    .srs
                    .as_ref()
                    // analysis: allow(P1, reason = "constructor creates the sampler whenever strategy is Srs")
                    .expect("srs sampler present for Srs strategy");
                out.clear();
                srs.sample_columns_into(batch.view(), out, &mut self.rng);
            }
            Strategy::Native => {
                out.clear();
                out.weights.merge_from(&batch.weights);
                out.extend_from_view(batch.view(), 0, batch.len());
            }
            Strategy::Sketch(_) => {
                // analysis: allow(P1, reason = "documented contract panic; the Driver front door never routes item batches to sketch nodes")
                panic!("sketch nodes forward summaries, not item batches; use absorb_batch and take_summaries")
            }
        }
        self.items_out += out.len() as u64;
    }

    /// Like [`SamplingNode::process_columns`], but borrows the input
    /// mutably so native (no-sampling) nodes can **move** the columns to
    /// the output instead of cloning them. WHS/SRS nodes sample from the
    /// columns and leave them untouched; native nodes leave them empty.
    /// Either way the caller keeps the input's storage for the next
    /// frame, but a WHS/SRS call allocates a fresh output (four columns
    /// and its weights). [`SamplingNode::process_columns_into`] reuses
    /// the output too, which leaves a warmed WHS edge thread allocating
    /// only weight-map nodes and the forwarded payload per frame — 3 at a
    /// leaf, 4 above it, pinned by `tests/alloc_budget.rs`.
    pub fn process_columns_mut(&mut self, batch: &mut ColumnarBatch) -> ColumnarBatch {
        if matches!(self.strategy, Strategy::Native) {
            let out = std::mem::take(batch);
            self.items_in += out.len() as u64;
            self.items_out += out.len() as u64;
            return out;
        }
        self.process_columns(batch)
    }

    /// Processes one columnar batch on the node's §III-E shards — the
    /// columnar twin of [`SamplingNode::process_batch_parallel`], with
    /// per-shard `(start, end)` ranges over the columns instead of item
    /// sub-slices, sampled on the calling thread. Shard outputs are
    /// bit-identical to the AoS path for the same logical items; carried
    /// weights share the same store, so the entry points can be mixed
    /// freely. (The name predates running the shards inline; the sharded
    /// benchmark workload calls it.)
    pub fn process_columns_parallel(&mut self, batch: &ColumnarBatch) -> Vec<ColumnarBatch> {
        let Some(shards) = self.shards.as_mut() else {
            return vec![self.process_columns(batch)];
        };
        self.items_in += batch.len() as u64;
        let size = self.budget.sample_size(batch.len());
        // Resolve carried weights through the node's single weight store.
        let resolved = self.whs.resolve_weights_columns(batch);
        let outs = shards.sample_columns_with_weights(batch.view(), size, &resolved);
        outs.into_iter()
            .filter(|o| !o.is_empty())
            .inspect(|o| {
                self.items_out += o.len() as u64;
            })
            .collect()
    }

    /// Absorbs one payload into the sketch accumulator: items are
    /// summarized in place, child summaries are merged per window.
    ///
    /// # Panics
    ///
    /// Panics unless the node runs the sketch strategy.
    pub fn absorb_payload(&mut self, payload: &NodePayload, scheme: TumblingWindow) {
        match payload {
            NodePayload::Items(batch) => self.absorb_batch(batch, scheme),
            NodePayload::Summaries(windows) => {
                let state = self
                    .sketch
                    .as_mut()
                    // analysis: allow(P1, reason = "documented # Panics contract; callers are sketch-strategy nodes by construction")
                    .expect("absorb_payload requires the sketch strategy");
                merge_windowed_summaries(&mut state.acc, windows);
            }
        }
    }

    /// Absorbs one raw item batch into the sketch accumulator — the leaf
    /// operation, [`SamplingNode::absorb_payload`]'s item arm without the
    /// payload wrapper.
    ///
    /// # Panics
    ///
    /// Panics unless the node runs the sketch strategy.
    pub fn absorb_batch(&mut self, batch: &Batch, scheme: TumblingWindow) {
        self.items_in += batch.len() as u64;
        let state = self
            .sketch
            .as_mut()
            // analysis: allow(P1, reason = "documented # Panics contract; callers are sketch-strategy nodes by construction")
            .expect("absorb_batch requires the sketch strategy");
        let (config, seed) = (state.config, state.seed);
        for item in &batch.items {
            state
                .acc
                .entry(scheme.index_of(item.source_ts))
                .or_insert_with(|| StratumSummaries::new(config, seed))
                .observe(item.stratum, sketch_identity(item), item.value);
        }
    }

    /// Drains the sketch accumulator: the merged per-window summaries
    /// absorbed since the last take, in window order (empty windows are
    /// never materialised). Returns an empty vector on item-strategy
    /// nodes, which accumulate nothing.
    pub fn take_summaries(&mut self) -> Vec<(u64, StratumSummaries)> {
        let Some(state) = self.sketch.as_mut() else {
            return Vec::new();
        };
        std::mem::take(&mut state.acc)
            .into_iter()
            .filter(|(_, s)| !s.is_empty())
            .collect()
    }

    /// Items received so far.
    pub fn items_in(&self) -> u64 {
        self.items_in
    }

    /// Items forwarded so far.
    pub fn items_out(&self) -> u64 {
        self.items_out
    }

    /// Clears carried weights, the sketch accumulator and counters
    /// (between independent runs).
    pub fn reset(&mut self) {
        self.whs.reset();
        if let Some(state) = self.sketch.as_mut() {
            state.acc.clear();
        }
        self.items_in = 0;
        self.items_out = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxiot_core::{StratumId, StreamItem, WeightMap};

    fn batch(counts: &[(u32, usize)]) -> Batch {
        let mut items = Vec::new();
        for &(stratum, n) in counts {
            for k in 0..n {
                items.push(StreamItem::with_meta(
                    StratumId::new(stratum),
                    1.0,
                    k as u64,
                    0,
                ));
            }
        }
        Batch::from_items(items)
    }

    #[test]
    fn whs_node_samples_to_budget() {
        let mut node = SamplingNode::new(Strategy::whs(), 0.1, 1).expect("valid");
        let out = node.process_batch(&batch(&[(0, 1000)]));
        assert_eq!(out.len(), 100);
        assert_eq!(out.weights.get(StratumId::new(0)), 10.0);
        assert_eq!(node.items_in(), 1000);
        assert_eq!(node.items_out(), 100);
    }

    #[test]
    fn srs_node_flips_coins() {
        let mut node = SamplingNode::new(Strategy::Srs, 0.5, 2).expect("valid");
        let out = node.process_batch(&batch(&[(0, 10_000)]));
        assert!(
            (out.len() as f64 - 5_000.0).abs() < 300.0,
            "got {}",
            out.len()
        );
        assert!(out.weights.is_empty(), "SRS carries no weight metadata");
    }

    #[test]
    fn native_node_is_identity() {
        let mut node = SamplingNode::new(Strategy::Native, 1.0, 3).expect("valid");
        let input = batch(&[(0, 17), (1, 3)]);
        let out = node.process_batch(&input);
        assert_eq!(out, input);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::whs().label(), "approxiot");
        assert_eq!(Strategy::Srs.label(), "srs");
        assert_eq!(Strategy::Native.label(), "native");
        assert_eq!(Strategy::sketch().label(), "sketch");
    }

    #[test]
    fn supports_reflects_summary_capabilities() {
        use crate::query::QuerySpec;
        let all = [
            QuerySpec::Sum,
            QuerySpec::Mean,
            QuerySpec::Count,
            QuerySpec::SumPerStratum,
            QuerySpec::MeanPerStratum,
            QuerySpec::CountPerStratum,
            QuerySpec::Quantile(0.5),
            QuerySpec::TopK(3),
        ];
        for strategy in [Strategy::whs(), Strategy::Srs, Strategy::Native] {
            for spec in &all {
                assert!(strategy.supports(spec), "{} {spec}", strategy.label());
            }
            assert!(strategy.ships_items());
        }
        let sketch = Strategy::sketch();
        assert!(!sketch.ships_items());
        for spec in &all {
            assert!(sketch.supports(spec), "full config answers {spec}");
        }
        let counts = Strategy::Sketch(SketchConfig::counts_only());
        assert!(counts.supports(&QuerySpec::Sum));
        assert!(counts.supports(&QuerySpec::MeanPerStratum));
        assert!(!counts.supports(&QuerySpec::Quantile(0.5)));
        assert!(!counts.supports(&QuerySpec::TopK(3)));
    }

    #[test]
    fn sketch_node_absorbs_items_and_takes_windowed_summaries() {
        let scheme = TumblingWindow::new(std::time::Duration::from_secs(1));
        let mut node = SamplingNode::new(Strategy::sketch(), 1.0, 7).expect("valid");
        let mut items = Vec::new();
        for k in 0..10 {
            items.push(StreamItem::with_meta(StratumId::new(0), 2.0, k, 100));
        }
        items.push(StreamItem::with_meta(
            StratumId::new(1),
            5.0,
            0,
            1_500_000_000,
        ));
        node.absorb_payload(&NodePayload::Items(Batch::from_items(items)), scheme);
        let windows = node.take_summaries();
        assert_eq!(windows.len(), 2);
        let moments =
            |w: usize, stratum: u32| windows[w].1.strata()[&StratumId::new(stratum)].moments;
        assert_eq!(windows[0].0, 0);
        assert_eq!(windows[0].1.count(), 10);
        assert_eq!(windows[0].1.strata().len(), 1);
        assert_eq!(moments(0, 0).sum, 20.0);
        assert_eq!(windows[1].0, 1);
        assert_eq!(windows[1].1.strata().len(), 1);
        assert_eq!(moments(1, 1).sum, 5.0);
        assert_eq!(node.items_in(), 11);
        assert!(node.take_summaries().is_empty(), "drained");
    }

    #[test]
    fn merging_child_summaries_matches_single_node_ingest() {
        // Two leaves + a merging mid must reproduce one node seeing the
        // union — the tree-shape invariance the sketch strategy rests on.
        let scheme = TumblingWindow::new(std::time::Duration::from_secs(1));
        let seed = 99;
        let mk = || SamplingNode::new(Strategy::sketch(), 1.0, seed).expect("valid");
        let (mut leaf_a, mut leaf_b, mut mid, mut single) = (mk(), mk(), mk(), mk());
        let batch_a = batch(&[(0, 50), (1, 20)]);
        let batch_b = batch(&[(0, 30), (2, 10)]);
        leaf_a.absorb_payload(&NodePayload::Items(batch_a.clone()), scheme);
        leaf_b.absorb_payload(&NodePayload::Items(batch_b.clone()), scheme);
        mid.absorb_payload(&NodePayload::Summaries(leaf_a.take_summaries()), scheme);
        mid.absorb_payload(&NodePayload::Summaries(leaf_b.take_summaries()), scheme);
        single.absorb_payload(&NodePayload::Items(batch_a), scheme);
        single.absorb_payload(&NodePayload::Items(batch_b), scheme);
        assert_eq!(mid.take_summaries(), single.take_summaries());
    }

    #[test]
    #[should_panic(expected = "sketch nodes forward summaries")]
    fn sketch_node_rejects_the_item_path() {
        let mut node = SamplingNode::new(Strategy::sketch(), 1.0, 7).expect("valid");
        let _ = node.process_batch(&batch(&[(0, 1)]));
    }

    #[test]
    fn invalid_fraction_is_rejected() {
        assert!(SamplingNode::new(Strategy::whs(), 0.0, 0).is_err());
        assert!(SamplingNode::new(Strategy::Srs, 1.5, 0).is_err());
    }

    #[test]
    fn set_fraction_changes_behaviour() {
        let mut node = SamplingNode::new(Strategy::whs(), 0.1, 4).expect("valid");
        node.set_fraction(1.0).expect("valid");
        let out = node.process_batch(&batch(&[(0, 100)]));
        assert_eq!(out.len(), 100);
        assert!(node.set_fraction(2.0).is_err());
    }

    #[test]
    fn whs_node_carries_weights_between_batches() {
        let mut node = SamplingNode::new(Strategy::whs(), 0.5, 5).expect("valid");
        let mut first = batch(&[(0, 4)]);
        first.weights.set(StratumId::new(0), 2.0);
        let out1 = node.process_batch(&first);
        assert_eq!(out1.weights.get(StratumId::new(0)), 4.0, "2 * 4/2");
        // Weightless follow-up uses the carried 2.0.
        let out2 = node.process_batch(&batch(&[(0, 4)]));
        assert_eq!(out2.weights.get(StratumId::new(0)), 4.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut node = SamplingNode::new(Strategy::whs(), 0.5, 6).expect("valid");
        let mut wb = batch(&[(0, 2)]);
        wb.weights = WeightMap::new();
        wb.weights.set(StratumId::new(0), 8.0);
        node.process_batch(&wb);
        node.reset();
        assert_eq!(node.items_in(), 0);
        // 2 items into ceil(0.5*2) = 1 slot: with the carried 8.0 cleared the
        // input weight is 1, so the output weight is 1 * 2/1 = 2 (not 16).
        let out = node.process_batch(&batch(&[(0, 2)]));
        assert_eq!(out.weights.get(StratumId::new(0)), 2.0, "carry cleared");
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;
    use approxiot_core::{StratumId, StreamItem, ThetaStore, WhsOutput};

    fn batch(n: usize) -> Batch {
        Batch::from_items(
            (0..n)
                .map(|k| StreamItem::with_meta(StratumId::new(0), 1.0, k as u64, 0))
                .collect(),
        )
    }

    #[test]
    fn non_whs_strategies_fall_back_to_single_output() {
        let mut node = SamplingNode::with_workers(Strategy::Native, 1.0, 3, 4).expect("valid");
        assert_eq!(node.workers(), 1, "no shards for per-item strategies");
        let outs = node.process_batch_parallel(&batch(10));
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].len(), 10);
    }

    #[test]
    #[should_panic(expected = "workers must be positive")]
    fn zero_workers_rejected() {
        let _ = SamplingNode::with_workers(Strategy::whs(), 0.5, 5, 0);
    }

    #[test]
    fn parallel_node_emits_one_batch_per_worker() {
        let mut node = SamplingNode::with_workers(Strategy::whs(), 0.1, 1, 4).expect("valid");
        assert_eq!(node.workers(), 4);
        let outs = node.process_batch_parallel(&batch(100_000));
        assert_eq!(outs.len(), 4);
        let total: usize = outs.iter().map(Batch::len).sum();
        assert_eq!(total, 10_000);
        assert_eq!(node.items_out(), 10_000);
    }

    #[test]
    fn parallel_node_outputs_reconstruct_the_count() {
        let mut node = SamplingNode::with_workers(Strategy::whs(), 0.2, 2, 5).expect("valid");
        let outs = node.process_batch_parallel(&batch(50_000));
        let theta: ThetaStore = outs
            .into_iter()
            .map(|b| WhsOutput {
                weights: b.weights,
                sample: b.items,
            })
            .collect();
        assert!((theta.count_estimate() - 50_000.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_node_with_one_worker_falls_back_to_single_output() {
        let mut node = SamplingNode::with_workers(Strategy::whs(), 0.5, 3, 1).expect("valid");
        assert_eq!(node.workers(), 1);
        let outs = node.process_batch_parallel(&batch(10));
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].len(), 5);
    }

    #[test]
    fn columnar_node_bit_identical_to_aos_node() {
        // Every strategy, unsharded and sharded: processing the same
        // logical batch through the columnar entries must reproduce the
        // AoS entries exactly.
        for strategy in [Strategy::whs(), Strategy::Srs, Strategy::Native] {
            let mut aos = SamplingNode::new(strategy, 0.25, 9).expect("valid");
            let mut soa = SamplingNode::new(strategy, 0.25, 9).expect("valid");
            for round in 0..3usize {
                let b = batch(1_000 + round);
                let cols = ColumnarBatch::from_batch(&b);
                let a = aos.process_batch(&b);
                let c = soa.process_columns(&cols);
                assert_eq!(c.to_batch(), a, "{}/round {round}", strategy.label());
            }
            assert_eq!(aos.items_in(), soa.items_in());
            assert_eq!(aos.items_out(), soa.items_out());
        }
        let mut aos = SamplingNode::with_workers(Strategy::whs(), 0.1, 1, 4).expect("valid");
        let mut soa = SamplingNode::with_workers(Strategy::whs(), 0.1, 1, 4).expect("valid");
        let b = batch(100_000);
        let cols = ColumnarBatch::from_batch(&b);
        let a = aos.process_batch_parallel(&b);
        let c = soa.process_columns_parallel(&cols);
        assert_eq!(a.len(), c.len());
        for (a, c) in a.into_iter().zip(c) {
            assert_eq!(c.to_batch(), a, "shard outputs diverged");
        }
    }

    /// The columns and weights of `batch`, floats as bits.
    type Bits = (Vec<u32>, Vec<u64>, Vec<u64>, Vec<u64>, Vec<(u32, u64)>);

    fn bits(batch: &ColumnarBatch) -> Bits {
        (
            batch.strata.clone(),
            batch.values.iter().map(|v| v.to_bits()).collect(),
            batch.seqs.clone(),
            batch.source_ts.clone(),
            batch
                .weights
                .iter()
                .map(|(s, w)| (s.index(), w.to_bits()))
                .collect(),
        )
    }

    #[test]
    fn sampling_into_a_reused_output_matches_a_fresh_one() {
        // One frame of `n` items over `strata`, interleaved (round-robin)
        // or grouped (one run per stratum), with explicit weights.
        let frame = |strata: &[u32], n: usize, grouped: bool, weights: &[(u32, f64)]| {
            let mut cols = ColumnarBatch::new();
            for k in 0..n {
                let stratum = if grouped {
                    strata[k * strata.len() / n]
                } else {
                    strata[k % strata.len()]
                };
                cols.push_parts(stratum, 0.5 + k as f64 * 1.25, k as u64, 7 * k as u64);
            }
            for &(s, w) in weights {
                cols.weights.set(StratumId::new(s), w);
            }
            cols
        };
        let frames = [
            frame(&[0, 1, 2], 300, false, &[(0, 2.0), (2, 1.5)]),
            frame(&[0, 1, 2], 240, true, &[(1, 3.0)]),
            // Stratum 2, which both frames above carried, is gone: its
            // output weight must not survive into this frame's output.
            frame(&[0, 1], 200, false, &[]),
            frame(&[1, 3], 90, true, &[(3, 4.0)]),
        ];
        for strategy in [Strategy::whs(), Strategy::Srs, Strategy::Native] {
            let mut fresh = SamplingNode::new(strategy, 0.3, 11).expect("valid");
            let mut reused = SamplingNode::new(strategy, 0.3, 11).expect("valid");
            // Dirty from the start: items and a weight no frame carries.
            let mut out = frame(&[9], 500, true, &[(9, 8.0)]);
            for (i, input) in frames.iter().enumerate() {
                let expected = fresh.process_columns(input);
                reused.process_columns_into(input, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&expected),
                    "{}/frame {i}",
                    strategy.label()
                );
            }
            assert_eq!(fresh.items_out(), reused.items_out());
        }
    }

    #[test]
    fn process_columns_mut_moves_native_columns() {
        let mut node = SamplingNode::new(Strategy::Native, 1.0, 3).expect("valid");
        let mut input = ColumnarBatch::from_batch(&batch(17));
        let ptr = input.strata.as_ptr();
        let out = node.process_columns_mut(&mut input);
        assert_eq!(out.len(), 17);
        assert_eq!(out.strata.as_ptr(), ptr, "moved, not cloned");
        assert!(input.is_empty(), "input contents consumed");
        assert_eq!(node.items_in(), 17);
        assert_eq!(node.items_out(), 17);
    }

    #[test]
    fn parallel_node_shares_carried_weights_with_unsharded_path() {
        let mut node = SamplingNode::with_workers(Strategy::whs(), 0.5, 4, 2).expect("valid");
        let mut first = batch(4);
        first.weights.set(StratumId::new(0), 3.0);
        // Seen on the *unsharded* path...
        node.process_batch(&first);
        // ...must carry into the sharded path.
        let outs = node.process_batch_parallel(&batch(8));
        let theta: ThetaStore = outs
            .into_iter()
            .map(|b| WhsOutput {
                weights: b.weights,
                sample: b.items,
            })
            .collect();
        assert!(
            (theta.count_estimate() - 24.0).abs() < 1e-9,
            "3.0 * 8 items"
        );
    }
}
