//! The topology-first description of an ApproxIoT deployment: one builder
//! for an arbitrary-depth, heterogeneous edge tree that both execution
//! engines (the virtual-time [`crate::SimEngine`] simulation and the
//! threaded [`crate::pipeline`]) consume unchanged.
//!
//! The paper evaluates one fixed shape — 8 sources → 4 edge → 2 edge →
//! root — but its design is a *logical tree of arbitrary edge hops* whose
//! weights multiply hop by hop. [`Topology`] captures that general shape:
//!
//! * any number of edge **layers**, each with its own fan-in (node count),
//!   optional per-layer [`Strategy`] override and §III-E worker shards;
//! * per-hop **links** (propagation delay + uplink capacity) for the WAN
//!   emulation;
//! * a depth-aware [`FractionSplit`] dividing the end-to-end sampling
//!   fraction across every sampling stage (all edge layers plus the root).
//!
//! ```
//! use approxiot_runtime::{LayerSpec, Strategy, Topology};
//! use std::time::Duration;
//!
//! // An asymmetric 4-layer tree: 5 sources → 3 edge → 2 edge → root.
//! let topology = Topology::builder()
//!     .sources(5)
//!     .layer(LayerSpec::new(3).delay(Duration::from_millis(10)))
//!     .layer(LayerSpec::new(2).delay(Duration::from_millis(20)))
//!     .root_delay(Duration::from_millis(40))
//!     .strategy(Strategy::whs())
//!     .overall_fraction(0.2)
//!     .build()
//!     .unwrap();
//! assert_eq!(topology.depth(), 3); // three sampling stages
//! assert_eq!(topology.hops(), 3);  // sources→L1, L1→L2, L2→root
//! ```

use crate::churn::{self, ChurnSchedule, NodeDisposition};
use crate::node::Strategy;
use approxiot_core::{BudgetError, SamplingBudget};
use approxiot_net::ImpairmentSpec;
use std::time::Duration;

/// How the end-to-end sampling fraction is divided across the sampling
/// stages (every edge layer plus the root).
///
/// The paper leaves per-node budgets to the analyst (Figure 4's "sample
/// sizes" arrows). Two natural policies cover the evaluation:
///
/// * [`FractionSplit::Even`] — every stage keeps the `depth`-th root of
///   the overall fraction, exercising truly hierarchical sampling
///   (weights multiply across hops).
/// * [`FractionSplit::LeafHeavy`] — the whole budget is spent at the first
///   edge layer; later stages forward everything. This reproduces the
///   paper's Figure 7 claim that "a sampling fraction of 10% means the
///   system only requires 10% of the total capacity" on *every* WAN link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FractionSplit {
    /// Equal share per stage (`overall^(1/depth)` each).
    #[default]
    Even,
    /// Entire budget at the first edge layer; every later stage keeps
    /// everything.
    LeafHeavy,
}

impl FractionSplit {
    /// The per-stage fractions for a tree of `depth` sampling stages,
    /// compounding to `overall`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn fractions(self, overall: f64, depth: usize) -> Vec<f64> {
        assert!(depth > 0, "a tree has at least one sampling stage");
        match self {
            FractionSplit::Even => {
                let f = overall.powf(1.0 / depth as f64).min(1.0);
                vec![f; depth]
            }
            FractionSplit::LeafHeavy => {
                let mut fractions = vec![1.0; depth];
                fractions[0] = overall.min(1.0);
                fractions
            }
        }
    }
}

/// One WAN hop: the link feeding a layer (or the root) from the layer
/// below it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub delay: Duration,
    /// Uplink capacity in bytes/second charged per *sending* node
    /// (`None` = unlimited).
    pub capacity_bytes_per_sec: Option<u64>,
    /// Deterministic fault injection on this hop (loss, jitter,
    /// duplication, bounded reorder). [`ImpairmentSpec::none`] — the
    /// default — leaves the hop perfect and changes nothing.
    pub impairment: ImpairmentSpec,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            delay: Duration::ZERO,
            capacity_bytes_per_sec: None,
            impairment: ImpairmentSpec::none(),
        }
    }
}

/// One edge layer of the tree: its fan-in and the link feeding it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpec {
    /// Number of edge nodes in this layer.
    pub nodes: usize,
    /// Per-layer strategy override (`None` = the topology default).
    pub strategy: Option<Strategy>,
    /// §III-E worker shards per node: each node emits up to `workers`
    /// `(W_out, sample)` pairs per frame, one per shard (1 = unsharded).
    /// The shards sample on the node's own thread.
    pub workers: usize,
    /// The link feeding this layer from the layer below (sources for the
    /// first layer).
    pub link: LinkSpec,
}

impl LayerSpec {
    /// A layer of `nodes` edge nodes with default link and strategy.
    pub fn new(nodes: usize) -> Self {
        LayerSpec {
            nodes,
            strategy: None,
            workers: 1,
            link: LinkSpec::default(),
        }
    }

    /// Overrides the topology-wide strategy for this layer.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Splits each node's batches over `workers` §III-E shards, each with
    /// its own reservoir budget and arrival counts, so a node emits up to
    /// `workers` `(W_out, sample)` pairs per frame.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// One-way propagation delay of the link feeding this layer.
    pub fn delay(mut self, delay: Duration) -> Self {
        self.link.delay = delay;
        self
    }

    /// Uplink capacity (bytes/second) charged per sender on the link
    /// feeding this layer.
    pub fn capacity(mut self, bytes_per_sec: u64) -> Self {
        self.link.capacity_bytes_per_sec = Some(bytes_per_sec);
        self
    }

    /// Fault injection (loss/jitter/duplication/reorder) on the link
    /// feeding this layer.
    pub fn impairment(mut self, impairment: ImpairmentSpec) -> Self {
        self.link.impairment = impairment;
        self
    }
}

/// Wire-byte accounting per hop of an arbitrary-depth tree.
///
/// `hops()[0]` is the sources → first-layer traffic (always unsampled);
/// each later entry is the traffic into the next sampling stage, ending
/// with the last-edge-layer → root hop.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HopBytes {
    bytes: Vec<u64>,
}

impl HopBytes {
    /// Zeroed accounting for a tree with `hops` hops.
    pub fn new(hops: usize) -> Self {
        HopBytes {
            bytes: vec![0; hops],
        }
    }

    /// Per-hop byte counts, source-side first.
    pub fn hops(&self) -> &[u64] {
        &self.bytes
    }

    /// Adds `bytes` to hop `hop`.
    pub fn add(&mut self, hop: usize, bytes: u64) {
        self.bytes[hop] += bytes;
    }

    /// Bytes on the first hop (sources → first layer, pre-sampling).
    pub fn source_bytes(&self) -> u64 {
        self.bytes.first().copied().unwrap_or(0)
    }

    /// Bytes crossing the WAN segments that sampling can save on
    /// (every hop past the first).
    pub fn sampled_wire_bytes(&self) -> u64 {
        self.bytes.iter().skip(1).sum()
    }

    /// Total bytes across all hops.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

impl From<Vec<u64>> for HopBytes {
    fn from(bytes: Vec<u64>) -> Self {
        HopBytes { bytes }
    }
}

/// The full description of a deployment: edge layers, per-hop links, the
/// sampling strategy/fraction policy and windowing — everything both
/// engines need, in one place.
///
/// Build one with [`Topology::builder`] or [`Topology::paper`].
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    layers: Vec<LayerSpec>,
    root_link: LinkSpec,
    strategy: Strategy,
    root_strategy: Option<Strategy>,
    overall_fraction: f64,
    split: FractionSplit,
    window: Duration,
    allowed_lateness: Duration,
    sources: usize,
    seed: u64,
    churn: ChurnSchedule,
}

impl Topology {
    /// Starts a builder with the defaults of [`TopologyBuilder`].
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// The paper's four-layer topology (8 sources → 4 → 2 → root) running
    /// ApproxIoT at `overall_fraction` with the paper's one-way WAN delays
    /// (10/20/40 ms) scaled by `delay_scale`.
    pub fn paper(overall_fraction: f64, delay_scale: f64) -> Self {
        let ms = |m: f64| Duration::from_secs_f64(m * delay_scale / 1000.0);
        Topology::builder()
            .sources(8)
            .layer(LayerSpec::new(4).delay(ms(10.0)))
            .layer(LayerSpec::new(2).delay(ms(20.0)))
            .root_delay(ms(40.0))
            .strategy(Strategy::whs())
            .overall_fraction(overall_fraction)
            .window(Duration::from_secs(1))
            .seed(0x10D5)
            .build()
            // analysis: allow(P1, reason = "builder inputs are the fixed paper constants; only the fraction varies and callers validate it")
            .expect("paper fraction validated by caller")
    }

    /// The edge layers, source side first.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of sampling stages: every edge layer plus the root.
    pub fn depth(&self) -> usize {
        self.layers.len() + 1
    }

    /// Number of WAN hops: sources → first layer, one per later layer,
    /// and the final hop into the root.
    pub fn hops(&self) -> usize {
        self.layers.len() + 1
    }

    /// Declared source count (first-hop producers).
    pub fn sources(&self) -> usize {
        self.sources
    }

    /// The default sampling strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The strategy layer `layer` runs (its override or the default).
    pub fn layer_strategy(&self, layer: usize) -> Strategy {
        self.layers[layer].strategy.unwrap_or(self.strategy)
    }

    /// The strategy the root runs (its override or the default).
    pub fn root_strategy(&self) -> Strategy {
        self.root_strategy.unwrap_or(self.strategy)
    }

    /// End-to-end sampling fraction.
    pub fn overall_fraction(&self) -> f64 {
        self.overall_fraction
    }

    /// How the fraction divides across stages.
    pub fn split(&self) -> FractionSplit {
        self.split
    }

    /// The per-stage fractions (edge layers first, root last) compounding
    /// to the overall fraction under this topology's split.
    pub fn stage_fractions(&self) -> Vec<f64> {
        self.split.fractions(self.overall_fraction, self.depth())
    }

    /// The computation window at the root.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Base RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The link feeding edge layer `layer` (`0` = the source uplinks).
    pub fn layer_link(&self, layer: usize) -> LinkSpec {
        self.layers[layer].link
    }

    /// The link feeding the root from the last edge layer.
    pub fn root_link(&self) -> LinkSpec {
        self.root_link
    }

    /// The link feeding hop `hop` (`0..hops()`), root hop last.
    pub fn hop_link(&self, hop: usize) -> LinkSpec {
        if hop < self.layers.len() {
            self.layers[hop].link
        } else {
            self.root_link
        }
    }

    /// Sum of all one-way hop delays (the minimum source→root propagation
    /// time).
    pub fn total_delay(&self) -> Duration {
        (0..self.hops()).map(|h| self.hop_link(h).delay).sum()
    }

    /// How long the root keeps each window open past its end for
    /// jitter-delayed arrivals (wall-clock engine only; virtual time has
    /// no late arrivals).
    pub fn allowed_lateness(&self) -> Duration {
        self.allowed_lateness
    }

    /// The fault-injection spec of hop `hop` (`0..hops()`, root hop last).
    pub fn hop_impairment(&self, hop: usize) -> ImpairmentSpec {
        self.hop_link(hop).impairment
    }

    /// Returns `true` when any hop carries a non-trivial impairment spec.
    pub fn has_impairment(&self) -> bool {
        (0..self.hops()).any(|h| !self.hop_impairment(h).is_noop())
    }

    /// Expected delivered copies per source item across every hop:
    /// `Π_h (1 − loss_h) · (1 + duplicate_h)`. Every frame crosses each
    /// hop independently, so an item's end-to-end survival compounds per
    /// hop regardless of how sampling re-frames it. The root divides its
    /// stratum weights by this factor (Horvitz–Thompson under uniform
    /// random loss), keeping SUM/COUNT unbiased; exactly `1.0` when no
    /// hop is impaired.
    pub fn delivery_factor(&self) -> f64 {
        (0..self.hops())
            .map(|h| self.hop_impairment(h).delivery_factor())
            .product()
    }

    /// Expected delivered copies per item of source `source`, compounding
    /// the impairments of the specific links its items traverse
    /// (source → its leaf, then the parent chain up to the root).
    ///
    /// [`Topology::delivery_factor`] multiplies one impairment per hop,
    /// which silently assumes every sender on a hop is impaired alike;
    /// once churn makes senders on the same hop differ (replacement or
    /// degraded nodes), the root's Horvitz–Thompson rescale must weight
    /// each source by *its own path*. With today's per-hop (not
    /// per-link-instance) impairment specs the product is bitwise equal
    /// to `delivery_factor()` for every source, so consuming this is a
    /// strict refinement, not a behaviour change.
    pub fn path_delivery_factor(&self, source: usize) -> f64 {
        let mut factor = self.hop_impairment(0).delivery_factor();
        let mut index = source % self.layers[0].nodes;
        for layer in 0..self.layers.len() {
            factor *= self.hop_impairment(layer + 1).delivery_factor();
            index = self.parent_of(layer, index);
        }
        factor
    }

    /// The churn schedule (empty — a strict no-op — unless one was set
    /// via [`TopologyBuilder::churn`]).
    pub fn churn(&self) -> &ChurnSchedule {
        &self.churn
    }

    /// Returns `true` when the topology carries any churn events at all.
    pub fn has_churn(&self) -> bool {
        !self.churn.is_noop()
    }

    /// Whether every node on source `source`'s path to the root is
    /// processing during `interval` — `false` as soon as any node on the
    /// path is dark (down or silent) or crashes that interval, because
    /// the source's items can then never reach the root. Low-power nodes
    /// count as alive (they still forward a sample).
    pub fn source_path_alive(&self, source: usize, interval: u64) -> bool {
        let mut index = source % self.layers[0].nodes;
        for layer in 0..self.layers.len() {
            match self.churn.disposition(layer, index, interval) {
                NodeDisposition::Down | NodeDisposition::Crashed { .. } => return false,
                NodeDisposition::Active { .. } => {}
            }
            index = self.parent_of(layer, index);
        }
        true
    }

    /// The deterministic churn-stream seed of node `index` in edge layer
    /// `layer`, feeding replacement-node sampler seeds.
    ///
    /// A third odd multiplier keeps churn seeds disjoint from both
    /// [`Topology::node_seed`] sampler seeds and
    /// [`Topology::hop_impairment_seed`] fault streams.
    pub fn churn_seed(&self, layer: usize, index: usize) -> u64 {
        self.seed
            ^ (0xD6E8_FEB8_6659_FD93u64
                .wrapping_mul(layer as u64 + 1)
                .wrapping_add(index as u64))
    }

    /// The sampler seed of the `generation`-th replacement node in slot
    /// `(layer, index)` (generation 0 is the original node, which uses
    /// [`Topology::node_seed`]). Mixed through splitmix64 so adjacent
    /// generations decorrelate.
    pub fn replacement_seed(&self, layer: usize, index: usize, generation: u64) -> u64 {
        churn::replacement_seed(self.churn_seed(layer, index), generation)
    }

    /// The deterministic impairment-stream seed of sender `sender` on hop
    /// `hop` (source index for hop 0, the sending node's index after
    /// that).
    ///
    /// Like [`Topology::node_seed`], both engines derive the per-sender
    /// fault streams through this one function — and the downstream
    /// [`approxiot_net::Impairment`] mixes the result through splitmix64 —
    /// so a fixed-seed impaired run drops, duplicates and reorders the
    /// same frames on either engine. The multiplier differs from
    /// `node_seed`'s so fault streams never collide with sampler seeds.
    pub fn hop_impairment_seed(&self, hop: usize, sender: usize) -> u64 {
        self.seed
            ^ (0xC2B2_AE3D_27D4_EB4Fu64
                .wrapping_mul(hop as u64 + 1)
                .wrapping_add(sender as u64))
    }

    /// The deterministic RNG seed of node `index` in edge layer `layer`.
    ///
    /// Both engines derive per-node seeds through this single function, so
    /// a fixed-seed topology samples identically on either engine.
    pub fn node_seed(&self, layer: usize, index: usize) -> u64 {
        // A distinct odd multiplier per layer keeps node seeds disjoint
        // across layers and from the root without coordination.
        self.seed
            ^ (0x9E37_79B9_7F4A_7C15u64
                .wrapping_mul(layer as u64 + 1)
                .wrapping_add(index as u64))
    }

    /// The deterministic RNG seed of the root's sampler.
    pub fn root_seed(&self) -> u64 {
        self.node_seed(self.layers.len(), 0)
    }

    /// The deterministic seed of the summary sketches (sketch strategy
    /// only) — the fourth seed family, disjoint from the sampler,
    /// impairment and churn families by its own odd constant. Unlike
    /// [`Topology::node_seed`] it is **tree-wide**: KLL merge requires
    /// every node to hash items with the same seed, so one seed serves
    /// the whole topology (per-stratum sketches decorrelate through
    /// [`approxiot_core::stratum_sketch_seed`]).
    pub fn sketch_seed(&self) -> u64 {
        self.seed ^ 0xA24B_AED4_963E_E407
    }

    /// The sketch configuration, when the tree-wide strategy is
    /// [`Strategy::Sketch`].
    pub fn sketch_config(&self) -> Option<approxiot_core::SketchConfig> {
        match self.strategy {
            Strategy::Sketch(config) => Some(config),
            _ => None,
        }
    }

    /// The parent index (in layer `layer + 1`, or the root for the last
    /// layer) that node `index` of layer `layer` forwards to.
    pub fn parent_of(&self, layer: usize, index: usize) -> usize {
        match self.layers.get(layer + 1) {
            Some(next) => index % next.nodes,
            None => 0,
        }
    }
}

/// Builder for [`Topology`]; see the [module docs](self) for an example.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    layers: Vec<LayerSpec>,
    root_link: LinkSpec,
    strategy: Strategy,
    root_strategy: Option<Strategy>,
    overall_fraction: f64,
    split: FractionSplit,
    window: Duration,
    allowed_lateness: Duration,
    impair_all: Option<ImpairmentSpec>,
    sources: usize,
    seed: u64,
    churn: ChurnSchedule,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        TopologyBuilder {
            layers: Vec::new(),
            root_link: LinkSpec::default(),
            strategy: Strategy::whs(),
            root_strategy: None,
            overall_fraction: 1.0,
            split: FractionSplit::Even,
            window: Duration::from_secs(1),
            allowed_lateness: Duration::ZERO,
            impair_all: None,
            sources: 1,
            seed: 0,
            churn: ChurnSchedule::new(),
        }
    }
}

impl TopologyBuilder {
    /// Declares the number of first-hop sources.
    pub fn sources(mut self, sources: usize) -> Self {
        self.sources = sources;
        self
    }

    /// Appends one edge layer (source side first).
    pub fn layer(mut self, layer: LayerSpec) -> Self {
        self.layers.push(layer);
        self
    }

    /// Sets the link feeding the root.
    pub fn root_link(mut self, link: LinkSpec) -> Self {
        self.root_link = link;
        self
    }

    /// Sets the root link's one-way delay.
    pub fn root_delay(mut self, delay: Duration) -> Self {
        self.root_link.delay = delay;
        self
    }

    /// Sets fault injection on the link feeding the root.
    pub fn root_impairment(mut self, impairment: ImpairmentSpec) -> Self {
        self.root_link.impairment = impairment;
        self
    }

    /// Applies `impairment` to **every** hop that has no explicit spec of
    /// its own — the one-liner for uniform chaos sweeps.
    pub fn impair_all_hops(mut self, impairment: ImpairmentSpec) -> Self {
        self.impair_all = Some(impairment);
        self
    }

    /// Keeps each root window open for `lateness` past its end so
    /// jitter-delayed arrivals still count (wall-clock engine).
    pub fn allowed_lateness(mut self, lateness: Duration) -> Self {
        self.allowed_lateness = lateness;
        self
    }

    /// Overrides the root's sampling strategy.
    pub fn root_strategy(mut self, strategy: Strategy) -> Self {
        self.root_strategy = Some(strategy);
        self
    }

    /// Sets the default sampling strategy for every stage.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the end-to-end sampling fraction.
    pub fn overall_fraction(mut self, fraction: f64) -> Self {
        self.overall_fraction = fraction;
        self
    }

    /// Sets how the fraction divides across stages.
    pub fn split(mut self, split: FractionSplit) -> Self {
        self.split = split;
        self
    }

    /// Sets the computation window.
    pub fn window(mut self, window: Duration) -> Self {
        self.window = window;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a deterministic churn schedule (node outages, crashes,
    /// replacements, degradation) both engines honour identically; see
    /// [`crate::churn`]. An empty schedule is a strict no-op.
    pub fn churn(mut self, churn: ChurnSchedule) -> Self {
        self.churn = churn;
        self
    }

    /// Validates and builds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError`] for a fraction outside `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if no edge layer was added, a layer has zero nodes or zero
    /// workers, no sources were declared, or the churn schedule addresses
    /// a node outside the tree (or carries an empty range / bad scale).
    pub fn build(self) -> Result<Topology, BudgetError> {
        assert!(
            !self.layers.is_empty(),
            "a topology needs at least one edge layer"
        );
        assert!(self.sources > 0, "a topology needs at least one source");
        for (i, layer) in self.layers.iter().enumerate() {
            assert!(
                layer.nodes > 0,
                "edge layer {i} must have at least one node"
            );
            assert!(layer.workers > 0, "edge layer {i} workers must be positive");
        }
        SamplingBudget::new(self.overall_fraction)?;
        let node_counts: Vec<usize> = self.layers.iter().map(|l| l.nodes).collect();
        self.churn.validate(&node_counts);
        let mut layers = self.layers;
        let mut root_link = self.root_link;
        if let Some(spec) = self.impair_all {
            for layer in &mut layers {
                if layer.link.impairment.is_noop() {
                    layer.link.impairment = spec;
                }
            }
            if root_link.impairment.is_noop() {
                root_link.impairment = spec;
            }
        }
        Ok(Topology {
            layers,
            root_link,
            strategy: self.strategy,
            root_strategy: self.root_strategy,
            overall_fraction: self.overall_fraction,
            split: self.split,
            window: self.window,
            allowed_lateness: self.allowed_lateness,
            sources: self.sources,
            seed: self.seed,
            churn: self.churn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_compounds_for_any_depth() {
        for depth in 1..=6 {
            let fractions = FractionSplit::Even.fractions(0.1, depth);
            assert_eq!(fractions.len(), depth);
            let product: f64 = fractions.iter().product();
            assert!(
                (product - 0.1).abs() < 1e-12,
                "depth {depth}: product {product}"
            );
        }
    }

    #[test]
    fn leaf_heavy_split_spends_everything_up_front() {
        assert_eq!(
            FractionSplit::LeafHeavy.fractions(0.25, 4),
            vec![0.25, 1.0, 1.0, 1.0]
        );
        // The paper's three-stage tree.
        assert_eq!(
            FractionSplit::LeafHeavy.fractions(0.25, 3),
            vec![0.25, 1.0, 1.0]
        );
    }

    #[test]
    fn three_stage_view_matches_generalized_split() {
        let f = FractionSplit::Even.fractions(0.125, 3);
        assert!((f[0] - 0.5).abs() < 1e-12);
        assert!((f[0] * f[1] * f[2] - 0.125).abs() < 1e-12);
    }

    #[test]
    fn paper_topology_matches_the_testbed() {
        let t = Topology::paper(0.2, 1.0);
        assert_eq!(t.sources(), 8);
        assert_eq!(t.layers().len(), 2);
        assert_eq!(t.layers()[0].nodes, 4);
        assert_eq!(t.layers()[1].nodes, 2);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.hops(), 3);
        assert_eq!(t.layer_link(0).delay, Duration::from_millis(10));
        assert_eq!(t.hop_link(1).delay, Duration::from_millis(20));
        assert_eq!(t.root_link().delay, Duration::from_millis(40));
        assert_eq!(t.total_delay(), Duration::from_millis(70));
        let fractions = t.stage_fractions();
        assert_eq!(fractions.len(), 3);
        assert!((fractions.iter().product::<f64>() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn node_seeds_are_distinct_across_layers_and_nodes() {
        let t = Topology::paper(0.5, 0.0);
        let mut seeds = std::collections::BTreeSet::new();
        for layer in 0..2 {
            for node in 0..4 {
                seeds.insert(t.node_seed(layer, node));
            }
        }
        seeds.insert(t.root_seed());
        assert_eq!(seeds.len(), 9, "no seed collisions");
    }

    #[test]
    fn per_layer_strategy_overrides_default() {
        let t = Topology::builder()
            .sources(2)
            .layer(LayerSpec::new(2).strategy(Strategy::Native))
            .layer(LayerSpec::new(1))
            .root_strategy(Strategy::Srs)
            .strategy(Strategy::whs())
            .build()
            .expect("valid");
        assert_eq!(t.layer_strategy(0), Strategy::Native);
        assert_eq!(t.layer_strategy(1), Strategy::whs());
        assert_eq!(t.root_strategy(), Strategy::Srs);
    }

    #[test]
    fn parent_routing_is_modular() {
        let t = Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3))
            .layer(LayerSpec::new(2))
            .build()
            .expect("valid");
        assert_eq!(t.parent_of(0, 0), 0);
        assert_eq!(t.parent_of(0, 1), 1);
        assert_eq!(t.parent_of(0, 2), 0);
        // The last layer forwards to the single root.
        assert_eq!(t.parent_of(1, 1), 0);
    }

    #[test]
    fn hop_bytes_accounts_per_link() {
        let mut bytes = HopBytes::new(4);
        bytes.add(0, 1000);
        bytes.add(1, 300);
        bytes.add(2, 90);
        bytes.add(3, 27);
        assert_eq!(bytes.source_bytes(), 1000);
        assert_eq!(bytes.sampled_wire_bytes(), 417);
        assert_eq!(bytes.total(), 1417);
        assert_eq!(bytes.hops(), &[1000, 300, 90, 27]);
    }

    #[test]
    fn impairment_rides_on_hops_and_compounds_delivery() {
        let chaos = ImpairmentSpec::none().loss(0.1);
        let dup = ImpairmentSpec::none().duplicate(0.5);
        let t = Topology::builder()
            .sources(4)
            .layer(LayerSpec::new(2).impairment(chaos))
            .layer(LayerSpec::new(1))
            .root_impairment(dup)
            .build()
            .expect("valid");
        assert!(t.has_impairment());
        assert_eq!(t.hop_impairment(0), chaos);
        assert!(t.hop_impairment(1).is_noop());
        assert_eq!(t.hop_impairment(2), dup);
        assert!((t.delivery_factor() - 0.9 * 1.5).abs() < 1e-12);
        // An unimpaired topology reports a clean factor of exactly 1.
        let clean = Topology::paper(0.2, 1.0);
        assert!(!clean.has_impairment());
        assert_eq!(clean.delivery_factor(), 1.0);
    }

    #[test]
    fn impair_all_hops_respects_explicit_specs() {
        let uniform = ImpairmentSpec::none().loss(0.05);
        let own = ImpairmentSpec::none().loss(0.2);
        let t = Topology::builder()
            .sources(2)
            .layer(LayerSpec::new(2))
            .layer(LayerSpec::new(1).impairment(own))
            .impair_all_hops(uniform)
            .build()
            .expect("valid");
        assert_eq!(t.hop_impairment(0), uniform);
        assert_eq!(t.hop_impairment(1), own, "explicit spec wins");
        assert_eq!(t.hop_impairment(2), uniform, "root hop covered too");
    }

    #[test]
    fn impairment_seeds_are_distinct_per_hop_sender_and_from_samplers() {
        let t = Topology::paper(0.5, 0.0);
        let mut seeds = std::collections::BTreeSet::new();
        for hop in 0..t.hops() {
            for sender in 0..8 {
                seeds.insert(t.hop_impairment_seed(hop, sender));
            }
        }
        let fault_streams = seeds.len();
        assert_eq!(fault_streams, 3 * 8, "no fault-seed collisions");
        for layer in 0..2 {
            for node in 0..4 {
                seeds.insert(t.node_seed(layer, node));
            }
        }
        seeds.insert(t.root_seed());
        assert_eq!(
            seeds.len(),
            fault_streams + 9,
            "fault seeds disjoint from sampler seeds"
        );
    }

    #[test]
    fn churn_seeds_are_disjoint_from_sampler_and_fault_seeds() {
        let t = Topology::paper(0.5, 0.0);
        let mut seeds = std::collections::BTreeSet::new();
        for layer in 0..2 {
            for node in 0..4 {
                seeds.insert(t.churn_seed(layer, node));
            }
        }
        let churn_streams = seeds.len();
        assert_eq!(churn_streams, 8, "no churn-seed collisions");
        for hop in 0..t.hops() {
            for sender in 0..8 {
                seeds.insert(t.hop_impairment_seed(hop, sender));
            }
        }
        for layer in 0..2 {
            for node in 0..4 {
                seeds.insert(t.node_seed(layer, node));
            }
        }
        seeds.insert(t.root_seed());
        assert_eq!(
            seeds.len(),
            churn_streams + 3 * 8 + 9,
            "churn seeds disjoint from fault and sampler seeds"
        );
        // Replacement generations get fresh, distinct sampler seeds.
        let g1 = t.replacement_seed(0, 0, 1);
        let g2 = t.replacement_seed(0, 0, 2);
        assert_ne!(g1, g2);
        assert_ne!(g1, t.node_seed(0, 0));
    }

    #[test]
    fn path_delivery_factor_matches_global_factor_per_hop_specs() {
        let t = Topology::builder()
            .sources(4)
            .layer(LayerSpec::new(2).impairment(ImpairmentSpec::none().loss(0.1)))
            .layer(LayerSpec::new(1))
            .root_impairment(ImpairmentSpec::none().duplicate(0.5))
            .build()
            .expect("valid");
        for source in 0..4 {
            assert_eq!(
                t.path_delivery_factor(source).to_bits(),
                t.delivery_factor().to_bits(),
                "homogeneous per-hop specs: every path compounds identically"
            );
        }
    }

    #[test]
    fn source_path_alive_tracks_the_leaf_to_root_chain() {
        // Paper tree: source s → leaf s % 4 → mid (s % 4) % 2 → root.
        let t = Topology::builder()
            .sources(8)
            .layer(LayerSpec::new(4))
            .layer(LayerSpec::new(2))
            .churn(
                ChurnSchedule::new()
                    .down(0, 1, 2, 4) // leaf 1 dark for intervals [2, 4)
                    .crash(1, 0, 5) // mid node 0 crashes at interval 5
                    .low_power(0, 2, 0, 10, 0.5),
            )
            .build()
            .expect("valid");
        assert!(t.has_churn());
        // Sources 1 and 5 route through leaf 1: dead during the outage.
        assert!(t.source_path_alive(1, 1));
        assert!(!t.source_path_alive(1, 2));
        assert!(!t.source_path_alive(5, 3));
        assert!(t.source_path_alive(1, 4), "back up after the outage");
        // Mid node 0 serves the even leaves (0 and 2) → sources 0,2,4,6.
        assert!(
            !t.source_path_alive(0, 5),
            "crash loses the subtree's window"
        );
        assert!(t.source_path_alive(1, 5), "odd leaves route around it");
        // Low-power nodes still forward: path stays alive.
        assert!(t.source_path_alive(2, 3));
    }

    #[test]
    #[should_panic(expected = "addresses layer 7")]
    fn build_rejects_churn_events_outside_the_tree() {
        let _ = Topology::builder()
            .sources(2)
            .layer(LayerSpec::new(2))
            .churn(ChurnSchedule::new().down(7, 0, 0, 1))
            .build();
    }

    #[test]
    fn allowed_lateness_defaults_to_zero() {
        assert_eq!(Topology::paper(0.2, 1.0).allowed_lateness(), Duration::ZERO);
        let t = Topology::builder()
            .sources(1)
            .layer(LayerSpec::new(1))
            .allowed_lateness(Duration::from_millis(50))
            .build()
            .expect("valid");
        assert_eq!(t.allowed_lateness(), Duration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "at least one edge layer")]
    fn empty_topology_rejected() {
        let _ = Topology::builder().build();
    }

    #[test]
    #[should_panic(expected = "edge layer 0 must have at least one node")]
    fn zero_node_layer_rejected() {
        let _ = Topology::builder()
            .layer(LayerSpec::new(0))
            .layer(LayerSpec::new(2))
            .build();
    }

    #[test]
    fn invalid_fraction_rejected() {
        assert!(Topology::builder()
            .layer(LayerSpec::new(1))
            .overall_fraction(0.0)
            .build()
            .is_err());
    }
}
