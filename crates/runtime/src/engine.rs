//! The one front door: a [`Driver`] runs any [`Topology`] +
//! [`QuerySet`] on either execution [`Engine`].
//!
//! Two engines cover the paper's evaluation from the same description:
//!
//! * [`SimEngine`] ([`EngineKind::Sim`]) — the tree in deterministic
//!   virtual time, used by the accuracy experiments; thousands of windows
//!   run in milliseconds with seeded randomness.
//! * [`crate::pipeline::PipelineEngine`] ([`EngineKind::Pipeline`]) — the
//!   fully threaded pipeline over broker topics with WAN delay/capacity
//!   emulation, used by the wall-clock experiments. Its deterministic
//!   mode replays the exact virtual-time sampling decisions over the real
//!   wire path, so fixed-seed runs produce **identical estimates** on
//!   both engines.
//!
//! ```
//! use approxiot_core::{Batch, StratumId, StreamItem};
//! use approxiot_runtime::{Driver, EngineKind, LayerSpec, QuerySet, QuerySpec, Topology};
//!
//! let topology = Topology::builder()
//!     .sources(4)
//!     .layer(LayerSpec::new(2))
//!     .layer(LayerSpec::new(1))
//!     .overall_fraction(0.5)
//!     .seed(7)
//!     .build()?;
//! let queries = QuerySet::new()
//!     .with(QuerySpec::Sum)
//!     .with(QuerySpec::Quantile(0.5));
//! let mut driver = Driver::new(topology, queries, EngineKind::Sim)?;
//! let interval: Vec<Batch> = (0..4)
//!     .map(|s| {
//!         Batch::from_items(
//!             (0..250).map(|k| StreamItem::with_meta(StratumId::new(s), 1.0, k, 0)).collect(),
//!         )
//!     })
//!     .collect();
//! driver.push_interval(&interval).expect("source count matches");
//! let report = driver.finish();
//! assert!((report.results[0].count_hat - 1000.0).abs() < 1e-6);
//! # Ok::<(), approxiot_runtime::EngineError>(())
//! ```

use crate::churn::{ChurnDriver, ChurnStats, NodeChurnContext, NodeChurnState, NodeDisposition};
use crate::fault::{FaultInjector, HopFaults};
use crate::node::{NodePayload, SamplingNode, Strategy};
use crate::pipeline::{LatencyStats, PipelineEngine, PipelineOptions};
use crate::query::{QuerySet, QuerySpec};
use crate::root::{RootConfig, RootNode, WindowResult};
use crate::topology::{HopBytes, Topology};
use approxiot_core::{Batch, BudgetError};
use approxiot_mq::codec::{encoded_len, encoded_len_summaries};
use approxiot_streams::{TumblingWindow, WindowId};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Errors surfaced by the driver/engine layer.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The sampling fraction was outside `(0, 1]`.
    Budget(BudgetError),
    /// An interval carried the wrong number of per-source batches.
    SourceCount {
        /// Sources the topology declares.
        expected: usize,
        /// Batches the interval carried.
        got: usize,
    },
    /// The engine's transport shut down before the push (threaded engine
    /// only).
    Closed,
    /// A registered query the named strategy cannot answer (e.g.
    /// `Quantile` on a counts-only sketch config). Checked at the driver
    /// front door against every layer strategy and the root strategy.
    UnsupportedQuery {
        /// [`Strategy::label`] of the offending strategy.
        strategy: &'static str,
        /// The query the strategy cannot answer.
        query: QuerySpec,
    },
    /// A sketch strategy was combined with a topology feature it cannot
    /// run under: heterogeneous layers, mismatched sketch configs, fault
    /// impairment, fleet churn, or the wall-clock pipeline.
    SketchTopology {
        /// What was wrong with the combination.
        reason: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Budget(e) => write!(f, "{e}"),
            EngineError::SourceCount { expected, got } => {
                write!(
                    f,
                    "interval has {got} source batches, topology declares {expected}"
                )
            }
            EngineError::Closed => write!(f, "engine transport already closed"),
            EngineError::UnsupportedQuery { strategy, query } => {
                write!(f, "the {strategy} strategy cannot answer {query}")
            }
            EngineError::SketchTopology { reason } => {
                write!(f, "invalid sketch topology: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<BudgetError> for EngineError {
    fn from(e: BudgetError) -> Self {
        EngineError::Budget(e)
    }
}

/// Which execution backend a [`Driver`] runs on.
#[derive(Debug, Clone, Default)]
pub enum EngineKind {
    /// Deterministic virtual time ([`SimEngine`]): the accuracy engine.
    #[default]
    Sim,
    /// The threaded pipeline over broker topics with WAN emulation
    /// ([`crate::pipeline::PipelineEngine`]): the wall-clock engine.
    Pipeline(PipelineOptions),
}

impl EngineKind {
    /// The threaded pipeline in wall-clock mode with default options.
    pub fn pipeline() -> Self {
        EngineKind::Pipeline(PipelineOptions::default())
    }

    /// The threaded pipeline in deterministic mode: event time is
    /// preserved and every node processes its input in the canonical
    /// `(interval, child, arrival)` order, so fixed-seed estimates match
    /// [`EngineKind::Sim`] bit for bit.
    pub fn pipeline_deterministic() -> Self {
        EngineKind::Pipeline(PipelineOptions::deterministic())
    }
}

/// The outcome of a full run on either engine.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Every window's result, in window order.
    pub results: Vec<WindowResult>,
    /// Wire bytes per hop (sources-side hop first).
    pub bytes: HopBytes,
    /// Frames/items dropped and duplicated per hop by fault injection
    /// (all-zero on an unimpaired topology).
    pub faults: HopFaults,
    /// Fleet-churn accounting: node downtime, degraded windows, crash /
    /// reboot / replacement counts (all-zero on an unchurned topology).
    pub churn: ChurnStats,
    /// Items pushed by the sources.
    pub source_items: u64,
    /// Wall time from engine start to completion.
    pub elapsed: Duration,
    /// Source items per wall second (only meaningful on the threaded
    /// engine).
    pub throughput_items_per_sec: f64,
    /// End-to-end per-item latency (wall-clock pipeline mode only; empty
    /// on the sim engine and in deterministic mode).
    pub latency: LatencyStats,
}

/// An execution backend: feeds intervals through a topology and answers
/// the query set per closed window.
///
/// Implementations accumulate every emitted window internally, so
/// [`Engine::finish`] always reports the complete run regardless of how
/// often [`Engine::poll`] was called.
pub trait Engine {
    /// Feeds one interval of per-source batches.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Closed`] if the engine's transport already
    /// shut down.
    fn push_interval(&mut self, interval: &[Batch]) -> Result<(), EngineError>;

    /// Drains the window results that have become available since the
    /// last poll.
    fn poll(&mut self) -> Vec<WindowResult>;

    /// Ends the stream: drains everything and reports the full run.
    fn finish(self: Box<Self>) -> RunReport;
}

/// The deterministic virtual-time engine: the generalized N-layer logical
/// tree evaluated synchronously (the engine behind every accuracy
/// experiment — Figures 5, 10 and 11a).
#[derive(Debug)]
pub struct SimEngine {
    topology: Topology,
    /// `nodes[layer][index]`, source side first.
    nodes: Vec<Vec<SamplingNode>>,
    root: RootNode,
    bytes: HopBytes,
    /// `injectors[hop][sender]`: one deterministic fault stream per sender
    /// per hop — `None` everywhere on an unimpaired topology
    /// (`sender` = source index on hop 0, sending node index after that).
    injectors: Vec<Vec<Option<FaultInjector>>>,
    /// True source items pushed per root window — the denominator of each
    /// result's completeness fraction.
    window_items: BTreeMap<WindowId, u64>,
    scheme: TumblingWindow,
    results: Vec<WindowResult>,
    source_items: u64,
    /// High-water event time seen so far — [`Engine::poll`]'s watermark.
    max_event_ts: u64,
    /// Intervals pushed so far — the churn schedule's timeline index.
    intervals_pushed: u64,
    /// Churn bookkeeping (`None` on an unchurned topology: strict no-op).
    churn: Option<ChurnDriver>,
    /// `churn_nodes[layer][index]`: each node's rebuild context and
    /// lazily-applied churn state (empty unless the topology carries churn).
    churn_nodes: Vec<Vec<(NodeChurnContext, NodeChurnState)>>,
    started: Instant,
}

impl SimEngine {
    /// Builds the engine for a topology and query set.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError`] for a fraction outside `(0, 1]`.
    pub fn new(topology: Topology, queries: QuerySet) -> Result<Self, BudgetError> {
        let fractions = topology.stage_fractions();
        let nodes = topology
            .layers()
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                (0..layer.nodes)
                    .map(|j| {
                        let strategy = topology.layer_strategy(l);
                        // Sketch nodes share the tree-wide sketch seed —
                        // summaries only merge when item priorities agree.
                        let seed = match strategy {
                            Strategy::Sketch(_) => topology.sketch_seed(),
                            _ => topology.node_seed(l, j),
                        };
                        SamplingNode::with_workers(strategy, fractions[l], seed, layer.workers)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let root_seed = match topology.root_strategy() {
            Strategy::Sketch(_) => topology.sketch_seed(),
            _ => topology.root_seed(),
        };
        let mut root = RootNode::new(RootConfig {
            strategy: topology.root_strategy(),
            // analysis: allow(P1, reason = "TopologyBuilder rejects depth-0 trees, so fractions is non-empty")
            fraction: *fractions.last().expect("depth >= 1"),
            overall_fraction: topology.overall_fraction(),
            window: topology.window(),
            queries,
            seed: root_seed,
            delivery_factor: topology.delivery_factor(),
            allowed_lateness: topology.allowed_lateness(),
        })?;
        let (churn, churn_nodes) = if topology.has_churn() {
            let driver = ChurnDriver::new(&topology);
            root.set_inclusion(driver.inclusion());
            let churn_nodes = topology
                .layers()
                .iter()
                .enumerate()
                .map(|(l, layer)| {
                    (0..layer.nodes)
                        .map(|j| {
                            let ctx = NodeChurnContext::new(&topology, &fractions, l, j);
                            (ctx, NodeChurnState::new())
                        })
                        .collect()
                })
                .collect();
            (Some(driver), churn_nodes)
        } else {
            (None, Vec::new())
        };
        let injectors = hop_injectors(&topology);
        let hops = topology.hops();
        let scheme = TumblingWindow::new(topology.window());
        Ok(SimEngine {
            topology,
            nodes,
            root,
            bytes: HopBytes::new(hops),
            injectors,
            window_items: BTreeMap::new(),
            scheme,
            results: Vec::new(),
            source_items: 0,
            max_event_ts: 0,
            intervals_pushed: 0,
            churn,
            churn_nodes,
            // D1-allowlisted: wall-clock elapsed time is reported, never
            // fed back into the virtual-time run.
            #[allow(clippy::disallowed_methods)]
            started: Instant::now(),
        })
    }

    /// Pushes one interval of source batches through every layer.
    ///
    /// Source `i` feeds node `i % n` of the first layer; node `j` of each
    /// layer feeds node `j % m` of the next (the root last). Every node
    /// processes its inputs in canonical `(child, arrival)` order — the
    /// same order the deterministic threaded engine reconstructs — and
    /// wire bytes are accounted per hop with real codec frame sizes.
    ///
    /// On an impaired topology every frame additionally passes its
    /// sender's [`FaultInjector`] before crossing the hop: dropped frames
    /// never reach (or bill) the link, duplicated frames arrive — and
    /// bill — twice, and reordered frames swap within their burst (the
    /// outputs a node emits for one input frame).
    pub fn push_interval(&mut self, source_batches: &[Batch]) {
        let interval = self.intervals_pushed;
        self.intervals_pushed += 1;
        // Per-window true counts, the completeness denominator, matter
        // only on impaired runs: unimpaired ones are complete by
        // definition, and churned ones count in the inclusion map.
        let count_windows = self.churn.is_none() && self.topology.has_impairment();
        for batch in source_batches {
            self.source_items += batch.len() as u64;
            for item in &batch.items {
                self.max_event_ts = self.max_event_ts.max(item.source_ts);
                if count_windows {
                    let window = self.scheme.index_of(item.source_ts);
                    *self.window_items.entry(window).or_insert(0) += 1;
                }
            }
        }
        if self.topology.sketch_config().is_some() {
            // Sketch topologies are homogeneous and unimpaired (the
            // driver validates); churn/impairment state is never built.
            self.push_interval_sketch(source_batches);
        } else {
            self.push_interval_items(source_batches, interval);
        }
    }

    /// The sketch-strategy path: hop 0 ships item frames exactly like the
    /// item path, the first layer folds them into per-window summaries,
    /// and every hop after that carries **one summary payload per node
    /// per interval** — billed with the real v3 frame size
    /// ([`encoded_len_summaries`]) and merged downstream with no per-item
    /// work. The root files each summary's exact moments as `Θ` rows and
    /// answers through the same estimators as the item path; the merged
    /// sketches answer only `Quantile` and `TopK`.
    fn push_interval_sketch(&mut self, source_batches: &[Batch]) {
        let scheme = self.scheme;
        // Hop 0: source item frames into the first layer, i % n0 fan-in.
        let n0 = self.topology.layers()[0].nodes;
        for (i, batch) in source_batches.iter().enumerate() {
            self.bytes.add(0, encoded_len(batch) as u64);
            self.nodes[0][i % n0].absorb_batch(batch, scheme);
        }
        // Deeper hops: drain each sender once, bill the v3 frame, merge
        // into node j % n of the next layer (the root last).
        let n_layers = self.nodes.len();
        let root_hop = self.topology.hops() - 1;
        for l in 0..n_layers {
            let n_next = self
                .topology
                .layers()
                .get(l + 1)
                .map_or(0, |layer| layer.nodes);
            for j in 0..self.nodes[l].len() {
                let windows = self.nodes[l][j].take_summaries();
                if windows.is_empty() {
                    continue;
                }
                if l + 1 < n_layers {
                    self.bytes
                        .add(l + 1, encoded_len_summaries(&windows) as u64);
                    let payload = NodePayload::Summaries(windows);
                    self.nodes[l + 1][j % n_next].absorb_payload(&payload, scheme);
                } else {
                    self.bytes
                        .add(root_hop, encoded_len_summaries(&windows) as u64);
                    self.root.ingest_summaries(windows);
                }
            }
        }
    }

    /// The item-strategy path. The outputs of one input frame form one
    /// burst on the next hop; on hop 0 each source frame is a burst.
    ///
    /// Under churn a dark node loses its deliveries at the doorstep (the
    /// sender already billed them); a crashed node processes its input,
    /// so its sampler RNG advances as if healthy, then loses the output.
    /// Replacements and fraction scales apply lazily via
    /// [`NodeChurnState::sync`] when a node is about to process data — the
    /// moments replay mode applies them, keeping churn engine-identical.
    fn push_interval_items(&mut self, source_batches: &[Batch], interval: u64) {
        let Self {
            topology,
            nodes,
            root,
            bytes,
            injectors,
            churn,
            churn_nodes,
            ..
        } = self;
        if let Some(churn) = churn.as_mut() {
            // Inclusion tallies + fleet stats, before the data flows.
            churn.note_interval(interval, source_batches);
        }
        let n0 = topology.layers()[0].nodes;
        let mut inputs: Vec<Vec<Cow<'_, Batch>>> = vec![Vec::new(); n0];
        for (i, batch) in source_batches.iter().enumerate() {
            let burst = Cow::Borrowed(std::slice::from_ref(batch));
            let sink = &mut inputs[i % n0];
            cross(bytes, 0, injectors[0][i].as_mut(), burst, sink);
        }
        for (l, layer_nodes) in nodes.iter_mut().enumerate() {
            let hop = l + 1;
            // The root is the last hop's one receiver.
            let n_next = topology.layers().get(hop).map_or(1, |layer| layer.nodes);
            let mut next = vec![Vec::new(); n_next];
            for (j, frames) in inputs.into_iter().enumerate() {
                if frames.is_empty() {
                    // No deliveries — replay mode has no record to process
                    // here either, so the node's churn state stays lazy.
                    continue;
                }
                let mut forward = true;
                if let Some((ctx, state)) = churn_nodes.get_mut(l).map(|layer| &mut layer[j]) {
                    let schedule = topology.churn();
                    let disposition = schedule.disposition(l, j, interval);
                    if disposition == NodeDisposition::Down {
                        continue; // dark: deliveries lost at the doorstep
                    }
                    state.sync(&mut layer_nodes[j], ctx, schedule, interval);
                    forward = !matches!(disposition, NodeDisposition::Crashed { .. });
                }
                for frame in &frames {
                    let mut outs = layer_nodes[j].process_batch_parallel(frame);
                    outs.retain(|out| !out.is_empty());
                    if forward {
                        let (injector, sink) = (injectors[hop][j].as_mut(), &mut next[j % n_next]);
                        cross(bytes, hop, injector, Cow::Owned(outs), sink);
                    }
                }
            }
            inputs = next;
        }
        for frame in &inputs[0] {
            root.ingest(frame);
        }
    }

    /// Advances the event-time watermark, returning (and recording) the
    /// closed windows' results.
    pub fn advance_watermark(&mut self, watermark_nanos: u64) -> Vec<WindowResult> {
        let mut new = self.root.advance_watermark(watermark_nanos);
        self.annotate(&mut new);
        self.results.extend(new.iter().cloned());
        new
    }

    /// Flushes every open window (end of stream).
    pub fn flush(&mut self) -> Vec<WindowResult> {
        let mut new = self.root.flush();
        self.annotate(&mut new);
        self.results.extend(new.iter().cloned());
        new
    }

    /// Fills in each result's completeness against the true per-window
    /// source counts (only impaired or churned topologies can be
    /// incomplete; churn's per-window inclusion tallies subsume the
    /// run-global impairment factor).
    fn annotate(&self, results: &mut [WindowResult]) {
        if let Some(churn) = &self.churn {
            churn.fill_completeness(results);
        } else if self.topology.has_impairment() {
            fill_completeness(results, &self.window_items, self.topology.delivery_factor());
        }
    }

    /// Wire bytes so far, per hop.
    pub fn bytes(&self) -> &HopBytes {
        &self.bytes
    }

    /// Total items pushed by sources so far.
    pub fn source_items(&self) -> u64 {
        self.source_items
    }
}

impl Engine for SimEngine {
    fn push_interval(&mut self, interval: &[Batch]) -> Result<(), EngineError> {
        SimEngine::push_interval(self, interval);
        Ok(())
    }

    fn poll(&mut self) -> Vec<WindowResult> {
        // A window closes once an event at/past its end has been seen.
        self.advance_watermark(self.max_event_ts)
    }

    fn finish(mut self: Box<Self>) -> RunReport {
        self.flush();
        let mut results = std::mem::take(&mut self.results);
        results.sort_by_key(|r| r.window);
        let elapsed = self.started.elapsed();
        RunReport {
            results,
            bytes: self.bytes,
            faults: collect_faults(&self.injectors),
            churn: self
                .churn
                .as_ref()
                .map(ChurnDriver::stats)
                .unwrap_or_default(),
            source_items: self.source_items,
            elapsed,
            throughput_items_per_sec: self.source_items as f64 / elapsed.as_secs_f64().max(1e-9),
            latency: LatencyStats::default(),
        }
    }
}

/// Sends one burst across `hop` into `sink` — through the sender's
/// injector, if the hop has one (see [`SimEngine::push_interval`]) —
/// billing each delivered copy with its real codec frame size. An
/// unimpaired hop clones no frame: owned ones move, borrowed ones are lent.
fn cross<'a>(
    bytes: &mut HopBytes,
    hop: usize,
    injector: Option<&mut FaultInjector>,
    burst: Cow<'a, [Batch]>,
    sink: &mut Vec<Cow<'a, Batch>>,
) {
    let mut deliver = |frame: Cow<'a, Batch>| {
        bytes.add(hop, encoded_len(&frame) as u64);
        sink.push(frame);
    };
    match (injector, burst) {
        (Some(injector), burst) => {
            injector.transmit(&burst, &mut |frame, _| {
                deliver(Cow::Owned(frame.clone()));
                true
            });
        }
        (None, Cow::Borrowed(frames)) => frames.iter().map(Cow::Borrowed).for_each(deliver),
        (None, Cow::Owned(frames)) => frames.into_iter().map(Cow::Owned).for_each(deliver),
    }
}

/// Builds the per-hop, per-sender injector table for a topology: `None`
/// everywhere a hop's spec is a no-op, so an unimpaired hop's frames
/// cross untouched.
pub(crate) fn hop_injectors(topology: &Topology) -> Vec<Vec<Option<FaultInjector>>> {
    (0..topology.hops())
        .map(|hop| {
            let senders = if hop == 0 {
                topology.sources()
            } else {
                topology.layers()[hop - 1].nodes
            };
            let spec = topology.hop_impairment(hop);
            (0..senders)
                .map(|sender| FaultInjector::new(spec, topology.hop_impairment_seed(hop, sender)))
                .collect()
        })
        .collect()
}

/// Aggregates an injector table's counters into per-hop fault accounting.
pub(crate) fn collect_faults(injectors: &[Vec<Option<FaultInjector>>]) -> HopFaults {
    let mut faults = HopFaults::new(injectors.len());
    for (hop, senders) in injectors.iter().enumerate() {
        for injector in senders.iter().flatten() {
            faults.record(hop, injector.stats());
        }
    }
    faults
}

/// Fills each result's completeness fraction: the delivered (pre-rescale)
/// estimated count over the true pushed count, clamped to `[0, 1]`.
/// `count_hat` carries the Horvitz–Thompson rescale (division by the
/// delivery factor), so multiplying it back out recovers what actually
/// arrived.
pub(crate) fn fill_completeness(
    results: &mut [WindowResult],
    window_items: &BTreeMap<WindowId, u64>,
    delivery_factor: f64,
) {
    for result in results {
        let actual = window_items.get(&result.window).copied().unwrap_or(0);
        result.completeness = if actual == 0 {
            1.0
        } else {
            ((result.count_hat * delivery_factor) / actual as f64).clamp(0.0, 1.0)
        };
    }
}

/// The unified front door: one driver, one topology + query set, either
/// engine. See the [module docs](self) for an example.
pub struct Driver {
    topology: Topology,
    engine: Box<dyn Engine>,
}

/// Build-time validation at the driver front door: every layer strategy
/// (and the root's) must be able to answer every registered query, and a
/// sketch strategy anywhere requires a homogeneous, unimpaired,
/// churn-free topology on a deterministic engine — the summary path has
/// no per-item frames for fault injectors to act on, and KLL merges
/// require one tree-wide config and seed.
fn validate(topology: &Topology, queries: &QuerySet, kind: &EngineKind) -> Result<(), EngineError> {
    let mut strategies: Vec<Strategy> = (0..topology.layers().len())
        .map(|l| topology.layer_strategy(l))
        .collect();
    strategies.push(topology.root_strategy());
    for strategy in &strategies {
        for &query in queries.specs() {
            if !strategy.supports(&query) {
                return Err(EngineError::UnsupportedQuery {
                    strategy: strategy.label(),
                    query,
                });
            }
        }
    }
    if !strategies.iter().any(|s| matches!(s, Strategy::Sketch(_))) {
        return Ok(());
    }
    if strategies.iter().any(|s| *s != strategies[0]) {
        return Err(EngineError::SketchTopology {
            reason: "every layer and the root must run the same sketch config \
                     (summaries only merge under one tree-wide config and seed)",
        });
    }
    if topology.has_impairment() {
        return Err(EngineError::SketchTopology {
            reason: "fault impairment is not supported on the summary path",
        });
    }
    if topology.has_churn() {
        return Err(EngineError::SketchTopology {
            reason: "fleet churn is not supported on the summary path",
        });
    }
    if let EngineKind::Pipeline(options) = kind {
        if !options.deterministic {
            return Err(EngineError::SketchTopology {
                reason: "the wall-clock pipeline is not supported; use \
                         EngineKind::pipeline_deterministic()",
            });
        }
    }
    Ok(())
}

impl Driver {
    /// Builds a driver for `topology` + `queries` on the chosen engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Budget`] for an invalid sampling fraction,
    /// [`EngineError::UnsupportedQuery`] when a registered query cannot
    /// be answered by a layer's strategy, and
    /// [`EngineError::SketchTopology`] for invalid sketch combinations.
    pub fn new(
        topology: Topology,
        queries: QuerySet,
        kind: EngineKind,
    ) -> Result<Self, EngineError> {
        validate(&topology, &queries, &kind)?;
        let engine: Box<dyn Engine> = match kind {
            EngineKind::Sim => Box::new(SimEngine::new(topology.clone(), queries)?),
            EngineKind::Pipeline(options) => {
                Box::new(PipelineEngine::new(topology.clone(), queries, options)?)
            }
        };
        Ok(Driver { topology, engine })
    }

    /// A driver on the virtual-time engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Budget`] for an invalid sampling fraction.
    pub fn sim(topology: Topology, queries: QuerySet) -> Result<Self, EngineError> {
        Driver::new(topology, queries, EngineKind::Sim)
    }

    /// A driver on the threaded wall-clock engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Budget`] for an invalid sampling fraction.
    pub fn pipeline(topology: Topology, queries: QuerySet) -> Result<Self, EngineError> {
        Driver::new(topology, queries, EngineKind::pipeline())
    }

    /// The topology this driver runs.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Feeds one interval: exactly one batch per declared source.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::SourceCount`] on an interval whose length
    /// differs from the topology's declared sources, and
    /// [`EngineError::Closed`] if the engine already shut down.
    pub fn push_interval(&mut self, interval: &[Batch]) -> Result<(), EngineError> {
        if interval.len() != self.topology.sources() {
            return Err(EngineError::SourceCount {
                expected: self.topology.sources(),
                got: interval.len(),
            });
        }
        self.engine.push_interval(interval)
    }

    /// Drains the window results that became available since the last
    /// poll. On the sim engine a window closes once an event at/past its
    /// end was pushed; the wall-clock pipeline closes a window once every
    /// child's in-band watermark has passed its end (or, waiting on a
    /// silent child, once wall time passes it by the tree's delay plus the
    /// allowed lateness); the deterministic pipeline reports everything
    /// at [`Driver::finish`].
    pub fn poll(&mut self) -> Vec<WindowResult> {
        self.engine.poll()
    }

    /// Ends the stream and reports the full run.
    pub fn finish(self) -> RunReport {
        self.engine.finish()
    }

    /// Convenience: pushes every interval, then finishes.
    ///
    /// # Errors
    ///
    /// Propagates [`Driver::push_interval`] errors.
    pub fn run(mut self, intervals: &[Vec<Batch>]) -> Result<RunReport, EngineError> {
        for interval in intervals {
            self.push_interval(interval)?;
        }
        Ok(self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QuerySpec;
    use crate::topology::LayerSpec;
    use approxiot_core::{StratumId, StreamItem};

    const SEC: u64 = 1_000_000_000;

    fn interval(sources: usize, n: usize, value: f64, ts: u64) -> Vec<Batch> {
        (0..sources)
            .map(|s| {
                Batch::from_items(
                    (0..n)
                        .map(|k| {
                            StreamItem::with_meta(StratumId::new(s as u32), value, k as u64, ts)
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn deep_topology(fraction: f64) -> Topology {
        Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3))
            .layer(LayerSpec::new(2))
            .layer(LayerSpec::new(1))
            .overall_fraction(fraction)
            .seed(11)
            .build()
            .expect("valid")
    }

    #[test]
    fn four_stage_tree_reconstructs_counts() {
        let mut engine = SimEngine::new(deep_topology(0.3), QuerySet::default()).expect("valid");
        engine.push_interval(&interval(5, 400, 1.0, 10));
        let results = engine.flush();
        assert_eq!(results.len(), 1);
        assert!(
            (results[0].count_hat - 2000.0).abs() < 1e-6,
            "count through four sampling stages: {}",
            results[0].count_hat
        );
        assert_eq!(engine.source_items(), 2000);
    }

    #[test]
    fn per_hop_bytes_shrink_down_the_tree() {
        let mut engine = SimEngine::new(deep_topology(0.05), QuerySet::default()).expect("valid");
        engine.push_interval(&interval(5, 1000, 1.0, 10));
        engine.flush();
        let hops = engine.bytes().hops().to_vec();
        assert_eq!(hops.len(), 4);
        for pair in hops.windows(2) {
            assert!(
                pair[1] < pair[0],
                "each hop must carry fewer bytes: {hops:?}"
            );
        }
    }

    /// The paper's testbed shape: 8 sources → 4 → 2 → root.
    fn paper_tree(strategy: Strategy) -> Topology {
        Topology::builder()
            .sources(8)
            .layer(LayerSpec::new(4))
            .layer(LayerSpec::new(2))
            .strategy(strategy)
            .seed(0x10D5)
            .build()
            .expect("valid")
    }

    #[test]
    fn native_tree_is_exact() {
        let mut engine =
            SimEngine::new(paper_tree(Strategy::Native), QuerySet::default()).expect("valid");
        let batches: Vec<Batch> = (0..8)
            .map(|s| {
                Batch::from_items(
                    (0..100)
                        .map(|k| StreamItem::with_meta(StratumId::new(s), k as f64, k, 10))
                        .collect(),
                )
            })
            .collect();
        let truth: f64 = batches.iter().map(Batch::value_sum).sum();
        engine.push_interval(&batches);
        let results = engine.flush();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].estimate.value, truth);
        assert_eq!(engine.source_items(), 800);
    }

    #[test]
    fn watermark_splits_windows_across_intervals() {
        let mut engine =
            SimEngine::new(paper_tree(Strategy::whs()), QuerySet::default()).expect("valid");
        engine.push_interval(&interval(1, 10, 1.0, 10));
        engine.push_interval(&interval(1, 10, 1.0, SEC + 10));
        let first = engine.advance_watermark(SEC);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].window, 0);
        let rest = engine.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].window, 1);
    }

    #[test]
    fn driver_rejects_wrong_source_count() {
        let mut driver = Driver::sim(deep_topology(0.5), QuerySet::default()).expect("valid");
        assert_eq!(
            driver.push_interval(&interval(3, 10, 1.0, 0)),
            Err(EngineError::SourceCount {
                expected: 5,
                got: 3
            })
        );
        assert!(driver.push_interval(&interval(5, 10, 1.0, 0)).is_ok());
    }

    #[test]
    fn driver_poll_closes_windows_behind_the_event_high_water() {
        let mut driver = Driver::sim(deep_topology(1.0), QuerySet::default()).expect("valid");
        driver
            .push_interval(&interval(5, 10, 1.0, 10))
            .expect("runs");
        assert!(driver.poll().is_empty(), "window 0 still open");
        driver
            .push_interval(&interval(5, 10, 1.0, SEC + 10))
            .expect("runs");
        let closed = driver.poll();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].window, 0);
        // finish still reports every window, polled or not.
        let report = driver.finish();
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.source_items, 100);
    }

    #[test]
    fn driver_runs_multi_query_windows() {
        let queries = QuerySet::new()
            .with(QuerySpec::Sum)
            .with(QuerySpec::Quantile(0.5))
            .with(QuerySpec::TopK(3));
        let driver = Driver::sim(deep_topology(1.0), queries).expect("valid");
        let report = driver.run(&[interval(5, 100, 2.0, 10)]).expect("runs");
        let r = &report.results[0];
        assert_eq!(r.queries.len(), 3);
        assert_eq!(r.estimate.value, 1000.0);
        let median = r
            .queries
            .get(QuerySpec::Quantile(0.5))
            .and_then(crate::query::QueryValue::quantile)
            .expect("non-empty");
        assert_eq!(median.value, 2.0);
        let top = r
            .queries
            .get(QuerySpec::TopK(3))
            .and_then(crate::query::QueryValue::top_k)
            .expect("top-k");
        assert_eq!(top.len(), 3);
    }

    fn sketch_topology(seed: u64) -> Topology {
        Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3))
            .layer(LayerSpec::new(2))
            .layer(LayerSpec::new(1))
            .strategy(Strategy::sketch())
            .seed(seed)
            .build()
            .expect("valid")
    }

    #[test]
    fn sketch_sim_answers_exact_moments_through_the_tree() {
        let queries = QuerySet::new()
            .with(QuerySpec::Sum)
            .with(QuerySpec::Count)
            .with(QuerySpec::Quantile(0.5))
            .with(QuerySpec::TopK(2));
        let mut driver = Driver::new(sketch_topology(11), queries, EngineKind::Sim).expect("valid");
        driver
            .push_interval(&interval(5, 400, 2.0, 10))
            .expect("runs");
        let report = driver.finish();
        assert_eq!(report.results.len(), 1);
        let r = &report.results[0];
        assert_eq!(r.estimate.value, 4000.0, "moments are exact");
        assert_eq!(r.estimate.variance, 0.0);
        assert_eq!(r.count_hat, 2000.0);
        assert_eq!(r.completeness, 1.0);
        assert!(r.queries.quantile(0.5).is_some());
        assert_eq!(r.queries.top_k(2).map(<[_]>::len), Some(2));
        assert_eq!(report.source_items, 2000);
    }

    #[test]
    fn sketch_hops_bill_summary_frames_not_items() {
        let mut engine = SimEngine::new(sketch_topology(11), QuerySet::default()).expect("valid");
        engine.push_interval(&interval(5, 1000, 1.0, 10));
        engine.flush();
        let hops = engine.bytes().hops().to_vec();
        assert_eq!(hops.len(), 4);
        assert!(hops[0] > 0, "hop 0 ships item frames");
        for &inner in &hops[1..] {
            assert!(inner > 0, "every hop bills its summary frames");
            assert!(
                inner < hops[0] / 4,
                "summary hops must be well below the item hop: {hops:?}"
            );
        }
    }

    #[test]
    fn driver_rejects_queries_the_sketch_cannot_answer() {
        use approxiot_core::SketchConfig;
        let counts_only = Topology::builder()
            .sources(2)
            .layer(LayerSpec::new(1))
            .strategy(Strategy::Sketch(SketchConfig::counts_only()))
            .build()
            .expect("valid");
        let err = Driver::sim(
            counts_only.clone(),
            QuerySet::new().with(QuerySpec::Quantile(0.5)),
        )
        .err()
        .expect("rejected");
        assert_eq!(
            err,
            EngineError::UnsupportedQuery {
                strategy: "sketch",
                query: QuerySpec::Quantile(0.5)
            }
        );
        let err = Driver::sim(counts_only, QuerySet::new().with(QuerySpec::TopK(3)))
            .err()
            .expect("rejected");
        assert!(err.to_string().contains("cannot answer TOP3"), "{err}");
    }

    #[test]
    fn driver_rejects_invalid_sketch_combinations() {
        use approxiot_net::ImpairmentSpec;
        // Heterogeneous: a sketch tree with a non-sketch layer.
        let mixed = Topology::builder()
            .sources(2)
            .layer(LayerSpec::new(2).strategy(Strategy::Native))
            .layer(LayerSpec::new(1))
            .strategy(Strategy::sketch())
            .build()
            .expect("valid");
        assert!(matches!(
            Driver::sim(mixed, QuerySet::default()),
            Err(EngineError::SketchTopology { .. })
        ));
        // Impairment on the summary path.
        let impaired = Topology::builder()
            .sources(2)
            .layer(LayerSpec::new(1))
            .strategy(Strategy::sketch())
            .impair_all_hops(ImpairmentSpec::none().loss(0.5))
            .build()
            .expect("valid");
        assert!(matches!(
            Driver::sim(impaired, QuerySet::default()),
            Err(EngineError::SketchTopology { .. })
        ));
        // The wall-clock pipeline; the deterministic pipeline is fine.
        let sketch = sketch_topology(3);
        assert!(matches!(
            Driver::pipeline(sketch.clone(), QuerySet::default()),
            Err(EngineError::SketchTopology { .. })
        ));
        assert!(Driver::new(
            sketch,
            QuerySet::default(),
            EngineKind::pipeline_deterministic()
        )
        .is_ok());
    }

    #[test]
    fn one_impaired_hop_and_one_churned_leaf_stay_engine_identical() {
        // Only hop 0 has injectors and only leaf 1 churns, so one run mixes
        // hops with and without injectors and nodes with and without churn.
        use crate::churn::ChurnSchedule;
        use approxiot_net::ImpairmentSpec;
        let chaos = ImpairmentSpec::none().loss(0.2).duplicate(0.1).reorder(0.3);
        let topology = Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3).impairment(chaos))
            .layer(LayerSpec::new(2))
            .overall_fraction(0.3)
            .seed(0xE0_0E)
            .churn(ChurnSchedule::new().down(0, 1, 1, 2).crash(0, 1, 3))
            .build()
            .expect("valid");
        let mut data: Vec<_> = (0..5).map(|t| interval(5, 300, 0.0, t * SEC)).collect();
        // Distinct values, so which items each sampler keeps shows in the sums.
        let items = data.iter_mut().flatten().flat_map(|b| &mut b.items);
        items
            .enumerate()
            .for_each(|(k, item)| item.value = (k % 97) as f64);
        let run = |kind| Driver::new(topology.clone(), QuerySet::default(), kind)?.run(&data);
        let sim = run(EngineKind::Sim).expect("sim run");
        let pipe = run(EngineKind::pipeline_deterministic()).expect("pipeline run");
        // Debug prints each f64 in its shortest exact form: equal text is
        // equal bits, in every field of every window.
        assert_eq!(format!("{:?}", sim.results), format!("{:?}", pipe.results));
        assert_eq!((&sim.faults, sim.churn), (&pipe.faults, pipe.churn));
        let hop0 = sim.faults.hops()[0];
        assert!(hop0.dropped_frames > 0 && sim.churn.node_downtime > 0 && sim.churn.crashes > 0);
        // Sim bills each frame as v1, the pipeline as the v2 frame it
        // sends, 12 bytes longer: hop 0 carries the 25 source frames, less
        // drops, plus duplicates.
        let (s, p) = (sim.bytes.hops(), pipe.bytes.hops());
        let frames0 = 25 - hop0.dropped_frames + hop0.duplicated_frames;
        assert_eq!(p[0] - s[0], 12 * frames0);
        assert!((1..3).all(|h| (p[h] - s[h]) % 12 == 0), "{s:?} vs {p:?}");
    }

    #[test]
    fn heterogeneous_layers_run() {
        use crate::node::Strategy;
        // Native first layer (forward everything), WHS mid, at full depth.
        let topology = Topology::builder()
            .sources(4)
            .layer(LayerSpec::new(2).strategy(Strategy::Native))
            .layer(LayerSpec::new(1))
            .overall_fraction(0.5)
            .seed(3)
            .build()
            .expect("valid");
        let driver = Driver::sim(topology, QuerySet::default()).expect("valid");
        let report = driver.run(&[interval(4, 100, 1.0, 10)]).expect("runs");
        assert!((report.results[0].count_hat - 400.0).abs() < 1e-6);
    }
}
