//! Deterministic fleet churn: seeded node outage schedules, the per-node
//! state machine both engines honour, and the per-window inclusion
//! accounting behind the node-level Horvitz–Thompson rescale.
//!
//! The paper's tree is always-on; a real edge fleet is not. A
//! [`ChurnSchedule`] attaches per-node events to the virtual timeline
//! (the driver's pushed-interval index):
//!
//! * **down/up** — the node is dark for a half-open interval range
//!   `[from, until)`: it processes nothing, and frames delivered to it
//!   are lost at its doorstep (the sender still transmits, so wire bytes
//!   and fault streams are unaffected);
//! * **crash** — a mid-window failure at one interval: the node processes
//!   its input (its sampler RNG advances exactly as if it were healthy)
//!   but its buffered sampled output for that interval is lost before it
//!   can be forwarded;
//! * **replace** — a fresh node takes over the failed node's slot from
//!   that interval on, with a brand-new sampler seeded by
//!   [`crate::Topology::replacement_seed`] (routing is unchanged — the
//!   replacement inherits the slot, not the RNG);
//! * **degradation** — [`DegradedMode::LowPower`] shrinks the node's
//!   sampling fraction by a scale factor (battery-saving duty cycle)
//!   while [`DegradedMode::Silent`] is the precursor to going dark: the
//!   node stops processing entirely, indistinguishable from down.
//!
//! Every event resolves to one [`NodeDisposition`] per (node, interval):
//! down wins over crash wins over silent wins over low-power. An empty
//! schedule ([`ChurnSchedule::is_noop`]) is a **strict no-op** — both
//! engines skip every piece of churn machinery, so the run is
//! bit-identical to an unchurned one.
//!
//! On the analytics side the run-global per-hop
//! [`crate::Topology::delivery_factor`] generalizes to **per-window,
//! per-stratum** inclusion factors: at push time the driver tallies, for
//! every `(window, stratum)`, how many items were pushed and how much
//! delivery weight their leaf paths were actually worth (the per-sender
//! path delivery factor for items whose whole path was alive, zero for
//! items bound for a dark subtree). At answer time the root rescales each
//! stratum by the inverse of that factor, keeping SUM/COUNT unbiased (and
//! MEAN consistent) while nodes are down, and `WindowResult::completeness`
//! reflects outages, not just packet loss.

use crate::node::{SamplingNode, Strategy};
use crate::root::WindowResult;
use crate::topology::Topology;
use approxiot_core::{Batch, StratumId};
use approxiot_streams::{TumblingWindow, WindowId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// SplitMix64 finalizer: the same mixer
/// [`approxiot_net::Impairment`](approxiot_net) seeds through, reused here
/// so replacement-node seeds decorrelate even for adjacent generations.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The sampler seed of the `generation`-th replacement in a slot whose
/// churn seed is `churn_seed` (generation 0 is the original node, which
/// keeps its [`crate::Topology::node_seed`]).
pub(crate) fn replacement_seed(churn_seed: u64, generation: u64) -> u64 {
    splitmix64(churn_seed.wrapping_add(generation))
}

/// How a degraded (but not yet dark) node behaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradedMode {
    /// The node keeps processing but shrinks its sampling fraction by
    /// this scale in `(0, 1]` — battery-saving duty cycling.
    LowPower(f64),
    /// The node stops processing entirely (the precursor to going dark);
    /// operationally identical to down.
    Silent,
}

/// What one node is doing during one interval, after every scheduled
/// event is resolved (down beats crash beats silent beats low-power).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeDisposition {
    /// Processing; `fraction_scale` multiplies the node's base sampling
    /// fraction (`1.0` = healthy, below it = low-power).
    Active {
        /// Product of every low-power scale covering the interval.
        fraction_scale: f64,
    },
    /// Processes the interval (the sampler RNG advances), then loses its
    /// buffered output before forwarding.
    Crashed {
        /// Low-power scaling still applies to the doomed processing.
        fraction_scale: f64,
    },
    /// Not processing at all; frames delivered to it are lost.
    Down,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Outage {
    layer: usize,
    index: usize,
    from: u64,
    until: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Crash {
    layer: usize,
    index: usize,
    interval: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Replacement {
    layer: usize,
    index: usize,
    interval: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Degradation {
    layer: usize,
    index: usize,
    from: u64,
    until: u64,
    mode: DegradedMode,
}

/// A deterministic per-node event schedule on the virtual timeline.
///
/// Build one with the chained event methods and attach it via
/// [`crate::TopologyBuilder::churn`]; see the [module docs](self) for the
/// event semantics. `layer`/`index` address edge nodes (layer 0 =
/// leaves); the root is never churned. Interval ranges are half-open
/// `[from, until)` on the driver's pushed-interval index.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnSchedule {
    outages: Vec<Outage>,
    crashes: Vec<Crash>,
    replacements: Vec<Replacement>,
    degradations: Vec<Degradation>,
}

impl ChurnSchedule {
    /// An empty schedule (a strict no-op).
    pub fn new() -> Self {
        ChurnSchedule::default()
    }

    /// Node `(layer, index)` is dark for intervals `[from, until)`.
    pub fn down(mut self, layer: usize, index: usize, from: u64, until: u64) -> Self {
        self.outages.push(Outage {
            layer,
            index,
            from,
            until,
        });
        self
    }

    /// Node `(layer, index)` crashes mid-window at `interval`: it
    /// processes the interval, then loses its buffered output.
    pub fn crash(mut self, layer: usize, index: usize, interval: u64) -> Self {
        self.crashes.push(Crash {
            layer,
            index,
            interval,
        });
        self
    }

    /// A replacement node takes over slot `(layer, index)` from
    /// `interval` on, with a fresh sampler seeded per generation.
    pub fn replace(mut self, layer: usize, index: usize, interval: u64) -> Self {
        self.replacements.push(Replacement {
            layer,
            index,
            interval,
        });
        self
    }

    /// Node `(layer, index)` runs low-power for `[from, until)`, scaling
    /// its sampling fraction by `scale` in `(0, 1]`.
    pub fn low_power(
        mut self,
        layer: usize,
        index: usize,
        from: u64,
        until: u64,
        scale: f64,
    ) -> Self {
        self.degradations.push(Degradation {
            layer,
            index,
            from,
            until,
            mode: DegradedMode::LowPower(scale),
        });
        self
    }

    /// Node `(layer, index)` goes silent for `[from, until)` (processes
    /// nothing; the precursor to down).
    pub fn silent(mut self, layer: usize, index: usize, from: u64, until: u64) -> Self {
        self.degradations.push(Degradation {
            layer,
            index,
            from,
            until,
            mode: DegradedMode::Silent,
        });
        self
    }

    /// `true` when the schedule carries no events at all — the strict
    /// no-op contract both engines gate every piece of churn machinery on.
    pub fn is_noop(&self) -> bool {
        self.outages.is_empty()
            && self.crashes.is_empty()
            && self.replacements.is_empty()
            && self.degradations.is_empty()
    }

    /// Resolves every event touching `(layer, index)` at `interval` into
    /// one disposition. Priority: down > crash > silent > low-power >
    /// healthy; overlapping low-power scales multiply.
    pub fn disposition(&self, layer: usize, index: usize, interval: u64) -> NodeDisposition {
        let matches_node = |l: usize, i: usize| l == layer && i == index;
        if self
            .outages
            .iter()
            .any(|o| matches_node(o.layer, o.index) && o.from <= interval && interval < o.until)
        {
            return NodeDisposition::Down;
        }
        let mut silent = false;
        let mut scale = 1.0;
        for d in &self.degradations {
            if matches_node(d.layer, d.index) && d.from <= interval && interval < d.until {
                match d.mode {
                    DegradedMode::Silent => silent = true,
                    DegradedMode::LowPower(s) => scale *= s,
                }
            }
        }
        let crashed = self
            .crashes
            .iter()
            .any(|c| matches_node(c.layer, c.index) && c.interval == interval);
        if crashed {
            return NodeDisposition::Crashed {
                fraction_scale: scale,
            };
        }
        if silent {
            return NodeDisposition::Down;
        }
        NodeDisposition::Active {
            fraction_scale: scale,
        }
    }

    /// How many replacements have taken over slot `(layer, index)` by
    /// `interval` (inclusive) — generation 0 is the original node.
    pub fn generation(&self, layer: usize, index: usize, interval: u64) -> u64 {
        self.replacements
            .iter()
            .filter(|r| r.layer == layer && r.index == index && r.interval <= interval)
            .count() as u64
    }

    /// Replacement events firing exactly at `interval`, fleet-wide.
    pub fn replacements_at(&self, interval: u64) -> u64 {
        self.replacements
            .iter()
            .filter(|r| r.interval == interval)
            .count() as u64
    }

    /// Panics unless every event addresses a node inside `layers` (node
    /// counts per edge layer), ranges are non-empty, and low-power scales
    /// sit in `(0, 1]` — called by [`crate::TopologyBuilder::build`].
    pub(crate) fn validate(&self, layers: &[usize]) {
        let check_node = |what: &str, layer: usize, index: usize| {
            assert!(
                layer < layers.len(),
                "churn {what} addresses layer {layer}, topology has {} edge layers",
                layers.len()
            );
            assert!(
                index < layers[layer],
                "churn {what} addresses node {index} of layer {layer}, which has {} nodes",
                layers[layer]
            );
        };
        for o in &self.outages {
            check_node("outage", o.layer, o.index);
            assert!(
                o.from < o.until,
                "churn outage range [{}, {}) is empty",
                o.from,
                o.until
            );
        }
        for c in &self.crashes {
            check_node("crash", c.layer, c.index);
        }
        for r in &self.replacements {
            check_node("replacement", r.layer, r.index);
        }
        for d in &self.degradations {
            check_node("degradation", d.layer, d.index);
            assert!(
                d.from < d.until,
                "churn degradation range [{}, {}) is empty",
                d.from,
                d.until
            );
            if let DegradedMode::LowPower(scale) = d.mode {
                assert!(
                    scale > 0.0 && scale <= 1.0,
                    "low-power fraction scale must be in (0, 1], got {scale}"
                );
            }
        }
    }
}

/// Deterministic churn accounting for one full run, identical on both
/// engines.
///
/// * `node_downtime` — node-intervals spent dark (down or silent);
/// * `windows_degraded` — pushed intervals where any node was not plainly
///   healthy (dark, crashed, or low-power);
/// * `crashes` — node-intervals that ended in a mid-window crash;
/// * `reboots` — dark→up transitions between consecutively pushed
///   intervals;
/// * `replacements` — replacement nodes that joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnStats {
    /// Node-intervals spent dark (down or silent).
    pub node_downtime: u64,
    /// Pushed intervals with at least one non-healthy node.
    pub windows_degraded: u64,
    /// Mid-window crashes that lost a node's buffered output.
    pub crashes: u64,
    /// Dark→up transitions observed across pushed intervals.
    pub reboots: u64,
    /// Replacement nodes that joined a layer.
    pub replacements: u64,
}

/// Per-`(window, stratum)` inclusion tally the driver fills at push time:
/// how many items were pushed and how much delivery weight their leaf
/// paths were worth that window.
#[derive(Debug, Clone, Copy, Default)]
pub struct InclusionTally {
    /// Summed per-sender path delivery factors of items whose whole
    /// source→root path was alive (zero contribution from dark subtrees).
    pub delivered_weight: f64,
    /// Items pushed, alive or not — the ground-truth denominator.
    pub items: u64,
}

impl InclusionTally {
    /// The effective inclusion factor: expected delivered weight per
    /// pushed item (`delivery_factor` when everything is alive, smaller
    /// under outages, `0.0` when the whole window was dark).
    pub fn factor(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.delivered_weight / self.items as f64
        }
    }
}

/// Per-stratum inclusion tallies of one window.
pub type StratumInclusion = BTreeMap<StratumId, InclusionTally>;

/// The shared per-window inclusion map: written by the driver at push
/// time, read by the root at answer time (and by completeness filling).
pub type InclusionHandle = Arc<Mutex<BTreeMap<WindowId, StratumInclusion>>>;

/// The driver-side churn bookkeeper both engines embed: owns the stats,
/// the inclusion map handle (shared with the root) and the previous-state
/// tracking for reboot detection. All accounting runs in push order over
/// the same loops on either engine, so fixed-seed runs accumulate the
/// exact same floats.
#[derive(Debug)]
pub(crate) struct ChurnDriver {
    topology: Topology,
    scheme: TumblingWindow,
    /// Per-source path delivery factors ([`Topology::path_delivery_factor`]).
    pdf: Vec<f64>,
    inclusion: InclusionHandle,
    stats: ChurnStats,
    /// Previous interval's dark flag per node, for reboot counting.
    prev_down: Vec<Vec<bool>>,
    /// Last interval stats were taken for (wall mode can revisit one).
    last_interval: Option<u64>,
}

impl ChurnDriver {
    pub(crate) fn new(topology: &Topology) -> Self {
        let pdf = (0..topology.sources())
            .map(|s| topology.path_delivery_factor(s))
            .collect();
        let prev_down = topology
            .layers()
            .iter()
            .map(|layer| vec![false; layer.nodes])
            .collect();
        ChurnDriver {
            scheme: TumblingWindow::new(topology.window()),
            pdf,
            inclusion: Arc::new(Mutex::new(BTreeMap::new())),
            stats: ChurnStats::default(),
            prev_down,
            last_interval: None,
            topology: topology.clone(),
        }
    }

    /// The inclusion map handle to share with the root.
    pub(crate) fn inclusion(&self) -> InclusionHandle {
        Arc::clone(&self.inclusion)
    }

    pub(crate) fn stats(&self) -> ChurnStats {
        self.stats
    }

    /// Accounts one pushed interval in event time (sim engine and replay
    /// mode): items keep their own timestamps, so tallies land in the
    /// window each item belongs to; aliveness is evaluated at `interval`.
    pub(crate) fn note_interval(&mut self, interval: u64, batches: &[Batch]) {
        self.note_stats(interval);
        let mut map = self
            .inclusion
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (source, batch) in batches.iter().enumerate() {
            let alive = self.topology.source_path_alive(source, interval);
            let pdf = self.pdf[source];
            for item in &batch.items {
                let tally = map
                    .entry(self.scheme.index_of(item.source_ts))
                    .or_default()
                    .entry(item.stratum)
                    .or_default();
                tally.items += 1;
                if alive {
                    tally.delivered_weight += pdf;
                }
            }
        }
    }

    /// Accounts one source batch sent at `wall_ts` in wall-clock mode:
    /// every item lands in the wall window of `wall_ts` (the stamp the
    /// encoder writes over each item's own `source_ts`, which is not read
    /// here), which also serves as the schedule interval (the wall engine
    /// maps the virtual timeline onto wall windows).
    pub(crate) fn note_wall(&mut self, source: usize, wall_ts: u64, batch: &Batch) {
        let interval = self.scheme.index_of(wall_ts);
        self.note_stats(interval);
        let alive = self.topology.source_path_alive(source, interval);
        let pdf = self.pdf[source];
        let mut map = self
            .inclusion
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let window = map.entry(interval).or_default();
        for item in &batch.items {
            let tally = window.entry(item.stratum).or_default();
            tally.items += 1;
            if alive {
                tally.delivered_weight += pdf;
            }
        }
    }

    /// Takes the fleet-wide stats of `interval` once (wall mode can call
    /// with the same interval repeatedly; only the first call counts).
    fn note_stats(&mut self, interval: u64) {
        if self.last_interval == Some(interval) {
            return;
        }
        self.last_interval = Some(interval);
        let schedule = self.topology.churn();
        let mut degraded = false;
        for (l, layer) in self.topology.layers().iter().enumerate() {
            for j in 0..layer.nodes {
                let disposition = schedule.disposition(l, j, interval);
                let down = matches!(disposition, NodeDisposition::Down);
                match disposition {
                    NodeDisposition::Down => {
                        self.stats.node_downtime += 1;
                        degraded = true;
                    }
                    NodeDisposition::Crashed { .. } => {
                        self.stats.crashes += 1;
                        degraded = true;
                    }
                    NodeDisposition::Active { fraction_scale } => {
                        if fraction_scale != 1.0 {
                            degraded = true;
                        }
                    }
                }
                if self.prev_down[l][j] && !down {
                    self.stats.reboots += 1;
                }
                self.prev_down[l][j] = down;
            }
        }
        self.stats.replacements += schedule.replacements_at(interval);
        if degraded {
            self.stats.windows_degraded += 1;
        }
    }

    /// Fills each result's completeness from the inclusion tallies: the
    /// delivered (pre-rescale) estimated count over the true pushed
    /// count. `count_hat` carries the node-level Horvitz–Thompson rescale
    /// already, so multiplying the aggregate inclusion factor back out
    /// recovers what actually survived churn *and* packet loss.
    pub(crate) fn fill_completeness(&self, results: &mut [WindowResult]) {
        let map = self
            .inclusion
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for result in results {
            let Some(window) = map.get(&result.window) else {
                result.completeness = 1.0;
                continue;
            };
            let actual: u64 = window.values().map(|t| t.items).sum();
            if actual == 0 {
                result.completeness = 1.0;
                continue;
            }
            let delivered: f64 = window.values().map(|t| t.delivered_weight).sum();
            let factor = delivered / actual as f64;
            result.completeness = ((result.count_hat * factor) / actual as f64).clamp(0.0, 1.0);
        }
    }
}

/// Everything an edge node needs to apply its scheduled churn state
/// lazily, just before processing a frame: who it is, how to rebuild
/// itself on replacement, and how to rescale its fraction.
#[derive(Debug, Clone)]
pub(crate) struct NodeChurnContext {
    pub(crate) layer: usize,
    pub(crate) index: usize,
    pub(crate) strategy: Strategy,
    pub(crate) base_fraction: f64,
    pub(crate) workers: usize,
    pub(crate) churn_seed: u64,
}

impl NodeChurnContext {
    pub(crate) fn new(topology: &Topology, fractions: &[f64], layer: usize, index: usize) -> Self {
        NodeChurnContext {
            layer,
            index,
            strategy: topology.layer_strategy(layer),
            base_fraction: fractions[layer],
            workers: topology.layers()[layer].workers,
            churn_seed: topology.churn_seed(layer, index),
        }
    }
}

/// One node's lazily-tracked churn state (current replacement generation
/// and fraction scale). State is applied only when the node is about to
/// process data, and only as a diff — [`SamplingNode::set_fraction`]
/// leaves the sampler RNG untouched, so the sim engine's per-interval
/// application and replay mode's per-record application produce identical
/// samplers whenever data flows.
#[derive(Debug, Clone)]
pub(crate) struct NodeChurnState {
    generation: u64,
    scale: f64,
}

impl NodeChurnState {
    pub(crate) fn new() -> Self {
        NodeChurnState {
            generation: 0,
            scale: 1.0,
        }
    }

    /// Brings `node` up to date with the schedule at `interval`:
    /// rebuilds it with a fresh replacement seed when its generation
    /// advanced, then applies the interval's fraction scale.
    pub(crate) fn sync(
        &mut self,
        node: &mut SamplingNode,
        ctx: &NodeChurnContext,
        schedule: &ChurnSchedule,
        interval: u64,
    ) {
        let generation = schedule.generation(ctx.layer, ctx.index, interval);
        if generation != self.generation {
            self.generation = generation;
            self.scale = 1.0;
            *node = SamplingNode::with_workers(
                ctx.strategy,
                ctx.base_fraction,
                replacement_seed(ctx.churn_seed, generation),
                ctx.workers,
            )
            // analysis: allow(P1, reason = "rebuilding with the same base fraction the builder already validated")
            .expect("base fraction validated at build time");
        }
        let scale = match schedule.disposition(ctx.layer, ctx.index, interval) {
            NodeDisposition::Down => return,
            NodeDisposition::Active { fraction_scale }
            | NodeDisposition::Crashed { fraction_scale } => fraction_scale,
        };
        if scale != self.scale {
            self.scale = scale;
            node.set_fraction((ctx.base_fraction * scale).min(1.0))
                // analysis: allow(P1, reason = "schedule builder clamps fraction_scale to (0, 1]")
                .expect("scale validated in (0, 1] at build time");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_noop_and_healthy_everywhere() {
        let s = ChurnSchedule::new();
        assert!(s.is_noop());
        for interval in 0..4 {
            assert_eq!(
                s.disposition(0, 0, interval),
                NodeDisposition::Active {
                    fraction_scale: 1.0
                }
            );
        }
        assert_eq!(s.generation(0, 0, 100), 0);
    }

    #[test]
    fn disposition_priority_down_beats_crash_beats_silent_beats_low_power() {
        let s = ChurnSchedule::new()
            .down(0, 0, 2, 4)
            .crash(0, 0, 2)
            .crash(0, 0, 5)
            .silent(0, 0, 5, 7)
            .low_power(0, 0, 0, 10, 0.5);
        // Down wins over a same-interval crash.
        assert_eq!(s.disposition(0, 0, 2), NodeDisposition::Down);
        assert_eq!(s.disposition(0, 0, 3), NodeDisposition::Down);
        // Crash wins over silent, and carries the low-power scale.
        assert_eq!(
            s.disposition(0, 0, 5),
            NodeDisposition::Crashed {
                fraction_scale: 0.5
            }
        );
        // Silent resolves to down.
        assert_eq!(s.disposition(0, 0, 6), NodeDisposition::Down);
        // Low-power alone.
        assert_eq!(
            s.disposition(0, 0, 8),
            NodeDisposition::Active {
                fraction_scale: 0.5
            }
        );
        // Other nodes are untouched.
        assert_eq!(
            s.disposition(0, 1, 2),
            NodeDisposition::Active {
                fraction_scale: 1.0
            }
        );
    }

    #[test]
    fn overlapping_low_power_scales_multiply() {
        let s = ChurnSchedule::new()
            .low_power(1, 0, 0, 10, 0.5)
            .low_power(1, 0, 5, 10, 0.5);
        assert_eq!(
            s.disposition(1, 0, 7),
            NodeDisposition::Active {
                fraction_scale: 0.25
            }
        );
    }

    #[test]
    fn generations_count_replacements_up_to_the_interval() {
        let s = ChurnSchedule::new().replace(0, 1, 3).replace(0, 1, 7);
        assert_eq!(s.generation(0, 1, 2), 0);
        assert_eq!(s.generation(0, 1, 3), 1);
        assert_eq!(s.generation(0, 1, 6), 1);
        assert_eq!(s.generation(0, 1, 7), 2);
        assert_eq!(s.generation(0, 0, 7), 0, "other slots unaffected");
        assert_eq!(s.replacements_at(3), 1);
        assert_eq!(s.replacements_at(4), 0);
    }

    #[test]
    fn replacement_seeds_differ_per_generation_and_slot() {
        let a1 = replacement_seed(1, 1);
        let a2 = replacement_seed(1, 2);
        let b1 = replacement_seed(2, 1);
        assert_ne!(a1, a2);
        assert_ne!(a1, b1);
    }

    #[test]
    #[should_panic(expected = "addresses node 9")]
    fn validate_rejects_out_of_range_nodes() {
        ChurnSchedule::new().down(0, 9, 0, 1).validate(&[4, 2]);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn validate_rejects_empty_ranges() {
        ChurnSchedule::new().down(0, 0, 3, 3).validate(&[4, 2]);
    }

    #[test]
    #[should_panic(expected = "low-power fraction scale")]
    fn validate_rejects_bad_low_power_scale() {
        ChurnSchedule::new()
            .low_power(0, 0, 0, 1, 0.0)
            .validate(&[4, 2]);
    }

    #[test]
    fn inclusion_factor_is_delivered_weight_per_item() {
        let tally = InclusionTally {
            delivered_weight: 3.0,
            items: 4,
        };
        assert!((tally.factor() - 0.75).abs() < 1e-12);
        assert_eq!(InclusionTally::default().factor(), 0.0);
    }
}
