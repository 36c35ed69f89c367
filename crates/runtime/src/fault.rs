//! Deterministic fault injection: the runtime layer that turns a hop's
//! [`ImpairmentSpec`] into actual dropped, duplicated, reordered and
//! jitter-delayed frames — on **both** execution engines, with identical
//! decisions.
//!
//! ## How determinism is preserved across engines
//!
//! Every sender on an impaired hop owns one [`FaultInjector`]: a seeded
//! decision stream ([`approxiot_net::Impairment`]) plus drop/duplicate
//! accounting. The injector's seed derives from the topology
//! ([`crate::Topology::hop_impairment_seed`]) as a function of `(hop,
//! sender index)` only, and both engines transmit each sender's frames in
//! the same canonical order (the PR-3 engine-equivalence contract), so the
//! *n*-th frame of a given sender meets the same fate everywhere:
//!
//! * the virtual-time [`crate::SimEngine`] passes each node's outputs
//!   through its injector as it routes them to the next layer;
//! * the threaded [`crate::pipeline::PipelineEngine`] wraps each node's
//!   producer the same way, in wall-clock **and** deterministic-replay
//!   mode.
//!
//! Decision draws are strictly ordered per frame — drop, then (for
//! survivors) duplicate, then reorder, then one jitter draw per delivered
//! copy — and every disabled knob short-circuits without consuming
//! randomness, so a zero spec leaves seeded runs bit-identical to an
//! unimpaired topology.
//!
//! ## Semantics of each knob
//!
//! * **Loss** drops a frame before it consumes hop bandwidth (an egress
//!   drop): lost frames appear in [`HopFaults`], not in byte accounting.
//! * **Duplication** delivers a surviving frame twice, back to back (and
//!   pays for both copies on the wire).
//! * **Reorder** swaps a surviving frame with its successor *within one
//!   transmission burst* — the set of frames a node emits for one input
//!   (§III-E sharded nodes emit one frame per worker shard). Bounding the
//!   displacement to the burst keeps replay mode's canonical
//!   `(interval, partition, offset)` sort order aligned with the sim
//!   engine's processing order.
//! * **Jitter** adds uniform extra in-flight delay per delivered copy. It
//!   perturbs wall-clock delivery times (and can push arrivals past the
//!   root's allowed-lateness horizon), but never virtual-time estimates:
//!   in sim and replay mode the draw happens — keeping streams aligned —
//!   and the duration is ignored.

use approxiot_core::{Batch, ColumnarBatch};
use approxiot_net::{Impairment, ImpairmentSpec};
use std::time::Duration;

/// A frame the injector can transmit: anything that knows how many items
/// it carries (for drop/duplicate item accounting). Implemented for both
/// batch layouts so AoS and columnar sends share one decision stream —
/// the injected fates depend only on frame order, never on layout.
pub trait FaultFrame {
    /// Items inside the frame.
    fn item_count(&self) -> usize;
}

impl FaultFrame for Batch {
    fn item_count(&self) -> usize {
        self.len()
    }
}

impl FaultFrame for ColumnarBatch {
    fn item_count(&self) -> usize {
        self.len()
    }
}

/// Drop/duplicate accounting of one injector (or one whole hop, when
/// aggregated into [`HopFaults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Frames dropped by loss.
    pub dropped_frames: u64,
    /// Items inside dropped frames.
    pub dropped_items: u64,
    /// Frames delivered twice by duplication.
    pub duplicated_frames: u64,
    /// Items inside duplicated frames (counted once per extra copy).
    pub duplicated_items: u64,
}

impl FaultStats {
    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.dropped_frames += other.dropped_frames;
        self.dropped_items += other.dropped_items;
        self.duplicated_frames += other.duplicated_frames;
        self.duplicated_items += other.duplicated_items;
    }

    /// Returns `true` when nothing was dropped or duplicated.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Per-hop fault accounting for a whole run — the [`crate::HopBytes`]
/// counterpart for impairments. `hops()[0]` is the sources → first-layer
/// hop; the last entry is the hop into the root.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HopFaults {
    hops: Vec<FaultStats>,
}

impl HopFaults {
    /// Zeroed accounting for a tree with `hops` hops.
    pub fn new(hops: usize) -> Self {
        HopFaults {
            hops: vec![FaultStats::default(); hops],
        }
    }

    /// Per-hop fault counters, source-side hop first.
    pub fn hops(&self) -> &[FaultStats] {
        &self.hops
    }

    /// Merges one injector's counters into hop `hop`.
    pub fn record(&mut self, hop: usize, stats: &FaultStats) {
        self.hops[hop].merge(stats);
    }

    /// Items lost in flight across every hop.
    pub fn dropped_items(&self) -> u64 {
        self.hops.iter().map(|h| h.dropped_items).sum()
    }

    /// Extra item copies delivered across every hop.
    pub fn duplicated_items(&self) -> u64 {
        self.hops.iter().map(|h| h.duplicated_items).sum()
    }

    /// Returns `true` when no hop dropped or duplicated anything.
    pub fn is_clean(&self) -> bool {
        self.hops.iter().all(FaultStats::is_clean)
    }
}

impl From<Vec<FaultStats>> for HopFaults {
    fn from(hops: Vec<FaultStats>) -> Self {
        HopFaults { hops }
    }
}

/// One sender's deterministic fault stream on one hop.
///
/// Feed every outgoing burst through [`FaultInjector::transmit`]; the
/// injector decides each frame's fate and invokes the delivery callback
/// for every surviving copy, in final (possibly reordered) order.
///
/// # Examples
///
/// ```
/// use approxiot_core::{Batch, StratumId, StreamItem};
/// use approxiot_net::ImpairmentSpec;
/// use approxiot_runtime::FaultInjector;
///
/// let spec = ImpairmentSpec::none().loss(0.5);
/// let mut injector = FaultInjector::new(spec, 7).expect("spec is not a no-op");
/// let frame = Batch::from_items(vec![StreamItem::new(StratumId::new(0), 1.0)]);
/// let mut delivered = 0;
/// for _ in 0..1000 {
///     injector.transmit(std::slice::from_ref(&frame), &mut |_, _| {
///         delivered += 1;
///         true
///     });
/// }
/// let stats = injector.stats();
/// assert_eq!(delivered + stats.dropped_frames, 1000);
/// assert!(stats.dropped_frames > 350 && stats.dropped_frames < 650);
/// ```
#[derive(Debug)]
pub struct FaultInjector {
    stream: Impairment,
    stats: FaultStats,
    /// Scratch for the per-burst `(frame index, duplicated)` plan.
    plan: Vec<(usize, bool)>,
}

impl FaultInjector {
    /// Builds the injector for one sender, or `None` when the spec is a
    /// no-op — a hop without an injector sends its frames untouched.
    pub fn new(spec: ImpairmentSpec, seed: u64) -> Option<Self> {
        if spec.is_noop() {
            return None;
        }
        Some(FaultInjector {
            stream: spec.stream(seed),
            stats: FaultStats::default(),
            plan: Vec::new(),
        })
    }

    /// Transmits one burst of frames, invoking `deliver(frame, extra_delay)`
    /// for each delivered copy in final order. A `false` from `deliver`
    /// (transport closed) aborts the burst and is returned.
    ///
    /// Decision order per frame: drop → duplicate → reorder, then one
    /// jitter draw per delivered copy at delivery time. Reorder swaps a
    /// frame with its surviving successor within the burst (adjacent,
    /// non-cascading), so single-frame bursts never reorder.
    ///
    /// Generic over the frame layout ([`FaultFrame`]): the decision
    /// stream consumes randomness identically for [`Batch`] and
    /// [`ColumnarBatch`] bursts, so an engine switching a hop to columnar
    /// frames keeps the exact same fate sequence.
    pub fn transmit<F: FaultFrame>(
        &mut self,
        burst: &[F],
        deliver: &mut dyn FnMut(&F, Duration) -> bool,
    ) -> bool {
        self.plan.clear();
        // True while the previous plan entry was already displaced by a
        // swap: pairs swap at most once, bounding displacement to one.
        let mut prev_swapped = false;
        for (idx, frame) in burst.iter().enumerate() {
            if self.stream.drops() {
                self.stats.dropped_frames += 1;
                self.stats.dropped_items += frame.item_count() as u64;
                continue;
            }
            let duplicated = self.stream.duplicates();
            if duplicated {
                self.stats.duplicated_frames += 1;
                self.stats.duplicated_items += frame.item_count() as u64;
            }
            // The draw happens for every surviving frame (stream alignment);
            // it only takes effect on a free predecessor.
            let swaps = self.stream.reorders();
            match self.plan.len().checked_sub(1) {
                Some(last) if swaps && !prev_swapped => {
                    self.plan.push(self.plan[last]);
                    self.plan[last] = (idx, duplicated);
                    prev_swapped = true;
                }
                _ => {
                    self.plan.push((idx, duplicated));
                    prev_swapped = false;
                }
            }
        }
        // Deliver in final order; scratch is detached so the closure can't
        // alias it.
        let plan = std::mem::take(&mut self.plan);
        let mut ok = true;
        for &(idx, duplicated) in &plan {
            let frame = &burst[idx];
            let copies = if duplicated { 2 } else { 1 };
            for _ in 0..copies {
                let extra = self.stream.extra_delay();
                if !deliver(frame, extra) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                break;
            }
        }
        self.plan = plan;
        ok
    }

    /// Drop/duplicate counters accumulated so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxiot_core::{StratumId, StreamItem};

    fn frame(tag: u64, n: usize) -> Batch {
        Batch::from_items(
            (0..n)
                .map(|k| StreamItem::with_meta(StratumId::new(0), tag as f64, k as u64, 0))
                .collect(),
        )
    }

    fn collect_tags(injector: &mut FaultInjector, burst: &[Batch]) -> Vec<u64> {
        let mut tags = Vec::new();
        injector.transmit(burst, &mut |b, _| {
            tags.push(b.items[0].value as u64);
            true
        });
        tags
    }

    #[test]
    fn noop_spec_builds_no_injector() {
        assert!(FaultInjector::new(ImpairmentSpec::none(), 1).is_none());
        assert!(FaultInjector::new(ImpairmentSpec::none().loss(0.1), 1).is_some());
    }

    #[test]
    fn loss_counts_frames_and_items() {
        let mut inj = FaultInjector::new(ImpairmentSpec::none().loss(0.5), 3).expect("active");
        let mut delivered = 0u64;
        for t in 0..200 {
            inj.transmit(&[frame(t, 7)], &mut |_, _| {
                delivered += 1;
                true
            });
        }
        let stats = inj.stats();
        assert_eq!(stats.dropped_frames + delivered, 200);
        assert_eq!(stats.dropped_items, stats.dropped_frames * 7);
        assert!(stats.dropped_frames > 60 && stats.dropped_frames < 140);
    }

    #[test]
    fn duplication_delivers_back_to_back_copies() {
        let mut inj =
            FaultInjector::new(ImpairmentSpec::none().duplicate(0.999_999), 4).expect("active");
        let tags = collect_tags(&mut inj, &[frame(1, 2), frame(2, 2)]);
        assert_eq!(tags, vec![1, 1, 2, 2]);
        assert_eq!(inj.stats().duplicated_frames, 2);
        assert_eq!(inj.stats().duplicated_items, 4);
    }

    #[test]
    fn reorder_swaps_adjacent_frames_within_a_burst() {
        let mut inj =
            FaultInjector::new(ImpairmentSpec::none().reorder(0.999_999), 5).expect("active");
        // Every frame past the first swaps with its predecessor; with the
        // non-cascading single pass [1,2,3,4] becomes [2,1,4,3].
        let tags = collect_tags(
            &mut inj,
            &[frame(1, 1), frame(2, 1), frame(3, 1), frame(4, 1)],
        );
        assert_eq!(tags, vec![2, 1, 4, 3]);
        // A single-frame burst cannot reorder.
        let tags = collect_tags(&mut inj, &[frame(9, 1)]);
        assert_eq!(tags, vec![9]);
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let spec = ImpairmentSpec::none().loss(0.3).duplicate(0.2).reorder(0.2);
        let mut a = FaultInjector::new(spec, 11).expect("active");
        let mut b = FaultInjector::new(spec, 11).expect("active");
        for t in 0..50 {
            let burst = [frame(t, 1), frame(t + 1000, 1), frame(t + 2000, 1)];
            assert_eq!(collect_tags(&mut a, &burst), collect_tags(&mut b, &burst));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn closed_transport_aborts_the_burst() {
        let mut inj = FaultInjector::new(ImpairmentSpec::none().loss(0.001), 6).expect("active");
        let mut calls = 0;
        let ok = inj.transmit(&[frame(1, 1), frame(2, 1)], &mut |_, _| {
            calls += 1;
            false
        });
        assert!(!ok);
        assert_eq!(calls, 1, "no deliveries after the transport closed");
    }

    #[test]
    fn hop_faults_aggregate_and_report() {
        let mut faults = HopFaults::new(3);
        assert!(faults.is_clean());
        faults.record(
            1,
            &FaultStats {
                dropped_frames: 2,
                dropped_items: 20,
                duplicated_frames: 1,
                duplicated_items: 5,
            },
        );
        faults.record(
            1,
            &FaultStats {
                dropped_frames: 1,
                dropped_items: 7,
                ..FaultStats::default()
            },
        );
        assert!(!faults.is_clean());
        assert_eq!(faults.hops()[1].dropped_frames, 3);
        assert_eq!(faults.dropped_items(), 27);
        assert_eq!(faults.duplicated_items(), 5);
        assert!(faults.hops()[0].is_clean() && faults.hops()[2].is_clean());
    }
}
