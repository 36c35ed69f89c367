//! # approxiot-runtime
//!
//! The assembled ApproxIoT system behind a topology-first API: describe
//! any logical edge tree once, register any number of window queries, and
//! run it on either execution engine.
//!
//! ## The three core types
//!
//! * [`Topology`] — a builder for an arbitrary-depth, heterogeneous edge
//!   tree: per-layer fan-in, [`Strategy`] overrides, §III-E worker
//!   shards, per-hop link delay/capacity, and a depth-aware
//!   [`FractionSplit`] dividing the end-to-end sampling fraction across
//!   every stage.
//! * [`QuerySet`] — concurrent window queries ([`QuerySpec`]): SUM, MEAN,
//!   COUNT, their per-stratum variants, plus `Quantile(q)` and `TopK(k)`
//!   backed by [`approxiot_core::quantile`]. Each [`WindowResult`] carries
//!   a per-query [`QueryResults`] map.
//! * [`Driver`] — the one front door over the [`Engine`] trait, with two
//!   backends: [`SimEngine`] (deterministic virtual time, the accuracy
//!   engine) and the threaded [`pipeline::PipelineEngine`] (broker topics
//!   plus WAN emulation, the wall-clock engine). The pipeline's
//!   deterministic mode replays the sim engine's canonical processing
//!   order over the real wire path, so fixed-seed runs produce identical
//!   estimates on both engines.
//!
//! ## When the wall-clock root answers
//!
//! Every record of the wall-clock pipeline carries an event-time low
//! watermark in its metadata ([`approxiot_mq::Record::watermark`], no
//! payload bytes): each source frame its send time, each edge node the
//! minimum of what its children last sent. The root answers a window as
//! soon as the minimum over its children has passed the window's end,
//! which no jitter, reordering or duplication can turn into a late item.
//! A child that falls silent stops that minimum; the root then closes on
//! wall time, once `now − 2 × total delay` passes the window's end plus
//! `Topology::builder().allowed_lateness(..)`, and counts what the child
//! sends for the window afterwards in `dropped_late`.
//!
//! ## Fault injection
//!
//! Every hop's [`LinkSpec`] can carry an
//! [`approxiot_net::ImpairmentSpec`] (loss, jitter, duplication, bounded
//! reorder). Both engines honour it through per-sender [`FaultInjector`]
//! streams — seeded by [`Topology::hop_impairment_seed`], so fixed-seed
//! impaired runs stay **bit-identical** across Sim and Pipeline-replay —
//! and the analytics stay loss-aware: the root divides stratum weights by
//! [`Topology::delivery_factor`] (Horvitz–Thompson, keeping SUM/COUNT
//! unbiased under uniform loss), each [`WindowResult`] reports its
//! `completeness` fraction and `dropped_late` count, runs report per-hop
//! [`HopFaults`]. An all-zero spec is a strict no-op. See [`fault`] for the determinism contract and
//! `examples/chaos.rs` for a loss sweep.
//!
//! ## Fleet churn
//!
//! Node-level failures ride the same determinism contract: a
//! [`ChurnSchedule`] attaches per-node events to the virtual timeline —
//! down/up at interval boundaries, mid-window crashes that lose a node's
//! buffered samples, replacement nodes joining a layer (fresh samplers
//! seeded by [`Topology::replacement_seed`]), and degradation modes
//! (low-power with a shrunken sampling fraction, or silent). Both engines
//! honour the schedule identically — fixed-seed churn runs stay
//! bit-identical across Sim and Pipeline-replay — and the analytics stay
//! unbiased: the root generalizes the run-global Horvitz–Thompson rescale
//! to per-window, per-stratum inclusion factors built from per-sender
//! [`Topology::path_delivery_factor`]s, so SUM/COUNT hold up while a
//! subtree is dark and `completeness` reflects outages, not just packet
//! loss. An empty schedule is a strict no-op. See [`churn`] for the event
//! semantics and `examples/churn.rs` for a rolling-reboot sweep.
//!
//! ## Example
//!
//! ```
//! use approxiot_core::{Batch, StratumId, StreamItem};
//! use approxiot_runtime::{Driver, EngineKind, LayerSpec, QuerySet, QuerySpec, Topology};
//!
//! // An asymmetric 4-layer tree: 5 sources → 3 edge → 2 edge → root,
//! // sampling 20% end to end, answering three queries per window.
//! let topology = Topology::builder()
//!     .sources(5)
//!     .layer(LayerSpec::new(3))
//!     .layer(LayerSpec::new(2))
//!     .overall_fraction(0.2)
//!     .seed(7)
//!     .build()?;
//! let queries = QuerySet::new()
//!     .with(QuerySpec::Sum)
//!     .with(QuerySpec::Quantile(0.5))
//!     .with(QuerySpec::TopK(3));
//! let mut driver = Driver::new(topology, queries, EngineKind::Sim)?;
//!
//! let interval: Vec<Batch> = (0..5)
//!     .map(|s| {
//!         Batch::from_items(
//!             (0..1000).map(|k| StreamItem::with_meta(StratumId::new(s), 1.0, k, 0)).collect(),
//!         )
//!     })
//!     .collect();
//! driver.push_interval(&interval)?;
//! let report = driver.finish();
//! // ~20% of 5000 items reconstruct the original count...
//! assert!((report.results[0].count_hat - 5000.0).abs() < 1e-6);
//! // ...and every query in the set got its per-window answer.
//! assert_eq!(report.results[0].queries.len(), 3);
//! # Ok::<(), approxiot_runtime::EngineError>(())
//! ```

#![forbid(unsafe_code)]

pub mod churn;
pub mod engine;
pub mod fault;
pub mod feedback;
pub mod metrics;
pub mod node;
pub mod pipeline;
pub mod query;
pub mod root;
pub mod topology;

pub use churn::{ChurnSchedule, ChurnStats, DegradedMode, NodeDisposition};
pub use engine::{Driver, Engine, EngineError, EngineKind, RunReport, SimEngine};
pub use fault::{FaultFrame, FaultInjector, FaultStats, HopFaults};
pub use feedback::FeedbackLoop;
pub use metrics::{mean_window_error, results_bit_identical, window_estimates, RunSummary};
pub use node::{NodePayload, SamplingNode, Strategy};
pub use pipeline::{LatencyStats, PipelineEngine, PipelineOptions};
pub use query::{Query, QueryResults, QuerySet, QuerySpec, QueryValue};
pub use root::{RootConfig, RootNode, WindowResult};
pub use topology::{FractionSplit, HopBytes, LayerSpec, LinkSpec, Topology, TopologyBuilder};

/// Tests of a node's §III-E shard set as a whole — the `w` per-shard
/// reservoirs, budgets and RNGs a sharded [`SamplingNode`] drives on its
/// own thread. The module keeps the name of the shard executor these tests
/// were first written against, so their names stay stable.
#[cfg(test)]
mod pool {
    mod tests {
        use crate::{SamplingNode, Strategy};
        use approxiot_core::{Batch, ColumnarBatch, StratumId, StreamItem, ThetaStore, WhsOutput};

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

        fn theta(outs: Vec<Batch>) -> ThetaStore {
            outs.into_iter()
                .map(|b| WhsOutput {
                    weights: b.weights,
                    sample: b.items,
                })
                .collect()
        }

        #[test]
        #[should_panic(expected = "workers must be positive")]
        fn rejects_zero_workers() {
            // Checked before the strategy is looked at: a per-item strategy,
            // which ignores the worker count, still rejects zero.
            let _ = SamplingNode::with_workers(Strategy::Srs, 0.5, 0, 0);
        }

        #[test]
        fn columnar_pool_bit_identical_to_aos_pool() {
            // A multi-batch stream with a carried weight, for several shard
            // counts: the columnar shard path must reproduce the AoS shard
            // path shard for shard, round after round.
            for workers in [2usize, 4, 8] {
                let mut aos =
                    SamplingNode::with_workers(Strategy::whs(), 0.1, 42, workers).expect("valid");
                let mut soa =
                    SamplingNode::with_workers(Strategy::whs(), 0.1, 42, workers).expect("valid");
                for round in 0..3usize {
                    let mut batch = batch_of(&[(0, 5_000 + round), (1, 777), (2, 13)]);
                    if round == 0 {
                        batch.weights.set(s(1), 2.5);
                    }
                    let cols = ColumnarBatch::from_batch(&batch);
                    let from_aos = aos.process_batch_parallel(&batch);
                    let from_soa = soa.process_columns_parallel(&cols);
                    assert_eq!(from_aos.len(), from_soa.len());
                    for (a, b) in from_aos.into_iter().zip(from_soa) {
                        assert_eq!(
                            b.to_batch(),
                            a,
                            "workers={workers} round={round}: layouts diverged"
                        );
                    }
                }
                assert_eq!(aos.items_out(), soa.items_out());
            }
        }

        #[test]
        fn fixed_seed_reproduces_across_pool_instances() {
            let batch = batch_of(&[(0, 10_000), (3, 450)]);
            let run = |seed: u64| {
                let mut node =
                    SamplingNode::with_workers(Strategy::whs(), 0.1, seed, 4).expect("valid");
                node.process_batch_parallel(&batch)
            };
            assert_eq!(run(7), run(7), "fixed seed reproduces");
            assert_ne!(run(7), run(8), "different seed diverges");
        }

        #[test]
        fn budgets_sum_exactly_and_counts_reconstruct() {
            // 21 000 items at 1/8 is a 2 625-slot budget, which 8 shards
            // cannot split evenly: the remainder slots must not be lost,
            // and each stratum's count must come back exactly.
            let batch = batch_of(&[(0, 20_000), (1, 1_000)]);
            let mut node =
                SamplingNode::with_workers(Strategy::whs(), 0.125, 42, 8).expect("valid");
            let outs = node.process_batch_parallel(&batch);
            assert_eq!(outs.len(), 8);
            let total: usize = outs.iter().map(Batch::len).sum();
            assert_eq!(total, 2_625);
            assert_eq!(node.items_out(), 2_625);
            let est = theta(outs).stratum_estimates();
            for (stratum, expected) in [(s(0), 20_000.0), (s(1), 1_000.0)] {
                let got = est[&stratum].count_hat;
                assert!(
                    (got - expected).abs() < 1e-6,
                    "{stratum}: reconstructed {got}, expected {expected}"
                );
            }
        }

        #[test]
        fn carried_weights_reach_every_shard_and_reset_clears() {
            let mut node = SamplingNode::with_workers(Strategy::whs(), 0.5, 3, 2).expect("valid");
            let mut first = batch_of(&[(0, 8)]);
            first.weights.set(s(0), 3.0);
            node.process_batch_parallel(&first);
            // Weightless follow-up: 4 local items into 2 slots per shard,
            // times the carried 3.0, in every shard.
            let outs = node.process_batch_parallel(&batch_of(&[(0, 8)]));
            assert_eq!(outs.len(), 2);
            for out in &outs {
                assert_eq!(out.weights.get(s(0)), 6.0, "carried 3.0 reaches each shard");
            }
            let count = theta(outs).count_estimate();
            assert!((count - 24.0).abs() < 1e-9, "3.0 * 8 items: {count}");
            node.reset();
            let count = theta(node.process_batch_parallel(&batch_of(&[(0, 8)]))).count_estimate();
            assert!(
                (count - 8.0).abs() < 1e-9,
                "reset clears the carry: {count}"
            );
        }

        #[test]
        fn inline_single_worker_spawns_no_threads() {
            // Shards always sample on the calling thread; with one worker
            // there is no shard set at all, and the sharded entry points
            // are the plain node, sample for sample.
            let batch = batch_of(&[(0, 100), (1, 30)]);
            let mut sharded =
                SamplingNode::with_workers(Strategy::whs(), 0.1, 1, 1).expect("valid");
            let mut plain = SamplingNode::new(Strategy::whs(), 0.1, 1).expect("valid");
            assert_eq!(sharded.workers(), 1);
            let outs = sharded.process_batch_parallel(&batch);
            assert_eq!(outs, vec![plain.process_batch(&batch)]);
            assert_eq!(outs[0].len(), 13);
            let cols = ColumnarBatch::from_batch(&batch);
            let outs = sharded.process_columns_parallel(&cols);
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0].to_batch(), plain.process_batch(&batch));
        }
    }
}
