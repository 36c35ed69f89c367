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
//! [`HopFaults`], and `Topology::builder().allowed_lateness(..)` keeps
//! windows open for jitter-delayed stragglers. An all-zero spec is a
//! strict no-op. See [`fault`] for the determinism contract and
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

#![deny(unsafe_op_in_unsafe_fn)]

pub mod churn;
pub mod engine;
pub mod fault;
pub mod feedback;
pub mod metrics;
pub mod node;
pub mod pipeline;
pub mod pool;
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
pub use pool::WorkerPool;
pub use query::{Query, QueryResults, QuerySet, QuerySpec, QueryValue};
pub use root::{RootConfig, RootNode, WindowResult};
pub use topology::{FractionSplit, HopBytes, LayerSpec, LinkSpec, Topology, TopologyBuilder};
