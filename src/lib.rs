//! # ApproxIoT
//!
//! A from-scratch Rust reproduction of **"ApproxIoT: Approximate Analytics
//! for Edge Computing"** (Wen, Quoc, Bhatotia, Chen & Lee — ICDCS 2018):
//! approximate stream analytics over a logical tree of edge computing
//! nodes, built on *weighted hierarchical sampling* — stratified reservoir
//! sampling whose per-stratum weights multiply hop by hop with **no
//! cross-node coordination**, yielding unbiased estimates with rigorous
//! "68–95–99.7" error bounds at a fraction of the bandwidth and latency of
//! exact execution.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`core`] | the paper's algorithms: reservoirs, WHS, estimators, error bounds, quantiles, budgets |
//! | [`mq`] | in-process partitioned pub/sub broker (Kafka substitute) |
//! | [`net`] | WAN emulation: capacity token buckets, seeded link impairments, clocks, bandwidth saving |
//! | [`streams`] | event-time tumbling windows and per-window buffering |
//! | [`workload`] | the paper's synthetic mixes + trace-shaped NYC-taxi / Brasov-pollution generators |
//! | [`runtime`] | the assembled system: `Topology` → `QuerySet` → `Driver` over two engines |
//!
//! ## Quickstart
//!
//! Describe the tree once ([`runtime::Topology`]), register the window
//! queries ([`runtime::QuerySet`]), pick an engine
//! ([`runtime::EngineKind`]), and run — the same description executes on
//! the deterministic virtual-time engine *and* the threaded WAN-emulating
//! pipeline:
//!
//! ```
//! use approxiot::prelude::*;
//!
//! // An asymmetric 4-layer tree: 5 sources → 3 edge → 2 edge → root,
//! // keeping 20% of the stream end to end.
//! let topology = Topology::builder()
//!     .sources(5)
//!     .layer(LayerSpec::new(3))
//!     .layer(LayerSpec::new(2))
//!     .overall_fraction(0.20)
//!     .seed(42)
//!     .build()?;
//!
//! // Three concurrent window queries.
//! let queries = QuerySet::new()
//!     .with(QuerySpec::Sum)
//!     .with(QuerySpec::Quantile(0.5))
//!     .with(QuerySpec::TopK(3));
//!
//! // One interval of data from the 5 sources.
//! let interval: Vec<Batch> = (0..5)
//!     .map(|s| {
//!         Batch::from_items(
//!             (0..500).map(|k| StreamItem::with_meta(StratumId::new(s), 2.5, k, 0)).collect(),
//!         )
//!     })
//!     .collect();
//! let truth: f64 = interval.iter().map(Batch::value_sum).sum();
//!
//! let mut driver = Driver::new(topology, queries, EngineKind::Sim)?;
//! driver.push_interval(&interval)?;
//! let report = driver.finish();
//! let result = &report.results[0];
//!
//! // ~20% of the items reconstruct the exact total (constant values make
//! // the weighted estimate exact up to float round-off)...
//! assert!(accuracy_loss(result.estimate.value, truth) < 1e-9);
//! // ...the median lands on the constant value...
//! let median = result.queries.quantile(0.5).expect("non-empty window");
//! assert_eq!(median.value, 2.5);
//! // ...and per-hop byte accounting shows the WAN savings.
//! assert!(report.bytes.sampled_wire_bytes() < report.bytes.source_bytes());
//! # Ok::<(), approxiot::runtime::EngineError>(())
//! ```
//!
//! The paper's own testbed shape (8 sources → 4 → 2 → root) is
//! [`runtime::Topology::paper`].

#![forbid(unsafe_code)]

pub use approxiot_core as core;
pub use approxiot_mq as mq;
pub use approxiot_net as net;
pub use approxiot_runtime as runtime;
pub use approxiot_streams as streams;
pub use approxiot_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use approxiot_core::quantile::{
        quantile_with_bounds, top_k_strata, weighted_quantile, QuantileEstimate,
    };
    pub use approxiot_core::{
        accuracy_loss, whs_sample, AdaptiveController, Allocation, Batch, Confidence, Estimate,
        Reservoir, SamplingBudget, ShardedSampler, SrsSampler, StrataIndex, StratumId, StreamItem,
        ThetaStore, WeightMap, WhsOutput, WhsSampler, WhsScratch,
    };
    pub use approxiot_mq::{BatchProducer, Broker, Consumer, StartOffset};
    pub use approxiot_net::{
        bandwidth_saving, Clock, Impairment, ImpairmentSpec, SimClock, WallClock,
    };
    pub use approxiot_runtime::{
        mean_window_error, results_bit_identical, window_estimates, ChurnSchedule, ChurnStats,
        DegradedMode, Driver, Engine, EngineError, EngineKind, FaultInjector, FaultStats,
        FeedbackLoop, FractionSplit, HopBytes, HopFaults, LatencyStats, LayerSpec, LinkSpec,
        NodeDisposition, PipelineEngine, PipelineOptions, Query, QueryResults, QuerySet, QuerySpec,
        QueryValue, RootConfig, RootNode, RunReport, RunSummary, SamplingNode, SimEngine, Strategy,
        Topology, WindowResult,
    };
    pub use approxiot_streams::{TumblingWindow, WindowBuffer};
    pub use approxiot_workload::{
        scenarios, PollutionTrace, RateSetting, StreamMix, SubStreamSpec, TaxiTrace, ValueDist,
    };
}
