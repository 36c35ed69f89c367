//! # approxiot-core
//!
//! Core algorithms of **ApproxIoT** (Wen et al., ICDCS 2018): *weighted
//! hierarchical sampling* for approximate stream analytics at the edge.
//!
//! The idea: arrange edge computing nodes in a logical tree. Every node
//! independently stratifies its input by source, reservoir-samples each
//! stratum within a per-interval budget, and multiplies a per-stratum
//! *weight* by `c/N` whenever a stratum overflowed its reservoir. The root
//! reconstructs unbiased SUM/MEAN estimates — with rigorous error bounds —
//! from the weighted samples, with **no cross-node coordination**.
//!
//! This crate is pure algorithms: samplers, weight bookkeeping, estimators,
//! error bounds and budget policies. The companion crates provide the
//! messaging substrate (`approxiot-mq`), WAN emulation (`approxiot-net`),
//! event-time windows (`approxiot-streams`), the assembled runtime
//! (`approxiot-runtime`) and workload generators (`approxiot-workload`).
//!
//! ## The sampling hot path
//!
//! Every item in the system crosses `WHSamp` at every tree level, so the
//! per-item cost of one sampler invocation bounds whole-system throughput.
//! Two implementations coexist:
//!
//! * [`whs_sample`] — the readable reference (and benchmark baseline):
//!   per batch it builds a `BTreeMap<StratumId, Vec<StreamItem>>`, two
//!   more maps for reservoir sizing, and runs Vitter's Algorithm R with
//!   one RNG draw per item.
//! * [`WhsSampler`] / [`WhsScratch`] — the production hot path. A
//!   reusable [`StrataIndex`] groups each batch into contiguous
//!   per-stratum ranges (zero allocations in steady state; zero item
//!   copies when the batch already arrives grouped by stratum, the common
//!   per-source case). Its one counting pass, shared by the item and
//!   column builds, looks a stratum up only where it changes from the
//!   previous item and counts per run, so a grouped batch costs a compare
//!   per item and a round-robin one a table probe per item. Sizing runs
//!   on slices ([`Allocation::reservoir_sizes_slice`]), and overflowing
//!   strata draw their reservoir with Floyd's selection sampling —
//!   exactly `N_i` cheap uniform draws per stratum, no transcendentals,
//!   with the chosen set in one register word for strata of at most 64
//!   items. The statistics
//!   (uniform without-replacement samples, Equations 1–2 weights, the
//!   Equation 9 invariant) are identical to the reference; property tests
//!   in `tests/proptests.rs` pin the two paths to the same per-stratum
//!   kept counts.
//!
//! The paper's §III-E sharding is [`ShardedSampler`]: contiguous slice
//! partitioning over `w` worker shards, one reusable [`WhsScratch`] and
//! one deterministic `StdRng` (seed ⊕ shard index) per shard. Each shard
//! emits its own `(W_out, sample)` pair, which the root's Θ handling
//! already accepts. The shards run one after another on the caller's
//! thread: the section fixes what each shard counts and emits, not which
//! thread runs it, and on the measured 2-CPU host the edge-node threads
//! already use every core.
//!
//! ## Data layout: `Batch` vs `ColumnarBatch`
//!
//! Two physical representations of the same logical `(W, items)` pair
//! coexist:
//!
//! * [`Batch`] — array-of-structs (`Vec<StreamItem>`, 28 bytes/item).
//!   The API-boundary type: workload generators, examples and the sim
//!   engine speak it, and it is what `whs_sample` documents against the
//!   paper's pseudocode.
//! * [`ColumnarBatch`] — struct-of-arrays: four contiguous columns
//!   (`strata: Vec<u32>`, `values: Vec<f64>`, `seqs`/`source_ts:
//!   Vec<u64>`) plus the [`WeightMap`]. The hot-path type: stratum
//!   grouping scans a flat `&[u32]`
//!   ([`StrataIndex::build_columns`]), value sums reduce over a flat
//!   `&[f64]` the compiler auto-vectorizes, Floyd/SRS selection gathers
//!   survivors **by index** into column outputs
//!   ([`WhsScratch::sample_columns_into`],
//!   [`ShardedSampler::sample_columns_with_weights`] with plain
//!   `(start, end)` shard ranges via [`shard_bounds`]), and the wire
//!   codec's columnar v2 frame encodes/decodes each column as one bulk
//!   copy.
//!
//! Conversion each way is one transposing pass
//! ([`ColumnarBatch::from_batch`] / [`ColumnarBatch::to_batch`]), and a
//! fixed seed produces **bit-identical** samples and weights through
//! either representation — the columnar kernels replicate the AoS RNG
//! consumption exactly (pinned by parity tests and the engine-equivalence
//! suite).
//!
//! `micro_samplers` and `columnar_kernels` in `approxiot-bench` track
//! both paths and both layouts; baseline numbers live in
//! `BENCH_micro.json` at the repository root.
//!
//! ## Quickstart
//!
//! ```
//! use approxiot_core::{
//!     whs_sample, Allocation, Batch, Confidence, StratumId, StreamItem, ThetaStore, WeightMap,
//! };
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//!
//! // A batch mixing two sub-streams of very different rates.
//! let mut items = Vec::new();
//! for i in 0..900 {
//!     items.push(StreamItem::new(StratumId::new(0), 1.0 + (i % 7) as f64));
//! }
//! for _ in 0..100 {
//!     items.push(StreamItem::new(StratumId::new(1), 1000.0));
//! }
//! let batch = Batch::from_items(items);
//! let truth = batch.value_sum();
//!
//! // Sample 20% of it with weighted hierarchical sampling...
//! let out = whs_sample(&batch, 200, &WeightMap::new(), Allocation::Uniform, &mut rng);
//!
//! // ...and recover an estimate with an error bound at the root.
//! let theta: ThetaStore = [out].into_iter().collect();
//! let est = theta.sum_estimate();
//! assert!(est.covers(truth, Confidence::P997));
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod budget;
pub mod columns;
pub mod error;
pub mod estimate;
pub mod item;
pub mod quantile;
pub mod sampling;
pub mod summary;
pub mod weight;

pub use batch::{distinct_strata_into, Batch, StrataIndex};
pub use budget::{AdaptiveController, BudgetError, CostFunction, FixedSize, SamplingBudget};
pub use columns::{ColumnarBatch, ColumnsView};
pub use error::{accuracy_loss, Confidence, Estimate};
pub use estimate::{StratumEstimate, ThetaRow, ThetaStore};
pub use item::{Measure, StratumId, StreamItem};
pub use sampling::allocation::{Allocation, SizingScratch};
pub use sampling::reservoir::Reservoir;
pub use sampling::sharded::{shard_bounds, shard_budget, shard_slice, ShardedSampler};
pub use sampling::srs::{InvalidFractionError, SrsSampler};
pub use sampling::whs::{whs_sample, WhsOutput, WhsSampler, WhsScratch};
pub use summary::{
    stratum_sketch_seed, HeavyEntry, KllSketch, Moments, SketchConfig, SpaceSaving,
    StratumSummaries, StratumSummary,
};
pub use weight::{WeightMap, WeightStore};
