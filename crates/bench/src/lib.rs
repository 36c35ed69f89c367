//! # approxiot-bench
//!
//! Shared harness code for the figure-reproduction benches. Each bench
//! target (`benches/fig*.rs`) regenerates one figure of the ApproxIoT
//! evaluation as a printed table; see `EXPERIMENTS.md` at the repository
//! root for the paper-vs-measured record.
//!
//! The accuracy figures run on [`approxiot_runtime::SimEngine`] (virtual
//! time, seeded); the throughput/latency figures run on the threaded
//! [`approxiot_runtime::PipelineEngine`] behind [`approxiot_runtime::Driver`].
//!
//! The crate also ships the `harness` **binary** — the scenario-matrix
//! benchmark harness with baseline regression gates (see [`harness`] and
//! `BENCH_harness.json` at the repository root).

#![forbid(unsafe_code)]

pub mod harness;
pub mod json;

use approxiot_core::{accuracy_loss, Batch, StratumId};
use approxiot_runtime::{LayerSpec, QuerySet, SimEngine, Strategy, Topology};
use approxiot_workload::StreamMix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Duration;

/// Splits a mixed interval batch into one batch per stratum, modelling one
/// source node per sub-stream (the paper's sources feed the first layer
/// independently). Groups through [`Batch::split_by_stratum`]
/// (`StrataIndex`-backed, no per-item `BTreeMap` inserts).
pub fn split_by_stratum(batch: &Batch) -> Vec<Batch> {
    batch.split_by_stratum()
}

/// Measures the mean per-window accuracy loss of a strategy on an
/// arbitrary interval-batch generator (one [`Batch`] per call).
///
/// Drives `intervals` intervals through the paper's four-layer tree at the
/// given end-to-end `fraction`, compares each window's SUM estimate against
/// the exact per-window sum, and returns the mean relative loss.
pub fn accuracy_run_trace<G>(
    mut next_interval: G,
    window: Duration,
    strategy: Strategy,
    fraction: f64,
    intervals: usize,
    seed: u64,
) -> f64
where
    G: FnMut(&mut StdRng) -> Batch,
{
    // The sim engine routes any per-interval source count; the declared
    // eight are the testbed's.
    let topology = Topology::builder()
        .sources(8)
        .layer(LayerSpec::new(4))
        .layer(LayerSpec::new(2))
        .strategy(strategy)
        .overall_fraction(fraction)
        .window(window)
        .seed(seed)
        .build()
        .expect("fraction validated by caller");
    let mut tree = SimEngine::new(topology, QuerySet::default()).expect("valid topology");
    // analysis: allow(D3, reason = "bench-only synthetic workload stream; not part of an engine run")
    #[allow(clippy::disallowed_methods)]
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut truths: BTreeMap<u64, f64> = BTreeMap::new();
    let window_nanos = window.as_nanos() as u64;
    for _ in 0..intervals {
        let batch = next_interval(&mut rng);
        let window_id = batch
            .items
            .first()
            .map_or(0, |i| i.source_ts / window_nanos);
        *truths.entry(window_id).or_default() += batch.value_sum();
        tree.push_interval(&split_by_stratum(&batch));
    }
    let mut results = tree.advance_watermark(u64::MAX);
    results.extend(tree.flush());
    let mut losses = Vec::new();
    for r in results {
        if let Some(&truth) = truths.get(&r.window) {
            losses.push(accuracy_loss(r.estimate.value, truth));
        }
    }
    assert!(!losses.is_empty(), "no windows produced");
    losses.iter().sum::<f64>() / losses.len() as f64
}

/// [`accuracy_run_trace`] specialised to a [`StreamMix`] workload.
pub fn accuracy_run(
    mix: &mut StreamMix,
    strategy: Strategy,
    fraction: f64,
    intervals: usize,
    seed: u64,
) -> f64 {
    let window = mix.interval();
    accuracy_run_trace(
        |rng| mix.next_interval(rng),
        window,
        strategy,
        fraction,
        intervals,
        seed,
    )
}

/// Averages [`accuracy_run`] over several seeds (fresh workload per seed).
pub fn mean_accuracy<F>(
    mut mix_builder: F,
    strategy: Strategy,
    fraction: f64,
    intervals: usize,
    seeds: &[u64],
) -> f64
where
    F: FnMut() -> StreamMix,
{
    let total: f64 = seeds
        .iter()
        .map(|&s| accuracy_run(&mut mix_builder(), strategy, fraction, intervals, s))
        .sum();
    total / seeds.len() as f64
}

/// The sampling fractions swept by the paper's accuracy figures (percent).
pub const PAPER_FRACTIONS_PCT: [u32; 6] = [10, 20, 40, 60, 80, 90];

/// The sampling fractions swept by the throughput/latency figures
/// (percent; these sweeps include 100%).
pub const PAPER_FRACTIONS_WITH_FULL_PCT: [u32; 6] = [10, 20, 40, 60, 80, 100];

/// Formats an accuracy loss as the percentage the paper plots.
pub fn pct(loss: f64) -> f64 {
    loss * 100.0
}

/// Prints the standard figure header.
pub fn figure_header(figure: &str, caption: &str) {
    println!();
    println!("=== {figure}: {caption} ===");
}

/// A tiny fixed-width row printer for figure tables.
pub fn print_row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Convenience: stratum label `S<i>`.
pub fn stratum_label(id: StratumId) -> String {
    format!("{id}")
}

/// Builds the paper's default 1-second interval for accuracy workloads
/// scaled down so virtual-time runs stay fast: rates in the tens of
/// thousands of items/s are represented by proportionally smaller batches
/// over a shorter interval, preserving every ratio the figures depend on.
pub fn accuracy_interval() -> Duration {
    Duration::from_millis(100)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxiot_core::StreamItem;
    use approxiot_workload::{SubStreamSpec, ValueDist};

    fn tiny_mix() -> StreamMix {
        StreamMix::new(
            vec![
                SubStreamSpec::new(StratumId::new(0), 1_000.0, ValueDist::Constant(1.0)),
                SubStreamSpec::new(StratumId::new(1), 100.0, ValueDist::Constant(100.0)),
            ],
            Duration::from_millis(100),
        )
    }

    /// A mix whose values vary within each stratum, so sampling introduces
    /// real estimation error (constant values are estimated exactly thanks
    /// to the count-reconstruction invariant).
    fn noisy_mix() -> StreamMix {
        StreamMix::new(
            vec![
                SubStreamSpec::new(
                    StratumId::new(0),
                    1_000.0,
                    ValueDist::Gaussian {
                        mu: 10.0,
                        sigma: 5.0,
                    },
                ),
                SubStreamSpec::new(
                    StratumId::new(1),
                    100.0,
                    ValueDist::Gaussian {
                        mu: 1_000.0,
                        sigma: 300.0,
                    },
                ),
            ],
            Duration::from_millis(100),
        )
    }

    #[test]
    fn split_by_stratum_partitions_items() {
        let batch = Batch::from_items(vec![
            StreamItem::new(StratumId::new(0), 1.0),
            StreamItem::new(StratumId::new(1), 2.0),
            StreamItem::new(StratumId::new(0), 3.0),
        ]);
        let parts = split_by_stratum(&batch);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts.iter().map(Batch::len).sum::<usize>(), 3);
    }

    #[test]
    fn native_accuracy_run_is_lossless() {
        let loss = accuracy_run(&mut tiny_mix(), Strategy::Native, 1.0, 5, 1);
        assert!(loss < 1e-12, "native loss {loss}");
    }

    #[test]
    fn full_fraction_whs_is_lossless() {
        let loss = accuracy_run(&mut tiny_mix(), Strategy::whs(), 1.0, 5, 1);
        assert!(loss < 1e-12, "whs@100% loss {loss}");
    }

    #[test]
    fn sampling_introduces_bounded_loss() {
        let loss = accuracy_run(&mut noisy_mix(), Strategy::whs(), 0.2, 10, 2);
        assert!(loss > 0.0 && loss < 0.2, "loss {loss}");
    }

    #[test]
    fn constant_values_are_estimated_exactly() {
        // The count-reconstruction invariant makes constant-valued strata
        // exact under any fraction — a strong sanity check on the weights.
        let loss = accuracy_run(&mut tiny_mix(), Strategy::whs(), 0.2, 10, 2);
        assert!(loss < 1e-12, "loss {loss}");
    }

    #[test]
    fn mean_accuracy_averages_seeds() {
        let loss = mean_accuracy(tiny_mix, Strategy::whs(), 0.5, 5, &[1, 2, 3]);
        assert!(loss.is_finite());
    }

    #[test]
    fn pct_scales() {
        assert_eq!(pct(0.05), 5.0);
    }
}
