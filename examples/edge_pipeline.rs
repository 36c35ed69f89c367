//! The full threaded edge pipeline, live, through the unified driver:
//! the driver publishes intervals into broker topics, edge nodes sample
//! each frame on arrival, WAN delays and link caps apply, and the root
//! answers a multi-query window set with error bounds.
//!
//! This exercises every substrate at once: `approxiot-mq` topics,
//! `approxiot-net` delay/capacity emulation, the `approxiot-streams`
//! windowing and the `approxiot-runtime` engine — all behind the same
//! `Topology` + `QuerySet` description the virtual-time engine runs.
//!
//! It exits non-zero unless every window dropped no late item and the
//! windows' reconstructed counts add up to the items pushed: the root
//! closes a window once every child's in-band watermark has passed its
//! end, and that rule must never cut an item off.
//!
//! Run with: `cargo run --release --example edge_pipeline`

use approxiot::prelude::*;
use approxiot::workload::scenarios;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> Result<ExitCode, EngineError> {
    let window = Duration::from_millis(100);
    let intervals = 20;

    // The paper's Gaussian microbenchmark mix: four sub-streams A-D with
    // means 10 / 1k / 10k / 100k.
    let mut rng = StdRng::seed_from_u64(7);
    let mut mix = scenarios::gaussian_mix(20_000.0, window);
    let mut truth_per_interval = Vec::new();
    let source_intervals: Vec<Vec<Batch>> = (0..intervals)
        .map(|_| {
            let batch = mix.next_interval(&mut rng);
            truth_per_interval.push(batch.value_sum());
            // One source per sub-stream.
            let mut parts = batch.split_by_stratum();
            parts.resize_with(4, Batch::new);
            parts
        })
        .collect();

    // The paper's testbed as a Topology: 4 sources → 4 edge → 2 edge →
    // root with its 10/20/40 ms one-way WAN delays and a 4 MB/s uplink
    // cap on the sampled hops, keeping 20% end to end.
    let topology = Topology::builder()
        .sources(4)
        .layer(LayerSpec::new(4).delay(Duration::from_millis(10)))
        .layer(
            LayerSpec::new(2)
                .delay(Duration::from_millis(20))
                .capacity(4_000_000),
        )
        .root_link(LinkSpec {
            delay: Duration::from_millis(40),
            capacity_bytes_per_sec: Some(4_000_000),
            ..LinkSpec::default()
        })
        .strategy(Strategy::whs())
        .overall_fraction(0.20)
        .window(window)
        .seed(99)
        .build()
        .map_err(EngineError::Budget)?;

    let queries = QuerySet::new()
        .with(QuerySpec::Sum)
        .with(QuerySpec::TopK(2));

    println!("running the 4-layer pipeline at a 20% fraction ({intervals} windows)...\n");
    let driver = Driver::new(
        topology,
        queries,
        EngineKind::Pipeline(PipelineOptions {
            deterministic: false,
            source_interval: Some(window),
        }),
    )?;
    let report = driver.run(&source_intervals)?;
    let pushed: usize = source_intervals.iter().flatten().map(Batch::len).sum();

    let total_truth: f64 = truth_per_interval.iter().sum();
    let total_estimate: f64 = report.results.iter().map(|r| r.estimate.value).sum();
    println!("windows emitted   : {}", report.results.len());
    for r in report.results.iter().take(5) {
        let top = r
            .queries
            .top_k(2)
            .and_then(|t| t.first())
            .map(|(s, _)| format!("{s}"))
            .unwrap_or_default();
        println!(
            "  window {:>3}: SUM ≈ {:>14.1} ± {:>10.1}  ({} sampled items, top stratum {top})",
            r.window,
            r.estimate.value,
            r.error_bound(Confidence::P95),
            r.sampled_items
        );
    }
    if report.results.len() > 5 {
        println!("  ... {} more", report.results.len() - 5);
    }
    println!();
    println!("exact total       : {total_truth:.1}");
    println!("approx total      : {total_estimate:.1}");
    println!(
        "accuracy loss     : {:.4}%",
        accuracy_loss(total_estimate, total_truth) * 100.0
    );
    println!(
        "throughput        : {:.0} items/s",
        report.throughput_items_per_sec
    );
    println!(
        "end-to-end latency: p50 {:?}, p95 {:?} (incl. {:?} of WAN delay)",
        report.latency.p50,
        report.latency.p95,
        Duration::from_millis(70),
    );
    println!(
        "WAN bytes per hop : {:?} ({:.1}% saved on the sampled hops vs native)",
        report.bytes.hops(),
        100.0
            * (1.0
                - report.bytes.sampled_wire_bytes() as f64
                    / (2 * report.bytes.source_bytes()) as f64)
    );

    let late: u64 = report.results.iter().map(|r| r.dropped_late).sum();
    let counted: f64 = report.results.iter().map(|r| r.count_hat).sum();
    println!("late items dropped: {late}");
    println!("items counted     : {counted:.0} of {pushed} pushed");
    if late > 0 || (counted - pushed as f64).abs() > 1e-6 * pushed as f64 {
        eprintln!("FAIL: a window lost items ({late} late, {counted} of {pushed} counted)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
