//! Figure 8: end-to-end latency vs sampling fraction (1-second window in
//! the paper, scaled ×0.1 here so a full sweep runs in seconds).
//!
//! Paper shape to reproduce: latency grows with the fraction as the
//! capacity-limited links queue up; the native execution is the worst
//! (≈6× ApproxIoT's latency at a 10% fraction); ApproxIoT ≈ SRS, as every
//! edge node forwards on arrival and only the root closes windows.

use approxiot_bench::{figure_header, print_row, PAPER_FRACTIONS_WITH_FULL_PCT};
use approxiot_core::{Batch, StratumId, StreamItem};
use approxiot_runtime::{
    Driver, EngineKind, FractionSplit, LatencyStats, LayerSpec, LinkSpec, PipelineOptions,
    QuerySet, Strategy, Topology,
};
use std::time::Duration;

fn source_data(intervals: usize, sources: usize, n: usize) -> Vec<Vec<Batch>> {
    (0..intervals)
        .map(|_| {
            (0..sources)
                .map(|s| {
                    Batch::from_items(
                        (0..n)
                            .map(|k| {
                                StreamItem::with_meta(StratumId::new(s as u32), 1.0, k as u64, 0)
                            })
                            .collect(),
                    )
                })
                .collect()
        })
        .collect()
}

/// End-to-end item latency through the paper's tree.
fn latency(strategy: Strategy, fraction: f64, data: &[Vec<Batch>]) -> LatencyStats {
    // Oversubscribed WAN: the offered load exceeds the link capacity at
    // high fractions, so queues build exactly as in the paper's saturated
    // testbed.
    let wan = 900_000;
    // The paper's 10/20/40 ms one-way delays, unscaled.
    let topology = Topology::builder()
        .sources(8)
        .layer(LayerSpec::new(4).delay(Duration::from_millis(10)))
        .layer(
            LayerSpec::new(2)
                .delay(Duration::from_millis(20))
                .capacity(wan),
        )
        .root_link(LinkSpec {
            delay: Duration::from_millis(40),
            capacity_bytes_per_sec: Some(wan),
            ..LinkSpec::default()
        })
        .strategy(strategy)
        .overall_fraction(fraction)
        .split(FractionSplit::LeafHeavy)
        // The paper's 1 s window scaled ×0.1.
        .window(Duration::from_millis(100))
        .seed(8)
        .build()
        .expect("valid fraction");
    let engine = EngineKind::Pipeline(PipelineOptions {
        deterministic: false,
        source_interval: Some(Duration::from_millis(25)),
    });
    Driver::new(topology, QuerySet::default(), engine)
        .expect("valid topology")
        .run(data)
        .expect("engine open")
        .latency
}

fn main() {
    figure_header(
        "Figure 8",
        "latency vs sampling fraction (window = 0.1 s scaled)",
    );
    let data = source_data(80, 8, 400);
    print_row(&[
        "fraction %".into(),
        "ApproxIoT ms".into(),
        "SRS ms".into(),
        "Native ms".into(),
    ]);
    let native = latency(Strategy::Native, 1.0, &data);
    for f_pct in PAPER_FRACTIONS_WITH_FULL_PCT {
        let fraction = f_pct as f64 / 100.0;
        let whs = latency(Strategy::whs(), fraction, &data);
        let srs = latency(Strategy::Srs, fraction, &data);
        print_row(&[
            format!("{f_pct}"),
            format!("{:.1}", whs.p50.as_secs_f64() * 1000.0),
            format!("{:.1}", srs.p50.as_secs_f64() * 1000.0),
            format!("{:.1}", native.p50.as_secs_f64() * 1000.0),
        ]);
    }
    println!("\nExpected shape: latency grows with fraction; native is the worst;");
    println!("ApproxIoT ≈ SRS (edge nodes forward on arrival).");
}
