//! Figure 9: latency vs window size at a fixed 10% sampling fraction
//! (paper windows 0.5–4 s, scaled ×0.1 here).
//!
//! The paper's ApproxIoT latency grows with the window size, while SRS's
//! stays flat. Here every edge node forwards each frame on arrival and only
//! the root closes windows, so the edge item latency printed below does not
//! depend on the window for either strategy; the window's cost is the
//! root's result lag, which this table does not report yet.

use approxiot_bench::{figure_header, print_row};
use approxiot_core::{Batch, StratumId, StreamItem};
use approxiot_runtime::{
    Driver, EngineKind, LatencyStats, LayerSpec, PipelineOptions, QuerySet, Strategy, Topology,
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

/// End-to-end item latency through the paper's tree at a 10% fraction.
fn latency(strategy: Strategy, window: Duration, data: &[Vec<Batch>]) -> LatencyStats {
    // Uncongested links (no capacity cap): isolate the window effect.
    let topology = Topology::builder()
        .sources(8)
        .layer(LayerSpec::new(4).delay(Duration::from_millis(10)))
        .layer(LayerSpec::new(2).delay(Duration::from_millis(20)))
        .root_delay(Duration::from_millis(40))
        .strategy(strategy)
        .overall_fraction(0.10)
        .window(window)
        .seed(9)
        .build()
        .expect("valid fraction");
    let engine = EngineKind::Pipeline(PipelineOptions {
        deterministic: false,
        source_interval: Some(Duration::from_millis(20)),
    });
    Driver::new(topology, QuerySet::default(), engine)
        .expect("valid topology")
        .run(data)
        .expect("engine open")
        .latency
}

fn main() {
    figure_header(
        "Figure 9",
        "latency vs window size (fraction = 10%, windows scaled x0.1)",
    );
    // The paper's 0.5–4 s windows, scaled ×0.1.
    let windows_ms = [50u64, 100, 200, 300, 400];
    print_row(&["window ms".into(), "ApproxIoT ms".into(), "SRS ms".into()]);
    for w in windows_ms {
        let window = Duration::from_millis(w);
        // Stream long enough to cover several windows.
        let intervals = ((w * 6) / 20).max(20) as usize;
        let data = source_data(intervals, 8, 100);
        let whs = latency(Strategy::whs(), window, &data);
        let srs = latency(Strategy::Srs, window, &data);
        print_row(&[
            format!("{w}"),
            format!("{:.1}", whs.p50.as_secs_f64() * 1000.0),
            format!("{:.1}", srs.p50.as_secs_f64() * 1000.0),
        ]);
    }
    println!("\nExpected shape: item latency flat in the window for both strategies;");
    println!("the window's cost is the root's result lag (not in this table).");
}
