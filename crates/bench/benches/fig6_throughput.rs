//! Figure 6: throughput vs sampling fraction — ApproxIoT, SRS and native.
//!
//! Paper shape to reproduce: ApproxIoT ≈ SRS at every fraction (both are
//! coordination-free); both rise as the fraction drops (less data crosses
//! the capacity-limited WAN links); at 100% both match the native
//! execution, demonstrating negligible sampling overhead.

use approxiot_bench::{figure_header, print_row, PAPER_FRACTIONS_WITH_FULL_PCT};
use approxiot_core::{Batch, StratumId, StreamItem};
use approxiot_runtime::{
    Driver, EngineKind, FractionSplit, LayerSpec, LinkSpec, QuerySet, Strategy, Topology,
};
use std::time::Duration;

/// Pre-generated source data: `intervals × sources` batches of `n` items.
fn source_data(intervals: usize, sources: usize, n: usize) -> Vec<Vec<Batch>> {
    (0..intervals)
        .map(|_| {
            (0..sources)
                .map(|s| {
                    Batch::from_items(
                        (0..n)
                            .map(|k| {
                                StreamItem::with_meta(
                                    StratumId::new(s as u32),
                                    (k % 100) as f64,
                                    k as u64,
                                    0,
                                )
                            })
                            .collect(),
                    )
                })
                .collect()
        })
        .collect()
}

/// Source items per wall second through the paper's tree.
fn throughput(strategy: Strategy, fraction: f64, data: &[Vec<Batch>]) -> f64 {
    // Tiny delays: this figure is about bandwidth saturation, not RTT.
    let delay = Duration::from_millis(1);
    // The WAN links between edge layers are the bottleneck (the paper's
    // 1 Gbps scaled to laptop size).
    let wan = 3_000_000;
    let topology = Topology::builder()
        .sources(8)
        // Sources can feed at most 10x the WAN capacity, bounding the
        // attainable speedup near the paper's ~10x at a 10% fraction.
        .layer(LayerSpec::new(4).delay(delay).capacity(7_500_000))
        .layer(LayerSpec::new(2).delay(delay).capacity(wan))
        .root_link(LinkSpec {
            delay,
            capacity_bytes_per_sec: Some(wan),
            ..LinkSpec::default()
        })
        .strategy(strategy)
        .overall_fraction(fraction)
        .split(FractionSplit::LeafHeavy)
        .window(Duration::from_millis(100))
        .seed(6)
        .build()
        .expect("valid fraction");
    Driver::new(topology, QuerySet::default(), EngineKind::pipeline())
        .expect("valid topology")
        .run(data)
        .expect("engine open")
        .throughput_items_per_sec
}

fn main() {
    figure_header(
        "Figure 6",
        "throughput vs sampling fraction (items/s at the root)",
    );
    let data = source_data(40, 8, 800); // 256k items per run
    print_row(&[
        "fraction %".into(),
        "ApproxIoT".into(),
        "SRS".into(),
        "Native".into(),
    ]);
    let native = throughput(Strategy::Native, 1.0, &data);
    for f_pct in PAPER_FRACTIONS_WITH_FULL_PCT {
        let fraction = f_pct as f64 / 100.0;
        let whs = throughput(Strategy::whs(), fraction, &data);
        let srs = throughput(Strategy::Srs, fraction, &data);
        print_row(&[
            format!("{f_pct}"),
            format!("{whs:.0}"),
            format!("{srs:.0}"),
            format!("{native:.0}"),
        ]);
    }
    println!("\nExpected shape: ApproxIoT ≈ SRS; throughput rises as fraction falls;");
    println!("at 100% both match native (low sampling overhead).");
}
