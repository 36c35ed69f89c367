//! Figure 7: bandwidth saving rate vs sampling fraction.
//!
//! Paper shape to reproduce: the saving rate on the WAN segments tracks
//! `1 − fraction` for both ApproxIoT and SRS (a 10% fraction needs only
//! ~10% of the link capacity).

use approxiot_bench::{figure_header, print_row, split_by_stratum, PAPER_FRACTIONS_WITH_FULL_PCT};
use approxiot_net::bandwidth_saving;
use approxiot_runtime::{FractionSplit, LayerSpec, QuerySet, SimEngine, Strategy, Topology};
use approxiot_workload::scenarios;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Runs the tree over a fixed workload and returns the bytes crossing the
/// sampled WAN segments (leaf→mid + mid→root).
fn wire_bytes(strategy: Strategy, fraction: f64, split: FractionSplit) -> u64 {
    let topology = Topology::builder()
        .sources(8)
        .layer(LayerSpec::new(4))
        .layer(LayerSpec::new(2))
        .strategy(strategy)
        .overall_fraction(fraction)
        .split(split)
        .window(Duration::from_millis(100))
        .seed(7)
        .build()
        .expect("valid fraction");
    let mut tree = SimEngine::new(topology, QuerySet::default()).expect("valid topology");
    let mut rng = StdRng::seed_from_u64(0x77);
    let mut mix = scenarios::gaussian_mix(40_000.0, Duration::from_millis(100));
    for _ in 0..20 {
        let batch = mix.next_interval(&mut rng);
        tree.push_interval(&split_by_stratum(&batch));
    }
    tree.flush();
    tree.bytes().sampled_wire_bytes()
}

fn main() {
    figure_header(
        "Figure 7",
        "bandwidth saving rate vs sampling fraction (WAN segments)",
    );
    let native = wire_bytes(Strategy::Native, 1.0, FractionSplit::LeafHeavy);
    println!("(leaf-heavy budget: the paper's evaluation setting — fraction = capacity share)");
    print_row(&[
        "fraction %".into(),
        "ApproxIoT %".into(),
        "SRS %".into(),
        "ApproxIoT(even) %".into(),
    ]);
    for f_pct in PAPER_FRACTIONS_WITH_FULL_PCT {
        let fraction = f_pct as f64 / 100.0;
        let whs = bandwidth_saving(
            wire_bytes(Strategy::whs(), fraction, FractionSplit::LeafHeavy),
            native,
        );
        let srs = bandwidth_saving(
            wire_bytes(Strategy::Srs, fraction, FractionSplit::LeafHeavy),
            native,
        );
        let even = bandwidth_saving(
            wire_bytes(Strategy::whs(), fraction, FractionSplit::Even),
            native,
        );
        print_row(&[
            format!("{f_pct}"),
            format!("{:.1}", whs * 100.0),
            format!("{:.1}", srs * 100.0),
            format!("{:.1}", even * 100.0),
        ]);
    }
    println!("\nExpected shape: saving ≈ 100% − fraction for both systems under the");
    println!("paper's leaf-heavy budget; the even split trades some first-hop saving");
    println!("for deeper hierarchical sampling.");
}
