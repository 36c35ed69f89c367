//! Why stratification matters: the paper's Figure 10(c) scenario as a
//! narrative example.
//!
//! Four Poisson sub-streams where A carries 80% of the *items* but D —
//! 0.01% of the items with λ = 10⁷ — carries virtually all of the *value*.
//! Simple random sampling misses or wildly over-scales D; weighted
//! hierarchical sampling guarantees every sub-stream a reservoir.
//!
//! Run with: `cargo run --release --example skewed_streams`

use approxiot::prelude::*;
use approxiot::workload::scenarios;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn run(strategy: Strategy, fraction: f64, seed: u64) -> (f64, f64) {
    let window = Duration::from_millis(100);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mix = scenarios::skewed_mix(40_000.0, window);
    // The paper's 8 → 4 → 2 → root tree with its default 1 s window. The
    // virtual-time engine routes however many per-stratum sources an
    // interval splits into.
    let topology = Topology::builder()
        .sources(8)
        .layer(LayerSpec::new(4))
        .layer(LayerSpec::new(2))
        .strategy(strategy)
        .overall_fraction(fraction)
        .seed(seed)
        .build()
        .expect("valid fraction");
    let mut tree = SimEngine::new(topology, QuerySet::default()).expect("valid topology");
    let mut truth = 0.0;
    for _ in 0..10 {
        let batch = mix.next_interval(&mut rng);
        truth += batch.value_sum();
        let sources = batch.split_by_stratum();
        tree.push_interval(&sources);
    }
    let estimate: f64 = tree.flush().iter().map(|r| r.estimate.value).sum();
    (estimate, truth)
}

fn main() {
    let fraction = 0.10;
    println!("extremely skewed stream (Fig. 10c): sub-stream shares 80% / 19.89% / 0.1% / 0.01%,");
    println!(
        "but the rarest sub-stream has values ~10^6 larger. Sampling {:.0}%.\n",
        fraction * 100.0
    );

    println!(
        "{:>6} {:>18} {:>18} {:>12} {:>12}",
        "seed", "ApproxIoT", "SRS", "WHS loss%", "SRS loss%"
    );
    let mut whs_losses = Vec::new();
    let mut srs_losses = Vec::new();
    for seed in 1..=8u64 {
        let (whs_est, truth) = run(Strategy::whs(), fraction, seed);
        let (srs_est, _) = run(Strategy::Srs, fraction, seed);
        let whs_loss = accuracy_loss(whs_est, truth);
        let srs_loss = accuracy_loss(srs_est, truth);
        whs_losses.push(whs_loss);
        srs_losses.push(srs_loss);
        println!(
            "{seed:>6} {whs_est:>18.3e} {srs_est:>18.3e} {:>12.4} {:>12.4}",
            whs_loss * 100.0,
            srs_loss * 100.0
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let whs_mean = mean(&whs_losses);
    let srs_mean = mean(&srs_losses);
    println!(
        "\nmean accuracy loss: ApproxIoT {:.4}%  vs  SRS {:.4}%",
        whs_mean * 100.0,
        srs_mean * 100.0
    );
    println!(
        "ApproxIoT is {:.0}x more accurate on this stream.",
        srs_mean / whs_mean.max(1e-12)
    );
    println!("\nNote how SRS sometimes *overestimates* hugely: a lucky draw of one");
    println!("high-value item gets multiplied by 1/fraction — the failure mode the");
    println!("paper highlights in Figure 10(c).");
}
