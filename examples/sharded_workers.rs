//! §III-E distributed execution: a hot sub-stream handled by `w` worker
//! shards, each with a local reservoir of `N/w` slots and its own arrival
//! counter — and the estimate still reconstructs exactly, because the
//! root's Θ store was designed to accept multiple (weight, items) pairs
//! per stratum from the start. The shards run one after another on the
//! node's thread: §III-E fixes what each shard counts and emits, not
//! which thread runs it.
//!
//! Exits non-zero unless the reconstructed count ĉ is within 1e-6 of the
//! 200 000 input items for every worker count and for the topology run.
//!
//! Run with: `cargo run --release --example sharded_workers`

use approxiot::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

const ITEMS: u64 = 200_000;

fn main() -> Result<ExitCode, approxiot::core::BudgetError> {
    let mut rng = StdRng::seed_from_u64(35);

    // One very hot sub-stream: 200k items in an interval.
    let items: Vec<StreamItem> = (0..ITEMS)
        .map(|k| StreamItem::with_meta(StratumId::new(0), 10.0 + rng.random::<f64>(), k, 0))
        .collect();
    let batch = Batch::from_items(items);
    let truth = batch.value_sum();
    let exact = |c_hat: f64| (c_hat - ITEMS as f64).abs() < 1e-6;
    let mut ok = true;

    println!(
        "one sub-stream, {} items, sampled at 2% over w shards:\n",
        batch.len()
    );
    println!(
        "{:>8} {:>12} {:>16} {:>12} {:>10} {:>12}",
        "workers", "pairs in Θ", "estimate", "ĉ", "loss %", "wall µs"
    );
    for workers in [1usize, 2, 4, 8, 16] {
        // The node splits its window over `workers` shards, each with its
        // own budget, arrival counter and deterministic RNG.
        let mut node = SamplingNode::with_workers(Strategy::whs(), 0.02, 35, workers)?;
        let start = std::time::Instant::now();
        let outs = node.process_batch_parallel(&batch);
        let elapsed = start.elapsed();
        let theta: ThetaStore = outs
            .into_iter()
            .map(|b| WhsOutput {
                weights: b.weights,
                sample: b.items,
            })
            .collect();
        let est = theta.sum_estimate();
        ok &= exact(theta.count_estimate());
        println!(
            "{workers:>8} {:>12} {:>16.1} {:>12.1} {:>10.4} {:>12}",
            theta.len(),
            est.value,
            theta.count_estimate(),
            accuracy_loss(est.value, truth) * 100.0,
            elapsed.as_micros()
        );
    }
    println!("\nexact SUM: {truth:.1}");
    println!("each shard's local counter feeds its local weight (paper §III-E).\n");

    // The same sharding, declared on the topology: every node of the
    // first edge layer splits its frames over 4 shards, and the
    // whole tree runs behind the driver (identically on either engine).
    let topology = Topology::builder()
        .sources(1)
        .layer(LayerSpec::new(2).workers(4))
        .layer(LayerSpec::new(1))
        .overall_fraction(0.02)
        .seed(35)
        .build()
        .expect("valid fraction");
    let driver =
        Driver::new(topology, QuerySet::default(), EngineKind::Sim).expect("valid topology");
    let report = driver
        .run(std::slice::from_ref(&vec![batch]))
        .expect("source count matches");
    let r = &report.results[0];
    ok &= exact(r.count_hat);
    println!(
        "same stream through a sharded 2-layer topology: SUM ≈ {:.1} (ĉ = {:.0}, {} sampled items)",
        r.estimate.value, r.count_hat, r.sampled_items
    );

    if ok {
        println!("count reconstruction (ĉ = {ITEMS}) is exact for every worker count");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("FAILED: ĉ drifted from {ITEMS} on at least one run");
        Ok(ExitCode::FAILURE)
    }
}
