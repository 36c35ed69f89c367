//! The paper's §VI-A case study: *"What is the total payment for taxi
//! fares in NYC at each time window?"* — on the trace-shaped NYC-taxi
//! generator (log-normal fares, borough strata, diurnal demand).
//!
//! One `QuerySet` answers everything per window in a single pass over the
//! weighted sample: the approximate total with error bounds, the
//! per-borough breakdown, and the §VIII "complex queries" — median/p95
//! fares and the top boroughs by revenue.
//!
//! Run with: `cargo run --release --example nyc_taxi`

use approxiot::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() -> Result<(), EngineError> {
    let window = Duration::from_millis(100);
    let fraction = 0.10;
    let mut rng = StdRng::seed_from_u64(2013); // the dataset's vintage
    let mut trace = TaxiTrace::new(30_000.0, window);
    let names = TaxiTrace::stratum_names();

    // The paper's two edge layers (4 → 2) and testbed seed (as in
    // `Topology::paper`), one source per borough.
    let topology = Topology::builder()
        .sources(names.len())
        .layer(LayerSpec::new(4))
        .layer(LayerSpec::new(2))
        .overall_fraction(fraction)
        .window(window)
        .seed(0x10D5)
        .build()?;
    let queries = QuerySet::new()
        .with(QuerySpec::Sum)
        .with(QuerySpec::SumPerStratum)
        .with(QuerySpec::Quantile(0.5))
        .with(QuerySpec::Quantile(0.95))
        .with(QuerySpec::TopK(3));
    let mut driver = Driver::new(topology, queries, EngineKind::Sim)?;

    println!(
        "total taxi fares per {window:?} window, sampling {:.0}%:\n",
        fraction * 100.0
    );
    let mut truths = Vec::new();
    for _ in 0..15 {
        let batch = trace.next_interval(&mut rng);
        truths.push(batch.value_sum());
        let mut sources = batch.split_by_stratum();
        sources.resize_with(names.len(), Batch::new);
        driver.push_interval(&sources)?;
    }
    let report = driver.finish();

    let mut total_estimate = 0.0;
    for r in &report.results {
        total_estimate += r.estimate.value;
        let truth = truths[r.window as usize];
        println!(
            "  window {:>2}: ${:>12.2} ± {:>8.2}   (exact ${:>12.2}, loss {:.4}%)",
            r.window,
            r.estimate.value,
            r.error_bound(Confidence::P95),
            truth,
            accuracy_loss(r.estimate.value, truth) * 100.0
        );
    }

    if let Some(r) = report.results.last() {
        println!("\nper-borough breakdown of window {}:", r.window);
        if let Some(per) = r.queries.per_stratum(QuerySpec::SumPerStratum) {
            for (stratum, est) in per {
                println!(
                    "  {:>14}: ${:>12.2} ± {:>8.2}",
                    names[stratum.index() as usize],
                    est.value,
                    est.bound(Confidence::P95)
                );
            }
        }
        if let Some(top) = r.queries.top_k(3) {
            let ranked: Vec<&str> = top.iter().map(|(s, _)| names[s.index() as usize]).collect();
            println!("  top-3 boroughs by revenue: {}", ranked.join(" > "));
        }
        println!("\nfare quantiles of window {} (95% CI):", r.window);
        for q in [0.5, 0.95] {
            if let Some(est) = r.queries.quantile(q) {
                println!(
                    "  p{:>2.0} fare: ${:>7.2}  [{:.2}, {:.2}]",
                    q * 100.0,
                    est.value,
                    est.lo,
                    est.hi
                );
            }
        }
    }

    let total_truth: f64 = truths.iter().sum();
    println!("\nrun total: exact ${total_truth:.2}, approx ${total_estimate:.2} ");
    println!(
        "overall accuracy loss: {:.4}% from {:.0}% of the data",
        accuracy_loss(total_estimate, total_truth) * 100.0,
        fraction * 100.0
    );
    Ok(())
}
