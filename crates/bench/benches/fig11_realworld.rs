//! Figure 11: the two real-world case studies — NYC taxi rides and Brasov
//! pollution (trace-shaped generators; see DESIGN.md for the
//! substitution).
//!
//! (a) Accuracy loss vs sampling fraction for both datasets. Paper shape:
//!     both curves fall with the fraction; the pollution curve sits *below*
//!     the taxi curve because pollution readings are much stabler than taxi
//!     fares.
//! (b) Throughput vs sampling fraction. Paper shape: throughput falls as
//!     the fraction grows; at 10% it is many times the native execution's.

use approxiot_bench::{
    accuracy_run_trace, figure_header, print_row, split_by_stratum, PAPER_FRACTIONS_PCT,
    PAPER_FRACTIONS_WITH_FULL_PCT,
};
use approxiot_core::Batch;
use approxiot_runtime::{
    Driver, EngineKind, FractionSplit, LayerSpec, LinkSpec, QuerySet, Strategy, Topology,
};
use approxiot_workload::{PollutionTrace, TaxiTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const WINDOW: Duration = Duration::from_millis(100);

fn taxi_accuracy(strategy: Strategy, fraction: f64, seed: u64) -> f64 {
    let mut trace = TaxiTrace::new(40_000.0, WINDOW);
    accuracy_run_trace(
        |rng| trace.next_interval(rng),
        WINDOW,
        strategy,
        fraction,
        20,
        seed,
    )
}

fn pollution_accuracy(strategy: Strategy, fraction: f64, seed: u64) -> f64 {
    let mut trace = PollutionTrace::new(1_000, WINDOW);
    accuracy_run_trace(
        |rng| trace.next_interval(rng),
        WINDOW,
        strategy,
        fraction,
        20,
        seed,
    )
}

/// Pre-generates interval batches from a trace, split per stratum into
/// "sources" for the threaded pipeline.
fn trace_intervals(
    mut next: impl FnMut(&mut StdRng) -> Batch,
    intervals: usize,
) -> Vec<Vec<Batch>> {
    let mut rng = StdRng::seed_from_u64(0xF16);
    (0..intervals)
        .map(|_| {
            let batch = next(&mut rng);
            let mut parts = split_by_stratum(&batch);
            // Pad to a fixed source count so the matrix is rectangular.
            while parts.len() < 8 {
                parts.push(Batch::new());
            }
            parts.truncate(8);
            parts
        })
        .collect()
}

fn throughput(data: &[Vec<Batch>], strategy: Strategy, fraction: f64) -> f64 {
    let delay = Duration::from_millis(1);
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
        .window(WINDOW)
        .seed(11)
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
        "Figure 11(a)",
        "accuracy loss vs fraction, real-world traces",
    );
    let seeds = [3, 13, 23, 33, 43];
    print_row(&[
        "fraction %".into(),
        "NYC Taxi %".into(),
        "Brasov Pollution %".into(),
    ]);
    for f_pct in PAPER_FRACTIONS_PCT {
        let fraction = f_pct as f64 / 100.0;
        let taxi: f64 = seeds
            .iter()
            .map(|&s| taxi_accuracy(Strategy::whs(), fraction, s))
            .sum::<f64>()
            / seeds.len() as f64;
        let pollution: f64 = seeds
            .iter()
            .map(|&s| pollution_accuracy(Strategy::whs(), fraction, s))
            .sum::<f64>()
            / seeds.len() as f64;
        print_row(&[
            format!("{f_pct}"),
            format!("{:.4}", taxi * 100.0),
            format!("{:.4}", pollution * 100.0),
        ]);
    }
    println!("\nExpected shape: both fall with the fraction; pollution sits below taxi");
    println!("(stabler values).");

    figure_header("Figure 11(b)", "throughput vs fraction, real-world traces");
    let taxi_data = {
        let mut trace = TaxiTrace::new(60_000.0, WINDOW);
        trace_intervals(move |rng| trace.next_interval(rng), 10)
    };
    let pollution_data = {
        let mut trace = PollutionTrace::new(1_500, WINDOW);
        trace_intervals(move |rng| trace.next_interval(rng), 10)
    };
    let native_taxi = throughput(&taxi_data, Strategy::Native, 1.0);
    let native_pollution = throughput(&pollution_data, Strategy::Native, 1.0);
    print_row(&[
        "fraction %".into(),
        "NYC Taxi".into(),
        "Brasov Pollution".into(),
        "Native (taxi)".into(),
    ]);
    for f_pct in PAPER_FRACTIONS_WITH_FULL_PCT {
        let fraction = f_pct as f64 / 100.0;
        let taxi = throughput(&taxi_data, Strategy::whs(), fraction);
        let pollution = throughput(&pollution_data, Strategy::whs(), fraction);
        print_row(&[
            format!("{f_pct}"),
            format!("{taxi:.0}"),
            format!("{pollution:.0}"),
            format!("{native_taxi:.0}"),
        ]);
    }
    let _ = native_pollution;
    println!("\nExpected shape: throughput falls as the fraction rises; both traces");
    println!("behave similarly; 10% is many times the native rate.");
}
