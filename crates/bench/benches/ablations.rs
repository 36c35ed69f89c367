//! Ablations: which pieces of the ApproxIoT design actually buy the
//! accuracy and bandwidth wins? (DESIGN.md §8.)
//!
//! 1. **Allocation policy** — uniform (fair) per-stratum reservoir shares
//!    vs proportional shares. Proportional degenerates towards SRS on
//!    skewed streams: the rare-but-valuable stratum is starved.
//! 2. **Edge sampling vs root-only sampling** — ApproxIoT's multi-level
//!    sampling vs a StreamApprox-style centralised sampler with the same
//!    end-to-end fraction. Accuracy is comparable, but root-only sampling
//!    forfeits the WAN bandwidth savings — the system's reason to exist.

use approxiot_bench::{accuracy_interval, figure_header, pct, print_row, split_by_stratum};
use approxiot_core::Allocation;
use approxiot_runtime::{LayerSpec, QuerySet, SimEngine, Strategy, Topology};
use approxiot_workload::scenarios;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's 8 → 4 → 2 → root tree on the virtual-time engine.
fn paper_tree(strategy: Strategy, fraction: f64, seed: u64) -> SimEngine {
    let topology = Topology::builder()
        .sources(8)
        .layer(LayerSpec::new(4))
        .layer(LayerSpec::new(2))
        .strategy(strategy)
        .overall_fraction(fraction)
        .window(accuracy_interval())
        .seed(seed)
        .build()
        .expect("valid fraction");
    SimEngine::new(topology, QuerySet::default()).expect("valid topology")
}

/// Accuracy with all four strata flowing through a *single* source (so a
/// node's batch mixes strata and the allocation policy actually arbitrates
/// the reservoir budget between them).
fn mixed_source_accuracy(allocation: Allocation, fraction: f64, seeds: &[u64]) -> f64 {
    let mut total = 0.0;
    for &seed in seeds {
        let mut tree = paper_tree(Strategy::Whs { allocation }, fraction, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut mix = scenarios::skewed_mix(40_000.0, accuracy_interval());
        let mut truth = 0.0;
        for _ in 0..20 {
            let batch = mix.next_interval(&mut rng);
            truth += batch.value_sum();
            tree.push_interval(std::slice::from_ref(&batch));
        }
        let estimate: f64 = tree.flush().iter().map(|r| r.estimate.value).sum();
        total += approxiot_core::accuracy_loss(estimate, truth);
    }
    total / seeds.len() as f64
}

fn main() {
    figure_header(
        "Ablation 1",
        "uniform vs proportional reservoir allocation (skewed mix)",
    );
    println!("(single mixed source: the allocation policy arbitrates the budget)");
    let seeds = [5, 15, 25, 35, 45];
    print_row(&[
        "fraction %".into(),
        "uniform %".into(),
        "proportional %".into(),
    ]);
    for f_pct in [10u32, 20, 40, 60] {
        let fraction = f_pct as f64 / 100.0;
        let uniform = mixed_source_accuracy(Allocation::Uniform, fraction, &seeds);
        let proportional = mixed_source_accuracy(Allocation::Proportional, fraction, &seeds);
        print_row(&[
            format!("{f_pct}"),
            format!("{:.4}", pct(uniform)),
            format!("{:.4}", pct(proportional)),
        ]);
    }
    println!("\nExpected: proportional allocation starves the rare stratum and loses");
    println!("accuracy exactly where stratification is supposed to help.");

    figure_header(
        "Ablation 2",
        "edge sampling vs root-only sampling (same end-to-end fraction)",
    );
    print_row(&[
        "fraction %".into(),
        "edge WAN bytes".into(),
        "root-only WAN bytes".into(),
        "edge loss %".into(),
        "root-only loss %".into(),
    ]);
    for f_pct in [10u32, 40, 80] {
        let fraction = f_pct as f64 / 100.0;
        let (edge_bytes, edge_loss) = run_tree(fraction, false);
        let (root_bytes, root_loss) = run_tree(fraction, true);
        print_row(&[
            format!("{f_pct}"),
            format!("{edge_bytes}"),
            format!("{root_bytes}"),
            format!("{:.4}", pct(edge_loss)),
            format!("{:.4}", pct(root_loss)),
        ]);
    }
    println!("\nExpected: similar accuracy, but root-only sampling ships the full");
    println!("stream across the WAN — no bandwidth saving at all.");
}

/// Runs the Gaussian mix through the tree; `root_only` makes the edge
/// layers native and concentrates the whole fraction at the root
/// (StreamApprox-style).
fn run_tree(fraction: f64, root_only: bool) -> (u64, f64) {
    // Root-only: the edges forward everything and a centralised sampler
    // takes the whole fraction over the raw stream below.
    let mut tree = if root_only {
        paper_tree(Strategy::Native, 1.0, 0xAB1)
    } else {
        paper_tree(Strategy::whs(), fraction, 0xAB1)
    };
    let mut rng = StdRng::seed_from_u64(0xAB17);
    let mut mix = scenarios::gaussian_mix(40_000.0, accuracy_interval());
    let mut truth = 0.0;
    let mut estimate = 0.0;

    if root_only {
        // Native edges + a separate WHS "root" stage at the overall
        // fraction: run the native tree, then sample its root input.
        use approxiot_core::{
            whs_sample, Allocation, CostFunction, SamplingBudget, ThetaStore, WeightMap,
        };
        let budget = SamplingBudget::new(fraction).expect("valid");
        let mut theta = ThetaStore::new();
        for _ in 0..20 {
            let batch = mix.next_interval(&mut rng);
            truth += batch.value_sum();
            tree.push_interval(&split_by_stratum(&batch));
            // Sample at the "root" over the raw batch (centralised).
            let size = budget.sample_size(batch.len());
            let out = whs_sample(
                &batch,
                size,
                &WeightMap::new(),
                Allocation::Uniform,
                &mut rng,
            );
            theta.push(out);
        }
        tree.flush();
        estimate = theta.sum_estimate().value;
        (
            tree.bytes().sampled_wire_bytes(),
            approxiot_core::accuracy_loss(estimate, truth),
        )
    } else {
        for _ in 0..20 {
            let batch = mix.next_interval(&mut rng);
            truth += batch.value_sum();
            tree.push_interval(&split_by_stratum(&batch));
        }
        for r in tree.flush() {
            estimate += r.estimate.value;
        }
        (
            tree.bytes().sampled_wire_bytes(),
            approxiot_core::accuracy_loss(estimate, truth),
        )
    }
}
