//! End-to-end integration tests: the full system (workload → sim engine or
//! threaded pipeline → estimates) across crates.

use approxiot::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const WINDOW: Duration = Duration::from_millis(100);

/// The paper's 8 → 4 → 2 → root tree on the virtual-time engine, which
/// routes however many per-stratum sources an interval splits into.
fn paper_tree(strategy: Strategy, fraction: f64, window: Duration, seed: u64) -> SimEngine {
    let topology = Topology::builder()
        .sources(8)
        .layer(LayerSpec::new(4))
        .layer(LayerSpec::new(2))
        .strategy(strategy)
        .overall_fraction(fraction)
        .window(window)
        .seed(seed)
        .build()
        .expect("valid fraction");
    SimEngine::new(topology, QuerySet::default()).expect("valid topology")
}

fn run_tree_on_mix(
    mix: &mut StreamMix,
    strategy: Strategy,
    fraction: f64,
    intervals: usize,
    seed: u64,
) -> (f64, f64, Vec<WindowResult>) {
    let mut tree = paper_tree(strategy, fraction, mix.interval(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut truth = 0.0;
    for _ in 0..intervals {
        let batch = mix.next_interval(&mut rng);
        truth += batch.value_sum();
        let sources = batch.split_by_stratum();
        tree.push_interval(&sources);
    }
    let results = tree.flush();
    let estimate = results.iter().map(|r| r.estimate.value).sum();
    (estimate, truth, results)
}

#[test]
fn gaussian_mix_estimates_within_one_percent_at_forty_percent() {
    let mut mix = scenarios::gaussian_mix(20_000.0, WINDOW);
    let (estimate, truth, _) = run_tree_on_mix(&mut mix, Strategy::whs(), 0.4, 10, 1);
    let loss = accuracy_loss(estimate, truth);
    assert!(loss < 0.01, "loss {loss}");
}

#[test]
fn poisson_mix_estimates_within_one_percent_at_forty_percent() {
    let mut mix = scenarios::poisson_mix(20_000.0, WINDOW);
    let (estimate, truth, _) = run_tree_on_mix(&mut mix, Strategy::whs(), 0.4, 10, 2);
    let loss = accuracy_loss(estimate, truth);
    assert!(loss < 0.01, "loss {loss}");
}

#[test]
fn whs_beats_srs_on_the_skewed_mix() {
    let seeds = [1u64, 2, 3];
    let mut whs_loss = 0.0;
    let mut srs_loss = 0.0;
    for &seed in &seeds {
        let mut mix = scenarios::skewed_mix(20_000.0, WINDOW);
        let (est, truth, _) = run_tree_on_mix(&mut mix, Strategy::whs(), 0.1, 10, seed);
        whs_loss += accuracy_loss(est, truth);
        let mut mix = scenarios::skewed_mix(20_000.0, WINDOW);
        let (est, truth, _) = run_tree_on_mix(&mut mix, Strategy::Srs, 0.1, 10, seed);
        srs_loss += accuracy_loss(est, truth);
    }
    assert!(
        whs_loss * 10.0 < srs_loss,
        "WHS {whs_loss} should be at least 10x better than SRS {srs_loss}"
    );
}

#[test]
fn error_bounds_cover_the_truth_at_nominal_rate() {
    // Over many windows, the 95% bound should cover the exact answer in
    // roughly 95% of windows; we assert a conservative >= 80%.
    let mut covered = 0u32;
    let mut total = 0u32;
    for seed in 0..5u64 {
        let mut mix = scenarios::gaussian_mix(20_000.0, WINDOW);
        let mut tree = paper_tree(Strategy::whs(), 0.2, WINDOW, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut truths = Vec::new();
        for _ in 0..10 {
            let batch = mix.next_interval(&mut rng);
            truths.push(batch.value_sum());
            let sources = batch.split_by_stratum();
            tree.push_interval(&sources);
        }
        for r in tree.flush() {
            let truth = truths[r.window as usize];
            total += 1;
            if r.estimate.covers(truth, Confidence::P95) {
                covered += 1;
            }
        }
    }
    let rate = covered as f64 / total as f64;
    assert!(rate >= 0.8, "coverage {rate} ({covered}/{total})");
}

#[test]
fn count_reconstruction_is_exact_for_every_strategy_setting() {
    for fraction in [0.1, 0.3, 0.7, 1.0] {
        let mut mix = scenarios::gaussian_mix(10_000.0, WINDOW);
        let mut tree = paper_tree(Strategy::whs(), fraction, WINDOW, 9);
        let mut rng = StdRng::seed_from_u64(9);
        let mut total_items = 0usize;
        for _ in 0..5 {
            let batch = mix.next_interval(&mut rng);
            total_items += batch.len();
            let sources = batch.split_by_stratum();
            tree.push_interval(&sources);
        }
        let count: f64 = tree.flush().iter().map(|r| r.count_hat).sum();
        assert!(
            (count - total_items as f64).abs() < 1e-6,
            "fraction {fraction}: ĉ = {count} vs {total_items}"
        );
    }
}

#[test]
fn taxi_trace_end_to_end() {
    let mut trace = TaxiTrace::new(20_000.0, WINDOW);
    let mut tree = paper_tree(Strategy::whs(), 0.4, WINDOW, 77);
    let mut rng = StdRng::seed_from_u64(77);
    let mut truth = 0.0;
    for _ in 0..10 {
        let batch = trace.next_interval(&mut rng);
        truth += batch.value_sum();
        let sources = batch.split_by_stratum();
        tree.push_interval(&sources);
    }
    let estimate: f64 = tree.flush().iter().map(|r| r.estimate.value).sum();
    assert!(accuracy_loss(estimate, truth) < 0.05, "taxi loss too large");
}

#[test]
fn pollution_trace_is_more_accurate_than_taxi_at_same_fraction() {
    let fraction = 0.2;
    let seeds = [1u64, 2, 3, 4];
    let mut taxi_loss = 0.0;
    let mut pollution_loss = 0.0;
    for &seed in &seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut taxi = TaxiTrace::new(20_000.0, WINDOW);
        let mut tree = paper_tree(Strategy::whs(), fraction, WINDOW, seed);
        let mut truth = 0.0;
        for _ in 0..10 {
            let batch = taxi.next_interval(&mut rng);
            truth += batch.value_sum();
            let sources = batch.split_by_stratum();
            tree.push_interval(&sources);
        }
        let est: f64 = tree.flush().iter().map(|r| r.estimate.value).sum();
        taxi_loss += accuracy_loss(est, truth);

        let mut pollution = PollutionTrace::new(2_000, WINDOW);
        let mut tree = paper_tree(Strategy::whs(), fraction, WINDOW, seed);
        let mut truth = 0.0;
        for _ in 0..10 {
            let batch = pollution.next_interval(&mut rng);
            truth += batch.value_sum();
            let sources = batch.split_by_stratum();
            tree.push_interval(&sources);
        }
        let est: f64 = tree.flush().iter().map(|r| r.estimate.value).sum();
        pollution_loss += accuracy_loss(est, truth);
    }
    assert!(
        pollution_loss < taxi_loss,
        "pollution ({pollution_loss}) should beat taxi ({taxi_loss}) — Fig 11a"
    );
}

#[test]
fn threaded_pipeline_matches_sim_tree_counts() {
    // The same workload through both execution modes reconstructs the same
    // ground-truth count.
    let mut rng = StdRng::seed_from_u64(4);
    let mut mix = scenarios::gaussian_mix(5_000.0, WINDOW);
    let intervals: Vec<Vec<Batch>> = (0..5)
        .map(|_| {
            let batch = mix.next_interval(&mut rng);
            let mut parts = batch.split_by_stratum();
            while parts.len() < 4 {
                parts.push(Batch::new());
            }
            parts
        })
        .collect();
    let total_items: usize = intervals.iter().flatten().map(Batch::len).sum();

    let hop = Duration::from_millis(1);
    let topology = Topology::builder()
        .sources(4)
        .layer(LayerSpec::new(2).delay(hop))
        .layer(LayerSpec::new(2).delay(hop))
        .root_delay(hop)
        .overall_fraction(0.3)
        .window(WINDOW)
        .seed(5)
        .build()
        .expect("valid");
    let report = Driver::pipeline(topology, QuerySet::default())
        .expect("valid")
        .run(&intervals)
        .expect("engine open");
    let count: f64 = report.results.iter().map(|r| r.count_hat).sum();
    assert!(
        (count - total_items as f64).abs() < 1e-6,
        "pipeline ĉ {count} vs {total_items}"
    );
}

#[test]
fn wall_clock_whs_root_samples_columns_and_reconstructs_counts() {
    // The threaded engine's root decodes columns and samples them itself
    // (a WHS root keeps a share of what reaches it); its weights must still
    // reconstruct every pushed item.
    let mut rng = StdRng::seed_from_u64(12);
    let mut mix = scenarios::gaussian_mix(5_000.0, WINDOW);
    let topology = Topology::builder()
        .sources(4)
        .layer(LayerSpec::new(2))
        .layer(LayerSpec::new(2))
        .overall_fraction(0.2)
        .window(WINDOW)
        // Generous, so a host stall cannot turn into late drops.
        .allowed_lateness(Duration::from_secs(60))
        .seed(12)
        .build()
        .expect("valid");
    let mut driver =
        Driver::new(topology, QuerySet::default(), EngineKind::pipeline()).expect("valid");
    let mut pushed = 0;
    for _ in 0..5 {
        let mut sources = mix.next_interval(&mut rng).split_by_stratum();
        sources.resize_with(4, Batch::new);
        pushed += sources.iter().map(Batch::len).sum::<usize>();
        driver
            .push_interval(&sources)
            .expect("source count matches");
    }
    let report = driver.finish();
    let count: f64 = report.results.iter().map(|r| r.count_hat).sum();
    assert!(
        (count - pushed as f64).abs() < 1e-6,
        "ĉ {count} vs {pushed} pushed"
    );
    assert!(report.results.iter().all(|r| r.dropped_late == 0));
}

#[test]
fn multi_query_driver_answers_quantiles_on_real_workloads() {
    // The taxi workload through the topology-first driver: the SUM the
    // case study asks, plus the §VIII complex queries, all from one pass
    // over the weighted sample per window.
    let mut rng = StdRng::seed_from_u64(8);
    let mut trace = TaxiTrace::new(20_000.0, WINDOW);
    let topology = Topology::builder()
        .sources(6)
        .layer(LayerSpec::new(3))
        .layer(LayerSpec::new(2))
        .overall_fraction(0.4)
        .window(WINDOW)
        .seed(8)
        .build()
        .expect("valid");
    let queries = QuerySet::new()
        .with(QuerySpec::Sum)
        .with(QuerySpec::Quantile(0.5))
        .with(QuerySpec::TopK(3));
    let mut driver = Driver::sim(topology, queries).expect("valid");
    let mut truth = 0.0;
    let mut all_values = Vec::new();
    for _ in 0..10 {
        let batch = trace.next_interval(&mut rng);
        truth += batch.value_sum();
        all_values.extend(batch.items.iter().map(|i| i.value));
        let mut sources = batch.split_by_stratum();
        sources.resize_with(6, Batch::new);
        driver
            .push_interval(&sources)
            .expect("source count matches");
    }
    let report = driver.finish();
    let estimate: f64 = report.results.iter().map(|r| r.estimate.value).sum();
    assert!(accuracy_loss(estimate, truth) < 0.05, "sum loss too large");
    // Every window answered every query; the median estimate lands near
    // the true overall median.
    all_values.sort_by(|a, b| a.partial_cmp(b).expect("finite fares"));
    let true_median = all_values[all_values.len() / 2];
    for r in &report.results {
        assert_eq!(r.queries.len(), 3);
        let median = r.queries.quantile(0.5).expect("non-empty window");
        assert!(median.lo <= median.value && median.value <= median.hi);
        assert!(
            (median.value - true_median).abs() / true_median < 0.5,
            "window {} median {} vs {}",
            r.window,
            median.value,
            true_median
        );
        let top = r.queries.top_k(3).expect("top-k answer");
        assert_eq!(top.len(), 3, "taxi has >= 3 boroughs");
        assert!(top[0].1.value >= top[1].1.value);
    }
}

#[test]
fn adaptive_feedback_converges_towards_error_budget() {
    let mut feedback = FeedbackLoop::new(0.02, 0.02).expect("valid");
    let mut rng = StdRng::seed_from_u64(31);
    let mut mix = scenarios::gaussian_mix(20_000.0, WINDOW);
    let mut last_bound = f64::INFINITY;
    for i in 0..12u64 {
        let mut tree = paper_tree(Strategy::whs(), feedback.overall_fraction(), WINDOW, i);
        let batch = mix.next_interval(&mut rng);
        let sources = batch.split_by_stratum();
        tree.push_interval(&sources);
        let results = tree.flush();
        let r = &results[0];
        feedback.observe(r);
        last_bound = r.estimate.relative_bound(Confidence::P95).unwrap_or(0.0);
    }
    assert!(
        last_bound <= 0.05,
        "feedback failed to pull the bound near budget: {last_bound}"
    );
    assert!(feedback.refinements() > 0, "controller never adjusted");
}
