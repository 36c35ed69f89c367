//! Property-based tests (proptest) on the system's core invariants, run
//! against arbitrary batch shapes, weights, fractions and tree routes.

use approxiot::prelude::*;
// No proptest prelude glob: its `Strategy` trait would collide with the
// runtime's `Strategy` enum. Import the pieces explicitly.
use proptest::strategy::Strategy as _;
use proptest::test_runner::Config as ProptestConfig;
use proptest::{prop_assert, prop_assert_eq, proptest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Duration;

/// Independent grouping oracle: naive per-item map grouping — ascending by
/// stratum, arrival order preserved within each.
fn group_by_stratum(batch: &Batch) -> BTreeMap<StratumId, Vec<StreamItem>> {
    let mut map: BTreeMap<StratumId, Vec<StreamItem>> = BTreeMap::new();
    for item in &batch.items {
        map.entry(item.stratum).or_default().push(*item);
    }
    map
}

/// Strategy: a batch of up to 4 strata with up to 200 items each.
fn arb_batch() -> impl proptest::strategy::Strategy<Value = Batch> {
    proptest::collection::vec((0u32..4, 1usize..200), 1..4).prop_map(|spec| {
        let mut items = Vec::new();
        for (stratum, count) in spec {
            for k in 0..count {
                items.push(StreamItem::with_meta(
                    StratumId::new(stratum),
                    (k % 17) as f64 + 0.5,
                    k as u64,
                    0,
                ));
            }
        }
        Batch::from_items(items)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equation 8: for every stratum, `Σ |I|·W_out` over the outputs equals
    /// the input count times the input weight, regardless of batch shape,
    /// sample size or input weights.
    #[test]
    fn count_reconstruction_invariant(
        batch in arb_batch(),
        sample_size in 0usize..500,
        w_in_scale in 1u32..20,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w_in = WeightMap::new();
        for s in batch.strata() {
            w_in.set(s, w_in_scale as f64);
        }
        let out = whs_sample(&batch, sample_size, &w_in, Allocation::Uniform, &mut rng);
        for (stratum, originals) in group_by_stratum(&batch) {
            let kept = out.sample.iter().filter(|i| i.stratum == stratum).count();
            if kept == 0 {
                // Fully dropped stratum (zero reservoir): no invariant to
                // check — the weight map must not contain it either.
                prop_assert!(out.weights.get_explicit(stratum).is_none()
                    || sample_size == 0 || kept == 0);
                continue;
            }
            let lhs = out.weights.get(stratum) * kept as f64;
            let rhs = w_in.get(stratum) * originals.len() as f64;
            prop_assert!((lhs - rhs).abs() < 1e-6,
                "stratum {stratum}: {lhs} != {rhs}");
        }
    }

    /// The sample never exceeds the budget, and never exceeds the input.
    #[test]
    fn sample_size_is_bounded(
        batch in arb_batch(),
        sample_size in 0usize..500,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = whs_sample(&batch, sample_size, &WeightMap::new(), Allocation::Uniform, &mut rng);
        prop_assert!(out.sample.len() <= sample_size);
        prop_assert!(out.sample.len() <= batch.len());
    }

    /// Sampled items are a genuine subset of the input (no invention, no
    /// duplication beyond input multiplicity).
    #[test]
    fn sample_is_subset_of_input(
        batch in arb_batch(),
        sample_size in 1usize..300,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = whs_sample(&batch, sample_size, &WeightMap::new(), Allocation::Uniform, &mut rng);
        let mut pool: Vec<_> = batch.items.clone();
        for item in &out.sample {
            let pos = pool.iter().position(|p| p == item);
            prop_assert!(pos.is_some(), "sampled item not from input: {item:?}");
            pool.swap_remove(pos.expect("checked above"));
        }
    }

    /// Weights are always >= 1 and finite after sampling.
    #[test]
    fn weights_at_least_one(
        batch in arb_batch(),
        sample_size in 0usize..500,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = whs_sample(&batch, sample_size, &WeightMap::new(), Allocation::Uniform, &mut rng);
        for (_, w) in out.weights.iter() {
            prop_assert!(w.is_finite() && w >= 1.0 - 1e-9, "bad weight {w}");
        }
    }

    /// SUM estimate at 100% budget is exact for any batch.
    #[test]
    fn full_budget_is_exact(batch in arb_batch(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = whs_sample(
            &batch,
            batch.len(),
            &WeightMap::new(),
            Allocation::Uniform,
            &mut rng,
        );
        let theta: ThetaStore = [out].into_iter().collect();
        let est = theta.sum_estimate();
        prop_assert!((est.value - batch.value_sum()).abs() < 1e-6);
        prop_assert_eq!(est.variance, 0.0);
    }

    /// The codec round-trips arbitrary batches bit-exactly.
    #[test]
    fn codec_roundtrip(batch in arb_batch(), w in 1.0f64..100.0) {
        let mut weighted = batch.clone();
        for s in batch.strata() {
            weighted.weights.set(s, w);
        }
        let columns = approxiot::core::ColumnarBatch::from_batch(&weighted);
        let frame = approxiot::mq::codec::encode_columns(&columns);
        let mut decoded = Batch::new();
        approxiot::mq::codec::decode_batch_any_into(&frame, &mut decoded).expect("well-formed frame");
        prop_assert_eq!(decoded, weighted);
    }

    /// Count reconstruction holds through the entire 4-layer tree for any
    /// fraction and any batch mix.
    #[test]
    fn tree_count_reconstruction(
        batch in arb_batch(),
        fraction in 0.05f64..1.0,
        seed in 0u64..200,
    ) {
        let topology = Topology::builder()
            .sources(8)
            .layer(LayerSpec::new(4))
            .layer(LayerSpec::new(2))
            .overall_fraction(fraction)
            .window(Duration::from_millis(100))
            .seed(seed)
            .build()
            .expect("valid fraction");
        let mut tree = SimEngine::new(topology, QuerySet::default()).expect("valid topology");
        let total = batch.len();
        let sources = batch.split_by_stratum();
        tree.push_interval(&sources);
        let count: f64 = tree.flush().iter().map(|r| r.count_hat).sum();
        prop_assert!((count - total as f64).abs() < 1e-6,
            "fraction {fraction}: {count} vs {total}");
    }

    /// Splitting a batch into chunks (with the weight map only on the first,
    /// as in transit) preserves the reconstructed count through a node.
    #[test]
    fn split_in_transit_preserves_counts(
        n_items in 2usize..100,
        chunk in 1usize..50,
        w in 1.0f64..8.0,
        seed in 0u64..500,
    ) {
        let mut batch = Batch::from_items(
            (0..n_items)
                .map(|k| StreamItem::with_meta(StratumId::new(0), 1.0, k as u64, 0))
                .collect(),
        );
        batch.weights.set(StratumId::new(0), w);
        let mut node = SamplingNode::new(Strategy::whs(), 0.5, seed).expect("valid");
        let mut theta = ThetaStore::new();
        for part in batch.split_weight_first(chunk) {
            let out = node.process_batch(&part);
            theta.push(WhsOutput { weights: out.weights.clone(), sample: out.items });
        }
        let expected = w * n_items as f64;
        prop_assert!((theta.count_estimate() - expected).abs() < 1e-6,
            "{} vs {expected}", theta.count_estimate());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PR-1 hot path through the facade: the stateful `WhsSampler` (now
    /// running on the zero-copy StrataIndex kernel) preserves Eq. 9 for
    /// arbitrary batches, exactly like the pure `whs_sample` reference.
    #[test]
    fn hot_path_node_count_reconstruction(
        batch in arb_batch(),
        fraction_pct in 5u32..100,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = WhsSampler::new(Allocation::Uniform);
        let size = (batch.len() * fraction_pct as usize).div_ceil(100);
        let out = sampler.sample_batch(&batch, size, &mut rng);
        for (stratum, originals) in group_by_stratum(&batch) {
            let kept = out.sample.iter().filter(|i| i.stratum == stratum).count();
            if kept == 0 {
                continue;
            }
            let lhs = out.weights.get(stratum) * kept as f64;
            prop_assert!((lhs - originals.len() as f64).abs() < 1e-6,
                "stratum {stratum}: {lhs} vs {}", originals.len());
        }
    }

    /// §III-E sharding through the runtime node: the union of
    /// per-shard outputs reconstructs the total count, and a fixed seed
    /// reproduces the shard outputs exactly.
    #[test]
    fn parallel_node_count_and_determinism(
        n_items in 1usize..2_000,
        workers in 1usize..7,
        seed in 0u64..500,
    ) {
        let batch = Batch::from_items(
            (0..n_items)
                .map(|k| StreamItem::with_meta(StratumId::new(0), 1.0, k as u64, 0))
                .collect(),
        );
        let run = || {
            let mut node = SamplingNode::with_workers(Strategy::whs(), 0.25, seed, workers)
                .expect("valid fraction");
            node.process_batch_parallel(&batch)
        };
        let outs = run();
        let theta: ThetaStore = outs
            .iter()
            .cloned()
            .map(|b| WhsOutput { weights: b.weights, sample: b.items })
            .collect();
        prop_assert!((theta.count_estimate() - n_items as f64).abs() < 1e-6,
            "{} vs {n_items}", theta.count_estimate());
        prop_assert_eq!(outs, run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault injection invariants over arbitrary loss/duplication/reorder
    /// configurations: every window's completeness lands in `[0, 1]`, the
    /// Horvitz–Thompson rescale keeps the count estimate finite and
    /// non-negative, and the per-hop fault accounting adds up.
    #[test]
    fn completeness_is_a_fraction_under_arbitrary_impairment(
        loss_pct in 0u32..60,
        dup_pct in 0u32..20,
        reorder_pct in 0u32..40,
        seed in 0u64..200,
    ) {
        let spec = ImpairmentSpec::none()
            .loss(loss_pct as f64 / 100.0)
            .duplicate(dup_pct as f64 / 100.0)
            .reorder(reorder_pct as f64 / 100.0);
        let topology = Topology::builder()
            .sources(4)
            .layer(LayerSpec::new(2))
            .layer(LayerSpec::new(1))
            .impair_all_hops(spec)
            .overall_fraction(0.5)
            .seed(seed)
            .build()
            .expect("valid fraction");
        let data: Vec<Vec<Batch>> = (0..3u64)
            .map(|t| {
                (0..4u32)
                    .map(|s| Batch::from_items(
                        (0..100u64)
                            .map(|k| StreamItem::with_meta(
                                StratumId::new(s), 1.0 + (k % 7) as f64, k, t * 1_000_000_000 + 1 + k))
                            .collect(),
                    ))
                    .collect()
            })
            .collect();
        let report = Driver::sim(topology, QuerySet::default())
            .expect("valid")
            .run(&data)
            .expect("sim run");
        for result in &report.results {
            prop_assert!((0.0..=1.0).contains(&result.completeness),
                "completeness {} outside [0,1]", result.completeness);
            prop_assert!(result.count_hat.is_finite() && result.count_hat >= 0.0);
        }
        if spec.is_noop() {
            prop_assert!(report.faults.is_clean());
            for result in &report.results {
                prop_assert_eq!(result.completeness, 1.0);
            }
        }
    }

    /// The zero-impairment control: for any seed, a run with no impairment
    /// and a run with an explicit all-zero spec produce bit-identical
    /// estimates — chaos off means *exactly* today's behaviour.
    #[test]
    fn zero_loss_reproduces_unimpaired_results(seed in 0u64..300) {
        let data: Vec<Vec<Batch>> = vec![(0..3u32)
            .map(|s| Batch::from_items(
                (0..150u64)
                    .map(|k| StreamItem::with_meta(StratumId::new(s), (k % 11) as f64 + 0.5, k, 1 + k))
                    .collect(),
            ))
            .collect()];
        let build = |impaired: bool| {
            let mut builder = Topology::builder()
                .sources(3)
                .layer(LayerSpec::new(2))
                .layer(LayerSpec::new(1))
                .overall_fraction(0.4)
                .seed(seed);
            if impaired {
                builder = builder.impair_all_hops(ImpairmentSpec::none());
            }
            builder.build().expect("valid fraction")
        };
        let plain = Driver::sim(build(false), QuerySet::default())
            .expect("valid").run(&data).expect("runs");
        let zeroed = Driver::sim(build(true), QuerySet::default())
            .expect("valid").run(&data).expect("runs");
        prop_assert_eq!(plain.results.len(), zeroed.results.len());
        for (a, b) in plain.results.iter().zip(&zeroed.results) {
            prop_assert_eq!(a.estimate.value.to_bits(), b.estimate.value.to_bits());
            prop_assert_eq!(a.count_hat.to_bits(), b.count_hat.to_bits());
            prop_assert_eq!(b.completeness, 1.0);
            prop_assert_eq!(b.dropped_late, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Node-level Horvitz–Thompson under a mid-window crash: for any seed
    /// and crash timing, a leaf losing its buffered samples leaves the
    /// per-window COUNT exact (the inclusion-factor rescale restores every
    /// stratum's count bit of mass) and the SUM within sampling tolerance
    /// of the no-churn reference. Strata span both leaves, so no stratum
    /// goes fully dark and the rescale has surviving mass to work with.
    #[test]
    fn crash_rescale_keeps_sum_and_count_unbiased(
        seed in 0u64..300,
        crash_at in 0u64..3,
        value_scale in 1u32..10,
    ) {
        let data: Vec<Vec<Batch>> = (0..3u64)
            .map(|t| {
                (0..4u64)
                    .map(|s| Batch::from_items(
                        (0..200u64)
                            .map(|k| StreamItem::with_meta(
                                StratumId::new((k % 3) as u32),
                                value_scale as f64 * (1.0 + ((s * 200 + k) % 13) as f64),
                                k,
                                t * 1_000_000_000 + 1 + k))
                            .collect(),
                    ))
                    .collect()
            })
            .collect();
        let build = |schedule: ChurnSchedule| {
            Topology::builder()
                .sources(4)
                .layer(LayerSpec::new(2))
                .layer(LayerSpec::new(1))
                .overall_fraction(0.5)
                .seed(seed)
                .churn(schedule)
                .build()
                .expect("valid")
        };
        let reference = Driver::sim(build(ChurnSchedule::new()), QuerySet::default())
            .expect("valid").run(&data).expect("runs");
        let crashed = Driver::sim(
            build(ChurnSchedule::new().crash(0, 0, crash_at)),
            QuerySet::default(),
        )
        .expect("valid").run(&data).expect("runs");
        prop_assert_eq!(reference.results.len(), crashed.results.len());
        prop_assert_eq!(crashed.churn.crashes, 1);
        for (r, c) in reference.results.iter().zip(&crashed.results) {
            // COUNT: per-stratum reconstruction is exact, and the
            // inclusion rescale is exactly 1/factor — so the rescaled
            // count matches the no-churn count to float round-off.
            prop_assert!((c.count_hat - r.count_hat).abs() < 1e-6,
                "window {}: count {} vs {}", c.window, c.count_hat, r.count_hat);
            // SUM: unbiased but noisy — only half of each stratum's items
            // survive the crashed window, so allow sampling tolerance.
            let rel = (c.estimate.value - r.estimate.value).abs() / r.estimate.value.abs();
            prop_assert!(rel < 0.25,
                "window {}: sum {} vs {} (rel {rel})",
                c.window, c.estimate.value, r.estimate.value);
            prop_assert!((0.0..=1.0).contains(&c.completeness));
            if c.window == crash_at {
                prop_assert!(c.completeness < 1.0, "crash window must be incomplete");
            }
        }
    }
}

proptest! {
    // Each case spawns both engines (the pipeline brings threads and a
    // broker), so keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fixed-seed sketch runs are bit-identical across Sim and
    /// Pipeline-replay for arbitrary seeds and shapes, and the inner hops
    /// bill identical v3 summary-frame bytes.
    #[test]
    fn sketch_runs_are_engine_identical(
        seed in 0u64..10_000,
        sources in 2usize..5,
        per_batch in 20usize..80,
    ) {
        let data: Vec<Vec<Batch>> = (0..2u64)
            .map(|t| {
                (0..sources)
                    .map(|s| {
                        Batch::from_items(
                            (0..per_batch)
                                .map(|k| {
                                    StreamItem::with_meta(
                                        StratumId::new(s as u32),
                                        (s + 1) as f64 * (k % 13) as f64,
                                        k as u64,
                                        t * 1_000_000_000 + 1 + k as u64,
                                    )
                                })
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        let build = || {
            Topology::builder()
                .sources(sources)
                .layer(LayerSpec::new(2))
                .layer(LayerSpec::new(1))
                .strategy(Strategy::sketch())
                .window(Duration::from_secs(1))
                .seed(seed)
                .build()
                .expect("valid")
        };
        let queries = || {
            QuerySet::new()
                .with(QuerySpec::Sum)
                .with(QuerySpec::Quantile(0.9))
                .with(QuerySpec::TopK(2))
        };
        let sim = Driver::new(build(), queries(), EngineKind::Sim)
            .expect("valid")
            .run(&data)
            .expect("sim run");
        let pipe = Driver::new(build(), queries(), EngineKind::pipeline_deterministic())
            .expect("valid")
            .run(&data)
            .expect("pipeline run");
        prop_assert_eq!(sim.results.len(), pipe.results.len());
        for (a, b) in sim.results.iter().zip(&pipe.results) {
            prop_assert_eq!(a.window, b.window);
            prop_assert_eq!(a.estimate.value.to_bits(), b.estimate.value.to_bits());
            prop_assert_eq!(a.count_hat.to_bits(), b.count_hat.to_bits());
            prop_assert_eq!(a.sampled_items, b.sampled_items);
            prop_assert_eq!(&a.queries, &b.queries);
        }
        prop_assert_eq!(&sim.bytes.hops()[1..], &pipe.bytes.hops()[1..]);
    }
}
