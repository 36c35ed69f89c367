//! Engine-equivalence integration tests: the same [`Topology`] +
//! [`QuerySet`] description runs on both execution engines — the
//! virtual-time sim and the threaded pipeline in deterministic replay
//! mode — and fixed-seed runs produce **bit-identical** window estimates.
//!
//! This is the contract that makes the threaded engine trustworthy: every
//! sampling decision it makes over the real wire path (broker topics,
//! codec frames, per-node threads) is the one the deterministic simulation
//! makes.

use approxiot::mq;
use approxiot::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const SEC: u64 = 1_000_000_000;

/// The asymmetric 4-layer tree of the acceptance criterion:
/// 5 sources → 3 edge → 2 edge → root (uneven fan-in at every hop).
fn asymmetric_topology(fraction: f64, workers: usize) -> Topology {
    Topology::builder()
        .sources(5)
        .layer(LayerSpec::new(3).workers(workers))
        .layer(LayerSpec::new(2).workers(workers))
        .overall_fraction(fraction)
        .window(Duration::from_secs(1))
        .seed(0xE0_0E)
        .build()
        .expect("valid fraction")
}

fn multi_queries() -> QuerySet {
    QuerySet::new()
        .with(QuerySpec::Sum)
        .with(QuerySpec::Quantile(0.5))
        .with(QuerySpec::TopK(3))
}

/// Noisy multi-stratum intervals with real event timestamps spanning
/// several windows.
fn noisy_intervals(intervals: usize, sources: usize, per_batch: usize) -> Vec<Vec<Batch>> {
    let mut rng = StdRng::seed_from_u64(77);
    (0..intervals as u64)
        .map(|t| {
            (0..sources)
                .map(|s| {
                    let scale = 10f64.powi((s % 3) as i32);
                    Batch::from_items(
                        (0..per_batch)
                            .map(|k| {
                                StreamItem::with_meta(
                                    StratumId::new(s as u32),
                                    scale * (1.0 + rng.random::<f64>()),
                                    k as u64,
                                    t * SEC + 1 + k as u64,
                                )
                            })
                            .collect(),
                    )
                })
                .collect()
        })
        .collect()
}

/// Asserts two runs produced bit-identical window estimates, including
/// every answer in the per-query result map.
fn assert_identical(sim: &RunReport, pipeline: &RunReport) {
    assert_eq!(sim.results.len(), pipeline.results.len(), "window count");
    for (a, b) in sim.results.iter().zip(&pipeline.results) {
        assert_eq!(a.window, b.window);
        assert_eq!(
            a.estimate.value.to_bits(),
            b.estimate.value.to_bits(),
            "window {} estimate: {} vs {}",
            a.window,
            a.estimate.value,
            b.estimate.value
        );
        assert_eq!(a.estimate.variance.to_bits(), b.estimate.variance.to_bits());
        assert_eq!(a.count_hat.to_bits(), b.count_hat.to_bits());
        assert_eq!(a.sampled_items, b.sampled_items);
        assert_eq!(a.per_stratum, b.per_stratum);
        assert_eq!(a.queries, b.queries, "per-query result maps");
    }
}

#[test]
fn asymmetric_four_layer_topology_is_engine_identical() {
    let data = noisy_intervals(4, 5, 300);
    let sim = Driver::new(
        asymmetric_topology(0.3, 1),
        multi_queries(),
        EngineKind::Sim,
    )
    .expect("valid")
    .run(&data)
    .expect("sim run");
    let pipeline = Driver::new(
        asymmetric_topology(0.3, 1),
        multi_queries(),
        EngineKind::pipeline_deterministic(),
    )
    .expect("valid")
    .run(&data)
    .expect("pipeline run");
    assert_eq!(sim.results.len(), 4, "one result per 1s window");
    assert_identical(&sim, &pipeline);
    // The multi-query answers are present and non-trivial.
    let r = &sim.results[0];
    assert!(r.queries.quantile(0.5).is_some());
    let top = r.queries.top_k(3).expect("top-k answer");
    assert_eq!(top.len(), 3);
    // Ranked descending by estimated stratum SUM.
    assert!(top[0].1.value >= top[1].1.value && top[1].1.value >= top[2].1.value);
}

#[test]
fn sharded_workers_stay_engine_identical() {
    // §III-E parallel shards are deterministic too: each node's persistent
    // worker pool derives per-shard RNGs from the node seed on both
    // engines.
    let data = noisy_intervals(3, 5, 400);
    let sim = Driver::new(
        asymmetric_topology(0.2, 2),
        multi_queries(),
        EngineKind::Sim,
    )
    .expect("valid")
    .run(&data)
    .expect("sim run");
    let pipeline = Driver::new(
        asymmetric_topology(0.2, 2),
        multi_queries(),
        EngineKind::pipeline_deterministic(),
    )
    .expect("valid")
    .run(&data)
    .expect("pipeline run");
    assert_identical(&sim, &pipeline);
}

#[test]
fn five_layer_heterogeneous_tree_is_engine_identical() {
    // Deeper than the paper's testbed, with a per-layer strategy override
    // and a leaf-heavy split — the description both engines must honour.
    let build = || {
        Topology::builder()
            .sources(6)
            .layer(LayerSpec::new(4))
            .layer(LayerSpec::new(2).strategy(Strategy::Native))
            .layer(LayerSpec::new(1))
            .split(FractionSplit::LeafHeavy)
            .overall_fraction(0.25)
            .window(Duration::from_secs(1))
            .seed(0x5EED)
            .build()
            .expect("valid")
    };
    let data = noisy_intervals(3, 6, 200);
    let sim = Driver::new(build(), QuerySet::default(), EngineKind::Sim)
        .expect("valid")
        .run(&data)
        .expect("sim run");
    let pipeline = Driver::new(
        build(),
        QuerySet::default(),
        EngineKind::pipeline_deterministic(),
    )
    .expect("valid")
    .run(&data)
    .expect("pipeline run");
    assert_identical(&sim, &pipeline);
    // LeafHeavy split: the whole budget at the first layer, so the count
    // still reconstructs exactly.
    let total: f64 = sim.results.iter().map(|r| r.count_hat).sum();
    assert!((total - 3600.0).abs() < 1e-6, "count_hat {total}");
}

#[test]
fn sketch_topology_is_engine_identical() {
    // The PR 10 acceptance criterion: a fixed-seed sketch run — leaves
    // summarizing, inner nodes merging, the root answering from the merged
    // summaries — must be bit-identical across Sim and Pipeline-replay,
    // and every inner hop must bill the exact same v3 summary-frame bytes.
    let build = || {
        Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3))
            .layer(LayerSpec::new(2))
            .strategy(Strategy::sketch())
            .overall_fraction(0.3)
            .window(Duration::from_secs(1))
            .seed(0xE0_0E)
            .build()
            .expect("valid")
    };
    let data = noisy_intervals(4, 5, 300);
    let sim = Driver::new(build(), multi_queries(), EngineKind::Sim)
        .expect("valid")
        .run(&data)
        .expect("sim run");
    let pipeline = Driver::new(
        build(),
        multi_queries(),
        EngineKind::pipeline_deterministic(),
    )
    .expect("valid")
    .run(&data)
    .expect("pipeline run");
    assert_eq!(sim.results.len(), 4, "one result per 1s window");
    assert_identical(&sim, &pipeline);
    // Every inner hop carries one v3 summary frame per node per interval;
    // both engines bill the identical encoded length. (Hop 0 ships item
    // frames and is billed v1 in Sim vs the v2 wire in the pipeline, like
    // every other strategy.)
    assert_eq!(
        &sim.bytes.hops()[1..],
        &pipeline.bytes.hops()[1..],
        "inner-hop summary bytes"
    );
    // Moments travel losslessly: the SUM estimate is exact with zero
    // variance, and the sketch answers the full multi-query set.
    let truth: f64 = data.iter().flatten().map(Batch::value_sum).sum();
    let total: f64 = sim.results.iter().map(|r| r.estimate.value).sum();
    assert!(
        (total - truth).abs() < 1e-6 * truth.abs(),
        "sum {total} vs {truth}"
    );
    for result in &sim.results {
        assert_eq!(result.estimate.variance, 0.0);
        assert!(result.queries.quantile(0.5).is_some(), "median answered");
        let top = result.queries.top_k(3).expect("top-k answered");
        assert_eq!(top.len(), 3);
        assert!(top[0].1.value >= top[1].1.value && top[1].1.value >= top[2].1.value);
    }
}

#[test]
fn impaired_topology_stays_engine_identical() {
    // The acceptance criterion: fixed-seed loss + jitter + duplication +
    // reorder on the asymmetric tree must leave Sim and Pipeline-replay
    // bit-identical — every sender's fault stream drops, duplicates and
    // reorders the same frames on both engines.
    let chaos = ImpairmentSpec::none()
        .loss(0.10)
        .jitter(Duration::from_millis(30))
        .duplicate(0.05)
        .reorder(0.20);
    let build = || {
        Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3).impairment(chaos))
            .layer(LayerSpec::new(2).impairment(chaos))
            .root_impairment(chaos)
            .overall_fraction(0.3)
            .window(Duration::from_secs(1))
            .seed(0xE0_0E)
            .build()
            .expect("valid fraction")
    };
    let data = noisy_intervals(4, 5, 300);
    let sim = Driver::new(build(), multi_queries(), EngineKind::Sim)
        .expect("valid")
        .run(&data)
        .expect("sim run");
    let pipeline = Driver::new(
        build(),
        multi_queries(),
        EngineKind::pipeline_deterministic(),
    )
    .expect("valid")
    .run(&data)
    .expect("pipeline run");
    assert_identical(&sim, &pipeline);
    // The chaos actually bit: something was dropped, and the per-hop fault
    // accounting agrees across engines.
    assert!(sim.faults.dropped_items() > 0, "loss must have fired");
    assert_eq!(sim.faults, pipeline.faults, "per-hop fault accounting");
    // Completeness is a real fraction and both engines agree bitwise.
    for (a, b) in sim.results.iter().zip(&pipeline.results) {
        assert!((0.0..=1.0).contains(&a.completeness));
        assert_eq!(a.completeness.to_bits(), b.completeness.to_bits());
    }
}

#[test]
fn impaired_sharded_workers_stay_engine_identical() {
    // §III-E shard bursts are where bounded reorder actually permutes
    // frames; the swap must replay identically through the broker.
    let chaos = ImpairmentSpec::none().loss(0.05).reorder(0.5);
    let build = || {
        Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3).workers(2).impairment(chaos))
            .layer(LayerSpec::new(2).workers(2).impairment(chaos))
            .root_impairment(chaos)
            .overall_fraction(0.2)
            .window(Duration::from_secs(1))
            .seed(0x5EED)
            .build()
            .expect("valid fraction")
    };
    let data = noisy_intervals(3, 5, 400);
    let sim = Driver::new(build(), multi_queries(), EngineKind::Sim)
        .expect("valid")
        .run(&data)
        .expect("sim run");
    let pipeline = Driver::new(
        build(),
        multi_queries(),
        EngineKind::pipeline_deterministic(),
    )
    .expect("valid")
    .run(&data)
    .expect("pipeline run");
    assert_identical(&sim, &pipeline);
    assert_eq!(sim.faults, pipeline.faults);
}

#[test]
fn zero_impairment_config_changes_nothing() {
    // A fully wired but all-zero Impairment spec must be a strict no-op:
    // bit-identical to a topology with no impairment at all, on both
    // engines.
    let data = noisy_intervals(3, 5, 200);
    let zero = ImpairmentSpec::none();
    let with_zero_spec = || {
        Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3).impairment(zero))
            .layer(LayerSpec::new(2).impairment(zero))
            .root_impairment(zero)
            .overall_fraction(0.3)
            .window(Duration::from_secs(1))
            .seed(0xE0_0E)
            .build()
            .expect("valid fraction")
    };
    for kind in [EngineKind::Sim, EngineKind::pipeline_deterministic()] {
        let plain = Driver::new(asymmetric_topology(0.3, 1), multi_queries(), kind.clone())
            .expect("valid")
            .run(&data)
            .expect("plain run");
        let zeroed = Driver::new(with_zero_spec(), multi_queries(), kind)
            .expect("valid")
            .run(&data)
            .expect("zero-spec run");
        assert_identical(&plain, &zeroed);
        assert_eq!(plain.bytes, zeroed.bytes, "byte accounting untouched");
        assert!(zeroed.faults.is_clean());
        for result in &zeroed.results {
            assert_eq!(result.completeness, 1.0);
            assert_eq!(result.dropped_late, 0);
        }
    }
}

#[test]
fn wall_clock_pipeline_survives_impairment() {
    // The wall-clock engine is not bit-reproducible, but under loss its
    // rescaled count must still land near the truth, with sane
    // completeness accounting.
    let chaos = ImpairmentSpec::none()
        .loss(0.05)
        .jitter(Duration::from_millis(2));
    let build = || {
        Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3).impairment(chaos))
            .layer(LayerSpec::new(2).impairment(chaos))
            .root_impairment(chaos)
            .overall_fraction(0.5)
            .window(Duration::from_millis(100))
            .allowed_lateness(Duration::from_millis(20))
            .seed(0xBEEF)
            .build()
            .expect("valid fraction")
    };
    let data = noisy_intervals(4, 5, 200);
    let report = Driver::new(build(), QuerySet::default(), EngineKind::pipeline())
        .expect("valid")
        .run(&data)
        .expect("wall run");
    let count: f64 = report.results.iter().map(|r| r.count_hat).sum();
    // 4000 items, ~85% end-to-end survival, rescaled back to ~4000: a wide
    // tolerance since frame-level loss on few frames is noisy.
    assert!(
        count > 2000.0 && count < 6500.0,
        "rescaled count way off: {count}"
    );
    for result in &report.results {
        assert!((0.0..=1.0).contains(&result.completeness));
    }
}

#[test]
fn wall_clock_pipeline_runs_the_same_description() {
    // The wall-clock engine is not bit-identical (event time is re-stamped
    // at send), but the same description must run and reconstruct counts.
    let data = noisy_intervals(3, 5, 200);
    let report = Driver::new(
        asymmetric_topology(0.3, 1),
        multi_queries(),
        EngineKind::pipeline(),
    )
    .expect("valid")
    .run(&data)
    .expect("wall run");
    let count: f64 = report.results.iter().map(|r| r.count_hat).sum();
    assert!(
        (count - 3000.0).abs() < 1e-6,
        "count through wall-clock pipeline: {count}"
    );
    let hops = report.bytes.hops();
    assert_eq!(hops.len(), 3);
    // Each sampling stage keeps ~67%, so every hop carries fewer bytes.
    assert!(hops[1] < hops[0] && hops[2] < hops[1], "hops {hops:?}");
}

#[test]
fn churned_topology_stays_engine_identical() {
    // The PR 6 acceptance criterion: a schedule mixing a mid-window
    // crash, a reboot (down/up span), a replacement node and a low-power
    // window on the asymmetric tree must leave Sim and Pipeline-replay
    // bit-identical — every node applies the same disposition at the same
    // processing moments on both engines.
    let schedule = || {
        ChurnSchedule::new()
            .crash(0, 1, 2) // leaf 1 loses its interval-2 buffer
            .down(0, 2, 1, 3) // leaf 2 reboots: dark for [1, 3)
            .replace(1, 0, 3) // mid 0 swapped for a fresh unit at 3
            .low_power(0, 0, 2, 5, 0.5) // leaf 0 halves its fraction
    };
    let build = || {
        Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3))
            .layer(LayerSpec::new(2))
            .overall_fraction(0.3)
            .window(Duration::from_secs(1))
            .seed(0xE0_0E)
            .churn(schedule())
            .build()
            .expect("valid churn schedule")
    };
    let data = noisy_intervals(5, 5, 300);
    let sim = Driver::new(build(), multi_queries(), EngineKind::Sim)
        .expect("valid")
        .run(&data)
        .expect("sim run");
    let pipeline = Driver::new(
        build(),
        multi_queries(),
        EngineKind::pipeline_deterministic(),
    )
    .expect("valid")
    .run(&data)
    .expect("pipeline run");
    assert_identical(&sim, &pipeline);
    // The schedule actually bit, and both engines agree on the accounting.
    assert!(sim.churn.node_downtime > 0, "outage must have fired");
    assert!(sim.churn.crashes > 0 && sim.churn.replacements > 0);
    assert_eq!(sim.churn, pipeline.churn, "churn accounting");
    // Completeness reflects the outages bitwise on both engines.
    let mut saw_incomplete = false;
    for (a, b) in sim.results.iter().zip(&pipeline.results) {
        assert!((0.0..=1.0).contains(&a.completeness));
        assert_eq!(a.completeness.to_bits(), b.completeness.to_bits());
        saw_incomplete |= a.completeness < 1.0;
    }
    assert!(saw_incomplete, "an outage window must report < 1 complete");
}

#[test]
fn churn_and_impairment_compose_engine_identically() {
    // Packet-level impairment and node-level churn share the timeline;
    // their seeded streams are disjoint and the composition must still
    // replay bit-identically.
    let chaos = ImpairmentSpec::none().loss(0.10).duplicate(0.05);
    let build = || {
        Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3).impairment(chaos))
            .layer(LayerSpec::new(2).impairment(chaos))
            .root_impairment(chaos)
            .overall_fraction(0.3)
            .window(Duration::from_secs(1))
            .seed(0xE0_0E)
            .churn(ChurnSchedule::new().down(1, 1, 1, 2).crash(0, 0, 2))
            .build()
            .expect("valid")
    };
    let data = noisy_intervals(4, 5, 300);
    let sim = Driver::new(build(), multi_queries(), EngineKind::Sim)
        .expect("valid")
        .run(&data)
        .expect("sim run");
    let pipeline = Driver::new(
        build(),
        multi_queries(),
        EngineKind::pipeline_deterministic(),
    )
    .expect("valid")
    .run(&data)
    .expect("pipeline run");
    assert_identical(&sim, &pipeline);
    assert_eq!(sim.faults, pipeline.faults);
    assert_eq!(sim.churn, pipeline.churn);
}

/// An all-native tree, 5 sources → 3 → 2 → root, with `chaos` on every
/// hop and `churn` on the edge layers.
fn native_topology(chaos: ImpairmentSpec, churn: ChurnSchedule) -> Topology {
    Topology::builder()
        .sources(5)
        .layer(LayerSpec::new(3).impairment(chaos))
        .layer(LayerSpec::new(2).impairment(chaos))
        .root_impairment(chaos)
        .strategy(Strategy::Native)
        .window(Duration::from_secs(1))
        .seed(0xE0_0E)
        .churn(churn)
        .build()
        .expect("valid")
}

/// Asserts both engines put the same frames on every hop of a native tree
/// whose every frame carries `items` items and no weights. The engines
/// bill a frame in different versions — Sim as the v1 frame it models,
/// the pipeline as the v2 frame it sends (12 bytes longer) — so per hop
/// the byte counts must be the same whole number of frames of each
/// version.
fn assert_same_native_frames(sim: &RunReport, pipeline: &RunReport, items: usize) {
    let frame = Batch::from_items(vec![StreamItem::new(StratumId::new(0), 0.0); items]);
    let (v1, v2) = (
        mq::codec::encoded_len(&frame) as u64,
        mq::codec::encoded_len_v2(&frame) as u64,
    );
    for (hop, (s, p)) in sim
        .bytes
        .hops()
        .iter()
        .zip(pipeline.bytes.hops())
        .enumerate()
    {
        assert_eq!(s % v1, 0, "hop {hop}: Sim bytes are whole frames");
        assert_eq!(
            s / v1 * v2,
            *p,
            "hop {hop}: the same frames on both engines"
        );
    }
}

#[test]
fn impaired_native_tree_stays_engine_identical() {
    // Native nodes relay received frames without decoding them; the relay
    // must meet the same fault stream, frame for frame, as the sim
    // engine's decoded batches.
    let chaos = ImpairmentSpec::none()
        .loss(0.10)
        .jitter(Duration::from_millis(30))
        .duplicate(0.10)
        .reorder(0.20);
    let build = || native_topology(chaos, ChurnSchedule::new());
    let data = noisy_intervals(4, 5, 300);
    let sim = Driver::new(build(), multi_queries(), EngineKind::Sim)
        .expect("valid")
        .run(&data)
        .expect("sim run");
    let pipeline = Driver::new(
        build(),
        multi_queries(),
        EngineKind::pipeline_deterministic(),
    )
    .expect("valid")
    .run(&data)
    .expect("pipeline run");
    assert_identical(&sim, &pipeline);
    assert!(sim.faults.dropped_items() > 0 && sim.faults.duplicated_items() > 0);
    assert_eq!(sim.faults, pipeline.faults, "per-hop fault accounting");
    assert_same_native_frames(&sim, &pipeline, 300);
    for (a, b) in sim.results.iter().zip(&pipeline.results) {
        assert_eq!(a.completeness.to_bits(), b.completeness.to_bits());
    }
}

#[test]
fn churned_native_tree_stays_engine_identical() {
    // A down node and a crashed node each lose what reaches them; the
    // relay must lose exactly the frames the sim engine loses.
    let schedule = ChurnSchedule::new()
        .down(0, 2, 1, 3)
        .crash(0, 1, 2)
        .crash(1, 0, 3)
        .replace(1, 0, 4);
    let build = || native_topology(ImpairmentSpec::none().loss(0.05), schedule.clone());
    let data = noisy_intervals(5, 5, 300);
    let sim = Driver::new(build(), multi_queries(), EngineKind::Sim)
        .expect("valid")
        .run(&data)
        .expect("sim run");
    let pipeline = Driver::new(
        build(),
        multi_queries(),
        EngineKind::pipeline_deterministic(),
    )
    .expect("valid")
    .run(&data)
    .expect("pipeline run");
    assert_identical(&sim, &pipeline);
    assert!(sim.churn.node_downtime > 0 && sim.churn.crashes > 0);
    assert_eq!(sim.churn, pipeline.churn, "churn accounting");
    assert_eq!(sim.faults, pipeline.faults, "per-hop fault accounting");
    assert_same_native_frames(&sim, &pipeline, 300);
    let hops = sim.bytes.hops();
    assert!(
        hops[1] < hops[0] && hops[2] < hops[1],
        "churn lost frames: {hops:?}"
    );
}

#[test]
fn wall_clock_native_hops_relay_every_byte() {
    // With nothing lost, a native node sends on exactly the bytes it
    // received: every hop carries hop 0's bytes, and the root counts
    // every item.
    let topology = Topology::builder()
        .sources(5)
        .layer(LayerSpec::new(3))
        .layer(LayerSpec::new(2))
        .strategy(Strategy::Native)
        .window(Duration::from_secs(1))
        // Generous, so a host stall cannot turn into late drops.
        .allowed_lateness(Duration::from_secs(60))
        .seed(0xBEEF)
        .build()
        .expect("valid");
    let data = noisy_intervals(3, 5, 200);
    let report = Driver::new(topology, QuerySet::default(), EngineKind::pipeline())
        .expect("valid")
        .run(&data)
        .expect("wall run");
    let hops = report.bytes.hops();
    assert!(hops[0] > 0);
    assert_eq!(hops, &[hops[0]; 3][..], "every hop relays hop 0's bytes");
    let count: f64 = report.results.iter().map(|r| r.count_hat).sum();
    assert_eq!(count, 3000.0);
}

#[test]
fn empty_churn_schedule_changes_nothing() {
    // A wired but empty ChurnSchedule must be a strict no-op: bit-identical
    // to a topology with no churn at all, on both engines.
    let data = noisy_intervals(3, 5, 200);
    let with_empty_schedule = || {
        Topology::builder()
            .sources(5)
            .layer(LayerSpec::new(3))
            .layer(LayerSpec::new(2))
            .overall_fraction(0.3)
            .window(Duration::from_secs(1))
            .seed(0xE0_0E)
            .churn(ChurnSchedule::new())
            .build()
            .expect("valid")
    };
    for kind in [EngineKind::Sim, EngineKind::pipeline_deterministic()] {
        let plain = Driver::new(asymmetric_topology(0.3, 1), multi_queries(), kind.clone())
            .expect("valid")
            .run(&data)
            .expect("plain run");
        let empty = Driver::new(with_empty_schedule(), multi_queries(), kind)
            .expect("valid")
            .run(&data)
            .expect("empty-schedule run");
        assert_identical(&plain, &empty);
        assert_eq!(plain.bytes, empty.bytes, "byte accounting untouched");
        assert_eq!(empty.churn, ChurnStats::default());
        for result in &empty.results {
            assert_eq!(result.completeness, 1.0);
        }
    }
}
