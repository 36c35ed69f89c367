//! Failure-injection integration tests: the system's behaviour when parts
//! of the pipeline misbehave — slow links, dropped batches, bursty strata,
//! topic retention pressure.

use approxiot::core::ColumnarBatch;
use approxiot::mq::{codec, Broker, MqError};
use approxiot::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const WINDOW: Duration = Duration::from_millis(100);

/// The paper's 8 → 4 → 2 → root WHS tree on the virtual-time engine, which
/// routes however many sources an interval carries.
fn paper_tree(fraction: f64, window: Duration, seed: u64) -> SimEngine {
    let topology = Topology::builder()
        .sources(8)
        .layer(LayerSpec::new(4))
        .layer(LayerSpec::new(2))
        .overall_fraction(fraction)
        .window(window)
        .seed(seed)
        .build()
        .expect("valid fraction");
    SimEngine::new(topology, QuerySet::default()).expect("valid topology")
}

/// A mid-layer node crashing loses its share of the stream, but the
/// estimator still produces a sane (partial) answer rather than garbage:
/// the reconstructed count equals the surviving share.
#[test]
fn dropped_mid_node_degrades_gracefully() {
    let mut tree = paper_tree(1.0, Duration::from_secs(1), 0x10D5);
    // 8 sources; simulate the crash by dropping the batches of the sources
    // routed through "mid node 1" (leaves 1 and 3 → sources 1, 3, 5, 7).
    let mut surviving_items = 0usize;
    let sources: Vec<Batch> = (0..8u32)
        .map(|s| {
            if s % 2 == 1 {
                Batch::new() // lost
            } else {
                surviving_items += 100;
                Batch::from_items(
                    (0..100)
                        .map(|k| StreamItem::with_meta(StratumId::new(s), 1.0, k, 0))
                        .collect(),
                )
            }
        })
        .collect();
    tree.push_interval(&sources);
    let results = tree.flush();
    assert_eq!(results.len(), 1);
    assert!((results[0].count_hat - surviving_items as f64).abs() < 1e-9);
}

/// A stratum bursting 100x for one interval must not starve the others
/// (uniform allocation guarantees every stratum its share).
#[test]
fn bursty_stratum_does_not_starve_others() {
    let mut tree = paper_tree(0.1, Duration::from_secs(1), 3);
    let mut items = Vec::new();
    for k in 0..100_000u64 {
        items.push(StreamItem::with_meta(StratumId::new(0), 1.0, k, 0)); // burst
    }
    for k in 0..200u64 {
        items.push(StreamItem::with_meta(StratumId::new(1), 1_000.0, k, 0)); // steady
    }
    tree.push_interval(&[Batch::from_items(items)]);
    let results = tree.flush();
    let r = &results[0];
    let steady = r
        .per_stratum
        .get(&StratumId::new(1))
        .expect("stratum 1 present");
    // The steady stratum's sum must be reconstructed well despite the burst.
    assert!(
        accuracy_loss(steady.value, 200_000.0) < 0.05,
        "steady stratum lost under burst: {}",
        steady.value
    );
}

/// Weight metadata delayed behind its items (the Figure 3 interval-split
/// scenario) still reconstructs the right totals via carry-forward.
#[test]
fn weight_carry_forward_survives_interval_splits() {
    let mut node = SamplingNode::new(Strategy::whs(), 0.5, 11).expect("valid");
    // Upstream sent a batch whose weight metadata says 4.0.
    let mut first = Batch::from_items(
        (0..10)
            .map(|k| StreamItem::with_meta(StratumId::new(0), 1.0, k, 0))
            .collect(),
    );
    first.weights.set(StratumId::new(0), 4.0);
    // ...but the items got split in transit: the second half arrives in the
    // next interval with NO weight map.
    let chunks = first.split_weight_first(5);
    let mut theta = ThetaStore::new();
    for chunk in &chunks {
        let out = node.process_batch(chunk);
        theta.push(WhsOutput {
            weights: out.weights.clone(),
            sample: out.items.clone(),
        });
    }
    // 10 original items at input weight 4 → reconstructed count 40.
    assert!((theta.count_estimate() - 40.0).abs() < 1e-9);
}

/// Retention pressure: a consumer that falls behind a bounded topic is
/// reset to the earliest retained offset and keeps making progress instead
/// of wedging.
#[test]
fn slow_consumer_survives_retention_truncation() {
    let broker = Broker::new();
    let topic = broker
        .create_topic_with_retention("t", 1, 4)
        .expect("create");
    let producer = BatchProducer::new(Arc::clone(&topic));
    let mut consumer = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
    for i in 0..100 {
        let batch = Batch::from_items(vec![StreamItem::new(StratumId::new(0), i as f64)]);
        producer.send_v2_to(0, &batch, 0).expect("send");
    }
    let records = consumer.poll(100, Duration::ZERO).expect("poll recovers");
    assert!(!records.is_empty());
    assert!(records[0].offset >= 96, "reset to the retained suffix");
}

/// Corrupt frames are reported as codec errors, not panics or silent
/// garbage.
#[test]
fn corrupt_frames_are_rejected() {
    let batch = Batch::from_items(vec![StreamItem::new(StratumId::new(0), 1.0)]);
    let mut frame = codec::encode_columns(&ColumnarBatch::from_batch(&batch)).to_vec();
    frame[10] ^= 0xFF;
    // Either a codec error or (if the flip hit a value byte) a decode that
    // differs — never a panic. Truncation must always error.
    let _ = codec::decode_columns(&frame);
    assert!(matches!(
        codec::decode_columns(&frame[..frame.len() - 1]),
        Err(MqError::Codec(_))
    ));
}

/// A pipeline whose broker topics are closed mid-run drains what it has and
/// terminates (no deadlock), producing results for the data that made it.
#[test]
fn pipeline_with_empty_sources_terminates() {
    let hop = Duration::from_millis(1);
    let topology = Topology::builder()
        .sources(2)
        .layer(LayerSpec::new(2).delay(hop))
        .layer(LayerSpec::new(1).delay(hop))
        .root_delay(hop)
        .overall_fraction(0.5)
        .window(WINDOW)
        .seed(1)
        .build()
        .expect("valid");
    // Sources that produce nothing at all.
    let data = vec![vec![Batch::new(), Batch::new()]];
    let report = Driver::pipeline(topology, QuerySet::default())
        .expect("valid")
        .run(&data)
        .expect("engine open");
    assert!(report.results.is_empty());
    assert_eq!(report.source_items, 0);
}

/// Extreme fraction (keep ~everything vs keep almost nothing) both remain
/// well-defined end to end.
#[test]
fn extreme_fractions_are_stable() {
    for fraction in [0.01, 1.0] {
        let mut rng = StdRng::seed_from_u64(21);
        let mut mix = scenarios::gaussian_mix(10_000.0, WINDOW);
        let mut tree = paper_tree(fraction, WINDOW, 21);
        let batch = mix.next_interval(&mut rng);
        let truth = batch.value_sum();
        let sources = batch.split_by_stratum();
        tree.push_interval(&sources);
        let results = tree.flush();
        assert_eq!(results.len(), 1);
        let est = results[0].estimate.value;
        assert!(est.is_finite());
        if fraction == 1.0 {
            assert!((est - truth).abs() < 1e-6);
        }
    }
}
