//! Property-based tests on the broker's log, codec and partitioning invariants.

use approxiot_core::{Batch, StratumId, StreamItem, WeightMap};
use approxiot_mq::codec::{decode_batch, encode_batch, encoded_len};
use approxiot_mq::{Broker, Consumer, PartitionLog, ProducerRecord, StartOffset};
use bytes::Bytes;
use proptest::prelude::*;
use std::time::Duration;

fn arb_batch() -> impl Strategy<Value = Batch> {
    (
        proptest::collection::vec((0u32..16, -1e9f64..1e9, 0u64..1000, 0u64..1_000_000), 0..50),
        proptest::collection::vec((0u32..16, 1.0f64..1e6), 0..8),
    )
        .prop_map(|(items, weights)| {
            let mut map = WeightMap::new();
            for (s, w) in weights {
                map.set(StratumId::new(s), w);
            }
            Batch::with_weights(
                map,
                items
                    .into_iter()
                    .map(|(s, v, seq, ts)| StreamItem::with_meta(StratumId::new(s), v, seq, ts))
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The codec round-trips arbitrary batches bit-exactly and the
    /// predicted length matches the frame.
    #[test]
    fn codec_roundtrip_and_length(batch in arb_batch()) {
        let frame = encode_batch(&batch);
        prop_assert_eq!(frame.len(), encoded_len(&batch));
        let decoded = decode_batch(&frame).expect("well-formed frame");
        prop_assert_eq!(decoded, batch);
    }

    /// Every truncation of a valid frame fails to decode (no partial reads).
    #[test]
    fn codec_rejects_all_truncations(batch in arb_batch(), cut in 0usize..100) {
        let frame = encode_batch(&batch);
        if frame.is_empty() {
            return Ok(());
        }
        let len = cut % frame.len();
        prop_assert!(decode_batch(&frame[..len]).is_err());
    }

    /// The buffer-reusing codec paths agree with the one-shot ones: a
    /// recycled `BytesMut` encodes the same bytes, and a recycled `Batch`
    /// decodes to the same contents — including when the buffers carry
    /// stale state from a previous (differently sized) frame.
    #[test]
    fn codec_reuse_paths_match_one_shot(first in arb_batch(), second in arb_batch()) {
        let mut buf = bytes::BytesMut::new();
        let mut recycled = Batch::new();
        for batch in [&first, &second] {
            approxiot_mq::codec::encode_batch_into(batch, &mut buf);
            prop_assert_eq!(&buf[..], &encode_batch(batch)[..]);
            prop_assert_eq!(buf.len(), encoded_len(batch));
            approxiot_mq::codec::decode_batch_into(&buf, &mut recycled).expect("well-formed");
            prop_assert_eq!(&recycled, batch);
        }
    }

    /// Truncation is rejected at *every* prefix length of an arbitrary
    /// frame — not just a sampled one — and never leaves a recycled batch
    /// partially decoded.
    #[test]
    fn codec_rejects_every_prefix_length(batch in arb_batch()) {
        let frame = encode_batch(&batch);
        let mut recycled = Batch::new();
        for len in 0..frame.len() {
            prop_assert!(
                approxiot_mq::codec::decode_batch_into(&frame[..len], &mut recycled).is_err(),
                "prefix of {len} bytes must not decode"
            );
            prop_assert!(recycled.is_empty(), "failed decode left items behind");
            prop_assert!(recycled.weights.is_empty(), "failed decode left weights behind");
        }
    }

    /// Corrupting any single byte of a valid frame never panics the
    /// decoder: it either errs gracefully with `MqError::Codec` (or an
    /// equally graceful non-codec error is impossible here) or decodes to
    /// some batch whose re-encoding is consistent with the frame length.
    #[test]
    fn codec_corruption_never_panics(batch in arb_batch(), pos in 0usize..2000, flip in 1u8..=255) {
        let mut frame = encode_batch(&batch).to_vec();
        if frame.is_empty() {
            return Ok(());
        }
        let pos = pos % frame.len();
        frame[pos] ^= flip;
        match decode_batch(&frame) {
            Err(approxiot_mq::MqError::Codec(_)) => {}
            Err(e) => prop_assert!(false, "corruption surfaced a non-codec error: {e}"),
            Ok(decoded) => {
                // A flipped byte can still be a valid frame (e.g. a value
                // byte changed, or two weight entries' strata collided and
                // merged), so the re-encoding can only shrink — and must
                // itself round-trip cleanly.
                prop_assert!(encoded_len(&decoded) <= frame.len());
                let reencoded = encode_batch(&decoded);
                prop_assert_eq!(decode_batch(&reencoded).expect("re-encode decodes"), decoded);
            }
        }
    }

    /// Feeding the decoder arbitrary bytes never panics.
    #[test]
    fn codec_survives_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        match decode_batch(&bytes) {
            Ok(decoded) => {
                prop_assert!(encoded_len(&decoded) <= bytes.len());
                let reencoded = encode_batch(&decoded);
                prop_assert_eq!(decode_batch(&reencoded).expect("re-encode decodes"), decoded);
            }
            Err(approxiot_mq::MqError::Codec(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// Log appends assign dense offsets and reads return exactly the asked
    /// range, regardless of retention.
    #[test]
    fn log_offsets_are_dense(
        appends in 1usize..200,
        retention in 1usize..64,
        read_from in 0u64..250,
        max in 1usize..64,
    ) {
        let log = PartitionLog::new(0, retention);
        for i in 0..appends {
            let offset = log.append(approxiot_mq::Record {
                partition: 0,
                offset: 0,
                timestamp: i as u64,
                key: None,
                value: Bytes::from(vec![i as u8]),
            }).expect("append");
            prop_assert_eq!(offset, i as u64);
        }
        prop_assert_eq!(log.latest_offset(), appends as u64);
        prop_assert_eq!(log.len(), appends.min(retention));
        match log.read_from(read_from, max, Duration::ZERO) {
            Ok(records) => {
                // Offsets are consecutive starting at read_from.
                for (i, r) in records.iter().enumerate() {
                    prop_assert_eq!(r.offset, read_from + i as u64);
                }
                prop_assert!(records.len() <= max);
            }
            Err(approxiot_mq::MqError::OffsetOutOfRange { earliest, .. }) => {
                prop_assert!(read_from < earliest);
            }
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// Reader-driven retention under arbitrary interleavings of appends,
    /// polls, subscribes and drops: the log never holds more than what
    /// its slowest reader has yet to poll past, and no reader ever sees a
    /// gap — its own slot pins everything it has not been handed.
    #[test]
    fn readers_bound_the_log_and_never_miss_a_record(
        ops in proptest::collection::vec((0u8..5, 0usize..4, 1usize..8), 1..120),
    ) {
        let broker = Broker::new();
        let topic = broker.create_topic("t", 1).expect("create");
        let log = &topic.partitions()[0];
        // Per live reader: the consumer, the position the log last heard
        // from it, and the next offset it must be handed.
        let mut readers: Vec<(Consumer, u64, u64)> = Vec::new();
        for (kind, pick, amount) in ops {
            match kind {
                0 | 1 => {
                    for _ in 0..amount {
                        topic.append(ProducerRecord::new(&b"x"[..])).expect("append");
                    }
                }
                2 if readers.len() < 4 => {
                    let consumer = Consumer::subscribe_all(topic.clone(), StartOffset::Earliest);
                    let start = consumer.position(0).expect("assigned");
                    prop_assert_eq!(start, log.earliest_offset());
                    readers.push((consumer, start, start));
                }
                3 if !readers.is_empty() => {
                    readers.remove(pick % readers.len());
                }
                _ if !readers.is_empty() => {
                    let (consumer, heard, expected) = {
                        let n = readers.len();
                        &mut readers[pick % n]
                    };
                    *heard = *expected;
                    for record in consumer.poll(amount, Duration::ZERO).expect("poll") {
                        prop_assert_eq!(record.offset, *expected, "dense, gap-free offsets");
                        *expected += 1;
                    }
                    let floor = readers.iter().map(|r| r.1).min().expect("non-empty");
                    prop_assert!(log.len() as u64 <= log.latest_offset() - floor);
                }
                _ => {}
            }
            prop_assert_eq!(log.len() as u64, log.latest_offset() - log.earliest_offset());
        }
    }

    /// Keyed records always map to a valid partition, deterministically.
    #[test]
    fn keyed_partitioning_is_stable(key in proptest::collection::vec(any::<u8>(), 0..32), partitions in 1u32..32) {
        let broker = Broker::new();
        let topic = broker.create_topic("t", partitions).expect("create");
        let record = ProducerRecord::new(&b"v"[..]).with_key(key.clone());
        let p1 = topic.partition_for(&record);
        let p2 = topic.partition_for(&ProducerRecord::new(&b"other"[..]).with_key(key));
        prop_assert!(p1 < partitions);
        prop_assert_eq!(p1, p2);
    }
}
