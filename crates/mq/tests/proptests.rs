//! Property-based tests on the broker's log, codec and retention invariants.
//!
//! The codec properties run on the v2 item frame through both of its
//! decoders: `decode_columns{,_into}` for columnar consumers and
//! `decode_batch_any_into` for AoS ones.

use approxiot_core::{Batch, ColumnarBatch, StratumId, StreamItem, WeightMap};
use approxiot_mq::codec::{
    decode_batch_any_into, decode_columns, decode_columns_into, encode_batch_v2_into,
    encode_columns, encoded_len_columns, encoded_len_v2,
};
use approxiot_mq::{Broker, Consumer, MqError, PartitionLog, ProducerRecord, StartOffset};
use bytes::{Bytes, BytesMut};
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

/// `batch` as a v2 frame, through the AoS entry point.
fn v2_frame(batch: &Batch) -> Vec<u8> {
    let mut buf = BytesMut::new();
    encode_batch_v2_into(batch, &mut buf);
    buf.to_vec()
}

/// Decodes `frame` through both item decoders, checks that they agree
/// and that any error is a codec error, and returns the columnar result.
fn decode_both(frame: &[u8]) -> Result<ColumnarBatch, MqError> {
    let columns = decode_columns(frame);
    let mut aos = Batch::new();
    let any = decode_batch_any_into(frame, &mut aos);
    match &columns {
        Ok(c) => {
            assert_eq!(any, Ok(()));
            assert_eq!(c.to_batch(), aos);
        }
        Err(e) => {
            assert!(matches!(e, MqError::Codec(_)), "non-codec error: {e}");
            assert_eq!(any.as_ref(), Err(e));
        }
    }
    columns
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The codec round-trips arbitrary batches bit-exactly and the
    /// predicted length matches the frame.
    #[test]
    fn codec_roundtrip_and_length(batch in arb_batch()) {
        let frame = v2_frame(&batch);
        prop_assert_eq!(frame.len(), encoded_len_v2(&batch));
        let decoded = decode_both(&frame).expect("well-formed frame");
        prop_assert_eq!(&decoded, &ColumnarBatch::from_batch(&batch));
        prop_assert_eq!(decoded.to_batch(), batch);
    }

    /// Every truncation of a valid frame fails to decode (no partial reads).
    #[test]
    fn codec_rejects_all_truncations(batch in arb_batch(), cut in 0usize..100) {
        let frame = v2_frame(&batch);
        let len = cut % frame.len(); // frame is never empty (header + counts)
        prop_assert!(decode_both(&frame[..len]).is_err());
    }

    /// The buffer-reusing codec paths agree with the one-shot ones: a
    /// recycled `BytesMut` encodes the same bytes, and a recycled batch
    /// (columnar or AoS) decodes to the same contents — including when
    /// the buffers carry stale state from a previous (differently sized)
    /// frame.
    #[test]
    fn codec_reuse_paths_match_one_shot(first in arb_batch(), second in arb_batch()) {
        let mut buf = BytesMut::new();
        let mut columns = ColumnarBatch::new();
        let mut aos = Batch::new();
        for batch in [&first, &second] {
            encode_batch_v2_into(batch, &mut buf);
            let one_shot = encode_columns(&ColumnarBatch::from_batch(batch));
            prop_assert_eq!(&buf[..], &one_shot[..]);
            decode_columns_into(&buf, &mut columns).expect("well-formed");
            prop_assert_eq!(&columns, &decode_columns(&one_shot).expect("well-formed"));
            decode_batch_any_into(&buf, &mut aos).expect("well-formed");
            prop_assert_eq!(&aos, batch);
        }
    }

    /// Truncation is rejected at *every* prefix length of an arbitrary
    /// frame — not just a sampled one — and never leaves a recycled batch
    /// partially decoded.
    #[test]
    fn codec_rejects_every_prefix_length(batch in arb_batch()) {
        let frame = v2_frame(&batch);
        let mut columns = ColumnarBatch::new();
        let mut aos = Batch::new();
        for len in 0..frame.len() {
            columns.fill_from_batch(&batch);
            prop_assert!(
                decode_columns_into(&frame[..len], &mut columns).is_err(),
                "prefix of {len} bytes must not decode"
            );
            prop_assert!(columns.is_empty(), "failed decode left items behind");
            prop_assert!(columns.weights.is_empty(), "failed decode left weights behind");
            aos.clone_from(&batch);
            prop_assert!(decode_batch_any_into(&frame[..len], &mut aos).is_err());
            prop_assert!(aos.is_empty() && aos.weights.is_empty());
        }
    }

    /// Corrupting any single byte of a valid frame never panics either
    /// decoder: both err with the same `MqError::Codec`, or both decode to
    /// some batch whose re-encoding round-trips.
    #[test]
    fn codec_corruption_never_panics(batch in arb_batch(), pos in 0usize..2000, flip in 1u8..=255) {
        let mut frame = v2_frame(&batch);
        let pos = pos % frame.len();
        frame[pos] ^= flip;
        if let Ok(decoded) = decode_both(&frame) {
            // A flipped byte can still be a valid frame (e.g. a value
            // byte changed, or two weight entries' strata collided and
            // merged), so the re-encoding can only shrink — and must
            // itself round-trip cleanly.
            prop_assert!(encoded_len_columns(&decoded) <= frame.len());
            let reencoded = encode_columns(&decoded);
            prop_assert_eq!(decode_columns(&reencoded).expect("re-encode decodes"), decoded);
        }
    }

    /// Feeding the decoders arbitrary bytes never panics.
    #[test]
    fn codec_survives_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(decoded) = decode_both(&bytes) {
            prop_assert!(encoded_len_columns(&decoded) <= bytes.len());
            let reencoded = encode_columns(&decoded);
            prop_assert_eq!(decode_columns(&reencoded).expect("re-encode decodes"), decoded);
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
                watermark: 0,
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
            Err(MqError::OffsetOutOfRange { earliest, .. }) => {
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
                        topic.append_to(0, ProducerRecord::new(&b"x"[..])).expect("append");
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
}
