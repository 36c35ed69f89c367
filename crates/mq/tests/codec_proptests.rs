//! Fuzz-style property tests for the v2 item and v3 summary wire frames.
//!
//! Four invariants pin the item codec:
//!
//! 1. **Entry-point equality** — the same logical batch encoded through
//!    the columnar and the AoS entry points gives the same bytes, and
//!    every decoder reads it back to the same contents.
//! 2. **Prefix rejection** — every strict prefix of a valid v2 frame fails
//!    to decode; there are no partial reads.
//! 3. **No panics on garbage** — arbitrary bytes never panic any decoder;
//!    they either decode (vanishingly unlikely) or return an error.
//! 4. **Cross-version rejection** — every decoder names the frame version
//!    it refuses, the retired v1 item layout included, so misrouted or
//!    stale frames fail loudly rather than silently misparse.
//!
//! The same invariants extend to the v3 summary frame: round-trip over
//! arbitrary observation multisets, every-prefix rejection, garbage never
//! panics, and cross-version rejection by name.
//!
//! Two more hold up the native relay, which forwards a received v2 frame
//! without decoding it: `frame_items` accepts and refuses exactly the
//! bytes `decode_columns` does (counting the same items), and the v2
//! encoding is canonical — decoding an encoder-produced frame and
//! encoding the result gives back the same bytes.
//!
//! `tests/proptests.rs` holds the rest of the v2 robustness properties:
//! rejection at every prefix length, bit-flip corruption, arbitrary
//! bytes, and recycled buffers matching the one-shot paths.

use approxiot_core::{
    Batch, ColumnarBatch, SketchConfig, StratumId, StratumSummaries, StreamItem, WeightMap,
};
use approxiot_mq::codec::{
    decode_batch_any_into, decode_columns, decode_columns_into, decode_summaries,
    encode_batch_v2_into, encode_batch_v2_stamped_into, encode_columns, encode_columns_into,
    encode_summaries_into, encoded_len_columns, encoded_len_summaries, encoded_len_v2, frame_items,
};
use approxiot_mq::MqError;
use bytes::BytesMut;
use proptest::prelude::*;

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

/// A columnar batch whose values are arbitrary bit patterns (NaNs,
/// infinities, negative zero) and whose other fields span their whole
/// range — everything a frame can carry through the value columns.
fn arb_wild_columns() -> impl Strategy<Value = ColumnarBatch> {
    (
        proptest::collection::vec(
            (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..40,
        ),
        proptest::collection::vec((any::<u32>(), 1.0f64..1e300), 0..8),
    )
        .prop_map(|(items, weights)| {
            let mut batch = ColumnarBatch::new();
            for (s, w) in weights {
                batch.weights.set(StratumId::new(s), w);
            }
            for (s, bits, seq, ts) in items {
                batch.push(StreamItem::with_meta(
                    StratumId::new(s),
                    f64::from_bits(bits),
                    seq,
                    ts,
                ));
            }
            batch
        })
}

/// `frame_items` and `decode_columns` agree on `bytes`: the same item
/// count or the same error.
fn counts_agree(bytes: &[u8]) {
    let decoded: Result<usize, MqError> = decode_columns(bytes).map(|c| c.len());
    prop_assert_eq!(frame_items(bytes), decoded, "on {:?}", bytes);
}

/// `windows` as a v3 frame.
fn summary_frame(config: SketchConfig, seed: u64, windows: &[(u64, StratumSummaries)]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    encode_summaries_into(config, seed, windows, &mut buf);
    buf.to_vec()
}

/// Window summaries built from an arbitrary observation multiset under a
/// small arbitrary config.
fn arb_summaries() -> impl Strategy<Value = (SketchConfig, u64, Vec<(u64, StratumSummaries)>)> {
    (
        (0u32..32, 0u32..8),
        any::<u64>(),
        proptest::collection::vec(
            proptest::collection::vec((0u32..16, -1e9f64..1e9), 0..60),
            0..4,
        ),
    )
        .prop_map(|((kll_k, heavy_capacity), seed, windows)| {
            let config = SketchConfig::new(kll_k, heavy_capacity);
            let windows = windows
                .into_iter()
                .enumerate()
                .map(|(w, observations)| {
                    let mut summaries = StratumSummaries::new(config, seed);
                    for (i, (stratum, value)) in observations.into_iter().enumerate() {
                        summaries.observe(StratumId::new(stratum), i as u64, value);
                    }
                    (w as u64, summaries)
                })
                .collect();
            (config, seed, windows)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The columnar and AoS entry points encode the same v2 bytes, the
    /// length predictions hold, and both decoders read the frame back.
    #[test]
    fn v2_roundtrip_matches_every_decoder(batch in arb_batch()) {
        let columns = ColumnarBatch::from_batch(&batch);
        let v2 = encode_columns(&columns);
        prop_assert_eq!(v2.len(), encoded_len_columns(&columns));
        prop_assert_eq!(v2.len(), encoded_len_v2(&batch));

        let mut buf = BytesMut::new();
        encode_batch_v2_into(&batch, &mut buf);
        prop_assert_eq!(&buf[..], &v2[..]);

        prop_assert_eq!(&decode_columns(&v2).expect("well-formed v2 frame"), &columns);
        let mut aos = Batch::new();
        decode_batch_any_into(&v2, &mut aos).expect("well-formed v2 frame");
        prop_assert_eq!(&aos, &batch);
    }

    /// The stamped encoder is byte-identical to clone → stamp → encode,
    /// against both the AoS entry point and the columnar reference, for
    /// arbitrary batches (empty, with and without weights) — including
    /// through a buffer still holding a previous frame of another size.
    #[test]
    fn stamped_v2_matches_clone_stamp_encode(
        first in arb_batch(),
        second in arb_batch(),
        source_ts in any::<u64>(),
    ) {
        let mut buf = BytesMut::new();
        let mut reference = BytesMut::new();
        for batch in [&first, &second] {
            let mut stamped = batch.clone();
            for item in &mut stamped.items {
                item.source_ts = source_ts;
            }
            encode_batch_v2_stamped_into(batch, source_ts, &mut buf);
            encode_batch_v2_into(&stamped, &mut reference);
            prop_assert_eq!(&buf[..], &reference[..]);
            encode_columns_into(&ColumnarBatch::from_batch(&stamped), &mut reference);
            prop_assert_eq!(&buf[..], &reference[..]);
            prop_assert_eq!(buf.len(), encoded_len_v2(batch));
        }
    }

    /// Every strict prefix of a v2 frame is rejected, and the recycled
    /// output columns come back empty after the failure.
    #[test]
    fn v2_rejects_every_prefix(batch in arb_batch(), cut in 0usize..100) {
        let columns = ColumnarBatch::from_batch(&batch);
        let frame = encode_columns(&columns);
        let len = cut % frame.len(); // frame is never empty (header + counts)
        let mut out = ColumnarBatch::from_batch(&batch); // stale contents
        prop_assert!(decode_columns_into(&frame[..len], &mut out).is_err());
        prop_assert!(out.is_empty(), "failed decode must clear the output");
        let mut aos = Batch::new();
        prop_assert!(decode_batch_any_into(&frame[..len], &mut aos).is_err());
        prop_assert!(aos.is_empty());
    }

    /// Arbitrary bytes never panic any decoder.
    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut columns = ColumnarBatch::new();
        let _ = decode_columns_into(&bytes, &mut columns);
        let mut batch = Batch::new();
        let _ = decode_batch_any_into(&bytes, &mut batch);
        let _ = decode_summaries(&bytes);
    }

    /// On arbitrary bytes, and on arbitrary bytes behind a v2 header,
    /// `frame_items` counts exactly when the decoder decodes.
    #[test]
    fn frame_items_agrees_with_decode_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        counts_agree(&bytes);
        let mut stamped = vec![0x07, 0xA1, 2];
        stamped.extend_from_slice(&bytes);
        counts_agree(&stamped);
    }

    /// On a valid v2 frame, on every prefix of it and on every
    /// single-byte corruption of it, `frame_items` agrees with the
    /// decoder.
    #[test]
    fn frame_items_agrees_with_decode_on_damaged_frames(
        columns in arb_wild_columns(),
        flip in 1u8..=255,
    ) {
        let frame = encode_columns(&columns);
        prop_assert_eq!(frame_items(&frame), Ok(columns.len()));
        for len in 0..frame.len() {
            counts_agree(&frame[..len]);
        }
        let mut corrupt = frame.to_vec();
        for at in 0..corrupt.len() {
            corrupt[at] ^= flip;
            counts_agree(&corrupt);
            corrupt[at] ^= flip;
        }
    }

    /// The v2 encoding is canonical: every encoder entry point's frame
    /// decodes and re-encodes to the same bytes, whatever the values'
    /// bit patterns — so relaying a received frame sends exactly what
    /// decode → re-encode would have.
    #[test]
    fn v2_reencode_is_identity(
        columns in arb_wild_columns(),
        batch in arb_batch(),
        source_ts in any::<u64>(),
    ) {
        let mut frames = vec![encode_columns(&columns).to_vec()];
        let mut buf = BytesMut::new();
        encode_batch_v2_into(&batch, &mut buf);
        frames.push(buf.to_vec());
        encode_batch_v2_stamped_into(&batch, source_ts, &mut buf);
        frames.push(buf.to_vec());
        for frame in frames {
            let decoded = decode_columns(&frame).expect("encoder-produced frame");
            prop_assert_eq!(&encode_columns(&decoded)[..], &frame[..]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Magic-stamped garbage: a valid header followed by arbitrary bytes
    /// exercises the body parsers far more often than pure noise, and
    /// must still never panic the summary decoder (whose body layout has
    /// the most internal structure of the three).
    #[test]
    fn summary_decoder_never_panics_on_stamped_garbage(
        version in 0u8..5,
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut frame = vec![0x07, 0xA1, version];
        frame.extend_from_slice(&bytes);
        let _ = decode_summaries(&frame);
        let mut batch = Batch::new();
        let _ = decode_batch_any_into(&frame, &mut batch);
    }

    /// A v3 frame round-trips bit-exactly for any observation multiset
    /// and config, and the length prediction is exact.
    #[test]
    fn v3_roundtrip_preserves_summaries(arb in arb_summaries()) {
        let (config, seed, windows) = arb;
        let frame = summary_frame(config, seed, &windows);
        prop_assert_eq!(frame.len(), encoded_len_summaries(&windows));
        let decoded = decode_summaries(&frame).expect("well-formed v3 frame");
        prop_assert_eq!(decoded, windows);
    }

    /// Every strict prefix of a v3 frame is rejected.
    #[test]
    fn v3_rejects_every_prefix(arb in arb_summaries(), cut in 0usize..4096) {
        let (config, seed, windows) = arb;
        let frame = summary_frame(config, seed, &windows);
        let len = cut % frame.len(); // frame is never empty (header + counts)
        prop_assert!(decode_summaries(&frame[..len]).is_err());
    }

    /// Misrouted v3 frames are rejected by name from every item decoder,
    /// and the v3 decoder names the item frames it refuses.
    #[test]
    fn v3_cross_version_frames_rejected_by_name(batch in arb_batch(), arb in arb_summaries()) {
        let (config, seed, windows) = arb;
        let v3 = summary_frame(config, seed, &windows);

        let mut aos = Batch::new();
        let err = decode_batch_any_into(&v3, &mut aos).expect_err("v3 into any-decoder");
        prop_assert!(err.to_string().contains("summary v3 frame"), "got: {err}");
        let mut columns = ColumnarBatch::new();
        let err = decode_columns_into(&v3, &mut columns).expect_err("v3 into columnar");
        prop_assert!(err.to_string().contains("summary v3 frame"), "got: {err}");
        let err = frame_items(&v3).expect_err("v3 into frame_items");
        prop_assert!(err.to_string().contains("summary v3 frame"), "got: {err}");

        let v2 = encode_columns(&ColumnarBatch::from_batch(&batch));
        let err = decode_summaries(&v2).expect_err("v2 into summary decoder");
        prop_assert!(err.to_string().contains("columnar v2 frame"), "got: {err}");
    }

    /// A frame whose version byte is 1 — the retired AoS item layout — is
    /// refused by every decoder with a `MqError::Codec` naming it, whatever
    /// follows the header, and the recycled outputs come back cleared.
    #[test]
    fn cross_version_frames_rejected_by_name(
        batch in arb_batch(),
        body in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut relabelled = encode_columns(&ColumnarBatch::from_batch(&batch)).to_vec();
        relabelled[2] = 1;
        let mut stamped = vec![0x07, 0xA1, 1];
        stamped.extend_from_slice(&body);
        for v1 in [relabelled, stamped] {
            let mut columns = ColumnarBatch::from_batch(&batch);
            let mut aos = batch.clone();
            let errors = [
                decode_columns_into(&v1, &mut columns).expect_err("v1 into columnar"),
                decode_batch_any_into(&v1, &mut aos).expect_err("v1 into the AoS decoder"),
                frame_items(&v1).expect_err("v1 into frame_items"),
                decode_summaries(&v1).expect_err("v1 into the summary decoder"),
            ];
            for err in errors {
                let named = matches!(&err, MqError::Codec(m) if m.contains("retired AoS v1 frame"));
                prop_assert!(named, "got: {err:?}");
            }
            prop_assert!(columns.is_empty() && columns.weights.is_empty());
            prop_assert!(aos.is_empty() && aos.weights.is_empty());
        }
    }
}
