//! Producers: typed convenience handles for publishing batches.

use crate::codec::{
    encode_batch_v2_into, encode_batch_v2_stamped_into, encode_columns_into, encode_summaries_into,
};
use crate::error::MqError;
use crate::record::ProducerRecord;
use crate::topic::Topic;
use approxiot_core::{Batch, ColumnarBatch, SketchConfig, StratumSummaries};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Publishes batches to partitions of a topic, encoding them with the wire
/// codec and metering bytes produced (for the bandwidth experiments).
/// Every send names its partition: each sender in a topology owns one
/// partition of its layer's topic.
///
/// Encoding runs through a producer-owned scratch buffer, so the only
/// per-send allocation is the shared immutable payload handed to the
/// partition — which the partition frees again once its readers have
/// polled past it (see [`crate::PartitionLog`]). The scratch itself never
/// shrinks and stops growing once it has seen the largest frame the
/// producer sends.
///
/// # Examples
///
/// ```
/// use approxiot_core::{Batch, StratumId, StreamItem};
/// use approxiot_mq::{BatchProducer, Broker};
///
/// let broker = Broker::new();
/// let topic = broker.create_topic("layer-1", 1)?;
/// let producer = BatchProducer::new(topic);
/// let batch = Batch::from_items(vec![StreamItem::new(StratumId::new(0), 1.0)]);
/// producer.send_v2_to(0, &batch, 0)?;
/// assert!(producer.bytes_sent() > 0);
/// # Ok::<(), approxiot_mq::MqError>(())
/// ```
#[derive(Debug)]
pub struct BatchProducer {
    topic: Arc<Topic>,
    /// Reused encode buffer; a mutex (not `&mut self`) so shared producer
    /// handles keep working — uncontended in the pipeline, where every
    /// node thread owns its producer.
    scratch: Mutex<BytesMut>,
    bytes_sent: AtomicU64,
    batches_sent: AtomicU64,
}

impl BatchProducer {
    /// Creates a producer for `topic`.
    pub fn new(topic: Arc<Topic>) -> Self {
        BatchProducer {
            topic,
            scratch: Mutex::new(BytesMut::new()),
            bytes_sent: AtomicU64::new(0),
            batches_sent: AtomicU64::new(0),
        }
    }

    /// Runs `encode` against the reused scratch and copies the frame into
    /// the shared payload the partition will hold.
    fn encode(&self, encode: impl FnOnce(&mut BytesMut)) -> Bytes {
        let mut scratch = self.scratch.lock();
        encode(&mut scratch);
        Bytes::copy_from_slice(&scratch)
    }

    /// The one send body: meters `value` as one frame and appends it to
    /// `partition` with the record metadata `timestamp` and `watermark`.
    fn send_frame(
        &self,
        partition: u32,
        timestamp: u64,
        watermark: u64,
        value: Bytes,
    ) -> Result<(u32, u64), MqError> {
        self.bytes_sent
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        self.batches_sent.fetch_add(1, Ordering::Relaxed);
        let record = ProducerRecord {
            key: None,
            value,
            timestamp,
        };
        self.topic
            .append_with_watermark(partition, record, watermark)
    }

    /// The topic this producer publishes to.
    pub fn topic(&self) -> &Arc<Topic> {
        &self.topic
    }

    /// Publishes a columnar batch to a specific partition as a **v2**
    /// frame, the encode reduced to four bulk column copies. The record
    /// carries the sender's low `watermark` ([`crate::Record::watermark`];
    /// 0 promises nothing).
    ///
    /// # Errors
    ///
    /// Returns [`MqError::PartitionOutOfRange`] or [`MqError::Closed`].
    pub fn send_columns_to(
        &self,
        partition: u32,
        batch: &ColumnarBatch,
        timestamp: u64,
        watermark: u64,
    ) -> Result<(u32, u64), MqError> {
        let value = self.encode(|buf| encode_columns_into(batch, buf));
        self.send_frame(partition, timestamp, watermark, value)
    }

    /// Publishes an already-encoded frame to a specific partition as is:
    /// the record shares `value`'s allocation (a refcount bump — no
    /// encode, no copy) and is metered exactly as the encode-send that
    /// produced those bytes would have been. This is how a native node
    /// forwards what it received. The record metadata is the relayer's
    /// own: `timestamp` and its low `watermark`, not the original
    /// sender's.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::PartitionOutOfRange`] or [`MqError::Closed`].
    pub fn relay_to(
        &self,
        partition: u32,
        value: Bytes,
        timestamp: u64,
        watermark: u64,
    ) -> Result<(u32, u64), MqError> {
        self.send_frame(partition, timestamp, watermark, value)
    }

    /// Publishes an **AoS** batch to a specific partition as a **v2**
    /// columnar frame (see [`crate::codec::encode_batch_v2_into`]) — for
    /// producers that hold a [`Batch`] but feed columnar consumers.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::PartitionOutOfRange`] or [`MqError::Closed`].
    pub fn send_v2_to(
        &self,
        partition: u32,
        batch: &Batch,
        timestamp: u64,
    ) -> Result<(u32, u64), MqError> {
        let value = self.encode(|buf| encode_batch_v2_into(batch, buf));
        self.send_frame(partition, timestamp, 0, value)
    }

    /// [`Self::send_v2_to`] with every item's `source_ts` written as
    /// `source_ts` (see [`crate::codec::encode_batch_v2_stamped_into`]) —
    /// the wall-clock source path, which stamps items with their send
    /// time as it encodes them. The record's own `timestamp` is separate:
    /// a jittered frame is held longer without its items looking younger.
    /// Every item carries `source_ts`, so that is the record's low
    /// watermark ([`crate::Record::watermark`]) — a sender whose
    /// `source_ts` never decreases keeps the promise it makes.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::PartitionOutOfRange`] or [`MqError::Closed`].
    pub fn send_v2_stamped_to(
        &self,
        partition: u32,
        batch: &Batch,
        source_ts: u64,
        timestamp: u64,
    ) -> Result<(u32, u64), MqError> {
        let value = self.encode(|buf| encode_batch_v2_stamped_into(batch, source_ts, buf));
        self.send_frame(partition, timestamp, source_ts, value)
    }

    /// Publishes per-window stratum summaries to a specific partition as
    /// a **v3** summary frame — one frame per sketch node per interval,
    /// with the same scratch reuse and byte metering as the item senders.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::PartitionOutOfRange`] or [`MqError::Closed`].
    pub fn send_summaries_to(
        &self,
        partition: u32,
        config: SketchConfig,
        seed: u64,
        windows: &[(u64, StratumSummaries)],
        timestamp: u64,
    ) -> Result<(u32, u64), MqError> {
        let value = self.encode(|buf| encode_summaries_into(config, seed, windows, buf));
        self.send_frame(partition, timestamp, 0, value)
    }

    /// Total encoded bytes published.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total batches published.
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use approxiot_core::{StratumId, StreamItem};

    fn batch(n: usize) -> Batch {
        (0..n)
            .map(|i| StreamItem::new(StratumId::new(0), i as f64))
            .collect()
    }

    #[test]
    fn send_meters_bytes_and_counts() {
        use crate::codec::encoded_len_v2;
        let broker = Broker::new();
        let topic = broker.create_topic("t", 1).expect("create");
        let producer = BatchProducer::new(topic);
        producer.send_v2_to(0, &batch(3), 0).expect("send");
        producer.send_v2_to(0, &batch(5), 0).expect("send");
        assert_eq!(producer.batches_sent(), 2);
        assert_eq!(
            producer.bytes_sent(),
            (encoded_len_v2(&batch(3)) + encoded_len_v2(&batch(5))) as u64
        );
    }

    #[test]
    fn bytes_scale_with_items() {
        let broker = Broker::new();
        let topic = broker.create_topic("t", 1).expect("create");
        let producer = BatchProducer::new(topic);
        producer.send_v2_to(0, &batch(10), 0).expect("send");
        let after_small = producer.bytes_sent();
        producer.send_v2_to(0, &batch(100), 0).expect("send");
        let big = producer.bytes_sent() - after_small;
        assert!(
            big > after_small,
            "100-item frame larger than 10-item frame"
        );
    }

    #[test]
    fn encode_scratch_stops_growing_after_warm_up() {
        let broker = Broker::new();
        let topic = broker.create_topic("t", 1).expect("create");
        let producer = BatchProducer::new(topic);
        producer.send_v2_to(0, &batch(100), 0).expect("send");
        let warm = producer.scratch.lock().capacity();
        for _ in 0..50 {
            producer.send_v2_to(0, &batch(100), 0).expect("send");
        }
        assert_eq!(
            producer.scratch.lock().capacity(),
            warm,
            "steady state: the encode buffer is reused, not regrown"
        );
        // Smaller frames reuse the same buffer too.
        producer.send_v2_to(0, &batch(1), 0).expect("send");
        assert_eq!(producer.scratch.lock().capacity(), warm);
    }

    #[test]
    fn send_to_targets_partition() {
        let broker = Broker::new();
        let topic = broker.create_topic("t", 3).expect("create");
        let producer = BatchProducer::new(Arc::clone(&topic));
        let (p, _) = producer.send_v2_to(2, &batch(1), 7).expect("send");
        assert_eq!(p, 2);
        assert_eq!(topic.partition(2).expect("partition").len(), 1);
        assert!(producer.send_v2_to(9, &batch(1), 0).is_err());
        assert!(producer
            .send_columns_to(3, &ColumnarBatch::from_batch(&batch(1)), 0, 0)
            .is_err());
    }

    #[test]
    fn send_columns_to_publishes_v2_and_meters() {
        use crate::codec::{decode_columns, encoded_len_columns};
        let broker = Broker::new();
        let topic = broker.create_topic("t", 2).expect("create");
        let producer = BatchProducer::new(Arc::clone(&topic));
        let cols = ColumnarBatch::from_batch(&batch(4));
        let (p, _) = producer.send_columns_to(1, &cols, 3, 0).expect("send");
        assert_eq!(p, 1);
        assert_eq!(producer.batches_sent(), 1);
        assert_eq!(producer.bytes_sent(), encoded_len_columns(&cols) as u64);
        let record = topic
            .partition(1)
            .expect("partition")
            .read_from(0, 1, std::time::Duration::from_millis(10))
            .expect("read")
            .pop()
            .expect("one record");
        assert_eq!(decode_columns(&record.value).expect("v2 frame"), cols);
    }

    #[test]
    fn relay_to_shares_the_payload_and_meters_like_an_encode_send() {
        let broker = Broker::new();
        let input = broker.create_topic("in", 1).expect("create");
        let output = broker.create_topic("out", 2).expect("create");
        let cols = ColumnarBatch::from_batch(&batch(5));
        let encoder = BatchProducer::new(Arc::clone(&input));
        encoder.send_columns_to(0, &cols, 3, 2).expect("send");
        let received = input.partitions()[0]
            .read_from(0, 1, std::time::Duration::ZERO)
            .expect("read")
            .pop()
            .expect("one record");
        assert_eq!(received.watermark, 2);
        let relay = BatchProducer::new(Arc::clone(&output));
        let (p, _) = relay
            .relay_to(1, received.value.clone(), 8, 5)
            .expect("relay");
        assert_eq!(p, 1);
        let relayed = output.partitions()[1]
            .read_from(0, 1, std::time::Duration::ZERO)
            .expect("read")
            .pop()
            .expect("one record");
        assert_eq!(
            relayed.value.as_ptr(),
            received.value.as_ptr(),
            "same allocation, not a copy"
        );
        assert_eq!(
            (relayed.timestamp, relayed.watermark),
            (8, 5),
            "the record metadata is the relayer's, not the original sender's"
        );
        assert_eq!(
            (relay.bytes_sent(), relay.batches_sent()),
            (encoder.bytes_sent(), encoder.batches_sent()),
        );
    }

    #[test]
    fn send_v2_to_matches_columnar_send() {
        let broker = Broker::new();
        let topic = broker.create_topic("t", 1).expect("create");
        let producer = BatchProducer::new(Arc::clone(&topic));
        let aos = batch(6);
        producer.send_v2_to(0, &aos, 0).expect("send aos as v2");
        producer
            .send_columns_to(0, &ColumnarBatch::from_batch(&aos), 0, 0)
            .expect("send columns");
        let records = topic
            .partition(0)
            .expect("partition")
            .read_from(0, 2, std::time::Duration::from_millis(10))
            .expect("read");
        assert_eq!(
            records[0].value, records[1].value,
            "both entry points produce byte-identical v2 frames"
        );
    }

    #[test]
    fn send_v2_stamped_to_stamps_items_not_the_record() {
        use crate::codec::decode_columns;
        let broker = Broker::new();
        let topic = broker.create_topic("t", 1).expect("create");
        let producer = BatchProducer::new(Arc::clone(&topic));
        producer
            .send_v2_stamped_to(0, &batch(3), 77, 99)
            .expect("send");
        let record = topic.partitions()[0]
            .read_from(0, 1, std::time::Duration::ZERO)
            .expect("read")
            .pop()
            .expect("one record");
        assert_eq!(record.timestamp, 99, "the record keeps its own timestamp");
        assert_eq!(record.watermark, 77, "every item is at the source time");
        assert_eq!(producer.bytes_sent(), record.value.len() as u64);
        let columns = decode_columns(&record.value).expect("v2 frame");
        assert_eq!(columns.source_ts, vec![77; 3]);
        assert_eq!(columns.values, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn send_summaries_to_publishes_v3_and_meters() {
        use crate::codec::{decode_summaries, encoded_len_summaries};
        let broker = Broker::new();
        let topic = broker.create_topic("t", 2).expect("create");
        let producer = BatchProducer::new(Arc::clone(&topic));
        let config = SketchConfig::default();
        let mut summaries = StratumSummaries::new(config, 5);
        for i in 0..12u64 {
            summaries.observe(StratumId::new((i % 3) as u32), i, i as f64);
        }
        let windows = vec![(0u64, summaries)];
        let (p, _) = producer
            .send_summaries_to(1, config, 5, &windows, 9)
            .expect("send");
        assert_eq!(p, 1);
        assert_eq!(producer.batches_sent(), 1);
        assert_eq!(
            producer.bytes_sent(),
            encoded_len_summaries(&windows) as u64
        );
        let record = topic
            .partition(1)
            .expect("partition")
            .read_from(0, 1, std::time::Duration::from_millis(10))
            .expect("read")
            .pop()
            .expect("one record");
        assert_eq!(record.timestamp, 9);
        assert_eq!(decode_summaries(&record.value).expect("v3 frame"), windows);
    }

    #[test]
    fn send_fails_after_close() {
        let broker = Broker::new();
        let topic = broker.create_topic("t", 1).expect("create");
        let producer = BatchProducer::new(topic);
        broker.close();
        assert!(matches!(
            producer.send_v2_to(0, &batch(1), 0),
            Err(MqError::Closed)
        ));
    }
}
