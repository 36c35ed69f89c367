//! Consumers: offset-tracked, multi-partition subscription with decode.

use crate::error::MqError;
use crate::record::Record;
use crate::topic::Topic;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Where a new consumer starts reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartOffset {
    /// From the earliest retained record.
    #[default]
    Earliest,
    /// From the log end (only new records).
    Latest,
}

/// A consumer subscribed to a set of partitions of one topic, tracking its
/// own offsets.
///
/// Polling round-robins across the assigned partitions so one hot partition
/// cannot starve the others.
///
/// Subscribing registers the consumer as a reader of each assigned
/// partition, and every poll tells the partition how far the consumer has
/// got: a partition log keeps only what its slowest subscribed consumer
/// has not yet polled past (see [`crate::PartitionLog`]). The records of
/// one poll are released by the *next* poll of the same partition, so a
/// consumer that stops polling pins the log (up to the count cap) and one
/// that is dropped releases its hold.
///
/// # Examples
///
/// ```
/// use approxiot_core::{Batch, StratumId, StreamItem};
/// use approxiot_mq::{BatchProducer, Broker, Consumer, StartOffset};
/// use std::time::Duration;
///
/// let broker = Broker::new();
/// let topic = broker.create_topic("t", 2)?;
/// let producer = BatchProducer::new(topic.clone());
/// let batch = Batch::from_items(vec![StreamItem::new(StratumId::new(0), 1.0)]);
/// producer.send_v2_to(1, &batch, 0)?;
///
/// let mut consumer = Consumer::subscribe_all(topic, StartOffset::Earliest);
/// let records = consumer.poll(10, Duration::from_millis(10))?;
/// assert_eq!(records.len(), 1);
/// # Ok::<(), approxiot_mq::MqError>(())
/// ```
#[derive(Debug)]
pub struct Consumer {
    topic: Arc<Topic>,
    /// Next offset to read, per assigned partition.
    offsets: BTreeMap<u32, u64>,
    /// The assigned partitions in ascending order, each with this
    /// consumer's reader slot on that partition's log — fixed at subscribe
    /// time (the assignment never changes afterwards) so polling never
    /// rebuilds the key list.
    partitions: Vec<(u32, usize)>,
    /// Rotation cursor for fairness.
    cursor: usize,
}

impl Consumer {
    /// Subscribes to every partition of `topic`.
    pub fn subscribe_all(topic: Arc<Topic>, start: StartOffset) -> Self {
        let partitions: Vec<u32> = (0..topic.partition_count()).collect();
        Consumer::subscribe(topic, &partitions, start)
    }

    /// Subscribes to an explicit partition set (out-of-range indices are
    /// ignored, matching Kafka's lazy assignment semantics).
    pub fn subscribe(topic: Arc<Topic>, partitions: &[u32], start: StartOffset) -> Self {
        let mut assigned: Vec<u32> = partitions.to_vec();
        assigned.sort_unstable();
        assigned.dedup();
        let mut offsets = BTreeMap::new();
        let mut partitions = Vec::new();
        for p in assigned {
            if let Some(log) = topic.partitions().get(p as usize) {
                let (slot, offset) = log.register_reader(start == StartOffset::Latest);
                offsets.insert(p, offset);
                partitions.push((p, slot));
            }
        }
        Consumer {
            topic,
            offsets,
            partitions,
            cursor: 0,
        }
    }

    /// The topic this consumer reads.
    pub fn topic(&self) -> &Arc<Topic> {
        &self.topic
    }

    /// The assigned partitions, in ascending order.
    pub fn assignment(&self) -> impl Iterator<Item = u32> + '_ {
        self.partitions.iter().map(|&(partition, _)| partition)
    }

    /// Current position (next offset) for a partition, if assigned.
    pub fn position(&self, partition: u32) -> Option<u64> {
        self.offsets.get(&partition).copied()
    }

    /// Polls up to `max` records across assigned partitions, blocking up to
    /// `timeout` when fully caught up. An empty result means the timeout
    /// elapsed.
    ///
    /// Offsets that fell behind retention are transparently reset to the
    /// earliest retained offset (Kafka's `auto.offset.reset = earliest`),
    /// so a slow consumer skips data instead of wedging.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::Closed`] once every assigned partition is closed
    /// **and** fully drained.
    pub fn poll(&mut self, max: usize, timeout: Duration) -> Result<Vec<Record>, MqError> {
        let mut out = Vec::new();
        self.poll_into(&mut out, max, timeout)?;
        Ok(out)
    }

    /// Polls like [`Consumer::poll`], but **replaces** the contents of a
    /// caller-owned buffer instead of returning a fresh vector, and returns
    /// how many records were delivered.
    ///
    /// This is the steady-state consumption path: `out` is cleared (keeping
    /// its allocation) and refilled, and the partition sweep appends
    /// directly into it via [`crate::PartitionLog::read_into`], so a node
    /// loop polling through one reused buffer allocates nothing per poll
    /// once the buffer has warmed up. Both phases of the poll — the
    /// non-blocking rotation sweep and the single blocking wait when fully
    /// caught up — run through the same partition drain, so blocked polls
    /// wake on produce exactly like [`Consumer::poll`] always has.
    ///
    /// # Errors
    ///
    /// Same contract as [`Consumer::poll`].
    pub fn poll_into(
        &mut self,
        out: &mut Vec<Record>,
        max: usize,
        timeout: Duration,
    ) -> Result<usize, MqError> {
        out.clear();
        let n = self.partitions.len();
        if n == 0 {
            return Ok(0);
        }
        // Phase 1: non-blocking drain in rotation order.
        let mut closed = 0usize;
        for step in 0..n {
            if out.len() >= max {
                break;
            }
            let i = (self.cursor + step) % n;
            match self.drain_partition_into(i, max - out.len(), Duration::ZERO, out) {
                Ok(_) => {}
                Err(MqError::Closed) => closed += 1,
                Err(e) => return Err(e),
            }
        }
        self.cursor = (self.cursor + 1) % n;
        if !out.is_empty() {
            return Ok(out.len());
        }
        if closed == n {
            return Err(MqError::Closed);
        }
        // Phase 2: fully caught up — spend the timeout blocking on the
        // first open partition (the same drain, now allowed to wait).
        for i in 0..n {
            match self.drain_partition_into(i, max, timeout, out) {
                Ok(_) => {}
                Err(MqError::Closed) => continue,
                Err(e) => return Err(e),
            }
            break; // only spend the timeout once
        }
        Ok(out.len())
    }

    /// Drains the `i`-th assigned partition into `out` (appending),
    /// advancing its offset past the delivered records. Shared by both
    /// poll phases. Reading as this consumer's reader slot is what lets
    /// the log release the records the previous drain delivered.
    fn drain_partition_into(
        &mut self,
        i: usize,
        max: usize,
        timeout: Duration,
        out: &mut Vec<Record>,
    ) -> Result<usize, MqError> {
        let (partition, slot) = self.partitions[i];
        let log = &self.topic.partitions()[partition as usize];
        let offset = *self.offsets.get(&partition).unwrap_or(&0);
        let taken = match log.read_as(Some(slot), offset, max, timeout, out) {
            Ok(taken) => taken,
            Err(MqError::OffsetOutOfRange { earliest, .. }) => {
                // auto.offset.reset = earliest
                self.offsets.insert(partition, earliest);
                log.read_as(Some(slot), earliest, max, timeout, out)?
            }
            Err(e) => return Err(e),
        };
        if let Some(last) = out.last().filter(|_| taken > 0) {
            self.offsets.insert(partition, last.offset + 1);
        }
        Ok(taken)
    }

    /// Total records between current positions and each log end (consumer
    /// lag).
    pub fn lag(&self) -> u64 {
        self.offsets
            .iter()
            .filter_map(|(&p, &o)| {
                self.topic
                    .partition(p)
                    .ok()
                    .map(|log| log.latest_offset().saturating_sub(o))
            })
            .sum()
    }
}

impl Drop for Consumer {
    /// Releases this consumer's reader slots, so the partitions stop
    /// retaining records on its behalf.
    fn drop(&mut self) {
        for &(partition, slot) in &self.partitions {
            self.topic.partitions()[partition as usize].release_reader(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::codec::decode_columns;
    use crate::producer::BatchProducer;
    use approxiot_core::{Batch, StratumId, StreamItem};
    use std::thread;

    fn batch(value: f64) -> Batch {
        Batch::from_items(vec![StreamItem::new(StratumId::new(0), value)])
    }

    /// Publishes a one-item frame carrying `value` to partition 0.
    fn send(producer: &BatchProducer, value: f64) {
        producer.send_v2_to(0, &batch(value), 0).expect("send");
    }

    fn setup(partitions: u32) -> (Broker, Arc<Topic>, BatchProducer) {
        let broker = Broker::new();
        let topic = broker.create_topic("t", partitions).expect("create");
        let producer = BatchProducer::new(Arc::clone(&topic));
        (broker, topic, producer)
    }

    #[test]
    fn consumes_from_earliest() {
        let (_b, topic, producer) = setup(1);
        send(&producer, 1.0);
        send(&producer, 2.0);
        let mut consumer = Consumer::subscribe_all(topic, StartOffset::Earliest);
        let got = consumer.poll(10, Duration::ZERO).expect("poll");
        assert_eq!(got.len(), 2);
        assert_eq!(consumer.position(0), Some(2));
        assert_eq!(consumer.lag(), 0);
    }

    #[test]
    fn latest_skips_history() {
        let (_b, topic, producer) = setup(1);
        send(&producer, 1.0);
        let mut consumer = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Latest);
        assert!(consumer.poll(10, Duration::ZERO).expect("poll").is_empty());
        send(&producer, 2.0);
        let got = consumer.poll(10, Duration::ZERO).expect("poll");
        assert_eq!(got.len(), 1);
        assert_eq!(decode_columns(&got[0].value).expect("v2").values, [2.0]);
    }

    #[test]
    fn poll_round_robins_partitions() {
        let (_b, topic, producer) = setup(2);
        for i in 0..4 {
            producer
                .send_v2_to(i % 2, &batch(i as f64), 0)
                .expect("send");
        }
        let mut consumer = Consumer::subscribe_all(topic, StartOffset::Earliest);
        let got = consumer.poll(10, Duration::ZERO).expect("poll");
        assert_eq!(got.len(), 4);
        let p0 = got.iter().filter(|r| r.partition == 0).count();
        assert_eq!(p0, 2);
    }

    #[test]
    fn watermarks_arrive_with_their_records_in_offset_order() {
        let (_b, topic, producer) = setup(2);
        let frame = |v: f64| approxiot_core::ColumnarBatch::from_batch(&batch(v));
        // Each partition's sender raises its watermark as it sends.
        for k in 0..4u64 {
            for p in 0..2u32 {
                let watermark = 100 * u64::from(p) + 10 * k;
                producer
                    .send_columns_to(p, &frame(k as f64), 0, watermark)
                    .expect("send");
            }
        }
        let mut consumer = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        assert_eq!(consumer.assignment().collect::<Vec<_>>(), [0, 1]);
        let mut buf = Vec::new();
        let mut seen: BTreeMap<u32, Vec<(u64, u64, f64)>> = BTreeMap::new();
        let mut last = None;
        while consumer
            .poll_into(&mut buf, 3, Duration::ZERO)
            .expect("poll")
            > 0
        {
            last = buf.last().cloned();
            for record in &buf {
                let value = decode_columns(&record.value).expect("v2").values[0];
                seen.entry(record.partition).or_default().push((
                    record.offset,
                    record.watermark,
                    value,
                ));
            }
        }
        for p in 0..2u64 {
            let expected: Vec<(u64, u64, f64)> =
                (0..4u64).map(|k| (k, 100 * p + 10 * k, k as f64)).collect();
            assert_eq!(seen[&(p as u32)], expected, "partition {p}");
        }
        // A relayed record carries the relayer's watermark, not the one
        // it arrived with.
        let out = Broker::new().create_topic("out", 1).expect("create");
        let relay = BatchProducer::new(Arc::clone(&out));
        let original = last.expect("records were delivered");
        let sent_with = seen[&original.partition][original.offset as usize].1;
        assert_eq!(original.watermark, sent_with);
        relay
            .relay_to(0, original.value.clone(), 0, 7)
            .expect("relay");
        let relayed = Consumer::subscribe_all(out, StartOffset::Earliest)
            .poll(1, Duration::ZERO)
            .expect("poll");
        assert_eq!(relayed[0].watermark, 7);
        assert_eq!(relayed[0].value, original.value);
    }

    #[test]
    fn blocked_poll_into_still_wakes_on_produce() {
        // Regression for the poll/poll_into unification: the blocking
        // second phase must still park on the partition condvar and wake
        // when a producer appends, not just spin the non-blocking sweep.
        let (_b, topic, producer) = setup(2);
        let mut consumer = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        let mut buf = Vec::new();
        // Warm the buffer so the wake-up delivery is allocation-free too.
        assert_eq!(consumer.poll_into(&mut buf, 10, Duration::ZERO), Ok(0));
        let waker = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            producer.send_v2_to(0, &batch(9.0), 0).expect("send");
        });
        let start = std::time::Instant::now();
        let got = consumer
            .poll_into(&mut buf, 10, Duration::from_secs(5))
            .expect("poll");
        assert_eq!(got, 1);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].partition, 0);
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "woke on produce, not on timeout"
        );
        waker.join().expect("join");
    }

    #[test]
    fn poll_into_reuses_buffer_and_replaces_contents() {
        let (_b, topic, producer) = setup(1);
        for i in 0..8 {
            send(&producer, i as f64);
        }
        let mut consumer = Consumer::subscribe_all(topic, StartOffset::Earliest);
        let mut buf = Vec::new();
        assert_eq!(consumer.poll_into(&mut buf, 4, Duration::ZERO), Ok(4));
        let warm = buf.capacity();
        let first_offsets: Vec<u64> = buf.iter().map(|r| r.offset).collect();
        assert_eq!(first_offsets, vec![0, 1, 2, 3]);
        assert_eq!(consumer.poll_into(&mut buf, 4, Duration::ZERO), Ok(4));
        let second_offsets: Vec<u64> = buf.iter().map(|r| r.offset).collect();
        assert_eq!(second_offsets, vec![4, 5, 6, 7], "contents replaced");
        assert_eq!(buf.capacity(), warm, "no per-poll growth");
    }

    #[test]
    fn blocking_poll_wakes_on_produce() {
        let (_b, topic, producer) = setup(1);
        let mut consumer = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        let waker = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            send(&producer, 9.0);
        });
        let got = consumer.poll(10, Duration::from_secs(5)).expect("poll");
        assert_eq!(got.len(), 1);
        waker.join().expect("join");
    }

    #[test]
    fn closed_and_drained_reports_closed() {
        let (broker, topic, producer) = setup(2);
        producer.send_v2_to(0, &batch(1.0), 0).expect("send");
        broker.close();
        let mut consumer = Consumer::subscribe_all(topic, StartOffset::Earliest);
        // Drain the remaining record first.
        let got = consumer.poll(10, Duration::ZERO).expect("poll");
        assert_eq!(got.len(), 1);
        assert!(matches!(
            consumer.poll(10, Duration::ZERO),
            Err(MqError::Closed)
        ));
    }

    #[test]
    fn retention_reset_recovers_lost_offsets() {
        let broker = Broker::new();
        let topic = broker
            .create_topic_with_retention("t", 1, 2)
            .expect("create");
        let producer = BatchProducer::new(Arc::clone(&topic));
        let mut consumer = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        for i in 0..10 {
            send(&producer, i as f64);
        }
        // Offsets 0..8 were truncated; consumer transparently resumes at 8.
        let got = consumer.poll(10, Duration::ZERO).expect("poll");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].offset, 8);
    }

    #[test]
    fn slower_reader_pins_retention_and_loses_nothing() {
        let (_b, topic, producer) = setup(1);
        let mut fast = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        let mut slow = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        for i in 0..10 {
            send(&producer, i as f64);
        }
        assert_eq!(fast.poll(10, Duration::ZERO).expect("poll").len(), 10);
        assert_eq!(slow.poll(4, Duration::ZERO).expect("poll").len(), 4);
        // The fast reader reports position 10 and the slow one position 4,
        // each on the poll after the one that delivered the records.
        assert!(fast.poll(10, Duration::ZERO).expect("poll").is_empty());
        assert_eq!(slow.poll(3, Duration::ZERO).expect("poll").len(), 3);
        assert_eq!(topic.len(), 6, "released up to the slow reader only");
        assert_eq!(topic.partitions()[0].earliest_offset(), 4);
        let rest = slow.poll(10, Duration::ZERO).expect("poll");
        let offsets: Vec<u64> = rest.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![7, 8, 9], "the slow reader skipped nothing");
        assert!(slow.poll(10, Duration::ZERO).expect("poll").is_empty());
        assert!(topic.is_empty(), "both readers are past everything");
    }

    #[test]
    fn dropping_a_consumer_releases_its_hold() {
        let (_b, topic, producer) = setup(1);
        let mut live = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        let stalled = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        for i in 0..5 {
            send(&producer, i as f64);
        }
        assert_eq!(live.poll(10, Duration::ZERO).expect("poll").len(), 5);
        assert!(live.poll(10, Duration::ZERO).expect("poll").is_empty());
        assert_eq!(topic.len(), 5, "pinned by the reader that never polls");
        drop(stalled);
        assert!(live.poll(10, Duration::ZERO).expect("poll").is_empty());
        assert!(
            topic.is_empty(),
            "only the live reader's position counts now"
        );
    }

    #[test]
    fn partition_without_a_reader_keeps_count_retention() {
        let broker = Broker::new();
        let topic = broker
            .create_topic_with_retention("t", 2, 3)
            .expect("create");
        let producer = BatchProducer::new(Arc::clone(&topic));
        // Partition 0 has a subscriber, partition 1 has none.
        let mut consumer = Consumer::subscribe(Arc::clone(&topic), &[0], StartOffset::Earliest);
        for i in 0..5 {
            producer.send_v2_to(0, &batch(i as f64), 0).expect("send");
            producer.send_v2_to(1, &batch(i as f64), 0).expect("send");
            consumer.poll(10, Duration::ZERO).expect("poll");
        }
        let unread = &topic.partitions()[1];
        assert_eq!((unread.len(), unread.earliest_offset()), (3, 2));
        // A direct read is anonymous: it releases nothing.
        assert_eq!(
            unread.read_from(2, 10, Duration::ZERO).expect("read").len(),
            3
        );
        assert_eq!(
            unread.read_from(4, 10, Duration::ZERO).expect("read").len(),
            1
        );
        assert_eq!(unread.len(), 3);
        assert_eq!(topic.partitions()[0].len(), 1, "the subscribed one drains");
    }

    #[test]
    fn late_earliest_subscriber_starts_at_earliest_retained() {
        let (_b, topic, producer) = setup(1);
        let mut first = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        for i in 0..6 {
            send(&producer, i as f64);
        }
        assert_eq!(first.poll(4, Duration::ZERO).expect("poll").len(), 4);
        assert_eq!(first.poll(1, Duration::ZERO).expect("poll").len(), 1);
        // Offsets 0..4 are gone; a newcomer cannot ask for them.
        let mut late = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        assert_eq!(late.position(0), Some(4));
        let got = late.poll(10, Duration::ZERO).expect("poll");
        assert_eq!(got.iter().map(|r| r.offset).collect::<Vec<_>>(), [4, 5]);
    }

    #[test]
    fn handed_out_records_outlive_the_log_entry() {
        let (_b, topic, producer) = setup(1);
        let mut consumer = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        send(&producer, 42.0);
        let kept = consumer.poll(10, Duration::ZERO).expect("poll");
        assert!(consumer.poll(10, Duration::ZERO).expect("poll").is_empty());
        assert!(topic.is_empty(), "the log has dropped the record");
        let decoded = decode_columns(&kept[0].value).expect("payload still readable");
        assert_eq!(decoded.values, [42.0]);
    }

    #[test]
    fn subscription_subset() {
        let (_b, topic, producer) = setup(3);
        producer.send_v2_to(0, &batch(0.0), 0).expect("send");
        producer.send_v2_to(1, &batch(1.0), 0).expect("send");
        producer.send_v2_to(2, &batch(2.0), 0).expect("send");
        let mut consumer = Consumer::subscribe(topic, &[1], StartOffset::Earliest);
        assert_eq!(
            (consumer.position(0), consumer.position(1)),
            (None, Some(0))
        );
        let got = consumer.poll(10, Duration::ZERO).expect("poll");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].partition, 1);
    }

    #[test]
    fn lag_counts_unread_records() {
        let (_b, topic, producer) = setup(1);
        let consumer = Consumer::subscribe_all(Arc::clone(&topic), StartOffset::Earliest);
        send(&producer, 1.0);
        send(&producer, 2.0);
        assert_eq!(consumer.lag(), 2);
    }
}
