//! Topics: named groups of partitions, each written by index.

use crate::error::MqError;
use crate::log::PartitionLog;
use crate::record::{ProducerRecord, Record};
use std::sync::Arc;

/// A named, partitioned log. Every append names its partition: each
/// sender in a topology owns one partition of its layer's topic.
#[derive(Debug)]
pub struct Topic {
    name: String,
    partitions: Vec<Arc<PartitionLog>>,
}

impl Topic {
    /// Creates a topic with `partitions` partitions and the given retention
    /// per partition.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero.
    pub fn new(name: impl Into<String>, partitions: u32, retention: usize) -> Self {
        assert!(partitions > 0, "a topic needs at least one partition");
        Topic {
            name: name.into(),
            partitions: (0..partitions)
                .map(|i| Arc::new(PartitionLog::new(i, retention)))
                .collect(),
        }
    }

    /// Topic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// Returns a handle to one partition.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::PartitionOutOfRange`] for a bad index.
    pub fn partition(&self, index: u32) -> Result<Arc<PartitionLog>, MqError> {
        self.log(index).cloned()
    }

    /// Borrows one partition. The per-frame paths go through here rather
    /// than [`Topic::partition`]: an `Arc` clone per append would bounce
    /// the refcount's cache line between producer and consumer threads.
    fn log(&self, index: u32) -> Result<&Arc<PartitionLog>, MqError> {
        self.partitions
            .get(index as usize)
            .ok_or(MqError::PartitionOutOfRange {
                partition: index,
                partitions: self.partition_count(),
            })
    }

    /// All partitions, in index order.
    pub fn partitions(&self) -> &[Arc<PartitionLog>] {
        &self.partitions
    }

    /// Appends a producer record to `partition`, returning
    /// `(partition, offset)`.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::PartitionOutOfRange`] or [`MqError::Closed`].
    pub fn append_to(&self, partition: u32, record: ProducerRecord) -> Result<(u32, u64), MqError> {
        self.append_with_watermark(partition, record, 0)
    }

    /// [`Topic::append_to`] with the sender's low `watermark` stored in
    /// the record's metadata ([`Record::watermark`]): it is delivered with
    /// this record, in offset order, and costs no payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::PartitionOutOfRange`] or [`MqError::Closed`].
    pub fn append_with_watermark(
        &self,
        partition: u32,
        record: ProducerRecord,
        watermark: u64,
    ) -> Result<(u32, u64), MqError> {
        let offset = self.log(partition)?.append(Record {
            partition,
            offset: 0,
            timestamp: record.timestamp,
            key: record.key,
            value: record.value,
            watermark,
        })?;
        Ok((partition, offset))
    }

    /// Closes every partition.
    pub fn close(&self) {
        for p in &self.partitions {
            p.close();
        }
    }

    /// Sum of retained records across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// Returns `true` when no partition retains records.
    pub fn is_empty(&self) -> bool {
        self.partitions.iter().all(|p| p.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        Topic::new("t", 0, usize::MAX);
    }

    #[test]
    fn partition_out_of_range() {
        let topic = Topic::new("t", 2, usize::MAX);
        assert!(matches!(
            topic.partition(5),
            Err(MqError::PartitionOutOfRange {
                partition: 5,
                partitions: 2
            })
        ));
        assert!(topic.append_to(9, ProducerRecord::new(&b"x"[..])).is_err());
    }

    #[test]
    fn append_then_read_roundtrip() {
        let topic = Topic::new("t", 2, usize::MAX);
        let record = ProducerRecord::new(&b"hello"[..])
            .with_key(&b"sensor-7"[..])
            .with_timestamp(5);
        let (p, o) = topic.append_to(1, record).expect("append");
        assert_eq!((p, o), (1, 0));
        let log = topic.partition(1).expect("partition");
        let got = log.read_from(0, 10, Duration::ZERO).expect("read");
        assert_eq!(got[0].value.as_ref(), b"hello");
        assert_eq!(got[0].key.as_deref(), Some(&b"sensor-7"[..]));
        assert_eq!(got[0].timestamp, 5);
        assert_eq!(topic.len(), 1);
        assert!(!topic.is_empty());
    }

    #[test]
    fn close_propagates_to_partitions() {
        let topic = Topic::new("t", 2, usize::MAX);
        topic.close();
        assert!(matches!(
            topic.append_to(1, ProducerRecord::new(&b"x"[..])),
            Err(MqError::Closed)
        ));
    }
}
