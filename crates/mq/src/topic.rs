//! Topics: named groups of partitions; keyless records rotate through them.

use crate::error::MqError;
use crate::log::PartitionLog;
use crate::record::{ProducerRecord, Record};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A named, partitioned log.
#[derive(Debug)]
pub struct Topic {
    name: String,
    partitions: Vec<Arc<PartitionLog>>,
    round_robin: AtomicU64,
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
            round_robin: AtomicU64::new(0),
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

    /// Chooses the partition for a record: keyed records hash their key,
    /// keyless records rotate through the partitions.
    pub fn partition_for(&self, record: &ProducerRecord) -> u32 {
        let n = self.partitions.len() as u64;
        match &record.key {
            Some(key) => (fnv1a(key) % n) as u32,
            None => (self.round_robin.fetch_add(1, Ordering::Relaxed) % n) as u32,
        }
    }

    /// Appends a producer record to its chosen partition, returning
    /// `(partition, offset)`.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::Closed`] after the topic is closed.
    pub fn append(&self, record: ProducerRecord) -> Result<(u32, u64), MqError> {
        let partition = self.partition_for(&record);
        self.append_to(partition, record)
    }

    /// Appends to an explicit partition.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::PartitionOutOfRange`] or [`MqError::Closed`].
    pub fn append_to(&self, partition: u32, record: ProducerRecord) -> Result<(u32, u64), MqError> {
        let offset = self.log(partition)?.append(Record {
            partition,
            offset: 0,
            timestamp: record.timestamp,
            key: record.key,
            value: record.value,
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

/// FNV-1a hash for key partitioning (stable across runs, unlike `std`'s
/// randomly seeded hasher — tests and reproductions need determinism).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
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
    fn round_robin_spreads_records() {
        let topic = Topic::new("t", 3, usize::MAX);
        let mut hit = [0usize; 3];
        for _ in 0..9 {
            let (p, _) = topic
                .append(ProducerRecord::new(&b"x"[..]))
                .expect("append");
            hit[p as usize] += 1;
        }
        assert_eq!(hit, [3, 3, 3]);
    }

    #[test]
    fn keyed_records_are_stable() {
        let topic = Topic::new("t", 4, usize::MAX);
        let p1 = topic.partition_for(&ProducerRecord::new(&b"v"[..]).with_key(&b"sensor-7"[..]));
        let p2 = topic.partition_for(&ProducerRecord::new(&b"w"[..]).with_key(&b"sensor-7"[..]));
        assert_eq!(p1, p2, "same key, same partition");
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
        let topic = Topic::new("t", 1, usize::MAX);
        let (p, o) = topic
            .append(ProducerRecord::new(&b"hello"[..]).with_timestamp(5))
            .expect("append");
        assert_eq!((p, o), (0, 0));
        let log = topic.partition(0).expect("partition");
        let got = log.read_from(0, 10, Duration::ZERO).expect("read");
        assert_eq!(got[0].value.as_ref(), b"hello");
        assert_eq!(got[0].timestamp, 5);
        assert_eq!(topic.len(), 1);
        assert!(!topic.is_empty());
    }

    #[test]
    fn close_propagates_to_partitions() {
        let topic = Topic::new("t", 2, usize::MAX);
        topic.close();
        assert!(matches!(
            topic.append(ProducerRecord::new(&b"x"[..])),
            Err(MqError::Closed)
        ));
    }

    #[test]
    fn fnv_is_deterministic() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }
}
