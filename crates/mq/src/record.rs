//! Records: the unit of storage and delivery in the broker.

use bytes::Bytes;

/// A record as stored in a partition log and handed to consumers.
///
/// `offset` is assigned by the partition at append time and is strictly
/// increasing; `timestamp` is the producer-supplied event time in
/// nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Partition the record lives in.
    pub partition: u32,
    /// Monotonic position within the partition.
    pub offset: u64,
    /// Producer-supplied event time (nanoseconds).
    pub timestamp: u64,
    /// The producer's key, if any, as it was appended.
    pub key: Option<Bytes>,
    /// The payload.
    pub value: Bytes,
}

/// A record as handed to the broker by a producer (before offset
/// assignment).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProducerRecord {
    /// Optional key, stored with the record. It does not choose the
    /// partition: the producer names that ([`crate::Topic::append_to`]).
    pub key: Option<Bytes>,
    /// The payload.
    pub value: Bytes,
    /// Event time in nanoseconds (0 when unknown).
    pub timestamp: u64,
}

impl ProducerRecord {
    /// Creates a record carrying `value` with no key.
    pub fn new(value: impl Into<Bytes>) -> Self {
        ProducerRecord {
            key: None,
            value: value.into(),
            timestamp: 0,
        }
    }

    /// Sets the key.
    pub fn with_key(mut self, key: impl Into<Bytes>) -> Self {
        self.key = Some(key.into());
        self
    }

    /// Sets the event timestamp (nanoseconds).
    pub fn with_timestamp(mut self, timestamp: u64) -> Self {
        self.timestamp = timestamp;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn producer_record_builder() {
        let r = ProducerRecord::new(&b"payload"[..])
            .with_key(&b"k"[..])
            .with_timestamp(42);
        assert_eq!(r.key.as_deref(), Some(&b"k"[..]));
        assert_eq!(r.value.as_ref(), b"payload");
        assert_eq!(r.timestamp, 42);
    }
}
