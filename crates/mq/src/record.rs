//! Records: the unit of storage and delivery in the broker.

use bytes::Bytes;

/// A record as stored in a partition log and handed to consumers.
///
/// `offset` is assigned by the partition at append time and is strictly
/// increasing; `timestamp` is the producer-supplied event time in
/// nanoseconds; `watermark` is the sender's low watermark when it sent
/// the record.
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
    /// The sender's event-time low watermark, in nanoseconds: its promise
    /// that nothing it sends to this partition after this record carries
    /// an event time below it. Metadata only, like `timestamp` — it is
    /// not part of the payload, so it adds no wire bytes. 0 promises
    /// nothing; [`crate::Topic::append_to`] stores 0, and
    /// [`crate::Topic::append_with_watermark`] sets it.
    pub watermark: u64,
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
