//! The broker: a registry of topics shared across threads.

use crate::error::MqError;
use crate::topic::Topic;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default per-partition record-count cap. A fallback, not a memory
/// bound — 2²⁰ records of the pipeline's 8 KB frames would be ≈8 GB: what
/// keeps a subscribed partition small is reader-driven release (see
/// [`crate::PartitionLog`]); this cap only governs partitions without a
/// subscriber and readers that have stopped polling.
pub const DEFAULT_RETENTION: usize = 1 << 20;

/// An in-process broker holding named topics.
///
/// Cheap to clone handles via [`Arc`]; all methods take `&self`.
///
/// # Examples
///
/// ```
/// use approxiot_mq::{Broker, ProducerRecord};
///
/// let broker = Broker::new();
/// broker.create_topic("edge-layer-1", 4)?;
/// let topic = broker.topic("edge-layer-1")?;
/// topic.append_to(3, ProducerRecord::new(&b"reading"[..]))?;
/// assert_eq!(topic.len(), 1);
/// # Ok::<(), approxiot_mq::MqError>(())
/// ```
#[derive(Debug, Default)]
pub struct Broker {
    // BTreeMap, not HashMap: `close()` iterates the registry, and
    // iteration order must not depend on hash state.
    topics: RwLock<BTreeMap<String, Arc<Topic>>>,
}

impl Broker {
    /// Creates an empty broker.
    pub fn new() -> Self {
        Broker::default()
    }

    /// Creates a topic with the default record-count cap
    /// ([`DEFAULT_RETENTION`]).
    ///
    /// # Errors
    ///
    /// Returns [`MqError::TopicExists`] if the name is taken.
    pub fn create_topic(&self, name: &str, partitions: u32) -> Result<Arc<Topic>, MqError> {
        self.create_topic_with_retention(name, partitions, DEFAULT_RETENTION)
    }

    /// Creates a topic with an explicit per-partition record-count cap.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::TopicExists`] if the name is taken.
    pub fn create_topic_with_retention(
        &self,
        name: &str,
        partitions: u32,
        retention: usize,
    ) -> Result<Arc<Topic>, MqError> {
        let mut topics = self.topics.write();
        if topics.contains_key(name) {
            return Err(MqError::TopicExists(name.to_string()));
        }
        let topic = Arc::new(Topic::new(name, partitions, retention));
        topics.insert(name.to_string(), Arc::clone(&topic));
        Ok(topic)
    }

    /// Looks up an existing topic.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::UnknownTopic`] when absent.
    pub fn topic(&self, name: &str) -> Result<Arc<Topic>, MqError> {
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| MqError::UnknownTopic(name.to_string()))
    }

    /// Closes every topic (in-flight readers drain then observe `Closed`).
    pub fn close(&self) {
        for topic in self.topics.read().values() {
            topic.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ProducerRecord;

    #[test]
    fn create_and_lookup() {
        let broker = Broker::new();
        broker.create_topic("a", 2).expect("create");
        assert_eq!(broker.topic("a").expect("lookup").partition_count(), 2);
        assert!(matches!(broker.topic("b"), Err(MqError::UnknownTopic(_))));
    }

    #[test]
    fn duplicate_creation_fails() {
        let broker = Broker::new();
        broker.create_topic("a", 1).expect("create");
        assert!(matches!(
            broker.create_topic("a", 1),
            Err(MqError::TopicExists(_))
        ));
    }

    #[test]
    fn close_all_topics() {
        let broker = Broker::new();
        let a = broker.create_topic("a", 1).expect("create");
        let b = broker.create_topic("b", 1).expect("create");
        broker.close();
        assert!(a.append_to(0, ProducerRecord::new(&b"x"[..])).is_err());
        assert!(b.append_to(0, ProducerRecord::new(&b"x"[..])).is_err());
    }
}
