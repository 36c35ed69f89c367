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
/// topic.append(ProducerRecord::new(&b"reading"[..]))?;
/// assert_eq!(topic.len(), 1);
/// # Ok::<(), approxiot_mq::MqError>(())
/// ```
#[derive(Debug, Default)]
pub struct Broker {
    // BTreeMap, not HashMap: `close()` and `topic_names()` iterate the
    // registry, and iteration order must not depend on hash state.
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

    /// Returns the topic, creating it (with `partitions`) when missing.
    pub fn topic_or_create(&self, name: &str, partitions: u32) -> Arc<Topic> {
        if let Ok(t) = self.topic(name) {
            return t;
        }
        // Take the write lock once and decide under it; this cannot race
        // with a concurrent creator the way lookup-then-create would.
        let mut topics = self.topics.write();
        match topics.get(name) {
            Some(t) => Arc::clone(t),
            None => {
                let topic = Arc::new(Topic::new(name, partitions, DEFAULT_RETENTION));
                topics.insert(name.to_string(), Arc::clone(&topic));
                topic
            }
        }
    }

    /// Deletes a topic, closing its partitions.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::UnknownTopic`] when absent.
    pub fn delete_topic(&self, name: &str) -> Result<(), MqError> {
        let topic = self
            .topics
            .write()
            .remove(name)
            .ok_or_else(|| MqError::UnknownTopic(name.to_string()))?;
        topic.close();
        Ok(())
    }

    /// Names of all topics, sorted.
    pub fn topic_names(&self) -> Vec<String> {
        self.topics.read().keys().cloned().collect()
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
    use std::thread;

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
    fn topic_or_create_is_idempotent() {
        let broker = Broker::new();
        let t1 = broker.topic_or_create("x", 3);
        let t2 = broker.topic_or_create("x", 99);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(t2.partition_count(), 3, "second call does not resize");
    }

    #[test]
    fn delete_closes_topic() {
        let broker = Broker::new();
        let t = broker.create_topic("a", 1).expect("create");
        broker.delete_topic("a").expect("delete");
        assert!(matches!(broker.topic("a"), Err(MqError::UnknownTopic(_))));
        assert!(matches!(
            t.append(ProducerRecord::new(&b"x"[..])),
            Err(MqError::Closed)
        ));
        assert!(broker.delete_topic("a").is_err());
    }

    #[test]
    fn topic_names_sorted() {
        let broker = Broker::new();
        broker.create_topic("zeta", 1).expect("create");
        broker.create_topic("alpha", 1).expect("create");
        assert_eq!(broker.topic_names(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn concurrent_topic_or_create_yields_one_topic() {
        let broker = Arc::new(Broker::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let broker = Arc::clone(&broker);
                thread::spawn(move || broker.topic_or_create("shared", 2))
            })
            .collect();
        let topics: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        for t in &topics[1..] {
            assert!(Arc::ptr_eq(&topics[0], t));
        }
    }

    #[test]
    fn close_all_topics() {
        let broker = Broker::new();
        let a = broker.create_topic("a", 1).expect("create");
        let b = broker.create_topic("b", 1).expect("create");
        broker.close();
        assert!(a.append(ProducerRecord::new(&b"x"[..])).is_err());
        assert!(b.append(ProducerRecord::new(&b"x"[..])).is_err());
    }
}
