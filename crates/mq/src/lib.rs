//! # approxiot-mq
//!
//! An in-process, partitioned publish/subscribe broker: the reproduction's
//! substitute for Apache Kafka (which the ApproxIoT paper's prototype is
//! built on).
//!
//! The ApproxIoT design only needs four properties from its messaging
//! substrate, and this crate provides all of them:
//!
//! 1. **Named topics** decoupling the edge-computing layers — one topic per
//!    layer of the logical tree (paper §IV, Figure 4).
//! 2. **Partitioned, offset-addressed logs** so each consumer tracks its
//!    own progress, and each sender writes its own partition of a layer's
//!    topic.
//! 3. **Blocking consumption with reader-driven retention** — a
//!    partition log keeps what is *in flight*: every subscribed
//!    [`Consumer`] registers as a reader, each poll tells the log how far
//!    it has got, and the log drops what its slowest reader has polled
//!    past (dropping the consumer releases its hold). A partition nobody
//!    subscribes to falls back to a record-count cap
//!    ([`DEFAULT_RETENTION`]), which also bounds how far a stalled reader
//!    can pin the log; a reader that is truncated past is reset to the
//!    earliest retained offset instead of wedging. There is no producer
//!    back-pressure: a producer that outruns its readers queues without
//!    bound up to that cap.
//! 4. **A wire format** so the network layer can meter real bytes for the
//!    bandwidth-saving experiment (Figure 7): v2 columnar frames for items
//!    and v3 frames for per-stratum summaries ([`codec`]).
//!
//! ## Example
//!
//! ```
//! use approxiot_core::{ColumnarBatch, StratumId, StreamItem};
//! use approxiot_mq::codec::decode_columns_into;
//! use approxiot_mq::{BatchProducer, Broker, Consumer, StartOffset};
//! use std::time::Duration;
//!
//! let broker = Broker::new();
//! let topic = broker.create_topic("edge-layer-1", 4)?;
//!
//! // Each sender owns a partition of its layer's topic.
//! let producer = BatchProducer::new(topic.clone());
//! let mut frame = ColumnarBatch::new();
//! frame.push(StreamItem::new(StratumId::new(0), 21.5));
//! producer.send_columns_to(2, &frame, 0, 0)?;
//!
//! let mut consumer = Consumer::subscribe_all(topic, StartOffset::Earliest);
//! let records = consumer.poll(16, Duration::from_millis(10))?;
//! let mut received = ColumnarBatch::new();
//! decode_columns_into(&records[0].value, &mut received)?;
//! assert_eq!(received.values, [21.5]);
//! # Ok::<(), approxiot_mq::MqError>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod broker;
pub mod codec;
pub mod consumer;
pub mod error;
pub mod log;
pub mod producer;
pub mod record;
pub mod topic;

pub use broker::{Broker, DEFAULT_RETENTION};
pub use consumer::{Consumer, StartOffset};
pub use error::MqError;
pub use log::PartitionLog;
pub use producer::BatchProducer;
pub use record::{ProducerRecord, Record};
pub use topic::Topic;
