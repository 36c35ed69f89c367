//! The partition log: an append-only, offset-addressed record sequence
//! that forgets what its readers have consumed, with blocking reads.

use crate::error::MqError;
use crate::record::Record;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Duration;

/// State protected by the partition lock.
#[derive(Debug, Default)]
struct LogState {
    records: VecDeque<Record>,
    /// Offset of the first retained record.
    earliest: u64,
    /// Offset the next appended record will get.
    next: u64,
    closed: bool,
    /// Position (next offset to read) of every registered reader, indexed
    /// by reader slot; `None` is a free slot.
    readers: Vec<Option<u64>>,
}

impl LogState {
    /// Drops every record below the slowest registered reader's position;
    /// with no registered reader nothing is released.
    fn release_consumed(&mut self) {
        if let Some(&floor) = self.readers.iter().flatten().min() {
            let released = floor.min(self.next).saturating_sub(self.earliest);
            self.records.drain(..released as usize);
            self.earliest += released;
        }
    }
}

/// A single partition: an append-only log with monotonically increasing
/// offsets.
///
/// Retention is **reader-driven**: every [`crate::Consumer`] subscribed to
/// the partition registers a reader slot, each read records how far that
/// reader has got, and the log drops everything below the slowest
/// registered reader — so the log holds what is in flight, not what was
/// ever appended. [`Record`]s already handed out stay valid (their payload
/// is reference-counted); a reader that rewinds below the released prefix
/// receives [`MqError::OffsetOutOfRange`].
///
/// The record-count `retention` is the fallback, not a memory bound: it
/// is the only rule on a partition nobody has subscribed to, and a cap on
/// how far a stalled reader can pin the log. When more than `retention`
/// records are stored the oldest are truncated, and readers positioned
/// before the new earliest offset receive [`MqError::OffsetOutOfRange`].
#[derive(Debug)]
pub struct PartitionLog {
    index: u32,
    retention: usize,
    state: Mutex<LogState>,
    appended: Condvar,
}

impl PartitionLog {
    /// Creates an empty partition capped at `retention` records
    /// (`usize::MAX` for no cap) — the fallback rule; see the type docs.
    pub fn new(index: u32, retention: usize) -> Self {
        PartitionLog {
            index,
            retention: retention.max(1),
            state: Mutex::new(LogState::default()),
            appended: Condvar::new(),
        }
    }

    /// The partition's index within its topic.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Appends a record (offset is assigned here) and wakes blocked readers.
    ///
    /// # Errors
    ///
    /// Returns [`MqError::Closed`] after [`PartitionLog::close`].
    pub fn append(&self, mut record: Record) -> Result<u64, MqError> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(MqError::Closed);
        }
        let offset = state.next;
        record.offset = offset;
        record.partition = self.index;
        state.records.push_back(record);
        state.next += 1;
        while state.records.len() > self.retention {
            state.records.pop_front();
            state.earliest += 1;
        }
        drop(state);
        self.appended.notify_all();
        Ok(offset)
    }

    /// Reads up to `max` records starting at `offset`, blocking up to
    /// `timeout` for data when the log is caught up. An empty result means
    /// the timeout elapsed with no new data.
    ///
    /// # Errors
    ///
    /// * [`MqError::OffsetOutOfRange`] when `offset` was truncated.
    /// * [`MqError::Closed`] when the log is closed **and** fully consumed.
    pub fn read_from(
        &self,
        offset: u64,
        max: usize,
        timeout: Duration,
    ) -> Result<Vec<Record>, MqError> {
        let mut out = Vec::new();
        self.read_into(offset, max, timeout, &mut out)?;
        Ok(out)
    }

    /// Like [`PartitionLog::read_from`], but **appends** the records to a
    /// caller-owned buffer and returns how many were appended — the
    /// allocation-free consumption path ([`crate::Consumer::poll_into`]
    /// sweeps several partitions into one reused buffer). Record clones
    /// only bump the payload's refcount; no payload bytes are copied.
    ///
    /// A direct read like this one is anonymous: it neither pins nor
    /// releases anything. Only a [`crate::Consumer`]'s reads move the
    /// retention floor.
    ///
    /// # Errors
    ///
    /// Same contract as [`PartitionLog::read_from`].
    pub fn read_into(
        &self,
        offset: u64,
        max: usize,
        timeout: Duration,
        out: &mut Vec<Record>,
    ) -> Result<usize, MqError> {
        self.read_as(None, offset, max, timeout, out)
    }

    /// Registers a reader positioned at the earliest retained offset (or
    /// at the log end with `at_end`), returning its slot and that
    /// position. From here on the log keeps every record at or above the
    /// reader's last recorded position (up to the count cap) until
    /// [`PartitionLog::release_reader`].
    pub(crate) fn register_reader(&self, at_end: bool) -> (usize, u64) {
        let mut state = self.state.lock();
        let position = if at_end { state.next } else { state.earliest };
        let slot = match state.readers.iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                state.readers.push(None);
                state.readers.len() - 1
            }
        };
        state.readers[slot] = Some(position);
        (slot, position)
    }

    /// Frees a reader slot: the reader no longer holds anything back.
    pub(crate) fn release_reader(&self, slot: usize) {
        self.state.lock().readers[slot] = None;
    }

    /// The read path. A registered `reader` first records `offset` as its
    /// position — everything below it has been delivered to it by earlier
    /// reads — and, under the same lock acquisition, the log releases what
    /// every reader has moved past.
    pub(crate) fn read_as(
        &self,
        reader: Option<usize>,
        offset: u64,
        max: usize,
        timeout: Duration,
        out: &mut Vec<Record>,
    ) -> Result<usize, MqError> {
        let mut state = self.state.lock();
        if let Some(slot) = reader {
            state.readers[slot] = Some(offset);
            state.release_consumed();
        }
        if offset >= state.next && !state.closed {
            // Caught up: wait for an append or the timeout.
            self.appended.wait_for(&mut state, timeout);
        }
        // Checked after the wait: appends during it may have pushed the
        // count cap past `offset`.
        if offset < state.earliest {
            return Err(MqError::OffsetOutOfRange {
                requested: offset,
                earliest: state.earliest,
            });
        }
        if offset >= state.next {
            return if state.closed {
                Err(MqError::Closed)
            } else {
                Ok(0)
            };
        }
        let start = (offset - state.earliest) as usize;
        let end = state.records.len().min(start + max);
        let taken = end - start;
        out.extend(state.records.iter().skip(start).take(taken).cloned());
        Ok(taken)
    }

    /// Earliest retained offset.
    pub fn earliest_offset(&self) -> u64 {
        self.state.lock().earliest
    }

    /// Offset the next record will receive (== log end offset).
    pub fn latest_offset(&self) -> u64 {
        self.state.lock().next
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.state.lock().records.len()
    }

    /// Returns `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.state.lock().records.is_empty()
    }

    /// Marks the log closed: further appends fail, and readers that reach
    /// the end receive [`MqError::Closed`] instead of blocking.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.appended.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::Arc;
    use std::thread;

    fn rec(n: u8) -> Record {
        Record {
            partition: 0,
            offset: 0,
            timestamp: n as u64,
            key: None,
            value: Bytes::copy_from_slice(&[n]),
            watermark: 0,
        }
    }

    #[test]
    fn appends_assign_monotonic_offsets() {
        let log = PartitionLog::new(3, usize::MAX);
        assert_eq!(log.append(rec(0)).expect("append"), 0);
        assert_eq!(log.append(rec(1)).expect("append"), 1);
        assert_eq!(log.latest_offset(), 2);
        let got = log.read_from(0, 10, Duration::ZERO).expect("read");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].offset, 0);
        assert_eq!(got[0].partition, 3, "partition index stamped on append");
        assert_eq!(got[1].offset, 1);
    }

    #[test]
    fn read_respects_max() {
        let log = PartitionLog::new(0, usize::MAX);
        for i in 0..10 {
            log.append(rec(i)).expect("append");
        }
        let got = log.read_from(2, 3, Duration::ZERO).expect("read");
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].offset, 2);
        assert_eq!(got[2].offset, 4);
    }

    #[test]
    fn empty_read_times_out_with_no_data() {
        let log = PartitionLog::new(0, usize::MAX);
        let got = log
            .read_from(0, 10, Duration::from_millis(5))
            .expect("read");
        assert!(got.is_empty());
    }

    #[test]
    fn retention_truncates_oldest() {
        let log = PartitionLog::new(0, 3);
        for i in 0..5 {
            log.append(rec(i)).expect("append");
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.earliest_offset(), 2);
        let err = log.read_from(0, 10, Duration::ZERO).unwrap_err();
        assert_eq!(
            err,
            MqError::OffsetOutOfRange {
                requested: 0,
                earliest: 2
            }
        );
        let got = log.read_from(2, 10, Duration::ZERO).expect("read");
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn blocking_read_wakes_on_append() {
        let log = Arc::new(PartitionLog::new(0, usize::MAX));
        let reader = {
            let log = Arc::clone(&log);
            thread::spawn(move || log.read_from(0, 10, Duration::from_secs(5)))
        };
        thread::sleep(Duration::from_millis(20));
        log.append(rec(7)).expect("append");
        let got = reader.join().expect("join").expect("read");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), &[7]);
    }

    #[test]
    fn close_rejects_appends_and_unblocks_readers() {
        let log = Arc::new(PartitionLog::new(0, usize::MAX));
        log.append(rec(1)).expect("append");
        log.close();
        assert_eq!(log.append(rec(2)).unwrap_err(), MqError::Closed);
        // Reads of existing data still work...
        assert_eq!(log.read_from(0, 10, Duration::ZERO).expect("read").len(), 1);
        // ...but reading past the end reports Closed instead of blocking.
        assert_eq!(
            log.read_from(1, 10, Duration::from_secs(5)).unwrap_err(),
            MqError::Closed
        );
    }

    #[test]
    fn concurrent_producers_never_lose_records() {
        let log = Arc::new(PartitionLog::new(0, usize::MAX));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                thread::spawn(move || {
                    for i in 0..250u8 {
                        log.append(rec(i.wrapping_add(t))).expect("append");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("join");
        }
        assert_eq!(log.latest_offset(), 1000);
        assert_eq!(log.len(), 1000);
        // Offsets are dense.
        let got = log.read_from(0, 1000, Duration::ZERO).expect("read");
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
        }
    }

    #[test]
    fn zero_retention_is_clamped_to_one() {
        let log = PartitionLog::new(0, 0);
        log.append(rec(1)).expect("append");
        log.append(rec(2)).expect("append");
        assert_eq!(log.len(), 1);
        assert_eq!(log.earliest_offset(), 1);
    }
}
