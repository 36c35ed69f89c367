//! # approxiot-streams
//!
//! Event-time windowing for the ApproxIoT reproduction: the computation
//! windows of Algorithm 2's interval loop (0.5–4 s in the paper's
//! evaluation).
//!
//! * [`TumblingWindow`] maps source timestamps to window indices
//!   ([`WindowId`]).
//! * [`WindowBuffer`] accumulates values per window and releases a window
//!   once the watermark passes its end (plus any allowed lateness).
//!
//! `approxiot-runtime` assigns items to windows and closes the root's
//! windows through these two types.
//!
//! ## Example
//!
//! ```
//! use approxiot_streams::{TumblingWindow, WindowBuffer};
//! use std::time::Duration;
//!
//! // 1-second windows; the watermark at 2 s closes windows 0 and 1.
//! let mut buf = WindowBuffer::new(TumblingWindow::new(Duration::from_secs(1)));
//! for (ts, v) in [(100_000_000, 1.0), (1_200_000_000, 2.0), (1_900_000_000, 3.0)] {
//!     buf.insert(ts, v);
//! }
//! let closed = buf.drain_closed(2_000_000_000);
//! assert_eq!(closed, vec![(0, vec![1.0]), (1, vec![2.0, 3.0])]);
//! ```

#![forbid(unsafe_code)]

pub mod window;

pub use window::{TumblingWindow, WindowBuffer, WindowId};
