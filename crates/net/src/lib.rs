//! # approxiot-net
//!
//! WAN emulation for the ApproxIoT reproduction: the substitute for the
//! paper's 25-node testbed shaped with Linux `tc`.
//!
//! The paper's evaluation sets round-trip delays of 20/40/80 ms between
//! adjacent tree layers over 1 Gbps links. This crate provides:
//!
//! * [`RateLimiter`] — a token bucket modelling a link's finite capacity
//!   for a producer thread sending through the shared broker;
//! * [`ImpairmentSpec`] / [`Impairment`] — deterministic seeded loss,
//!   jitter, duplication and bounded reorder (`tc netem`'s fault knobs),
//!   the decision source behind the runtime's per-hop fault injection;
//! * [`bandwidth_saving`] — the Figure 7 bandwidth-saving rate;
//! * [`Clock`], [`WallClock`], [`SimClock`] — the time abstraction letting
//!   accuracy experiments run in fast virtual time while latency
//!   experiments use real waiting.
//!
//! ## Example
//!
//! ```
//! use approxiot_net::RateLimiter;
//!
//! // The paper's 1 Gbps link in bytes/s, with a 64 KB burst allowance.
//! let link = RateLimiter::new(125_000_000, 64_000);
//! assert!(link.try_acquire(1_500)); // one frame, served from the burst
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod impairment;
pub mod metrics;
pub mod ratelimit;

pub use clock::{Clock, SimClock, WallClock};
pub use impairment::{Impairment, ImpairmentSpec};
pub use metrics::bandwidth_saving;
pub use ratelimit::RateLimiter;
