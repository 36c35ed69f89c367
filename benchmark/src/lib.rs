//! The repo's benchmark.
//!
//! Two binaries share this library:
//!
//! * `bench` runs a workload end to end through the product's front door
//!   (`Topology` + `Driver`) and prints the twelve end-to-end metrics;
//! * `trace` walks the same tree hop by hop on one thread, with a span
//!   around every call into a layer, and prints the per-layer metrics.
//!
//! Nothing in this library touches a layer function: only `trace` does,
//! so deleting a layer twin can break the tracer but never the
//! end-to-end runs. See `README.md` for the workloads, the metrics and
//! the exact product surface each binary pins.

pub mod cli;
pub mod compare;
pub mod json;
pub mod measure;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod workloads;
