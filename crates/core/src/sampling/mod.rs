//! Sampling algorithms: reservoirs, allocation policies, weighted
//! hierarchical sampling (reference path and the zero-copy
//! [`whs::WhsScratch`] hot path), §III-E sharding
//! ([`sharded::ShardedSampler`]) and the SRS baseline.

pub mod allocation;
pub mod reservoir;
pub mod sharded;
pub mod srs;
pub mod whs;
