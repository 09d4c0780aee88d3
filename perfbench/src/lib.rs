//! # perfbench — end-to-end and per-layer benchmark
//!
//! Runs the collector (`collectd::Collector`, behind `netsample serve`)
//! and the streaming engine (`streamkit::run_stream`, behind `netsample
//! stream`) on three seeded workloads, checks their reports, and
//! reports end-to-end metrics from an untraced run and per-layer
//! metrics from a separate traced run that recomposes each path from
//! the layers' public calls. See `README.md` in this directory for the
//! metric glossary and the layer → metric → workload map.

pub mod alloc;
pub mod check;
pub mod runner;
pub mod serve;
pub mod stream;
pub mod trace;
pub mod workload;

/// Every allocation in a binary linking this crate goes through the
/// counting allocator; counting itself is off unless a traced run
/// switches it on.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
