//! `laminar-benchmark` — the repository benchmark.
//!
//! `bench_e2e` drives a real `laminar-server` child over loopback TCP on
//! five workloads and reports what a client sees; `bench_layers` deploys
//! the same stack in-process and times each layer from outside through
//! its public functions, recording spans. `README.md` beside this crate
//! has the metric glossary, why each workload exists, and which public
//! functions the benchmark is bound to.

pub mod args;
pub mod child;
pub mod e2e;
pub mod fixture;
pub mod gen;
pub mod layers;
pub mod metrics;
pub mod report;
#[cfg(test)]
mod standins;
pub mod stats;
