//! Deterministic whole-system simulation for Laminar.
//!
//! FoundationDB-style testing: the entire server — registry, WAL,
//! snapshots, execution engine, search and recommendation indexes,
//! health state machine — runs in-process with no timer, driven by
//! a seeded workload generator, with three composed fault planes
//! (registry disk faults, d4py enactment chaos, transport faults) plus
//! crash-restart cycles. Everything derives from one `u64` seed, so any
//! failure reprints as `SIM_SEED=<n>` and replays bit-identically.
//!
//! The harness keeps a reference model of the acknowledged-op history
//! and checks oracle invariants after every operation; see
//! [`harness`] for the invariant list and `DESIGN.md` §13 for the
//! full write-up.
//!
//! Run it: `cargo run -p laminar-sim --release -- --seed 1337`

pub mod harness;
pub mod model;
pub mod netfault;
pub mod rng;
pub mod workload;

pub use harness::{run_sim, Mutation, SimOptions, SimReport};
pub use model::{PeModel, Presence, SimModel, WfModel};
pub use netfault::{CallOutcome, CallRecord, FaultyConn, NetFault, NetState};
pub use rng::SimRng;
pub use workload::{SimOp, Workload};
