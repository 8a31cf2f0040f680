//! `laminar-execengine` — the serverless execution engine (paper §III,
//! §IV-E/F).
//!
//! In Laminar 2.0 the execution engine runs registered dispel4py workflows
//! serverlessly: Dockerised containers are provisioned on demand, Python
//! dependencies are auto-imported, the workflow's stdout is captured into a
//! concurrent queue and streamed line-by-line back to the server (HTTP/2
//! streaming). This crate reproduces each piece:
//!
//! * [`containers`] — a simulated container pool with a cold-start latency
//!   model, warm-pool reuse and auto-provisioning; it is bookkeeping only,
//!   and each run is a job on d4py's pool of parked threads, so a warm run
//!   starts no thread;
//! * [`imports`] — auto-import dependency resolution: scan the workflow's
//!   Python source for `import`s (once per source), resolve them against a
//!   simulated package index, "install" (cache) what is missing;
//! * [`library`] — the runnable-workflow library: the paper ships Python
//!   code to a Python interpreter; the Rust reproduction instead maps a
//!   registered workflow name to a native graph builder (substitution
//!   documented in DESIGN.md);
//! * [`engine`] — ties it together: acquire container → resolve imports →
//!   enact on d4py → stream captured output as [`engine::Frame`]s.

pub mod containers;
pub mod engine;
pub mod imports;
pub mod library;

pub use containers::{ContainerPool, PoolConfig, PoolStats};
pub use engine::{EngineError, ExecRequest, ExecutionEngine, ExecutionReport, Frame, ResponseMode};
pub use imports::{resolve_imports, ImportResolution, PackageIndex};
pub use library::WorkflowLibrary;
