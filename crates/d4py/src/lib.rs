//! `d4py` — a dispel4py-style parallel stream-based dataflow engine
//! (paper §II-A, Fig. 1).
//!
//! dispel4py programs are directed acyclic graphs of **Processing Elements
//! (PEs)** connected by named, typed data streams. Users describe an
//! *abstract* workflow; the engine maps it onto an execution system — the
//! *concrete* workflow — according to a chosen **mapping** and process
//! count. This crate reproduces that contract:
//!
//! * [`pe`] — the PE abstraction: a [`pe::PE`] trait, whose `process`
//!   takes `Option<(&str, Data)>` (the input port's name, borrowed from
//!   the run, and the datum; `None` drives a producer), plus the
//!   dispel4py convenience families (`IterativePE`, `ProducerPE`,
//!   `ConsumerPE`, `GenericPE`) built from closures;
//! * [`graph`] — abstract workflow graphs with ports, grouping semantics
//!   and DAG validation;
//! * [`mapping::simple`] — sequential enactment (dispel4py's *simple*
//!   mapping);
//! * [`mapping::multi`] — static workload distribution over ranks with
//!   bounded channels (dispel4py's *multiprocessing* mapping; Fig. 5b's
//!   `{'NumberProducer': range(0, 1), 'IsPrime1': range(1, 5), …}` rank
//!   partition);
//! * [`mapping::dynamic`] — dynamic workload allocation through a shared
//!   work queue with autoscaling workers (dispel4py's *Redis* mapping,
//!   Liang et al. 2022), simulated in-process;
//! * [`monitor`] — per-rank iteration counts and the captured output
//!   stream ("IsPrime1 (rank 1): Processed 3 iterations.").
//!
//! All three mappings enact through one core: a per-run plan (display
//! names, port indices and out-edges resolved once), one supervised step
//! per PE invocation, one root feed and one local drain. Each mapping
//! keeps only its scheduling. The multi mapping's ranks and the dynamic
//! mapping's workers (at most [`MAX_RANKS`] per run) are owned jobs on one
//! process-wide pool of parked threads, woken per run rather than started
//! ([`mapping::threads`]); the execution engine's containers run on it
//! too. The crate forbids `unsafe` code.
//!
//! # Quickstart
//!
//! ```
//! use d4py::prelude::*;
//!
//! let mut g = WorkflowGraph::new("doubler_wf");
//! let src = g.add(ProducerPE::new("Numbers", |i| Some(Data::from(i as i64))));
//! let dbl = g.add(IterativePE::new("Double", |d| {
//!     Some(Data::from(d.as_int().unwrap_or(0) * 2))
//! }));
//! let sink = g.add(ConsumerPE::new("Print", |d, ctx| {
//!     ctx.log(format!("got {d}"));
//! }));
//! g.connect(src, OUTPUT, dbl, INPUT).unwrap();
//! g.connect(dbl, OUTPUT, sink, INPUT).unwrap();
//!
//! let result = run(&g, RunInput::Iterations(5), &Mapping::Simple).unwrap();
//! assert_eq!(result.lines().len(), 5);
//! assert!(result.lines()[0].starts_with("got"));
//! ```

#![forbid(unsafe_code)]

pub mod data;
pub mod error;
pub mod fault;
pub mod graph;
pub mod mapping;
pub mod monitor;
pub mod pe;
pub mod workflows;

pub use data::Data;
pub use error::GraphError;
pub use fault::{
    inject_chaos, ChaosConfig, ChaosFactory, ChaosPE, DeadLetterEntry, FaultInjector, FaultPolicy,
    FaultStats, RunOptions,
};
pub use graph::{Grouping, NodeId, WorkflowGraph, INPUT, MAX_RANKS, OUTPUT};
pub use mapping::{
    run, run_with_options, DynamicConfig, Mapping, RunInput, RunResult, MAX_RUN_ITEMS,
};
pub use monitor::{Monitor, OutputSink};
pub use pe::{
    AggregatePE, ConsumerPE, Context, GenericPE, IterativePE, NamedPE, PortSpec, ProducerPE,
    StatefulPE, PE,
};

/// Lock `m`, handing a poisoned mutex on: PE panics are caught and counted
/// by the supervisor, and a thread that died some other way must not turn
/// every later reader of the monitor or the dead-letter queue into a panic.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Everything a workflow author needs.
pub mod prelude {
    pub use crate::data::Data;
    pub use crate::fault::{
        inject_chaos, ChaosConfig, DeadLetterEntry, FaultInjector, FaultPolicy, FaultStats,
        RunOptions,
    };
    pub use crate::graph::{Grouping, NodeId, WorkflowGraph, INPUT, OUTPUT};
    pub use crate::mapping::{run, run_with_options, DynamicConfig, Mapping, RunInput, RunResult};
    pub use crate::pe::{
        AggregatePE, ConsumerPE, Context, GenericPE, IterativePE, NamedPE, PortSpec, ProducerPE,
        StatefulPE, PE,
    };
}
