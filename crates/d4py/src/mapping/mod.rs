//! Mappings: enacting an abstract workflow on an execution system
//! (paper §II-A "Mappings" / "Concrete Workflow").
//!
//! | dispel4py | here | characteristics |
//! |---|---|---|
//! | *simple* | [`Mapping::Simple`] | sequential, single instance per PE |
//! | *multiprocessing* | [`Mapping::Multi`] | static rank partition, channel-connected ranks on warm pool threads |
//! | *redis* (dynamic) | [`Mapping::Dynamic`] | shared work queue, autoscaling workers on warm pool threads |

pub mod dynamic;
mod enact;
pub mod multi;
pub mod simple;
pub mod threads;

use crate::data::Data;
use crate::error::GraphError;
use crate::fault::{DeadLetterEntry, FaultStats, RunOptions, Supervisor};
use crate::graph::WorkflowGraph;
use crate::monitor::OutputSink;
use enact::Plan;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The most input items one run may be fed. The tree's largest run is
/// 20,000 iterations, and the benchmark's are smaller. Every item is a
/// root firing, and the dynamic mapping queues all of them before its
/// first worker starts, so one request past this bound would grow the
/// server's memory, or hold a container and its output, without limit.
pub const MAX_RUN_ITEMS: u64 = 100_000;

/// Configuration of the dynamic (Redis-style) mapping. A fixed pool is
/// `initial_workers == max_workers`; workers replacing those a task
/// timeout retired do not count against `max_workers` ([`dynamic`]).
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Workers active at start.
    pub initial_workers: usize,
    /// Upper bound on live workers the autoscaler may grow to.
    pub max_workers: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            initial_workers: 2,
            max_workers: 8,
        }
    }
}

/// The execution mapping selected at run time (the paper's
/// `run` / `run_multiprocess` / `run_dynamic` client functions).
#[derive(Clone)]
pub enum Mapping {
    /// Sequential enactment.
    Simple,
    /// Static workload distribution over `processes` ranks.
    Multi { processes: usize },
    /// Dynamic workload allocation with a work-queue broker.
    Dynamic(DynamicConfig),
}

/// What to feed the workflow's root PE(s).
#[derive(Debug, Clone)]
pub enum RunInput {
    /// Drive producers for `n` iterations (the CLI's `-i 10`).
    Iterations(u64),
    /// Feed explicit data items to root PEs with an input port; producers
    /// are driven once per item.
    Data(Vec<Data>),
}

impl RunInput {
    /// Refuse a run of more than [`MAX_RUN_ITEMS`] items.
    fn within_max_items(&self) -> Result<(), GraphError> {
        let requested = match self {
            RunInput::Iterations(n) => *n,
            RunInput::Data(v) => v.len() as u64,
        };
        if requested > MAX_RUN_ITEMS {
            return Err(GraphError::TooManyItems {
                requested,
                maximum: MAX_RUN_ITEMS,
            });
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        match self {
            RunInput::Iterations(n) => *n as usize,
            RunInput::Data(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of an enactment.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workflow: String,
    /// The captured output stream (PE `ctx.log` lines), in emission order.
    lines: Vec<String>,
    /// Per-(PE display name, rank) iteration counts.
    pub counts: BTreeMap<(String, usize), u64>,
    /// Fig. 5b-style rank partition, for `Multi` runs.
    pub partition: Option<Vec<std::ops::Range<usize>>>,
    pub duration: Duration,
    /// Datums the supervisor gave up on (`FaultPolicy::DeadLetter` only),
    /// in canonical sorted order — a deterministic set for same-seed runs.
    pub dead_letters: Vec<DeadLetterEntry>,
    /// Fault/retry/timeout counters for this run.
    pub fault_stats: FaultStats,
}

impl RunResult {
    /// The collected lines; empty when the run streamed them to a tap.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Move the collected lines out.
    pub fn take_lines(&mut self) -> Vec<String> {
        std::mem::take(&mut self.lines)
    }
}

/// The message a panic carried, for the typed worker-panic error.
pub fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// A rank's or worker's outcome, its panic as the typed worker-panic error.
fn joined(rank: threads::Handle<Result<(), GraphError>>) -> Result<(), GraphError> {
    rank.join()
        .unwrap_or_else(|p| Err(GraphError::WorkerPanicked(panic_message(p))))
}

/// Enact `graph` with the given input and mapping, capturing output.
pub fn run(graph: &WorkflowGraph, input: RunInput, mapping: &Mapping) -> Result<RunResult, GraphError> {
    run_with_options(graph, input, mapping, OutputSink::new(), &RunOptions::default())
}

/// Enact under an explicit [`RunOptions`] — fault policy and (for the
/// dynamic mapping) per-task timeout — into a caller-supplied sink (the
/// execution engine passes one with a streaming tap, §IV-E). `run`
/// delegates here with the default `FailFast` policy.
pub fn run_with_options(
    graph: &WorkflowGraph,
    input: RunInput,
    mapping: &Mapping,
    sink: OutputSink,
    options: &RunOptions,
) -> Result<RunResult, GraphError> {
    input.within_max_items()?;
    graph.validate()?;
    let supervisor = Supervisor::new(options.fault_policy.clone());
    let start = std::time::Instant::now();
    let plan = Arc::new(Plan::new(graph, input, sink, supervisor)?);
    let partition = match mapping {
        Mapping::Simple => simple::execute(&plan).map(|()| None)?,
        Mapping::Multi { processes } => Some(multi::execute(graph, &plan, *processes)?),
        Mapping::Dynamic(cfg) => dynamic::execute(&plan, cfg, options.task_timeout).map(|()| None)?,
    };
    Ok(RunResult {
        workflow: graph.name.clone(),
        // A retired dynamic worker may still hold the plan: its hung
        // step's lines are dropped from here on.
        lines: plan.sink.close(),
        counts: plan.monitor.counts(),
        partition,
        duration: start.elapsed(),
        // Stats first: they count the queue that `take` drains.
        fault_stats: plan.supervisor.stats(),
        dead_letters: plan.supervisor.take_dead_letters(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_input_len() {
        assert_eq!(RunInput::Iterations(5).len(), 5);
        assert_eq!(RunInput::Data(vec![Data::Null]).len(), 1);
        assert!(RunInput::Iterations(0).is_empty());
    }

    /// A run of more than `MAX_RUN_ITEMS` items is refused before any
    /// work, under every mapping and for either kind of input; one at the
    /// bound is not refused, and `u64::MAX` is.
    #[test]
    fn a_run_past_max_run_items_is_refused() {
        let g = crate::workflows::doubler_graph();
        let refused = GraphError::TooManyItems {
            requested: MAX_RUN_ITEMS + 1,
            maximum: MAX_RUN_ITEMS,
        };
        for mapping in [
            Mapping::Simple,
            Mapping::Multi { processes: 3 },
            Mapping::Dynamic(DynamicConfig::default()),
        ] {
            let err = run(&g, RunInput::Iterations(MAX_RUN_ITEMS + 1), &mapping).unwrap_err();
            assert_eq!(err, refused);
        }
        let items = RunInput::Data(vec![Data::Null; MAX_RUN_ITEMS as usize + 1]);
        let err = run(&g, items, &Mapping::Simple).unwrap_err();
        let message = "run of 100001 items is above the maximum 100000 a run may use";
        assert_eq!(err.to_string(), message);
        assert!(RunInput::Iterations(MAX_RUN_ITEMS).within_max_items().is_ok());
        assert!(RunInput::Iterations(u64::MAX).within_max_items().is_err());
    }

    #[test]
    fn dynamic_config_defaults_sane() {
        let c = DynamicConfig::default();
        assert!(c.initial_workers >= 1);
        assert!(c.max_workers > c.initial_workers);
    }
}
