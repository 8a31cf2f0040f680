//! Mappings: enacting an abstract workflow on an execution system
//! (paper §II-A "Mappings" / "Concrete Workflow").
//!
//! | dispel4py | here | characteristics |
//! |---|---|---|
//! | *simple* | [`Mapping::Simple`] | sequential, single instance per PE |
//! | *multiprocessing* | [`Mapping::Multi`] | static rank partition over OS threads, channel-connected |
//! | *redis* (dynamic) | [`Mapping::Dynamic`] | shared work queue, autoscaling worker pool |

pub mod dynamic;
pub mod multi;
pub mod simple;

use crate::data::Data;
use crate::error::GraphError;
use crate::fault::{DeadLetterEntry, FaultStats, RunOptions, Supervisor};
use crate::graph::WorkflowGraph;
use crate::monitor::{Monitor, OutputSink};
use std::collections::BTreeMap;
use std::time::Duration;

/// Configuration of the dynamic (Redis-style) mapping.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Workers active at start.
    pub initial_workers: usize,
    /// Upper bound the autoscaler may grow to.
    pub max_workers: usize,
    /// Enable autoscaling (auto-provisioning, paper §III).
    pub autoscale: bool,
    /// Queue-depth-per-worker threshold that triggers a scale-up.
    pub scale_threshold: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            initial_workers: 2,
            max_workers: 8,
            autoscale: true,
            scale_threshold: 8,
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
    pub fn lines(&self) -> &[String] {
        &self.lines
    }
}

pub(crate) fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Enact `graph` with the given input and mapping, capturing output.
pub fn run(graph: &WorkflowGraph, input: RunInput, mapping: &Mapping) -> Result<RunResult, GraphError> {
    let sink = OutputSink::new();
    run_with_sink(graph, input, mapping, sink)
}

/// Enact with a caller-supplied sink (the execution engine passes a sink
/// with a streaming tap — §IV-E).
pub fn run_with_sink(
    graph: &WorkflowGraph,
    input: RunInput,
    mapping: &Mapping,
    sink: OutputSink,
) -> Result<RunResult, GraphError> {
    run_with_options(graph, input, mapping, sink, &RunOptions::default())
}

/// Enact under an explicit [`RunOptions`] — fault policy and (for the
/// dynamic mapping) per-task timeout. `run`/`run_with_sink` delegate here
/// with the default `FailFast` policy.
pub fn run_with_options(
    graph: &WorkflowGraph,
    input: RunInput,
    mapping: &Mapping,
    sink: OutputSink,
    options: &RunOptions,
) -> Result<RunResult, GraphError> {
    graph.validate()?;
    let monitor = Monitor::new();
    let supervisor = Supervisor::new(options.fault_policy.clone());
    let start = std::time::Instant::now();
    let partition = match mapping {
        Mapping::Simple => {
            simple::execute(graph, &input, &sink, &monitor, &supervisor)?;
            None
        }
        Mapping::Multi { processes } => {
            let p = multi::execute(graph, &input, *processes, &sink, &monitor, &supervisor)?;
            Some(p)
        }
        Mapping::Dynamic(cfg) => {
            dynamic::execute(
                graph,
                &input,
                cfg,
                &sink,
                &monitor,
                &supervisor,
                options.task_timeout,
            )?;
            None
        }
    };
    Ok(RunResult {
        workflow: graph.name.clone(),
        lines: sink.lines(),
        counts: monitor.counts(),
        partition,
        duration: start.elapsed(),
        // Stats first: they count the queue that `take` drains.
        fault_stats: supervisor.stats(),
        dead_letters: supervisor.take_dead_letters(),
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

    #[test]
    fn dynamic_config_defaults_sane() {
        let c = DynamicConfig::default();
        assert!(c.initial_workers >= 1);
        assert!(c.max_workers >= c.initial_workers);
        assert!(c.autoscale);
    }
}
