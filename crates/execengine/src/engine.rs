//! The execution engine proper: container acquisition, import resolution,
//! enactment, and batch vs. streaming response delivery (paper §IV-E).
//!
//! Laminar 1.0 ran the whole workflow, captured stdout, and returned one
//! complete HTTP/1.1 response ([`ResponseMode::Batch`]). Laminar 2.0
//! transfers stdout to a concurrent queue and streams it line-by-line over
//! HTTP/2 ([`ResponseMode::Streaming`]). Both paths share the enactment
//! code; the only difference is *when* frames are released to the consumer
//! — which is exactly the property experiment E8 measures.

use crate::containers::{ContainerPool, PoolConfig};
use crate::imports::{resolve_imports, ImportResolution, PackageIndex};
use crate::library::WorkflowLibrary;
use std::sync::mpsc::{channel, Receiver, Sender};
use d4py::mapping::run_with_options;
use d4py::monitor::OutputSink;
use d4py::{DeadLetterEntry, FaultStats, GraphError, Mapping, RunInput, RunOptions};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// How the engine releases output to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseMode {
    /// Laminar 1.0 / HTTP 1.1: everything after completion.
    Batch,
    /// Laminar 2.0 / HTTP 2: line-by-line as produced.
    Streaming,
}

/// One frame of an execution response stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Engine-side progress notes (container acquired, imports resolved).
    Info(String),
    /// One captured output line.
    Line(String),
    /// Per-rank iteration summary line (verbose mode).
    Summary(String),
    /// One datum the supervisor gave up on (`FaultPolicy::DeadLetter`).
    DeadLetter(DeadLetterEntry),
    /// Fault/retry/timeout counters for the run; emitted once before
    /// `End` whenever the run was not fault-free.
    Faults(FaultStats),
    /// Terminal frame: success flag + total duration.
    End { ok: bool, duration: Duration },
    /// Terminal frame on failure — a typed error, not a formatted string,
    /// so consumers can match on the failure class.
    Error(EngineError),
}

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    UnknownWorkflow(String),
    UnresolvedImport(String),
    Graph(GraphError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownWorkflow(w) => write!(f, "no runnable workflow named '{w}'"),
            EngineError::UnresolvedImport(m) => write!(f, "cannot resolve import '{m}'"),
            EngineError::Graph(g) => write!(f, "graph error: {g}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<GraphError> for EngineError {
    fn from(g: GraphError) -> Self {
        EngineError::Graph(g)
    }
}

/// A fully-specified execution request.
#[derive(Clone)]
pub struct ExecRequest {
    pub workflow: String,
    /// Python source of the workflow (for import resolution). May be empty.
    pub code: String,
    pub input: RunInput,
    pub mapping: Mapping,
    pub mode: ResponseMode,
    /// Include per-rank summaries (the CLI's `-v`).
    pub verbose: bool,
    /// Enactment fault policy and (dynamic mapping) per-task timeout.
    pub options: RunOptions,
}

/// Collected result of a completed execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    pub lines: Vec<String>,
    pub summaries: Vec<String>,
    pub cold_start: bool,
    pub imports: Vec<ImportResolution>,
    pub duration: Duration,
    pub dead_letters: Vec<DeadLetterEntry>,
    pub fault_stats: FaultStats,
}

/// The serverless execution engine.
pub struct ExecutionEngine {
    pool: Arc<ContainerPool>,
    packages: Arc<PackageIndex>,
    library: Arc<WorkflowLibrary>,
}

impl ExecutionEngine {
    pub fn new(pool_config: PoolConfig, library: WorkflowLibrary) -> Self {
        ExecutionEngine {
            pool: Arc::new(ContainerPool::new(pool_config)),
            packages: Arc::new(PackageIndex::new()),
            library: Arc::new(library),
        }
    }

    /// Engine with the stock workflows and default pool.
    pub fn with_stock() -> Self {
        ExecutionEngine::new(PoolConfig::default(), WorkflowLibrary::with_stock_workflows())
    }

    pub fn pool(&self) -> &ContainerPool {
        &self.pool
    }

    pub fn packages(&self) -> &PackageIndex {
        &self.packages
    }

    pub fn library(&self) -> &WorkflowLibrary {
        &self.library
    }

    /// Start an execution; frames arrive on the returned receiver. The
    /// terminal frame is always `End` or `Error`.
    pub fn execute(&self, req: ExecRequest) -> Receiver<Frame> {
        let (tx, rx) = channel::<Frame>();
        let pool = self.pool.clone();
        let packages = self.packages.clone();
        let library = self.library.clone();
        std::thread::spawn(move || run_request(req, &pool, &packages, &library, tx));
        rx
    }

    /// Run to completion and collect everything (convenience for tests and
    /// the sequential client path).
    pub fn execute_collect(&self, req: ExecRequest) -> Result<ExecutionReport, EngineError> {
        let rx = self.execute(req);
        let mut lines = Vec::new();
        let mut summaries = Vec::new();
        let mut cold = false;
        let mut imports = Vec::new();
        let mut duration = Duration::ZERO;
        let mut dead_letters = Vec::new();
        let mut fault_stats = FaultStats::default();
        for frame in rx.iter() {
            match frame {
                Frame::Line(l) => lines.push(l),
                Frame::Summary(s) => summaries.push(s),
                Frame::Info(i) => {
                    if i.contains("cold start") {
                        cold = true;
                    }
                    if let Some(rest) = i.strip_prefix("import ") {
                        imports.push(ImportResolution::Cached(rest.to_string()));
                    }
                }
                Frame::DeadLetter(d) => dead_letters.push(d),
                Frame::Faults(s) => fault_stats = s,
                Frame::End { duration: d, .. } => {
                    duration = d;
                    break;
                }
                Frame::Error(e) => {
                    return Err(e);
                }
            }
        }
        Ok(ExecutionReport {
            lines,
            summaries,
            cold_start: cold,
            imports,
            duration,
            dead_letters,
            fault_stats,
        })
    }
}

fn run_request(
    req: ExecRequest,
    pool: &ContainerPool,
    packages: &PackageIndex,
    library: &WorkflowLibrary,
    tx: Sender<Frame>,
) {
    let started = std::time::Instant::now();

    // 1. Resolve the workflow to a runnable graph.
    let Some(graph) = library.build(&req.workflow) else {
        let _ = tx.send(Frame::Error(EngineError::UnknownWorkflow(req.workflow.clone())));
        return;
    };

    // 2. Auto-import dependency resolution over the registered source.
    for res in resolve_imports(&req.code, packages) {
        match &res {
            ImportResolution::Unresolved(m) => {
                let _ = tx.send(Frame::Error(EngineError::UnresolvedImport(m.clone())));
                return;
            }
            other => {
                let _ = tx.send(Frame::Info(format!("import {}", other.module())));
            }
        }
    }

    // 3. Acquire a container (cold start visible to the caller).
    let (container, cold) = pool.acquire();
    if cold {
        let _ = tx.send(Frame::Info(format!("container {} cold start", container.id)));
    } else {
        let _ = tx.send(Frame::Info(format!("container {} warm", container.id)));
    }

    // 4. Enact. Streaming taps the sink; batch holds lines back.
    let result = match req.mode {
        ResponseMode::Streaming => {
            let tap_tx = tx.clone();
            let sink = OutputSink::with_tap(Arc::new(move |line: &str| {
                let _ = tap_tx.send(Frame::Line(line.to_string()));
            }));
            run_with_options(&graph, req.input.clone(), &req.mapping, sink, &req.options)
        }
        ResponseMode::Batch => {
            let sink = OutputSink::new();
            let r = run_with_options(&graph, req.input.clone(), &req.mapping, sink, &req.options);
            if let Ok(res) = &r {
                for line in res.lines() {
                    let _ = tx.send(Frame::Line(line.clone()));
                }
            }
            r
        }
    };

    pool.release(container);

    match result {
        Ok(res) => {
            if req.verbose {
                for ((pe, rank), n) in &res.counts {
                    let _ = tx.send(Frame::Summary(format!(
                        "{pe} (rank {rank}): Processed {n} iterations."
                    )));
                }
            }
            for entry in &res.dead_letters {
                let _ = tx.send(Frame::DeadLetter(entry.clone()));
            }
            if !res.fault_stats.is_clean() {
                let _ = tx.send(Frame::Faults(res.fault_stats.clone()));
            }
            let _ = tx.send(Frame::End {
                ok: true,
                duration: started.elapsed(),
            });
        }
        Err(e) => {
            let _ = tx.send(Frame::Error(EngineError::from(e)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(
            PoolConfig {
                max_containers: 2,
                cold_start: Duration::from_millis(2),
                prewarmed: 0,
            },
            WorkflowLibrary::with_stock_workflows(),
        )
    }

    fn req(workflow: &str, mode: ResponseMode) -> ExecRequest {
        ExecRequest {
            workflow: workflow.into(),
            code: "import random\n".into(),
            input: RunInput::Iterations(10),
            mapping: Mapping::Simple,
            mode,
            verbose: false,
            options: RunOptions::default(),
        }
    }

    #[test]
    fn batch_execution_collects_lines() {
        let rep = engine().execute_collect(req("doubler_wf", ResponseMode::Batch)).unwrap();
        assert_eq!(rep.lines.len(), 10);
        assert!(rep.cold_start, "first run on an empty pool is cold");
        assert_eq!(rep.lines[0], "got 0");
    }

    #[test]
    fn second_execution_is_warm() {
        let e = engine();
        let r1 = e.execute_collect(req("doubler_wf", ResponseMode::Batch)).unwrap();
        let r2 = e.execute_collect(req("doubler_wf", ResponseMode::Batch)).unwrap();
        assert!(r1.cold_start);
        assert!(!r2.cold_start);
    }

    #[test]
    fn streaming_delivers_before_completion() {
        // A slow workflow: streaming must deliver the first line long
        // before the run completes (the §IV-E time-to-first-output claim).
        let lib = WorkflowLibrary::with_stock_workflows();
        lib.register("slow_wf", || {
            use d4py::prelude::*;
            let mut g = WorkflowGraph::new("slow_wf");
            let src = g.add(ProducerPE::new("Src", |i| Some(Data::from(i as i64))));
            let slow = g.add(IterativePE::new("Slow", |d: Data| {
                std::thread::sleep(Duration::from_millis(10));
                Some(d)
            }));
            let sink = g.add(ConsumerPE::new("Out", |d: Data, ctx: &mut Context<'_>| {
                ctx.log(format!("{d}"));
            }));
            g.connect(src, OUTPUT, slow, INPUT).unwrap();
            g.connect(slow, OUTPUT, sink, INPUT).unwrap();
            g
        });
        let e = ExecutionEngine::new(
            PoolConfig {
                cold_start: Duration::from_millis(1),
                ..PoolConfig::default()
            },
            lib,
        );
        let mut r = req("slow_wf", ResponseMode::Streaming);
        r.input = RunInput::Iterations(10);
        let rx = e.execute(r);
        let t0 = Instant::now();
        let mut first_line_at = None;
        let mut end_at = None;
        for frame in rx.iter() {
            match frame {
                Frame::Line(_) if first_line_at.is_none() => first_line_at = Some(t0.elapsed()),
                Frame::End { .. } => {
                    end_at = Some(t0.elapsed());
                    break;
                }
                Frame::Error(e) => panic!("{e}"),
                _ => {}
            }
        }
        let first = first_line_at.expect("saw a line");
        let end = end_at.expect("saw the end");
        assert!(
            first < end / 2,
            "streaming TTFO {first:?} should be far before completion {end:?}"
        );
    }

    #[test]
    fn batch_delivers_only_after_completion() {
        let e = engine();
        let mut r = req("doubler_wf", ResponseMode::Batch);
        r.input = RunInput::Iterations(5);
        let rx = e.execute(r);
        let frames: Vec<Frame> = rx.iter().take_while(|f| !matches!(f, Frame::End { .. })).collect();
        let lines = frames.iter().filter(|f| matches!(f, Frame::Line(_))).count();
        assert_eq!(lines, 5);
    }

    #[test]
    fn unknown_workflow_errors() {
        let err = engine()
            .execute_collect(req("missing_wf", ResponseMode::Batch))
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownWorkflow("missing_wf".into()));
    }

    #[test]
    fn unresolved_import_errors() {
        let e = engine();
        let mut r = req("doubler_wf", ResponseMode::Batch);
        r.code = "import not_a_real_package\n".into();
        let err = e.execute_collect(r).unwrap_err();
        assert_eq!(err, EngineError::UnresolvedImport("not_a_real_package".into()));
    }

    #[test]
    fn dead_letter_policy_surfaces_dlq_in_report() {
        let lib = WorkflowLibrary::with_stock_workflows();
        lib.register("flaky_wf", || {
            use d4py::prelude::*;
            let mut g = WorkflowGraph::new("flaky_wf");
            let src = g.add(ProducerPE::new("Src", |i| Some(Data::from(i as i64))));
            let flaky = g.add(IterativePE::new("Flaky", |d: Data| {
                let v = d.as_int().unwrap_or(0);
                if v % 3 == 0 {
                    panic!("flaky on {v}");
                }
                Some(d)
            }));
            let sink = g.add(ConsumerPE::new("Out", |d: Data, ctx: &mut Context<'_>| {
                ctx.log(format!("{d}"));
            }));
            g.connect(src, OUTPUT, flaky, INPUT).unwrap();
            g.connect(flaky, OUTPUT, sink, INPUT).unwrap();
            g
        });
        let e = ExecutionEngine::new(PoolConfig::default(), lib);
        let mut r = req("flaky_wf", ResponseMode::Batch);
        r.input = RunInput::Iterations(9);
        r.options.fault_policy = d4py::FaultPolicy::DeadLetter { max_attempts: 2 };
        let rep = e.execute_collect(r).unwrap();
        assert_eq!(rep.lines.len(), 6, "0, 3, 6 dead-lettered: {:?}", rep.lines);
        assert_eq!(rep.dead_letters.len(), 3);
        assert!(rep.dead_letters.iter().all(|d| d.pe == "Flaky1"));
        assert_eq!(rep.fault_stats.dead_letters, 3);
        assert!(rep.fault_stats.retries > 0, "{:?}", rep.fault_stats);
    }

    #[test]
    fn failing_run_surfaces_typed_graph_error() {
        let lib = WorkflowLibrary::with_stock_workflows();
        lib.register("boom_wf", || {
            use d4py::prelude::*;
            let mut g = WorkflowGraph::new("boom_wf");
            let src = g.add(ProducerPE::new("Src", |i| Some(Data::from(i as i64))));
            let boom = g.add(ConsumerPE::new("Boom", |_d: Data, _ctx: &mut Context<'_>| {
                panic!("kaboom");
            }));
            g.connect(src, OUTPUT, boom, INPUT).unwrap();
            g
        });
        let e = ExecutionEngine::new(PoolConfig::default(), lib);
        let mut r = req("boom_wf", ResponseMode::Batch);
        r.input = RunInput::Iterations(1);
        let err = e.execute_collect(r).unwrap_err();
        match err {
            EngineError::Graph(GraphError::WorkerPanicked(m)) => assert!(m.contains("kaboom")),
            other => panic!("expected typed worker panic, got {other:?}"),
        }
    }

    #[test]
    fn verbose_adds_summaries() {
        let e = engine();
        let mut r = req("doubler_wf", ResponseMode::Batch);
        r.verbose = true;
        let rep = e.execute_collect(r).unwrap();
        assert!(!rep.summaries.is_empty());
        assert!(rep.summaries[0].contains("Processed"), "{:?}", rep.summaries);
    }

    #[test]
    fn parallel_mapping_through_engine() {
        let e = engine();
        let mut r = req("isprime_wf", ResponseMode::Streaming);
        r.mapping = Mapping::Multi { processes: 9 };
        r.input = RunInput::Iterations(20);
        let rep = e.execute_collect(r).unwrap();
        for l in &rep.lines {
            assert!(l.contains("is prime"));
        }
    }
}
