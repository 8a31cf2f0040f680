//! The execution engine proper: container acquisition, import resolution,
//! enactment, and batch vs. streaming response delivery (paper §IV-E).
//!
//! Laminar 1.0 ran the whole workflow, captured stdout, and returned one
//! complete HTTP/1.1 response ([`ResponseMode::Batch`]). Laminar 2.0
//! transfers stdout to a concurrent queue and streams it line-by-line over
//! HTTP/2 ([`ResponseMode::Streaming`]). Both paths share the enactment
//! code; the only difference is *when* frames are released to the consumer
//! — which is exactly the property experiment E8 measures.

use crate::containers::{ContainerPool, Lease, PoolConfig};
use crate::imports::{resolve_imports, ImportResolution, PackageIndex};
use crate::library::WorkflowLibrary;
use d4py::mapping::{panic_message, run_with_options};
use d4py::monitor::OutputSink;
use d4py::{
    DeadLetterEntry, FaultStats, GraphError, Mapping, RunInput, RunOptions, RunResult,
    WorkflowGraph,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Terminal frame on success, with the total duration.
    End { duration: Duration },
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
    pub duration: Duration,
    pub dead_letters: Vec<DeadLetterEntry>,
    pub fault_stats: FaultStats,
}

/// The serverless execution engine.
///
/// Its runs go on d4py's process-wide pool of parked threads, which
/// outlives every engine: dropping the engine ends no thread, and a run it
/// started or queued still ends on its terminal frame.
pub struct ExecutionEngine {
    pool: ContainerPool,
    packages: PackageIndex,
    library: WorkflowLibrary,
}

impl ExecutionEngine {
    pub fn new(pool_config: PoolConfig, library: WorkflowLibrary) -> Self {
        ExecutionEngine {
            pool: ContainerPool::new(pool_config),
            packages: PackageIndex::new(),
            library,
        }
    }

    /// Engine with the stock workflows and default pool.
    pub fn with_stock() -> Self {
        ExecutionEngine::new(PoolConfig::default(), WorkflowLibrary::with_stock_workflows())
    }

    pub fn pool(&self) -> &ContainerPool {
        &self.pool
    }

    pub fn library(&self) -> &WorkflowLibrary {
        &self.library
    }

    /// Start an execution; every frame goes to `emit`. The workflow is
    /// resolved and its imports checked on the caller's thread, and a
    /// failure there is its only frame. The enactment then runs on a
    /// container of the pool, and its frames come from that container's
    /// pool thread and, while a streaming run enacts, from the mapping's
    /// ranks and workers. The terminal frame is sent once the container
    /// is back in the pool and its thread idle again, so the caller's next
    /// run finds both warm. The last frame is always `End` or `Error`, a
    /// panicking workflow builder or PE factory included, and nothing
    /// follows it: a line a timed-out step logs later is dropped. Never
    /// blocks: with every container busy the run queues.
    pub fn execute_into(&self, req: ExecRequest, emit: impl Fn(Frame) + Send + Sync + 'static) {
        let started = Instant::now();

        // 1. Resolve the workflow to a runnable graph.
        let graph = match unwound(|| Ok(self.library.build(&req.workflow))) {
            Ok(Some(graph)) => graph,
            Ok(None) => return emit(Frame::Error(EngineError::UnknownWorkflow(req.workflow))),
            Err(e) => return emit(Frame::Error(e)),
        };

        // 2. Auto-import dependency resolution over the registered source.
        for res in resolve_imports(&req.code, &self.packages) {
            match &res {
                ImportResolution::Unresolved(m) => {
                    return emit(Frame::Error(EngineError::UnresolvedImport(m.clone())));
                }
                other => emit(Frame::Info(format!("import {}", other.module()))),
            }
        }

        // 3. A container (its cold start visible to the caller) enacts,
        // and the outcome is sent once its thread is idle again.
        let emit: Arc<dyn Fn(Frame) + Send + Sync> = Arc::new(emit);
        self.pool.submit(move |lease| {
            let verbose = req.verbose;
            let result = enact(req, &graph, lease, &emit);
            move || settle(result, verbose, started, &*emit)
        });
    }

    /// [`ExecutionEngine::execute_into`] onto a channel: frames arrive on
    /// the returned receiver.
    pub fn execute(&self, req: ExecRequest) -> Receiver<Frame> {
        let (tx, rx) = channel::<Frame>();
        self.execute_into(req, move |frame| {
            let _ = tx.send(frame);
        });
        rx
    }

    /// Run to completion and collect everything (convenience for tests and
    /// the sequential client path).
    pub fn execute_collect(&self, req: ExecRequest) -> Result<ExecutionReport, EngineError> {
        let rx = self.execute(req);
        let mut lines = Vec::new();
        let mut summaries = Vec::new();
        let mut cold = false;
        let mut duration = Duration::ZERO;
        let mut dead_letters = Vec::new();
        let mut fault_stats = FaultStats::default();
        for frame in rx.iter() {
            match frame {
                Frame::Line(l) => lines.push(l),
                Frame::Summary(s) => summaries.push(s),
                Frame::Info(i) => cold |= i.contains("cold start"),
                Frame::DeadLetter(d) => dead_letters.push(d),
                Frame::Faults(s) => fault_stats = s,
                Frame::End { duration: d } => {
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
            duration,
            dead_letters,
            fault_stats,
        })
    }
}

/// Run `f`, a panic in it becoming the typed worker-panic error.
fn unwound<T>(f: impl FnOnce() -> Result<T, GraphError>) -> Result<T, EngineError> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(GraphError::WorkerPanicked(panic_message(p))))
        .map_err(EngineError::from)
}

/// Enact `graph` on the leased container, streaming or batching its
/// lines, and give the container back.
fn enact(
    req: ExecRequest,
    graph: &WorkflowGraph,
    lease: Lease,
    emit: &Arc<dyn Fn(Frame) + Send + Sync>,
) -> Result<RunResult, EngineError> {
    let warmth = if lease.cold() { "cold start" } else { "warm" };
    emit(Frame::Info(format!("container {} {warmth}", lease.id())));

    // Streaming taps the sink, each line moving into its frame; batch
    // collects the lines and moves them into frames at the end. The
    // container goes back to the pool however the enactment ends.
    let result = unwound(|| match req.mode {
        ResponseMode::Streaming => {
            let tap = emit.clone();
            let sink = OutputSink::with_tap(Arc::new(move |line| tap(Frame::Line(line))));
            run_with_options(graph, req.input, &req.mapping, sink, &req.options)
        }
        ResponseMode::Batch => {
            let sink = OutputSink::new();
            let mut r = run_with_options(graph, req.input, &req.mapping, sink, &req.options);
            if let Ok(res) = &mut r {
                for line in res.take_lines() {
                    emit(Frame::Line(line));
                }
            }
            r
        }
    });
    lease.release();
    result
}

/// Emit a run's outcome, its terminal frame last.
fn settle(
    result: Result<RunResult, EngineError>,
    verbose: bool,
    started: Instant,
    emit: &dyn Fn(Frame),
) {
    match result {
        Ok(res) => {
            if verbose {
                for ((pe, rank), n) in &res.counts {
                    emit(Frame::Summary(format!("{pe} (rank {rank}): Processed {n} iterations.")));
                }
            }
            for entry in &res.dead_letters {
                emit(Frame::DeadLetter(entry.clone()));
            }
            if !res.fault_stats.is_clean() {
                emit(Frame::Faults(res.fault_stats.clone()));
            }
            emit(Frame::End {
                duration: started.elapsed(),
            });
        }
        Err(e) => emit(Frame::Error(e)),
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

    /// A PE factory that hands out its first instance (the one the graph
    /// reads its ports from) and panics on every later call.
    struct PanicOnCreate(std::sync::atomic::AtomicBool);

    impl d4py::graph::PEFactory for PanicOnCreate {
        fn pe_name(&self) -> String {
            "Boom".into()
        }

        fn create(&self) -> Box<dyn d4py::PE> {
            if self.0.swap(true, std::sync::atomic::Ordering::Relaxed) {
                panic!("factory boom");
            }
            Box::new(d4py::ProducerPE::new("Boom", |i| Some(d4py::data::Data::from(i as i64))))
        }
    }

    /// A workflow builder or PE factory that panics runs outside any
    /// supervisor: the run must still end on an error frame and give its
    /// container back to the pool.
    #[test]
    fn panicking_enactment_ends_on_error_and_returns_its_container() {
        let lib = WorkflowLibrary::with_stock_workflows();
        lib.register("factory_boom_wf", || {
            let mut g = d4py::WorkflowGraph::new("factory_boom_wf");
            g.add(PanicOnCreate(Default::default()));
            g
        });
        lib.register("builder_boom_wf", || panic!("builder boom"));
        let e = ExecutionEngine::new(
            PoolConfig {
                max_containers: 1,
                cold_start: Duration::from_millis(1),
                prewarmed: 0,
            },
            lib,
        );
        // Each run must end on the typed error; with one container, a run
        // that kept it would leave the next blocked in `acquire`.
        let last_frame = |workflow: &str| {
            let rx = e.execute(req(workflow, ResponseMode::Streaming));
            let mut last = None;
            while let Ok(frame) = rx.recv_timeout(Duration::from_secs(5)) {
                last = Some(frame);
            }
            last.expect("the run emitted frames")
        };
        for (workflow, message) in [
            ("factory_boom_wf", "factory boom"),
            ("factory_boom_wf", "factory boom"),
            ("builder_boom_wf", "builder boom"),
        ] {
            match last_frame(workflow) {
                Frame::Error(EngineError::Graph(GraphError::WorkerPanicked(m))) => {
                    assert_eq!(m, message, "{workflow}")
                }
                other => panic!("{workflow}: expected a typed worker panic, got {other:?}"),
            }
        }
        let rep = e.execute_collect(req("doubler_wf", ResponseMode::Batch)).unwrap();
        assert_eq!(rep.lines.len(), 10);
        assert!(!rep.cold_start, "the container is back in the pool, warm");
        assert_eq!(e.pool().stats().created, 1);
    }

    /// A timed dynamic run whose step hangs returns once its tasks
    /// settle: on a one-container engine, its `End` and a following
    /// sequential run both arrive within 1 s although one step sleeps
    /// 3 s, and the line that step logs when it wakes never follows `End`.
    #[test]
    fn a_hung_step_holds_neither_its_run_nor_its_container() {
        let lib = WorkflowLibrary::with_stock_workflows();
        lib.register("hang_wf", || {
            use d4py::prelude::*;
            let mut g = WorkflowGraph::new("hang_wf");
            let src = g.add(ProducerPE::new("Src", |i| Some(Data::from(i as i64))));
            let hang = g.add(ConsumerPE::new("Hang", |d: Data, ctx: &mut Context<'_>| {
                if d.as_int() == Some(2) {
                    std::thread::sleep(Duration::from_secs(3));
                }
                ctx.log(format!("{d}"));
            }));
            g.connect(src, OUTPUT, hang, INPUT).unwrap();
            g
        });
        let e = ExecutionEngine::new(
            PoolConfig {
                max_containers: 1,
                cold_start: Duration::from_millis(1),
                prewarmed: 1,
            },
            lib,
        );
        let mut timed = req("hang_wf", ResponseMode::Streaming);
        timed.input = RunInput::Iterations(5);
        timed.mapping = Mapping::Dynamic(d4py::DynamicConfig::default());
        timed.options = RunOptions {
            fault_policy: d4py::FaultPolicy::DeadLetter { max_attempts: 1 },
            task_timeout: Some(Duration::from_millis(20)),
        };
        let t0 = Instant::now();
        let rx = e.execute(timed);
        let deadline = t0 + Duration::from_secs(1);
        loop {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(Frame::End { .. }) => break,
                Ok(Frame::Error(err)) => panic!("the timed run failed: {err}"),
                Ok(_) => {}
                Err(_) => panic!("no End within 1 s"),
            }
        }
        let rep = e.execute_collect(req("doubler_wf", ResponseMode::Batch)).unwrap();
        assert_eq!(rep.lines.len(), 10);
        assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
        // The channel closes once the hung step returns and drops the run.
        let after = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(after, Err(std::sync::mpsc::RecvTimeoutError::Disconnected));
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

    /// No deadlock with every container running a parallel mapping: 8
    /// multi (5) runs and 8 dynamic runs at once on the default 8-container
    /// pool all end, each within a 10 s watchdog. A run holds its container
    /// while its ranks or workers run, so those must never wait for
    /// threads another run holds.
    #[test]
    fn a_full_pool_of_parallel_runs_never_deadlocks() {
        let e = ExecutionEngine::with_stock();
        let runs: Vec<_> = (0..16)
            .map(|i| {
                let mut r = req("isprime_wf", ResponseMode::Streaming);
                r.input = RunInput::Iterations(20);
                r.mapping = if i % 2 == 0 {
                    Mapping::Multi { processes: 5 }
                } else {
                    Mapping::Dynamic(d4py::DynamicConfig::default())
                };
                (i, e.execute(r))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        for (i, rx) in runs {
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(Frame::End { .. }) => break,
                    Ok(Frame::Error(err)) => panic!("run {i} failed: {err}"),
                    Ok(_) => {}
                    Err(_) => panic!("run {i} wedged"),
                }
            }
        }
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
