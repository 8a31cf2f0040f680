//! The engine's threads are d4py's pool of parked threads, which outlives
//! every engine: after the first run, warm runs start no thread, and
//! neither do a second engine's runs in the same process. The pool grows
//! only to the peak number of jobs running at once: a multi (5) run of
//! `gate_wf`, whose five ranks meet at a barrier, is its container's job
//! and five ranks, all at once.
//!
//! The one test in this binary counts the process's threads (Linux
//! `/proc/self/task`), so nothing else may run beside it.
#![cfg(target_os = "linux")]

use d4py::{
    Context, Data, Mapping, NamedPE, PortSpec, RunInput, RunOptions, WorkflowGraph, INPUT, OUTPUT,
    PE,
};
use laminar_execengine::{ExecRequest, ExecutionEngine, PoolConfig, ResponseMode, WorkflowLibrary};
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Waits in setup until all five ranks of a multi (5) run are alive; a
/// root instance emits one datum per iteration.
#[derive(Clone)]
struct Gate(Arc<Barrier>);

impl NamedPE for Gate {
    fn pe_name(&self) -> String {
        "Gate".into()
    }
}

impl PE for Gate {
    fn ports(&self) -> PortSpec {
        PortSpec::iterative()
    }

    fn setup(&mut self, _ctx: &mut Context<'_>) {
        self.0.wait();
    }

    fn process(&mut self, input: Option<(&str, Data)>, ctx: &mut Context<'_>) {
        match input {
            None => ctx.write(Data::from(1i64)),
            Some((_, d)) => ctx.log(format!("{d}")),
        }
    }
}

/// The ids of the process's threads. A thread that started since the
/// last look has an id not seen then, even if it has ended again.
fn threads() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|e| e.unwrap().file_name().to_string_lossy().parse().unwrap())
        .collect()
}

fn engine() -> ExecutionEngine {
    let library = WorkflowLibrary::with_stock_workflows();
    let barrier = Arc::new(Barrier::new(5));
    library.register("gate_wf", move || {
        let mut g = WorkflowGraph::new("gate_wf");
        let src = g.add(Gate(barrier.clone()));
        let sink = g.add(Gate(barrier.clone()));
        g.connect(src, OUTPUT, sink, INPUT).unwrap();
        g
    });
    let pool = PoolConfig {
        max_containers: 4,
        cold_start: Duration::from_millis(1),
        prewarmed: 0,
    };
    ExecutionEngine::new(pool, library)
}

/// Run `isprime_wf` (simple) or `gate_wf` (multi) to its end; whether it
/// paid a cold start.
fn run(engine: &ExecutionEngine, mode: ResponseMode, mapping: Mapping) -> bool {
    let workflow = match mapping {
        Mapping::Simple => "isprime_wf",
        _ => "gate_wf",
    };
    let report = engine
        .execute_collect(ExecRequest {
            workflow: workflow.into(),
            code: "import random\n".into(),
            input: RunInput::Iterations(20),
            mapping,
            mode,
            verbose: false,
            options: RunOptions::default(),
        })
        .expect("the run completes");
    report.cold_start
}

#[test]
fn warm_runs_start_no_thread_in_this_engine_or_the_next() {
    let base = threads();
    let first = engine();
    assert_eq!(threads(), base, "nothing pre-warmed, no thread yet");
    assert!(
        run(&first, ResponseMode::Streaming, Mapping::Simple),
        "the first run is a cold start"
    );
    let one = threads();
    assert!(
        one.is_superset(&base) && one.len() == base.len() + 1,
        "one pool thread for the one job"
    );
    for i in 0..20 {
        let mode = [ResponseMode::Streaming, ResponseMode::Batch][i % 2];
        assert!(!run(&first, mode, Mapping::Simple), "run {i} is warm");
        assert_eq!(threads(), one, "run {i} started a thread");
    }
    assert_eq!(first.pool().stats().created, 1);

    // A container's job and its five ranks: six jobs at once.
    let multi = || Mapping::Multi { processes: 5 };
    run(&first, ResponseMode::Streaming, multi());
    let six = threads();
    assert!(
        six.is_superset(&one) && six.len() == base.len() + 6,
        "{} threads past the base for six jobs",
        six.len() - base.len()
    );
    drop(first);
    assert_eq!(threads(), six, "dropping the engine ends no pool thread");

    let second = engine();
    assert!(
        run(&second, ResponseMode::Streaming, Mapping::Simple),
        "a new engine's first container is cold"
    );
    for i in 0..10 {
        let mode = [ResponseMode::Streaming, ResponseMode::Batch][i % 2];
        let mapping = [Mapping::Simple, multi()][i % 2].clone();
        run(&second, mode, mapping);
        assert_eq!(
            threads(),
            six,
            "the second engine's run {i} started a thread"
        );
    }
}
