//! The engine's threads are its containers: a run spawns none, and
//! dropping the engine ends them all.
//!
//! The one test in this binary counts the process's threads (Linux
//! `/proc/self/task`), so nothing else may run beside it.
#![cfg(target_os = "linux")]

use d4py::{Mapping, RunInput, RunOptions};
use laminar_execengine::{ExecRequest, ExecutionEngine, PoolConfig, ResponseMode, WorkflowLibrary};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The ids of the process's threads. A thread that started since the
/// last look has an id not seen then, even if it has ended again.
fn threads() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|e| e.unwrap().file_name().to_string_lossy().parse().unwrap())
        .collect()
}

/// Wait up to five seconds for the threads to be `want`.
fn settles_at(want: &BTreeSet<u64>) -> BTreeSet<u64> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = threads();
        if &now == want || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn run(engine: &ExecutionEngine, mode: ResponseMode) -> bool {
    let report = engine
        .execute_collect(ExecRequest {
            workflow: "isprime_wf".into(),
            code: "import random\n".into(),
            input: RunInput::Iterations(20),
            mapping: Mapping::Simple,
            mode,
            verbose: false,
            options: RunOptions::default(),
        })
        .expect("the run completes");
    report.cold_start
}

#[test]
fn runs_spawn_no_thread_and_dropping_the_engine_ends_its_containers() {
    let base = threads();
    let engine = ExecutionEngine::new(
        PoolConfig {
            max_containers: 4,
            cold_start: Duration::from_millis(1),
            prewarmed: 0,
        },
        WorkflowLibrary::with_stock_workflows(),
    );
    assert_eq!(threads(), base, "nothing pre-warmed, no thread yet");
    assert!(
        run(&engine, ResponseMode::Streaming),
        "the first run is a cold start"
    );
    let warm = threads();
    assert!(
        warm.is_superset(&base) && warm.len() == base.len() + 1,
        "one container thread"
    );
    for i in 0..20 {
        let mode = [ResponseMode::Streaming, ResponseMode::Batch][i % 2];
        assert!(!run(&engine, mode), "run {i} is warm");
        assert_eq!(threads(), warm, "run {i} started a thread");
    }
    assert_eq!(engine.pool().stats().created, 1);
    drop(engine);
    assert_eq!(settles_at(&base), base, "the container thread ended");
}
