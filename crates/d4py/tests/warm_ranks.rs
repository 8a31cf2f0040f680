//! Warm ranks: a multi run wakes the pool threads an earlier run left
//! parked instead of starting threads of its own.
//!
//! The one test in this binary owns the process-wide pool: no other test
//! may start or hold pool threads beside it.

use d4py::{
    run, Context, Data, Mapping, NamedPE, PortSpec, RunInput, WorkflowGraph, INPUT, OUTPUT, PE,
};
use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::{self, ThreadId};

/// Records the thread of every rank it runs on, then waits at a barrier
/// for all five ranks, so a run's ranks are all alive at once. A root
/// instance emits one datum per iteration.
#[derive(Clone)]
struct Recorder {
    threads: Arc<Mutex<Vec<ThreadId>>>,
    barrier: Arc<Barrier>,
}

impl NamedPE for Recorder {
    fn pe_name(&self) -> String {
        "Recorder".into()
    }
}

impl PE for Recorder {
    fn ports(&self) -> PortSpec {
        PortSpec::iterative()
    }

    fn setup(&mut self, _ctx: &mut Context<'_>) {
        self.threads.lock().unwrap().push(thread::current().id());
        self.barrier.wait();
    }

    fn process(&mut self, input: Option<(&str, Data)>, ctx: &mut Context<'_>) {
        if input.is_none() {
            ctx.write(Data::from(1i64));
        }
    }
}

/// Run `Recorder → Recorder` under multi (5), one rank on the root and
/// four below it, and return the threads its ranks ran on.
fn ranks_of_one_run() -> HashSet<ThreadId> {
    let recorder = Recorder {
        threads: Arc::default(),
        barrier: Arc::new(Barrier::new(5)),
    };
    let mut g = WorkflowGraph::new("warm_ranks");
    let src = g.add(recorder.clone());
    let sink = g.add(recorder.clone());
    g.connect(src, OUTPUT, sink, INPUT).unwrap();
    run(
        &g,
        RunInput::Iterations(8),
        &Mapping::Multi { processes: 5 },
    )
    .unwrap();
    let threads = recorder.threads.lock().unwrap().clone();
    assert_eq!(threads.len(), 5, "one setup per rank");
    threads.into_iter().collect()
}

/// Every later run's ranks run on threads the first run's ranks ran on.
/// Many runs back to back, because a pool thread that counted its job
/// done before going idle again would be missed by the next run only now
/// and then.
#[test]
fn later_multi_runs_wake_the_first_runs_threads() {
    let first = ranks_of_one_run();
    assert_eq!(first.len(), 5, "five ranks alive at once: {first:?}");
    for run in 2..=300 {
        let later = ranks_of_one_run();
        assert!(
            later.is_subset(&first),
            "run {run} started threads: {later:?} is not within {first:?}"
        );
    }
}
