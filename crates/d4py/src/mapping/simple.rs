//! The *simple* (sequential) mapping: one instance per PE, breadth-first
//! propagation through the DAG on one local queue. Reference semantics for
//! the parallel mappings — every mapping must produce the same multiset of
//! output lines for a deterministic workflow.
//!
//! Every PE invocation is a `Plan::step` under the run's supervisor: a
//! panicking PE no longer unwinds through the caller — it fails fast with
//! a typed error, is retried, or dead-letters the datum, per the run's
//! [`FaultPolicy`](crate::fault::FaultPolicy).

use crate::error::GraphError;
use crate::mapping::enact::{Call, Local, Plan};

pub(crate) fn execute(plan: &Plan) -> Result<(), GraphError> {
    let mut local = Local::new(plan.nodes.len());
    // Setup in topological order, as dispel4py does; its emissions wait in
    // the queue for the first drain.
    for &n in &plan.order {
        plan.run_local(&mut local, n, Call::Setup, None, 0)?;
    }
    // Drain after each root firing: streaming semantics, outputs appear as
    // soon as their inputs exist.
    for (root, iteration, datum) in plan.feed() {
        plan.run_local(&mut local, root, Call::Process(datum), Some(iteration), 0)?;
        plan.drain(&mut local, 0)?;
    }
    plan.teardown(&mut local, 0)?;
    for (n, count) in local.counts.iter().enumerate() {
        plan.monitor.record(&plan.nodes[n].display, 0, *count);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::mapping::{run, Mapping, RunInput};
    use crate::prelude::*;
    use crate::workflows;
    use crate::GraphError;

    #[test]
    fn pipeline_runs_sequentially() {
        let g = workflows::doubler_graph();
        let r = run(&g, RunInput::Iterations(4), &Mapping::Simple).unwrap();
        // Producer emits 0,1,2,3 → doubled 0,2,4,6.
        assert_eq!(r.lines(), &["got 0", "got 2", "got 4", "got 6"]);
    }

    #[test]
    fn iteration_counts_recorded() {
        let g = workflows::doubler_graph();
        let r = run(&g, RunInput::Iterations(3), &Mapping::Simple).unwrap();
        assert_eq!(r.counts.get(&("Numbers0".to_string(), 0)), Some(&3));
        assert_eq!(r.counts.get(&("Double1".to_string(), 0)), Some(&3));
        assert_eq!(r.counts.get(&("Print2".to_string(), 0)), Some(&3));
    }

    #[test]
    fn data_input_feeds_root_with_input_port() {
        let mut g = WorkflowGraph::new("w");
        let a = g.add(IterativePE::new("Inc", |d: Data| {
            Some(Data::from(d.as_int().unwrap_or(0) + 1))
        }));
        let b = g.add(workflows::print_consumer("Out"));
        g.connect(a, OUTPUT, b, INPUT).unwrap();
        let r = run(
            &g,
            RunInput::Data(vec![Data::from(10i64), Data::from(20i64)]),
            &Mapping::Simple,
        )
        .unwrap();
        assert_eq!(r.lines(), &["got 11", "got 21"]);
    }

    #[test]
    fn zero_iterations_produce_nothing() {
        let g = workflows::doubler_graph();
        let r = run(&g, RunInput::Iterations(0), &Mapping::Simple).unwrap();
        assert!(r.lines().is_empty());
    }

    #[test]
    fn fanout_duplicates_to_both_consumers() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(5));
        let c1 = g.add(workflows::print_consumer("A"));
        let c2 = g.add(workflows::print_consumer("B"));
        g.connect(src, OUTPUT, c1, INPUT).unwrap();
        g.connect(src, OUTPUT, c2, INPUT).unwrap();
        let r = run(&g, RunInput::Iterations(2), &Mapping::Simple).unwrap();
        assert_eq!(r.lines().len(), 4, "{:?}", r.lines());
    }

    #[test]
    fn multi_output_pe_splits_stream() {
        let g = workflows::word_count_graph();
        let r = run(&g, RunInput::Iterations(3), &Mapping::Simple).unwrap();
        assert!(!r.lines().is_empty());
        // Word counts must accumulate: the last 'stream' count exceeds 1.
        let max_count: i64 = r
            .lines()
            .iter()
            .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
            .max()
            .unwrap_or(0);
        assert!(max_count >= 2, "{:?}", r.lines());
    }

    #[test]
    fn isprime_workflow_end_to_end() {
        let g = workflows::isprime_graph();
        let r = run(&g, RunInput::Iterations(20), &Mapping::Simple).unwrap();
        assert!(!r.lines().is_empty());
        for line in r.lines() {
            assert!(line.contains("is prime"), "{line}");
        }
    }

    #[test]
    fn cyclic_graph_rejected_at_run() {
        let mut g = WorkflowGraph::new("w");
        let a = g.add(workflows::identity_pe("A"));
        let b = g.add(workflows::identity_pe("B"));
        g.connect(a, OUTPUT, b, INPUT).unwrap();
        g.connect(b, OUTPUT, a, INPUT).unwrap();
        assert!(run(&g, RunInput::Iterations(1), &Mapping::Simple).is_err());
    }

    #[test]
    fn panicking_pe_is_typed_not_unwound() {
        // Pre-fault-model, a panicking PE unwound straight through run().
        // Under the default FailFast policy it now surfaces as the same
        // typed error the parallel mappings raise.
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(10));
        let boom = g.add(IterativePE::new("Boom", |_d: Data| -> Option<Data> {
            panic!("sequential boom")
        }));
        g.connect(src, OUTPUT, boom, INPUT).unwrap();
        let err = run(&g, RunInput::Iterations(2), &Mapping::Simple).unwrap_err();
        match err {
            GraphError::WorkerPanicked(msg) => assert!(msg.contains("sequential boom")),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn dead_letter_policy_keeps_stream_flowing() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(ProducerPE::new("Numbers", |i| Some(Data::from(i as i64))));
        let picky = g.add(IterativePE::new("Picky", |d: Data| {
            let v = d.as_int().unwrap_or(0);
            if v % 3 == 0 {
                panic!("refuses multiples of three: {v}");
            }
            Some(d)
        }));
        let sink = g.add(workflows::print_consumer("Out"));
        g.connect(src, OUTPUT, picky, INPUT).unwrap();
        g.connect(picky, OUTPUT, sink, INPUT).unwrap();
        let r = crate::mapping::run_with_options(
            &g,
            RunInput::Iterations(9),
            &Mapping::Simple,
            crate::monitor::OutputSink::new(),
            &RunOptions {
                fault_policy: FaultPolicy::DeadLetter { max_attempts: 1 },
                task_timeout: None,
            },
        )
        .unwrap();
        // 0,3,6 dead-lettered; 1,2,4,5,7,8 delivered.
        assert_eq!(r.lines().len(), 6, "{:?}", r.lines());
        assert_eq!(r.dead_letters.len(), 3);
        assert_eq!(r.fault_stats.dead_letters, 3);
        assert!(r.dead_letters.iter().all(|e| e.pe == "Picky1"));
        assert_eq!(r.dead_letters[0].datum, Some(Data::from(0i64)));
    }

    #[test]
    fn retry_policy_overcomes_transient_faults() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let failures = Arc::new(AtomicU32::new(0));
        let f2 = failures.clone();
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(100));
        let flaky = g.add(IterativePE::new("Flaky", move |d: Data| {
            // Fail the first two invocations ever, then behave.
            if f2.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            Some(d)
        }));
        let sink = g.add(workflows::print_consumer("Out"));
        g.connect(src, OUTPUT, flaky, INPUT).unwrap();
        g.connect(flaky, OUTPUT, sink, INPUT).unwrap();
        let r = crate::mapping::run_with_options(
            &g,
            RunInput::Iterations(5),
            &Mapping::Simple,
            crate::monitor::OutputSink::new(),
            &RunOptions {
                fault_policy: FaultPolicy::Retry {
                    max_attempts: 3,
                    backoff: std::time::Duration::ZERO,
                },
                task_timeout: None,
            },
        )
        .unwrap();
        assert_eq!(r.lines().len(), 5, "{:?}", r.lines());
        assert_eq!(r.fault_stats.faults, 2);
        assert_eq!(r.fault_stats.retries, 2);
        assert!(r.dead_letters.is_empty());
    }
}
