//! The *multiprocessing* mapping: static workload distribution
//! (paper §II-A, Fig. 5b).
//!
//! The process count is partitioned statically over the PEs —
//! `{'NumberProducer': range(0, 1), 'IsPrime1': range(1, 5), 'PrintPrime2':
//! range(5, 9)}` for 9 processes — and each rank becomes an OS thread owning
//! its own PE instance and a bounded `std::sync::mpsc` channel. Data is
//! routed to target ranks according to the edge's
//! [`Grouping`](crate::graph::Grouping); termination uses end-of-stream
//! tokens counted per upstream rank, the standard dataflow discipline.
//!
//! Fault model: every PE invocation runs under the run's [`Supervisor`]
//! (`catch_unwind` isolation), so a panicking PE fails its rank with a
//! typed error instead of unwinding the thread, is retried in place, or
//! dead-letters the datum — per the run's
//! [`FaultPolicy`](crate::fault::FaultPolicy). A send to a rank that died
//! abnormally is recorded as `GraphError::PeerDisconnected` in a shared
//! first-failure slot rather than aborting the process; the primary error
//! (the panic that killed the peer) still wins the error surface because
//! it is recorded strictly earlier.

use crate::data::Data;
use crate::error::GraphError;
use crate::fault::{Supervised, Supervisor};
use crate::graph::{NodeId, WorkflowGraph};
use crate::lock;
use crate::mapping::RunInput;
use crate::monitor::{Monitor, OutputSink};
use crate::pe::Context;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;

/// Channel capacity per rank — bounded for backpressure (HPC guide idiom).
const CHANNEL_CAP: usize = 1024;

enum Msg {
    Item { port: String, data: Data },
    Eos,
}

/// First-failure slot shared by all ranks; the earliest recorded error is
/// the one the run reports (panics beat the secondary peer-disconnect
/// errors they cause, because ranks record before exiting).
struct FailSlot(Mutex<Option<GraphError>>);

impl FailSlot {
    fn record(&self, err: GraphError) {
        let mut slot = lock(&self.0);
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    fn take(&self) -> Option<GraphError> {
        lock(&self.0).take()
    }
}

pub(crate) fn execute(
    graph: &WorkflowGraph,
    input: &RunInput,
    processes: usize,
    sink: &OutputSink,
    monitor: &Monitor,
    supervisor: &Supervisor,
) -> Result<Vec<Range<usize>>, GraphError> {
    let partition = graph.partition(processes)?;

    // rank → owning node.
    let mut rank_node: Vec<usize> = vec![0; processes];
    for (node, range) in partition.iter().enumerate() {
        for r in range.clone() {
            rank_node[r] = node;
        }
    }

    // Channels, one per rank; popped front-to-back as ranks spawn.
    let mut senders: Vec<SyncSender<Msg>> = Vec::with_capacity(processes);
    let mut receivers: VecDeque<Receiver<Msg>> = VecDeque::with_capacity(processes);
    for _ in 0..processes {
        let (tx, rx) = sync_channel::<Msg>(CHANNEL_CAP);
        senders.push(tx);
        receivers.push_back(rx);
    }

    // Expected EOS tokens per rank = Σ over in-edges of |source ranks|.
    let expected_eos: Vec<usize> = (0..processes)
        .map(|r| {
            let node = rank_node[r];
            graph
                .in_edges(NodeId(node))
                .iter()
                .map(|e| partition[e.from.0].len())
                .sum()
        })
        .collect();

    let fail_slot = FailSlot(Mutex::new(None));

    let result: Result<Vec<()>, GraphError> = std::thread::scope(|scope| {
        let fail_slot = &fail_slot;
        let mut handles = Vec::with_capacity(processes);
        for (rank, rx) in receivers.into_iter().enumerate() {
            let node_idx = rank_node[rank];
            let node = graph.node(NodeId(node_idx));
            let display = node.display_name(node_idx);
            let factory = node.factory.clone();
            let senders = senders.clone();
            let partition = partition.clone();
            let sink = sink.clone();
            let monitor = monitor.clone();
            let expected = expected_eos[rank];
            let out_edges: Vec<_> = graph.out_edges(NodeId(node_idx)).into_iter().cloned().collect();
            let is_root = graph.in_edges(NodeId(node_idx)).is_empty();
            let input = input.clone();
            let first_input_port = node.ports.inputs.first().cloned();

            handles.push(scope.spawn(move || -> Result<(), GraphError> {
                let mut pe = factory.create();
                let mut iterations = 0u64;
                // Per-edge round-robin counters.
                let mut counters = vec![rank; out_edges.len()]; // offset by rank to spread load

                // Emission routing shared by all phases.
                let route = |edge_idx: usize,
                             port: &str,
                             data: Data,
                             counters: &mut Vec<usize>|
                 -> Vec<(usize, Msg)> {
                    let edge = &out_edges[edge_idx];
                    if edge.from_port != port {
                        return Vec::new();
                    }
                    let targets = partition[edge.to.0].clone();
                    let offsets =
                        WorkflowGraph::route(edge, &data, targets.len(), &mut counters[edge_idx]);
                    offsets
                        .into_iter()
                        .map(|o| {
                            (
                                targets.start + o,
                                Msg::Item {
                                    port: edge.to_port.clone(),
                                    data: data.clone(),
                                },
                            )
                        })
                        .collect()
                };

                let send_all = |emitted: Vec<(String, Data)>, counters: &mut Vec<usize>| {
                    for (port, data) in emitted {
                        for edge_idx in 0..out_edges.len() {
                            for (target, msg) in route(edge_idx, &port, data.clone(), counters) {
                                if senders[target].send(msg).is_err() {
                                    // Receiver gone = downstream rank died
                                    // abnormally. Record typed (the primary
                                    // failure was recorded first by the
                                    // dying rank); keep this rank draining
                                    // so upstream ranks can terminate.
                                    fail_slot.record(GraphError::PeerDisconnected {
                                        from: display.clone(),
                                        to: format!("rank {target}"),
                                    });
                                }
                            }
                        }
                    }
                };

                // The rank's work as one fallible block: however it ends, the
                // EOS fan-out below must run. Every rank holds a clone of every
                // sender, so no channel ever disconnects, and a downstream rank
                // that is never sent this rank's EOS waits in `recv` forever.
                let worked = (|| -> Result<(), GraphError> {
                    // Setup.
                    let mut emitted: Vec<(String, Data)> = Vec::new();
                    let outcome = supervisor.invoke(&display, None, None, &mut || {
                        emitted.clear();
                        let mut emit = |p: &str, d: Data| emitted.push((p.to_string(), d));
                        let log = |line: String| sink.push(line);
                        let mut ctx = Context::new(&display, rank, 0, &mut emit, &log);
                        pe.setup(&mut ctx);
                    }).inspect_err(|e| fail_slot.record(e.clone()))?;
                    if matches!(outcome, Supervised::Done) {
                        send_all(std::mem::take(&mut emitted), &mut counters);
                    }

                    if is_root {
                        // Root rank drives the input. (Each root PE has exactly
                        // one rank by construction of `partition`.)
                        let feed: Vec<Option<Data>> = match &input {
                            RunInput::Iterations(n) => (0..*n).map(|_| None).collect(),
                            RunInput::Data(items) => items.iter().map(|d| Some(d.clone())).collect(),
                        };
                        for (i, datum) in feed.into_iter().enumerate() {
                            let call = match (&datum, &first_input_port) {
                                (Some(d), Some(port)) => Some((port.clone(), d.clone())),
                                _ => None,
                            };
                            let mut emitted: Vec<(String, Data)> = Vec::new();
                            let outcome = supervisor.invoke(
                                &display,
                                call.as_ref().map(|(p, _)| p.as_str()),
                                call.as_ref().map(|(_, d)| d),
                                &mut || {
                                    emitted.clear();
                                    let mut emit =
                                        |p: &str, d: Data| emitted.push((p.to_string(), d));
                                    let log = |line: String| sink.push(line);
                                    let mut ctx =
                                        Context::new(&display, rank, i as u64, &mut emit, &log);
                                    pe.process(call.clone(), &mut ctx);
                                },
                            ).inspect_err(|e| fail_slot.record(e.clone()))?;
                            if matches!(outcome, Supervised::DeadLettered) {
                                continue;
                            }
                            iterations += 1;
                            send_all(emitted, &mut counters);
                        }
                    } else {
                        // Worker rank: consume until all upstream EOS received.
                        let mut eos = 0usize;
                        while eos < expected {
                            match rx.recv() {
                                Ok(Msg::Item { port, data }) => {
                                    let mut emitted: Vec<(String, Data)> = Vec::new();
                                    let outcome = supervisor.invoke(
                                        &display,
                                        Some(&port),
                                        Some(&data),
                                        &mut || {
                                            emitted.clear();
                                            let mut emit =
                                                |p: &str, d: Data| emitted.push((p.to_string(), d));
                                            let log = |line: String| sink.push(line);
                                            let mut ctx = Context::new(
                                                &display, rank, iterations, &mut emit, &log,
                                            );
                                            pe.process(Some((port.clone(), data.clone())), &mut ctx);
                                        },
                                    ).inspect_err(|e| fail_slot.record(e.clone()))?;
                                    if matches!(outcome, Supervised::DeadLettered) {
                                        continue;
                                    }
                                    iterations += 1;
                                    send_all(emitted, &mut counters);
                                }
                                Ok(Msg::Eos) => eos += 1,
                                Err(_) => break, // all senders gone — treat as EOS
                            }
                        }
                    }

                    // Teardown.
                    let mut emitted: Vec<(String, Data)> = Vec::new();
                    let outcome = supervisor.invoke(&display, None, None, &mut || {
                        emitted.clear();
                        let mut emit = |p: &str, d: Data| emitted.push((p.to_string(), d));
                        let log = |line: String| sink.push(line);
                        let mut ctx = Context::new(&display, rank, iterations, &mut emit, &log);
                        pe.teardown(&mut ctx);
                    }).inspect_err(|e| fail_slot.record(e.clone()))?;
                    if matches!(outcome, Supervised::Done) {
                        send_all(emitted, &mut counters);
                    }
                    Ok(())
                })();
                for edge in &out_edges {
                    for target in partition[edge.to.0].clone() {
                        let _ = senders[target].send(Msg::Eos);
                    }
                }
                drop(senders);
                monitor.record(&display, rank, iterations);
                worked
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(p) => Err(GraphError::WorkerPanicked(super::panic_message(p))),
            })
            .collect()
    });
    match result {
        Ok(_) => Ok(partition),
        Err(e) => {
            // Prefer the first-recorded failure: a panic that killed a rank
            // beats the peer-disconnect errors it caused downstream.
            Err(match fail_slot.take() {
                Some(first) => first,
                None => e,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::error::GraphError;
    use crate::mapping::{run, run_with_options, Mapping, RunInput};
    use crate::monitor::OutputSink;
    use crate::prelude::*;
    use crate::workflows;
    use std::collections::BTreeMap;

    fn sorted(mut v: Vec<String>) -> Vec<String> {
        v.sort();
        v
    }

    #[test]
    fn matches_simple_mapping_output_multiset() {
        let g1 = workflows::doubler_graph();
        let seq = run(&g1, RunInput::Iterations(20), &Mapping::Simple).unwrap();
        let g2 = workflows::doubler_graph();
        let par = run(&g2, RunInput::Iterations(20), &Mapping::Multi { processes: 6 }).unwrap();
        assert_eq!(sorted(seq.lines().to_vec()), sorted(par.lines().to_vec()));
    }

    #[test]
    fn partition_reported_fig5b_style() {
        let g = workflows::isprime_graph();
        let r = run(&g, RunInput::Iterations(10), &Mapping::Multi { processes: 9 }).unwrap();
        let p = r.partition.unwrap();
        assert_eq!(p[0], 0..1);
        assert_eq!(p[1], 1..5);
        assert_eq!(p[2], 5..9);
    }

    #[test]
    fn per_rank_counts_sum_to_total_work() {
        let g = workflows::doubler_graph();
        let r = run(&g, RunInput::Iterations(50), &Mapping::Multi { processes: 7 }).unwrap();
        let by_pe: BTreeMap<String, u64> =
            r.counts
                .iter()
                .fold(BTreeMap::new(), |mut acc, ((pe, _), n)| {
                    *acc.entry(pe.clone()).or_insert(0) += n;
                    acc
                });
        assert_eq!(by_pe.get("Numbers0"), Some(&50));
        assert_eq!(by_pe.get("Double1"), Some(&50));
        assert_eq!(by_pe.get("Print2"), Some(&50));
        // Work is actually spread: with 50 items and 2+ ranks on Double,
        // at least two ranks processed something.
        let double_ranks = r
            .counts
            .iter()
            .filter(|((pe, _), n)| pe == "Double1" && **n > 0)
            .count();
        assert!(double_ranks >= 2, "{:?}", r.counts);
    }

    #[test]
    fn minimum_process_count_enforced() {
        let g = workflows::isprime_graph();
        let err = run(&g, RunInput::Iterations(1), &Mapping::Multi { processes: 2 }).unwrap_err();
        assert!(matches!(err, GraphError::InvalidProcessCount { .. }));
    }

    #[test]
    fn group_by_keeps_keys_on_one_rank() {
        // Stateful counting per word only works when equal words land on
        // the same rank — exactly what GroupBy guarantees.
        let g = workflows::word_count_graph();
        let seq = run(&g, RunInput::Iterations(6), &Mapping::Simple).unwrap();
        let g2 = workflows::word_count_graph();
        let par = run(&g2, RunInput::Iterations(6), &Mapping::Multi { processes: 8 }).unwrap();
        // Final per-word maxima must agree between mappings.
        let final_counts = |lines: &[String]| -> BTreeMap<String, i64> {
            let mut m = BTreeMap::new();
            for l in lines {
                let mut parts = l.rsplitn(2, ' ');
                let n: i64 = parts.next().unwrap().parse().unwrap();
                let w = parts.next().unwrap().to_string();
                let e = m.entry(w).or_insert(0);
                if n > *e {
                    *e = n;
                }
            }
            m
        };
        assert_eq!(final_counts(seq.lines()), final_counts(par.lines()));
    }

    #[test]
    fn one_to_all_broadcasts() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(100));
        let sink = g.add(workflows::print_consumer("S"));
        g.connect_grouped(src, OUTPUT, sink, INPUT, Grouping::OneToAll)
            .unwrap();
        // 3 sink ranks → every datum printed 3 times.
        let r = run(&g, RunInput::Iterations(4), &Mapping::Multi { processes: 4 }).unwrap();
        assert_eq!(r.lines().len(), 12, "{:?}", r.lines());
    }

    #[test]
    fn all_to_one_serialises() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(100));
        let sink = g.add(workflows::print_consumer("S"));
        g.connect_grouped(src, OUTPUT, sink, INPUT, Grouping::AllToOne)
            .unwrap();
        let r = run(&g, RunInput::Iterations(5), &Mapping::Multi { processes: 5 }).unwrap();
        // All data on the sink's first rank.
        let first_rank_count = r
            .counts
            .iter()
            .filter(|((pe, _), n)| pe == "S1" && **n > 0)
            .count();
        assert_eq!(first_rank_count, 1, "{:?}", r.counts);
        assert_eq!(r.lines().len(), 5);
    }

    #[test]
    fn isprime_parallel_matches_sequential() {
        let seq = run(&workflows::isprime_graph(), RunInput::Iterations(30), &Mapping::Simple).unwrap();
        let par = run(
            &workflows::isprime_graph(),
            RunInput::Iterations(30),
            &Mapping::Multi { processes: 9 },
        )
        .unwrap();
        assert_eq!(sorted(seq.lines().to_vec()), sorted(par.lines().to_vec()));
    }

    #[test]
    fn worker_panic_is_reported_not_hung() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(100));
        let boom = g.add(IterativePE::new("Boom", |d: Data| {
            if d.as_int().unwrap_or(0) >= 0 {
                panic!("intentional test panic");
            }
            Some(d)
        }));
        g.connect(src, OUTPUT, boom, INPUT).unwrap();
        let err = run(&g, RunInput::Iterations(3), &Mapping::Multi { processes: 2 }).unwrap_err();
        match err {
            GraphError::WorkerPanicked(msg) => assert!(msg.contains("intentional")),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    /// Identity PE that panics in the named phase.
    #[derive(Clone)]
    struct PanicsIn(&'static str);

    impl PanicsIn {
        fn hit(&self, phase: &str) {
            assert!(self.0 != phase, "intentional {phase} panic");
        }
    }

    impl crate::pe::NamedPE for PanicsIn {
        fn pe_name(&self) -> String {
            "PanicsIn".into()
        }
    }

    impl crate::pe::PE for PanicsIn {
        fn ports(&self) -> PortSpec {
            PortSpec::iterative()
        }

        fn setup(&mut self, _ctx: &mut Context<'_>) {
            self.hit("setup");
        }

        fn process(&mut self, input: Option<(String, Data)>, ctx: &mut Context<'_>) {
            self.hit("process");
            if let Some((_, d)) = input {
                ctx.write(d);
            }
        }

        fn teardown(&mut self, _ctx: &mut Context<'_>) {
            self.hit("teardown");
        }
    }

    /// A rank that fails — in setup, feeding the root, processing, or in
    /// teardown — still sends EOS downstream: the run reports the panic
    /// instead of leaving the rank below it in `recv` forever. The
    /// parent's watchdog is what fails here if that regresses.
    #[test]
    fn failed_rank_still_ends_the_stream_below_it() {
        for site in ["setup", "root", "process", "teardown"] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut g = WorkflowGraph::new("w");
                let src = g.add(ProducerPE::new("Src", move |i| {
                    assert!(site != "root" || i < 2, "intentional root panic");
                    Some(Data::from(i as i64))
                }));
                let mid = g.add(PanicsIn(site));
                let out = g.add(workflows::print_consumer("Out"));
                g.connect(src, OUTPUT, mid, INPUT).unwrap();
                g.connect(mid, OUTPUT, out, INPUT).unwrap();
                let _ = tx.send(run(
                    &g,
                    RunInput::Iterations(5),
                    &Mapping::Multi { processes: 3 },
                ));
            });
            let result = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{site}: the run wedged"));
            match result {
                Err(GraphError::WorkerPanicked(msg)) => {
                    assert!(msg.contains("intentional"), "{site}: {msg}")
                }
                other => panic!("{site}: expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn data_input_supported() {
        let mut g = WorkflowGraph::new("w");
        let a = g.add(IterativePE::new("Inc", |d: Data| {
            Some(Data::from(d.as_int().unwrap_or(0) + 1))
        }));
        let b = g.add(workflows::print_consumer("Out"));
        g.connect(a, OUTPUT, b, INPUT).unwrap();
        let r = run(
            &g,
            RunInput::Data(vec![Data::from(1i64), Data::from(2i64), Data::from(3i64)]),
            &Mapping::Multi { processes: 3 },
        )
        .unwrap();
        assert_eq!(sorted(r.lines().to_vec()), vec!["got 2", "got 3", "got 4"]);
    }

    #[test]
    fn dead_letter_policy_survives_panicking_rank() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(ProducerPE::new("Numbers", |i| Some(Data::from(i as i64))));
        let picky = g.add(IterativePE::new("Picky", |d: Data| {
            let v = d.as_int().unwrap_or(0);
            if v % 4 == 0 {
                panic!("refuses multiples of four: {v}");
            }
            Some(d)
        }));
        let sink = g.add(workflows::print_consumer("Out"));
        g.connect(src, OUTPUT, picky, INPUT).unwrap();
        g.connect(picky, OUTPUT, sink, INPUT).unwrap();
        let r = run_with_options(
            &g,
            RunInput::Iterations(8),
            &Mapping::Multi { processes: 4 },
            OutputSink::new(),
            &RunOptions {
                fault_policy: FaultPolicy::DeadLetter { max_attempts: 1 },
                task_timeout: None,
            },
        )
        .unwrap();
        // 0 and 4 dead-lettered; 1,2,3,5,6,7 delivered.
        assert_eq!(r.lines().len(), 6, "{:?}", r.lines());
        assert_eq!(r.dead_letters.len(), 2);
        assert_eq!(r.fault_stats.dead_letters, 2);
        assert!(r.dead_letters.iter().all(|e| e.pe == "Picky1"));
    }

    #[test]
    fn retry_policy_exhaustion_fails_typed() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(100));
        let boom = g.add(IterativePE::new("Boom", |_d: Data| -> Option<Data> {
            panic!("permanent")
        }));
        g.connect(src, OUTPUT, boom, INPUT).unwrap();
        let err = run_with_options(
            &g,
            RunInput::Iterations(2),
            &Mapping::Multi { processes: 2 },
            OutputSink::new(),
            &RunOptions {
                fault_policy: FaultPolicy::Retry {
                    max_attempts: 2,
                    backoff: std::time::Duration::ZERO,
                },
                task_timeout: None,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, GraphError::PeFailed { ref pe, attempts: 2, .. } if pe == "Boom1"),
            "{err:?}"
        );
    }
}
