//! The *dynamic* mapping: adaptive workload allocation through a shared
//! work queue (dispel4py's *Redis* mapping; Liang et al. 2022).
//!
//! Instead of pinning ranks to PEs statically, every datum becomes a task
//! in a broker queue and any worker may execute any PE. Workers keep one
//! instance per PE (lazily created), so stateless and per-worker-stateful
//! PEs work naturally; key-partitioned state requires the static mapping's
//! `GroupBy`, the same restriction the real Redis mapping has.
//!
//! Auto-provisioning (paper §III "auto-provisioning", §IV "dynamic process
//! allocation") is simulated with an autoscaler: when queue depth per
//! active worker exceeds a threshold, another pre-spawned worker is
//! activated, up to `max_workers`.
//!
//! Fault model: every PE invocation runs under the run's [`Supervisor`]
//! (`catch_unwind` + the run's [`FaultPolicy`](crate::fault::FaultPolicy)).
//! With a per-task timeout set, the autoscaler thread doubles as a task
//! supervisor: a task still running past the budget is *abandoned* (its
//! late completion is discarded), the hung worker is detached, and a fresh
//! pre-spawned worker is activated in its place — the same machinery a
//! scale-up uses. The abandoned task is then retried, dead-lettered, or
//! fails the run, per policy. A worker hung forever still delays final
//! scope join, but the stream keeps flowing on its replacement in the
//! meantime (bounded stragglers — the common chaos case — fully recover).

use crate::data::Data;
use crate::error::GraphError;
use crate::fault::{FaultPolicy, Supervised, Supervisor};
use crate::graph::{NodeId, WorkflowGraph};
use crate::lock;
use crate::mapping::{DynamicConfig, RunInput};
use crate::monitor::{Monitor, OutputSink};
use crate::pe::{Context, PE};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What a task does; cloneable so the timeout supervisor can requeue it.
#[derive(Clone)]
enum TaskKind {
    /// Drive a producer once with the given iteration index.
    Produce { node: usize, iteration: u64 },
    /// Deliver a datum to a PE's input port.
    Item { node: usize, port: String, data: Data },
}

/// One unit of work in the broker queue.
#[derive(Clone)]
struct Task {
    /// Unique per run; keys the abandoned-task set.
    id: u64,
    /// Timed-out attempts so far (timeout retries requeue with +1).
    attempts: u32,
    kind: TaskKind,
}

/// What a worker is executing right now, visible to the timeout supervisor.
struct ActiveTask {
    task: Task,
    started: Instant,
}

/// The simulated Redis broker: FIFO queue + in-flight accounting.
struct Broker {
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
    in_flight: AtomicUsize,
    done: AtomicBool,
    failure: Mutex<Option<GraphError>>,
    next_id: AtomicU64,
    /// Tasks the timeout supervisor gave up waiting for; the worker that
    /// eventually finishes one discards its results.
    abandoned: Mutex<HashSet<u64>>,
}

impl Broker {
    fn new() -> Self {
        Broker {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            failure: Mutex::new(None),
            next_id: AtomicU64::new(0),
            abandoned: Mutex::new(HashSet::new()),
        }
    }

    fn submit(&self, attempts: u32, kind: TaskKind) {
        let task = Task {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            attempts,
            kind,
        };
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        lock(&self.queue).push_back(task);
        self.available.notify_one();
    }

    /// Pop with a short wait; `None` means "check termination".
    fn pop(&self) -> Option<Task> {
        let mut q = lock(&self.queue);
        if let Some(t) = q.pop_front() {
            return Some(t);
        }
        let (mut q, _) = self
            .available
            .wait_timeout(q, Duration::from_millis(2))
            .unwrap_or_else(PoisonError::into_inner);
        q.pop_front()
    }

    /// Called after fully accounting for one task (children already
    /// pushed). When the last task completes, wakes everyone up.
    fn finish_one(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.done.store(true, Ordering::SeqCst);
            self.available.notify_all();
        }
    }

    fn depth(&self) -> usize {
        lock(&self.queue).len()
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Abort the run: record the first failure and release all waiters.
    fn fail(&self, err: GraphError) {
        let mut f = lock(&self.failure);
        if f.is_none() {
            *f = Some(err);
        }
        drop(f);
        self.done.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }
}

/// (PE display name, port, datum) of a task, for dead-letter records.
fn describe_task(graph: &WorkflowGraph, kind: &TaskKind) -> (String, Option<String>, Option<Data>) {
    match kind {
        TaskKind::Produce { node, .. } => {
            (graph.node(NodeId(*node)).display_name(*node), None, None)
        }
        TaskKind::Item { node, port, data } => (
            graph.node(NodeId(*node)).display_name(*node),
            Some(port.clone()),
            Some(data.clone()),
        ),
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn execute(
    graph: &WorkflowGraph,
    input: &RunInput,
    cfg: &DynamicConfig,
    sink: &OutputSink,
    monitor: &Monitor,
    supervisor: &Supervisor,
    task_timeout: Option<Duration>,
) -> Result<(), GraphError> {
    if cfg.initial_workers == 0 || cfg.max_workers < cfg.initial_workers {
        return Err(GraphError::InvalidProcessCount {
            requested: cfg.initial_workers,
            minimum: 1,
        });
    }
    let broker = Broker::new();
    let active_workers = AtomicUsize::new(cfg.initial_workers);
    // Per-worker execution slots (for the timeout supervisor) and detach
    // flags (a detached worker retires after its current task).
    let slots: Vec<Mutex<Option<ActiveTask>>> =
        (0..cfg.max_workers).map(|_| Mutex::new(None)).collect();
    let detached: Vec<AtomicBool> = (0..cfg.max_workers).map(|_| AtomicBool::new(false)).collect();

    // Seed the queue from the run input.
    let roots = graph.roots();
    match input {
        RunInput::Iterations(n) => {
            for &r in &roots {
                for i in 0..*n {
                    broker.submit(
                        0,
                        TaskKind::Produce {
                            node: r.0,
                            iteration: i,
                        },
                    );
                }
            }
        }
        RunInput::Data(items) => {
            for &r in &roots {
                let node = graph.node(r);
                let first_input = node.ports.inputs.first().cloned();
                for (i, d) in items.iter().enumerate() {
                    match &first_input {
                        Some(port) => broker.submit(
                            0,
                            TaskKind::Item {
                                node: r.0,
                                port: port.clone(),
                                data: d.clone(),
                            },
                        ),
                        None => broker.submit(
                            0,
                            TaskKind::Produce {
                                node: r.0,
                                iteration: i as u64,
                            },
                        ),
                    }
                }
            }
        }
    }
    if broker.in_flight.load(Ordering::SeqCst) == 0 {
        return Ok(()); // nothing to do
    }

    let result: Result<Vec<()>, GraphError> = std::thread::scope(|scope| {
        let broker = &broker;
        let active = &active_workers;
        let slots = &slots;
        let detached = &detached;
        let mut handles = Vec::new();

        // Workers 0..max are pre-spawned; worker w only pulls while
        // `w < active` (the autoscaler raises `active`, both for load
        // scale-ups and to replace a detached worker).
        for w in 0..cfg.max_workers {
            let sink = sink.clone();
            let monitor = monitor.clone();
            handles.push(scope.spawn(move || -> Result<(), GraphError> {
                let mut instances: HashMap<usize, Box<dyn PE>> = HashMap::new();
                let mut counts: HashMap<usize, u64> = HashMap::new();
                loop {
                    if broker.is_done() || detached[w].load(Ordering::SeqCst) {
                        break;
                    }
                    if w >= active.load(Ordering::SeqCst) {
                        // Inactive (not yet provisioned): idle-wait.
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    let Some(task) = broker.pop() else { continue };
                    let (node_idx, call, iteration) = match &task.kind {
                        TaskKind::Produce { node, iteration } => (*node, None, *iteration),
                        TaskKind::Item { node, port, data } => {
                            let it = *counts.get(node).unwrap_or(&0);
                            (*node, Some((port.clone(), data.clone())), it)
                        }
                    };
                    let node = graph.node(NodeId(node_idx));
                    let display = node.display_name(node_idx);
                    let pe = instances
                        .entry(node_idx)
                        .or_insert_with(|| node.factory.create());
                    *lock(&slots[w]) = Some(ActiveTask {
                        task: task.clone(),
                        started: Instant::now(),
                    });
                    let mut emitted: Vec<(String, Data)> = Vec::new();
                    let outcome = supervisor.invoke(
                        &display,
                        call.as_ref().map(|(p, _)| p.as_str()),
                        call.as_ref().map(|(_, d)| d),
                        &mut || {
                            // Each attempt restarts the timeout clock.
                            if let Some(a) = lock(&slots[w]).as_mut() {
                                a.started = Instant::now();
                            }
                            emitted.clear();
                            let mut emit = |p: &str, d: Data| emitted.push((p.to_string(), d));
                            let log = |line: String| sink.push(line);
                            let mut ctx = Context::new(&display, w, iteration, &mut emit, &log);
                            pe.process(call.clone(), &mut ctx);
                        },
                    );
                    *lock(&slots[w]) = None;
                    if lock(&broker.abandoned).remove(&task.id) {
                        // The timeout supervisor already accounted for this
                        // task (requeue / dead-letter / abort) — discard
                        // this late completion; the detach check at the top
                        // of the loop retires the worker.
                        continue;
                    }
                    match outcome {
                        Err(e) => {
                            broker.fail(e);
                            break;
                        }
                        Ok(Supervised::DeadLettered) => {
                            broker.finish_one();
                            continue;
                        }
                        Ok(Supervised::Done) => {}
                    }
                    *counts.entry(node_idx).or_insert(0) += 1;
                    // Route children before finishing this task, so
                    // in-flight never drops to zero while work remains.
                    // Grouping degenerates to "any worker" here: the broker
                    // has no rank concept (the real Redis mapping shares the
                    // restriction for key-partitioned state).
                    for (port, data) in emitted {
                        for edge in graph.out_edges(NodeId(node_idx)) {
                            if edge.from_port == port {
                                broker.submit(
                                    0,
                                    TaskKind::Item {
                                        node: edge.to.0,
                                        port: edge.to_port.clone(),
                                        data: data.clone(),
                                    },
                                );
                            }
                        }
                    }
                    broker.finish_one();
                }
                // Teardown phase: flush terminal aggregates. Teardown
                // emissions are drained *locally* on this worker (the
                // broker has already terminated), which mirrors the real
                // Redis mapping's per-consumer state semantics.
                if lock(&broker.failure).is_none() {
                    let mut torn: HashSet<usize> = HashSet::new();
                    let mut local: VecDeque<(usize, String, Data)> = VecDeque::new();
                    'teardown: loop {
                        let pending: Vec<usize> = instances
                            .keys()
                            .copied()
                            .filter(|n| !torn.contains(n))
                            .collect();
                        if pending.is_empty() && local.is_empty() {
                            break;
                        }
                        for node_idx in pending {
                            torn.insert(node_idx);
                            let node = graph.node(NodeId(node_idx));
                            let display = node.display_name(node_idx);
                            let Some(pe) = instances.get_mut(&node_idx) else {
                                continue;
                            };
                            let it = *counts.get(&node_idx).unwrap_or(&0);
                            let mut emitted: Vec<(String, Data)> = Vec::new();
                            let outcome = supervisor.invoke(&display, None, None, &mut || {
                                emitted.clear();
                                let mut emit =
                                    |p: &str, d: Data| emitted.push((p.to_string(), d));
                                let log = |line: String| sink.push(line);
                                let mut ctx = Context::new(&display, w, it, &mut emit, &log);
                                pe.teardown(&mut ctx);
                            });
                            match outcome {
                                Err(e) => {
                                    broker.fail(e);
                                    break 'teardown;
                                }
                                Ok(Supervised::DeadLettered) => continue,
                                Ok(Supervised::Done) => {}
                            }
                            for (port, data) in emitted {
                                for edge in graph.out_edges(NodeId(node_idx)) {
                                    if edge.from_port == port {
                                        local.push_back((
                                            edge.to.0,
                                            edge.to_port.clone(),
                                            data.clone(),
                                        ));
                                    }
                                }
                            }
                        }
                        while let Some((node_idx, port, data)) = local.pop_front() {
                            let node = graph.node(NodeId(node_idx));
                            let display = node.display_name(node_idx);
                            let pe = instances
                                .entry(node_idx)
                                .or_insert_with(|| node.factory.create());
                            let it = *counts.get(&node_idx).unwrap_or(&0);
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
                                    let mut ctx =
                                        Context::new(&display, w, it, &mut emit, &log);
                                    pe.process(Some((port.clone(), data.clone())), &mut ctx);
                                },
                            );
                            match outcome {
                                Err(e) => {
                                    broker.fail(e);
                                    break 'teardown;
                                }
                                Ok(Supervised::DeadLettered) => continue,
                                Ok(Supervised::Done) => {}
                            }
                            *counts.entry(node_idx).or_insert(0) += 1;
                            for (port, data) in emitted {
                                for edge in graph.out_edges(NodeId(node_idx)) {
                                    if edge.from_port == port {
                                        local.push_back((
                                            edge.to.0,
                                            edge.to_port.clone(),
                                            data.clone(),
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }

                for (node_idx, n) in counts {
                    let display = graph.node(NodeId(node_idx)).display_name(node_idx);
                    monitor.record(&display, w, n);
                }
                Ok(())
            }));
        }

        // Autoscaler + task supervisor: runs on this thread until the
        // broker drains.
        while !broker.is_done() {
            if cfg.autoscale {
                let depth = broker.depth();
                let act = active.load(Ordering::SeqCst);
                if act < cfg.max_workers && depth > cfg.scale_threshold * act {
                    active.store(act + 1, Ordering::SeqCst);
                }
            }
            if let Some(timeout) = task_timeout {
                for w in 0..cfg.max_workers {
                    let mut slot = lock(&slots[w]);
                    let overdue = slot
                        .as_ref()
                        .is_some_and(|a| a.started.elapsed() >= timeout);
                    if !overdue {
                        continue;
                    }
                    let Some(abandoned_task) = slot.take() else { continue };
                    let newly = lock(&broker.abandoned).insert(abandoned_task.task.id);
                    drop(slot);
                    if !newly {
                        continue;
                    }
                    let task = abandoned_task.task;
                    supervisor.note_task_timeout();
                    supervisor.note_fault();
                    // Detach the hung worker; activate a fresh pre-spawned
                    // one in its place (autoscaler machinery).
                    if !detached[w].swap(true, Ordering::SeqCst) {
                        let act = active.load(Ordering::SeqCst);
                        if act < cfg.max_workers {
                            active.store(act + 1, Ordering::SeqCst);
                        }
                        supervisor.note_worker_replacement();
                    }
                    let (pe, port, datum) = describe_task(graph, &task.kind);
                    let timeout_ms = timeout.as_millis() as u64;
                    match supervisor.policy() {
                        FaultPolicy::FailFast => {
                            broker.fail(GraphError::TaskTimedOut { pe, timeout_ms });
                        }
                        FaultPolicy::Retry { max_attempts, .. } => {
                            if task.attempts + 1 < (*max_attempts).max(1) {
                                supervisor.note_retry();
                                broker.submit(task.attempts + 1, task.kind.clone());
                                broker.finish_one();
                            } else {
                                broker.fail(GraphError::TaskTimedOut { pe, timeout_ms });
                            }
                        }
                        FaultPolicy::DeadLetter { .. } => {
                            supervisor.dead_letter(
                                &pe,
                                port.as_deref(),
                                datum,
                                format!("task timed out after {timeout_ms} ms"),
                                task.attempts + 1,
                            );
                            broker.finish_one();
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }

        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(p) => Err(GraphError::WorkerPanicked(super::panic_message(p))),
            })
            .collect()
    });
    result?;
    if let Some(err) = lock(&broker.failure).take() {
        return Err(err);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::error::GraphError;
    use crate::mapping::{run, run_with_options, DynamicConfig, Mapping, RunInput};
    use crate::monitor::OutputSink;
    use crate::prelude::*;
    use crate::workflows;
    use std::time::Duration;

    fn sorted(mut v: Vec<String>) -> Vec<String> {
        v.sort();
        v
    }

    fn dyn_mapping(initial: usize, max: usize) -> Mapping {
        Mapping::Dynamic(DynamicConfig {
            initial_workers: initial,
            max_workers: max,
            autoscale: true,
            scale_threshold: 4,
        })
    }

    #[test]
    fn matches_simple_mapping_output_multiset() {
        let seq = run(&workflows::doubler_graph(), RunInput::Iterations(25), &Mapping::Simple).unwrap();
        let dynr = run(&workflows::doubler_graph(), RunInput::Iterations(25), &dyn_mapping(2, 4)).unwrap();
        assert_eq!(sorted(seq.lines().to_vec()), sorted(dynr.lines().to_vec()));
    }

    #[test]
    fn isprime_dynamic_end_to_end() {
        let r = run(&workflows::isprime_graph(), RunInput::Iterations(25), &dyn_mapping(3, 6)).unwrap();
        for line in r.lines() {
            assert!(line.contains("is prime"), "{line}");
        }
        let total: u64 = r.counts.values().sum();
        assert!(total >= 25);
    }

    #[test]
    fn zero_iterations_finish_immediately() {
        let r = run(&workflows::doubler_graph(), RunInput::Iterations(0), &dyn_mapping(2, 4)).unwrap();
        assert!(r.lines().is_empty());
    }

    #[test]
    fn invalid_worker_config_rejected() {
        let err = run(
            &workflows::doubler_graph(),
            RunInput::Iterations(1),
            &Mapping::Dynamic(DynamicConfig {
                initial_workers: 0,
                max_workers: 0,
                autoscale: false,
                scale_threshold: 1,
            }),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::InvalidProcessCount { .. }));
    }

    #[test]
    fn data_input_feeds_dynamic_roots() {
        let mut g = WorkflowGraph::new("w");
        let a = g.add(IterativePE::new("Inc", |d: Data| {
            Some(Data::from(d.as_int().unwrap_or(0) + 1))
        }));
        let b = g.add(workflows::print_consumer("Out"));
        g.connect(a, OUTPUT, b, INPUT).unwrap();
        let r = run(
            &g,
            RunInput::Data(vec![Data::from(5i64), Data::from(6i64)]),
            &dyn_mapping(2, 2),
        )
        .unwrap();
        assert_eq!(sorted(r.lines().to_vec()), vec!["got 6", "got 7"]);
    }

    #[test]
    fn autoscaler_activates_extra_workers_under_load() {
        // Many tasks + slow PE → queue builds up → autoscaler must engage
        // more than the initial worker count.
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(1000));
        let slow = g.add(IterativePE::new("Slow", |d: Data| {
            std::thread::sleep(std::time::Duration::from_micros(300));
            Some(d)
        }));
        let sink = g.add(workflows::print_consumer("S"));
        g.connect(src, OUTPUT, slow, INPUT).unwrap();
        g.connect(slow, OUTPUT, sink, INPUT).unwrap();
        let r = run(&g, RunInput::Iterations(200), &dyn_mapping(1, 6)).unwrap();
        // Distinct workers that actually processed something:
        let workers: std::collections::HashSet<usize> =
            r.counts.keys().map(|(_, w)| *w).collect();
        assert!(workers.len() > 1, "autoscaler never engaged: {:?}", r.counts);
        assert_eq!(r.lines().len(), 200);
    }

    #[test]
    fn worker_panic_reported() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(10));
        let boom = g.add(IterativePE::new("Boom", |_d: Data| -> Option<Data> {
            panic!("dynamic test panic")
        }));
        g.connect(src, OUTPUT, boom, INPUT).unwrap();
        let err = run(&g, RunInput::Iterations(2), &dyn_mapping(2, 2)).unwrap_err();
        assert!(matches!(err, GraphError::WorkerPanicked(_)));
    }

    #[test]
    fn dead_letter_policy_keeps_dynamic_stream_flowing() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(ProducerPE::new("Numbers", |i| Some(Data::from(i as i64))));
        let picky = g.add(IterativePE::new("Picky", |d: Data| {
            let v = d.as_int().unwrap_or(0);
            if v % 5 == 0 {
                panic!("refuses multiples of five: {v}");
            }
            Some(d)
        }));
        let sink = g.add(workflows::print_consumer("Out"));
        g.connect(src, OUTPUT, picky, INPUT).unwrap();
        g.connect(picky, OUTPUT, sink, INPUT).unwrap();
        let r = run_with_options(
            &g,
            RunInput::Iterations(10),
            &dyn_mapping(2, 4),
            OutputSink::new(),
            &RunOptions {
                fault_policy: FaultPolicy::DeadLetter { max_attempts: 1 },
                task_timeout: None,
            },
        )
        .unwrap();
        // 0 and 5 dead-lettered; the other eight delivered.
        assert_eq!(r.lines().len(), 8, "{:?}", r.lines());
        assert_eq!(r.dead_letters.len(), 2);
        assert_eq!(r.fault_stats.dead_letters, 2);
    }

    #[test]
    fn hung_task_times_out_and_worker_is_replaced() {
        // One datum hangs far past the timeout; under DeadLetter the task
        // is abandoned, its worker detached and replaced, and the rest of
        // the stream completes.
        let mut g = WorkflowGraph::new("w");
        let src = g.add(ProducerPE::new("Numbers", |i| Some(Data::from(i as i64))));
        let slowpoke = g.add(IterativePE::new("Slowpoke", |d: Data| {
            if d.as_int().unwrap_or(0) == 3 {
                std::thread::sleep(Duration::from_millis(400));
            }
            Some(d)
        }));
        let sink = g.add(workflows::print_consumer("Out"));
        g.connect(src, OUTPUT, slowpoke, INPUT).unwrap();
        g.connect(slowpoke, OUTPUT, sink, INPUT).unwrap();
        let r = run_with_options(
            &g,
            RunInput::Iterations(8),
            &Mapping::Dynamic(DynamicConfig {
                initial_workers: 1,
                max_workers: 4,
                autoscale: false,
                scale_threshold: 4,
            }),
            OutputSink::new(),
            &RunOptions {
                fault_policy: FaultPolicy::DeadLetter { max_attempts: 1 },
                task_timeout: Some(Duration::from_millis(40)),
            },
        )
        .unwrap();
        assert_eq!(r.dead_letters.len(), 1, "{:?}", r.dead_letters);
        assert_eq!(r.dead_letters[0].pe, "Slowpoke1");
        assert_eq!(r.dead_letters[0].datum, Some(Data::from(3i64)));
        assert!(r.dead_letters[0].error.contains("timed out"));
        assert_eq!(r.fault_stats.task_timeouts, 1);
        assert_eq!(r.fault_stats.worker_replacements, 1);
        // The other seven datums were delivered.
        assert_eq!(r.lines().len(), 7, "{:?}", r.lines());
    }

    #[test]
    fn hung_task_fails_fast_with_typed_timeout() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(100));
        let hang = g.add(IterativePE::new("Hang", |_d: Data| {
            std::thread::sleep(Duration::from_millis(300));
            None
        }));
        g.connect(src, OUTPUT, hang, INPUT).unwrap();
        let err = run_with_options(
            &g,
            RunInput::Iterations(1),
            &dyn_mapping(1, 2),
            OutputSink::new(),
            &RunOptions {
                fault_policy: FaultPolicy::FailFast,
                task_timeout: Some(Duration::from_millis(30)),
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, GraphError::TaskTimedOut { ref pe, .. } if pe == "Hang1"),
            "{err:?}"
        );
    }
}
