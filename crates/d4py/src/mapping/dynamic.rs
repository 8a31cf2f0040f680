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
//! active worker exceeds a threshold, one more worker wakes on a warm pool
//! thread (`mapping/threads.rs`), up to `max_workers`.
//!
//! Nothing polls. A worker blocks on the broker's condvar until a task
//! arrives or the run is over; the autoscaler blocks on a second condvar,
//! woken by a submit that takes the queue past `scale_threshold × active`
//! and by the end of the run. Only with a task timeout set does it also
//! wake at the next task's deadline.
//!
//! Fault model: every PE invocation is a `Plan::step` under the run's
//! supervisor (`catch_unwind` + the run's [`FaultPolicy`]).
//! With a per-task timeout set, the autoscaler thread doubles as a task
//! supervisor: a task still running past the budget is *abandoned* (its
//! late completion is discarded), the hung worker is detached, keeping its
//! pool thread, and a fresh worker takes its place — the same machinery a
//! scale-up uses. The abandoned task is then retried, dead-lettered, or
//! fails the run, per policy. A worker hung forever still delays the end
//! of the run, but the stream keeps flowing on its replacement in the
//! meantime (bounded stragglers — the common chaos case — fully recover).

use crate::data::Data;
use crate::error::GraphError;
use crate::fault::FaultPolicy;
use crate::graph::within_max_ranks;
use crate::lock;
use crate::mapping::enact::{Call, Local, Plan};
use crate::mapping::{threads, DynamicConfig, RunInput};
use crate::pe::{Context, PortSpec, PE};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What a task does; cloneable so the timeout supervisor can requeue it.
#[derive(Clone)]
struct Work {
    node: usize,
    /// The root feed's iteration; `None` for a delivery, which runs at
    /// the worker's count for the node.
    iteration: Option<u64>,
    /// (input-port index, datum); `None` drives a producer once.
    input: Option<(usize, Data)>,
}

/// One unit of work in the broker queue.
#[derive(Clone)]
struct Task {
    /// Unique per run; keys the abandoned-task set.
    id: u64,
    /// Timed-out attempts so far (timeout retries requeue with +1).
    attempts: u32,
    work: Work,
}

/// What a worker is executing right now, visible to the timeout supervisor.
struct ActiveTask {
    task: Task,
    started: Instant,
}

/// The broker's queue and the wait state that goes with it, under one lock.
struct Queue {
    tasks: VecDeque<Task>,
    /// Workers blocked in `pop`: `submit` notifies only while one is.
    idle: usize,
    /// The run finished or failed; every waiter returns.
    done: bool,
    /// Depth past which a submit wakes the autoscaler
    /// (`scale_threshold × active`); `usize::MAX` while it need not hear.
    scale_above: usize,
}

/// The simulated Redis broker: FIFO queue + in-flight accounting.
struct Broker {
    queue: Mutex<Queue>,
    /// Workers wait here for a task or the end of the run.
    available: Condvar,
    /// The autoscaler waits here for a scale-up or the end of the run.
    wake: Condvar,
    in_flight: AtomicUsize,
    failure: Mutex<Option<GraphError>>,
    next_id: AtomicU64,
    /// Tasks the timeout supervisor gave up waiting for; the worker that
    /// eventually finishes one discards its results.
    abandoned: Mutex<HashSet<u64>>,
}

impl Broker {
    fn new() -> Self {
        Broker {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                idle: 0,
                done: false,
                scale_above: usize::MAX,
            }),
            available: Condvar::new(),
            wake: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            failure: Mutex::new(None),
            next_id: AtomicU64::new(0),
            abandoned: Mutex::new(HashSet::new()),
        }
    }

    fn submit(&self, attempts: u32, work: Work) {
        let task = Task {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            attempts,
            work,
        };
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let mut q = lock(&self.queue);
        q.tasks.push_back(task);
        if q.idle > 0 {
            self.available.notify_one();
        }
        if q.tasks.len() > q.scale_above {
            // One wake-up per crossing: the autoscaler re-arms it.
            q.scale_above = usize::MAX;
            self.wake.notify_one();
        }
    }

    /// Block until there is a task; `None` once the run is done.
    fn pop(&self) -> Option<Task> {
        let mut q = lock(&self.queue);
        loop {
            if q.done {
                return None;
            }
            if let Some(t) = q.tasks.pop_front() {
                return Some(t);
            }
            q.idle += 1;
            q = self.available.wait(q).unwrap_or_else(PoisonError::into_inner);
            q.idle -= 1;
        }
    }

    /// Called after fully accounting for one task (children already
    /// pushed). When the last task completes, the run is done.
    fn finish_one(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.finish();
        }
    }

    /// Abort the run: record the first failure and release all waiters.
    fn fail(&self, err: GraphError) {
        let mut f = lock(&self.failure);
        if f.is_none() {
            *f = Some(err);
        }
        drop(f);
        self.finish();
    }

    /// Mark the run done and wake every waiter, under the queue lock so
    /// that no waiter can check `done` and then miss the notification.
    fn finish(&self) {
        let mut q = lock(&self.queue);
        q.done = true;
        self.available.notify_all();
        self.wake.notify_all();
    }
}

/// A PE whose every process attempt restarts its worker's timeout clock.
struct Clocked<'a> {
    pe: &'a mut dyn PE,
    slot: &'a Mutex<Option<ActiveTask>>,
}

impl PE for Clocked<'_> {
    fn ports(&self) -> PortSpec {
        self.pe.ports()
    }

    fn process(&mut self, input: Option<(&str, Data)>, ctx: &mut Context<'_>) {
        if let Some(a) = lock(self.slot).as_mut() {
            a.started = Instant::now();
        }
        self.pe.process(input, ctx);
    }
}

/// What every worker of one run shares.
struct Shared<'a> {
    plan: &'a Plan<'a>,
    broker: Broker,
    /// Per-worker execution slots for the timeout supervisor; written
    /// only when a task timeout is set.
    slots: Vec<Mutex<Option<ActiveTask>>>,
    /// Detach flags: a detached worker retires after its current task.
    detached: Vec<AtomicBool>,
    watched: bool,
}

impl Shared<'_> {
    /// Worker `w`: pull tasks until the run is done (or `w` is detached),
    /// then flush its PE instances' teardowns.
    fn work(&self, w: usize) -> Result<(), GraphError> {
        let (plan, broker) = (self.plan, &self.broker);
        let mut local = Local::new(plan.nodes.len());
        loop {
            if self.watched && self.detached[w].load(Ordering::SeqCst) {
                break;
            }
            let Some(task) = broker.pop() else { break };
            if self.watched {
                *lock(&self.slots[w]) = Some(ActiveTask {
                    task: task.clone(),
                    started: Instant::now(),
                });
            }
            let Work { node, iteration, input } = task.work;
            let iteration = iteration.unwrap_or(local.counts[node]);
            let pe = local.pes[node].get_or_insert_with(|| plan.nodes[node].factory.create());
            let mut clocked;
            let pe: &mut dyn PE = if self.watched {
                clocked = Clocked { pe: pe.as_mut(), slot: &self.slots[w] };
                &mut clocked
            } else {
                pe.as_mut()
            };
            let call = Call::Process(input);
            let outcome = plan.step(node, pe, call, w, iteration, &mut local.emitted);
            if self.watched {
                *lock(&self.slots[w]) = None;
                if lock(&broker.abandoned).remove(&task.id) {
                    // The timeout supervisor already accounted for this
                    // task (requeue / dead-letter / abort) — discard this
                    // late completion; the detach check at the top of the
                    // loop retires the worker.
                    continue;
                }
            }
            match outcome {
                Err(e) => {
                    broker.fail(e);
                    break;
                }
                Ok(done) => local.counts[node] += u64::from(done),
            }
            // Route children before finishing this task, so in-flight
            // never drops to zero while work remains. Grouping
            // degenerates to "any worker" here: the broker has no rank
            // concept (the real Redis mapping shares the restriction for
            // key-partitioned state).
            plan.fan_out(node, &mut local.emitted, |t, d| {
                let input = Some((t.port, d));
                broker.submit(0, Work { node: t.to, iteration: None, input });
            });
            broker.finish_one();
        }
        // Teardown phase: flush terminal aggregates. Teardown emissions
        // are drained *locally* on this worker (the broker has already
        // terminated), which mirrors the real Redis mapping's
        // per-consumer state semantics.
        if lock(&broker.failure).is_none() {
            if let Err(e) = plan.teardown(&mut local, w) {
                broker.fail(e);
            }
        }
        for (n, &count) in local.counts.iter().enumerate() {
            if count > 0 {
                plan.monitor.record(&plan.nodes[n].display, w, count);
            }
        }
        Ok(())
    }

    /// The timeout supervisor's pass over the execution slots: abandon
    /// every task past `timeout`, detach its worker and settle the task
    /// per policy. Returns how many replacement workers to spawn and the
    /// earliest deadline still pending.
    fn reap_overdue(&self, timeout: Duration) -> (usize, Instant) {
        let (broker, supervisor) = (&self.broker, self.plan.supervisor);
        let mut replace = 0;
        let now = Instant::now();
        // A task that starts after this pass is due no earlier than this.
        let mut next = now + timeout;
        for w in 0..self.slots.len() {
            let mut slot = lock(&self.slots[w]);
            let Some(started) = slot.as_ref().map(|a| a.started) else {
                continue;
            };
            if now.duration_since(started) < timeout {
                next = next.min(started + timeout);
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
            // Detach the hung worker; a fresh one takes its place
            // (autoscaler machinery).
            if !self.detached[w].swap(true, Ordering::SeqCst) {
                replace += 1;
                supervisor.note_worker_replacement();
            }
            let Work { node, input, .. } = &task.work;
            let pe = self.plan.nodes[*node].display.clone();
            let port = input.as_ref().map(|(p, _)| self.plan.nodes[*node].inputs[*p].as_str());
            let timeout_ms = timeout.as_millis() as u64;
            match supervisor.policy() {
                FaultPolicy::FailFast => {
                    broker.fail(GraphError::TaskTimedOut { pe, timeout_ms });
                }
                FaultPolicy::Retry { max_attempts, .. } => {
                    if task.attempts + 1 < (*max_attempts).max(1) {
                        supervisor.note_retry();
                        broker.submit(task.attempts + 1, task.work.clone());
                        broker.finish_one();
                    } else {
                        broker.fail(GraphError::TaskTimedOut { pe, timeout_ms });
                    }
                }
                FaultPolicy::DeadLetter { .. } => {
                    supervisor.dead_letter(
                        &pe,
                        port,
                        input.as_ref().map(|(_, d)| d.clone()),
                        format!("task timed out after {timeout_ms} ms"),
                        task.attempts + 1,
                    );
                    broker.finish_one();
                }
            }
        }
        (replace, next)
    }
}

/// Wait on the broker's `wake` condvar, up to `deadline` if there is one.
fn wait_for<'q>(
    broker: &Broker,
    q: MutexGuard<'q, Queue>,
    deadline: Option<Instant>,
) -> MutexGuard<'q, Queue> {
    match deadline {
        None => broker.wake.wait(q).unwrap_or_else(PoisonError::into_inner),
        Some(at) => {
            let left = at.saturating_duration_since(Instant::now());
            broker
                .wake
                .wait_timeout(q, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0
        }
    }
}

pub(crate) fn execute(
    plan: &Plan,
    input: &RunInput,
    cfg: &DynamicConfig,
    task_timeout: Option<Duration>,
) -> Result<(), GraphError> {
    if cfg.initial_workers == 0 || cfg.max_workers < cfg.initial_workers {
        return Err(GraphError::InvalidProcessCount {
            requested: cfg.initial_workers,
            minimum: 1,
        });
    }
    within_max_ranks(cfg.max_workers)?;
    let watched = task_timeout.is_some();
    let slots = if watched { cfg.max_workers } else { 0 };
    let shared = Shared {
        plan,
        broker: Broker::new(),
        slots: (0..slots).map(|_| Mutex::new(None)).collect(),
        detached: (0..slots).map(|_| AtomicBool::new(false)).collect(),
        watched,
    };
    let broker = &shared.broker;

    // Seed the queue from the root feed.
    for (node, iteration, input) in plan.feed(input) {
        broker.submit(0, Work { node, iteration: Some(iteration), input });
    }
    if broker.in_flight.load(Ordering::SeqCst) == 0 {
        return Ok(()); // nothing to do
    }

    threads::scope(|scope| {
        let shared = &shared;
        let mut handles = Vec::new();
        // Workers start lazily: the initial ones now, one more per
        // scale-up or timeout replacement, never more than `max_workers`.
        let spawn = |handles: &mut Vec<_>| {
            let w = handles.len();
            handles.push(scope.spawn(move || shared.work(w)));
        };
        for _ in 0..cfg.initial_workers {
            spawn(&mut handles);
        }

        // Autoscaler + task supervisor: runs on this thread, asleep until
        // a submit takes the queue past `scale_threshold × active`, a task
        // deadline passes (only with a timeout set) or the run ends. Each
        // wake-up provisions at most one worker.
        let mut deadline = task_timeout.map(|t| Instant::now() + t);
        let mut q = lock(&broker.queue);
        while !q.done {
            let scale_at = |active: usize| {
                if cfg.autoscale && active < cfg.max_workers {
                    cfg.scale_threshold.saturating_mul(active)
                } else {
                    usize::MAX
                }
            };
            let scale_up = q.tasks.len() > scale_at(handles.len());
            let due = deadline.is_some_and(|at| Instant::now() >= at);
            if scale_up || due {
                drop(q);
                if scale_up {
                    spawn(&mut handles);
                }
                if let (true, Some(timeout)) = (due, task_timeout) {
                    let (replace, next) = shared.reap_overdue(timeout);
                    for _ in 0..replace {
                        if handles.len() < cfg.max_workers {
                            spawn(&mut handles);
                        }
                    }
                    deadline = Some(next);
                }
                q = lock(&broker.queue);
                if q.done {
                    break;
                }
            }
            q.scale_above = scale_at(handles.len());
            q = wait_for(broker, q, deadline);
        }
        drop(q);

        handles.into_iter().try_for_each(super::joined)
    })?;
    if let Some(err) = lock(&shared.broker.failure).take() {
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
    fn fixed_pool_never_spawns_past_its_initial_workers() {
        // Workers are spawned lazily: without autoscaling (and without a
        // task timeout to replace hung ones) only the initial two exist,
        // however deep the queue gets.
        let fixed = Mapping::Dynamic(DynamicConfig {
            initial_workers: 2,
            max_workers: 8,
            autoscale: false,
            scale_threshold: 1,
        });
        let r = run(&workflows::isprime_graph(), RunInput::Iterations(200), &fixed).unwrap();
        let workers: std::collections::HashSet<usize> =
            r.counts.keys().map(|(_, w)| *w).collect();
        assert!(!workers.is_empty() && workers.len() <= 2, "{:?}", r.counts);
        assert!(workers.iter().all(|&w| w < 2), "{:?}", r.counts);
    }

    #[test]
    fn autoscaler_stays_within_max_workers() {
        let mut g = WorkflowGraph::new("w");
        let src = g.add(workflows::number_producer(1000));
        let sink = g.add(workflows::print_consumer("S"));
        g.connect(src, OUTPUT, sink, INPUT).unwrap();
        let r = run(&g, RunInput::Iterations(500), &dyn_mapping(1, 3)).unwrap();
        assert!(r.counts.keys().all(|(_, w)| *w < 3), "{:?}", r.counts);
        assert_eq!(r.lines().len(), 500);
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
