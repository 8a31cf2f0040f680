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
//! allocation") is simulated with an autoscaler: while more than
//! [`SCALE_THRESHOLD`] tasks are queued per live worker, one more worker
//! wakes on a warm pool thread (`mapping/threads.rs`), up to `max_workers`.
//!
//! Nothing polls. A worker blocks on the broker's condvar until a task
//! arrives or the run is over; the autoscaler blocks on a second condvar,
//! woken by a submit that takes the queue past `SCALE_THRESHOLD × live`
//! and by the end of the run. Only with a task timeout set does it also
//! wake at the next task's deadline.
//!
//! Fault model: every PE invocation is a `Plan::step` under the run's
//! supervisor (`catch_unwind` + the run's [`FaultPolicy`]). With a
//! per-task timeout set, each worker has one execution slot holding its
//! task, and the autoscaler doubles as a task supervisor. Whoever takes
//! the task out of the slot owns it: the worker after its step, or the
//! supervisor once the task is overdue. The supervisor settles it per
//! policy (retry, dead letter or abort), drops the hung worker's handle
//! and starts a fresh worker; the run joins only the workers still live,
//! so it returns once its tasks settle, whether or not the hung steps ever
//! return. A hung worker that finds its slot empty after its step returns
//! at once: no teardown, no count, and its lines go to a closed sink.
//! Replacements are capped by the [`MAX_RANKS`] workers a run may start,
//! not by `max_workers`, so every run ends: one left with no live worker
//! and no room to start one fails with `TaskTimedOut`. A zero timeout is
//! refused before any worker starts.

use crate::data::Data;
use crate::error::GraphError;
use crate::fault::FaultPolicy;
use crate::graph::{within_max_ranks, MAX_RANKS};
use crate::lock;
use crate::mapping::enact::{Call, Local, Plan};
use crate::mapping::{threads, DynamicConfig};
use crate::pe::{Context, PortSpec, PE};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Queued tasks per live worker past which the autoscaler adds a worker.
const SCALE_THRESHOLD: usize = 8;

/// One unit of work in the broker queue; cloneable so the timeout
/// supervisor can requeue it.
#[derive(Clone)]
struct Task {
    node: usize,
    /// The root feed's iteration; `None` for a delivery, which runs at
    /// the worker's count for the node.
    iteration: Option<u64>,
    /// (input-port index, datum); `None` drives a producer once.
    input: Option<(usize, Data)>,
    /// Timed-out attempts so far (timeout retries requeue with +1).
    attempts: u32,
}

/// What a worker is executing right now, visible to the timeout supervisor.
struct ActiveTask {
    task: Task,
    started: Instant,
}

/// One worker's execution slot: whoever takes the task out owns it.
type Slot = Mutex<Option<ActiveTask>>;

/// The broker's queue and the wait state that goes with it, under one lock.
struct Queue {
    tasks: VecDeque<Task>,
    /// Workers blocked in `pop`: `submit` notifies only while one is.
    idle: usize,
    /// The run finished or failed; every waiter returns.
    done: bool,
    /// Depth past which a submit wakes the autoscaler
    /// (`SCALE_THRESHOLD × live`); `usize::MAX` while it need not hear.
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
        }
    }

    fn submit(&self, task: Task) {
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
    slot: &'a Slot,
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
struct Shared {
    plan: Arc<Plan>,
    broker: Broker,
    /// One execution slot per worker the run may start, for the timeout
    /// supervisor; empty when no task timeout is set.
    slots: Vec<Slot>,
}

impl Shared {
    /// Worker `w`: pull tasks until the run is done, then flush its PE
    /// instances' teardowns; or until the timeout supervisor abandons its
    /// task, then return at once.
    fn work(&self, w: usize) -> Result<(), GraphError> {
        let (plan, broker) = (&*self.plan, &self.broker);
        let slot = self.slots.get(w);
        let mut local = Local::new(plan.nodes.len());
        while let Some(task) = broker.pop() {
            if let Some(slot) = slot {
                *lock(slot) = Some(ActiveTask {
                    task: task.clone(),
                    started: Instant::now(),
                });
            }
            let Task { node, iteration, input, .. } = task;
            let iteration = iteration.unwrap_or(local.counts[node]);
            let pe = local.pes[node].get_or_insert_with(|| plan.nodes[node].factory.create());
            let mut clocked;
            let pe: &mut dyn PE = match slot {
                Some(slot) => {
                    clocked = Clocked { pe: pe.as_mut(), slot };
                    &mut clocked
                }
                None => pe.as_mut(),
            };
            let call = Call::Process(input);
            let outcome = plan.step(node, pe, call, w, iteration, &mut local.emitted);
            if slot.is_some_and(|slot| lock(slot).take().is_none()) {
                // The timeout supervisor took the task and settled it
                // (requeue / dead-letter / abort), and a replacement took
                // this worker's place: discard this late step and retire,
                // with no teardown and no count.
                return Ok(());
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
                broker.submit(Task { node: t.to, iteration: None, input, attempts: 0 });
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

    /// The timeout supervisor's pass over the execution slots: take every
    /// task past `timeout` out of its slot, settle it per policy and hand
    /// its worker and timeout error to `retired`, since that worker
    /// retires. Returns the earliest deadline still pending.
    fn reap_overdue(
        &self,
        timeout: Duration,
        mut retired: impl FnMut(usize, GraphError),
    ) -> Instant {
        let (broker, supervisor) = (&self.broker, &self.plan.supervisor);
        let now = Instant::now();
        // A task that starts after this pass is due no earlier than this.
        let mut next = now + timeout;
        for (w, slot) in self.slots.iter().enumerate() {
            let mut slot = lock(slot);
            let Some(due) = slot.as_ref().map(|a| a.started + timeout) else {
                continue;
            };
            if now < due {
                next = next.min(due);
                continue;
            }
            let Some(ActiveTask { task, .. }) = slot.take() else { continue };
            drop(slot);
            supervisor.note_task_timeout();
            supervisor.note_fault();
            let n = &self.plan.nodes[task.node];
            let port = task.input.as_ref().map(|(p, _)| n.inputs[*p].as_str());
            let timeout_ms = timeout.as_millis() as u64;
            let timed_out = GraphError::TaskTimedOut { pe: n.display.clone(), timeout_ms };
            match supervisor.policy() {
                FaultPolicy::Retry { max_attempts, .. }
                    if task.attempts + 1 < (*max_attempts).max(1) =>
                {
                    supervisor.note_retry();
                    broker.submit(Task { attempts: task.attempts + 1, ..task });
                    broker.finish_one();
                }
                FaultPolicy::FailFast | FaultPolicy::Retry { .. } => broker.fail(timed_out.clone()),
                FaultPolicy::DeadLetter { .. } => {
                    let datum = task.input.map(|(_, d)| d);
                    let error = format!("task timed out after {timeout_ms} ms");
                    supervisor.dead_letter(&n.display, port, datum, error, task.attempts + 1);
                    broker.finish_one();
                }
            }
            retired(w, timed_out);
        }
        next
    }
}

pub(crate) fn execute(
    plan: &Arc<Plan>,
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
    if task_timeout == Some(Duration::ZERO) {
        return Err(GraphError::ZeroTaskTimeout);
    }
    let slots = if task_timeout.is_some() { MAX_RANKS } else { 0 };
    let shared = Arc::new(Shared {
        plan: plan.clone(),
        broker: Broker::new(),
        slots: (0..slots).map(|_| Mutex::new(None)).collect(),
    });
    let broker = &shared.broker;

    // Seed the queue from the root feed.
    for (node, iteration, input) in plan.feed() {
        broker.submit(Task { node, iteration: Some(iteration), input, attempts: 0 });
    }
    if broker.in_flight.load(Ordering::SeqCst) == 0 {
        return Ok(()); // nothing to do
    }

    // Workers start lazily: the initial ones now, then one per scale-up
    // or timeout replacement, never more than `MAX_RANKS`. A retired
    // worker's handle is dropped: the run never waits for its step.
    let mut handles = Vec::new();
    let spawn = |handles: &mut Vec<_>| {
        let (w, shared) = (handles.len(), shared.clone());
        handles.push(Some(threads::spawn(move || shared.work(w))));
    };
    for _ in 0..cfg.initial_workers {
        spawn(&mut handles);
    }
    // Started workers less those retired from an abandoned task without a
    // replacement; `max_workers` caps only these.
    let mut live = cfg.initial_workers;

    // Autoscaler + task supervisor: runs on this thread, asleep until a
    // submit takes the queue past `SCALE_THRESHOLD × live`, a task
    // deadline passes (only with a timeout set) or the run ends. Each
    // wake-up provisions at most one worker, beside the replacements.
    let mut deadline = task_timeout.map(|t| Instant::now() + t);
    let mut q = lock(&broker.queue);
    while !q.done {
        let scale_at = |live: usize, started: usize| {
            if live < cfg.max_workers && started < MAX_RANKS {
                SCALE_THRESHOLD * live
            } else {
                usize::MAX
            }
        };
        let scale_up = q.tasks.len() > scale_at(live, handles.len());
        let due = deadline.is_some_and(|at| Instant::now() >= at);
        if scale_up || due {
            drop(q);
            if scale_up {
                spawn(&mut handles);
                live += 1;
            }
            if let (true, Some(timeout)) = (due, task_timeout) {
                let next = shared.reap_overdue(timeout, |w, timed_out| {
                    handles[w] = None;
                    if handles.len() < MAX_RANKS {
                        spawn(&mut handles);
                        plan.supervisor.note_worker_replacement();
                        return;
                    }
                    // No room to replace the retired worker: a run left
                    // with no live worker and work to do fails.
                    live -= 1;
                    if live == 0 && broker.in_flight.load(Ordering::SeqCst) > 0 {
                        broker.fail(timed_out);
                    }
                });
                deadline = Some(next);
            }
            q = lock(&broker.queue);
            if q.done {
                break;
            }
        }
        q.scale_above = scale_at(live, handles.len());
        q = match deadline {
            None => broker.wake.wait(q).unwrap_or_else(PoisonError::into_inner),
            Some(at) => {
                let left = at.saturating_duration_since(Instant::now());
                let woken = broker.wake.wait_timeout(q, left);
                woken.unwrap_or_else(PoisonError::into_inner).0
            }
        };
    }
    drop(q);

    // A failed run may leave workers mid-step: retire them as well, so the
    // failure returns without waiting for a step that may never return.
    for (w, slot) in shared.slots.iter().enumerate() {
        if lock(slot).take().is_some() {
            handles[w] = None;
        }
    }
    let joined = handles.into_iter().flatten().map(super::joined);
    joined.fold(Ok(()), Result::and)?;
    if let Some(err) = lock(&broker.failure).take() {
        return Err(err);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::error::GraphError;
    use crate::mapping::{run, run_with_options, DynamicConfig, Mapping, RunInput, RunResult};
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
        })
    }

    /// `items` data through one root PE that sleeps `sleep_ms` on each,
    /// under `fault_policy` and a `timeout_ms` task timeout. The run goes
    /// on its own thread, and a run that takes past 10 s fails the test
    /// instead of hanging the suite.
    fn run_slow(
        items: i64,
        sleep_ms: u64,
        mapping: Mapping,
        fault_policy: FaultPolicy,
        timeout_ms: u64,
    ) -> Result<RunResult, GraphError> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut g = WorkflowGraph::new("w");
            g.add(IterativePE::new("Slow", move |d: Data| {
                std::thread::sleep(Duration::from_millis(sleep_ms));
                Some(d)
            }));
            let input = RunInput::Data((0..items).map(Data::from).collect());
            let task_timeout = Some(Duration::from_millis(timeout_ms));
            let options = RunOptions { fault_policy, task_timeout };
            let _ = tx.send(run_with_options(&g, input, &mapping, OutputSink::new(), &options));
        });
        rx.recv_timeout(Duration::from_secs(10)).expect("the run ends within 10 s")
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
            &dyn_mapping(0, 0),
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
        // A fixed pool is `initial_workers == max_workers`: without a task
        // timeout to replace hung workers only the initial two exist,
        // however deep the queue gets.
        let fixed = dyn_mapping(2, 2);
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
        // is abandoned, its worker retired and replaced (a fixed pool of
        // one does not cap replacements), and the rest of the stream
        // completes.
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
            &dyn_mapping(1, 1),
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

    /// The default pool under DeadLetter with every task timing out: each
    /// abandoned task's worker is replaced, so the run ends with every
    /// datum dead-lettered.
    #[test]
    fn default_pool_dead_letters_every_timed_out_task_and_ends() {
        let dead_letter = FaultPolicy::DeadLetter { max_attempts: 1 };
        let r = run_slow(20, 20, Mapping::Dynamic(DynamicConfig::default()), dead_letter, 5).unwrap();
        let mut datums: Vec<_> =
            r.dead_letters.iter().filter_map(|d| d.datum.as_ref()?.as_int()).collect();
        datums.sort_unstable();
        assert_eq!(datums, (0..20).collect::<Vec<_>>());
        assert_eq!(r.fault_stats.task_timeouts, r.dead_letters.len() as u64);
    }

    /// A timed run returns once its tasks settle, not once its hung steps
    /// return: the one item that sleeps 2 s is dead-lettered and its
    /// worker replaced, and the run ends well before the sleep does.
    #[test]
    fn a_timed_run_returns_once_its_tasks_settle() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut g = WorkflowGraph::new("w");
            g.add(IterativePE::new("Slow", |d: Data| {
                if d.as_int() == Some(3) {
                    std::thread::sleep(Duration::from_secs(2));
                }
                Some(d)
            }));
            let input = RunInput::Data((0..10).map(Data::from).collect());
            let options = RunOptions {
                fault_policy: FaultPolicy::DeadLetter { max_attempts: 1 },
                task_timeout: Some(Duration::from_millis(5)),
            };
            let mapping = Mapping::Dynamic(DynamicConfig::default());
            let started = std::time::Instant::now();
            let r = run_with_options(&g, input, &mapping, OutputSink::new(), &options);
            let _ = tx.send((r, started.elapsed()));
        });
        let (r, took) = rx.recv_timeout(Duration::from_secs(10)).expect("the run ends");
        let r = r.unwrap();
        assert!(took < Duration::from_secs(1), "the run took {took:?}");
        assert_eq!(r.dead_letters.len(), 1, "{:?}", r.dead_letters);
        assert_eq!(r.dead_letters[0].datum, Some(Data::from(3i64)));
        assert_eq!(r.fault_stats.task_timeouts, 1);
        assert_eq!(r.fault_stats.worker_replacements, 1);
    }

    /// A timed run that fails returns at once, not once the steps still in
    /// flight return: one worker's datum panics under FailFast while the
    /// other's step sleeps 5 s, far inside its 2 s timeout.
    #[test]
    fn a_failed_timed_run_does_not_wait_for_a_step_in_flight() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut g = WorkflowGraph::new("w");
            g.add(IterativePE::new("Mixed", |d: Data| {
                if d.as_int() == Some(1) {
                    std::thread::sleep(Duration::from_secs(5));
                    return Some(d);
                }
                std::thread::sleep(Duration::from_millis(20));
                panic!("intentional failure beside a long step");
            }));
            let input = RunInput::Data((0..2).map(Data::from).collect());
            let options = RunOptions {
                fault_policy: FaultPolicy::FailFast,
                task_timeout: Some(Duration::from_secs(2)),
            };
            let started = std::time::Instant::now();
            let r = run_with_options(&g, input, &dyn_mapping(2, 2), OutputSink::new(), &options);
            let _ = tx.send((r.map(|_| ()), started.elapsed()));
        });
        let (r, took) = rx.recv_timeout(Duration::from_secs(10)).expect("the run ends");
        assert!(matches!(r, Err(GraphError::WorkerPanicked(_))), "{r:?}");
        assert!(took < Duration::from_secs(1), "the run took {took:?}");
    }

    /// A task timing out on every attempt retires one worker per attempt:
    /// once the run has started `MAX_RANKS` workers and has none left, it
    /// fails with the typed timeout.
    #[test]
    fn run_past_max_ranks_replacements_fails_with_typed_timeout() {
        let retry = FaultPolicy::Retry { max_attempts: 1_000, backoff: Duration::ZERO };
        let err = run_slow(1, 30, dyn_mapping(1, 1), retry, 5).unwrap_err();
        assert_eq!(err, GraphError::TaskTimedOut { pe: "Slow0".into(), timeout_ms: 5 });
    }

    /// A zero timeout, which every task would exceed, is refused.
    #[test]
    fn zero_task_timeout_is_refused() {
        let dead_letter = FaultPolicy::DeadLetter { max_attempts: 1 };
        let err = run_slow(3, 0, Mapping::Dynamic(DynamicConfig::default()), dead_letter, 0).unwrap_err();
        assert_eq!(err, GraphError::ZeroTaskTimeout);
    }
}
