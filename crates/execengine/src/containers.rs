//! Simulated container pool (paper §III "Dockerized architecture",
//! "auto-provisioning"; §II-B "cold start latency").
//!
//! The measurable serverless behaviours — cold-start latency on first use,
//! warm reuse afterwards, a bounded pool that provisions on demand — are
//! modelled explicitly so the benches can show them. The default pool is
//! the one every deployment runs: 8 containers, one of them pre-warmed,
//! and a laptop-scale 5 ms cold start for the rest (real Docker cold
//! starts are 100× longer; only the ratio matters for the evaluation
//! shape).
//!
//! A container is a thread. A warm container is a thread parked on its
//! own channel; [`ContainerPool::submit`] hands a job to the idle
//! container released most recently (LIFO). With none idle and headroom
//! left, a new thread starts, sleeps `cold_start` once and runs the job.
//! With the pool full, the job queues and the first container released
//! takes it; `submit` never blocks its caller. A job holds its container
//! through a [`Lease`], which gives the container back when it is
//! released or dropped, a panicking job's included; the thread survives
//! the panic. Dropping the pool ends every thread once its queued jobs
//! have run.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum containers that may exist at once.
    pub max_containers: usize,
    /// Simulated cold-start latency (image pull + boot).
    pub cold_start: Duration,
    /// Containers pre-warmed at pool creation.
    pub prewarmed: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_containers: 8,
            cold_start: Duration::from_millis(5),
            prewarmed: 1,
        }
    }
}

/// Pool statistics (exposed for the E8/E9 benches and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub cold_starts: u64,
    pub warm_hits: u64,
    pub created: u64,
    /// Jobs that queued because every container was busy.
    pub waited: u64,
}

/// What a container runs: one job, handed the lease on its container.
type Job = Box<dyn FnOnce(Lease) + Send>;

/// A job on its way to a container, with the container's own handle: the
/// lease gives that handle back to the pool.
struct Task {
    job: Job,
    cold: bool,
    handle: Handle,
}

/// A container as the pool holds it while idle: its id and the channel
/// its thread is parked on. It is the channel's only sender, so dropping
/// it ends the thread.
struct Handle {
    id: u64,
    tx: Sender<Task>,
}

impl Handle {
    /// Wake the container with `job`.
    fn run(self, job: Job, cold: bool) {
        let tx = self.tx.clone();
        let _ = tx.send(Task {
            job,
            cold,
            handle: self,
        });
    }
}

struct PoolState {
    /// Idle containers; the last one released is on top.
    idle: Vec<Handle>,
    /// Jobs waiting for a container, oldest first.
    queue: VecDeque<Job>,
    total: usize,
    next_id: u64,
    stats: PoolStats,
    /// Set when the pool is dropped: a released container then ends.
    closed: bool,
}

/// The pool state, shared by the pool and every lease.
struct Shared(Mutex<PoolState>);

impl Shared {
    /// The pool state. A poisoned lock is handed on, not re-raised: a run
    /// that panicked must not take the pool down with it.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Give a container back: it takes the oldest queued job, or parks.
    fn release(&self, handle: Handle) {
        let mut st = self.state();
        if let Some(job) = st.queue.pop_front() {
            st.stats.warm_hits += 1;
            drop(st);
            handle.run(job, false);
        } else if !st.closed {
            st.idle.push(handle);
        }
    }
}

/// A running job's hold on its container.
pub(crate) struct Lease {
    shared: Arc<Shared>,
    handle: Option<Handle>,
    id: u64,
    cold: bool,
}

impl Lease {
    /// The container's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether this job paid the container's cold start.
    pub fn cold(&self) -> bool {
        self.cold
    }

    /// Give the container back to the pool now. The job may go on running
    /// on its thread; the container's next job waits for it to return.
    pub fn release(self) {}
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shared.release(handle);
        }
    }
}

/// The container pool.
pub struct ContainerPool {
    config: PoolConfig,
    shared: Arc<Shared>,
}

impl ContainerPool {
    pub fn new(config: PoolConfig) -> Self {
        let shared = Arc::new(Shared(Mutex::new(PoolState {
            idle: Vec::new(),
            queue: VecDeque::new(),
            total: 0,
            next_id: 0,
            stats: PoolStats::default(),
            closed: false,
        })));
        let prewarmed = config.prewarmed.min(config.max_containers);
        let idle = (1..=prewarmed as u64)
            .map(|id| start(id, &shared, Duration::ZERO))
            .collect();
        {
            let mut st = shared.state();
            st.idle = idle;
            st.total = prewarmed;
            st.next_id = prewarmed as u64;
            st.stats.created = prewarmed as u64;
        }
        ContainerPool { config, shared }
    }

    /// Run `job` on a container: a warm one at once, a new one after its
    /// cold start if the pool has headroom, otherwise the first one
    /// released. Never blocks.
    pub(crate) fn submit(&self, job: impl FnOnce(Lease) + Send + 'static) {
        let job: Job = Box::new(job);
        let mut st = self.shared.state();
        if let Some(handle) = st.idle.pop() {
            st.stats.warm_hits += 1;
            drop(st);
            return handle.run(job, false);
        }
        if st.total < self.config.max_containers {
            // Auto-provision: the new thread sleeps the cold start.
            st.total += 1;
            st.next_id += 1;
            st.stats.cold_starts += 1;
            st.stats.created += 1;
            let id = st.next_id;
            drop(st);
            return start(id, &self.shared, self.config.cold_start).run(job, true);
        }
        st.stats.waited += 1;
        st.queue.push_back(job);
    }

    pub fn stats(&self) -> PoolStats {
        self.shared.state().stats
    }

    /// Containers parked and waiting for a job.
    pub fn warm_count(&self) -> usize {
        self.shared.state().idle.len()
    }

    pub fn config(&self) -> &PoolConfig {
        &self.config
    }
}

impl Drop for ContainerPool {
    /// Idle containers end now; busy ones run what is queued, then end.
    fn drop(&mut self) {
        let mut st = self.shared.state();
        st.closed = true;
        let idle = std::mem::take(&mut st.idle);
        drop(st);
        drop(idle);
    }
}

/// Start container `id`'s thread: it sleeps `cold_start`, then runs the
/// jobs sent to its handle until the handle is dropped.
fn start(id: u64, shared: &Arc<Shared>, cold_start: Duration) -> Handle {
    let (tx, rx) = channel::<Task>();
    let shared = shared.clone();
    std::thread::spawn(move || park(rx, &shared, cold_start));
    Handle { id, tx }
}

fn park(rx: Receiver<Task>, shared: &Arc<Shared>, cold_start: Duration) {
    std::thread::sleep(cold_start);
    for Task { job, cold, handle } in rx {
        let lease = Lease {
            shared: shared.clone(),
            id: handle.id,
            handle: Some(handle),
            cold,
        };
        // A panicking job drops its lease while unwinding, which gives
        // the container back; the thread parks again.
        let _ = catch_unwind(AssertUnwindSafe(|| job(lease)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::time::Instant;

    fn fast_pool(max: usize, prewarmed: usize) -> ContainerPool {
        ContainerPool::new(PoolConfig {
            max_containers: max,
            cold_start: Duration::from_millis(5),
            prewarmed,
        })
    }

    /// Submit a job that releases its container at once and reports
    /// `(id, cold)`; wait for the report.
    fn run_one(pool: &ContainerPool) -> (u64, bool) {
        let (tx, rx) = channel();
        pool.submit(move |lease| {
            let seen = (lease.id(), lease.cold());
            lease.release();
            tx.send(seen).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("the job ran")
    }

    /// A job that reports `(id, cold)` on `ran` once it runs, then holds
    /// its container until the returned gate is dropped.
    fn hold(pool: &ContainerPool, ran: &Sender<(u64, bool)>) -> Sender<()> {
        let (gate, wait) = channel::<()>();
        let ran = ran.clone();
        pool.submit(move |lease| {
            ran.send((lease.id(), lease.cold())).unwrap();
            let _ = wait.recv();
        });
        gate
    }

    /// Drop `gate` and wait until its container is parked again.
    fn release(pool: &ContainerPool, gate: Sender<()>) {
        let before = pool.warm_count();
        drop(gate);
        while pool.warm_count() == before {
            std::thread::yield_now();
        }
    }

    #[test]
    fn first_run_is_cold_then_warm() {
        let pool = fast_pool(2, 0);
        let t0 = Instant::now();
        let (id, cold) = run_one(&pool);
        assert!(cold);
        assert!(
            t0.elapsed() >= Duration::from_millis(5),
            "cold start latency"
        );
        assert_eq!(
            run_one(&pool),
            (id, false),
            "released container is reused warm"
        );
        let s = pool.stats();
        assert_eq!((s.cold_starts, s.warm_hits, s.created), (1, 1, 1));
    }

    #[test]
    fn prewarmed_containers_skip_cold_start() {
        let pool = fast_pool(2, 2);
        assert_eq!(pool.warm_count(), 2);
        let (_, cold) = run_one(&pool);
        assert!(!cold);
        assert_eq!(pool.stats().cold_starts, 0);
    }

    /// Idle containers go out last released, first taken.
    #[test]
    fn containers_are_handed_out_lifo() {
        let pool = fast_pool(3, 0);
        let (ran, seen) = channel();
        let mut released = Vec::new();
        // One at a time, so each gate is known to hold the id it reports.
        let held: Vec<_> = (0..3)
            .map(|_| (hold(&pool, &ran), seen.recv().unwrap().0))
            .collect();
        assert_eq!(pool.stats().cold_starts, 3);
        for (gate, id) in held {
            release(&pool, gate);
            released.push(id);
        }
        let (gates, taken): (Vec<_>, Vec<u64>) = (0..3)
            .map(|_| (hold(&pool, &ran), seen.recv().unwrap().0))
            .unzip();
        released.reverse();
        assert_eq!(taken, released);
        drop(gates);
    }

    #[test]
    fn a_panicking_job_gives_its_container_back() {
        let pool = fast_pool(1, 0);
        pool.submit(|_lease| panic!("job boom"));
        assert_eq!(
            run_one(&pool),
            (1, false),
            "the same thread serves the next job"
        );
        assert_eq!(pool.stats().created, 1);
    }

    /// A full pool queues the job without blocking the caller; the first
    /// container released runs it.
    #[test]
    fn a_full_pool_queues_without_blocking() {
        let pool = fast_pool(1, 0);
        let (ran, seen) = channel();
        let gate = hold(&pool, &ran);
        assert_eq!(seen.recv().unwrap(), (1, true));
        let t0 = Instant::now();
        let queued = hold(&pool, &ran);
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "submit returned at once"
        );
        assert_eq!(pool.stats().waited, 1);
        assert!(
            seen.recv_timeout(Duration::from_millis(20)).is_err(),
            "it waits"
        );
        drop(gate);
        assert_eq!(
            seen.recv().unwrap(),
            (1, false),
            "the released container runs it"
        );
        drop(queued);
    }

    #[test]
    fn auto_provisions_up_to_max() {
        let pool = fast_pool(3, 0);
        let (ran, seen) = channel();
        let gates: Vec<_> = (0..4).map(|_| hold(&pool, &ran)).collect();
        for _ in 0..3 {
            assert!(seen.recv().unwrap().1, "three cold starts");
        }
        assert_eq!(pool.stats().created, 3);
        assert_eq!(pool.stats().waited, 1);
        drop(gates);
        assert!(!seen.recv().unwrap().1, "the fourth runs warm");
        while pool.warm_count() < 3 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_submits_are_safe() {
        let pool = Arc::new(fast_pool(4, 0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        run_one(&pool);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.warm_hits + s.cold_starts, 160);
        assert!(s.created <= 4);
    }

    /// Sends its container's id when its thread ends: a thread-local's
    /// destructor runs at thread exit.
    struct OnExit(Sender<u64>, u64);

    impl Drop for OnExit {
        fn drop(&mut self) {
            let _ = self.0.send(self.1);
        }
    }

    thread_local! {
        static EXIT: RefCell<Option<OnExit>> = const { RefCell::new(None) };
    }

    /// A job that marks its thread (its id is sent on `exited` when the
    /// thread ends) and holds its container until the returned gate is
    /// dropped; waits for it to run and returns its container's id.
    fn hold_marked(pool: &ContainerPool, exited: &Sender<u64>) -> (Sender<()>, u64) {
        let (gate, wait) = channel::<()>();
        let (ran, seen) = channel();
        let exited = exited.clone();
        pool.submit(move |lease| {
            EXIT.with(|e| *e.borrow_mut() = Some(OnExit(exited, lease.id())));
            ran.send(lease.id()).unwrap();
            let _ = wait.recv();
        });
        (gate, seen.recv().unwrap())
    }

    /// Dropping the pool ends its threads: an idle one at once, a busy
    /// one after its job and the job queued behind it.
    #[test]
    fn dropping_the_pool_ends_its_threads() {
        let (exited, exits) = channel();
        let pool = fast_pool(1, 1);
        let (gate, id) = hold_marked(&pool, &exited);
        release(&pool, gate);
        drop(pool);
        assert_eq!(
            exits.recv_timeout(Duration::from_secs(5)),
            Ok(id),
            "idle: at once"
        );

        let pool = fast_pool(2, 0);
        let (first, first_id) = hold_marked(&pool, &exited);
        let (second, second_id) = hold_marked(&pool, &exited);
        let (ran, queued) = channel();
        pool.submit(move |lease| ran.send(lease.id()).unwrap());
        assert_eq!(pool.stats().waited, 1);
        drop(pool);
        assert!(
            exits.recv_timeout(Duration::from_millis(20)).is_err(),
            "busy: not yet"
        );
        drop(first);
        assert_eq!(queued.recv_timeout(Duration::from_secs(5)), Ok(first_id));
        assert_eq!(exits.recv_timeout(Duration::from_secs(5)), Ok(first_id));
        drop(second);
        assert_eq!(exits.recv_timeout(Duration::from_secs(5)), Ok(second_id));
    }
}
