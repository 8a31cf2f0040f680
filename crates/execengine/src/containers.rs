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
//! The pool is bookkeeping only: container ids, warm or cold, the cap and
//! the queue. It starts no thread; each job runs on d4py's pool of parked
//! threads (`d4py::mapping::threads`), which the mappings' ranks and
//! workers share. [`ContainerPool::submit`] hands a job the idle container
//! released most recently (LIFO). With none idle and headroom left, it
//! provisions a new id, and the job sleeps `cold_start` before it runs.
//! With the pool full, the job queues and the first container released
//! takes it; `submit` never blocks its caller. A job holds its container
//! through a [`Lease`], which gives the container back when it is
//! released or dropped, a panicking job's included. Pool threads outlive
//! the pool: dropping it ends no thread, and a job still queued runs when
//! a container is released.

use d4py::mapping::threads;
use std::collections::VecDeque;
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

/// What a container runs: one job, handed the lease on its container; it
/// returns what to do once its pool thread is idle again.
type Job = Box<dyn FnOnce(Lease) -> threads::Then + Send>;

struct PoolState {
    /// Idle container ids; the last one released is on top.
    idle: Vec<u64>,
    /// Jobs waiting for a container, oldest first.
    queue: VecDeque<Job>,
    total: usize,
    stats: PoolStats,
}

/// The pool state, shared by the pool and every lease.
struct Shared {
    state: Mutex<PoolState>,
    config: PoolConfig,
}

impl Shared {
    /// The pool state. A poisoned lock is handed on, not re-raised: a run
    /// that panicked must not take the pool down with it.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Give container `id` back: it takes the oldest queued job, or idles.
    fn release(self: &Arc<Self>, id: u64) {
        let mut st = self.state();
        match st.queue.pop_front() {
            Some(job) => {
                st.stats.warm_hits += 1;
                drop(st);
                self.run(job, id, false);
            }
            None => st.idle.push(id),
        }
    }

    /// Run `job` on container `id`, on a pool thread; a cold one sleeps
    /// the cold start first.
    fn run(self: &Arc<Self>, job: Job, id: u64, cold: bool) {
        let lease = Lease {
            shared: self.clone(),
            id,
            cold,
        };
        let cold_start = self.config.cold_start;
        threads::start(move || {
            if cold {
                std::thread::sleep(cold_start);
            }
            // A panicking job drops its lease while unwinding, which gives
            // the container back.
            job(lease)
        });
    }
}

/// A running job's hold on its container.
pub(crate) struct Lease {
    shared: Arc<Shared>,
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
    /// on its thread; the container's next job runs beside it.
    pub fn release(self) {}
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.shared.release(self.id);
    }
}

/// The container pool.
pub struct ContainerPool {
    shared: Arc<Shared>,
}

impl ContainerPool {
    /// A pool whose first `prewarmed` ids start warm; no thread starts.
    pub fn new(config: PoolConfig) -> Self {
        let prewarmed = config.prewarmed.min(config.max_containers);
        let state = PoolState {
            idle: (1..=prewarmed as u64).collect(),
            queue: VecDeque::new(),
            total: prewarmed,
            stats: PoolStats {
                created: prewarmed as u64,
                ..PoolStats::default()
            },
        };
        ContainerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                config,
            }),
        }
    }

    /// Run `job` on a container: a warm one at once, a new one after its
    /// cold start if the pool has headroom, otherwise the first one
    /// released. What `job` returns runs once its pool thread is idle
    /// again. Never blocks.
    pub(crate) fn submit<R>(&self, job: impl FnOnce(Lease) -> R + Send + 'static)
    where
        R: FnOnce() + Send + 'static,
    {
        let job: Job = Box::new(move |lease| Box::new(job(lease)));
        let mut st = self.shared.state();
        if let Some(id) = st.idle.pop() {
            st.stats.warm_hits += 1;
            drop(st);
            return self.shared.run(job, id, false);
        }
        if st.total < self.shared.config.max_containers {
            // Auto-provision: the new container's first job sleeps the
            // cold start.
            st.total += 1;
            st.stats.cold_starts += 1;
            st.stats.created += 1;
            let id = st.total as u64;
            drop(st);
            return self.shared.run(job, id, true);
        }
        st.stats.waited += 1;
        st.queue.push_back(job);
    }

    pub fn stats(&self) -> PoolStats {
        self.shared.state().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Sender};
    use std::time::Instant;

    fn fast_pool(max: usize, prewarmed: usize) -> ContainerPool {
        ContainerPool::new(PoolConfig {
            max_containers: max,
            cold_start: Duration::from_millis(5),
            prewarmed,
        })
    }

    fn idle(pool: &ContainerPool) -> usize {
        pool.shared.state().idle.len()
    }

    /// Submit a job that releases its container at once and reports
    /// `(id, cold)`; wait for the report.
    fn run_one(pool: &ContainerPool) -> (u64, bool) {
        let (tx, rx) = channel();
        pool.submit(move |lease| {
            let seen = (lease.id(), lease.cold());
            lease.release();
            tx.send(seen).unwrap();
            || ()
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
            || ()
        });
        gate
    }

    /// Drop `gate` and wait until its container is idle again.
    fn release(pool: &ContainerPool, gate: Sender<()>) {
        let before = idle(pool);
        drop(gate);
        while idle(pool) == before {
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
        assert_eq!(idle(&pool), 2);
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
        pool.submit(|_lease| -> fn() { panic!("job boom") });
        assert_eq!(
            run_one(&pool),
            (1, false),
            "the container serves the next job warm"
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
        while idle(&pool) < 3 {
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

    /// What a job returns runs once its thread is idle again, after the
    /// job's container is back in the pool.
    #[test]
    fn a_job_runs_its_return_once_its_container_is_back() {
        let pool = Arc::new(fast_pool(1, 0));
        let (tx, rx) = channel();
        let p = pool.clone();
        pool.submit(move |lease| {
            drop(lease);
            move || tx.send(idle(&p)).unwrap()
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(1));
    }

    /// Dropping the pool leaves a queued job to run when the busy
    /// container is released.
    #[test]
    fn dropping_the_pool_still_runs_its_queued_jobs() {
        let pool = fast_pool(1, 0);
        let (ran, seen) = channel();
        let gate = hold(&pool, &ran);
        assert_eq!(seen.recv().unwrap(), (1, true));
        let queued = hold(&pool, &ran);
        drop(pool);
        drop(gate);
        assert_eq!(seen.recv_timeout(Duration::from_secs(5)), Ok((1, false)));
        drop(queued);
    }
}
