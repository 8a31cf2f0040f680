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

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

/// A provisioned container handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    pub id: u64,
    /// How many executions this container has served.
    pub uses: u64,
}

/// Pool statistics (exposed for the E8/E9 benches and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub cold_starts: u64,
    pub warm_hits: u64,
    pub created: u64,
    pub waited: u64,
}

struct PoolState {
    warm: Vec<Container>,
    total: usize,
    next_id: u64,
    stats: PoolStats,
}

/// The container pool.
pub struct ContainerPool {
    config: PoolConfig,
    state: Mutex<PoolState>,
    released: Condvar,
}

impl ContainerPool {
    pub fn new(config: PoolConfig) -> Self {
        let mut warm = Vec::new();
        let mut next_id = 0;
        for _ in 0..config.prewarmed.min(config.max_containers) {
            next_id += 1;
            warm.push(Container { id: next_id, uses: 0 });
        }
        let total = warm.len();
        ContainerPool {
            config,
            state: Mutex::new(PoolState {
                warm,
                total,
                next_id,
                stats: PoolStats {
                    created: total as u64,
                    ..PoolStats::default()
                },
            }),
            released: Condvar::new(),
        }
    }

    /// The pool state. A poisoned lock is handed on, not re-raised: a run
    /// that panicked must not take the pool down with it.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire a container: a warm one immediately, a cold-started new one
    /// if the pool has headroom, otherwise block until a release. Returns
    /// `(container, was_cold_start)`.
    pub fn acquire(&self) -> (Container, bool) {
        let mut st = self.state();
        loop {
            if let Some(c) = st.warm.pop() {
                st.stats.warm_hits += 1;
                return (c, false);
            }
            if st.total < self.config.max_containers {
                // Auto-provision: cold start outside the lock.
                st.total += 1;
                st.next_id += 1;
                st.stats.cold_starts += 1;
                st.stats.created += 1;
                let id = st.next_id;
                drop(st);
                std::thread::sleep(self.config.cold_start);
                return (Container { id, uses: 0 }, true);
            }
            st.stats.waited += 1;
            st = self
                .released
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Return a container to the warm pool.
    pub fn release(&self, mut container: Container) {
        container.uses += 1;
        let mut st = self.state();
        st.warm.push(container);
        drop(st);
        self.released.notify_one();
    }

    pub fn stats(&self) -> PoolStats {
        self.state().stats
    }

    pub fn warm_count(&self) -> usize {
        self.state().warm.len()
    }

    pub fn config(&self) -> &PoolConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    fn fast_pool(max: usize, prewarmed: usize) -> ContainerPool {
        ContainerPool::new(PoolConfig {
            max_containers: max,
            cold_start: Duration::from_millis(5),
            prewarmed,
        })
    }

    #[test]
    fn first_acquire_is_cold_then_warm() {
        let pool = fast_pool(2, 0);
        let t0 = Instant::now();
        let (c, cold) = pool.acquire();
        assert!(cold);
        assert!(t0.elapsed() >= Duration::from_millis(5), "cold start latency");
        pool.release(c);
        let t1 = Instant::now();
        let (c2, cold2) = pool.acquire();
        assert!(!cold2, "released container is reused warm");
        assert!(t1.elapsed() < Duration::from_millis(5));
        assert_eq!(c2.uses, 1);
        let s = pool.stats();
        assert_eq!(s.cold_starts, 1);
        assert_eq!(s.warm_hits, 1);
    }

    #[test]
    fn prewarmed_containers_skip_cold_start() {
        let pool = fast_pool(2, 2);
        let (_c, cold) = pool.acquire();
        assert!(!cold);
        assert_eq!(pool.stats().cold_starts, 0);
    }

    #[test]
    fn pool_bounded_and_blocking() {
        let pool = Arc::new(fast_pool(1, 0));
        let (c, _) = pool.acquire();
        let p2 = pool.clone();
        let handle = std::thread::spawn(move || {
            let t0 = Instant::now();
            let (c2, cold) = p2.acquire();
            (t0.elapsed(), cold, c2)
        });
        std::thread::sleep(Duration::from_millis(20));
        pool.release(c);
        let (waited, cold, _) = handle.join().unwrap();
        assert!(!cold, "the blocked acquire gets the released container");
        assert!(waited >= Duration::from_millis(15));
        assert!(pool.stats().waited >= 1);
    }

    #[test]
    fn auto_provisions_up_to_max() {
        let pool = fast_pool(3, 0);
        let a = pool.acquire();
        let b = pool.acquire();
        let c = pool.acquire();
        assert!(a.1 && b.1 && c.1);
        assert_eq!(pool.stats().created, 3);
        pool.release(a.0);
        pool.release(b.0);
        pool.release(c.0);
        assert_eq!(pool.warm_count(), 3);
    }

    #[test]
    fn concurrent_acquire_release_is_safe() {
        let pool = Arc::new(fast_pool(4, 0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        let (c, _) = pool.acquire();
                        pool.release(c);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.warm_hits + s.cold_starts, 160);
        assert!(s.created <= 4);
    }
}
