//! The test-only clock seam behind the serving path's timers.
//!
//! Production code paths sleep and measure with the OS clock; the
//! deterministic simulation harness (`crates/sim`) needs those same
//! paths to run under *virtual* time so a seeded episode replays
//! bit-identically regardless of host load. [`Clock`] is the seam: the
//! recovery-probe timer and the transport's frame-latency model go
//! through it, [`SystemClock`] is the production implementation, and
//! [`SimClock`] advances a virtual counter instead of blocking.
//!
//! The seam deliberately does NOT cover observability timings (request
//! latency histograms, uptime): those are diagnostics, not behaviour,
//! and the simulation's oracle excludes them from its trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic clock the serving path's timers run on.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Monotonic nanoseconds since an arbitrary per-clock epoch.
    fn monotonic_nanos(&self) -> u64;

    /// Block (or virtually advance) for `d`.
    fn sleep(&self, d: Duration);
}

/// Shared handle to a clock.
pub type SharedClock = Arc<dyn Clock>;

/// The production clock: OS monotonic time and real `thread::sleep`.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl SystemClock {
    pub fn new() -> SystemClock {
        SystemClock::default()
    }
}

impl Clock for SystemClock {
    fn monotonic_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A virtual clock for deterministic simulation: `sleep` advances the
/// counter instantly (plus a scheduler yield so a timer loop driven by
/// it cannot starve other threads), so time depends only on the
/// sequence of operations, never on the host.
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
}

impl SimClock {
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Advance virtual time by `d` without sleeping.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn monotonic_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotone_and_sleeps() {
        let c = SystemClock::new();
        let a = c.monotonic_nanos();
        c.sleep(Duration::from_millis(2));
        let b = c.monotonic_nanos();
        assert!(b > a, "{b} must exceed {a}");
    }

    #[test]
    fn sim_clock_advances_without_blocking() {
        let c = SimClock::new();
        assert_eq!(c.monotonic_nanos(), 0);
        let t0 = Instant::now();
        c.sleep(Duration::from_secs(3600));
        assert!(t0.elapsed() < Duration::from_secs(1), "virtual sleep");
        assert_eq!(c.monotonic_nanos(), 3_600_000_000_000);
        c.advance(Duration::from_nanos(7));
        assert_eq!(c.monotonic_nanos(), 3_600_000_000_007);
    }
}
