//! Fault-tolerant enactment: supervised PE invocation, retry/dead-letter
//! policies, and a deterministic chaos harness.
//!
//! The serverless pitch (paper §III auto-provisioning, §IV dynamic process
//! allocation) assumes long-running registry-backed workflows, which makes
//! per-task failure the *normal* case, not the exceptional one — the Ripple
//! position (bounded retries + speculative re-execution for stragglers).
//! Every PE invocation therefore runs under `catch_unwind` isolation and a
//! [`FaultPolicy`]:
//!
//! * [`FaultPolicy::FailFast`] — the default; the first failure aborts the
//!   run with the same error surface earlier releases had
//!   (`GraphError::WorkerPanicked`).
//! * [`FaultPolicy::Retry`] — re-invoke up to `max_attempts` times with
//!   deterministic per-attempt jittered backoff; exhausting the budget
//!   aborts the run with `GraphError::PeFailed`.
//! * [`FaultPolicy::DeadLetter`] — after `max_attempts` the offending datum
//!   is dropped into the per-run dead-letter queue (PE name, port, datum,
//!   error, attempt count) surfaced on `RunResult::dead_letters`, and the
//!   stream keeps flowing.
//!
//! The chaos harness ([`FaultInjector`], [`ChaosPE`]) is fully
//! deterministic: all randomness is xorshift from an explicit seed, keyed
//! by datum content (or producer iteration index), never by wall clock or
//! OS entropy. Two runs with the same seed produce bit-identical
//! dead-letter sets on every mapping, including the work-stealing dynamic
//! one — which worker handles a datum varies, but the injected fate of the
//! datum does not.

use crate::data::{Data, Fnv1a};
use crate::error::GraphError;
use crate::graph::{NodeId, PEFactory, WorkflowGraph};
use crate::lock;
use crate::pe::{Context, PortSpec, PE};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What to do when a PE invocation panics (or is injected to fail).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Abort the whole run on the first failure (pre-fault-model behavior).
    #[default]
    FailFast,
    /// Re-invoke the PE on the same datum up to `max_attempts` times total,
    /// sleeping a deterministically-jittered exponential backoff between
    /// attempts. Exhausting the budget aborts the run.
    Retry { max_attempts: u32, backoff: Duration },
    /// Like `Retry`, but exhausting `max_attempts` drops the datum into the
    /// run's dead-letter queue instead of aborting.
    DeadLetter { max_attempts: u32 },
}

impl FaultPolicy {
    fn max_attempts(&self) -> u32 {
        match self {
            FaultPolicy::FailFast => 1,
            FaultPolicy::Retry { max_attempts, .. } => (*max_attempts).max(1),
            FaultPolicy::DeadLetter { max_attempts } => (*max_attempts).max(1),
        }
    }
}

/// One datum the supervisor gave up on (the dead-letter contract: enough
/// to re-enact the failing invocation offline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadLetterEntry {
    /// Display name of the PE instance (`IsPrime1`).
    pub pe: String,
    /// Input port the datum was delivered on; `None` for producer
    /// iterations and lifecycle (setup/teardown) invocations.
    pub port: Option<String>,
    /// The offending datum; `None` for producer iterations.
    pub datum: Option<Data>,
    /// Panic/error message of the final failed attempt.
    pub error: String,
    /// Number of attempts made before giving up.
    pub attempts: u32,
}

impl DeadLetterEntry {
    /// Canonical sort key so the surfaced queue is a deterministic *set*
    /// regardless of worker scheduling.
    fn sort_key(&self) -> (String, String, String, String, u32) {
        (
            self.pe.clone(),
            self.port.clone().unwrap_or_default(),
            format!("{:?}", self.datum),
            self.error.clone(),
            self.attempts,
        )
    }
}

/// Aggregate fault counters for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Failed PE invocations observed (each failed attempt counts once).
    pub faults: u64,
    /// Re-invocations performed under `Retry`/`DeadLetter`.
    pub retries: u64,
    /// Datums dropped into the dead-letter queue.
    pub dead_letters: u64,
    /// Tasks abandoned because they exceeded the per-task timeout
    /// (dynamic mapping only).
    pub task_timeouts: u64,
    /// Workers retired from a timed-out task and replaced by a fresh
    /// lazily spawned one (dynamic mapping only).
    pub worker_replacements: u64,
}

impl FaultStats {
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Per-run enactment options beyond the mapping choice.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    pub fault_policy: FaultPolicy,
    /// Per-task wall-clock budget; a task still running past it is
    /// abandoned and its worker replaced. Dynamic mapping only; zero is
    /// refused.
    pub task_timeout: Option<Duration>,
}

/// Shared supervision state for one run: the policy, the dead-letter
/// queue, and the fault counters. One instance per enactment, shared by
/// every rank/worker.
pub(crate) struct Supervisor {
    policy: FaultPolicy,
    dlq: Mutex<Vec<DeadLetterEntry>>,
    faults: AtomicU64,
    retries: AtomicU64,
    task_timeouts: AtomicU64,
    worker_replacements: AtomicU64,
}

impl Supervisor {
    pub(crate) fn new(policy: FaultPolicy) -> Self {
        Supervisor {
            policy,
            dlq: Mutex::new(Vec::new()),
            faults: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            task_timeouts: AtomicU64::new(0),
            worker_replacements: AtomicU64::new(0),
        }
    }

    pub(crate) fn policy(&self) -> &FaultPolicy {
        &self.policy
    }

    /// Run one PE invocation under the policy: `Ok(true)` when it
    /// succeeded (route its emissions), `Ok(false)` when the datum was
    /// dead-lettered (discard them and keep going). `attempt` must be
    /// re-runnable: it clears the caller's emission buffer before calling
    /// into the PE, so a partially-emitting failed attempt never leaks
    /// duplicates downstream. Each attempt is handed the datum: the last
    /// one takes it, unless a dead letter may still need it; an attempt
    /// with another after it gets a clone. Under `FailFast` the one
    /// attempt takes it.
    pub(crate) fn invoke(
        &self,
        pe: &str,
        port: Option<&str>,
        mut datum: Option<Data>,
        attempt: &mut dyn FnMut(Option<Data>),
    ) -> Result<bool, GraphError> {
        let max_attempts = self.policy.max_attempts();
        let keeps = matches!(self.policy, FaultPolicy::DeadLetter { .. });
        let mut last_err = String::new();
        for attempt_no in 1..=max_attempts {
            let given = if attempt_no == max_attempts && !keeps {
                datum.take()
            } else {
                datum.clone()
            };
            match catch_unwind(AssertUnwindSafe(|| attempt(given))) {
                Ok(()) => return Ok(true),
                Err(p) => {
                    last_err = crate::mapping::panic_message(p);
                    self.faults.fetch_add(1, Ordering::Relaxed);
                    if attempt_no < max_attempts {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        if let FaultPolicy::Retry { backoff, .. } = &self.policy {
                            std::thread::sleep(jittered_backoff(*backoff, pe, attempt_no));
                        }
                    }
                }
            }
        }
        match &self.policy {
            FaultPolicy::FailFast => Err(GraphError::WorkerPanicked(last_err)),
            FaultPolicy::Retry { .. } => Err(GraphError::PeFailed {
                pe: pe.to_string(),
                attempts: max_attempts,
                message: last_err,
            }),
            FaultPolicy::DeadLetter { .. } => {
                self.dead_letter(pe, port, datum, last_err, max_attempts);
                Ok(false)
            }
        }
    }

    /// Record a dead letter directly (used by the dynamic mapping's
    /// timeout supervisor, where the failing invocation never returns).
    pub(crate) fn dead_letter(
        &self,
        pe: &str,
        port: Option<&str>,
        datum: Option<Data>,
        error: String,
        attempts: u32,
    ) {
        lock(&self.dlq).push(DeadLetterEntry {
            pe: pe.to_string(),
            port: port.map(str::to_string),
            datum,
            error,
            attempts,
        });
    }

    pub(crate) fn note_fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_task_timeout(&self) {
        self.task_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_worker_replacement(&self) {
        self.worker_replacements.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain the dead-letter queue in canonical (sorted) order.
    pub(crate) fn take_dead_letters(&self) -> Vec<DeadLetterEntry> {
        let mut v = std::mem::take(&mut *lock(&self.dlq));
        v.sort_by_key(|e| e.sort_key());
        v
    }

    pub(crate) fn stats(&self) -> FaultStats {
        FaultStats {
            faults: self.faults.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            dead_letters: lock(&self.dlq).len() as u64,
            task_timeouts: self.task_timeouts.load(Ordering::Relaxed),
            worker_replacements: self.worker_replacements.load(Ordering::Relaxed),
        }
    }
}

/// One xorshift64 step (nonzero in, nonzero out).
fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// FNV-1a of `s`, for deterministic keying.
fn fnv1a(s: &str) -> u64 {
    let mut h = Fnv1a::default();
    let _ = h.write_str(s);
    h.0
}

/// Exponential backoff with deterministic jitter: no wall-clock or OS
/// randomness, so same-seed chaos runs sleep identically.
fn jittered_backoff(base: Duration, pe: &str, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1u32 << (attempt - 1).min(6));
    let nanos = exp.as_nanos().min(u128::from(u64::MAX)) as u64;
    if nanos == 0 {
        return Duration::ZERO;
    }
    let mut x = fnv1a(pe) ^ (u64::from(attempt)).wrapping_mul(0x9e3779b97f4a7c15);
    if x == 0 {
        x = 0x9e3779b97f4a7c15;
    }
    let jitter = xorshift64(xorshift64(x)) % (nanos / 2 + 1);
    exp + Duration::from_nanos(jitter)
}

/// Seeded deterministic fault source: a pure function from (seed, key) to
/// a uniform draw in `[0, 1)` via xorshift64. Same seed + same key → same
/// draw, on every platform, forever.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    seed: u64,
}

impl FaultInjector {
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
        }
    }

    /// Uniform draw in `[0, 1)` for `key`.
    pub fn roll(&self, key: u64) -> f64 {
        let mut x = self.seed ^ key.wrapping_mul(0x9e3779b97f4a7c15);
        if x == 0 {
            x = self.seed;
        }
        let r = xorshift64(xorshift64(xorshift64(x)));
        (r >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Chaos plan for one wrapped PE. Rates are per-invocation probabilities,
/// evaluated in order panic → error → delay → drop over a single draw.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    pub seed: u64,
    /// Probability an invocation panics (`chaos: injected panic`).
    pub panic_rate: f64,
    /// Probability an invocation fails with an error panic
    /// (`chaos: injected error`) — distinct message, same failure path.
    pub error_rate: f64,
    /// Probability an invocation is delayed by `delay` before running.
    pub delay_rate: f64,
    pub delay: Duration,
    /// Probability the datum is silently swallowed.
    pub drop_rate: f64,
    /// How many consecutive attempts on a faulty datum fail before it
    /// succeeds; `0` means the fault is permanent. `1` models a transient
    /// fault a single retry fixes.
    pub fail_attempts: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            panic_rate: 0.0,
            error_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_millis(1),
            drop_rate: 0.0,
            fail_attempts: 0,
        }
    }
}

enum ChaosAction {
    Panic,
    Error,
    Delay,
    Drop,
    Pass,
}

/// Wraps any PE so it panics, errors, delays, or drops on a deterministic
/// schedule. Faults are keyed by datum content (producer invocations by
/// iteration index), so the injected fate of a datum is independent of
/// which rank/worker happens to execute it.
pub struct ChaosPE {
    inner: Box<dyn PE>,
    pe_key: u64,
    cfg: ChaosConfig,
    injector: FaultInjector,
    /// Failed-attempt counts per datum key, shared across every clone and
    /// re-instantiation of this PE (worker replacement must not reset the
    /// transient-fault schedule).
    seen: Arc<Mutex<HashMap<u64, u32>>>,
}

impl ChaosPE {
    fn key_for(&self, input: &Option<(&str, Data)>, iteration: u64) -> u64 {
        match input {
            Some((port, data)) => self.pe_key ^ fnv1a(port) ^ data.group_hash(),
            None => self.pe_key ^ 0x517cc1b727220a95u64.wrapping_add(iteration),
        }
    }

    fn decide(&self, key: u64) -> ChaosAction {
        let r = self.injector.roll(key);
        let c = &self.cfg;
        if r < c.panic_rate {
            ChaosAction::Panic
        } else if r < c.panic_rate + c.error_rate {
            ChaosAction::Error
        } else if r < c.panic_rate + c.error_rate + c.delay_rate {
            ChaosAction::Delay
        } else if r < c.panic_rate + c.error_rate + c.delay_rate + c.drop_rate {
            ChaosAction::Drop
        } else {
            ChaosAction::Pass
        }
    }

    /// A fault fires only while the datum's failed-attempt count is below
    /// `fail_attempts` (0 = forever), making retries meaningful.
    fn should_fail(&self, key: u64) -> bool {
        let mut seen = lock(&self.seen);
        let count = seen.entry(key).or_insert(0);
        if self.cfg.fail_attempts == 0 || *count < self.cfg.fail_attempts {
            *count += 1;
            true
        } else {
            false
        }
    }
}

impl PE for ChaosPE {
    fn ports(&self) -> PortSpec {
        self.inner.ports()
    }

    fn process(&mut self, input: Option<(&str, Data)>, ctx: &mut Context<'_>) {
        let key = self.key_for(&input, ctx.iteration);
        match self.decide(key) {
            ChaosAction::Panic if self.should_fail(key) => {
                panic!("chaos: injected panic (key {key:016x})");
            }
            ChaosAction::Error if self.should_fail(key) => {
                panic!("chaos: injected error (key {key:016x})");
            }
            ChaosAction::Delay => {
                std::thread::sleep(self.cfg.delay);
                self.inner.process(input, ctx);
            }
            ChaosAction::Drop => {}
            _ => self.inner.process(input, ctx),
        }
    }

    fn setup(&mut self, ctx: &mut Context<'_>) {
        self.inner.setup(ctx);
    }

    fn teardown(&mut self, ctx: &mut Context<'_>) {
        self.inner.teardown(ctx);
    }
}

/// Factory wrapper produced by [`inject_chaos`]: every instance the
/// mappings create shares one transient-fault schedule.
pub struct ChaosFactory {
    inner: Arc<dyn PEFactory>,
    cfg: ChaosConfig,
    seen: Arc<Mutex<HashMap<u64, u32>>>,
}

impl ChaosFactory {
    pub fn new(inner: Arc<dyn PEFactory>, cfg: ChaosConfig) -> Self {
        ChaosFactory {
            inner,
            cfg,
            seen: Arc::new(Mutex::new(HashMap::new())),
        }
    }
}

impl PEFactory for ChaosFactory {
    fn pe_name(&self) -> String {
        self.inner.pe_name()
    }

    fn create(&self) -> Box<dyn PE> {
        Box::new(ChaosPE {
            inner: self.inner.create(),
            pe_key: fnv1a(&self.inner.pe_name()),
            cfg: self.cfg.clone(),
            injector: FaultInjector::new(self.cfg.seed),
            seen: self.seen.clone(),
        })
    }
}

/// Replace `node`'s factory with a chaos-wrapped one.
pub fn inject_chaos(graph: &mut WorkflowGraph, node: NodeId, cfg: ChaosConfig) {
    let inner = graph.nodes[node.0].factory.clone();
    graph.nodes[node.0].factory = Arc::new(ChaosFactory::new(inner, cfg));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{run, run_with_options, Mapping, RunInput};
    use crate::monitor::OutputSink;
    use crate::workflows;

    #[test]
    fn injector_is_deterministic_and_spread() {
        let inj = FaultInjector::new(7);
        let a: Vec<f64> = (0..100).map(|k| inj.roll(k)).collect();
        let b: Vec<f64> = (0..100).map(|k| inj.roll(k)).collect();
        assert_eq!(a, b, "same seed + key must give the same draw");
        let low = a.iter().filter(|r| **r < 0.5).count();
        assert!(low > 20 && low < 80, "draws badly skewed: {low}/100 below 0.5");
        assert!(a.iter().all(|r| (0.0..1.0).contains(r)));

        let other = FaultInjector::new(8);
        let c: Vec<f64> = (0..100).map(|k| other.roll(k)).collect();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_grows() {
        let a = jittered_backoff(Duration::from_millis(10), "PE1", 1);
        let b = jittered_backoff(Duration::from_millis(10), "PE1", 1);
        assert_eq!(a, b);
        let later = jittered_backoff(Duration::from_millis(10), "PE1", 3);
        assert!(later >= Duration::from_millis(40), "{later:?}");
        assert!(a >= Duration::from_millis(10) && a <= Duration::from_millis(16));
    }

    #[test]
    fn supervisor_fail_fast_preserves_worker_panicked() {
        let sup = Supervisor::new(FaultPolicy::FailFast);
        let err = sup
            .invoke("PE0", None, None, &mut |_| panic!("boom"))
            .unwrap_err();
        assert_eq!(err, GraphError::WorkerPanicked("boom".into()));
        assert_eq!(sup.stats().faults, 1);
    }

    #[test]
    fn supervisor_retry_succeeds_after_transient_fault() {
        let sup = Supervisor::new(FaultPolicy::Retry {
            max_attempts: 3,
            backoff: Duration::ZERO,
        });
        let mut calls = 0;
        let out = sup.invoke("PE0", None, None, &mut |_| {
            calls += 1;
            if calls < 3 {
                panic!("transient");
            }
        });
        assert!(matches!(out, Ok(true)));
        assert_eq!(calls, 3);
        let stats = sup.stats();
        assert_eq!(stats.faults, 2);
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn supervisor_retry_exhaustion_is_typed() {
        let sup = Supervisor::new(FaultPolicy::Retry {
            max_attempts: 2,
            backoff: Duration::ZERO,
        });
        let err = sup
            .invoke("PE7", None, None, &mut |_| panic!("always"))
            .unwrap_err();
        match err {
            GraphError::PeFailed { pe, attempts, message } => {
                assert_eq!(pe, "PE7");
                assert_eq!(attempts, 2);
                assert_eq!(message, "always");
            }
            other => panic!("expected PeFailed, got {other:?}"),
        }
    }

    #[test]
    fn supervisor_dead_letter_records_and_continues() {
        let sup = Supervisor::new(FaultPolicy::DeadLetter { max_attempts: 2 });
        let datum = Data::from(9i64);
        let out = sup.invoke("PE3", Some("input"), Some(datum), &mut |_| panic!("bad"));
        assert!(matches!(out, Ok(false)));
        let dlq = sup.take_dead_letters();
        assert_eq!(dlq.len(), 1);
        assert_eq!(dlq[0].pe, "PE3");
        assert_eq!(dlq[0].port.as_deref(), Some("input"));
        assert_eq!(dlq[0].datum, Some(Data::from(9i64)));
        assert_eq!(dlq[0].attempts, 2);
        assert!(dlq[0].error.contains("bad"));
    }

    #[test]
    fn failed_attempt_emissions_are_discarded() {
        // A PE that emits then panics must not leak the partial emission.
        let sup = Supervisor::new(FaultPolicy::Retry {
            max_attempts: 2,
            backoff: Duration::ZERO,
        });
        let mut emitted: Vec<i64> = Vec::new();
        let mut calls = 0;
        let out = sup.invoke("PE0", None, None, &mut |_| {
            emitted.clear();
            emitted.push(1);
            calls += 1;
            if calls < 2 {
                panic!("mid-emit");
            }
            emitted.push(2);
        });
        assert!(matches!(out, Ok(true)));
        assert_eq!(emitted, vec![1, 2], "partial first-attempt emission leaked");
    }

    #[test]
    fn chaos_pe_panics_deterministically() {
        let mut g = workflows::doubler_graph();
        inject_chaos(
            &mut g,
            NodeId(1),
            ChaosConfig {
                seed: 1234,
                panic_rate: 0.3,
                ..ChaosConfig::default()
            },
        );
        let r1 = run_with_options(
            &g,
            RunInput::Iterations(30),
            &Mapping::Simple,
            OutputSink::new(),
            &RunOptions {
                fault_policy: FaultPolicy::DeadLetter { max_attempts: 1 },
                task_timeout: None,
            },
        )
        .unwrap();
        assert!(!r1.dead_letters.is_empty(), "panic_rate 0.3 over 30 items hit nothing");
        assert!(r1.dead_letters.len() < 30, "everything faulted");
        let mut g2 = workflows::doubler_graph();
        inject_chaos(
            &mut g2,
            NodeId(1),
            ChaosConfig {
                seed: 1234,
                panic_rate: 0.3,
                ..ChaosConfig::default()
            },
        );
        let r2 = run_with_options(
            &g2,
            RunInput::Iterations(30),
            &Mapping::Simple,
            OutputSink::new(),
            &RunOptions {
                fault_policy: FaultPolicy::DeadLetter { max_attempts: 1 },
                task_timeout: None,
            },
        )
        .unwrap();
        assert_eq!(r1.dead_letters, r2.dead_letters);
        assert_eq!(r1.fault_stats, r2.fault_stats);
    }

    #[test]
    fn chaos_drop_swallows_data() {
        let mut g = workflows::doubler_graph();
        inject_chaos(
            &mut g,
            NodeId(1),
            ChaosConfig {
                seed: 5,
                drop_rate: 0.5,
                ..ChaosConfig::default()
            },
        );
        let r = run(&g, RunInput::Iterations(40), &Mapping::Simple).unwrap();
        assert!(r.lines().len() < 40, "nothing dropped");
        assert!(!r.lines().is_empty(), "everything dropped");
        assert!(r.fault_stats.is_clean(), "drops are not faults");
    }

    #[test]
    fn default_policy_is_fail_fast() {
        assert_eq!(FaultPolicy::default(), FaultPolicy::FailFast);
        assert!(RunOptions::default().task_timeout.is_none());
    }

    #[test]
    fn dead_letters_sort_canonically() {
        let sup = Supervisor::new(FaultPolicy::DeadLetter { max_attempts: 1 });
        sup.dead_letter("B", None, None, "e".into(), 1);
        sup.dead_letter("A", Some("p"), Some(Data::from(1i64)), "e".into(), 1);
        let dlq = sup.take_dead_letters();
        assert_eq!(dlq[0].pe, "A");
        assert_eq!(dlq[1].pe, "B");
    }
}
