//! Monitoring: captured output stream + per-rank iteration counts.
//!
//! Reproduces the observable behaviour of the paper's Fig. 5b run log:
//! workflow output lines ("the num {'input': 751} is prime") interleaved
//! with, in verbose mode, per-rank iteration summaries ("IsPrime1 (rank 1):
//! Processed 3 iterations.").

use crate::lock;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Streaming tap invoked synchronously for every pushed line.
pub type LineTap = Arc<dyn Fn(String) + Send + Sync>;

/// Where a run's output stream goes: collected and handed to the
/// `RunResult` by move, or handed line by line to a streaming *tap* that
/// owns each line and leaves nothing behind — what the execution engine's
/// HTTP/2-style streaming hooks into (paper §IV-E). Once
/// [`OutputSink::close`] has taken the lines, a push is dropped.
pub struct OutputSink {
    collected: Mutex<Vec<String>>,
    tap: Option<LineTap>,
    /// Pushes hold it shared; `close` takes it exclusively, so no push is
    /// still inside the tap when `close` returns.
    open: RwLock<bool>,
}

impl Default for OutputSink {
    fn default() -> Self {
        OutputSink {
            collected: Mutex::default(),
            tap: None,
            open: RwLock::new(true),
        }
    }
}

impl OutputSink {
    pub fn new() -> Self {
        OutputSink::default()
    }

    /// Stream every line to `tap`, synchronously; collect nothing.
    pub fn with_tap(tap: LineTap) -> Self {
        OutputSink {
            tap: Some(tap),
            ..OutputSink::default()
        }
    }

    pub fn push(&self, line: String) {
        let open = self.open.read().unwrap_or_else(PoisonError::into_inner);
        match &self.tap {
            _ if !*open => {}
            Some(tap) => tap(line),
            None => lock(&self.collected).push(line),
        }
    }

    /// Close the sink and take the collected lines, in push order (none
    /// for a tapped sink).
    pub fn close(&self) -> Vec<String> {
        *self.open.write().unwrap_or_else(PoisonError::into_inner) = false;
        std::mem::take(&mut *lock(&self.collected))
    }
}

/// Per-(PE, rank) iteration counters.
#[derive(Clone, Default)]
pub struct Monitor {
    counts: Arc<Mutex<BTreeMap<(String, usize), u64>>>,
}

impl Monitor {
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Record `n` processed iterations for `(pe display name, rank)`.
    pub fn record(&self, pe: &str, rank: usize, n: u64) {
        *lock(&self.counts).entry((pe.to_string(), rank)).or_insert(0) += n;
    }

    /// Snapshot of the counters.
    pub fn counts(&self) -> BTreeMap<(String, usize), u64> {
        lock(&self.counts).clone()
    }

    /// Fig. 5b-style summary lines, sorted by (PE, rank).
    pub fn summary(&self) -> Vec<String> {
        lock(&self.counts)
            .iter()
            .map(|((pe, rank), n)| format!("{pe} (rank {rank}): Processed {n} iterations."))
            .collect()
    }

    /// Total iterations across all ranks of `pe`.
    pub fn total_for(&self, pe: &str) -> u64 {
        lock(&self.counts)
            .iter()
            .filter(|((p, _), _)| p == pe)
            .map(|(_, n)| *n)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_collects_in_order() {
        let sink = OutputSink::new();
        sink.push("a".into());
        sink.push("b".into());
        assert_eq!(sink.close(), vec!["a", "b"]);
    }

    /// A line pushed after `close` reaches neither the lines nor the tap.
    #[test]
    fn a_closed_sink_drops_every_later_line() {
        let sink = OutputSink::new();
        sink.push("a".into());
        assert_eq!(sink.close(), vec!["a"]);
        sink.push("late".into());
        assert!(sink.close().is_empty());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        let tapped = OutputSink::with_tap(Arc::new(move |line| lock(&s).push(line)));
        tapped.push("one".into());
        tapped.close();
        tapped.push("late".into());
        assert_eq!(*lock(&seen), vec!["one"]);
    }

    #[test]
    fn tap_takes_every_line_and_the_sink_keeps_none() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        let sink = OutputSink::with_tap(Arc::new(move |line| lock(&s).push(line)));
        sink.push("one".into());
        sink.push("two".into());
        assert_eq!(*lock(&seen), vec!["one", "two"]);
        assert!(sink.close().is_empty());
    }

    #[test]
    fn monitor_accumulates_and_summarises() {
        let m = Monitor::new();
        m.record("IsPrime1", 1, 3);
        m.record("IsPrime1", 2, 3);
        m.record("IsPrime1", 1, 1); // accumulates
        m.record("NumberProducer0", 0, 10);
        assert_eq!(m.total_for("IsPrime1"), 7);
        let summary = m.summary();
        assert!(summary.contains(&"IsPrime1 (rank 1): Processed 4 iterations.".to_string()));
        assert!(summary.contains(&"NumberProducer0 (rank 0): Processed 10 iterations.".to_string()));
    }

    #[test]
    fn monitor_thread_safety() {
        let m = Monitor::new();
        std::thread::scope(|s| {
            for rank in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record("PE", rank, 1);
                    }
                });
            }
        });
        let total: u64 = m.counts().values().sum();
        assert_eq!(total, 8000);
    }
}
