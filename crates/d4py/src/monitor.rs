//! Monitoring: captured output stream + per-rank iteration counts.
//!
//! Reproduces the observable behaviour of the paper's Fig. 5b run log:
//! workflow output lines ("the num {'input': 751} is prime") interleaved
//! with, in verbose mode, per-rank iteration summaries ("IsPrime1 (rank 1):
//! Processed 3 iterations.").

use crate::lock;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Streaming tap invoked synchronously for every pushed line.
pub type LineTap = Arc<dyn Fn(&str) + Send + Sync>;

/// Thread-safe collector for the workflow's output stream. Cloning shares
/// the underlying buffer. An optional *tap* receives every line as it is
/// pushed — this is what the execution engine's HTTP/2-style streaming
/// hooks into (paper §IV-E).
#[derive(Clone, Default)]
pub struct OutputSink {
    lines: Arc<Mutex<Vec<String>>>,
    tap: Option<LineTap>,
}

impl OutputSink {
    pub fn new() -> Self {
        OutputSink::default()
    }

    /// Attach a streaming tap: called synchronously for every line.
    pub fn with_tap(tap: LineTap) -> Self {
        OutputSink {
            lines: Arc::new(Mutex::new(Vec::new())),
            tap: Some(tap),
        }
    }

    pub fn push(&self, line: String) {
        if let Some(tap) = &self.tap {
            tap(&line);
        }
        lock(&self.lines).push(line);
    }

    /// Snapshot of all lines so far.
    pub fn lines(&self) -> Vec<String> {
        lock(&self.lines).clone()
    }

    pub fn len(&self) -> usize {
        lock(&self.lines).len()
    }

    pub fn is_empty(&self) -> bool {
        lock(&self.lines).is_empty()
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sink_collects_in_order() {
        let sink = OutputSink::new();
        sink.push("a".into());
        sink.push("b".into());
        assert_eq!(sink.lines(), vec!["a", "b"]);
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
    }

    #[test]
    fn sink_clone_shares_buffer() {
        let sink = OutputSink::new();
        let clone = sink.clone();
        clone.push("x".into());
        assert_eq!(sink.lines(), vec!["x"]);
    }

    #[test]
    fn tap_fires_synchronously_per_line() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let sink = OutputSink::with_tap(Arc::new(move |_line| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        sink.push("one".into());
        sink.push("two".into());
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(sink.lines().len(), 2);
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
