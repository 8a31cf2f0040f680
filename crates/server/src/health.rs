//! The storage-health state machine behind read-only degraded mode.
//!
//! The server starts `Healthy`. The first persistence error observed on
//! any mutation path — a failed WAL append, snapshot write, or WAL
//! truncate — flips it to `Degraded`: mutating endpoints are rejected
//! with the typed [`Response::Degraded`] while searches, runs, metrics,
//! and resource-cache reads keep serving from the in-memory state (which
//! is still correct: the registry never applies a mutation whose WAL
//! frame failed). A background recovery probe periodically re-verifies
//! the storage ([`Registry::verify_storage`]: WAL replay CRC audit +
//! scratch test append) and transitions back to `Healthy` once it
//! passes. Every transition and rejection is counted for the
//! `storage_health` metrics row group.
//!
//! [`Response::Degraded`]: crate::protocol::Response::Degraded
//! [`Registry::verify_storage`]: laminar_registry::Registry::verify_storage

use crate::obs::StorageHealthSnapshot;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Shared storage-health state. All counters are relaxed atomics — the
/// only lock guards the last-error string, taken off the hot path.
#[derive(Debug, Default)]
pub struct StorageHealth {
    degraded: AtomicBool,
    degraded_entries: AtomicU64,
    degraded_exits: AtomicU64,
    probe_attempts: AtomicU64,
    probe_failures: AtomicU64,
    rejected_while_degraded: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl StorageHealth {
    pub fn new() -> StorageHealth {
        StorageHealth::default()
    }

    /// True while the server is in read-only degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// A persistence error was observed on a mutation path: record it
    /// and enter degraded mode (idempotent — only the Healthy→Degraded
    /// edge counts as a transition).
    pub fn record_persist_error(&self, error: &str) {
        *self
            .last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(error.to_string());
        if !self.degraded.swap(true, Ordering::SeqCst) {
            self.degraded_entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A mutating request was rejected with `Response::Degraded`.
    pub fn note_rejected(&self) {
        self.rejected_while_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// A recovery probe passed: leave degraded mode (idempotent; probes
    /// run only while degraded, but a pass while already healthy is a
    /// harmless no-op transition-wise).
    pub fn probe_passed(&self) {
        self.probe_attempts.fetch_add(1, Ordering::Relaxed);
        if self.degraded.swap(false, Ordering::SeqCst) {
            self.degraded_exits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A recovery probe failed: storage is still bad, stay (or enter)
    /// degraded.
    pub fn probe_failed(&self, error: &str) {
        self.probe_attempts.fetch_add(1, Ordering::Relaxed);
        self.probe_failures.fetch_add(1, Ordering::Relaxed);
        self.record_persist_error(error);
    }

    /// Healthy→Degraded transitions since start (the `Health` response's
    /// `degraded_transitions`).
    pub fn degraded_entries(&self) -> u64 {
        self.degraded_entries.load(Ordering::Relaxed)
    }

    /// Most recent persistence error, if any has ever occurred.
    pub fn last_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Snapshot of the state machine's own counters. The server merges
    /// in the registry-side `io_errors` and fault-injector site counters
    /// before shipping it in the metrics snapshot.
    pub fn snapshot(&self) -> StorageHealthSnapshot {
        StorageHealthSnapshot {
            degraded: self.is_degraded(),
            degraded_entries: self.degraded_entries.load(Ordering::Relaxed),
            degraded_exits: self.degraded_exits.load(Ordering::Relaxed),
            probe_attempts: self.probe_attempts.load(Ordering::Relaxed),
            probe_failures: self.probe_failures.load(Ordering::Relaxed),
            rejected_while_degraded: self.rejected_while_degraded.load(Ordering::Relaxed),
            io_errors: 0,
            last_error: self.last_error(),
            fault_sites: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_error_enters_degraded_once() {
        let h = StorageHealth::new();
        assert!(!h.is_degraded());
        h.record_persist_error("wal append: injected ENOSPC");
        h.record_persist_error("wal append: injected ENOSPC");
        assert!(h.is_degraded());
        assert_eq!(h.degraded_entries(), 1, "idempotent entry");
        assert_eq!(
            h.last_error().as_deref(),
            Some("wal append: injected ENOSPC")
        );
    }

    #[test]
    fn probe_cycle_counts_transitions() {
        let h = StorageHealth::new();
        h.record_persist_error("boom");
        h.probe_failed("still broken");
        assert!(h.is_degraded());
        h.probe_passed();
        assert!(!h.is_degraded());
        h.record_persist_error("boom again");
        h.probe_passed();
        let snap = h.snapshot();
        assert_eq!(snap.degraded_entries, 2);
        assert_eq!(snap.degraded_exits, 2);
        assert_eq!(snap.probe_attempts, 3);
        assert_eq!(snap.probe_failures, 1);
        assert!(!snap.degraded);
    }

    #[test]
    fn rejections_are_counted() {
        let h = StorageHealth::new();
        h.record_persist_error("boom");
        h.note_rejected();
        h.note_rejected();
        assert_eq!(h.snapshot().rejected_while_degraded, 2);
    }
}
