//! Users and sessions, and the operator endpoints: metrics, compaction
//! and health.

use crate::obs::StorageHealthSnapshot;
use crate::protocol::{Response, StorageStateWire, Token};
use crate::server::{LaminarServer, ServerError};
use laminar_registry::PersistSnapshot;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;

impl LaminarServer {
    /// `RegisterUser`: a new account, logged in.
    pub(crate) fn register_user(
        &self,
        username: &str,
        password: &str,
    ) -> Result<Response, ServerError> {
        let user = self.registry.register_user(username, password)?;
        Ok(Response::Token(self.new_session(user)))
    }

    /// `Login`: a new session for an existing account.
    pub(crate) fn login(&self, username: &str, password: &str) -> Result<Response, ServerError> {
        let user = self.registry.login(username, password)?;
        Ok(Response::Token(self.new_session(user)))
    }

    fn new_session(&self, user: u64) -> Token {
        let token = self.next_token.fetch_add(1, Ordering::SeqCst);
        self.sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(token, user);
        token
    }

    /// The user behind a session token.
    pub(crate) fn auth(&self, token: Token) -> Result<u64, ServerError> {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&token)
            .copied()
            .ok_or(ServerError::NotLoggedIn)
    }

    /// `Metrics`: the metric registry's snapshot, completed with the
    /// registry's persistence counters and the storage-health row group.
    pub(crate) fn metrics_response(&self) -> Response {
        let mut snap = self.metrics.snapshot();
        snap.persistence = self.registry.persist_stats();
        snap.storage_health = self.storage_health(snap.persistence.as_ref());
        Response::Metrics(Box::new(snap))
    }

    /// The `storage_health` row group: the state machine's own counters
    /// merged with the registry-side IO error tally and the fault injector's
    /// per-site op counts (empty when no injector is armed).
    fn storage_health(&self, persistence: Option<&PersistSnapshot>) -> StorageHealthSnapshot {
        let mut snap = self.health.snapshot();
        if let Some(p) = persistence {
            snap.io_errors = p.io_errors;
            if snap.last_error.is_none() {
                snap.last_error = p.last_error.clone();
            }
        }
        snap.fault_sites = self
            .registry
            .fault_counters()
            .into_iter()
            .map(|c| (c.site.name().to_string(), c.ops, c.injected))
            .collect();
        snap
    }

    /// `Compact`: fold the WAL into a fresh snapshot, then write the
    /// index cache beside it (whose failure is counted, never answered).
    pub(crate) fn compact(&self) -> Result<Response, ServerError> {
        let compacted = self.registry.compact()?;
        if compacted.is_some() {
            self.save_index_cache();
        }
        Ok(match compacted {
            Some(stats) => Response::Compacted {
                wal_records: stats.wal_records,
                wal_bytes: stats.wal_bytes,
                snapshot_bytes: stats.snapshot_bytes,
            },
            None => Response::Error(
                "registry has no data directory (start the server with --data-dir)".into(),
            ),
        })
    }

    /// `Health`: liveness, readiness and the storage state.
    pub(crate) fn health_response(&self) -> Response {
        let degraded = self.health.is_degraded();
        Response::Health {
            live: true,
            ready: !degraded,
            storage: if degraded {
                StorageStateWire::Degraded
            } else {
                StorageStateWire::Healthy
            },
            last_persist_error: self.health.last_error(),
            uptime_ms: self.metrics.uptime_ms(),
            degraded_transitions: self.health.degraded_entries(),
        }
    }
}
