//! The Laminar server: controller + services over the registry, search
//! indexes, resource cache and execution engine (paper §III, Fig. 4).
//! This module is the controller — request lifecycle, accounting and
//! one forwarding dispatch; the handlers live in `crate::service`.

use crate::health::StorageHealth;
use crate::index_cache::{self, IndexCache, ReadEnd};
use crate::indexes::{Analysis, EntryKind, IndexRow, SearchIndexes};
use crate::obs::{EndpointMetrics, Metrics, RequestId};
use crate::protocol::*;
use crate::resources::ResourceCache;
use crate::service::run::RunSpec;
use aroma::AromaConfig;
use d4py::mapping::panic_message;
use embed::{CodeT5Sim, DescriptionContext, UniXcoderSim};
use laminar_execengine::ExecutionEngine;
use laminar_registry::{Registry, RegistryError};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Server tunables (the paper's "configurable parameter"s). No deployment
/// sets the Aroma values (`reco_*`) to anything but their defaults; they
/// stay fields because the benchmark's standalone engine reads them to be
/// configured as the served one is.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Minimum SPT overlap score for a recommendation (paper default: 6.0).
    /// Doubles as the Aroma engine's retrieval floor (`min_overlap`).
    pub reco_min_score: f32,
    /// Minimum cosine for `llm` recommendations.
    pub reco_min_cosine: f32,
    /// Aroma stage 2: candidates kept by light-weight retrieval.
    pub reco_retrieve_n: usize,
    /// Aroma stage 3: snippets surviving prune & rerank.
    pub reco_rerank_keep: usize,
    /// Aroma stage 4: cosine floor for joining a cluster.
    pub reco_cluster_sim: f32,
    /// Unused, frozen-benchmark names: the rayon tier and the LSH gate
    /// they sized are gone, no LSH code remains in the workspace
    /// (DESIGN.md §10), and nothing reads them. `crates/benchmark` still
    /// does; its next PR removes them.
    pub reco_parallel_threshold: usize,
    pub reco_lsh_min_entries: usize,
    /// Interval of the background storage-recovery probe in milliseconds
    /// (`--probe-interval-ms`); 0 disables the probe thread. The probe
    /// only does IO while the server is degraded.
    pub probe_interval_ms: u64,
    /// `retry_after_ms` hint carried by `Response::Degraded` rejections.
    pub degraded_retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            reco_min_score: 6.0,
            reco_min_cosine: 0.3,
            reco_retrieve_n: 50,
            reco_rerank_keep: 10,
            reco_cluster_sim: 0.5,
            reco_parallel_threshold: 0,
            reco_lsh_min_entries: 0,
            probe_interval_ms: 0,
            degraded_retry_after_ms: 500,
        }
    }
}

/// A `Login` for this user panics in `dispatch`: the ingress's panic
/// handling has something to catch.
#[cfg(test)]
pub(crate) const PANIC_USER: &str = "panics-in-dispatch";

/// Internal server error (mapped to `Response::Error` at the boundary).
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    NotLoggedIn,
    Registry(RegistryError),
    /// A handler panicked; the panic's message.
    Internal(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::NotLoggedIn => write!(f, "not logged in"),
            ServerError::Registry(e) => write!(f, "{e}"),
            ServerError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<RegistryError> for ServerError {
    fn from(e: RegistryError) -> Self {
        ServerError::Registry(e)
    }
}

/// The server.
pub struct LaminarServer {
    pub(crate) registry: Arc<Registry>,
    pub(crate) engine: Arc<ExecutionEngine>,
    pub(crate) indexes: Arc<SearchIndexes>,
    pub(crate) resources: Arc<ResourceCache>,
    pub(crate) sessions: RwLock<HashMap<Token, u64>>,
    pub(crate) next_token: AtomicU64,
    pub(crate) config: ServerConfig,
    pub(crate) codet5: CodeT5Sim,
    pub(crate) unixcoder: UniXcoderSim,
    pub(crate) metrics: Arc<Metrics>,
    /// The storage-health state machine behind read-only degraded mode.
    pub(crate) health: Arc<StorageHealth>,
    /// The data directory's index cache; `None` without a data directory.
    pub(crate) index_cache: Option<Arc<IndexCache>>,
}

impl LaminarServer {
    pub fn new(registry: Registry, engine: ExecutionEngine, config: ServerConfig) -> Self {
        let indexes = SearchIndexes::with_aroma(AromaConfig {
            retrieve_n: config.reco_retrieve_n,
            rerank_keep: config.reco_rerank_keep,
            cluster_sim: config.reco_cluster_sim,
            max_recommendations: config.reco_rerank_keep,
            min_overlap: config.reco_min_score,
            ..AromaConfig::default()
        });
        let index_cache = registry
            .data_dir()
            .map(|dir| Arc::new(IndexCache::open(&dir)));
        let server = LaminarServer {
            registry: Arc::new(registry),
            engine: Arc::new(engine),
            indexes: Arc::new(indexes),
            resources: Arc::new(ResourceCache::new()),
            sessions: RwLock::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            config,
            codet5: CodeT5Sim::new(DescriptionContext::FullClass),
            unixcoder: UniXcoderSim::new(),
            metrics: Arc::new(Metrics::new()),
            health: Arc::new(StorageHealth::new()),
            index_cache,
        };
        server.warm_load_indexes();
        server.spawn_recovery_probe();
        server
    }

    /// Start the background storage-recovery probe thread (disabled when
    /// `probe_interval_ms` is 0). The thread holds only weak references,
    /// so it exits once the server (and its registry) are dropped; it
    /// does IO only while the server is degraded, so a healthy server
    /// pays nothing but a timer tick.
    fn spawn_recovery_probe(&self) {
        if self.config.probe_interval_ms == 0 {
            return;
        }
        let interval = std::time::Duration::from_millis(self.config.probe_interval_ms);
        let registry = Arc::downgrade(&self.registry);
        let health = Arc::downgrade(&self.health);
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            let (Some(registry), Some(health)) = (registry.upgrade(), health.upgrade()) else {
                return;
            };
            if health.is_degraded() {
                match registry.verify_storage() {
                    Ok(()) => health.probe_passed(),
                    Err(e) => health.probe_failed(&e.to_string()),
                }
            }
        });
    }

    /// The storage-health state machine (shared with tests and the
    /// drain path).
    pub fn health(&self) -> &Arc<StorageHealth> {
        &self.health
    }

    /// Run one recovery probe now (the background thread does the same
    /// on its timer): verify storage and transition the state machine.
    /// Returns the new degraded state.
    pub fn probe_storage(&self) -> bool {
        match self.registry.verify_storage() {
            Ok(()) => self.health.probe_passed(),
            Err(e) => self.health.probe_failed(&e.to_string()),
        }
        self.health.is_degraded()
    }

    /// Best-effort final compaction for graceful shutdown: fold the WAL
    /// into a snapshot so the next start recovers from the snapshot
    /// instead of a long replay, then write the index cache so it starts
    /// without re-deriving a row. Runs on a helper thread and gives up
    /// after `timeout` (the work itself keeps running to completion, but
    /// drain is not blocked on it). Skipped while degraded — a failing
    /// disk would only eat the drain budget. Returns true when the
    /// compaction (and the cache write after it) finished in time and the
    /// compaction succeeded.
    pub fn shutdown_compact(&self, timeout: std::time::Duration) -> bool {
        if self.health.is_degraded() {
            return false;
        }
        let registry = self.registry.clone();
        let (indexes, metrics) = (self.indexes.clone(), self.metrics.clone());
        let cache = self.index_cache.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let compacted = registry.compact().is_ok();
            if let (true, Some(cache)) = (compacted, cache) {
                cache.save(&indexes, &metrics.groups.warm);
            }
            let _ = tx.send(compacted);
        });
        matches!(rx.recv_timeout(timeout), Ok(true))
    }

    /// Write the index cache after a compaction (see
    /// [`crate::index_cache`]); a no-op without a data directory.
    pub(crate) fn save_index_cache(&self) {
        if let Some(cache) = &self.index_cache {
            cache.save(&self.indexes, &self.metrics.groups.warm);
        }
    }

    /// Cold-start warm load: rebuild the search indexes from whatever the
    /// registry already holds. A row whose content hash matches its
    /// index-cache row takes that row's vectors; every other row is
    /// re-analysed from its code and description ([`Analysis::of`], as
    /// registration does). Then everything — slabs and, under its SPT
    /// vector, every PE's source for the engine — publishes as one write,
    /// PEs first, each kind in registry order, whatever came from the
    /// cache.
    fn warm_load_indexes(&self) {
        let start = std::time::Instant::now();
        let warm = &self.metrics.groups.warm;
        let (pes, workflows) = (self.registry.pe_rows(), self.registry.workflow_rows());
        // Every registry row as (kind, id, name, code, description), in
        // publication order.
        let registry_rows: Vec<(EntryKind, u64, &str, &str, &str)> = (pes.iter())
            .map(|p| (EntryKind::Pe, p.id, &*p.name, &*p.code, &*p.description))
            .chain((workflows.iter()).map(|w| {
                (
                    EntryKind::Workflow,
                    w.id,
                    &*w.name,
                    &*w.code,
                    &*w.description,
                )
            }))
            .collect();
        let contents: Vec<u64> = (registry_rows.iter())
            .map(|&(_, _, _, code, description)| index_cache::content_hash(code, description))
            .collect();
        // Slot per registry row.
        let mut cached: Vec<Option<Analysis>> = std::iter::repeat_with(|| None)
            .take(contents.len())
            .collect();
        if let Some(cache) = &self.index_cache {
            let slot: HashMap<(u64, EntryKind), usize> = (registry_rows.iter().enumerate())
                .map(|(i, &(kind, id, ..))| ((id, kind), i))
                .collect();
            let end = cache.read(|row| {
                if let Some(&i) = slot.get(&(row.id, row.kind)) {
                    if contents[i] == row.content {
                        cached[i] = Some(row.vectors);
                    }
                }
            });
            if end == ReadEnd::Rejected {
                warm.cache_rejected.inc();
            }
        }
        let hits = cached.iter().filter(|row| row.is_some()).count() as u64;
        let rows: Vec<IndexRow> = (registry_rows.iter().zip(contents).zip(cached))
            .map(|((&(kind, id, name, code, description), content), hit)| {
                hit.unwrap_or_else(|| Analysis::of(kind, code, description))
                    .into_row(id, content, name, code)
            })
            .collect();
        let missed = rows.len() as u64 - hits;
        self.indexes.bulk_upsert(rows);
        self.sync_index_gauges();
        warm.cache_rows_hit.add(hits);
        warm.cache_rows_missed.add(missed);
        warm.load_us.record(start.elapsed());
    }

    /// Refresh the index-size gauges after an index mutation.
    pub(crate) fn sync_index_gauges(&self) {
        let (pes, workflows) = self.indexes.counts();
        let search = &self.metrics.groups.search;
        search.index_pes.set(pes as i64);
        search.index_workflows.set(workflows as i64);
    }

    /// Server with stock workflows and default config.
    pub fn with_stock() -> Self {
        LaminarServer::new(
            Registry::new(),
            ExecutionEngine::with_stock(),
            ServerConfig::default(),
        )
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn engine(&self) -> &ExecutionEngine {
        &self.engine
    }

    pub fn resources(&self) -> &ResourceCache {
        &self.resources
    }

    pub fn indexes(&self) -> &SearchIndexes {
        &self.indexes
    }

    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The serving-path metric registry (shared with the TCP layer).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    // ---- controller ---------------------------------------------------------

    /// Dispatch one request at the current protocol version. Convenience
    /// wrapper over [`LaminarServer::handle_envelope`].
    pub fn handle(&self, req: Request) -> Reply {
        self.handle_envelope(RequestEnvelope::new(req)).1
    }

    /// The request-lifecycle ingress. It mints a [`RequestId`], reads the
    /// request's [`Endpoint`] row once, counts the request against that
    /// endpoint and applies, in order: the version rule, the rest of the
    /// endpoint's accounting (in-flight gauge, latency histogram, error
    /// count), read-only degraded mode for mutating rows, and the session
    /// check for requests that carry a token; then it dispatches. A value
    /// reply settles the accounting on return; a streamed reply hands it
    /// to the run's frame consumer, which settles it when the stream ends
    /// — or on the first frame the receiver is no longer there for.
    pub fn handle_envelope(&self, env: RequestEnvelope) -> (RequestId, Reply) {
        let id = RequestId::mint();
        let endpoint = env.body.endpoint();
        let ep = self.metrics.endpoint(endpoint.name);
        ep.requests.inc();
        if env.protocol_version != PROTOCOL_VERSION {
            ep.rejections.inc();
            return (
                id,
                Reply::Value(Response::Unsupported {
                    server_version: PROTOCOL_VERSION,
                    client_version: env.protocol_version,
                }),
            );
        }
        ep.in_flight.inc();
        let scope = Arc::new(InFlight {
            id,
            ep,
            start: std::time::Instant::now(),
            failed: AtomicBool::new(false),
        });
        let reply = if self.health.is_degraded() && endpoint.mutating {
            scope.ep.rejections.inc();
            self.reject_degraded()
        } else {
            // The tokenless endpoints never read the user id they are
            // handed.
            let user = env.body.token().map_or(Ok(0), |token| self.auth(token));
            // A handler that panics is answered like one that failed: the
            // connection stays open, and nothing tells a client that read
            // no reply to send the request again.
            let handled = catch_unwind(AssertUnwindSafe(|| {
                user.and_then(|user| self.dispatch(env.body, user, &scope))
            }))
            .unwrap_or_else(|p| Err(ServerError::Internal(panic_message(p))));
            match handled {
                Ok(reply) => reply,
                Err(e) => {
                    // Central persist-error observation: any mutation that
                    // died on the persistence path flips the server into
                    // read-only degraded mode.
                    if let ServerError::Registry(RegistryError::Persistence(msg)) = &e {
                        self.health.record_persist_error(msg);
                    }
                    Reply::Value(Response::Error(e.to_string()))
                }
            }
        };
        if matches!(reply, Reply::Value(Response::Error(_))) {
            scope.fail();
        }
        (id, reply)
    }

    /// Read-only degraded mode's answer to a mutation: the typed rejection
    /// (the request was NOT applied; the hint tells idempotent callers
    /// when to retry), while everything else keeps serving from in-memory
    /// state.
    fn reject_degraded(&self) -> Reply {
        self.health.note_rejected();
        let reason = self
            .health
            .last_error()
            .map(|e| format!("storage degraded: {e}"))
            .unwrap_or_else(|| "storage degraded".to_string());
        Reply::Value(Response::Degraded {
            reason,
            retry_after_ms: self.config.degraded_retry_after_ms,
        })
    }

    /// Serve one request for `user`, the id behind its session token:
    /// each arm takes the request apart and forwards it to its handler.
    fn dispatch(
        &self,
        req: Request,
        user: u64,
        scope: &Arc<InFlight>,
    ) -> Result<Reply, ServerError> {
        #[cfg(test)]
        if matches!(&req, Request::Login { username, .. } if username == PANIC_USER) {
            panic!("handler panic for {PANIC_USER}");
        }
        let response = match req {
            Request::RegisterUser { username, password } => {
                self.register_user(&username, &password)?
            }
            Request::Login { username, password } => self.login(&username, &password)?,
            Request::RegisterPe { pe, .. } => self.register(user, BatchItemWire::Pe(pe))?,
            Request::RegisterWorkflow {
                name,
                code,
                description,
                pes,
                ..
            } => self.register(
                user,
                BatchItemWire::Workflow {
                    name,
                    code,
                    description,
                    pes,
                },
            )?,
            Request::RegisterBatch { items, .. } => self.register_batch(user, items)?,
            Request::GetPe { ident, .. } => self.get_pe(&ident)?,
            Request::GetWorkflow { ident, .. } => self.get_workflow(&ident)?,
            Request::GetPesByWorkflow { ident, .. } => self.get_pes_by_workflow(&ident)?,
            Request::GetRegistry { .. } => self.get_registry(),
            Request::Describe { scope, ident, .. } => self.describe(scope, &ident)?,
            Request::UpdatePeDescription {
                ident, description, ..
            } => self.update_description(EntryKind::Pe, &ident, &description)?,
            Request::UpdateWorkflowDescription {
                ident, description, ..
            } => self.update_description(EntryKind::Workflow, &ident, &description)?,
            Request::RemovePe { ident, .. } => self.remove_pe(&ident)?,
            Request::RemoveWorkflow { ident, .. } => self.remove_workflow(&ident)?,
            Request::RemoveAll { .. } => self.remove_all()?,
            Request::SearchLiteral {
                scope, term, top_n, ..
            } => self.literal_search(scope, &term, top_n),
            Request::SearchSemantic {
                scope,
                query,
                top_n,
                ..
            } => self.semantic_search(scope, &query, top_n),
            Request::CodeRecommendation {
                scope,
                snippet,
                embedding_type,
                top_n,
                ..
            } => self.recommend(scope, &snippet, embedding_type, top_n),
            Request::CodeCompletion { snippet, .. } => self.complete(&snippet),
            Request::GetExecutions { ident, .. } => self.executions(&ident)?,
            Request::UploadResource { name, bytes, .. } => self.upload_resource(name, bytes),
            Request::Run {
                ident,
                input,
                mode,
                streaming,
                verbose,
                fault,
                task_timeout_ms,
                resources,
                ..
            } => {
                let spec = RunSpec {
                    ident,
                    input,
                    mode,
                    streaming,
                    verbose,
                    fault,
                    task_timeout_ms,
                };
                return self.run(user, spec, &resources, scope);
            }
            Request::Metrics {} => self.metrics_response(),
            Request::Compact { .. } => self.compact()?,
            Request::Health {} => self.health_response(),
        };
        Ok(Reply::Value(response))
    }
}

/// One request's endpoint accounting — in-flight gauge, latency, error
/// count — opened by [`LaminarServer::handle_envelope`] and settled when
/// its last holder drops it: `handle_envelope` itself for a value reply,
/// the run's frame consumer for a stream.
pub(crate) struct InFlight {
    pub(crate) id: RequestId,
    ep: Arc<EndpointMetrics>,
    start: std::time::Instant,
    failed: AtomicBool,
}

impl InFlight {
    /// Count the request as an error when it settles.
    pub(crate) fn fail(&self) {
        self.failed.store(true, Ordering::Relaxed);
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        if *self.failed.get_mut() {
            self.ep.errors.inc();
        }
        self.ep.latency.record(self.start.elapsed());
        self.ep.in_flight.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::reco::sweep_workflows;
    use laminar_registry::ExecutionStatus;
    use spt::Spt;

    const PRODUCER: &str = "class NumberProducer(ProducerPE):\n    def _process(self, inputs):\n        return random.randint(1, 1000)\n";
    const ISPRIME: &str = "class IsPrime(IterativePE):\n    def _process(self, num):\n        if all(num % i != 0 for i in range(2, num)):\n            return num\n";
    const PRINTER: &str = "class PrintPrime(ConsumerPE):\n    def _process(self, num):\n        print('the num {} is prime'.format(num))\n";

    fn server_with_session() -> (LaminarServer, Token) {
        let server = LaminarServer::with_stock();
        let token = session(&server);
        (server, token)
    }

    fn session(server: &LaminarServer) -> Token {
        match server
            .handle(Request::RegisterUser {
                username: "rosa".into(),
                password: "pw".into(),
            })
            .value()
        {
            Response::Token(t) => t,
            other => panic!("{other:?}"),
        }
    }

    fn register_isprime(server: &LaminarServer, token: Token) -> (Vec<(String, u64)>, u64) {
        let resp = server
            .handle(Request::RegisterWorkflow {
                token,
                name: "isprime_wf".into(),
                code: format!("{PRODUCER}\n{ISPRIME}\n{PRINTER}"),
                description: None,
                pes: vec![
                    PeSubmission {
                        name: "NumberProducer".into(),
                        code: PRODUCER.into(),
                        description: None,
                    },
                    PeSubmission {
                        name: "IsPrime".into(),
                        code: ISPRIME.into(),
                        description: None,
                    },
                    PeSubmission {
                        name: "PrintPrime".into(),
                        code: PRINTER.into(),
                        description: None,
                    },
                ],
            })
            .value();
        match resp {
            Response::Registered {
                pe_ids,
                workflow_id,
            } => (pe_ids, workflow_id.unwrap().1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn auth_required() {
        let server = LaminarServer::with_stock();
        let resp = server.handle(Request::GetRegistry { token: 999 }).value();
        assert_eq!(resp, Response::Error("not logged in".into()));
    }

    #[test]
    fn register_login_flow() {
        let (server, _) = server_with_session();
        // Duplicate user rejected.
        let resp = server
            .handle(Request::RegisterUser {
                username: "rosa".into(),
                password: "pw2".into(),
            })
            .value();
        assert!(matches!(resp, Response::Error(_)));
        // Login works and mints a new token.
        let resp = server
            .handle(Request::Login {
                username: "rosa".into(),
                password: "pw".into(),
            })
            .value();
        assert!(matches!(resp, Response::Token(_)));
    }

    #[test]
    fn workflow_registration_like_fig5a() {
        let (server, token) = server_with_session();
        let (pe_ids, wf_id) = register_isprime(&server, token);
        assert_eq!(pe_ids.len(), 3, "Found PEs: producer, isprime, print");
        assert!(wf_id > 0);
        // Auto-descriptions were generated (§IV-C).
        let pe = server.registry().get_pe(pe_ids[1].1).unwrap();
        assert!(
            pe.description.to_lowercase().contains("prime"),
            "{}",
            pe.description
        );
        // Idempotent re-registration reuses PEs but fails on workflow name.
        let resp = server
            .handle(Request::RegisterWorkflow {
                token,
                name: "isprime_wf".into(),
                code: "x = 1".into(),
                description: None,
                pes: vec![PeSubmission {
                    name: "IsPrime".into(),
                    code: ISPRIME.into(),
                    description: None,
                }],
            })
            .value();
        assert!(matches!(resp, Response::Error(_)));
    }

    #[test]
    fn get_and_describe() {
        let (server, token) = server_with_session();
        let (pe_ids, wf_id) = register_isprime(&server, token);
        // By id and by name.
        let by_id = server
            .handle(Request::GetPe {
                token,
                ident: Ident::Id(pe_ids[0].1),
            })
            .value();
        let by_name = server
            .handle(Request::GetPe {
                token,
                ident: Ident::Name("NumberProducer".into()),
            })
            .value();
        assert_eq!(by_id, by_name);
        // PEs by workflow, in order.
        let resp = server
            .handle(Request::GetPesByWorkflow {
                token,
                ident: Ident::Id(wf_id),
            })
            .value();
        match resp {
            Response::Pes(pes) => {
                assert_eq!(
                    pes.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
                    vec!["NumberProducer", "IsPrime", "PrintPrime"]
                );
            }
            other => panic!("{other:?}"),
        }
        // Describe returns description + code.
        let resp = server
            .handle(Request::Describe {
                token,
                scope: SearchScope::Pe,
                ident: Ident::Name("IsPrime".into()),
            })
            .value();
        match resp {
            Response::Description(d) => assert!(d.contains("class IsPrime")),
            other => panic!("{other:?}"),
        }
        // `Both` resolves a PE name first, then a workflow's.
        for (name, source) in [
            ("IsPrime", "class IsPrime"),
            ("isprime_wf", "class NumberProducer"),
        ] {
            let resp = server
                .handle(Request::Describe {
                    token,
                    scope: SearchScope::Both,
                    ident: Ident::Name(name.into()),
                })
                .value();
            match resp {
                Response::Description(d) => assert!(d.contains(source), "{name}: {d}"),
                other => panic!("{name}: {other:?}"),
            }
        }
    }

    #[test]
    fn literal_search_fig7() {
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        let resp = server
            .handle(Request::SearchLiteral {
                token,
                scope: SearchScope::Both,
                term: "prime".to_string(),
                top_n: None,
            })
            .value();
        match resp {
            Response::Registry { pes, workflows } => {
                assert!(pes.len() >= 2, "IsPrime + PrintPrime");
                assert_eq!(workflows.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn semantic_search_fig8() {
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        server
            .handle(Request::RegisterPe {
                token,
                pe: PeSubmission {
                    name: "AnomalyDetectionPE".into(),
                    code: "class AnomalyDetectionPE(IterativePE):\n    \"\"\"Anomaly detection PE: flags sensor values deviating from the mean.\"\"\"\n    def _process(self, record):\n        if abs(record['value'] - self.mean) > self.threshold:\n            return record\n".to_string(),
                    description: None,
                },
            })
            .value();
        let resp = server
            .handle(Request::SearchSemantic {
                token,
                scope: SearchScope::Pe,
                query: "a pe that is able to detect anomalies".into(),
                top_n: None,
            })
            .value();
        match resp {
            Response::SemanticResults(hits) => {
                assert!(!hits.is_empty());
                assert_eq!(hits[0].name, "AnomalyDetectionPE", "{hits:?}");
                assert!(
                    hits[0].cosine_similarity > hits.last().unwrap().cosine_similarity
                        || hits.len() == 1
                );
                assert!(hits.len() <= 5, "top-5 default");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn code_recommendation_fig9() {
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        // PE recommendation with the default SPT embedding.
        let resp = server
            .handle(Request::CodeRecommendation {
                token,
                scope: SearchScope::Pe,
                snippet: "random.randint(1, 1000)".into(),
                embedding_type: EmbeddingType::Spt,
                top_n: None,
            })
            .value();
        match resp {
            Response::Recommendations(hits) => {
                assert!(!hits.is_empty());
                assert_eq!(hits[0].name, "NumberProducer");
                assert!(hits[0].score >= 6.0);
                assert!(
                    hits[0].similar_code.contains("def _process"),
                    "{}",
                    hits[0].similar_code
                );
            }
            other => panic!("{other:?}"),
        }
        // Workflow recommendation (spt only, per the paper's note).
        let resp = server
            .handle(Request::CodeRecommendation {
                token,
                scope: SearchScope::Workflow,
                snippet: "random.randint(1, 1000)".into(),
                embedding_type: EmbeddingType::Spt,
                top_n: None,
            })
            .value();
        match resp {
            Response::Recommendations(hits) => {
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].name, "isprime_wf");
                assert_eq!(hits[0].occurrences, 1);
            }
            other => panic!("{other:?}"),
        }
        // LLM embedding type still supported.
        let resp = server
            .handle(Request::CodeRecommendation {
                token,
                scope: SearchScope::Pe,
                snippet: ISPRIME.into(),
                embedding_type: EmbeddingType::Llm,
                top_n: None,
            })
            .value();
        match resp {
            Response::Recommendations(hits) => {
                assert!(!hits.is_empty());
                assert_eq!(hits[0].name, "IsPrime");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn both_scope_returns_pe_and_workflow_hits() {
        // Regression: the old dispatch matched `Both` into the PE-only
        // arm, so a `Both` recommendation never contained a workflow.
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        for embedding_type in [EmbeddingType::Spt, EmbeddingType::Llm] {
            let resp = server
                .handle(Request::CodeRecommendation {
                    token,
                    scope: SearchScope::Both,
                    snippet: PRODUCER.into(),
                    embedding_type,
                    top_n: None,
                })
                .value();
            match resp {
                Response::Recommendations(hits) => {
                    assert!(
                        hits.iter().any(|h| h.name == "NumberProducer"),
                        "{embedding_type:?}: {hits:?}"
                    );
                    assert!(
                        hits.iter().any(|h| h.name == "isprime_wf"),
                        "{embedding_type:?}: {hits:?}"
                    );
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn recommendations_come_from_the_full_pipeline() {
        // Served hits must agree with a direct `AromaEngine::recommend`
        // over the same snapshot — pipeline fields included.
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        let snippet = "random.randint(1, 1000)";
        let direct = server.indexes().engine().recommend(snippet);
        assert!(!direct.is_empty());
        let resp = server
            .handle(Request::CodeRecommendation {
                token,
                scope: SearchScope::Pe,
                snippet: snippet.into(),
                embedding_type: EmbeddingType::Spt,
                top_n: None,
            })
            .value();
        let Response::Recommendations(hits) = resp else {
            panic!("{resp:?}");
        };
        assert_eq!(hits.len(), direct.len().min(5));
        for (h, r) in hits.iter().zip(&direct) {
            assert_eq!(h.id, r.seed_id);
            assert_eq!(h.score.to_bits(), r.retrieval_score.to_bits());
            assert_eq!(h.cluster_size, r.cluster_size);
            assert_eq!(h.common_core, r.code);
            assert!(h.cluster_size >= 1);
            assert!(!h.common_core.is_empty());
        }
        let snap = server.metrics().snapshot();
        assert_eq!(snap.groups.reco.requests, 1);
        assert_eq!(snap.groups.reco.pipeline_runs, 1);
        let stages = &snap.groups.reco;
        for stage in [
            &stages.retrieve_us,
            &stages.prune_us,
            &stages.cluster_us,
            &stages.intersect_us,
        ] {
            assert_eq!(stage.count, 1);
        }
    }

    #[test]
    fn code_completion_suggests_remainder() {
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        // The developer has typed the beginning of an IsPrime-like PE.
        let snippet = "class MyPrime(IterativePE):\n    def _process(self, num):\n        if all(num % i != 0 for i in range(2, num)):";
        let resp = server
            .handle(Request::CodeCompletion {
                token,
                snippet: snippet.into(),
            })
            .value();
        match resp {
            Response::Completion {
                source,
                lines,
                progress,
            } => {
                let (_, name) = source.expect("a source PE");
                assert_eq!(name, "IsPrime");
                assert!(progress > 0.0);
                assert!(lines.iter().any(|l| l.contains("return num")), "{lines:?}");
            }
            other => panic!("{other:?}"),
        }
        // Unrelated fragment: no completion.
        let resp = server
            .handle(Request::CodeCompletion {
                token,
                snippet: "import xml\n".into(),
            })
            .value();
        match resp {
            Response::Completion { source, lines, .. } => {
                assert!(source.is_none(), "{source:?}");
                assert!(lines.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn workflow_recommendation_equals_the_sweep_over_a_naive_pe_ranking() {
        let (server, token) = server_with_session();
        let acc = |var: &str, k: u32| {
            format!("class Sum{var}(IterativePE):\n    def _process(self, data):\n        total = {k}\n        for item in data:\n            total += item\n        return total\n")
        };
        let pes = [
            ("SumA", acc("A", 0)),
            ("SumB", acc("B", 1)),
            ("Reader", "class Reader(ProducerPE):\n    def _process(self, path):\n        with open(path) as fh:\n            return fh.read()\n".to_string()),
            ("PrintPrime", PRINTER.to_string()),
        ];
        // Workflows share members: a PE name the user owns is reused.
        for (name, members) in [
            ("wf_sums", &[0usize, 1][..]),
            ("wf_sum_read", &[1, 2]),
            ("wf_all", &[0, 1, 2, 3]),
            ("wf_print", &[3]),
        ] {
            let resp = server
                .handle(Request::RegisterWorkflow {
                    token,
                    name: name.into(),
                    code: members.iter().map(|&m| pes[m].1.as_str()).collect(),
                    description: Some(format!("workflow {name}")),
                    pes: members
                        .iter()
                        .map(|&m| PeSubmission {
                            name: pes[m].0.into(),
                            code: pes[m].1.clone(),
                            description: Some(format!("pe {m}")),
                        })
                        .collect(),
                })
                .value();
            assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        }
        assert_eq!(server.registry().all_pes().len(), pes.len());

        let snippet = "total = 0\nfor item in data:\n    total += item\nreturn total\n";
        let q = Spt::parse_source(snippet).feature_vec();
        let min_score = server.config().reco_min_score;
        let mut pe_hits: Vec<(u64, f32)> = server
            .registry()
            .all_pes()
            .iter()
            .map(|p| (p.id, q.overlap(&Spt::parse_source(&p.code).feature_vec())))
            .filter(|&(_, score)| score >= min_score)
            .collect();
        pe_hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        assert!(
            (2..pes.len()).contains(&pe_hits.len()),
            "the accumulators match, not every PE does: {pe_hits:?}"
        );
        let want = server
            .registry()
            .with_workflow_members(|members| sweep_workflows(&pe_hits, members));
        assert!(want.len() >= 3, "{want:?}");

        let resp = server
            .handle(Request::CodeRecommendation {
                token,
                scope: SearchScope::Workflow,
                snippet: snippet.into(),
                embedding_type: EmbeddingType::Spt,
                top_n: Some(10),
            })
            .value();
        let Response::Recommendations(hits) = resp else {
            panic!("{resp:?}");
        };
        let got: Vec<(u64, u32, usize)> = hits
            .iter()
            .map(|h| (h.id, h.score.to_bits(), h.occurrences))
            .collect();
        let want: Vec<(u64, u32, usize)> = want
            .into_iter()
            .map(|(id, score, n)| (id, score.to_bits(), n))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn code_completion_never_names_a_removed_pe() {
        let (server, token) = server_with_session();
        let register = |name: &str| {
            let resp = server
                .handle(Request::RegisterPe {
                    token,
                    pe: PeSubmission {
                        name: name.into(),
                        code: ISPRIME.replace("IsPrime", name),
                        description: None,
                    },
                })
                .value();
            match resp {
                Response::Registered { pe_ids, .. } => pe_ids[0].1,
                other => panic!("{other:?}"),
            }
        };
        let (first, second) = (register("PrimeOne"), register("PrimeTwo"));
        let complete = || {
            let snippet = "class MyPrime(IterativePE):\n    def _process(self, num):\n        if all(num % i != 0 for i in range(2, num)):";
            let resp = server
                .handle(Request::CodeCompletion {
                    token,
                    snippet: snippet.into(),
                })
                .value();
            match resp {
                Response::Completion { source, lines, .. } => (source.map(|s| s.0), lines),
                other => panic!("{other:?}"),
            }
        };
        // Equal scores: the lower id wins.
        let (winner, lines) = complete();
        assert_eq!(winner, Some(first));
        assert!(lines[0].contains("PrimeOne"), "{lines:?}");
        let resp = server
            .handle(Request::RemovePe {
                token,
                ident: Ident::Id(first),
            })
            .value();
        assert_eq!(resp, Response::Ok);
        // The next call ranks and reads granules on the snapshot without it.
        let (winner, lines) = complete();
        assert_eq!(winner, Some(second));
        assert!(lines[0].contains("PrimeTwo"), "{lines:?}");
    }

    #[test]
    fn update_description_reflected_in_search() {
        let (server, token) = server_with_session();
        let (pe_ids, wf_id) = register_isprime(&server, token);
        let (generation, engine) = (server.indexes().generation(), server.indexes().engine());
        let code_q = Spt::parse_source(PRODUCER).feature_vec();
        let spt_before = server.indexes().rank_spt(&code_q, None, usize::MAX);
        let resp = server
            .handle(Request::UpdatePeDescription {
                token,
                ident: Ident::Id(pe_ids[0].1),
                description: "generates completely random zebra numbers".into(),
            })
            .value();
        assert_eq!(resp, Response::Ok);
        let resp = server
            .handle(Request::UpdateWorkflowDescription {
                token,
                ident: Ident::Id(wf_id),
                description: "a pipeline about okapi herds".into(),
            })
            .value();
        assert_eq!(resp, Response::Ok);
        // One publication per update; only the description embeddings
        // moved — the engine is the very same snapshot.
        assert_eq!(server.indexes().generation(), generation + 2);
        assert!(Arc::ptr_eq(&engine, &server.indexes().engine()));
        assert_eq!(
            server.indexes().rank_spt(&code_q, None, usize::MAX),
            spt_before
        );
        let q = UniXcoderSim::new().embed_text("okapi herds");
        let hits = server.indexes().rank_semantic(&q, None, 1);
        assert_eq!((hits[0].id, hits[0].kind), (wf_id, EntryKind::Workflow));
        let resp = server
            .handle(Request::SearchSemantic {
                token,
                scope: SearchScope::Pe,
                query: "zebra numbers".into(),
                top_n: None,
            })
            .value();
        match resp {
            Response::SemanticResults(hits) => {
                assert_eq!(hits[0].name, "NumberProducer", "{hits:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn top_n_override_caps_results() {
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        let resp = server
            .handle(Request::SearchSemantic {
                token,
                scope: SearchScope::Both,
                query: "prime numbers".into(),
                top_n: Some(1),
            })
            .value();
        match resp {
            Response::SemanticResults(hits) => assert_eq!(hits.len(), 1),
            other => panic!("{other:?}"),
        }
        let resp = server
            .handle(Request::SearchLiteral {
                token,
                scope: SearchScope::Both,
                term: "prime".to_string(),
                top_n: Some(1),
            })
            .value();
        match resp {
            Response::Registry { pes, workflows } => {
                // The first match in id order; PrintPrime matches too.
                assert_eq!(pes.len(), 1);
                assert_eq!(pes[0].name, "IsPrime");
                assert_eq!(workflows.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        // The empty term matches every row and is capped all the same.
        let resp = server
            .handle(Request::SearchLiteral {
                token,
                scope: SearchScope::Pe,
                term: String::new(),
                top_n: Some(2),
            })
            .value();
        match resp {
            Response::Registry { pes, workflows } => {
                let names: Vec<&str> = pes.iter().map(|p| p.name.as_str()).collect();
                assert_eq!(names, ["NumberProducer", "IsPrime"]);
                assert!(workflows.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn warm_load_rebuilds_indexes_from_registry() {
        // Populate a durable registry, reopen its directory in a fresh
        // server (no compaction, so no index cache), and verify the indexes
        // were re-analysed from the stored rows at startup.
        use laminar_registry::PersistOptions;
        let dir = std::env::temp_dir().join(format!("laminar-warmload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            LaminarServer::new(
                Registry::open(&dir, PersistOptions::default()).unwrap(),
                ExecutionEngine::with_stock(),
                ServerConfig::default(),
            )
        };
        let server = open();
        register_isprime(&server, session(&server));
        drop(server);
        let server2 = open();
        std::fs::remove_dir_all(&dir).ok();
        assert!(!dir.exists());
        assert_eq!(server2.indexes().counts(), (3, 1));
        assert_eq!(server2.indexes().engine().len(), 3);
        assert_eq!(
            server2.indexes().generation(),
            1,
            "a warm load is one publication, not one per row"
        );
        // The engine was handed the re-analysed SPT vectors; it must
        // recommend exactly like one that parsed and featurised the same
        // rows.
        let engine = server2.indexes().engine();
        let mut fresh = aroma::AromaEngine::new(engine.config().clone());
        let held = engine.index();
        fresh.add_batch(held.ids().map(|id| held.get(id).unwrap().clone()).collect());
        for query in ["random.randint(1, 1000)", ISPRIME, "print('the num')"] {
            let (got, got_stats) = engine.recommend_with_stats(query);
            let (want, want_stats) = fresh.recommend_with_stats(query);
            let key = |r: &aroma::Recommendation| {
                (
                    r.seed_id,
                    r.code.clone(),
                    r.score.to_bits(),
                    r.retrieval_score.to_bits(),
                    r.cluster_size,
                )
            };
            assert_eq!(
                got.iter().map(key).collect::<Vec<_>>(),
                want.iter().map(key).collect::<Vec<_>>(),
                "{query:?}"
            );
            assert_eq!(
                (got_stats.retrieved, got_stats.pruned, got_stats.clusters),
                (want_stats.retrieved, want_stats.pruned, want_stats.clusters),
                "{query:?}"
            );
        }
        let token2 = match server2
            .handle(Request::Login {
                username: "rosa".into(),
                password: "pw".into(),
            })
            .value()
        {
            Response::Token(t) => t,
            other => panic!("{other:?}"),
        };
        let resp = server2
            .handle(Request::CodeRecommendation {
                token: token2,
                scope: SearchScope::Pe,
                snippet: "random.randint(1, 1000)".into(),
                embedding_type: EmbeddingType::Spt,
                top_n: None,
            })
            .value();
        match resp {
            Response::Recommendations(hits) => {
                assert_eq!(
                    hits.first().map(|h| h.name.as_str()),
                    Some("NumberProducer")
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn search_metrics_track_queries_and_index_size() {
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        server
            .handle(Request::SearchSemantic {
                token,
                scope: SearchScope::Pe,
                query: "prime".into(),
                top_n: None,
            })
            .value();
        let snap = server.metrics().snapshot();
        assert_eq!(snap.groups.search.semantic_us.count, 1);
        assert_eq!(snap.groups.search.index_pes, 3);
        assert_eq!(snap.groups.search.index_workflows, 1);
        server
            .handle(Request::RemoveWorkflow {
                token,
                ident: Ident::Name("isprime_wf".into()),
            })
            .value();
        let snap = server.metrics().snapshot();
        assert_eq!(snap.groups.search.index_workflows, 0);
    }

    #[test]
    fn remove_pe_fk_and_remove_all() {
        let (server, token) = server_with_session();
        let (pe_ids, wf_id) = register_isprime(&server, token);
        // PE referenced by workflow → FK error.
        let resp = server
            .handle(Request::RemovePe {
                token,
                ident: Ident::Id(pe_ids[0].1),
            })
            .value();
        assert!(matches!(resp, Response::Error(_)));
        // Remove the workflow, then the PE.
        server
            .handle(Request::RemoveWorkflow {
                token,
                ident: Ident::Id(wf_id),
            })
            .value();
        let resp = server
            .handle(Request::RemovePe {
                token,
                ident: Ident::Id(pe_ids[0].1),
            })
            .value();
        assert_eq!(resp, Response::Ok);
        assert_eq!(server.indexes().engine().len(), 2, "the snippet went too");
        // remove_all clears the rest.
        server.handle(Request::RemoveAll { token }).value();
        assert_eq!(server.registry().counts(), (0, 0));
        assert!(server.indexes().is_empty());
        assert!(server.indexes().engine().is_empty());
    }

    #[test]
    fn durable_registry_recovers_and_compacts_via_server() {
        use laminar_registry::PersistOptions;
        let dir =
            std::env::temp_dir().join(format!("laminar-server-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let server = LaminarServer::new(
                Registry::open(&dir, PersistOptions::default()).unwrap(),
                ExecutionEngine::with_stock(),
                ServerConfig::default(),
            );
            let token = match server
                .handle(Request::RegisterUser {
                    username: "rosa".into(),
                    password: "pw".into(),
                })
                .value()
            {
                Response::Token(t) => t,
                other => panic!("{other:?}"),
            };
            register_isprime(&server, token);
            // The persistence row group is live in the metrics snapshot.
            let snap = match server.handle(Request::Metrics {}).value() {
                Response::Metrics(s) => *s,
                other => panic!("{other:?}"),
            };
            let p = snap.persistence.as_ref().expect("a WAL-backed registry");
            assert!(p.wal_appends >= 5, "{snap:?}");
            // Explicit compaction through the endpoint.
            match server.handle(Request::Compact { token }).value() {
                Response::Compacted {
                    wal_records,
                    snapshot_bytes,
                    ..
                } => {
                    assert!(wal_records >= 5);
                    assert!(snapshot_bytes > 0);
                }
                other => panic!("{other:?}"),
            }
            let snap = match server.handle(Request::Metrics {}).value() {
                Response::Metrics(s) => *s,
                other => panic!("{other:?}"),
            };
            let p = snap.persistence.as_ref().expect("a WAL-backed registry");
            assert_eq!(p.wal_records, 0, "WAL truncated");
            assert_eq!(p.compactions, 1);
        }
        // Restart: snapshot + WAL recovery, indexes warm-loaded, sessions
        // and credentials intact.
        let server2 = LaminarServer::new(
            Registry::open(&dir, PersistOptions::default()).unwrap(),
            ExecutionEngine::with_stock(),
            ServerConfig::default(),
        );
        assert_eq!(server2.indexes().counts(), (3, 1));
        let token2 = match server2
            .handle(Request::Login {
                username: "rosa".into(),
                password: "pw".into(),
            })
            .value()
        {
            Response::Token(t) => t,
            other => panic!("{other:?}"),
        };
        match server2
            .handle(Request::GetWorkflow {
                token: token2,
                ident: Ident::Name("isprime_wf".into()),
            })
            .value()
        {
            Response::Workflow(wf) => assert_eq!(wf.pe_ids.len(), 3),
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();

        // Without a data directory, Compact reports the missing config and
        // the metrics row group stays disabled — exactly today's behaviour.
        let (server3, token3) = server_with_session();
        assert!(matches!(
            server3.handle(Request::Compact { token: token3 }).value(),
            Response::Error(_)
        ));
        let snap = match server3.handle(Request::Metrics {}).value() {
            Response::Metrics(s) => *s,
            other => panic!("{other:?}"),
        };
        assert_eq!(snap.persistence, None);
    }

    #[test]
    fn run_streaming_end_to_end() {
        let (server, token) = server_with_session();
        let (_, wf_id) = register_isprime(&server, token);
        let reply = server.handle(Request::Run {
            token,
            ident: Ident::Id(wf_id),
            input: RunInputWire::Iterations(20),
            mode: RunMode::Multiprocess { processes: 9 },
            streaming: true,
            verbose: true,
            resources: vec![],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        });
        let out = reply.drain().unwrap();
        assert!(out.ok);
        assert!(!out.lines.is_empty());
        for l in &out.lines {
            assert!(l.contains("is prime"), "{l}");
        }
        assert!(
            !out.summaries.is_empty(),
            "verbose run includes rank summaries"
        );
        // Execution + response recorded in the registry.
        let execs = server.registry().executions_for(wf_id);
        assert_eq!(execs.len(), 1);
        assert_eq!(execs[0].status, ExecutionStatus::Completed);
        let resps = server.registry().responses_for(execs[0].id);
        assert_eq!(resps.len(), 1);
        assert!(resps[0].output.contains("is prime"));
        let enactment = server.metrics().snapshot().groups.enactment;
        assert_eq!((enactment.runs, enactment.runs_failed), (1, 0));
    }

    /// A multi run asking for more than `d4py::MAX_RANKS` ranks is refused
    /// with an error frame before any rank starts, and the server serves
    /// the next run. 65, not a huge count: were the check gone, the run
    /// would start at most 65 threads.
    #[test]
    fn run_above_max_ranks_is_refused_and_the_next_run_is_served() {
        let (server, token) = server_with_session();
        let (_, wf_id) = register_isprime(&server, token);
        let run = |processes| {
            server
                .handle(Request::Run {
                    token,
                    ident: Ident::Id(wf_id),
                    input: RunInputWire::Iterations(5),
                    mode: RunMode::Multiprocess { processes },
                    streaming: true,
                    verbose: false,
                    resources: vec![],
                    fault: FaultPolicyWire::default(),
                    task_timeout_ms: None,
                })
                .drain()
        };
        let refused = d4py::GraphError::TooManyRanks {
            requested: d4py::MAX_RANKS + 1,
            maximum: d4py::MAX_RANKS,
        };
        match run(d4py::MAX_RANKS + 1) {
            Err(RunFailure::Server(msg)) => assert!(msg.contains(&refused.to_string()), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert!(run(9).unwrap().ok);
    }

    /// A run asking for more than `d4py::MAX_RUN_ITEMS` items is refused
    /// with the typed error before any work, and the next run is served.
    /// Unbounded, one request's dynamic run would queue every item before
    /// its first worker starts.
    #[test]
    fn run_above_max_run_items_is_refused_and_the_next_run_is_served() {
        let (server, token) = server_with_session();
        let (_, wf_id) = register_isprime(&server, token);
        let run = |items| {
            server
                .handle(Request::Run {
                    token,
                    ident: Ident::Id(wf_id),
                    input: RunInputWire::Iterations(items),
                    mode: RunMode::Dynamic,
                    streaming: true,
                    verbose: false,
                    resources: vec![],
                    fault: FaultPolicyWire::default(),
                    task_timeout_ms: None,
                })
                .drain()
        };
        let refused = d4py::GraphError::TooManyItems {
            requested: d4py::MAX_RUN_ITEMS + 1,
            maximum: d4py::MAX_RUN_ITEMS,
        };
        match run(d4py::MAX_RUN_ITEMS + 1) {
            Err(RunFailure::Server(msg)) => assert!(msg.contains(&refused.to_string()), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert!(run(5).unwrap().ok);
    }

    #[test]
    fn run_with_missing_resources_asks_for_upload() {
        let (server, token) = server_with_session();
        let (_, wf_id) = register_isprime(&server, token);
        let data = b"resource-bytes".to_vec();
        let reply = server.handle(Request::Run {
            token,
            ident: Ident::Id(wf_id),
            input: RunInputWire::Iterations(1),
            mode: RunMode::Sequential,
            streaming: false,
            verbose: false,
            resources: vec![ResourceRefWire {
                name: "input.csv".into(),
                content_hash: content_hash(&data),
            }],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        });
        match reply.value() {
            Response::NeedResources(names) => assert_eq!(names, vec!["input.csv"]),
            other => panic!("{other:?}"),
        }
        // Upload, then the same run succeeds.
        server
            .handle(Request::UploadResource {
                token,
                name: "input.csv".into(),
                bytes: data.clone(),
            })
            .value();
        let reply = server.handle(Request::Run {
            token,
            ident: Ident::Id(wf_id),
            input: RunInputWire::Iterations(3),
            mode: RunMode::Sequential,
            streaming: false,
            verbose: false,
            resources: vec![ResourceRefWire {
                name: "input.csv".into(),
                content_hash: content_hash(&data),
            }],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        });
        assert!(reply.drain().unwrap().ok);
        assert_eq!(server.resources().stats().bytes_received, data.len() as u64);
    }

    #[test]
    fn run_dynamic_single_call_listing3() {
        // Listing 3: `client.run_dynamic(graph, input=5)` — no broker
        // parameters anywhere in the request.
        let (server, token) = server_with_session();
        let (_, wf_id) = register_isprime(&server, token);
        let reply = server.handle(Request::Run {
            token,
            ident: Ident::Id(wf_id),
            input: RunInputWire::Iterations(5),
            mode: RunMode::Dynamic,
            streaming: true,
            verbose: false,
            resources: vec![],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        });
        assert!(reply.drain().unwrap().ok);
    }

    #[test]
    fn run_unknown_workflow_errors() {
        let (server, token) = server_with_session();
        let reply = server.handle(Request::Run {
            token,
            ident: Ident::Name("missing".into()),
            input: RunInputWire::Iterations(1),
            mode: RunMode::Sequential,
            streaming: false,
            verbose: false,
            resources: vec![],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        });
        assert!(matches!(reply.value(), Response::Error(_)));
    }

    #[test]
    fn metrics_endpoint_reports_request_accounting() {
        let (server, token) = server_with_session();
        server.handle(Request::GetRegistry { token }).value();
        server.handle(Request::GetRegistry { token }).value();
        // An auth failure counts as an error on its endpoint.
        server.handle(Request::GetRegistry { token: 999 }).value();
        let snap = match server.handle(Request::Metrics {}).value() {
            Response::Metrics(s) => *s,
            other => panic!("{other:?}"),
        };
        let ep = snap
            .endpoints
            .iter()
            .find(|e| e.endpoint == "GetRegistry")
            .expect("GetRegistry endpoint tracked");
        assert_eq!(ep.requests, 3);
        assert_eq!(ep.errors, 1);
        assert_eq!(ep.in_flight, 0);
        assert_eq!(ep.latency.count, 3);
    }

    #[test]
    fn newer_protocol_version_gets_typed_unsupported() {
        let (server, token) = server_with_session();
        let env = RequestEnvelope {
            protocol_version: 99,
            body: Request::GetRegistry { token },
        };
        let (_, reply) = server.handle_envelope(env);
        match reply.value() {
            Response::Unsupported {
                server_version,
                client_version,
            } => {
                assert_eq!(server_version, PROTOCOL_VERSION);
                assert_eq!(client_version, 99);
            }
            other => panic!("{other:?}"),
        }
        let snap = server.metrics().snapshot();
        let ep = snap
            .endpoints
            .iter()
            .find(|e| e.endpoint == "GetRegistry")
            .unwrap();
        assert_eq!(ep.rejections, 1);
    }

    #[test]
    fn older_and_bare_envelopes_get_typed_unsupported() {
        let (server, token) = server_with_session();
        let v8 = RequestEnvelope {
            protocol_version: 8,
            body: Request::GetRegistry { token },
        };
        let bare: RequestEnvelope =
            serde_json::from_str(&format!(r#"{{"GetRegistry":{{"token":{token}}}}}"#)).unwrap();
        for (env, client_version) in [(v8, 8), (bare, 1)] {
            let (_, reply) = server.handle_envelope(env);
            assert_eq!(
                reply.value(),
                Response::Unsupported {
                    server_version: PROTOCOL_VERSION,
                    client_version,
                }
            );
        }
        let snap = server.metrics().snapshot();
        let ep = snap
            .endpoints
            .iter()
            .find(|e| e.endpoint == "GetRegistry")
            .unwrap();
        assert_eq!((ep.requests, ep.rejections, ep.errors), (2, 2, 0));
        assert_eq!(ep.latency.count, 0, "rejected before dispatch");
    }

    #[test]
    fn streamed_replies_begin_with_the_request_id() {
        let (server, token) = server_with_session();
        let (_, wf_id) = register_isprime(&server, token);
        let (id, reply) = server.handle_envelope(RequestEnvelope::new(Request::Run {
            token,
            ident: Ident::Id(wf_id),
            input: RunInputWire::Iterations(3),
            mode: RunMode::Sequential,
            streaming: true,
            verbose: false,
            resources: vec![],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        }));
        match reply {
            Reply::Stream(rx) => {
                let frames: Vec<WireFrame> = rx.iter().collect();
                assert_eq!(frames[0], WireFrame::Begin { request_id: id.0 });
                let begins = frames
                    .iter()
                    .filter(|f| matches!(f, WireFrame::Begin { .. }));
                assert_eq!(begins.count(), 1, "{frames:?}");
            }
            _ => panic!("expected stream"),
        }
    }

    fn batch_items() -> Vec<BatchItemWire> {
        vec![
            BatchItemWire::Pe(PeSubmission {
                name: "Standalone".into(),
                code:
                    "class Standalone(IterativePE):\n    def _process(self, d):\n        return d\n"
                        .into(),
                description: None,
            }),
            BatchItemWire::Workflow {
                name: "isprime_wf".into(),
                code: format!("{PRODUCER}\n{ISPRIME}\n{PRINTER}"),
                description: None,
                pes: vec![
                    PeSubmission {
                        name: "NumberProducer".into(),
                        code: PRODUCER.into(),
                        description: None,
                    },
                    PeSubmission {
                        name: "IsPrime".into(),
                        code: ISPRIME.into(),
                        description: None,
                    },
                    PeSubmission {
                        name: "PrintPrime".into(),
                        code: PRINTER.into(),
                        description: None,
                    },
                ],
            },
            BatchItemWire::Workflow {
                name: "primes_again".into(),
                code: format!("{PRODUCER}\n{ISPRIME}"),
                description: Some("re-uses the prime members".into()),
                // Duplicates of the previous item's members: reused, not
                // re-created.
                pes: vec![
                    PeSubmission {
                        name: "NumberProducer".into(),
                        code: PRODUCER.into(),
                        description: None,
                    },
                    PeSubmission {
                        name: "IsPrime".into(),
                        code: ISPRIME.into(),
                        description: None,
                    },
                ],
            },
        ]
    }

    /// Send one registration unit either as the single-registration
    /// request of its shape or as a `RegisterBatch` of one, and report it
    /// in the batch outcome shape (a single `Error` carries no ids).
    fn register_unit(
        server: &LaminarServer,
        token: Token,
        item: BatchItemWire,
        as_batch: bool,
    ) -> Result<BatchOutcomeWire, String> {
        let req = match item {
            item if as_batch => Request::RegisterBatch {
                token,
                items: vec![item],
            },
            BatchItemWire::Pe(pe) => Request::RegisterPe { token, pe },
            BatchItemWire::Workflow {
                name,
                code,
                description,
                pes,
            } => Request::RegisterWorkflow {
                token,
                name,
                code,
                description,
                pes,
            },
        };
        match server.handle(req).value() {
            Response::Registered {
                pe_ids,
                workflow_id,
            } => Ok(BatchOutcomeWire::Registered {
                pe_ids,
                workflow_id,
            }),
            Response::BatchRegistered { mut outcomes } => {
                assert_eq!(outcomes.len(), 1);
                Ok(outcomes.remove(0))
            }
            Response::Error(e) => Err(e),
            other => panic!("{other:?}"),
        }
    }

    /// The registration scenario table: every row goes through
    /// `RegisterPe` / `RegisterWorkflow` on one server and as a
    /// `RegisterBatch` item on another. There is one write path, so ids,
    /// outcomes, registry rows, name indexes, index contents, generation
    /// and ingest metrics must agree at every step.
    #[test]
    fn registration_scenarios_agree_across_request_shapes() {
        let sub = |name: &str, code: &str| PeSubmission {
            name: name.into(),
            code: code.into(),
            description: None,
        };
        let wf = |name: &str, description: Option<&str>, pes: Vec<PeSubmission>| {
            BatchItemWire::Workflow {
                name: name.into(),
                code: format!("{PRODUCER}\n{ISPRIME}"),
                description: description.map(str::to_string),
                pes,
            }
        };
        struct World {
            server: LaminarServer,
            alice: Token,
            bob: Token,
        }
        let world = || {
            let server = LaminarServer::with_stock();
            let login = |username: &str| match server
                .handle(Request::RegisterUser {
                    username: username.into(),
                    password: "pw".into(),
                })
                .value()
            {
                Response::Token(t) => t,
                other => panic!("{other:?}"),
            };
            let (alice, bob) = (login("alice"), login("bob"));
            World { server, alice, bob }
        };
        let (single, batch) = (world(), world());

        // One scenario on both servers; the two outcomes must be equal
        // (a failed single registration reports only its message).
        let run = |who: fn(&World) -> Token, item: BatchItemWire| {
            let a = register_unit(&single.server, who(&single), item.clone(), false);
            let b = register_unit(&batch.server, who(&batch), item, true);
            match (a, b) {
                (Ok(a), Ok(BatchOutcomeWire::Failed { pe_ids, error })) => {
                    panic!("single registered {a:?}, batch failed {pe_ids:?}: {error}")
                }
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b);
                    Ok(a)
                }
                (Err(a), Ok(BatchOutcomeWire::Failed { error, .. })) | (Err(a), Err(error)) => {
                    assert_eq!(a, error);
                    Err(a)
                }
                (a, b) => panic!("single {a:?}, batch {b:?}"),
            }
        };
        let ids = |outcome: Result<BatchOutcomeWire, String>| match outcome {
            Ok(BatchOutcomeWire::Registered {
                pe_ids,
                workflow_id,
            }) => (
                pe_ids.into_iter().map(|(_, id)| id).collect::<Vec<_>>(),
                workflow_id.map(|(_, id)| id),
            ),
            other => panic!("expected Registered, got {other:?}"),
        };
        let alice: fn(&World) -> Token = |w| w.alice;
        let bob: fn(&World) -> Token = |w| w.bob;
        let counts = || batch.server.registry().counts();
        let generation = || batch.server.indexes().generation();

        // Fresh PE.
        let (hers, _) = ids(run(alice, BatchItemWire::Pe(sub("IsPrime", ISPRIME))));
        assert_eq!(counts(), (1, 0));
        // Duplicate PE, same user, same and different case: her id, no row.
        for name in ["IsPrime", "isprime"] {
            let g = generation();
            let (again, _) = ids(run(alice, BatchItemWire::Pe(sub(name, PRINTER))));
            assert_eq!(again, hers);
            assert_eq!(generation(), g, "nothing created, nothing published");
        }
        assert_eq!(counts(), (1, 0));
        // The same name under another user is a fresh PE of his own…
        let (his, _) = ids(run(bob, BatchItemWire::Pe(sub("IsPrime", ISPRIME))));
        assert_ne!(his, hers);
        // …and re-registering it resolves to his row, never hers.
        let (again, _) = ids(run(bob, BatchItemWire::Pe(sub("ISPRIME", ISPRIME))));
        assert_eq!(again, his);
        assert_eq!(counts(), (2, 0));

        // Workflow with a duplicate and a fresh member, described from
        // its members: one frame, one publication.
        let g = generation();
        let (members, wf_id) = ids(run(
            bob,
            wf(
                "primes",
                None,
                vec![sub("IsPrime", PRINTER), sub("NumberProducer", PRODUCER)],
            ),
        ));
        assert_eq!(members[0], his[0], "his workflow links to his PE");
        assert_eq!(generation(), g + 1, "one publication per registration");
        assert_eq!(counts(), (3, 1));
        let row = batch
            .server
            .registry()
            .get_workflow(wf_id.unwrap())
            .unwrap();
        assert_eq!(row.pe_ids, members);
        assert!(!row.description.is_empty(), "auto-described");

        // Duplicate workflow name: the item fails, its fresh member stays.
        let err = run(
            bob,
            wf("Primes", Some("again"), vec![sub("PrintPrime", PRINTER)]),
        )
        .unwrap_err();
        assert!(err.contains("Primes"), "{err}");
        assert_eq!(counts(), (4, 1));
        // The name is free for another user.
        let (members, _) = ids(run(
            alice,
            wf("primes", Some("hers"), vec![sub("IsPrime", ISPRIME)]),
        ));
        assert_eq!(members, hers);

        // Unknown user: rejected before the write path, in either shape.
        let err = run(|_| 999, BatchItemWire::Pe(sub("Ghost", ISPRIME))).unwrap_err();
        assert_eq!(err, "not logged in");
        assert_eq!(counts(), (4, 2));

        // The two servers are the same server.
        let (a, b) = (&single.server, &batch.server);
        assert_eq!(a.registry().snapshot(), b.registry().snapshot());
        assert_eq!(
            a.registry().debug_name_indexes(),
            b.registry().debug_name_indexes()
        );
        assert_eq!(a.indexes().counts(), b.indexes().counts());
        assert_eq!(a.indexes().counts(), (4, 2));
        assert_eq!(a.indexes().generation(), b.indexes().generation());
        for query in [
            "produces random numbers",
            "checks whether a number is prime",
        ] {
            let q = UniXcoderSim::new().embed_text(query);
            assert_eq!(
                a.indexes().rank_semantic(&q, None, usize::MAX),
                b.indexes().rank_semantic(&q, None, usize::MAX)
            );
        }
        let q = Spt::parse_source(ISPRIME).feature_vec();
        assert_eq!(
            a.indexes().rank_spt(&q, None, usize::MAX),
            b.indexes().rank_spt(&q, None, usize::MAX)
        );
        // The ingest row group describes every registration: eight
        // reached the write path on each server, one failed, six rows.
        let (ma, mb) = (
            a.metrics().snapshot().groups.ingest,
            b.metrics().snapshot().groups.ingest,
        );
        for m in [&ma, &mb] {
            assert_eq!((m.batches, m.items, m.items_failed, m.rows), (8, 8, 1, 6));
            assert_eq!(m.batch_size.count, 8);
            assert_eq!(
                (m.analyze_us.count, m.commit_us.count, m.index_us.count),
                (8, 8, 8)
            );
        }
    }

    #[test]
    fn register_batch_chunking_does_not_matter() {
        // Three items in one request on one server, one request each on
        // another: same outcomes (later items reuse the members an
        // earlier one created, staged or committed), same state.
        let (whole, whole_token) = server_with_session();
        let (chunked, chunked_token) = server_with_session();
        let resp = whole
            .handle(Request::RegisterBatch {
                token: whole_token,
                items: batch_items(),
            })
            .value();
        let Response::BatchRegistered { outcomes } = resp else {
            panic!("expected BatchRegistered, got {resp:?}");
        };
        let one_by_one: Vec<BatchOutcomeWire> = batch_items()
            .into_iter()
            .map(|item| register_unit(&chunked, chunked_token, item, true).unwrap())
            .collect();
        assert_eq!(outcomes, one_by_one);
        // Duplicate members of item 3 resolved to item 2's ids.
        match (&outcomes[1], &outcomes[2]) {
            (
                BatchOutcomeWire::Registered { pe_ids: a, .. },
                BatchOutcomeWire::Registered { pe_ids: b, .. },
            ) => assert_eq!(a[..2], b[..]),
            other => panic!("{other:?}"),
        }
        assert_eq!(whole.registry().snapshot(), chunked.registry().snapshot());
        assert_eq!(whole.indexes().counts(), chunked.indexes().counts());
        let q = Spt::parse_source(ISPRIME).feature_vec();
        assert_eq!(
            whole.indexes().rank_spt(&q, None, usize::MAX),
            chunked.indexes().rank_spt(&q, None, usize::MAX)
        );
        // One publication per request; the same rows either way:
        // 1 standalone + 3 workflow members (2 reused) + 2 workflows.
        assert_eq!(whole.indexes().generation(), 1);
        assert_eq!(chunked.indexes().generation(), 3);
        let (m, c) = (whole.metrics().snapshot(), chunked.metrics().snapshot());
        assert_eq!(
            (
                m.groups.ingest.batches,
                m.groups.ingest.items,
                m.groups.ingest.rows
            ),
            (1, 3, 6)
        );
        assert_eq!(
            (
                c.groups.ingest.batches,
                c.groups.ingest.items,
                c.groups.ingest.rows
            ),
            (3, 3, 6)
        );
    }

    /// `fsyncs_saved` counts the fsyncs a batch's frame really spared:
    /// one frame of three PE rows saves two under `EveryAppend`, and
    /// nothing under `OsBuffered`, where no append is fsynced at all.
    #[test]
    fn register_batch_counts_only_fsyncs_that_happen() {
        use laminar_registry::{PersistOptions, SyncPolicy};
        for (sync, saved) in [(SyncPolicy::OsBuffered, 0), (SyncPolicy::EveryAppend, 2)] {
            let dir = std::env::temp_dir().join(format!(
                "laminar-server-fsyncs-saved-{sync:?}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let opts = PersistOptions {
                sync,
                ..PersistOptions::default()
            };
            let server = LaminarServer::new(
                Registry::open(&dir, opts).unwrap(),
                ExecutionEngine::with_stock(),
                ServerConfig::default(),
            );
            let token = session(&server);
            let items = ["First", "Second", "Third"]
                .map(|name| {
                    BatchItemWire::Pe(PeSubmission {
                        name: name.into(),
                        code: format!(
                            "class {name}(IterativePE):\n    def _process(self, d):\n        return d\n"
                        ),
                        description: None,
                    })
                })
                .to_vec();
            let resp = server
                .handle(Request::RegisterBatch { token, items })
                .value();
            assert!(matches!(resp, Response::BatchRegistered { .. }), "{resp:?}");
            let ingest = server.metrics().snapshot().groups.ingest;
            assert_eq!((ingest.rows, ingest.fsyncs_saved), (3, saved), "{sync:?}");
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn register_batch_reports_partial_failure() {
        let (server, token) = server_with_session();
        // Occupy the workflow name so the batch's second item fails.
        register_isprime(&server, token);
        let before = server.indexes().len();
        let resp = server
            .handle(Request::RegisterBatch {
                token,
                items: vec![
                    BatchItemWire::Pe(PeSubmission {
                        name: "FreshPe".into(),
                        code: "class FreshPe(IterativePE):\n    def _process(self, d):\n        return d\n"
                            .into(),
                        description: Some("passes data through".into()),
                    }),
                    BatchItemWire::Workflow {
                        name: "isprime_wf".into(),
                        code: "# duplicate workflow".into(),
                        description: Some("dup".into()),
                        pes: vec![PeSubmission {
                            name: "NewMember".into(),
                            code: "class NewMember(IterativePE):\n    def _process(self, d):\n        return d\n"
                                .into(),
                            description: None,
                        }],
                    },
                ],
            })
            .value();
        let Response::BatchRegistered { outcomes } = resp else {
            panic!("expected BatchRegistered, got {resp:?}");
        };
        assert!(matches!(
            &outcomes[0],
            BatchOutcomeWire::Registered {
                workflow_id: None,
                ..
            }
        ));
        match &outcomes[1] {
            BatchOutcomeWire::Failed { pe_ids, error } => {
                // The member PE was staged before the workflow failed, and
                // stays.
                assert_eq!(pe_ids.len(), 1);
                assert_eq!(pe_ids[0].0, "NewMember");
                assert!(error.contains("isprime_wf"), "{error}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(server.registry().get_pe_by_name("FreshPe").is_ok());
        assert!(server.registry().get_pe_by_name("NewMember").is_ok());
        // Indexed: the two new PEs, no workflow.
        assert_eq!(server.indexes().len(), before + 2);
        // The ingest rows count every registration: the workflow that
        // occupied the name (4 rows) and this batch's two items.
        let m = server.metrics().snapshot();
        assert_eq!(m.groups.ingest.items, 3);
        assert_eq!(m.groups.ingest.items_failed, 1);
        assert_eq!(m.groups.ingest.rows, 4 + 2);
    }

    #[test]
    fn register_batch_requires_auth() {
        let server = LaminarServer::with_stock();
        let resp = server
            .handle(Request::RegisterBatch {
                token: 999,
                items: vec![],
            })
            .value();
        assert_eq!(resp, Response::Error("not logged in".into()));
    }

    /// A snippet nested 100,000 levels deep — a 200 KB body — reaches the
    /// recursive-descent parser through three endpoints. Each must answer
    /// (a degraded answer is fine, the paper's claim is tolerance of
    /// incomplete code) and the server must still be there afterwards:
    /// a stack overflow is not a panic, it aborts the process.
    #[test]
    fn deeply_nested_snippets_get_a_reply_and_the_server_lives() {
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        let ask = |req| server.handle_envelope(RequestEnvelope::new(req)).1.value();
        for (i, (open, close)) in [("(", ")"), ("[", "]"), ("{", "}")].iter().enumerate() {
            let snippet = format!(
                "class Deep(IterativePE):\n    def _process(self, num):\n        return {}num{}\n",
                open.repeat(100_000),
                close.repeat(100_000)
            );
            let resp = ask(Request::CodeRecommendation {
                token,
                scope: SearchScope::Both,
                snippet: snippet.clone(),
                embedding_type: EmbeddingType::Spt,
                top_n: None,
            });
            assert!(matches!(resp, Response::Recommendations(_)), "{resp:?}");
            let resp = ask(Request::CodeCompletion {
                token,
                snippet: snippet.clone(),
            });
            assert!(matches!(resp, Response::Completion { .. }), "{resp:?}");
            let resp = ask(Request::RegisterPe {
                token,
                pe: PeSubmission {
                    name: format!("Deep{i}"),
                    code: snippet,
                    description: None,
                },
            });
            assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        }
        match ask(Request::Health {}) {
            Response::Health { live, ready, .. } => assert!(live && ready),
            other => panic!("{other:?}"),
        }
        assert_eq!(server.indexes().counts(), (6, 1));
    }

    /// Hostile input, the flat kind: one node with ~66,000 children. Its
    /// SPT label is as long as the literal and every leaf under it names
    /// it in a feature — quadratic unless label bytes are bounded
    /// (`spt::features`). A 200 KB literal used to be an OOM kill.
    #[test]
    fn flat_literals_get_a_reply_and_the_server_lives() {
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        let ask = |req| server.handle_envelope(RequestEnvelope::new(req)).1.value();
        let flat = [
            format!("[{}]", vec!["1"; 66_000].join(", ")),
            format!("{}1", "1<".repeat(100_000)),
        ];
        for (i, literal) in flat.iter().enumerate() {
            assert!(literal.len() >= 198_000);
            let snippet = format!(
                "class Flat(IterativePE):\n    def _process(self, num):\n        x = {literal}\n        return x\n"
            );
            let resp = ask(Request::CodeRecommendation {
                token,
                scope: SearchScope::Both,
                snippet: snippet.clone(),
                embedding_type: EmbeddingType::Spt,
                top_n: None,
            });
            assert!(matches!(resp, Response::Recommendations(_)), "{resp:?}");
            let resp = ask(Request::CodeCompletion {
                token,
                snippet: snippet.clone(),
            });
            assert!(matches!(resp, Response::Completion { .. }), "{resp:?}");
            let resp = ask(Request::RegisterPe {
                token,
                pe: PeSubmission {
                    name: format!("Flat{i}"),
                    code: snippet.clone(),
                    description: None,
                },
            });
            assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
            // Registered, it is now a candidate: retrieved, cut into
            // granules and pruned against its own source.
            let resp = ask(Request::CodeRecommendation {
                token,
                scope: SearchScope::Pe,
                snippet,
                embedding_type: EmbeddingType::Spt,
                top_n: None,
            });
            match resp {
                Response::Recommendations(hits) => {
                    assert!(
                        hits.iter().any(|h| h.name == format!("Flat{i}")),
                        "{hits:?}"
                    )
                }
                other => panic!("{other:?}"),
            }
        }
        match ask(Request::Health {}) {
            Response::Health { live, ready, .. } => assert!(live && ready),
            other => panic!("{other:?}"),
        }
        assert_eq!(server.indexes().counts(), (5, 1));
    }

    /// A run settles its request exactly once: on the terminal frame, on a
    /// disconnect (here: the stream's receiver dropped mid-run), or on a
    /// panicking workflow builder or PE factory (the next two tests).
    #[test]
    fn dropped_stream_receiver_fails_the_execution_and_settles_the_request() {
        let (server, token) = server_with_session();
        // A deliberately slow workflow so the run outlives the receiver.
        server.engine().library().register("slow_wf", || {
            use d4py::prelude::*;
            let mut g = WorkflowGraph::new("slow_wf");
            let src = g.add(ProducerPE::new("Src", |i| Some(Data::from(i as i64))));
            let slow = g.add(IterativePE::new("Slow", |d: Data| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                Some(d)
            }));
            let sink = g.add(ConsumerPE::new("Out", |d: Data, ctx: &mut Context<'_>| {
                ctx.log(format!("{d}"));
            }));
            g.connect(src, OUTPUT, slow, INPUT).unwrap();
            g.connect(slow, OUTPUT, sink, INPUT).unwrap();
            g
        });
        let resp = server
            .handle(Request::RegisterWorkflow {
                token,
                name: "slow_wf".into(),
                code: String::new(),
                description: Some("slow".into()),
                pes: vec![],
            })
            .value();
        assert!(matches!(resp, Response::Registered { .. }));
        let wf_id = server
            .registry()
            .get_workflow_by_name("slow_wf")
            .unwrap()
            .id;

        let reply = server.handle(Request::Run {
            token,
            ident: Ident::Name("slow_wf".into()),
            input: RunInputWire::Iterations(200),
            mode: RunMode::Sequential,
            streaming: true,
            verbose: false,
            resources: vec![],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        });
        match reply {
            Reply::Stream(rx) => {
                // Read one payload frame, then hang up mid-stream.
                for f in rx.iter() {
                    if matches!(f, WireFrame::Line(_)) {
                        break;
                    }
                }
                drop(rx);
            }
            _ => panic!("expected stream"),
        }
        // The run's next frame must find the receiver gone, fail the
        // execution and settle the request's accounting well before the
        // 200 × 5 ms run would finish.
        let run_endpoint = || {
            let snap = server.metrics().snapshot();
            let ep = snap.endpoints.into_iter().find(|e| e.endpoint == "Run");
            ep.expect("Run endpoint tracked")
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            let execs = server.registry().executions_for(wf_id);
            if execs
                .first()
                .is_some_and(|e| e.status == ExecutionStatus::Failed)
                && run_endpoint().in_flight == 0
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "execution not marked failed after disconnect: {execs:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(run_endpoint().errors, 1);
    }

    fn run_request(token: Token, workflow: &str) -> Request {
        Request::Run {
            token,
            ident: Ident::Name(workflow.into()),
            input: RunInputWire::Iterations(5),
            mode: RunMode::Sequential,
            streaming: true,
            verbose: false,
            resources: vec![],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        }
    }

    /// A server whose engine has one container: a run that kept it would
    /// block every later run.
    fn one_container_server() -> LaminarServer {
        let pool = laminar_execengine::PoolConfig {
            max_containers: 1,
            cold_start: std::time::Duration::from_millis(1),
            prewarmed: 0,
        };
        let library = laminar_execengine::WorkflowLibrary::with_stock_workflows();
        let engine = ExecutionEngine::new(pool, library);
        LaminarServer::new(Registry::new(), engine, ServerConfig::default())
    }

    /// A PE factory that hands out its first instance (the one the graph
    /// reads its ports from) and panics on every later call.
    struct PanicOnCreate(AtomicBool);

    impl d4py::graph::PEFactory for PanicOnCreate {
        fn pe_name(&self) -> String {
            "Boom".into()
        }

        fn create(&self) -> Box<dyn d4py::PE> {
            if self.0.swap(true, Ordering::Relaxed) {
                panic!("factory boom");
            }
            Box::new(d4py::ProducerPE::new("Boom", |i| {
                Some(d4py::Data::from(i as i64))
            }))
        }
    }

    #[test]
    fn panicking_run_fails_its_row_and_counts_an_error() {
        let server = one_container_server();
        let token = session(&server);
        register_isprime(&server, token);
        server.engine().library().register("boom_wf", || {
            let mut g = d4py::WorkflowGraph::new("boom_wf");
            g.add(PanicOnCreate(AtomicBool::new(false)));
            g
        });
        let resp = server
            .handle(Request::RegisterWorkflow {
                token,
                name: "boom_wf".into(),
                code: String::new(),
                description: Some("panics".into()),
                pes: vec![],
            })
            .value();
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        let frames = |workflow: &str| -> Vec<WireFrame> {
            let Reply::Stream(rx) = server.handle(run_request(token, workflow)) else {
                panic!("expected a stream");
            };
            let mut frames = Vec::new();
            while let Ok(f) = rx.recv_timeout(std::time::Duration::from_secs(5)) {
                frames.push(f);
            }
            frames
        };

        match frames("boom_wf").last() {
            Some(WireFrame::Value(Response::Error(e))) => {
                assert!(e.contains("factory boom"), "{e}")
            }
            other => panic!("expected the typed error last, got {other:?}"),
        }
        let boom_wf = server.registry().get_workflow_by_name("boom_wf").unwrap();
        let rows = server.registry().executions_for(boom_wf.id);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].status, ExecutionStatus::Failed);
        // The container went back: the next run gets it and completes.
        assert!(matches!(
            frames("isprime_wf").last(),
            Some(WireFrame::End { ok: true, .. })
        ));
        let run_endpoint = server
            .metrics()
            .snapshot()
            .endpoints
            .into_iter()
            .find(|e| e.endpoint == "Run")
            .expect("Run endpoint tracked");
        assert_eq!((run_endpoint.requests, run_endpoint.errors), (2, 1));
        assert_eq!(run_endpoint.in_flight, 0);
    }

    /// A dynamic run asking for a zero task timeout gets a typed error
    /// value, and the engine's one container then serves a sequential run.
    /// Each happens within a 10 s watchdog: a zero timeout abandons every
    /// task the supervisor sees, and a run that never ends keeps its
    /// container from every later run.
    #[test]
    fn zero_task_timeout_is_refused_and_the_next_run_is_served() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let server = one_container_server();
            let token = session(&server);
            register_isprime(&server, token);
            let zero = Request::Run {
                token,
                ident: Ident::Name("isprime_wf".into()),
                input: RunInputWire::Iterations(20_000),
                mode: RunMode::Dynamic,
                streaming: true,
                verbose: false,
                resources: vec![],
                fault: FaultPolicyWire::DeadLetter { max_attempts: 1 },
                task_timeout_ms: Some(0),
            };
            let _ = tx.send(server.handle(zero).drain());
            let _ = tx.send(server.handle(run_request(token, "isprime_wf")).drain());
        });
        let watchdog = std::time::Duration::from_secs(10);
        let zero = rx.recv_timeout(watchdog).expect("the refusal comes");
        let refused = d4py::GraphError::ZeroTaskTimeout.to_string();
        match zero {
            Err(RunFailure::Server(msg)) => assert!(msg.contains(&refused), "{msg}"),
            other => panic!("{other:?}"),
        }
        let next = rx.recv_timeout(watchdog).expect("the next run is served");
        assert!(next.unwrap().ok);
    }

    /// A run writes its history as two WAL frames: the `Running` row, then
    /// its response and final status as one frame.
    #[test]
    fn a_run_writes_one_single_record_frame_and_one_finish_frame() {
        use laminar_registry::{
            FaultHook, FaultKind, FaultSpec, IoFaultHook, IoFaultInjector, IoSite, PersistOptions,
        };
        let dir =
            std::env::temp_dir().join(format!("laminar-server-run-frames-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // An injector that counts every IO operation and fails none.
        let counter = IoFaultInjector::new(1, FaultSpec::persistent(FaultKind::Enospc));
        counter.clear();
        let hook: FaultHook = counter.clone();
        let server = LaminarServer::new(
            Registry::open_with_faults(&dir, PersistOptions::default(), hook).unwrap(),
            ExecutionEngine::with_stock(),
            ServerConfig::default(),
        );
        let token = session(&server);
        register_isprime(&server, token);
        let ops = |site: IoSite| {
            counter
                .counters()
                .into_iter()
                .find(|c| c.site == site)
                .map_or(0, |c| c.ops)
        };
        let before = (ops(IoSite::WalAppend), ops(IoSite::WalBatchAppend));
        let out = server.handle(run_request(token, "isprime_wf")).drain();
        assert!(out.unwrap().ok);
        let after = (ops(IoSite::WalAppend), ops(IoSite::WalBatchAppend));
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1));
        let wf = server
            .registry()
            .get_workflow_by_name("isprime_wf")
            .unwrap()
            .id;
        assert_eq!(
            server.registry().executions_for(wf)[0].status,
            ExecutionStatus::Completed
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
