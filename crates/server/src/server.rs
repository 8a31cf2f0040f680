//! The Laminar server: controller + services over the registry, search
//! indexes, resource cache and execution engine (paper §III, Fig. 4).

use crate::clock::{SharedClock, SystemClock};
use crate::health::StorageHealth;
use crate::indexes::{EntryKind, IndexRow, PeSnippet, SearchIndexes};
use crate::obs::{EndpointMetrics, Metrics, RequestId, StorageHealthSnapshot};
use crate::protocol::*;
use crate::reco::sweep_workflows;
use crate::resources::ResourceCache;
use aroma::AromaConfig;
use embed::{CodeT5Sim, DenseVec, DescriptionContext, ReaccSim, UniXcoderSim};
use laminar_execengine::{ExecRequest, ExecutionEngine, Frame, ResponseMode};
use laminar_registry::{
    ExecutionStatus, NewPe, NewWorkflow, PeRow, Registry, RegistryError, SearchTarget, WorkflowRow,
};
use spt::{FeatureVec, Spt};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Server tunables (the paper's "configurable parameter"s).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Semantic search returns this many hits (paper default: 5).
    pub semantic_top_n: usize,
    /// Code recommendations return up to this many hits (paper default: 5).
    pub reco_top_n: usize,
    /// Literal search returns at most this many rows per table (a sane
    /// over-the-wire cap; clients can request fewer via `top_n`).
    pub literal_top_n: usize,
    /// Minimum SPT overlap score for a recommendation (paper default: 6.0).
    /// Doubles as the Aroma engine's retrieval floor (`min_overlap`).
    pub reco_min_score: f32,
    /// Minimum cosine for `llm` recommendations.
    pub reco_min_cosine: f32,
    /// Aroma stage 2: candidates kept by light-weight retrieval
    /// (`--reco-retrieve-n`).
    pub reco_retrieve_n: usize,
    /// Aroma stage 3: snippets surviving prune & rerank
    /// (`--reco-rerank-keep`).
    pub reco_rerank_keep: usize,
    /// Aroma stage 4: cosine floor for joining a cluster
    /// (`--reco-cluster-sim`).
    pub reco_cluster_sim: f32,
    /// Unused, frozen-benchmark names: the rayon tier and the LSH gate
    /// they sized are gone and nothing reads them. `crates/benchmark`
    /// still does; its next PR removes them.
    pub reco_parallel_threshold: usize,
    pub reco_lsh_min_entries: usize,
    /// Interval of the background storage-recovery probe in milliseconds
    /// (`--probe-interval-ms`); 0 disables the probe thread. The probe
    /// only does IO while the server is degraded.
    pub probe_interval_ms: u64,
    /// `retry_after_ms` hint carried by `Response::Degraded` rejections.
    pub degraded_retry_after_ms: u64,
    /// Dynamic-run worker bounds (the config that replaced Listing 2's
    /// explicit parameters in Laminar 2.0).
    pub dynamic: d4py::DynamicConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            semantic_top_n: 5,
            reco_top_n: 5,
            literal_top_n: 100,
            reco_min_score: 6.0,
            reco_min_cosine: 0.3,
            reco_retrieve_n: 50,
            reco_rerank_keep: 10,
            reco_cluster_sim: 0.5,
            reco_parallel_threshold: 0,
            reco_lsh_min_entries: 0,
            probe_interval_ms: 0,
            degraded_retry_after_ms: 500,
            dynamic: d4py::DynamicConfig::default(),
        }
    }
}

/// Internal server error (mapped to `Response::Error` at the boundary).
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    NotLoggedIn,
    Registry(RegistryError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::NotLoggedIn => write!(f, "not logged in"),
            ServerError::Registry(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<RegistryError> for ServerError {
    fn from(e: RegistryError) -> Self {
        ServerError::Registry(e)
    }
}

/// A recommendation query, analysed once for however many scopes it is
/// put to: the parsed snippet and its whole-tree SPT vector, or its ReACC
/// embedding.
enum RecoQuery {
    Spt(pyparse::ParseTree, FeatureVec),
    Llm(DenseVec),
}

/// The server.
pub struct LaminarServer {
    registry: Arc<Registry>,
    engine: Arc<ExecutionEngine>,
    indexes: Arc<SearchIndexes>,
    resources: Arc<ResourceCache>,
    sessions: RwLock<HashMap<Token, u64>>,
    next_token: AtomicU64,
    config: ServerConfig,
    codet5: CodeT5Sim,
    unixcoder: UniXcoderSim,
    metrics: Arc<Metrics>,
    /// The storage-health state machine behind read-only degraded mode.
    health: Arc<StorageHealth>,
    /// The clock the server's timers run on (the recovery-probe
    /// interval). Production uses [`SystemClock`]; the deterministic
    /// simulation harness injects a virtual clock.
    clock: SharedClock,
}

impl LaminarServer {
    pub fn new(registry: Registry, engine: ExecutionEngine, config: ServerConfig) -> Self {
        Self::with_clock(registry, engine, config, Arc::new(SystemClock::new()))
    }

    /// [`LaminarServer::new`] with an explicit [`Clock`](crate::clock::Clock)
    /// — the seam the simulation harness uses to run the server's timers
    /// under virtual time.
    pub fn with_clock(
        registry: Registry,
        engine: ExecutionEngine,
        config: ServerConfig,
        clock: SharedClock,
    ) -> Self {
        let indexes = SearchIndexes::with_aroma(AromaConfig {
            retrieve_n: config.reco_retrieve_n,
            rerank_keep: config.reco_rerank_keep,
            cluster_sim: config.reco_cluster_sim,
            max_recommendations: config.reco_rerank_keep,
            min_overlap: config.reco_min_score,
            ..AromaConfig::default()
        });
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
            clock,
        };
        server.warm_load_indexes();
        server.spawn_recovery_probe();
        server
    }

    /// The clock the server's timers run on.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
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
        // The probe ticks on the injectable clock so the simulation
        // harness can drive it under virtual time. Holding the clock
        // strongly is fine: it owns no server state, so it never keeps
        // the registry alive past the server's drop.
        let clock = self.clock.clone();
        std::thread::spawn(move || loop {
            clock.sleep(interval);
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
    /// instead of a long replay. Runs on a helper thread and gives up
    /// after `timeout` (the compaction itself keeps running to
    /// completion, but drain is not blocked on it). Skipped while
    /// degraded — a failing disk would only eat the drain budget.
    /// Returns true when the compaction finished (successfully) in time.
    pub fn shutdown_compact(&self, timeout: std::time::Duration) -> bool {
        if self.health.is_degraded() {
            return false;
        }
        let registry = self.registry.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(registry.compact().is_ok());
        });
        matches!(rx.recv_timeout(timeout), Ok(true))
    }

    /// Cold-start warm load: rebuild the search indexes from whatever the
    /// registry already holds (a registry restored via `load_from` arrives
    /// populated). Embedding CLOBs decode and the ReACC code embeddings
    /// compute row by row, then everything — slabs and, under its decoded
    /// SPT vector, every PE's source for the engine — publishes as one
    /// write. A workflow's `spt_embedding` stays
    /// in the registry: nothing ranks by it.
    fn warm_load_indexes(&self) {
        // Stored CLOBs are authoritative; rows predating the embedding
        // columns fall back to re-embedding.
        let desc_of = |json: &str, description: &str| {
            DenseVec::from_json(json).unwrap_or_else(|_| self.unixcoder.embed_text(description))
        };
        let (pes, workflows) = (self.registry.all_pes(), self.registry.all_workflows());
        let mut rows: Vec<IndexRow> = pes
            .iter()
            .map(|p| {
                let spt = FeatureVec::from_json(&p.spt_embedding)
                    .unwrap_or_else(|_| Spt::parse_source(&p.code).feature_vec());
                let desc = desc_of(&p.description_embedding, &p.description);
                IndexRow::pe(p.id, &p.name, &p.code, desc, spt)
            })
            .collect();
        rows.extend(workflows.iter().map(|w| {
            let desc = desc_of(&w.description_embedding, &w.description);
            IndexRow::workflow(w.id, &w.code, desc)
        }));
        self.indexes.bulk_upsert(rows);
        self.sync_index_gauges();
    }

    /// Refresh the index-size gauges after an index mutation.
    fn sync_index_gauges(&self) {
        let (pes, workflows) = self.indexes.counts();
        self.metrics.search.index_pes.set(pes as i64);
        self.metrics.search.index_workflows.set(workflows as i64);
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

    /// Switch the description-generation context (experiment E13 compares
    /// `ProcessMethodOnly` vs `FullClass`).
    pub fn set_description_context(&mut self, ctx: DescriptionContext) {
        self.codet5 = CodeT5Sim::new(ctx);
    }

    // ---- controller ---------------------------------------------------------

    /// Dispatch one request at the current protocol version. Convenience
    /// wrapper over [`LaminarServer::handle_envelope`].
    pub fn handle(&self, req: Request) -> Reply {
        self.handle_envelope(RequestEnvelope::new(req)).1
    }

    /// The request-lifecycle ingress: mint a [`RequestId`], enforce the
    /// version rules, open the request's [`InFlight`] accounting against
    /// its endpoint's metrics (request count, in-flight gauge, latency
    /// histogram, error count), and dispatch. A value reply settles the
    /// accounting on return; a streamed reply hands it to the run's pump
    /// thread, which settles it when the stream ends — or the moment the
    /// receiver disconnects.
    pub fn handle_envelope(&self, env: RequestEnvelope) -> (RequestId, Reply) {
        let id = RequestId::mint();
        let ep = self.metrics.endpoint(env.body.endpoint());
        ep.requests.inc();
        if env.protocol_version > PROTOCOL_VERSION {
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
        let reply = match self.dispatch(env.body, &scope) {
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
        };
        if matches!(reply, Reply::Value(Response::Error(_))) {
            scope.fail();
        }
        (id, reply)
    }

    /// True for requests that mutate durable registry state. These are
    /// the endpoints degraded mode rejects; reads, searches, runs (whose
    /// history rows degrade to best-effort), metrics, health, and the
    /// in-memory resource cache keep serving.
    fn is_mutating(req: &Request) -> bool {
        matches!(
            req,
            Request::RegisterUser { .. }
                | Request::RegisterPe { .. }
                | Request::RegisterWorkflow { .. }
                | Request::RegisterBatch { .. }
                | Request::UpdatePeDescription { .. }
                | Request::UpdateWorkflowDescription { .. }
                | Request::RemovePe { .. }
                | Request::RemoveWorkflow { .. }
                | Request::RemoveAll { .. }
                | Request::Compact { .. }
        )
    }

    fn dispatch(&self, req: Request, scope: &Arc<InFlight>) -> Result<Reply, ServerError> {
        // Read-only degraded mode: reject mutations with the typed
        // rejection (the request was NOT applied; the hint tells
        // idempotent callers when to retry) while everything else keeps
        // serving from in-memory state.
        if self.health.is_degraded() && Self::is_mutating(&req) {
            self.health.note_rejected();
            let reason = self
                .health
                .last_error()
                .map(|e| format!("storage degraded: {e}"))
                .unwrap_or_else(|| "storage degraded".to_string());
            return Ok(Reply::Value(Response::Degraded {
                reason,
                retry_after_ms: self.config.degraded_retry_after_ms,
            }));
        }
        Ok(match req {
            Request::RegisterUser { username, password } => {
                let user = self.registry.register_user(&username, &password)?;
                Reply::Value(Response::Token(self.new_session(user)))
            }
            Request::Login { username, password } => {
                let user = self.registry.login(&username, &password)?;
                Reply::Value(Response::Token(self.new_session(user)))
            }
            Request::RegisterPe { token, pe } => {
                let user = self.auth(token)?;
                self.register_one(user, BatchItemWire::Pe(pe))?
            }
            Request::RegisterWorkflow {
                token,
                name,
                code,
                description,
                pes,
            } => {
                let user = self.auth(token)?;
                let item = BatchItemWire::Workflow {
                    name,
                    code,
                    description,
                    pes,
                };
                self.register_one(user, item)?
            }
            Request::RegisterBatch { token, items } => {
                let user = self.auth(token)?;
                let outcomes = self.register_batch(user, items)?;
                Reply::Value(Response::BatchRegistered { outcomes })
            }
            Request::GetPe { token, ident } => {
                self.auth(token)?;
                let pe = self.resolve_pe(&ident)?;
                Reply::Value(Response::Pe(pe_info(&pe)))
            }
            Request::GetWorkflow { token, ident } => {
                self.auth(token)?;
                let wf = self.resolve_workflow(&ident)?;
                Reply::Value(Response::Workflow(wf_info(&wf)))
            }
            Request::GetPesByWorkflow { token, ident } => {
                self.auth(token)?;
                let wf = self.resolve_workflow(&ident)?;
                let pes = self.registry.pes_by_workflow(wf.id)?;
                Reply::Value(Response::Pes(pes.iter().map(pe_info).collect()))
            }
            Request::GetRegistry { token } => {
                self.auth(token)?;
                Reply::Value(Response::Registry {
                    pes: self.registry.all_pes().iter().map(pe_info).collect(),
                    workflows: self.registry.all_workflows().iter().map(wf_info).collect(),
                })
            }
            Request::Describe {
                token,
                scope,
                ident,
            } => {
                self.auth(token)?;
                let text = match scope {
                    SearchScope::Pe => {
                        let pe = self.resolve_pe(&ident)?;
                        format!("{}\n\n{}", pe.description, pe.code)
                    }
                    _ => {
                        let wf = self.resolve_workflow(&ident)?;
                        format!("{}\n\n{}", wf.description, wf.code)
                    }
                };
                Reply::Value(Response::Description(text))
            }
            Request::UpdatePeDescription {
                token,
                ident,
                description,
            } => {
                self.auth(token)?;
                self.update_description(EntryKind::Pe, &ident, &description)?
            }
            Request::UpdateWorkflowDescription {
                token,
                ident,
                description,
            } => {
                self.auth(token)?;
                self.update_description(EntryKind::Workflow, &ident, &description)?
            }
            Request::RemovePe { token, ident } => {
                self.auth(token)?;
                let pe = self.resolve_pe(&ident)?;
                self.registry.remove_pe(pe.id)?;
                self.indexes.remove(pe.id, EntryKind::Pe);
                self.sync_index_gauges();
                Reply::Value(Response::Ok)
            }
            Request::RemoveWorkflow { token, ident } => {
                self.auth(token)?;
                let wf = self.resolve_workflow(&ident)?;
                self.registry.remove_workflow(wf.id)?;
                self.indexes.remove(wf.id, EntryKind::Workflow);
                self.sync_index_gauges();
                Reply::Value(Response::Ok)
            }
            Request::RemoveAll { token } => {
                self.auth(token)?;
                self.registry.remove_all()?;
                self.indexes.clear();
                self.sync_index_gauges();
                Reply::Value(Response::Ok)
            }
            Request::SearchLiteral {
                token,
                scope,
                term,
                top_n,
            } => {
                self.auth(token)?;
                let target = match scope {
                    SearchScope::Pe => SearchTarget::Pe,
                    SearchScope::Workflow => SearchTarget::Workflow,
                    SearchScope::Both => SearchTarget::Both,
                };
                let k = top_n.unwrap_or(self.config.literal_top_n);
                let start = std::time::Instant::now();
                let (pes, wfs) = self.registry.literal_search_top(target, &term, k);
                self.metrics.search.literal_latency.record(start.elapsed());
                Reply::Value(Response::Registry {
                    pes: pes.iter().map(pe_info).collect(),
                    workflows: wfs.iter().map(wf_info).collect(),
                })
            }
            Request::SearchSemantic {
                token,
                scope,
                query,
                top_n,
            } => {
                self.auth(token)?;
                let k = top_n.unwrap_or(self.config.semantic_top_n);
                Reply::Value(Response::SemanticResults(
                    self.semantic_search(scope, &query, k),
                ))
            }
            Request::CodeRecommendation {
                token,
                scope,
                snippet,
                embedding_type,
                top_n,
            } => {
                self.auth(token)?;
                let k = top_n.unwrap_or(self.config.reco_top_n);
                Reply::Value(Response::Recommendations(self.code_recommendation(
                    scope,
                    &snippet,
                    embedding_type,
                    k,
                )))
            }
            Request::CodeCompletion { token, snippet } => {
                self.auth(token)?;
                Reply::Value(self.code_completion(&snippet))
            }
            Request::GetExecutions { token, ident } => {
                self.auth(token)?;
                let wf = self.resolve_workflow(&ident)?;
                let rows = self
                    .registry
                    .executions_for(wf.id)
                    .into_iter()
                    .map(|e| {
                        let preview = self
                            .registry
                            .responses_for(e.id)
                            .first()
                            .and_then(|r| r.output.lines().next().map(str::to_string))
                            .unwrap_or_default();
                        crate::protocol::ExecutionInfo {
                            id: e.id,
                            mapping: e.mapping,
                            input: e.input,
                            status: format!("{:?}", e.status),
                            output_preview: preview,
                        }
                    })
                    .collect();
                Reply::Value(Response::Executions(rows))
            }
            Request::UploadResource { token, name, bytes } => {
                self.auth(token)?;
                let dedup = self.resources.store(&name, bytes);
                Reply::Value(Response::ResourceStored {
                    name,
                    deduplicated: dedup,
                })
            }
            Request::Run {
                token,
                ident,
                input,
                mode,
                streaming,
                verbose,
                fault,
                task_timeout_ms,
                resources,
            } => {
                let user = self.auth(token)?;
                // §IV-F: answer from the cache; request missing files.
                let missing = self.resources.missing(&resources);
                if !missing.is_empty() {
                    return Ok(Reply::Value(Response::NeedResources(missing)));
                }
                self.run(
                    user,
                    ident,
                    input,
                    mode,
                    streaming,
                    verbose,
                    fault,
                    task_timeout_ms,
                    scope.clone(),
                )?
            }
            Request::RunWithInlineResources {
                token,
                ident,
                input,
                mode,
                resources,
            } => {
                let user = self.auth(token)?;
                // Laminar 1.0 baseline: every byte re-transmitted, batch reply.
                self.resources.receive_inline(&resources);
                self.run(
                    user,
                    ident,
                    input,
                    mode,
                    false,
                    false,
                    FaultPolicyWire::default(),
                    None,
                    scope.clone(),
                )?
            }
            Request::Metrics {} => {
                let mut snap = self.metrics.snapshot();
                if let Some(p) = self.registry.persist_stats() {
                    snap.persistence = crate::obs::PersistenceSnapshot {
                        enabled: true,
                        wal_appends: p.wal_appends,
                        wal_bytes: p.wal_bytes,
                        fsyncs: p.fsyncs,
                        compactions: p.compactions,
                        wal_records: p.wal_records,
                        recovered_records: p.recovered_records,
                        recovery_ms: p.recovery_ms,
                    };
                }
                snap.storage_health = self.storage_health_snapshot();
                Reply::Value(Response::Metrics(Box::new(snap)))
            }
            Request::Compact { token } => {
                self.auth(token)?;
                match self.registry.compact()? {
                    Some(stats) => Reply::Value(Response::Compacted {
                        wal_records: stats.wal_records,
                        wal_bytes: stats.wal_bytes,
                        snapshot_bytes: stats.snapshot_bytes,
                    }),
                    None => Reply::Value(Response::Error(
                        "registry has no data directory (start the server with --data-dir)".into(),
                    )),
                }
            }
            Request::Health {} => {
                let degraded = self.health.is_degraded();
                Reply::Value(Response::Health {
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
                })
            }
        })
    }

    /// The `storage_health` metrics row group: the state machine's own
    /// counters merged with the registry-side IO error tally and the
    /// fault injector's per-site op counts (empty when no injector is
    /// armed).
    fn storage_health_snapshot(&self) -> StorageHealthSnapshot {
        let mut snap = self.health.snapshot();
        if let Some(p) = self.registry.persist_stats() {
            snap.io_errors = p.io_errors;
            if snap.last_error.is_none() {
                snap.last_error = p.last_error;
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

    // ---- sessions -------------------------------------------------------------

    fn new_session(&self, user: u64) -> Token {
        let token = self.next_token.fetch_add(1, Ordering::SeqCst);
        self.sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(token, user);
        token
    }

    fn auth(&self, token: Token) -> Result<u64, ServerError> {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&token)
            .copied()
            .ok_or(ServerError::NotLoggedIn)
    }

    // ---- registration service ---------------------------------------------------

    /// `RegisterPe` / `RegisterWorkflow`: a batch of one, its outcome
    /// mapped back to the single-registration reply shapes.
    fn register_one(&self, user: u64, item: BatchItemWire) -> Result<Reply, ServerError> {
        let outcome = self
            .register_batch(user, vec![item])?
            .pop()
            .expect("one outcome per item");
        Ok(Reply::Value(match outcome {
            BatchOutcomeWire::Registered {
                pe_ids,
                workflow_id,
            } => Response::Registered {
                pe_ids,
                workflow_id,
            },
            BatchOutcomeWire::Failed { error, .. } => Response::Error(error),
        }))
    }

    /// The write path. Every registration — `RegisterPe` and
    /// `RegisterWorkflow` as a batch of one, `RegisterBatch` as sent — is
    /// a list of units that is
    ///
    /// 1. **analysed** once (no locks held): per submission,
    ///    codet5 description (§IV-C) → unixcoder embedding, pyparse → SPT
    ///    features (§VI), reacc embedding;
    /// 2. **committed** once ([`Registry::add_units`]): every unit staged
    ///    under one write-lock hold, all rows appended as one WAL frame
    ///    (one fsync), then applied;
    /// 3. **published** once: every created row through one bulk upsert —
    ///    one generation bump, the engine handed each PE's own SPT vector
    ///    (a workflow's goes to its registry row only).
    ///
    /// Outcomes are per item (partial success): re-registering a PE name
    /// the user owns reuses that PE's id, a duplicate workflow name fails
    /// the item while its member PEs stay. The outer `Err` is reserved for
    /// WAL failure, in which case nothing was committed.
    ///
    /// [`Registry::add_units`]: laminar_registry::Registry::add_units
    fn register_batch(
        &self,
        user: u64,
        items: Vec<BatchItemWire>,
    ) -> Result<Vec<BatchOutcomeWire>, ServerError> {
        /// An analysed submission: what its registry row and, once the
        /// commit has given it an id, its index row are made of.
        struct Analysed {
            name: String,
            code: String,
            description: String,
            desc: DenseVec,
            spt: FeatureVec,
            reacc: DenseVec,
        }
        struct AnalysedItem {
            pes: Vec<Analysed>,
            workflow: Option<Analysed>,
        }
        let item_count = items.len();

        // Stage 1: per-submission analysis — pure, before any lock is
        // taken; duplicates waste some of it.
        let analyse_start = std::time::Instant::now();
        let analyse = |name: String, code: String, description: String| Analysed {
            desc: self.unixcoder.embed_text(&description),
            spt: Spt::parse_source(&code).feature_vec(),
            reacc: ReaccSim::new().embed_code(&code),
            name,
            code,
            description,
        };
        let analyse_pe = |pe: PeSubmission| {
            let description = match pe.description {
                Some(d) if !d.is_empty() => d,
                _ => self.codet5.describe_pe(&pe.code),
            };
            analyse(pe.name, pe.code, description)
        };
        let mut analysed: Vec<AnalysedItem> = items
            .into_iter()
            .map(|item| match item {
                BatchItemWire::Pe(pe) => AnalysedItem {
                    pes: vec![analyse_pe(pe)],
                    workflow: None,
                },
                BatchItemWire::Workflow {
                    name,
                    code,
                    description,
                    pes,
                } => AnalysedItem {
                    pes: pes.into_iter().map(&analyse_pe).collect(),
                    // A workflow sent without a description keeps an empty
                    // one (embedding zero) until its member codes resolve.
                    workflow: Some(analyse(name, code, description.unwrap_or_default())),
                },
            })
            .collect();

        // Stage 2a (sequential, pre-lock): describe the workflows sent
        // without a description from the member codes their rows will
        // reference — the registered row's code for a name the user owns
        // (looked up per member, only for these workflows), else the
        // first submission of the name here, which the commit creates.
        let mut submitted: HashMap<String, &str> = HashMap::new();
        for AnalysedItem { pes, workflow } in &mut analysed {
            let pes: &[Analysed] = pes;
            for pe in pes {
                submitted.entry(pe.name.to_lowercase()).or_insert(&pe.code);
            }
            let Some(wf) = workflow.as_mut().filter(|w| w.description.is_empty()) else {
                continue;
            };
            let codes: Vec<String> = pes
                .iter()
                .map(|pe| {
                    self.registry
                        .get_pe_by_name_for_user(user, &pe.name)
                        .map(|row| row.code)
                        .unwrap_or_else(|_| submitted[&pe.name.to_lowercase()].to_string())
                })
                .collect();
            let codes: Vec<&str> = codes.iter().map(String::as_str).collect();
            wf.description = self.codet5.describe_workflow(&wf.name, &codes);
            wf.desc = self.unixcoder.embed_text(&wf.description);
        }
        let analyse_elapsed = analyse_start.elapsed();

        // Stage 2b: one lock hold, one WAL frame.
        let commit_start = std::time::Instant::now();
        let units: Vec<laminar_registry::RegistrationUnit> = analysed
            .iter()
            .map(|item| laminar_registry::RegistrationUnit {
                pes: item
                    .pes
                    .iter()
                    .map(|a| NewPe {
                        user_id: user,
                        name: a.name.clone(),
                        description: a.description.clone(),
                        code: a.code.clone(),
                        description_embedding: a.desc.to_json(),
                        spt_embedding: a.spt.to_json(),
                    })
                    .collect(),
                workflow: item.workflow.as_ref().map(|a| NewWorkflow {
                    user_id: user,
                    name: a.name.clone(),
                    description: a.description.clone(),
                    code: a.code.clone(),
                    description_embedding: a.desc.to_json(),
                    spt_embedding: a.spt.to_json(),
                    // Resolved per unit inside `add_units`.
                    pe_ids: Vec::new(),
                }),
            })
            .collect();
        let outcomes = self.registry.add_units(units)?;
        let commit_elapsed = commit_start.elapsed();

        // Stage 3: publish every *created* row (a reused PE is already
        // indexed) in one snapshot swap.
        let index_start = std::time::Instant::now();
        let mut rows: Vec<IndexRow> = Vec::new();
        for (outcome, item) in outcomes.iter().zip(analysed) {
            for (po, pe) in outcome.pes.iter().zip(item.pes) {
                if po.created {
                    rows.push(IndexRow {
                        id: po.id,
                        desc: pe.desc,
                        reacc: pe.reacc,
                        pe: Some(PeSnippet {
                            name: pe.name,
                            code: pe.code,
                            spt: pe.spt,
                        }),
                    });
                }
            }
            if let (Some((_, id)), Some(wf)) = (&outcome.workflow, item.workflow) {
                rows.push(IndexRow {
                    id: *id,
                    desc: wf.desc,
                    reacc: wf.reacc,
                    pe: None,
                });
            }
        }
        let created_rows = rows.len() as u64;
        self.indexes.bulk_upsert(rows);
        self.sync_index_gauges();
        let index_elapsed = index_start.elapsed();

        let failed = outcomes.iter().filter(|o| o.error.is_some()).count() as u64;
        let ingest = &self.metrics.ingest;
        ingest.batches.inc();
        ingest.items.add(item_count as u64);
        ingest.items_failed.add(failed);
        ingest.rows.add(created_rows);
        ingest.batch_size.record_value(item_count as u64);
        if self.registry.persist_stats().is_some() {
            // Each created row shared the one frame instead of paying its
            // own WAL append/fsync.
            ingest.fsyncs_saved.add(created_rows.saturating_sub(1));
        }
        ingest.analyze_latency.record(analyse_elapsed);
        ingest.commit_latency.record(commit_elapsed);
        ingest.index_latency.record(index_elapsed);

        Ok(outcomes
            .into_iter()
            .map(|o| {
                let pe_ids: Vec<(String, u64)> =
                    o.pes.into_iter().map(|p| (p.name, p.id)).collect();
                match o.error {
                    None => BatchOutcomeWire::Registered {
                        pe_ids,
                        workflow_id: o.workflow,
                    },
                    Some(e) => BatchOutcomeWire::Failed {
                        pe_ids,
                        error: e.to_string(),
                    },
                }
            })
            .collect())
    }

    /// `UpdatePeDescription` / `UpdateWorkflowDescription`: store the new
    /// text with its embedding and publish that embedding — the only
    /// indexed value a description feeds — in one write.
    fn update_description(
        &self,
        kind: EntryKind,
        ident: &Ident,
        description: &str,
    ) -> Result<Reply, ServerError> {
        let emb = self.unixcoder.embed_text(description);
        let id = match kind {
            EntryKind::Pe => {
                let id = self.resolve_pe(ident)?.id;
                self.registry
                    .update_pe_description(id, description, &emb.to_json())?;
                id
            }
            EntryKind::Workflow => {
                let id = self.resolve_workflow(ident)?.id;
                self.registry
                    .update_workflow_description(id, description, &emb.to_json())?;
                id
            }
        };
        self.indexes.set_description(id, kind, &emb);
        Ok(Reply::Value(Response::Ok))
    }

    // ---- search service ------------------------------------------------------------

    fn semantic_search(&self, scope: SearchScope, query: &str, k: usize) -> Vec<SemanticHit> {
        let qvec = self.unixcoder.embed_text(query);
        let kind = match scope {
            SearchScope::Pe => Some(EntryKind::Pe),
            SearchScope::Workflow => Some(EntryKind::Workflow),
            SearchScope::Both => None,
        };
        let start = std::time::Instant::now();
        let hits = self.indexes.rank_semantic(&qvec, kind, k);
        self.metrics.search.semantic_latency.record(start.elapsed());
        hits.into_iter()
            .filter_map(|h| {
                let (name, description) = match h.kind {
                    EntryKind::Pe => {
                        let p = self.registry.get_pe(h.id).ok()?;
                        (p.name, p.description)
                    }
                    EntryKind::Workflow => {
                        let w = self.registry.get_workflow(h.id).ok()?;
                        (w.name, w.description)
                    }
                };
                Some(SemanticHit {
                    id: h.id,
                    name,
                    description,
                    cosine_similarity: h.score,
                })
            })
            .collect()
    }

    fn code_recommendation(
        &self,
        scope: SearchScope,
        snippet: &str,
        embedding_type: EmbeddingType,
        k: usize,
    ) -> Vec<RecommendationHit> {
        self.metrics.reco.requests.inc();
        let query = match embedding_type {
            EmbeddingType::Spt => {
                let tree = pyparse::parse(snippet);
                let q = Spt::from_parse_tree(&tree).feature_vec();
                RecoQuery::Spt(tree, q)
            }
            EmbeddingType::Llm => RecoQuery::Llm(ReaccSim::new().embed_code(snippet)),
        };
        match scope {
            SearchScope::Pe => self.recommend_pes(&query, k),
            SearchScope::Workflow => self.recommend_workflows(&query, k),
            SearchScope::Both => {
                // Both lists, merged on the shared score scale. (The old
                // dispatch folded `Both` into the PE arm, so it never
                // returned a workflow hit.)
                let mut hits = self.recommend_pes(&query, k);
                hits.extend(self.recommend_workflows(&query, k));
                hits.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.id.cmp(&b.id))
                });
                hits.truncate(k);
                hits
            }
        }
    }

    /// PE-scope recommendations. `spt` runs the full Aroma pipeline
    /// (retrieve → prune & rerank → cluster → intersect) on the engine's
    /// current snapshot; `llm` stays the flat ReACC cosine ranking.
    fn recommend_pes(&self, query: &RecoQuery, k: usize) -> Vec<RecommendationHit> {
        match query {
            RecoQuery::Spt(tree, q) => {
                let engine = self.indexes.engine();
                let start = std::time::Instant::now();
                let (recs, stats) = engine.recommend_parsed(tree, q);
                self.metrics.search.spt_latency.record(start.elapsed());
                self.metrics.reco.observe(&stats);
                recs.into_iter()
                    .filter_map(|r| {
                        let pe = self.registry.get_pe(r.seed_id).ok()?;
                        Some(RecommendationHit {
                            id: r.seed_id,
                            name: pe.name,
                            description: pe.description,
                            // The seed's raw feature overlap — the scale
                            // the flat scan always reported (≥ 6.0).
                            score: r.retrieval_score,
                            occurrences: 1,
                            similar_code: first_function(&pe.code),
                            cluster_size: r.cluster_size,
                            common_core: r.code,
                        })
                    })
                    .take(k)
                    .collect()
            }
            RecoQuery::Llm(q) => {
                let start = std::time::Instant::now();
                let hits = self.indexes.rank_reacc(q, Some(EntryKind::Pe), k);
                self.metrics.search.reacc_latency.record(start.elapsed());
                hits.into_iter()
                    .filter(|h| h.score >= self.config.reco_min_cosine)
                    .filter_map(|h| {
                        let pe = self.registry.get_pe(h.id).ok()?;
                        Some(RecommendationHit {
                            id: h.id,
                            name: pe.name,
                            description: pe.description,
                            score: h.score,
                            occurrences: 1,
                            similar_code: first_function(&pe.code),
                            cluster_size: 1,
                            common_core: String::new(),
                        })
                    })
                    .collect()
            }
        }
    }

    /// Workflow-scope recommendations (Fig. 9 bottom): workflows
    /// containing matching PEs, ranked by total member score. Aggregation
    /// needs *every* PE above threshold (a workflow's rank sums member
    /// scores), so this path uses the threshold scan, not top-k.
    fn recommend_workflows(&self, query: &RecoQuery, k: usize) -> Vec<RecommendationHit> {
        let pe_hits: Vec<(u64, f32)> = match query {
            RecoQuery::Spt(_, q) => {
                let start = std::time::Instant::now();
                let hits =
                    self.indexes
                        .rank_spt_above(q, Some(EntryKind::Pe), self.config.reco_min_score);
                self.metrics.search.spt_latency.record(start.elapsed());
                hits.into_iter().map(|h| (h.id, h.score)).collect()
            }
            RecoQuery::Llm(q) => {
                let start = std::time::Instant::now();
                let hits = self.indexes.rank_reacc_above(
                    q,
                    Some(EntryKind::Pe),
                    self.config.reco_min_cosine,
                );
                self.metrics.search.reacc_latency.record(start.elapsed());
                hits.into_iter().map(|h| (h.id, h.score)).collect()
            }
        };
        // The sweep reads ids and membership in place; only the k winners
        // are hydrated.
        self.registry
            .with_workflow_members(|members| sweep_workflows(&pe_hits, members))
            .into_iter()
            .take(k)
            .filter_map(|(wf_id, score, occurrences)| {
                let wf = self.registry.get_workflow(wf_id).ok()?;
                Some(RecommendationHit {
                    id: wf_id,
                    name: wf.name,
                    description: wf.description,
                    score,
                    occurrences,
                    similar_code: String::new(),
                    cluster_size: 0,
                    common_core: String::new(),
                })
            })
            .collect()
    }

    /// Context-aware code completion (§III): the best SPT match above a
    /// relaxed threshold supplies the untyped remainder.
    fn code_completion(&self, snippet: &str) -> Response {
        let tree = pyparse::parse(snippet);
        let q = Spt::from_parse_tree(&tree).feature_vec();
        // One engine snapshot both ranks and supplies the winner's
        // statement granules (parsed at most once per PE).
        let engine = self.indexes.engine();
        let start = std::time::Instant::now();
        // Only the single best match matters (the ranking is best-first,
        // so a failed threshold on the top hit fails on every hit).
        let top = engine.index().search_vec(&q, 1);
        self.metrics.search.spt_latency.record(start.elapsed());
        let none = Response::Completion {
            source: None,
            lines: Vec::new(),
            progress: 0.0,
        };
        let best = top
            .into_iter()
            // Completion works from much smaller fragments than
            // recommendation, so use half the recommendation threshold.
            .find(|h| h.score >= self.config.reco_min_score / 2.0);
        let Some(hit) = best else {
            return none;
        };
        // (A PE removed since the snapshot is gone from the registry.)
        let (Ok(pe), Some(granules)) = (
            self.registry.get_pe(hit.id),
            engine.index().granules(hit.id),
        ) else {
            return none;
        };
        let completion = aroma::complete_with(&aroma::granulated_vec_of(&tree), granules);
        Response::Completion {
            source: Some((pe.id, pe.name)),
            lines: completion.lines,
            progress: completion.progress,
        }
    }

    // ---- execution service ------------------------------------------------------------

    fn resolve_pe(&self, ident: &Ident) -> Result<PeRow, ServerError> {
        Ok(match ident {
            Ident::Id(id) => self.registry.get_pe(*id)?,
            Ident::Name(name) => self.registry.get_pe_by_name(name)?,
        })
    }

    fn resolve_workflow(&self, ident: &Ident) -> Result<WorkflowRow, ServerError> {
        Ok(match ident {
            Ident::Id(id) => self.registry.get_workflow(*id)?,
            Ident::Name(name) => self.registry.get_workflow_by_name(name)?,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        user: u64,
        ident: Ident,
        input: RunInputWire,
        mode: RunMode,
        streaming: bool,
        verbose: bool,
        fault: FaultPolicyWire,
        task_timeout_ms: Option<u64>,
        scope: Arc<InFlight>,
    ) -> Result<Reply, ServerError> {
        let wf = self.resolve_workflow(&ident)?;
        let mapping = match mode {
            RunMode::Sequential => d4py::Mapping::Simple,
            RunMode::Multiprocess { processes } => d4py::Mapping::Multi { processes },
            RunMode::Dynamic => d4py::Mapping::Dynamic(self.config.dynamic.clone()),
        };
        let mapping_name = match &mapping {
            d4py::Mapping::Simple => "simple",
            d4py::Mapping::Multi { .. } => "multi",
            d4py::Mapping::Dynamic(_) => "dynamic",
        };
        let run_input: d4py::RunInput = input.clone().into();
        // Execution-history rows are best-effort under degraded storage:
        // a run still executes when the WAL cannot take the row — it just
        // leaves no history. The persist error itself flips health to
        // degraded so operators see it.
        let exec_id =
            match self
                .registry
                .add_execution(wf.id, user, mapping_name, &format!("{input:?}"))
            {
                Ok(id) => {
                    match self
                        .registry
                        .set_execution_status(id, ExecutionStatus::Running)
                    {
                        Ok(()) => Some(id),
                        Err(RegistryError::Persistence(msg)) => {
                            self.health.record_persist_error(&msg);
                            Some(id)
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                Err(RegistryError::Persistence(msg)) => {
                    self.health.record_persist_error(&msg);
                    None
                }
                Err(e) => return Err(e.into()),
            };

        let engine_rx = self.engine.execute(ExecRequest {
            workflow: wf.name.clone(),
            code: wf.code.clone(),
            input: run_input,
            mapping,
            mode: if streaming {
                ResponseMode::Streaming
            } else {
                ResponseMode::Batch
            },
            verbose,
            options: d4py::RunOptions {
                fault_policy: fault.into(),
                task_timeout: task_timeout_ms.map(std::time::Duration::from_millis),
            },
        });

        let (tx, rx) = std::sync::mpsc::channel::<WireFrame>();
        let registry = self.registry.clone();
        let metrics = self.metrics.clone();
        let health = self.health.clone();
        let finish = move |status: ExecutionStatus, collected: &[String]| {
            let Some(exec_id) = exec_id else { return };
            for res in [
                registry
                    .add_response(exec_id, &collected.join("\n"), status)
                    .map(|_| ()),
                registry.set_execution_status(exec_id, status),
            ] {
                if let Err(RegistryError::Persistence(msg)) = res {
                    health.record_persist_error(&msg);
                }
            }
        };
        // The stream's one server-side thread: it opens the reply with
        // `Begin`, turns engine frames into wire frames, and owns the
        // request's accounting until the stream is over.
        std::thread::spawn(move || {
            let mut collected = Vec::new();
            let mut listening = tx
                .send(WireFrame::Begin {
                    request_id: scope.id.0,
                })
                .is_ok();
            while listening {
                // (An engine that vanished without a terminal frame just
                // ends the stream.)
                let Ok(frame) = engine_rx.recv() else { return };
                let done = matches!(frame, Frame::End { .. } | Frame::Error(_));
                let wire = match frame {
                    Frame::Info(i) => WireFrame::Info(i),
                    Frame::Line(l) => {
                        collected.push(l.clone());
                        WireFrame::Line(l)
                    }
                    Frame::Summary(s) => WireFrame::Summary(s),
                    Frame::DeadLetter(d) => WireFrame::DeadLetter(d),
                    Frame::Faults(s) => {
                        metrics.enactment.observe(&s);
                        WireFrame::Faults(s)
                    }
                    Frame::End { ok, duration } => WireFrame::End {
                        ok,
                        millis: duration.as_millis() as u64,
                    },
                    Frame::Error(e) => WireFrame::Value(Response::Error(e.to_string())),
                };
                if done {
                    // Persist the outcome and settle the accounting BEFORE
                    // emitting the terminal frame: once the client observes
                    // End, the registry must already reflect the
                    // acknowledged run — or a crash straight after the
                    // stream drains loses rows the client was told about —
                    // and the endpoint's gauge must already be back down.
                    let failed = matches!(&wire, WireFrame::Value(Response::Error(_)));
                    let status = if failed {
                        ExecutionStatus::Failed
                    } else {
                        ExecutionStatus::Completed
                    };
                    metrics.enactment.runs.inc();
                    if failed {
                        metrics.enactment.runs_failed.inc();
                        scope.fail();
                    }
                    finish(status, &collected);
                    drop(scope);
                    let _ = tx.send(wire);
                    return;
                }
                listening = tx.send(wire).is_ok();
            }
            // The consumer disconnected mid-stream. Returning drops
            // `engine_rx`, which tells the engine nobody is listening;
            // record the aborted execution.
            scope.fail();
            finish(ExecutionStatus::Failed, &collected);
        });
        Ok(Reply::Stream(rx))
    }
}

/// One request's endpoint accounting — in-flight gauge, latency, error
/// count — opened by [`LaminarServer::handle_envelope`] and settled when
/// its last holder drops it: `handle_envelope` itself for a value reply,
/// the run's pump thread for a stream.
struct InFlight {
    id: RequestId,
    ep: Arc<EndpointMetrics>,
    start: std::time::Instant,
    failed: AtomicBool,
}

impl InFlight {
    /// Count the request as an error when it settles.
    fn fail(&self) {
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

fn pe_info(pe: &PeRow) -> PeInfo {
    PeInfo {
        id: pe.id,
        name: pe.name.clone(),
        description: pe.description.clone(),
        code: pe.code.clone(),
    }
}

fn wf_info(wf: &WorkflowRow) -> WorkflowInfo {
    WorkflowInfo {
        id: wf.id,
        name: wf.name.clone(),
        description: wf.description.clone(),
        code: wf.code.clone(),
        pe_ids: wf.pe_ids.clone(),
    }
}

/// First function definition's text in `code` (Fig. 9's `similarFunc`).
fn first_function(code: &str) -> String {
    let tree = pyparse::parse(code);
    tree.find_kind(pyparse::SyntaxKind::FuncDef)
        .first()
        .map(|&f| tree.text_of(f))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRODUCER: &str = "class NumberProducer(ProducerPE):\n    def _process(self, inputs):\n        return random.randint(1, 1000)\n";
    const ISPRIME: &str = "class IsPrime(IterativePE):\n    def _process(self, num):\n        if all(num % i != 0 for i in range(2, num)):\n            return num\n";
    const PRINTER: &str = "class PrintPrime(ConsumerPE):\n    def _process(self, num):\n        print('the num {} is prime'.format(num))\n";

    fn server_with_session() -> (LaminarServer, Token) {
        let server = LaminarServer::with_stock();
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
        (server, token)
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
        assert!(!pe.description_embedding.is_empty());
        assert!(!pe.spt_embedding.is_empty());
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
        assert_eq!(snap.reco.requests, 1);
        assert_eq!(snap.reco.pipeline_runs, 1);
        assert_eq!(snap.reco.retrieve.count, 1);
        assert_eq!(snap.reco.intersect.count, 1);
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
        // Persist a populated registry, restore it into a fresh server, and
        // verify the indexes were rebuilt from the stored CLOBs at startup.
        let (server, token) = server_with_session();
        register_isprime(&server, token);
        let path =
            std::env::temp_dir().join(format!("laminar-warmload-{}.json", std::process::id()));
        server.registry().save_to(&path).unwrap();
        let restored = Registry::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let server2 = LaminarServer::new(
            restored,
            ExecutionEngine::with_stock(),
            ServerConfig::default(),
        );
        assert_eq!(server2.indexes().counts(), (3, 1));
        assert_eq!(server2.indexes().engine().len(), 3);
        assert_eq!(
            server2.indexes().generation(),
            1,
            "a warm load is one publication, not one per row"
        );
        // The engine was handed the stored SPT vectors; it must recommend
        // exactly like one that parsed and featurised the same rows.
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
        assert_eq!(snap.search.semantic.count, 1);
        assert_eq!(snap.search.index_pes, 3);
        assert_eq!(snap.search.index_workflows, 1);
        server
            .handle(Request::RemoveWorkflow {
                token,
                ident: Ident::Name("isprime_wf".into()),
            })
            .value();
        let snap = server.metrics().snapshot();
        assert_eq!(snap.search.index_workflows, 0);
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
            assert!(snap.persistence.enabled);
            assert!(snap.persistence.wal_appends >= 5, "{snap:?}");
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
            assert_eq!(snap.persistence.wal_records, 0, "WAL truncated");
            assert_eq!(snap.persistence.compactions, 1);
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
        assert!(!snap.persistence.enabled);
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
        let (lines, _infos, summaries, ok) = reply.drain();
        assert!(ok);
        assert!(!lines.is_empty());
        for l in &lines {
            assert!(l.contains("is prime"), "{l}");
        }
        assert!(!summaries.is_empty(), "verbose run includes rank summaries");
        // Execution + response recorded in the registry.
        let execs = server.registry().executions_for(wf_id);
        assert_eq!(execs.len(), 1);
        assert_eq!(execs[0].status, ExecutionStatus::Completed);
        let resps = server.registry().responses_for(execs[0].id);
        assert_eq!(resps.len(), 1);
        assert!(resps[0].output.contains("is prime"));
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
        let (_, _, _, ok) = reply.drain();
        assert!(ok);
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
        let (_lines, _infos, _summaries, ok) = reply.drain();
        assert!(ok);
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
        let (ma, mb) = (a.metrics().snapshot().ingest, b.metrics().snapshot().ingest);
        for m in [&ma, &mb] {
            assert_eq!((m.batches, m.items, m.items_failed, m.rows), (8, 8, 1, 6));
            assert_eq!(m.batch_size.count, 8);
            assert_eq!((m.analyze.count, m.commit.count, m.index.count), (8, 8, 8));
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
        assert_eq!((m.ingest.batches, m.ingest.items, m.ingest.rows), (1, 3, 6));
        assert_eq!((c.ingest.batches, c.ingest.items, c.ingest.rows), (3, 3, 6));
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
        assert_eq!(m.ingest.items, 3);
        assert_eq!(m.ingest.items_failed, 1);
        assert_eq!(m.ingest.rows, 4 + 2);
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

    #[test]
    fn dropped_stream_receiver_stops_the_engine_and_fails_the_execution() {
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
        // The pump thread must observe the disconnect, fail the execution
        // and settle the request's accounting well before the 200 × 5 ms
        // run would finish.
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
}
