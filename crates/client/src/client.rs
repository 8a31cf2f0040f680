//! The client library: one method per Table I function.
//!
//! The client is written once against the unified
//! [`Connection`] trait — the in-process [`Transport`] and the TCP
//! [`laminar_server::NetClientTransport`] plug in interchangeably. A
//! [`RetryPolicy`] (exponential backoff + jitter) re-sends requests that
//! failed transiently: connect refused and typed `Busy` rejections are
//! always retried (the request provably never dispatched), timeouts only
//! for idempotent requests, and a `run` whose stream already started is
//! never re-sent.
//!
//! Each method builds its [`Request`] and matches the [`Response`]
//! variant it expects; any other reply is a typed
//! [`ClientError::UnexpectedResponse`], never a panic. Whether a
//! request is idempotent is read from its row of the protocol's endpoint
//! table ([`Request::endpoint`]).

use crate::extract::extract_pes_from_source;
use laminar_server::protocol::SemanticHit;
use laminar_server::protocol::{
    content_hash, BatchItemWire, BatchOutcomeWire, FaultPolicyWire, PeInfo, RecommendationHit,
    ResourceRefWire, RunFailure, RunInputWire, RunMode, RunOutput, WorkflowInfo,
};
use laminar_server::{
    Connection, ConnectionError, EmbeddingType, Ident, LaminarServer, MetricsSnapshot,
    PeSubmission, Reply, Request, Response, SearchScope, Transport, WireFrame,
};
use std::fmt;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// Client-side errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    NotLoggedIn,
    Server(String),
    /// §IV-F: the server needs these resources uploaded first.
    NeedResources(Vec<String>),
    UnexpectedResponse(String),
    /// A typed connection-level failure that survived the retry policy
    /// (or was never retryable).
    Connection(ConnectionError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::NotLoggedIn => write!(f, "not logged in"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::NeedResources(r) => write!(f, "server needs resources: {r:?}"),
            ClientError::UnexpectedResponse(m) => write!(f, "unexpected response: {m}"),
            ClientError::Connection(e) => write!(f, "connection error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<RunFailure> for ClientError {
    fn from(f: RunFailure) -> Self {
        match f {
            RunFailure::Server(m) => ClientError::Server(m),
            RunFailure::Connection(e) => ClientError::Connection(e),
        }
    }
}

/// Exponential-backoff retry policy for transient connection failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each further attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based): exponential,
    /// capped, plus up to 50% jitter so a herd of rejected clients does
    /// not retry in lockstep.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16));
        let capped = exp.min(self.max_delay);
        // Jitter without a rand dependency: the clock's subsecond nanos
        // are as good as random across concurrent clients.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::from(d.subsec_nanos()))
            .unwrap_or(0);
        capped + capped.mul_f64((nanos % 1000) as f64 / 2000.0)
    }
}

/// Result of the tokenless `health` endpoint: liveness, readiness and
/// the storage-health facts behind them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The server answered at all.
    pub live: bool,
    /// The server can accept mutations (storage healthy).
    pub ready: bool,
    /// Current storage state.
    pub storage: laminar_server::StorageStateWire,
    /// Most recent persistence error, if any has ever occurred.
    pub last_persist_error: Option<String>,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Healthy→Degraded transitions since start.
    pub degraded_transitions: u64,
}

/// Result of a registry compaction (`laminar compact`): what the snapshot
/// absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// WAL records folded into the snapshot.
    pub wal_records: u64,
    /// WAL bytes reclaimed.
    pub wal_bytes: u64,
    /// Size of the snapshot written.
    pub snapshot_bytes: u64,
}

/// Result of registering a workflow file (Fig. 5a's output).
#[derive(Debug, Clone, PartialEq)]
pub struct RegisteredWorkflow {
    /// `(PE name, id)` pairs, in file order.
    pub pes: Vec<(String, u64)>,
    /// `(workflow name, id)`.
    pub workflow: (String, u64),
}

/// Result of a code completion: `(source PE (id, name) if any, suggested
/// lines, progress fraction)`.
pub type CompletionResult = (Option<(u64, String)>, Vec<String>, f32);

/// The Laminar client.
pub struct LaminarClient {
    connection: Box<dyn Connection>,
    retry: RetryPolicy,
    /// How retry backoff waits. Production sleeps the thread; the
    /// deterministic simulation harness injects a virtual-clock sleeper
    /// so backoff never consumes real time.
    sleeper: Arc<dyn Fn(Duration) + Send + Sync>,
    token: Option<u64>,
    /// Local resource staging area: name → bytes (replaces 1.0's
    /// `resources/` directory — §IV-F "direct file path specification").
    staged_resources: Vec<(String, Vec<u8>)>,
}

impl LaminarClient {
    /// Connect in-process: each reply, a run's frame stream included, is
    /// the server's own. Runs stream (the 2.0 default), since the client
    /// sets the `Run` request's `streaming` flag.
    pub fn connect(server: Arc<LaminarServer>) -> Self {
        Self::over(Transport::new(server))
    }

    /// Connect to a TCP server (see [`laminar_server::NetServer`]).
    pub fn connect_tcp(addr: std::net::SocketAddr) -> Self {
        Self::over(laminar_server::NetClientTransport::new(addr))
    }

    /// Connect over any [`Connection`] implementation.
    pub fn over<T: Connection + 'static>(connection: T) -> Self {
        LaminarClient {
            connection: Box::new(connection),
            retry: RetryPolicy::default(),
            sleeper: Arc::new(std::thread::sleep),
            token: None,
            staged_resources: Vec::new(),
        }
    }

    /// Replace the retry policy (default: 4 attempts, 25 ms base,
    /// 1 s cap).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replace how retry backoff waits (default: `thread::sleep`). The
    /// simulation harness injects a no-op sleeper here, so no retry of
    /// an episode waits on the host's clock.
    pub fn with_sleeper(mut self, sleeper: Arc<dyn Fn(Duration) + Send + Sync>) -> Self {
        self.sleeper = sleeper;
        self
    }

    fn token(&self) -> Result<u64, ClientError> {
        self.token.ok_or(ClientError::NotLoggedIn)
    }

    /// Issue one request through the connection, applying the retry
    /// policy: `Unavailable`/`Busy` always retry (the request provably
    /// never dispatched — the server rejects *before* handing the request
    /// to a worker); timeouts retry only for requests whose endpoint row
    /// is idempotent. A run whose stream already opened comes back as
    /// `Ok(Reply::Stream)` and is therefore never re-sent from here.
    fn dispatch(&self, req: Request) -> Result<Reply, ClientError> {
        let idempotent = req.endpoint().idempotent;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.connection.call(req.clone()) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // Degraded is retried only for idempotent requests:
                    // the server rejected before applying anything, but
                    // whether a re-send can duplicate work is an endpoint
                    // property, and the degraded spell may outlast the
                    // whole backoff schedule anyway.
                    let retryable = e.is_transient()
                        || (idempotent
                            && matches!(
                                e,
                                ConnectionError::TimedOut { .. } | ConnectionError::Degraded { .. }
                            ));
                    if !retryable || attempt >= self.retry.max_attempts {
                        return Err(ClientError::Connection(e));
                    }
                    let hint = match &e {
                        ConnectionError::Busy { retry_after_ms }
                        | ConnectionError::Degraded { retry_after_ms, .. } => {
                            Duration::from_millis(*retry_after_ms)
                        }
                        _ => Duration::ZERO,
                    };
                    (self.sleeper)(self.retry.backoff(attempt).max(hint));
                }
            }
        }
    }

    fn value(&self, req: Request) -> Result<Response, ClientError> {
        match self.dispatch(req)? {
            Reply::Value(Response::Error(e)) => Err(ClientError::Server(e)),
            Reply::Value(v) => Ok(v),
            Reply::Stream(_) => Err(ClientError::UnexpectedResponse("stream".into())),
        }
    }

    /// Fetch the server's metrics snapshot (the `laminar metrics` verb).
    pub fn metrics(&self) -> Result<MetricsSnapshot, ClientError> {
        match self.value(Request::Metrics {})? {
            Response::Metrics(snap) => Ok(*snap),
            other => unexpected(other),
        }
    }

    /// Fetch the server's liveness/readiness and storage health (the
    /// tokenless `laminar health` verb — suitable for container
    /// healthchecks).
    pub fn health(&self) -> Result<HealthReport, ClientError> {
        match self.value(Request::Health {})? {
            Response::Health {
                live,
                ready,
                storage,
                last_persist_error,
                uptime_ms,
                degraded_transitions,
            } => Ok(HealthReport {
                live,
                ready,
                storage,
                last_persist_error,
                uptime_ms,
                degraded_transitions,
            }),
            other => unexpected(other),
        }
    }

    /// Force a registry snapshot compaction (the `laminar compact` verb).
    /// Returns what was folded into the snapshot; errors when the server
    /// runs without a data directory. Safe to retry: compacting an
    /// already-compacted registry just rewrites the same snapshot.
    pub fn compact(&self) -> Result<CompactReport, ClientError> {
        match self.value(Request::Compact {
            token: self.token()?,
        })? {
            Response::Compacted {
                wal_records,
                wal_bytes,
                snapshot_bytes,
            } => Ok(CompactReport {
                wal_records,
                wal_bytes,
                snapshot_bytes,
            }),
            other => unexpected(other),
        }
    }

    // ---- auth -----------------------------------------------------------

    /// `register`: create a user and start a session.
    pub fn register(&mut self, username: &str, password: &str) -> Result<(), ClientError> {
        let req = Request::RegisterUser {
            username: username.into(),
            password: password.into(),
        };
        match self.value(req)? {
            Response::Token(t) => {
                self.token = Some(t);
                Ok(())
            }
            other => unexpected(other),
        }
    }

    /// `login`: authenticate an existing user.
    pub fn login(&mut self, username: &str, password: &str) -> Result<(), ClientError> {
        let req = Request::Login {
            username: username.into(),
            password: password.into(),
        };
        match self.value(req)? {
            Response::Token(t) => {
                self.token = Some(t);
                Ok(())
            }
            other => unexpected(other),
        }
    }

    // ---- registration -----------------------------------------------------

    /// `register_PE`: register one PE (description auto-generated when
    /// `None` — §IV-C).
    pub fn register_pe(
        &self,
        name: &str,
        code: &str,
        description: Option<&str>,
    ) -> Result<u64, ClientError> {
        let req = Request::RegisterPe {
            token: self.token()?,
            pe: PeSubmission {
                name: name.into(),
                code: code.into(),
                description: description.map(str::to_string),
            },
        };
        match self.value(req)? {
            Response::Registered { pe_ids, .. } if !pe_ids.is_empty() => Ok(pe_ids[0].1),
            other => unexpected(other),
        }
    }

    /// `register_Workflow`: analyse a workflow source, register its PEs and
    /// the workflow itself (Fig. 5a).
    pub fn register_workflow(
        &self,
        workflow_name: &str,
        source: &str,
    ) -> Result<RegisteredWorkflow, ClientError> {
        let req = Request::RegisterWorkflow {
            token: self.token()?,
            name: workflow_name.into(),
            code: source.into(),
            description: None,
            pes: extract_pes_from_source(source),
        };
        match self.value(req)? {
            Response::Registered {
                pe_ids,
                workflow_id,
            } => Ok(RegisteredWorkflow {
                pes: pe_ids,
                workflow: workflow_id
                    .ok_or_else(|| ClientError::UnexpectedResponse("no workflow id".into()))?,
            }),
            other => unexpected(other),
        }
    }

    /// `ingest`: register a batch of PEs and workflows in one request.
    /// The server pipelines the analysis stages across items, commits the
    /// whole batch under a single WAL fsync and publishes one
    /// search-index snapshot. Outcomes come back per item, in submission
    /// order — a failed item does not abort the rest.
    pub fn register_batch(
        &self,
        items: Vec<BatchItemWire>,
    ) -> Result<Vec<BatchOutcomeWire>, ClientError> {
        let req = Request::RegisterBatch {
            token: self.token()?,
            items,
        };
        match self.value(req)? {
            Response::BatchRegistered { outcomes } => Ok(outcomes),
            other => unexpected(other),
        }
    }

    // ---- reads -------------------------------------------------------------

    /// `get_PE`.
    pub fn get_pe(&self, ident: impl Into<Ident>) -> Result<PeInfo, ClientError> {
        let req = Request::GetPe {
            token: self.token()?,
            ident: ident.into(),
        };
        match self.value(req)? {
            Response::Pe(p) => Ok(p),
            other => unexpected(other),
        }
    }

    /// `get_Workflow`.
    pub fn get_workflow(&self, ident: impl Into<Ident>) -> Result<WorkflowInfo, ClientError> {
        let req = Request::GetWorkflow {
            token: self.token()?,
            ident: ident.into(),
        };
        match self.value(req)? {
            Response::Workflow(w) => Ok(w),
            other => unexpected(other),
        }
    }

    /// `get_PEs_By_Workflow`.
    pub fn get_pes_by_workflow(&self, ident: impl Into<Ident>) -> Result<Vec<PeInfo>, ClientError> {
        let req = Request::GetPesByWorkflow {
            token: self.token()?,
            ident: ident.into(),
        };
        match self.value(req)? {
            Response::Pes(p) => Ok(p),
            other => unexpected(other),
        }
    }

    /// `get_Registry`.
    pub fn get_registry(&self) -> Result<(Vec<PeInfo>, Vec<WorkflowInfo>), ClientError> {
        let req = Request::GetRegistry {
            token: self.token()?,
        };
        match self.value(req)? {
            Response::Registry { pes, workflows } => Ok((pes, workflows)),
            other => unexpected(other),
        }
    }

    /// `describe`.
    pub fn describe(
        &self,
        scope: SearchScope,
        ident: impl Into<Ident>,
    ) -> Result<String, ClientError> {
        let req = Request::Describe {
            token: self.token()?,
            scope,
            ident: ident.into(),
        };
        match self.value(req)? {
            Response::Description(d) => Ok(d),
            other => unexpected(other),
        }
    }

    // ---- updates / removals ---------------------------------------------------

    /// `update_PE_Description`.
    pub fn update_pe_description(
        &self,
        ident: impl Into<Ident>,
        description: &str,
    ) -> Result<(), ClientError> {
        let req = Request::UpdatePeDescription {
            token: self.token()?,
            ident: ident.into(),
            description: description.into(),
        };
        match self.value(req)? {
            Response::Ok => Ok(()),
            other => unexpected(other),
        }
    }

    /// `update_Workflow_Description`.
    pub fn update_workflow_description(
        &self,
        ident: impl Into<Ident>,
        description: &str,
    ) -> Result<(), ClientError> {
        let req = Request::UpdateWorkflowDescription {
            token: self.token()?,
            ident: ident.into(),
            description: description.into(),
        };
        match self.value(req)? {
            Response::Ok => Ok(()),
            other => unexpected(other),
        }
    }

    /// `remove_PE`.
    pub fn remove_pe(&self, ident: impl Into<Ident>) -> Result<(), ClientError> {
        let req = Request::RemovePe {
            token: self.token()?,
            ident: ident.into(),
        };
        match self.value(req)? {
            Response::Ok => Ok(()),
            other => unexpected(other),
        }
    }

    /// `remove_Workflow`.
    pub fn remove_workflow(&self, ident: impl Into<Ident>) -> Result<(), ClientError> {
        let req = Request::RemoveWorkflow {
            token: self.token()?,
            ident: ident.into(),
        };
        match self.value(req)? {
            Response::Ok => Ok(()),
            other => unexpected(other),
        }
    }

    /// `remove_All`.
    pub fn remove_all(&self) -> Result<(), ClientError> {
        let req = Request::RemoveAll {
            token: self.token()?,
        };
        match self.value(req)? {
            Response::Ok => Ok(()),
            other => unexpected(other),
        }
    }

    // ---- search -------------------------------------------------------------

    /// `search_Registry_Literal` (server-default result cap).
    pub fn search_registry_literal(
        &self,
        scope: SearchScope,
        term: &str,
    ) -> Result<(Vec<PeInfo>, Vec<WorkflowInfo>), ClientError> {
        self.search_registry_literal_top(scope, term, None)
    }

    /// `search_Registry_Literal` with an explicit result cap (the CLI's
    /// `--top N`; `None` keeps the server default).
    pub fn search_registry_literal_top(
        &self,
        scope: SearchScope,
        term: &str,
        top_n: Option<usize>,
    ) -> Result<(Vec<PeInfo>, Vec<WorkflowInfo>), ClientError> {
        let req = Request::SearchLiteral {
            token: self.token()?,
            scope,
            term: term.into(),
            top_n,
        };
        match self.value(req)? {
            Response::Registry { pes, workflows } => Ok((pes, workflows)),
            other => unexpected(other),
        }
    }

    /// `search_Registry_Semantic` (Fig. 8, server-default top-k).
    pub fn search_registry_semantic(
        &self,
        scope: SearchScope,
        query: &str,
    ) -> Result<Vec<SemanticHit>, ClientError> {
        self.search_registry_semantic_top(scope, query, None)
    }

    /// `search_Registry_Semantic` with an explicit top-k.
    pub fn search_registry_semantic_top(
        &self,
        scope: SearchScope,
        query: &str,
        top_n: Option<usize>,
    ) -> Result<Vec<SemanticHit>, ClientError> {
        let req = Request::SearchSemantic {
            token: self.token()?,
            scope,
            query: query.into(),
            top_n,
        };
        match self.value(req)? {
            Response::SemanticResults(hits) => Ok(hits),
            other => unexpected(other),
        }
    }

    /// `code_Recommendation` (Fig. 9, server-default top-k).
    pub fn code_recommendation(
        &self,
        scope: SearchScope,
        snippet: &str,
        embedding_type: EmbeddingType,
    ) -> Result<Vec<RecommendationHit>, ClientError> {
        self.code_recommendation_top(scope, snippet, embedding_type, None)
    }

    /// `code_Recommendation` with an explicit top-k.
    pub fn code_recommendation_top(
        &self,
        scope: SearchScope,
        snippet: &str,
        embedding_type: EmbeddingType,
        top_n: Option<usize>,
    ) -> Result<Vec<RecommendationHit>, ClientError> {
        let req = Request::CodeRecommendation {
            token: self.token()?,
            scope,
            snippet: snippet.into(),
            embedding_type,
            top_n,
        };
        match self.value(req)? {
            Response::Recommendations(hits) => Ok(hits),
            other => unexpected(other),
        }
    }

    /// Context-aware code completion (§III): returns
    /// `(source PE (id, name) if any, suggested lines, progress)`.
    pub fn code_completion(&self, snippet: &str) -> Result<CompletionResult, ClientError> {
        let req = Request::CodeCompletion {
            token: self.token()?,
            snippet: snippet.into(),
        };
        match self.value(req)? {
            Response::Completion {
                source,
                lines,
                progress,
            } => Ok((source, lines, progress)),
            other => unexpected(other),
        }
    }

    // ---- resources -------------------------------------------------------------

    /// Stage a resource file for the next run (§IV-F: direct file-path
    /// specification instead of a `resources/` directory).
    pub fn stage_resource(&mut self, name: &str, bytes: Vec<u8>) {
        self.staged_resources.retain(|(n, _)| n != name);
        self.staged_resources.push((name.to_string(), bytes));
    }

    fn resource_refs(&self) -> Vec<ResourceRefWire> {
        self.staged_resources
            .iter()
            .map(|(name, bytes)| ResourceRefWire {
                name: name.clone(),
                content_hash: content_hash(bytes),
            })
            .collect()
    }

    // ---- runs -------------------------------------------------------------------

    /// `run`: sequential execution (Table I).
    pub fn run(&self, ident: impl Into<Ident>, input: u64) -> Result<RunOutput, ClientError> {
        self.run_mode(
            ident.into(),
            RunInputWire::Iterations(input),
            RunMode::Sequential,
            false,
        )
    }

    /// `run_multiprocess`: static parallel execution.
    pub fn run_multiprocess(
        &self,
        ident: impl Into<Ident>,
        input: u64,
        processes: usize,
    ) -> Result<RunOutput, ClientError> {
        self.run_mode(
            ident.into(),
            RunInputWire::Iterations(input),
            RunMode::Multiprocess { processes },
            true,
        )
    }

    /// `run_dynamic`: the Listing 3 one-liner — no broker parameters.
    pub fn run_dynamic(
        &self,
        ident: impl Into<Ident>,
        input: u64,
    ) -> Result<RunOutput, ClientError> {
        self.run_mode(
            ident.into(),
            RunInputWire::Iterations(input),
            RunMode::Dynamic,
            false,
        )
    }

    /// Fully general run: any input shape × any mapping × verbosity, under
    /// an explicit fault policy and (dynamic mapping) per-task timeout —
    /// the `--fault-policy` / `--task-timeout-ms` surface of the CLI.
    pub fn run_custom_faults(
        &self,
        ident: impl Into<Ident>,
        input: RunInputWire,
        mode: RunMode,
        verbose: bool,
        fault: FaultPolicyWire,
        task_timeout_ms: Option<u64>,
    ) -> Result<RunOutput, ClientError> {
        let rx =
            self.run_stream_faults(ident.into(), input, mode, verbose, fault, task_timeout_ms)?;
        Ok(Reply::Stream(rx).drain()?)
    }

    /// Execution history of a workflow (the Execution/Response tables).
    pub fn get_executions(
        &self,
        ident: impl Into<Ident>,
    ) -> Result<Vec<laminar_server::protocol::ExecutionInfo>, ClientError> {
        let req = Request::GetExecutions {
            token: self.token()?,
            ident: ident.into(),
        };
        match self.value(req)? {
            Response::Executions(rows) => Ok(rows),
            other => unexpected(other),
        }
    }

    fn run_mode(
        &self,
        ident: Ident,
        input: RunInputWire,
        mode: RunMode,
        verbose: bool,
    ) -> Result<RunOutput, ClientError> {
        let rx = self.run_stream(ident, input, mode, verbose)?;
        Ok(Reply::Stream(rx).drain()?)
    }

    /// Streaming run: frames as they arrive (§IV-E). Automatically
    /// negotiates resources: on `NeedResources` the staged files are
    /// uploaded and the run is retried once.
    pub fn run_stream(
        &self,
        ident: Ident,
        input: RunInputWire,
        mode: RunMode,
        verbose: bool,
    ) -> Result<Receiver<WireFrame>, ClientError> {
        self.run_stream_faults(
            ident,
            input,
            mode,
            verbose,
            FaultPolicyWire::default(),
            None,
        )
    }

    /// [`LaminarClient::run_stream`] under an explicit fault policy.
    fn run_stream_faults(
        &self,
        ident: Ident,
        input: RunInputWire,
        mode: RunMode,
        verbose: bool,
        fault: FaultPolicyWire,
        task_timeout_ms: Option<u64>,
    ) -> Result<Receiver<WireFrame>, ClientError> {
        let make_req = |token| Request::Run {
            token,
            ident: ident.clone(),
            input: input.clone(),
            mode: mode.clone(),
            streaming: true,
            verbose,
            resources: self.resource_refs(),
            fault: fault.clone(),
            task_timeout_ms,
        };
        match self.dispatch(make_req(self.token()?))? {
            Reply::Value(Response::NeedResources(names)) => {
                for name in &names {
                    let Some((_, bytes)) = self.staged_resources.iter().find(|(n, _)| n == name)
                    else {
                        return Err(ClientError::NeedResources(names.clone()));
                    };
                    self.value(Request::UploadResource {
                        token: self.token()?,
                        name: name.clone(),
                        bytes: bytes.clone(),
                    })?;
                }
                match self.dispatch(make_req(self.token()?))? {
                    Reply::Stream(rx) => Ok(rx),
                    Reply::Value(Response::Error(e)) => Err(ClientError::Server(e)),
                    Reply::Value(v) => Err(ClientError::UnexpectedResponse(format!("{v:?}"))),
                }
            }
            Reply::Stream(rx) => Ok(rx),
            Reply::Value(Response::Error(e)) => Err(ClientError::Server(e)),
            Reply::Value(v) => Err(ClientError::UnexpectedResponse(format!("{v:?}"))),
        }
    }
}

/// The reply to a request answered with a variant it does not expect.
fn unexpected<T>(other: Response) -> Result<T, ClientError> {
    Err(ClientError::UnexpectedResponse(format!("{other:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use d4py::Data;

    const WORKFLOW_FILE: &str = "\
import random

class NumberProducer(ProducerPE):
    def _process(self, inputs):
        return random.randint(1, 1000)

class IsPrime(IterativePE):
    def _process(self, num):
        if all(num % i != 0 for i in range(2, num)):
            return num

class PrintPrime(ConsumerPE):
    def _process(self, num):
        print('the num {} is prime'.format(num))
";

    fn client() -> LaminarClient {
        let server = Arc::new(LaminarServer::with_stock());
        let mut c = LaminarClient::connect(server);
        c.register("rosa", "pw").unwrap();
        c
    }

    fn client_with_isprime() -> (LaminarClient, RegisteredWorkflow) {
        let c = client();
        let reg = c.register_workflow("isprime_wf", WORKFLOW_FILE).unwrap();
        (c, reg)
    }

    #[test]
    fn not_logged_in_errors() {
        let server = Arc::new(LaminarServer::with_stock());
        let c = LaminarClient::connect(server);
        assert_eq!(c.get_registry().unwrap_err(), ClientError::NotLoggedIn);
    }

    #[test]
    fn register_workflow_finds_pes_fig5a() {
        let (_c, reg) = client_with_isprime();
        let names: Vec<&str> = reg.pes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["NumberProducer", "IsPrime", "PrintPrime"]);
        assert_eq!(reg.workflow.0, "isprime_wf");
    }

    #[test]
    fn register_batch_reports_per_item_outcomes() {
        let c = client();
        let items = vec![
            BatchItemWire::Pe(PeSubmission {
                name: "Standalone".into(),
                code:
                    "class Standalone(IterativePE):\n    def _process(self, x):\n        return x\n"
                        .into(),
                description: None,
            }),
            BatchItemWire::Workflow {
                name: "batch_wf".into(),
                code: WORKFLOW_FILE.into(),
                description: None,
                pes: extract_pes_from_source(WORKFLOW_FILE),
            },
        ];
        let outcomes = c.register_batch(items).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(outcomes[0], BatchOutcomeWire::Registered { .. }));
        match &outcomes[1] {
            BatchOutcomeWire::Registered {
                pe_ids,
                workflow_id,
            } => {
                assert_eq!(pe_ids.len(), 3);
                assert_eq!(workflow_id.as_ref().unwrap().0, "batch_wf");
            }
            other => panic!("expected Registered outcome: {other:?}"),
        }
        let (pes, wfs) = c.get_registry().unwrap();
        assert_eq!(pes.len(), 4);
        assert_eq!(wfs.len(), 1);
        // Without a session the client refuses before sending.
        let fresh = LaminarClient::connect(Arc::new(LaminarServer::with_stock()));
        assert_eq!(
            fresh.register_batch(vec![]).unwrap_err(),
            ClientError::NotLoggedIn
        );
    }

    #[test]
    fn table1_read_functions() {
        let (c, reg) = client_with_isprime();
        let pe = c.get_pe(reg.pes[1].1).unwrap();
        assert_eq!(pe.name, "IsPrime");
        let pe2 = c.get_pe("IsPrime").unwrap();
        assert_eq!(pe, pe2);
        let wf = c.get_workflow("isprime_wf").unwrap();
        assert_eq!(wf.pe_ids.len(), 3);
        let pes = c.get_pes_by_workflow(reg.workflow.1).unwrap();
        assert_eq!(pes.len(), 3);
        let (all_pes, all_wfs) = c.get_registry().unwrap();
        assert_eq!(all_pes.len(), 3);
        assert_eq!(all_wfs.len(), 1);
        let d = c.describe(SearchScope::Pe, "IsPrime").unwrap();
        assert!(d.contains("class IsPrime"));
    }

    #[test]
    fn table1_update_and_remove_functions() {
        let (c, reg) = client_with_isprime();
        c.update_pe_description(reg.pes[0].1, "produces random numbers")
            .unwrap();
        assert_eq!(
            c.get_pe(reg.pes[0].1).unwrap().description,
            "produces random numbers"
        );
        c.update_workflow_description(reg.workflow.1, "the prime workflow")
            .unwrap();
        assert_eq!(
            c.get_workflow(reg.workflow.1).unwrap().description,
            "the prime workflow"
        );
        c.remove_workflow(reg.workflow.1).unwrap();
        c.remove_pe(reg.pes[0].1).unwrap();
        c.remove_all().unwrap();
        let (pes, wfs) = c.get_registry().unwrap();
        assert!(pes.is_empty() && wfs.is_empty());
    }

    #[test]
    fn table1_search_functions() {
        let (c, _) = client_with_isprime();
        let (pes, wfs) = c
            .search_registry_literal(SearchScope::Both, "prime")
            .unwrap();
        assert!(!pes.is_empty());
        assert!(!wfs.is_empty());
        let hits = c
            .search_registry_semantic(SearchScope::Pe, "checks if a number is prime")
            .unwrap();
        assert!(!hits.is_empty());
        // Without user docstrings the auto-descriptions only discriminate
        // at family level: the top hit must be from the prime family.
        assert!(hits[0].name.contains("Prime"), "{hits:?}");
        let recos = c
            .code_recommendation(
                SearchScope::Pe,
                "random.randint(1, 1000)",
                EmbeddingType::Spt,
            )
            .unwrap();
        assert_eq!(recos[0].name, "NumberProducer");
    }

    #[test]
    fn search_top_n_caps_results() {
        let (c, _) = client_with_isprime();
        let (pes, _) = c
            .search_registry_literal_top(SearchScope::Both, "prime", Some(1))
            .unwrap();
        assert_eq!(pes.len(), 1);
        let hits = c
            .search_registry_semantic_top(SearchScope::Pe, "a prime checker", Some(2))
            .unwrap();
        assert!(hits.len() <= 2, "{hits:?}");
    }

    #[test]
    fn run_with_fault_policy_on_clean_workflow() {
        let (c, _) = client_with_isprime();
        let out = c
            .run_custom_faults(
                "isprime_wf",
                RunInputWire::Iterations(10),
                RunMode::Sequential,
                false,
                FaultPolicyWire::Retry {
                    max_attempts: 3,
                    backoff_ms: 1,
                },
                None,
            )
            .unwrap();
        assert!(out.ok);
        assert!(!out.lines.is_empty());
        // A fault-free run carries no dead letters and no fault frame.
        assert!(out.dead_letters.is_empty());
        assert!(out.fault_stats.is_none());
    }

    #[test]
    fn run_functions_all_mappings() {
        let (c, _) = client_with_isprime();
        let seq = c.run("isprime_wf", 15).unwrap();
        assert!(seq.ok);
        assert!(!seq.lines.is_empty());
        let par = c.run_multiprocess("isprime_wf", 15, 9).unwrap();
        assert!(par.ok);
        assert!(!par.summaries.is_empty(), "verbose parallel run");
        let dynr = c.run_dynamic("isprime_wf", 15).unwrap();
        assert!(dynr.ok);
        // Same prime multiset across mappings.
        let mut a = seq.lines.clone();
        let mut b = par.lines.clone();
        let mut d = dynr.lines.clone();
        a.sort();
        b.sort();
        d.sort();
        assert_eq!(a, b);
        assert_eq!(a, d);
    }

    #[test]
    fn resource_negotiation_roundtrip() {
        let (mut c, _) = client_with_isprime();
        c.stage_resource("input.csv", b"1,2,3".to_vec());
        let out = c.run("isprime_wf", 3).unwrap();
        assert!(out.ok);
        // Second run: cache hit, no re-upload.
        let out2 = c.run("isprime_wf", 3).unwrap();
        assert!(out2.ok);
        // Server received the bytes exactly once.
        // (5 bytes staged; the transport-level accounting lives server-side.)
    }

    #[test]
    fn run_unknown_workflow_is_server_error() {
        let c = client();
        assert!(matches!(c.run("ghost_wf", 1), Err(ClientError::Server(_))));
    }

    #[test]
    fn run_data_feeds_values() {
        let (c, _) = client_with_isprime();
        let out = c
            .run_custom_faults(
                "isprime_wf",
                RunInputWire::Data(vec![Data::from(7i64), Data::from(8i64), Data::from(11i64)]),
                RunMode::Sequential,
                false,
                FaultPolicyWire::default(),
                None,
            )
            .unwrap();
        assert!(out.ok);
    }

    #[test]
    fn metrics_snapshot_via_client() {
        let (c, _) = client_with_isprime();
        let snap = c.metrics().unwrap();
        assert!(
            snap.endpoints
                .iter()
                .any(|e| e.endpoint == "RegisterWorkflow" && e.requests > 0),
            "{snap:?}"
        );
        assert!(snap.render().contains("RegisterWorkflow"));
    }

    #[test]
    fn health_is_tokenless_and_ready_on_a_healthy_server() {
        let server = Arc::new(LaminarServer::with_stock());
        let c = LaminarClient::connect(server);
        let h = c.health().unwrap();
        assert!(h.live);
        assert!(h.ready, "{h:?}");
        assert_eq!(h.storage, laminar_server::StorageStateWire::Healthy);
        assert_eq!(h.degraded_transitions, 0);
        assert!(h.last_persist_error.is_none());
    }

    #[test]
    fn compact_without_data_dir_is_server_error() {
        let (c, _) = client_with_isprime();
        let err = c.compact().unwrap_err();
        assert!(
            matches!(err, ClientError::Server(ref m) if m.contains("--data-dir")),
            "{err:?}"
        );
    }

    /// A peer that reads one request and answers `Begin` and one `Line`,
    /// then closes the socket: no `End`, no error value, no sentinel.
    fn cut_stream_peer() -> std::net::SocketAddr {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut len = [0u8; 4];
            sock.read_exact(&mut len).unwrap();
            let mut request = vec![0u8; u32::from_be_bytes(len) as usize];
            sock.read_exact(&mut request).unwrap();
            for frame in [
                WireFrame::Begin { request_id: 1 },
                WireFrame::Line("partial".into()),
            ] {
                let json = serde_json::to_vec(&frame).unwrap();
                sock.write_all(&(json.len() as u32).to_be_bytes()).unwrap();
                sock.write_all(&json).unwrap();
            }
        });
        addr
    }

    /// A run stream cut before its terminal frame (`Begin` and one `Line`,
    /// then a closed socket) carries no error value, yet it is no success:
    /// the run is a typed `Protocol` error and the CLI exits nonzero.
    #[test]
    fn a_run_stream_cut_before_end_is_a_protocol_error() {
        let mut c = LaminarClient::connect_tcp(cut_stream_peer());
        c.token = Some(1);
        let err = c.run("wf", 1).unwrap_err();
        assert!(
            matches!(err, ClientError::Connection(ConnectionError::Protocol(_))),
            "{err:?}"
        );

        // A scripted CLI session that meets the cut exits nonzero.
        let mut c = LaminarClient::connect_tcp(cut_stream_peer());
        c.token = Some(1);
        let mut cli = crate::Cli::new(c);
        let out = cli.execute("run wf");
        assert!(cli.last_command_failed(), "{out}");
        assert_eq!(cli.exit_code(), 1);
    }

    /// A peer that answers each connection's first request with a token
    /// and closes it, as a server without keep-alive does. Returns its
    /// address and the count of requests it has read.
    fn one_request_peer() -> (std::net::SocketAddr, Arc<std::sync::atomic::AtomicUsize>) {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let count = served.clone();
        std::thread::spawn(move || {
            for sock in listener.incoming() {
                let mut sock = sock.unwrap();
                let mut len = [0u8; 4];
                sock.read_exact(&mut len).unwrap();
                let mut request = vec![0u8; u32::from_be_bytes(len) as usize];
                sock.read_exact(&mut request).unwrap();
                count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let json = serde_json::to_vec(&WireFrame::Value(Response::Token(7))).unwrap();
                let mut reply = (json.len() as u32).to_be_bytes().to_vec();
                reply.extend_from_slice(&json);
                reply.extend_from_slice(&0u32.to_be_bytes());
                sock.write_all(&reply).unwrap();
            }
        });
        (addr, served)
    }

    /// A peer that closes after every reply still serves every call of a
    /// client that never retries: the kept socket fails before its reply
    /// begins, and the transport resends on a fresh one.
    #[test]
    fn a_peer_that_closes_after_each_reply_serves_every_call() {
        let (addr, served) = one_request_peer();
        let mut c = LaminarClient::connect_tcp(addr).with_retry(RetryPolicy::none());
        for i in 0..5 {
            c.login("x", "y")
                .unwrap_or_else(|e| panic!("call {i}: {e}"));
        }
        assert_eq!(served.load(std::sync::atomic::Ordering::SeqCst), 5);
    }

    /// A faulty or hostile peer: every request gets the same reply.
    struct Canned(Response);

    impl Connection for Canned {
        fn call(&self, _req: Request) -> Result<Reply, ConnectionError> {
            Ok(Reply::Value(self.0.clone()))
        }
    }

    #[test]
    fn registered_reply_without_pe_ids_is_a_typed_error() {
        let mut c = LaminarClient::over(Canned(Response::Registered {
            pe_ids: vec![],
            workflow_id: None,
        }));
        c.token = Some(1);
        let err = c.register_pe("A", "x = 1", None).unwrap_err();
        assert!(matches!(err, ClientError::UnexpectedResponse(_)), "{err:?}");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::default();
        assert!(p.backoff(1) >= Duration::from_millis(25));
        assert!(p.backoff(2) >= Duration::from_millis(50));
        // Capped at max_delay plus ≤50% jitter, even for huge attempts.
        assert!(p.backoff(30) <= Duration::from_millis(1500));
    }

    #[test]
    fn connect_refused_surfaces_as_unavailable_after_retries() {
        // Port 1 is essentially never listening on loopback.
        let mut c =
            LaminarClient::connect_tcp("127.0.0.1:1".parse().unwrap()).with_retry(RetryPolicy {
                max_attempts: 2,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
            });
        let err = c.login("x", "y").unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Connection(ConnectionError::Unavailable(_))
            ),
            "{err:?}"
        );
    }
}
