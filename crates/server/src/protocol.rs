//! The client↔server wire model.
//!
//! JSON-serialisable request/response types covering every client function
//! of Table I, plus the streamed frame type used by run responses. A real
//! HTTP layer would put `Request` in the body and stream `WireFrame`s; the
//! in-process and TCP transports do exactly that minus the HTTP headers.
//!
//! # Wire format
//!
//! Every message on the TCP transport is **length-prefixed JSON**: a
//! `u32` big-endian byte length followed by that many bytes of JSON.
//! A zero length is the **sentinel** marking end-of-response; it carries
//! no payload. Messages longer than `MAX_FRAME` (16 MiB) are rejected
//! with a typed `Response::Error` before the payload is read.
//!
//! The client sends one [`RequestEnvelope`] per connection; the server
//! answers with a sequence of [`WireFrame`]s terminated by the sentinel.
//! Synchronous replies are a single [`WireFrame::Value`]; streamed
//! replies open with [`WireFrame::Begin`] (carrying the request id minted
//! at ingress), interleave payload frames with [`WireFrame::Keepalive`]s
//! during quiet periods, and end with [`WireFrame::End`] (or a terminal
//! [`WireFrame::Value`] holding an error).
//!
//! # Version rules
//!
//! [`RequestEnvelope::protocol_version`] is serde-defaulted to `1`, so a
//! pre-versioning payload (a bare [`Request`] object) still parses — the
//! envelope's fields are flattened alongside the request's own tag. The
//! server accepts any version `<=` [`PROTOCOL_VERSION`] and answers a
//! newer one with the typed [`Response::Unsupported`] instead of an
//! opaque serde failure. Version history:
//!
//! * `1` — the original unversioned protocol (implicit).
//! * `2` — adds `Begin`/`Keepalive` frames, typed `Busy`/`TimedOut`/
//!   `Unsupported` rejections and the `Metrics` endpoint. All additions
//!   are backwards-compatible for version-1 readers that ignore unknown
//!   frames.
//! * `3` — adds the serde-defaulted `top_n` result cap to the search
//!   requests (`SearchLiteral`/`SearchSemantic`/`CodeRecommendation`).
//!   Version-2 payloads parse unchanged (`top_n: None` ⇒ server default).
//! * `4` — fault-tolerant enactment: `Run` gains the serde-defaulted
//!   `fault` policy ([`FaultPolicyWire`], default `FailFast`) and
//!   `task_timeout_ms`; run streams may carry the new `DeadLetter` and
//!   `Faults` frames. Version-3 payloads parse unchanged, and version-3
//!   readers that ignore unknown frames keep working.
//! * `5` — durable registry: adds the `Compact` request (fold the
//!   registry WAL into an atomic snapshot) and its `Compacted` response,
//!   and the metrics snapshot grows a serde-defaulted `persistence` row
//!   group. Version-4 payloads parse unchanged.
//! * `6` — batched ingestion: adds the `RegisterBatch` request (N
//!   PE/workflow registrations in one round-trip, committed through the
//!   group-commit WAL and one index snapshot swap) with its per-item
//!   `BatchRegistered` response, and the metrics snapshot grows a
//!   serde-defaulted `ingest` row group. Version-5 payloads parse
//!   unchanged.
//! * `7` — no request or frame changes; version-6 payloads parse
//!   unchanged. (It added a serde-defaulted metrics row group that has
//!   since been dropped; readers ignore it when an older server sends
//!   it.)
//! * `8` — storage health: adds the tokenless `Health` request and its
//!   `Health` response (liveness, readiness, storage state, last persist
//!   error, uptime, degraded-transition count), the typed `Degraded`
//!   rejection returned by mutating endpoints while the server is in
//!   read-only degraded mode, and a serde-defaulted `storage_health`
//!   metrics row group (io faults by site, degraded entries/exits, probe
//!   attempts, rejected-while-degraded counts). Version-7 payloads parse
//!   unchanged.
//! * `9` — full Aroma recommendations: [`RecommendationHit`] grows the
//!   serde-defaulted `cluster_size` and `common_core` fields (how many
//!   pruned snippets agreed on the hit, and the intersected idiom they
//!   share), and the metrics snapshot grows a serde-defaulted `reco` row
//!   group (per-stage pipeline latency and run counts; the LSH candidate
//!   counters it first carried went with the LSH gate — readers ignore
//!   fields they do not know). No request changes; version-8 payloads
//!   parse unchanged and version-8 readers see the old fields untouched.

use crate::obs::MetricsSnapshot;
use d4py::Data;
/// Re-exported so wire consumers can name the frame payload types without
/// depending on `d4py` directly.
pub use d4py::{DeadLetterEntry, FaultStats};
use serde::{Deserialize, Serialize};

/// The protocol version this build speaks (see the module doc's version
/// rules).
pub const PROTOCOL_VERSION: u16 = 9;

/// Session token handed out by register/login.
pub type Token = u64;

/// Id-or-name identifier (the CLI accepts both: `run 169` / `run isprime_wf`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Ident {
    Id(u64),
    Name(String),
}

impl From<u64> for Ident {
    fn from(id: u64) -> Self {
        Ident::Id(id)
    }
}

impl From<&str> for Ident {
    fn from(name: &str) -> Self {
        Ident::Name(name.to_string())
    }
}

/// What a search covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SearchScope {
    Pe,
    Workflow,
    Both,
}

/// Which embedding backs a code recommendation (paper Fig. 9:
/// `--embedding_type spt | llm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EmbeddingType {
    /// Aroma SPT structural features (the 2.0 default).
    Spt,
    /// ReACC-py-retriever-style dense code embedding (the 1.0 behaviour).
    Llm,
}

/// Execution mapping requested by the client.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunMode {
    /// `client.run` — sequential.
    Sequential,
    /// `client.run_multiprocess` — static parallel with `processes` ranks.
    Multiprocess { processes: usize },
    /// `client.run_dynamic` — Redis-style dynamic allocation. The paper's
    /// headline usability win: no broker parameters needed (Listing 3).
    Dynamic,
}

/// A PE extracted from a workflow file at registration time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeSubmission {
    pub name: String,
    pub code: String,
    pub description: Option<String>,
}

/// One registration unit: either a standalone PE or a workflow with its
/// member PEs. A `RegisterBatch` (v6) carries a list of them;
/// `RegisterPe` and `RegisterWorkflow` carry the fields of one and are
/// served as a batch of one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BatchItemWire {
    Pe(PeSubmission),
    Workflow {
        name: String,
        code: String,
        description: Option<String>,
        pes: Vec<PeSubmission>,
    },
}

/// Per-item result of a `RegisterBatch` (v6). The batch is *partially
/// successful* by design: item k can fail validation while the rest
/// commit, so the response carries one outcome per submitted item, in
/// submission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BatchOutcomeWire {
    /// The item committed — same shape as `Response::Registered`.
    Registered {
        pe_ids: Vec<(String, u64)>,
        workflow_id: Option<(String, u64)>,
    },
    /// The item failed validation; member PEs staged before the failure
    /// stay, and are listed.
    Failed {
        pe_ids: Vec<(String, u64)>,
        error: String,
    },
}

/// Enactment fault policy as transmitted (mirrors `d4py::FaultPolicy`,
/// with the backoff in milliseconds so the payload stays flat JSON).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FaultPolicyWire {
    /// Abort the run on the first PE failure (the pre-v4 behaviour).
    #[default]
    FailFast,
    /// Re-invoke up to `max_attempts` times with jittered backoff.
    Retry { max_attempts: u32, backoff_ms: u64 },
    /// After `max_attempts`, drop the datum into the dead-letter queue
    /// and keep the stream flowing.
    DeadLetter { max_attempts: u32 },
}

impl From<FaultPolicyWire> for d4py::FaultPolicy {
    fn from(w: FaultPolicyWire) -> Self {
        match w {
            FaultPolicyWire::FailFast => d4py::FaultPolicy::FailFast,
            FaultPolicyWire::Retry {
                max_attempts,
                backoff_ms,
            } => d4py::FaultPolicy::Retry {
                max_attempts,
                backoff: std::time::Duration::from_millis(backoff_ms),
            },
            FaultPolicyWire::DeadLetter { max_attempts } => {
                d4py::FaultPolicy::DeadLetter { max_attempts }
            }
        }
    }
}

/// Run input as transmitted (mirrors `d4py::RunInput`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunInputWire {
    Iterations(u64),
    Data(Vec<Data>),
}

impl From<RunInputWire> for d4py::RunInput {
    fn from(w: RunInputWire) -> Self {
        match w {
            RunInputWire::Iterations(n) => d4py::RunInput::Iterations(n),
            RunInputWire::Data(v) => d4py::RunInput::Data(v),
        }
    }
}

/// Reference to a resource the workflow needs (paper §IV-F): name +
/// FNV-64 content hash, so the server can answer from its cache.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceRefWire {
    pub name: String,
    pub content_hash: u64,
}

/// Every server operation. One variant per client function of Table I
/// (plus resource upload, which Table I folds into `run`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    RegisterUser {
        username: String,
        password: String,
    },
    Login {
        username: String,
        password: String,
    },
    /// A batch of one [`BatchItemWire::Pe`], answered with
    /// `Response::Registered` (re-registering a name the user owns
    /// returns that PE's id) or `Response::Error`.
    RegisterPe {
        token: Token,
        pe: PeSubmission,
    },
    /// A batch of one [`BatchItemWire::Workflow`]: the workflow and every
    /// member PE commit as one WAL frame and publish as one index
    /// snapshot. Answered with `Response::Registered` or — the item
    /// failed validation, e.g. the workflow name is taken; member PEs
    /// staged before that stay — `Response::Error`.
    RegisterWorkflow {
        token: Token,
        name: String,
        code: String,
        description: Option<String>,
        pes: Vec<PeSubmission>,
    },
    /// N PE/workflow registrations in one round-trip (v6), analysed in
    /// parallel and committed through one WAL frame + one index snapshot
    /// swap — the write path every registration takes. Answered with
    /// `Response::BatchRegistered` carrying per-item outcomes.
    RegisterBatch {
        token: Token,
        items: Vec<BatchItemWire>,
    },
    GetPe {
        token: Token,
        ident: Ident,
    },
    GetWorkflow {
        token: Token,
        ident: Ident,
    },
    GetPesByWorkflow {
        token: Token,
        ident: Ident,
    },
    GetRegistry {
        token: Token,
    },
    Describe {
        token: Token,
        scope: SearchScope,
        ident: Ident,
    },
    UpdatePeDescription {
        token: Token,
        ident: Ident,
        description: String,
    },
    UpdateWorkflowDescription {
        token: Token,
        ident: Ident,
        description: String,
    },
    RemovePe {
        token: Token,
        ident: Ident,
    },
    RemoveWorkflow {
        token: Token,
        ident: Ident,
    },
    RemoveAll {
        token: Token,
    },
    SearchLiteral {
        token: Token,
        scope: SearchScope,
        term: String,
        /// Result cap; `None` applies the server's default.
        #[serde(default)]
        top_n: Option<usize>,
    },
    SearchSemantic {
        token: Token,
        scope: SearchScope,
        query: String,
        /// Result cap; `None` applies the server's default.
        #[serde(default)]
        top_n: Option<usize>,
    },
    CodeRecommendation {
        token: Token,
        scope: SearchScope,
        snippet: String,
        embedding_type: EmbeddingType,
        /// Result cap; `None` applies the server's default.
        #[serde(default)]
        top_n: Option<usize>,
    },
    /// Context-aware code completion (§III): complete a partially-typed PE
    /// from the most structurally-similar registered PE.
    CodeCompletion {
        token: Token,
        snippet: String,
    },
    /// Execution history of a workflow (the registry's Execution/Response
    /// tables, Table II).
    GetExecutions {
        token: Token,
        ident: Ident,
    },
    Run {
        token: Token,
        ident: Ident,
        input: RunInputWire,
        mode: RunMode,
        streaming: bool,
        verbose: bool,
        /// Resources the workflow needs, by reference (2.0 path).
        resources: Vec<ResourceRefWire>,
        /// Enactment fault policy (v4; v3 payloads default to `FailFast`).
        #[serde(default)]
        fault: FaultPolicyWire,
        /// Per-task timeout for the dynamic mapping, in milliseconds
        /// (v4; `None` ⇒ no timeout).
        #[serde(default)]
        task_timeout_ms: Option<u64>,
    },
    /// Multipart resource upload (2.0 path, after a NeedResources reply).
    UploadResource {
        token: Token,
        name: String,
        bytes: Vec<u8>,
    },
    /// Laminar 1.0-style run: all resources inline on every request
    /// (kept for experiment E9's baseline).
    RunWithInlineResources {
        token: Token,
        ident: Ident,
        input: RunInputWire,
        mode: RunMode,
        resources: Vec<(String, Vec<u8>)>,
    },
    /// Observability endpoint: a point-in-time [`MetricsSnapshot`].
    /// Tokenless by design — it is the ops surface, not user data.
    Metrics {},
    /// Fold the registry's write-ahead log into a fresh atomic snapshot
    /// and truncate the WAL (v5). Errors when the server runs without a
    /// data directory.
    Compact {
        token: Token,
    },
    /// Health probe (v8): liveness, readiness, and the storage state
    /// machine. Tokenless like `Metrics` — it is the surface load
    /// balancers and healthchecks poll, not user data.
    Health {},
}

impl Request {
    /// Stable endpoint name, used as the per-endpoint metrics key and in
    /// log lines.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::RegisterUser { .. } => "RegisterUser",
            Request::Login { .. } => "Login",
            Request::RegisterPe { .. } => "RegisterPe",
            Request::RegisterWorkflow { .. } => "RegisterWorkflow",
            Request::RegisterBatch { .. } => "RegisterBatch",
            Request::GetPe { .. } => "GetPe",
            Request::GetWorkflow { .. } => "GetWorkflow",
            Request::GetPesByWorkflow { .. } => "GetPesByWorkflow",
            Request::GetRegistry { .. } => "GetRegistry",
            Request::Describe { .. } => "Describe",
            Request::UpdatePeDescription { .. } => "UpdatePeDescription",
            Request::UpdateWorkflowDescription { .. } => "UpdateWorkflowDescription",
            Request::RemovePe { .. } => "RemovePe",
            Request::RemoveWorkflow { .. } => "RemoveWorkflow",
            Request::RemoveAll { .. } => "RemoveAll",
            Request::SearchLiteral { .. } => "SearchLiteral",
            Request::SearchSemantic { .. } => "SearchSemantic",
            Request::CodeRecommendation { .. } => "CodeRecommendation",
            Request::CodeCompletion { .. } => "CodeCompletion",
            Request::GetExecutions { .. } => "GetExecutions",
            Request::Run { .. } => "Run",
            Request::UploadResource { .. } => "UploadResource",
            Request::RunWithInlineResources { .. } => "RunWithInlineResources",
            Request::Metrics {} => "Metrics",
            Request::Compact { .. } => "Compact",
            Request::Health {} => "Health",
        }
    }
}

/// The versioned envelope every request travels in (see the module doc).
/// `protocol_version` defaults to `1` so pre-versioning payloads — a bare
/// externally-tagged [`Request`] object — still deserialise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    #[serde(default = "default_protocol_version")]
    pub protocol_version: u16,
    #[serde(flatten)]
    pub body: Request,
}

fn default_protocol_version() -> u16 {
    1
}

impl RequestEnvelope {
    /// Wrap a request at the current [`PROTOCOL_VERSION`].
    pub fn new(body: Request) -> Self {
        RequestEnvelope {
            protocol_version: PROTOCOL_VERSION,
            body,
        }
    }
}

impl From<Request> for RequestEnvelope {
    fn from(body: Request) -> Self {
        RequestEnvelope::new(body)
    }
}

/// One registry row as returned to clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeInfo {
    pub id: u64,
    pub name: String,
    pub description: String,
    pub code: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowInfo {
    pub id: u64,
    pub name: String,
    pub description: String,
    pub code: String,
    pub pe_ids: Vec<u64>,
}

/// One execution-history row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionInfo {
    pub id: u64,
    pub mapping: String,
    pub input: String,
    pub status: String,
    /// First line of the recorded response, if any.
    pub output_preview: String,
}

/// A semantic-search hit (the Fig. 8 result rows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemanticHit {
    pub id: u64,
    pub name: String,
    pub description: String,
    pub cosine_similarity: f32,
}

/// A code-recommendation hit (the Fig. 9 result rows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendationHit {
    pub id: u64,
    pub name: String,
    pub description: String,
    pub score: f32,
    /// For workflow recommendations: matching member PEs ("occurrences").
    pub occurrences: usize,
    /// The most similar function/snippet, for display.
    pub similar_code: String,
    /// v9: how many pruned snippets clustered behind this hit (1 for a
    /// singleton, 0 on paths that don't cluster, e.g. workflow hits).
    #[serde(default)]
    pub cluster_size: usize,
    /// v9: the cluster-intersected common idiom (Aroma stage 5), one kept
    /// statement per line. Empty on non-pipeline paths.
    #[serde(default)]
    pub common_core: String,
}

/// Synchronous responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    Token(Token),
    /// Fig. 5a's "Found PEs … Found workflows" registration summary.
    Registered {
        pe_ids: Vec<(String, u64)>,
        workflow_id: Option<(String, u64)>,
    },
    Pe(PeInfo),
    Workflow(WorkflowInfo),
    Pes(Vec<PeInfo>),
    Registry {
        pes: Vec<PeInfo>,
        workflows: Vec<WorkflowInfo>,
    },
    Description(String),
    SemanticResults(Vec<SemanticHit>),
    Recommendations(Vec<RecommendationHit>),
    /// Code-completion result: source PE + the suggested continuation.
    Completion {
        /// `None` when nothing in the registry is similar enough.
        source: Option<(u64, String)>,
        /// Suggested statements, in source order.
        lines: Vec<String>,
        /// Fraction of the source PE the snippet already covers.
        progress: f32,
    },
    /// Per-item outcomes of a `RegisterBatch` (v6), in submission order.
    BatchRegistered {
        outcomes: Vec<BatchOutcomeWire>,
    },
    /// Execution history rows.
    Executions(Vec<ExecutionInfo>),
    /// §IV-F: the server lacks these resources; upload then retry.
    NeedResources(Vec<String>),
    ResourceStored {
        name: String,
        deduplicated: bool,
    },
    Ok,
    Error(String),
    /// Typed saturation rejection: the connection cap is reached. The
    /// request was **not** dispatched, so a retry after the hint is always
    /// safe.
    Busy {
        retry_after_ms: u64,
    },
    /// Typed version-mismatch rejection (see the module doc).
    Unsupported {
        server_version: u16,
        client_version: u16,
    },
    /// The server cancelled this request after its deadline elapsed with
    /// no progress.
    TimedOut {
        request_id: u64,
    },
    /// Point-in-time observability snapshot (boxed: it is much larger
    /// than the other variants).
    Metrics(Box<MetricsSnapshot>),
    /// Result of a `Compact` request (v5): what the snapshot absorbed.
    Compacted {
        /// WAL records folded into the snapshot (and truncated away).
        wal_records: u64,
        /// WAL bytes folded in.
        wal_bytes: u64,
        /// Size of the snapshot written.
        snapshot_bytes: u64,
    },
    /// Typed read-only rejection (v8): the storage layer failed a persist
    /// and the server is in degraded mode. Only mutating endpoints get
    /// this; reads keep serving. The request was **not** applied, so a
    /// retry after the hint is safe for idempotent endpoints.
    Degraded {
        reason: String,
        retry_after_ms: u64,
    },
    /// Health report (v8). `live` is always true when the server can
    /// answer at all; `ready` means it is accepting mutations (storage
    /// healthy).
    Health {
        live: bool,
        ready: bool,
        /// The storage state machine's current state.
        storage: StorageStateWire,
        /// Most recent persistence error, if any has ever occurred.
        last_persist_error: Option<String>,
        uptime_ms: u64,
        /// Healthy→Degraded transitions since the server started.
        degraded_transitions: u64,
    },
}

/// The storage state machine's state as transmitted (v8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageStateWire {
    /// Persists are succeeding; mutations are accepted.
    Healthy,
    /// A persist failed; mutations are rejected until a recovery probe
    /// passes.
    Degraded,
}

/// One frame of a (possibly streamed) reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireFrame {
    /// Complete synchronous response.
    Value(Response),
    /// First frame of a streamed reply, carrying the request id minted at
    /// ingress. Lets the TCP client classify value-vs-stream replies
    /// unambiguously and correlate frames with server-side log lines.
    Begin { request_id: u64 },
    /// One output line of a running workflow.
    Line(String),
    /// Engine-side note (container, imports).
    Info(String),
    /// Per-rank summary (verbose runs).
    Summary(String),
    /// Liveness beacon sent during quiet stretches of a stream so the
    /// client's read deadline does not fire while the engine works.
    Keepalive { request_id: u64 },
    /// One datum the enactment supervisor gave up on (v4, `DeadLetter`
    /// fault policy). Pre-v4 readers ignore it like any unknown frame.
    DeadLetter(DeadLetterEntry),
    /// Fault/retry/timeout counters for the run; sent once before `End`
    /// when the run was not fault-free (v4).
    Faults(FaultStats),
    /// Terminal frame of a run stream.
    End { ok: bool, millis: u64 },
}

/// A reply: either a single value or a frame stream.
#[derive(Debug)]
pub enum Reply {
    Value(Response),
    Stream(std::sync::mpsc::Receiver<WireFrame>),
}

impl Reply {
    /// Unwrap a synchronous value (panics on a stream — test helper).
    pub fn value(self) -> Response {
        match self {
            Reply::Value(v) => v,
            Reply::Stream(_) => panic!("expected a value reply, got a stream"),
        }
    }

    /// Drain a stream reply into (lines, infos, summaries, ok).
    pub fn drain(self) -> (Vec<String>, Vec<String>, Vec<String>, bool) {
        match self {
            Reply::Value(v) => panic!("expected a stream reply, got {v:?}"),
            Reply::Stream(rx) => {
                let mut lines = Vec::new();
                let mut infos = Vec::new();
                let mut summaries = Vec::new();
                let mut ok = false;
                for f in rx.iter() {
                    match f {
                        WireFrame::Begin { .. } | WireFrame::Keepalive { .. } => {}
                        WireFrame::Line(l) => lines.push(l),
                        WireFrame::Info(i) => infos.push(i),
                        WireFrame::Summary(s) => summaries.push(s),
                        WireFrame::Value(Response::Error(e)) => {
                            infos.push(format!("error: {e}"));
                            break;
                        }
                        WireFrame::Value(Response::TimedOut { request_id }) => {
                            infos.push(format!("error: request req-{request_id} timed out"));
                            break;
                        }
                        WireFrame::Value(_) => {}
                        WireFrame::DeadLetter(d) => {
                            infos.push(format!(
                                "dead-letter: pe={} port={} attempts={} error={}",
                                d.pe,
                                d.port.as_deref().unwrap_or("-"),
                                d.attempts,
                                d.error
                            ));
                        }
                        WireFrame::Faults(s) => {
                            infos.push(format!(
                                "faults: {} faults, {} retries, {} dead-lettered, {} timeouts, {} workers replaced",
                                s.faults, s.retries, s.dead_letters, s.task_timeouts, s.worker_replacements
                            ));
                        }
                        WireFrame::End { ok: o, .. } => {
                            ok = o;
                            break;
                        }
                    }
                }
                (lines, infos, summaries, ok)
            }
        }
    }
}

/// FNV-64 content hash shared by both resource paths.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_as_json() {
        let reqs = vec![
            Request::RegisterUser {
                username: "rosa".into(),
                password: "pw".into(),
            },
            Request::SearchSemantic {
                token: 1,
                scope: SearchScope::Pe,
                query: "a pe that is able to detect anomalies".into(),
                top_n: Some(3),
            },
            Request::Run {
                token: 1,
                ident: Ident::Id(169),
                input: RunInputWire::Iterations(10),
                mode: RunMode::Multiprocess { processes: 9 },
                streaming: true,
                verbose: true,
                resources: vec![ResourceRefWire {
                    name: "input.csv".into(),
                    content_hash: 42,
                }],
                fault: FaultPolicyWire::Retry {
                    max_attempts: 3,
                    backoff_ms: 5,
                },
                task_timeout_ms: Some(2_000),
            },
        ];
        for r in reqs {
            let json = serde_json::to_string(&r).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(r, back);
        }
    }

    #[test]
    fn responses_roundtrip_as_json() {
        let resp = Response::SemanticResults(vec![SemanticHit {
            id: 178,
            name: "AnomalyDetectionPE".into(),
            description: "Anomaly detection PE.".into(),
            cosine_similarity: 0.74017,
        }]);
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
    }

    #[test]
    fn ident_conversions() {
        assert_eq!(Ident::from(5u64), Ident::Id(5));
        assert_eq!(Ident::from("isprime_wf"), Ident::Name("isprime_wf".into()));
    }

    #[test]
    fn content_hash_distinguishes() {
        assert_ne!(content_hash(b"a"), content_hash(b"b"));
        assert_eq!(content_hash(b"same"), content_hash(b"same"));
    }

    #[test]
    fn wireframes_serialise() {
        let f = WireFrame::End {
            ok: true,
            millis: 12,
        };
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(serde_json::from_str::<WireFrame>(&json).unwrap(), f);
        let f = WireFrame::Begin { request_id: 7 };
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(serde_json::from_str::<WireFrame>(&json).unwrap(), f);
    }

    #[test]
    fn version_two_search_payload_parses_without_top_n() {
        // A v2 client omits `top_n`; serde's default keeps it parsing.
        let json = r#"{"SearchSemantic":{"token":1,"scope":"Pe","query":"anomaly"}}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        assert_eq!(
            req,
            Request::SearchSemantic {
                token: 1,
                scope: SearchScope::Pe,
                query: "anomaly".into(),
                top_n: None,
            }
        );
        let json = r#"{"CodeRecommendation":{"token":1,"scope":"Both","snippet":"x = 1","embedding_type":"Spt"}}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        assert!(matches!(
            req,
            Request::CodeRecommendation { top_n: None, .. }
        ));
    }

    #[test]
    fn version_three_run_payload_parses_without_fault_fields() {
        // A v3 client omits `fault` and `task_timeout_ms`; serde defaults
        // keep it parsing with the pre-fault-model behaviour (FailFast).
        let json = r#"{"Run":{"token":1,"ident":{"Id":169},"input":{"Iterations":10},"mode":"Sequential","streaming":false,"verbose":false,"resources":[]}}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        match req {
            Request::Run {
                fault,
                task_timeout_ms,
                ..
            } => {
                assert_eq!(fault, FaultPolicyWire::FailFast);
                assert_eq!(task_timeout_ms, None);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn fault_frames_serialise() {
        let f = WireFrame::DeadLetter(DeadLetterEntry {
            pe: "IsPrime1".into(),
            port: Some("input".into()),
            datum: Some(Data::from(9i64)),
            error: "chaos: injected panic".into(),
            attempts: 3,
        });
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(serde_json::from_str::<WireFrame>(&json).unwrap(), f);
        let f = WireFrame::Faults(FaultStats {
            faults: 4,
            retries: 2,
            dead_letters: 1,
            task_timeouts: 1,
            worker_replacements: 1,
        });
        let json = serde_json::to_string(&f).unwrap();
        assert_eq!(serde_json::from_str::<WireFrame>(&json).unwrap(), f);
    }

    #[test]
    fn bare_request_parses_as_version_one_envelope() {
        // A pre-versioning client sends a bare externally-tagged Request.
        let json = r#"{"GetRegistry":{"token":9}}"#;
        let env: RequestEnvelope = serde_json::from_str(json).unwrap();
        assert_eq!(env.protocol_version, 1);
        assert_eq!(env.body, Request::GetRegistry { token: 9 });
    }

    #[test]
    fn envelope_roundtrips_at_current_version() {
        let env = RequestEnvelope::new(Request::Metrics {});
        assert_eq!(env.protocol_version, PROTOCOL_VERSION);
        let json = serde_json::to_string(&env).unwrap();
        assert!(json.contains("protocol_version"));
        let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn endpoint_names_are_stable() {
        assert_eq!(Request::Metrics {}.endpoint(), "Metrics");
        assert_eq!(
            Request::Login {
                username: "u".into(),
                password: "p".into()
            }
            .endpoint(),
            "Login"
        );
    }

    #[test]
    fn version_five_compact_roundtrips() {
        let req = Request::Compact { token: 7 };
        assert_eq!(req.endpoint(), "Compact");
        let json = serde_json::to_string(&req).unwrap();
        assert_eq!(serde_json::from_str::<Request>(&json).unwrap(), req);
        let resp = Response::Compacted {
            wal_records: 12,
            wal_bytes: 4096,
            snapshot_bytes: 1024,
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
    }

    #[test]
    fn version_six_register_batch_roundtrips() {
        let req = Request::RegisterBatch {
            token: 7,
            items: vec![
                BatchItemWire::Pe(PeSubmission {
                    name: "IsPrime".into(),
                    code: "class IsPrime(IterativePE): ...".into(),
                    description: None,
                }),
                BatchItemWire::Workflow {
                    name: "isprime_wf".into(),
                    code: "# workflow".into(),
                    description: Some("prime sieve".into()),
                    pes: vec![PeSubmission {
                        name: "NumberProducer".into(),
                        code: "class NumberProducer(ProducerPE): ...".into(),
                        description: Some("produces numbers".into()),
                    }],
                },
            ],
        };
        assert_eq!(req.endpoint(), "RegisterBatch");
        let json = serde_json::to_string(&req).unwrap();
        assert_eq!(serde_json::from_str::<Request>(&json).unwrap(), req);
        let resp = Response::BatchRegistered {
            outcomes: vec![
                BatchOutcomeWire::Registered {
                    pe_ids: vec![("IsPrime".into(), 3)],
                    workflow_id: None,
                },
                BatchOutcomeWire::Failed {
                    pe_ids: vec![("NumberProducer".into(), 4)],
                    error: "duplicate Workflow name 'isprime_wf'".into(),
                },
            ],
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
    }

    #[test]
    fn version_five_payloads_parse_under_version_six() {
        // v6 adds a request variant; every v5 payload must keep parsing
        // byte-for-byte unchanged.
        let json = r#"{"Compact":{"token":7}}"#;
        assert_eq!(
            serde_json::from_str::<Request>(json).unwrap(),
            Request::Compact { token: 7 }
        );
        let json = r#"{"protocol_version":5,"RegisterPe":{"token":1,"pe":{"name":"A","code":"x = 1","description":null}}}"#;
        let env: RequestEnvelope = serde_json::from_str(json).unwrap();
        assert_eq!(env.protocol_version, 5);
        assert!(matches!(env.body, Request::RegisterPe { token: 1, .. }));
    }

    #[test]
    fn version_six_payloads_parse_under_version_seven() {
        // v7 only extends the metrics snapshot (serde-defaulted row
        // group); every v6 payload must keep parsing byte-for-byte
        // unchanged.
        let json = r#"{"protocol_version":6,"SearchSemantic":{"token":2,"scope":"Pe","query":"find primes","top_n":null}}"#;
        let env: RequestEnvelope = serde_json::from_str(json).unwrap();
        assert_eq!(env.protocol_version, 6);
        assert!(matches!(env.body, Request::SearchSemantic { token: 2, .. }));
    }

    #[test]
    fn version_eight_health_roundtrips() {
        let req = Request::Health {};
        assert_eq!(req.endpoint(), "Health");
        let json = serde_json::to_string(&req).unwrap();
        assert_eq!(serde_json::from_str::<Request>(&json).unwrap(), req);
        let resp = Response::Health {
            live: true,
            ready: false,
            storage: StorageStateWire::Degraded,
            last_persist_error: Some("wal append: injected ENOSPC".into()),
            uptime_ms: 12_345,
            degraded_transitions: 2,
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
        let resp = Response::Degraded {
            reason: "storage degraded: wal append failed".into(),
            retry_after_ms: 500,
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
    }

    #[test]
    fn version_seven_payloads_parse_under_version_eight() {
        // v8 adds a request variant, two response variants, and a
        // serde-defaulted metrics row group; every v7 payload must keep
        // parsing byte-for-byte unchanged.
        let json = r#"{"protocol_version":7,"Compact":{"token":7}}"#;
        let env: RequestEnvelope = serde_json::from_str(json).unwrap();
        assert_eq!(env.protocol_version, 7);
        assert_eq!(env.body, Request::Compact { token: 7 });
        let json = r#"{"protocol_version":7,"SearchSemantic":{"token":2,"scope":"Pe","query":"find primes","top_n":null}}"#;
        let env: RequestEnvelope = serde_json::from_str(json).unwrap();
        assert!(matches!(env.body, Request::SearchSemantic { token: 2, .. }));
    }

    #[test]
    fn version_eight_payloads_parse_under_version_nine() {
        // v9 only extends `RecommendationHit` and the metrics snapshot
        // (all serde-defaulted); every v8 payload must keep parsing
        // byte-for-byte unchanged.
        let json = r#"{"protocol_version":8,"CodeRecommendation":{"token":3,"scope":"Both","snippet":"x = 1","embedding_type":"Spt","top_n":null}}"#;
        let env: RequestEnvelope = serde_json::from_str(json).unwrap();
        assert_eq!(env.protocol_version, 8);
        assert!(matches!(
            env.body,
            Request::CodeRecommendation { token: 3, .. }
        ));
        // A v8 hit (no cluster fields) parses with the defaults.
        let json = r#"{"id":4,"name":"NumberProducer","description":"d","score":7.0,"occurrences":1,"similar_code":"def _process(self): ..."}"#;
        let hit: RecommendationHit = serde_json::from_str(json).unwrap();
        assert_eq!(hit.cluster_size, 0);
        assert_eq!(hit.common_core, "");
    }

    #[test]
    fn typed_rejections_roundtrip() {
        for resp in [
            Response::Busy { retry_after_ms: 50 },
            Response::Unsupported {
                server_version: 2,
                client_version: 9,
            },
            Response::TimedOut { request_id: 3 },
        ] {
            let json = serde_json::to_string(&resp).unwrap();
            assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
        }
    }
}
