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
//! no payload. Requests longer than `MAX_FRAME` (16 MiB) are rejected
//! with a typed `Response::Error` before the payload is read; the client
//! reads replies of up to 1 GiB, since a registry listing outgrows 16 MiB
//! at ~30k PEs.
//!
//! A connection carries requests one after another: the client sends a
//! [`RequestEnvelope`], the server answers with a sequence of
//! [`WireFrame`]s terminated by the sentinel, and the client may then
//! send the next envelope on the same connection. The server closes a
//! connection that brings no request within its idle deadline, and
//! after a reply it ends with `Busy`, [`Response::Unsupported`] or
//! [`Response::TimedOut`], after an oversized or malformed request, and
//! after a stream whose producer vanished; a client that wants one
//! request per connection closes after the sentinel.
//! Synchronous replies are a single [`WireFrame::Value`]; streamed
//! replies open with [`WireFrame::Begin`] (carrying the request id minted
//! at ingress), interleave payload frames with [`WireFrame::Keepalive`]s
//! during quiet periods, and end with [`WireFrame::End`] (or a terminal
//! [`WireFrame::Value`] holding an error).
//!
//! # Version rules
//!
//! Client and server speak exactly [`PROTOCOL_VERSION`]. The server
//! answers an envelope of any other version — a bare [`Request`] object
//! parses as version `1` — with the typed [`Response::Unsupported`],
//! naming both versions, before the request reaches its endpoint. No
//! older payload shape is kept.
//!
//! # Endpoints
//!
//! [`ENDPOINTS`] holds one [`Endpoint`] row per [`Request`] variant: its
//! wire name (the metrics key), whether degraded mode rejects it, and
//! whether the client may re-send it after a timeout.
//! [`Request::endpoint`] finds a request's row and [`Request::token`] its
//! session token; the server's version check, degraded gate, session
//! check and per-endpoint metrics and the client's retry class all read
//! these, and nothing else restates them.

use crate::connection::ConnectionError;
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
/// member PEs. A `RegisterBatch` carries a list of them;
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

/// Per-item result of a `RegisterBatch`. The batch is *partially
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
    /// Abort the run on the first PE failure.
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
    /// N PE/workflow registrations in one round-trip, analysed one after
    /// another and committed through one WAL frame + one index snapshot
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
        /// Enactment fault policy.
        fault: FaultPolicyWire,
        /// Per-task timeout for the dynamic mapping, in milliseconds
        /// (`None` ⇒ no timeout).
        task_timeout_ms: Option<u64>,
    },
    /// Multipart resource upload (2.0 path, after a NeedResources reply).
    UploadResource {
        token: Token,
        name: String,
        bytes: Vec<u8>,
    },
    /// Observability endpoint: a point-in-time [`MetricsSnapshot`].
    /// Tokenless by design — it is the ops surface, not user data.
    Metrics {},
    /// Fold the registry's write-ahead log into a fresh atomic snapshot
    /// and truncate the WAL. Errors when the server runs without a
    /// data directory.
    Compact {
        token: Token,
    },
    /// Health probe: liveness, readiness, and the storage state
    /// machine. Tokenless like `Metrics` — it is the surface load
    /// balancers and healthchecks poll, not user data.
    Health {},
}

/// The facts of one wire endpoint (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// The request's serde tag: its wire name and its metrics key.
    pub name: &'static str,
    /// Changes durable registry state, so read-only degraded mode rejects
    /// it with [`Response::Degraded`].
    pub mutating: bool,
    /// Re-sending it can never duplicate a side effect, so the client
    /// retries it after a timeout or a `Degraded` rejection.
    pub idempotent: bool,
}

/// One row per [`Request`] variant, in declaration order. Whether an
/// endpoint needs a session is not a column: it does exactly when its
/// variant carries a token ([`Request::token`]).
#[rustfmt::skip]
pub static ENDPOINTS: [Endpoint; 25] = [
    Endpoint { name: "RegisterUser",              mutating: true,  idempotent: false },
    Endpoint { name: "Login",                     mutating: false, idempotent: true },
    Endpoint { name: "RegisterPe",                mutating: true,  idempotent: false },
    Endpoint { name: "RegisterWorkflow",          mutating: true,  idempotent: false },
    Endpoint { name: "RegisterBatch",             mutating: true,  idempotent: false },
    Endpoint { name: "GetPe",                     mutating: false, idempotent: true },
    Endpoint { name: "GetWorkflow",               mutating: false, idempotent: true },
    Endpoint { name: "GetPesByWorkflow",          mutating: false, idempotent: true },
    Endpoint { name: "GetRegistry",               mutating: false, idempotent: true },
    Endpoint { name: "Describe",                  mutating: false, idempotent: true },
    Endpoint { name: "UpdatePeDescription",       mutating: true,  idempotent: false },
    Endpoint { name: "UpdateWorkflowDescription", mutating: true,  idempotent: false },
    Endpoint { name: "RemovePe",                  mutating: true,  idempotent: false },
    Endpoint { name: "RemoveWorkflow",            mutating: true,  idempotent: false },
    Endpoint { name: "RemoveAll",                 mutating: true,  idempotent: false },
    Endpoint { name: "SearchLiteral",             mutating: false, idempotent: true },
    Endpoint { name: "SearchSemantic",            mutating: false, idempotent: true },
    Endpoint { name: "CodeRecommendation",        mutating: false, idempotent: true },
    Endpoint { name: "CodeCompletion",            mutating: false, idempotent: true },
    Endpoint { name: "GetExecutions",             mutating: false, idempotent: true },
    // Runs keep serving under degraded storage: their history rows are
    // best-effort, and the resource cache is in memory.
    Endpoint { name: "Run",                       mutating: false, idempotent: false },
    Endpoint { name: "UploadResource",            mutating: false, idempotent: false },
    Endpoint { name: "Metrics",                   mutating: false, idempotent: true },
    // Compacting a compacted registry rewrites the same snapshot.
    Endpoint { name: "Compact",                   mutating: true,  idempotent: true },
    Endpoint { name: "Health",                    mutating: false, idempotent: true },
];

impl Request {
    /// This request's row of [`ENDPOINTS`].
    pub fn endpoint(&self) -> &'static Endpoint {
        use Request::*;
        &ENDPOINTS[match self {
            RegisterUser { .. } => 0,
            Login { .. } => 1,
            RegisterPe { .. } => 2,
            RegisterWorkflow { .. } => 3,
            RegisterBatch { .. } => 4,
            GetPe { .. } => 5,
            GetWorkflow { .. } => 6,
            GetPesByWorkflow { .. } => 7,
            GetRegistry { .. } => 8,
            Describe { .. } => 9,
            UpdatePeDescription { .. } => 10,
            UpdateWorkflowDescription { .. } => 11,
            RemovePe { .. } => 12,
            RemoveWorkflow { .. } => 13,
            RemoveAll { .. } => 14,
            SearchLiteral { .. } => 15,
            SearchSemantic { .. } => 16,
            CodeRecommendation { .. } => 17,
            CodeCompletion { .. } => 18,
            GetExecutions { .. } => 19,
            Run { .. } => 20,
            UploadResource { .. } => 21,
            Metrics {} => 22,
            Compact { .. } => 23,
            Health {} => 24,
        }]
    }

    /// The session token this request carries: the server serves it for
    /// that session's user. `None` for the endpoints that need no session.
    pub fn token(&self) -> Option<Token> {
        use Request::*;
        match self {
            RegisterPe { token, .. }
            | RegisterWorkflow { token, .. }
            | RegisterBatch { token, .. }
            | GetPe { token, .. }
            | GetWorkflow { token, .. }
            | GetPesByWorkflow { token, .. }
            | GetRegistry { token }
            | Describe { token, .. }
            | UpdatePeDescription { token, .. }
            | UpdateWorkflowDescription { token, .. }
            | RemovePe { token, .. }
            | RemoveWorkflow { token, .. }
            | RemoveAll { token }
            | SearchLiteral { token, .. }
            | SearchSemantic { token, .. }
            | CodeRecommendation { token, .. }
            | CodeCompletion { token, .. }
            | GetExecutions { token, .. }
            | Run { token, .. }
            | UploadResource { token, .. }
            | Compact { token } => Some(*token),
            RegisterUser { .. } | Login { .. } | Metrics {} | Health {} => None,
        }
    }
}

/// The versioned envelope every request travels in (see the module doc's
/// version rules).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    #[serde(default = "default_protocol_version")]
    pub protocol_version: u16,
    #[serde(flatten)]
    pub body: Request,
}

// A bare request parses as version 1, and is answered `Unsupported`. The
// frozen benchmark's `standins.rs` pins this default, `PROTOCOL_VERSION`
// 9 and the search requests' `top_n` defaults; nothing else is kept for
// older payloads.
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
    /// How many pruned snippets clustered behind this hit (1 for a
    /// singleton, 0 on paths that don't cluster, e.g. workflow hits).
    pub cluster_size: usize,
    /// The cluster-intersected common idiom (Aroma stage 5), one kept
    /// statement per line. Empty on non-pipeline paths.
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
    /// Per-item outcomes of a `RegisterBatch`, in submission order.
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
    /// Result of a `Compact` request: what the snapshot absorbed.
    Compacted {
        /// WAL records folded into the snapshot (and truncated away).
        wal_records: u64,
        /// WAL bytes folded in.
        wal_bytes: u64,
        /// Size of the snapshot written.
        snapshot_bytes: u64,
    },
    /// Typed read-only rejection: the storage layer failed a persist
    /// and the server is in degraded mode. Only mutating endpoints get
    /// this; reads keep serving. The request was **not** applied, so a
    /// retry after the hint is safe for idempotent endpoints.
    Degraded {
        reason: String,
        retry_after_ms: u64,
    },
    /// Health report. `live` is always true when the server can
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

/// The storage state machine's state as transmitted.
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
    /// One datum the enactment supervisor gave up on (`DeadLetter`
    /// fault policy).
    DeadLetter(DeadLetterEntry),
    /// Fault/retry/timeout counters for the run; sent once before `End`
    /// when the run was not fault-free.
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

    /// Fold a run's reply into its output, up to the terminal `End`. An
    /// error value fails the fold as [`RunFailure::Server`] and a
    /// `TimedOut` value as `TimedOut`. Frames that end before `End` and
    /// without either (a producer that vanished, a socket cut mid-stream)
    /// are a `Protocol` failure, never a run that merely did not succeed.
    /// A value reply folds as a one-frame stream.
    pub fn drain(self) -> Result<RunOutput, RunFailure> {
        let frames: Box<dyn Iterator<Item = WireFrame>> = match self {
            Reply::Value(v) => Box::new(std::iter::once(WireFrame::Value(v))),
            Reply::Stream(rx) => Box::new(rx.into_iter()),
        };
        let mut out = RunOutput::default();
        for frame in frames {
            match frame {
                WireFrame::Begin { .. } | WireFrame::Keepalive { .. } => {}
                WireFrame::Line(l) => out.lines.push(l),
                WireFrame::Info(i) => out.infos.push(i),
                WireFrame::Summary(s) => out.summaries.push(s),
                WireFrame::DeadLetter(d) => out.dead_letters.push(d),
                WireFrame::Faults(s) => out.fault_stats = Some(s),
                WireFrame::Value(Response::Error(e)) => return Err(RunFailure::Server(e)),
                WireFrame::Value(Response::TimedOut { request_id }) => {
                    return Err(RunFailure::Connection(ConnectionError::TimedOut {
                        request_id,
                    }));
                }
                WireFrame::Value(_) => {}
                WireFrame::End { ok, .. } => {
                    out.ok = ok;
                    return Ok(out);
                }
            }
        }
        Err(RunFailure::Connection(ConnectionError::Protocol(
            "run stream ended before its terminal frame".into(),
        )))
    }
}

/// The collected output of a run: its frames, folded by [`Reply::drain`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutput {
    pub lines: Vec<String>,
    pub infos: Vec<String>,
    pub summaries: Vec<String>,
    /// The terminal frame's verdict.
    pub ok: bool,
    /// Datums the enactment supervisor gave up on (`DeadLetter` policy).
    pub dead_letters: Vec<DeadLetterEntry>,
    /// Fault counters for the run; `None` when the run was fault-free
    /// (the server only sends the frame on a non-clean run).
    pub fault_stats: Option<FaultStats>,
}

/// Why a run's reply did not fold into a [`RunOutput`].
#[derive(Debug, Clone, PartialEq)]
pub enum RunFailure {
    /// The reply ended on an error value.
    Server(String),
    /// The reply timed out, or ended before its terminal frame.
    Connection(ConnectionError),
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
        // It parses; the server then answers it `Unsupported`.
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
    fn version_five_compact_roundtrips() {
        let req = Request::Compact { token: 7 };
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
    fn version_eight_health_roundtrips() {
        let req = Request::Health {};
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

    /// One request per `Request` variant, in declaration order. Every
    /// token is 1, which a fresh server has not issued.
    fn sample_requests() -> Vec<Request> {
        let ident = Ident::Id(1);
        let run_input = RunInputWire::Iterations(1);
        vec![
            Request::RegisterUser {
                username: "u".into(),
                password: "p".into(),
            },
            Request::Login {
                username: "u".into(),
                password: "p".into(),
            },
            Request::RegisterPe {
                token: 1,
                pe: PeSubmission {
                    name: "A".into(),
                    code: "x".into(),
                    description: None,
                },
            },
            Request::RegisterWorkflow {
                token: 1,
                name: "w".into(),
                code: "x".into(),
                description: None,
                pes: vec![],
            },
            Request::RegisterBatch {
                token: 1,
                items: vec![],
            },
            Request::GetPe {
                token: 1,
                ident: ident.clone(),
            },
            Request::GetWorkflow {
                token: 1,
                ident: ident.clone(),
            },
            Request::GetPesByWorkflow {
                token: 1,
                ident: ident.clone(),
            },
            Request::GetRegistry { token: 1 },
            Request::Describe {
                token: 1,
                scope: SearchScope::Pe,
                ident: ident.clone(),
            },
            Request::UpdatePeDescription {
                token: 1,
                ident: ident.clone(),
                description: "d".into(),
            },
            Request::UpdateWorkflowDescription {
                token: 1,
                ident: ident.clone(),
                description: "d".into(),
            },
            Request::RemovePe {
                token: 1,
                ident: ident.clone(),
            },
            Request::RemoveWorkflow {
                token: 1,
                ident: ident.clone(),
            },
            Request::RemoveAll { token: 1 },
            Request::SearchLiteral {
                token: 1,
                scope: SearchScope::Both,
                term: "t".into(),
                top_n: None,
            },
            Request::SearchSemantic {
                token: 1,
                scope: SearchScope::Both,
                query: "q".into(),
                top_n: None,
            },
            Request::CodeRecommendation {
                token: 1,
                scope: SearchScope::Both,
                snippet: "s".into(),
                embedding_type: EmbeddingType::Spt,
                top_n: None,
            },
            Request::CodeCompletion {
                token: 1,
                snippet: "s".into(),
            },
            Request::GetExecutions {
                token: 1,
                ident: ident.clone(),
            },
            Request::Run {
                token: 1,
                ident,
                input: run_input,
                mode: RunMode::Sequential,
                streaming: true,
                verbose: false,
                resources: vec![],
                fault: FaultPolicyWire::FailFast,
                task_timeout_ms: None,
            },
            Request::UploadResource {
                token: 1,
                name: "r".into(),
                bytes: vec![1],
            },
            Request::Metrics {},
            Request::Compact { token: 1 },
            Request::Health {},
        ]
    }

    // The endpoint table contract: one row per request, so each row's
    // name is its request's serde tag, the tokenless, degraded and
    // idempotent sets are fixed, and every token-carrying row refuses a
    // request without a session.

    #[test]
    fn endpoint_table_names_are_the_serde_tags() {
        let requests = sample_requests();
        assert_eq!(requests.len(), ENDPOINTS.len());
        for (req, row) in requests.iter().zip(&ENDPOINTS) {
            assert_eq!(req.endpoint(), row);
            let json = serde_json::to_string(req).unwrap();
            let tag = format!("{{\"{}\":", row.name);
            assert!(json.starts_with(&tag), "{} goes out as {json}", row.name);
        }
    }

    #[test]
    fn endpoint_table_tokenless_rows_are_the_session_openers_and_probes() {
        let tokenless: Vec<&str> = sample_requests()
            .iter()
            .filter(|r| r.token().is_none())
            .map(|r| r.endpoint().name)
            .collect();
        assert_eq!(tokenless, ["RegisterUser", "Login", "Metrics", "Health"]);
    }

    #[test]
    fn endpoint_table_degraded_gate_rejects_exactly_the_mutating_rows() {
        let server = crate::server::LaminarServer::with_stock();
        server.health().record_persist_error("injected");
        let mut rejected = Vec::new();
        for req in sample_requests() {
            let row = req.endpoint();
            let reply = server.handle(req).value();
            let degraded = matches!(reply, Response::Degraded { .. });
            assert_eq!(degraded, row.mutating, "{}: {reply:?}", row.name);
            if degraded {
                rejected.push(row.name);
            }
        }
        // Registrations, updates, removals and compaction; runs, reads,
        // sessions, metrics and health keep serving.
        assert_eq!(
            rejected,
            [
                "RegisterUser",
                "RegisterPe",
                "RegisterWorkflow",
                "RegisterBatch",
                "UpdatePeDescription",
                "UpdateWorkflowDescription",
                "RemovePe",
                "RemoveWorkflow",
                "RemoveAll",
                "Compact",
            ]
        );
        // Each rejection is counted against its endpoint.
        for e in server.metrics().snapshot().endpoints {
            let want = u64::from(rejected.contains(&e.endpoint.as_str()));
            assert_eq!(e.rejections, want, "{}", e.endpoint);
        }
    }

    #[test]
    fn endpoint_table_token_rows_need_a_session() {
        let server = crate::server::LaminarServer::with_stock();
        for req in sample_requests()
            .into_iter()
            .filter(|r| r.token().is_some())
        {
            let name = req.endpoint().name;
            let reply = server.handle(req).value();
            assert_eq!(reply, Response::Error("not logged in".into()), "{name}");
            let snap = server.metrics().snapshot();
            let ep = snap.endpoints.iter().find(|e| e.endpoint == name).unwrap();
            assert_eq!((ep.requests, ep.errors), (1, 1), "{name}");
        }
    }

    #[test]
    fn endpoint_table_idempotent_rows_are_the_retry_contract() {
        // Reads, `Login`, `Metrics`, `Compact` and `Health` retry after a
        // timeout; every other mutation and every run does not.
        let idempotent: Vec<&str> = ENDPOINTS
            .iter()
            .filter(|r| r.idempotent)
            .map(|r| r.name)
            .collect();
        assert_eq!(
            idempotent,
            [
                "Login",
                "GetPe",
                "GetWorkflow",
                "GetPesByWorkflow",
                "GetRegistry",
                "Describe",
                "SearchLiteral",
                "SearchSemantic",
                "CodeRecommendation",
                "CodeCompletion",
                "GetExecutions",
                "Metrics",
                "Compact",
                "Health",
            ]
        );
    }
}
