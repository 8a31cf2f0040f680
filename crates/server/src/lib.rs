//! `laminar-server` — the Laminar server (paper §III).
//!
//! "The server coordinates system functionality, organized into layers for
//! controllers, services, models, and data access." The layering here:
//!
//! * [`protocol`] — the wire model: [`protocol::Request`] /
//!   [`protocol::Response`] / streamed [`protocol::WireFrame`]s (the
//!   controller surface);
//! * [`server`] — the controller: request lifecycle, endpoint
//!   accounting, the degraded and session gates, and one dispatch that
//!   forwards each request to its handler;
//! * `service` — the handlers, one module per area: `registry`
//!   (registration, reads, updates, removals), `search`, `reco`
//!   (recommendation, completion, the workflow-scope sweep), `run`
//!   (runs, resource uploads, history) and `admin` (users, sessions,
//!   metrics, compaction, health);
//! * [`indexes`] — the search service's in-memory embedding indexes
//!   (description embeddings, SPT feature vectors, ReACC code vectors),
//!   and the served [`aroma::AromaEngine`], one copy-on-write cell with
//!   one generation, updated on every registration;
//! * [`resources`] — the §IV-F resource cache: content-hash dedup,
//!   multipart upload, bytes-on-wire accounting;
//! * [`connection`] — the unified [`connection::Connection`] trait, its
//!   typed errors, and the in-process [`connection::Transport`], which
//!   hands a reply over as the server produced it (batch or streaming,
//!   §IV-E, is the engine's response mode, not the connection's);
//! * [`obs`] — the serving-path observability layer: per-request ids,
//!   lock-free per-endpoint counters and latency histograms, and the
//!   serialisable [`obs::MetricsSnapshot`] behind the `metrics` endpoint;
//! * [`health`] — the storage-health state machine behind read-only
//!   degraded mode: the first persistence error rejects further
//!   mutations while reads keep serving, and a background probe
//!   ([`server::LaminarServer::probe_storage`]) restores `Healthy`.
//!
//! The data-access layer is the `laminar-registry` crate; the models are
//! its row types.

pub mod connection;
pub mod health;
pub mod indexes;
pub mod net;
pub mod obs;
pub mod protocol;
pub mod resources;
pub mod server;
mod service;

pub use connection::{classify, Connection, ConnectionError, Transport};
pub use health::StorageHealth;
pub use indexes::{IndexRow, SearchIndexes};
pub use net::{NetClientTransport, NetServer, NetServerConfig, MAX_FRAME};
pub use obs::{
    EnactmentSnapshot, EndpointSnapshot, Metrics, MetricsSnapshot, RecoSnapshot, RequestId,
    SearchSnapshot, StorageHealthSnapshot,
};
pub use protocol::{
    EmbeddingType, FaultPolicyWire, Ident, PeSubmission, Reply, Request, RequestEnvelope, Response,
    RunMode, SearchScope, SemanticHit, StorageStateWire, WireFrame, PROTOCOL_VERSION,
};
pub use resources::{ResourceCache, ResourceRef};
pub use server::{LaminarServer, ServerConfig, ServerError};
pub use service::reco::sweep_workflows;
