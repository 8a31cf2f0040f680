//! `laminar-server` — the Laminar server (paper §III).
//!
//! "The server coordinates system functionality, organized into layers for
//! controllers, services, models, and data access." The layering here:
//!
//! * [`protocol`] — the wire model: [`protocol::Request`] /
//!   [`protocol::Response`] / streamed [`protocol::WireFrame`]s (the
//!   controller surface);
//! * [`server`] — the controller: session auth, request dispatch;
//! * [`indexes`] — the search service's in-memory embedding indexes
//!   (description embeddings, SPT feature vectors, ReACC code vectors),
//!   and the served [`aroma::AromaEngine`], one copy-on-write cell with
//!   one generation, updated on every registration;
//! * [`reco`] — the inverted workflow-scope aggregation sweep;
//! * [`resources`] — the §IV-F resource cache: content-hash dedup,
//!   multipart upload, bytes-on-wire accounting;
//! * [`transport`] — batch (HTTP/1.1-style) vs streaming (HTTP/2-style)
//!   response delivery (§IV-E), with an optional per-frame latency model
//!   for the benches;
//! * [`connection`] — the unified [`connection::Connection`] trait both
//!   transports implement, with [`connection::ConnOptions`] carrying the
//!   delivery mode, frame latency and deadline, and the one
//!   [`connection::deliver`] that shapes a streamed reply by them;
//! * [`obs`] — the serving-path observability layer: per-request ids,
//!   lock-free per-endpoint counters and latency histograms, and the
//!   serialisable [`obs::MetricsSnapshot`] behind the `metrics` endpoint;
//! * [`clock`] — the test-only clock seam behind the serving path's
//!   timers (recovery probe, frame-latency model), so the deterministic
//!   simulation harness can run them under virtual time;
//! * [`health`] — the storage-health state machine behind read-only
//!   degraded mode: the first persistence error rejects further
//!   mutations while reads keep serving, and a background probe
//!   ([`server::LaminarServer::probe_storage`]) restores `Healthy`.
//!
//! The data-access layer is the `laminar-registry` crate; the models are
//! its row types.

pub mod clock;
pub mod connection;
pub mod health;
pub mod indexes;
pub mod net;
pub mod obs;
pub mod protocol;
pub mod reco;
pub mod resources;
pub mod server;
pub mod transport;

pub use clock::{Clock, SharedClock, SimClock, SystemClock};
pub use connection::{classify, ConnOptions, Connection, ConnectionError};
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
pub use reco::sweep_workflows;
pub use resources::{ResourceCache, ResourceRef};
pub use server::{LaminarServer, ServerConfig, ServerError};
pub use transport::{DeliveryMode, Transport};
