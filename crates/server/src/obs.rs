//! `laminar-obs` — the serving-path observability layer.
//!
//! Every request that enters [`LaminarServer::handle_envelope`]
//! (in-process or TCP) is minted a [`RequestId`] at ingress and accounted
//! against its endpoint's [`EndpointMetrics`]: a request counter, an error
//! counter, a rejection counter, an in-flight gauge, and a fixed-bucket
//! latency histogram. The whole layer is lock-free on the hot path —
//! plain relaxed atomics — so instrumentation never contends with the
//! requests it measures; the only lock is a read-mostly registry of
//! endpoint names, taken once per request.
//!
//! A [`MetricsSnapshot`] of everything is serialisable (it travels over
//! the `metrics` protocol endpoint) and renders as the table the
//! `laminar metrics` CLI verb prints.
//!
//! [`LaminarServer::handle_envelope`]: crate::server::LaminarServer::handle_envelope

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Per-request identifier, minted once at ingress and threaded through
/// the reply's [`WireFrame::Begin`] / [`WireFrame::Keepalive`] frames so
/// client- and server-side observations of one request can be joined.
///
/// [`WireFrame::Begin`]: crate::protocol::WireFrame::Begin
/// [`WireFrame::Keepalive`]: crate::protocol::WireFrame::Keepalive
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

impl RequestId {
    /// Mint the next process-wide request id.
    pub fn mint() -> RequestId {
        RequestId(NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Up/down gauge (in-flight requests, active connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set to an absolute level (index sizes are re-read, not counted).
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (µs) of the latency histogram buckets; one implicit
/// overflow bucket follows the last bound. Log-spaced from 50 µs to 5 s,
/// which brackets everything from an index lookup to a long streamed run.
pub const BUCKET_BOUNDS_US: [u64; 16] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

const BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// Fixed-bucket latency histogram. Recording is one relaxed atomic
/// increment; quantiles are estimated from the bucket counts at snapshot
/// time (reported as the upper bound of the bucket containing the
/// quantile — a conservative estimate).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.record_value(us);
    }

    /// Record a raw value against the bucket bounds. The bounds are
    /// unit-agnostic log-spaced numbers; latency recording uses them as
    /// µs, the ingest row group reuses them for batch sizes (rows).
    pub fn record_value(&self, v: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| v <= bound)
            .unwrap_or(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated quantile in µs (`q` in `0.0..=1.0`).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        quantile_from_buckets(&counts, q)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            p50_us: quantile_from_buckets(&counts, 0.50),
            p95_us: quantile_from_buckets(&counts, 0.95),
            p99_us: quantile_from_buckets(&counts, 0.99),
            buckets: BUCKET_BOUNDS_US
                .iter()
                .copied()
                .chain(std::iter::once(u64::MAX))
                .zip(counts)
                .collect(),
        }
    }
}

fn quantile_from_buckets(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return BUCKET_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX);
        }
    }
    u64::MAX
}

/// Per-endpoint counters + latency histogram.
#[derive(Debug, Default)]
pub struct EndpointMetrics {
    pub requests: Counter,
    pub errors: Counter,
    pub rejections: Counter,
    pub in_flight: Gauge,
    pub latency: Histogram,
}

/// Search-engine metrics: one latency histogram per modality (the three
/// `SearchIndexes` ranking paths) and the index-size gauges.
#[derive(Debug, Default)]
pub struct SearchMetrics {
    pub semantic_latency: Histogram,
    pub spt_latency: Histogram,
    pub reacc_latency: Histogram,
    /// Registry literal search (`SearchLiteral`) — every search endpoint
    /// records a per-request latency histogram.
    pub literal_latency: Histogram,
    pub index_pes: Gauge,
    pub index_workflows: Gauge,
}

impl SearchMetrics {
    fn snapshot(&self) -> SearchSnapshot {
        SearchSnapshot {
            semantic: self.semantic_latency.snapshot(),
            spt: self.spt_latency.snapshot(),
            reacc: self.reacc_latency.snapshot(),
            literal: self.literal_latency.snapshot(),
            index_pes: self.index_pes.get(),
            index_workflows: self.index_workflows.get(),
        }
    }
}

/// Recommendation-pipeline metrics (v9), fed by the served Aroma path:
/// where each request's time goes (retrieve → prune → cluster →
/// intersect).
#[derive(Debug, Default)]
pub struct RecoMetrics {
    /// `CodeRecommendation` requests served (any scope or embedding).
    pub requests: Counter,
    /// Requests that ran the full Aroma pipeline (SPT, PE or Both scope).
    pub pipeline_runs: Counter,
    /// Stage 1–2: featurize + light-weight retrieval.
    pub retrieve_latency: Histogram,
    /// Stage 3: prune & rerank over the candidate set.
    pub prune_latency: Histogram,
    /// Stage 4: greedy seed clustering.
    pub cluster_latency: Histogram,
    /// Stage 5: cluster intersection into recommendation text.
    pub intersect_latency: Histogram,
}

impl RecoMetrics {
    /// Fold one pipeline run's stage stats into the lifetime totals.
    pub fn observe(&self, stats: &aroma::RecoStats) {
        self.pipeline_runs.inc();
        self.retrieve_latency.record(stats.retrieve);
        self.prune_latency.record(stats.prune);
        self.cluster_latency.record(stats.cluster);
        self.intersect_latency.record(stats.intersect);
    }

    fn snapshot(&self) -> RecoSnapshot {
        RecoSnapshot {
            requests: self.requests.get(),
            pipeline_runs: self.pipeline_runs.get(),
            retrieve: self.retrieve_latency.snapshot(),
            prune: self.prune_latency.snapshot(),
            cluster: self.cluster_latency.snapshot(),
            intersect: self.intersect_latency.snapshot(),
        }
    }
}

/// Write-path metrics, fed by every registration (`RegisterPe` and
/// `RegisterWorkflow` are batches of one): how large the batches are,
/// where each one's time goes (analysis vs commit vs index
/// publish), and how many fsyncs sharing a WAL frame saved over a frame
/// per row.
#[derive(Debug, Default)]
pub struct IngestMetrics {
    /// Registration requests served.
    pub batches: Counter,
    /// Items (PE or workflow units) submitted across all batches.
    pub items: Counter,
    /// Items whose registration failed (the rest of their batch commits).
    pub items_failed: Counter,
    /// Registry rows created (PEs + workflows; duplicates reused count 0).
    pub rows: Counter,
    /// fsyncs avoided vs a frame per row: rows that shared their
    /// request's frame instead of each paying their own sync.
    pub fsyncs_saved: Counter,
    /// Items-per-batch distribution (bucket bounds reused as counts).
    pub batch_size: Histogram,
    /// Parallel analysis stage: pyparse → SPT → features → describe →
    /// embed, across the batch.
    pub analyze_latency: Histogram,
    /// Group-commit stage: validation + one WAL frame + apply.
    pub commit_latency: Histogram,
    /// Bulk index publish stage: one RCU snapshot swap.
    pub index_latency: Histogram,
}

impl IngestMetrics {
    fn snapshot(&self) -> IngestSnapshot {
        IngestSnapshot {
            batches: self.batches.get(),
            items: self.items.get(),
            items_failed: self.items_failed.get(),
            rows: self.rows.get(),
            fsyncs_saved: self.fsyncs_saved.get(),
            batch_size: self.batch_size.snapshot(),
            analyze: self.analyze_latency.snapshot(),
            commit: self.commit_latency.snapshot(),
            index: self.index_latency.snapshot(),
        }
    }
}

/// Enactment (workflow-run) fault metrics, fed by the run path from the
/// per-run [`d4py::FaultStats`]: how often PEs fail, how often the
/// supervisor retries, what ends up dead-lettered, and how the dynamic
/// mapping's task-timeout supervision behaves.
#[derive(Debug, Default)]
pub struct EnactmentMetrics {
    /// Completed runs (whatever the outcome).
    pub runs: Counter,
    /// Runs that ended in a terminal error.
    pub runs_failed: Counter,
    /// Failed PE invocations observed (each failed attempt counts once).
    pub pe_faults: Counter,
    /// Supervisor re-invocations under `Retry`/`DeadLetter`.
    pub retries: Counter,
    /// Datums dropped into dead-letter queues.
    pub dead_letters: Counter,
    /// Tasks abandoned for exceeding the per-task timeout.
    pub task_timeouts: Counter,
    /// Hung workers detached and replaced.
    pub worker_replacements: Counter,
}

impl EnactmentMetrics {
    /// Fold one run's fault counters into the server-lifetime totals.
    pub fn observe(&self, stats: &d4py::FaultStats) {
        self.pe_faults.add(stats.faults);
        self.retries.add(stats.retries);
        self.dead_letters.add(stats.dead_letters);
        self.task_timeouts.add(stats.task_timeouts);
        self.worker_replacements.add(stats.worker_replacements);
    }

    fn snapshot(&self) -> EnactmentSnapshot {
        EnactmentSnapshot {
            runs: self.runs.get(),
            runs_failed: self.runs_failed.get(),
            pe_faults: self.pe_faults.get(),
            retries: self.retries.get(),
            dead_letters: self.dead_letters.get(),
            task_timeouts: self.task_timeouts.get(),
            worker_replacements: self.worker_replacements.get(),
        }
    }
}

/// The server's metric registry: one [`EndpointMetrics`] per protocol
/// endpoint plus connection-level counters fed by the TCP layer and the
/// search-engine metrics fed by the search service.
pub struct Metrics {
    started: Instant,
    endpoints: RwLock<HashMap<&'static str, Arc<EndpointMetrics>>>,
    pub connections_accepted: Counter,
    pub connections_rejected: Counter,
    pub connections_active: Gauge,
    pub timeouts: Counter,
    pub disconnects: Counter,
    pub search: SearchMetrics,
    pub enactment: EnactmentMetrics,
    pub ingest: IngestMetrics,
    pub reco: RecoMetrics,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            endpoints: RwLock::new(HashMap::new()),
            connections_accepted: Counter::default(),
            connections_rejected: Counter::default(),
            connections_active: Gauge::default(),
            timeouts: Counter::default(),
            disconnects: Counter::default(),
            search: SearchMetrics::default(),
            enactment: EnactmentMetrics::default(),
            ingest: IngestMetrics::default(),
            reco: RecoMetrics::default(),
        }
    }
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Milliseconds since this metrics registry (i.e. the server) was
    /// created — the `Health` endpoint's uptime without the cost of a
    /// full snapshot.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The metrics handle for one endpoint, created on first use.
    pub fn endpoint(&self, name: &'static str) -> Arc<EndpointMetrics> {
        if let Some(m) = self
            .endpoints
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return m.clone();
        }
        self.endpoints
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name)
            .or_insert_with(|| Arc::new(EndpointMetrics::default()))
            .clone()
    }

    /// Point-in-time snapshot of every counter, gauge and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut endpoints: Vec<EndpointSnapshot> = self
            .endpoints
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, m)| EndpointSnapshot {
                endpoint: (*name).to_string(),
                requests: m.requests.get(),
                errors: m.errors.get(),
                rejections: m.rejections.get(),
                in_flight: m.in_flight.get(),
                latency: m.latency.snapshot(),
            })
            .collect();
        endpoints.sort_by(|a, b| a.endpoint.cmp(&b.endpoint));
        MetricsSnapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            connections_accepted: self.connections_accepted.get(),
            connections_rejected: self.connections_rejected.get(),
            connections_active: self.connections_active.get(),
            timeouts: self.timeouts.get(),
            disconnects: self.disconnects.get(),
            endpoints,
            search: self.search.snapshot(),
            enactment: self.enactment.snapshot(),
            ingest: self.ingest.snapshot(),
            reco: self.reco.snapshot(),
            // Owned by the registry and the health state machine; the
            // `Metrics` endpoint fills both in.
            persistence: PersistenceSnapshot::default(),
            storage_health: StorageHealthSnapshot::default(),
        }
    }
}

/// Snapshot of the search-engine metrics (serialisable).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchSnapshot {
    pub semantic: HistogramSnapshot,
    pub spt: HistogramSnapshot,
    pub reacc: HistogramSnapshot,
    /// Literal-search latency; serde-defaulted so pre-v9 snapshots (no
    /// `literal` field) still deserialise.
    #[serde(default)]
    pub literal: HistogramSnapshot,
    pub index_pes: i64,
    pub index_workflows: i64,
}

/// Snapshot of the registry persistence layer (serialisable). Filled by
/// the `Metrics` endpoint from [`Registry::persist_stats`] when the
/// server runs with a data directory; `enabled` stays false otherwise
/// and the row group is omitted from the rendered table.
///
/// [`Registry::persist_stats`]: laminar_registry::Registry::persist_stats
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PersistenceSnapshot {
    /// True when the registry has a data directory (WAL + snapshots).
    pub enabled: bool,
    /// Records appended to the WAL since open.
    pub wal_appends: u64,
    /// Frame bytes appended to the WAL since open.
    pub wal_bytes: u64,
    /// fsync calls issued (per-append syncs + compaction syncs).
    pub fsyncs: u64,
    /// Snapshot compactions performed since open.
    pub compactions: u64,
    /// Records currently in the WAL (resets on compaction).
    pub wal_records: u64,
    /// WAL records replayed during recovery at open.
    pub recovered_records: u64,
    /// Wall-clock recovery duration at open.
    pub recovery_ms: u64,
}

/// Snapshot of the storage-health state machine (serialisable, v8).
/// Filled by the `Metrics` endpoint from the server's `StorageHealth`
/// plus the registry's fault-injection counters; all-zero — and absent
/// from the rendered table — until a persist error, probe, or injected
/// fault has occurred.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StorageHealthSnapshot {
    /// True while the server is in read-only degraded mode.
    pub degraded: bool,
    /// Healthy→Degraded transitions since start.
    pub degraded_entries: u64,
    /// Degraded→Healthy transitions (successful recoveries).
    pub degraded_exits: u64,
    /// Recovery probes run (periodic + on-demand).
    pub probe_attempts: u64,
    /// Recovery probes that failed (storage still bad).
    pub probe_failures: u64,
    /// Mutating requests rejected with `Response::Degraded`.
    pub rejected_while_degraded: u64,
    /// Persistence-path IO errors observed by the registry.
    pub io_errors: u64,
    /// Most recent persistence error, if any.
    pub last_error: Option<String>,
    /// Per-site fault-injector counters `(site, ops, injected)`; empty
    /// unless a test injector is installed.
    pub fault_sites: Vec<(String, u64, u64)>,
}

/// Snapshot of the batched-ingestion metrics (serialisable). The
/// `batch_size` histogram's buckets count rows, not µs.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngestSnapshot {
    pub batches: u64,
    pub items: u64,
    pub items_failed: u64,
    pub rows: u64,
    pub fsyncs_saved: u64,
    pub batch_size: HistogramSnapshot,
    pub analyze: HistogramSnapshot,
    pub commit: HistogramSnapshot,
    pub index: HistogramSnapshot,
}

/// Snapshot of the recommendation-pipeline metrics (serialisable, v9).
/// All-zero — and absent from the rendered table — until the first
/// `CodeRecommendation` request.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoSnapshot {
    pub requests: u64,
    pub pipeline_runs: u64,
    pub retrieve: HistogramSnapshot,
    pub prune: HistogramSnapshot,
    pub cluster: HistogramSnapshot,
    pub intersect: HistogramSnapshot,
}

/// Snapshot of the enactment fault metrics (serialisable).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EnactmentSnapshot {
    pub runs: u64,
    pub runs_failed: u64,
    pub pe_faults: u64,
    pub retries: u64,
    pub dead_letters: u64,
    pub task_timeouts: u64,
    pub worker_replacements: u64,
}

/// Snapshot of one histogram (serialisable).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// `(bucket upper bound in µs, count)`; the final bound is `u64::MAX`
    /// (the overflow bucket).
    pub buckets: Vec<(u64, u64)>,
}

/// Snapshot of one endpoint's metrics (serialisable).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EndpointSnapshot {
    pub endpoint: String,
    pub requests: u64,
    pub errors: u64,
    pub rejections: u64,
    pub in_flight: i64,
    pub latency: HistogramSnapshot,
}

/// The full snapshot answered by the `metrics` protocol endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub uptime_ms: u64,
    pub connections_accepted: u64,
    pub connections_rejected: u64,
    pub connections_active: i64,
    pub timeouts: u64,
    pub disconnects: u64,
    pub endpoints: Vec<EndpointSnapshot>,
    /// Search-engine metrics; serde-defaulted so a protocol-v2 snapshot
    /// (no `search` field) still deserialises.
    #[serde(default)]
    pub search: SearchSnapshot,
    /// Enactment fault metrics; serde-defaulted so a pre-v4 snapshot
    /// (no `enactment` field) still deserialises.
    #[serde(default)]
    pub enactment: EnactmentSnapshot,
    /// Registry persistence metrics; serde-defaulted so a pre-v5 snapshot
    /// (no `persistence` field) still deserialises.
    #[serde(default)]
    pub persistence: PersistenceSnapshot,
    /// Batched-ingestion metrics; serde-defaulted so a pre-v6 snapshot
    /// (no `ingest` field) still deserialises.
    #[serde(default)]
    pub ingest: IngestSnapshot,
    /// Storage-health state machine; serde-defaulted so a pre-v8
    /// snapshot (no `storage_health` field) still deserialises.
    #[serde(default)]
    pub storage_health: StorageHealthSnapshot,
    /// Recommendation-pipeline metrics; serde-defaulted so a pre-v9
    /// snapshot (no `reco` field) still deserialises.
    #[serde(default)]
    pub reco: RecoSnapshot,
}

impl MetricsSnapshot {
    /// Render the snapshot as the table `laminar metrics` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "server uptime: {} ms", self.uptime_ms);
        let _ = writeln!(
            out,
            "connections: accepted {}  rejected {}  active {}  timeouts {}  disconnects {}",
            self.connections_accepted,
            self.connections_rejected,
            self.connections_active,
            self.timeouts,
            self.disconnects
        );
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "endpoint", "requests", "errors", "rejected", "in_flight", "p50_us", "p95_us", "p99_us"
        );
        for e in &self.endpoints {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
                e.endpoint,
                e.requests,
                e.errors,
                e.rejections,
                e.in_flight,
                e.latency.p50_us,
                e.latency.p95_us,
                e.latency.p99_us
            );
        }
        let s = &self.search;
        let _ = writeln!(
            out,
            "search index: pes {}  workflows {}",
            s.index_pes, s.index_workflows
        );
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>9} {:>9} {:>9}",
            "search modality", "queries", "p50_us", "p95_us", "p99_us"
        );
        for (name, h) in [
            ("semantic", &s.semantic),
            ("spt", &s.spt),
            ("reacc", &s.reacc),
            ("literal", &s.literal),
        ] {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>9} {:>9} {:>9}",
                name, h.count, h.p50_us, h.p95_us, h.p99_us
            );
        }
        let r = &self.reco;
        if r.requests > 0 {
            let _ = writeln!(
                out,
                "reco: requests {}  pipeline {}",
                r.requests, r.pipeline_runs
            );
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>9} {:>9} {:>9}",
                "reco stage", "runs", "p50_us", "p95_us", "p99_us"
            );
            for (name, h) in [
                ("retrieve", &r.retrieve),
                ("prune", &r.prune),
                ("cluster", &r.cluster),
                ("intersect", &r.intersect),
            ] {
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>9} {:>9} {:>9}",
                    name, h.count, h.p50_us, h.p95_us, h.p99_us
                );
            }
        }
        let f = &self.enactment;
        let _ = writeln!(out, "enactment: runs {}  failed {}", f.runs, f.runs_failed);
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>8} {:>12} {:>9} {:>9}",
            "enactment faults", "faults", "retries", "dead_letters", "timeouts", "replaced"
        );
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>8} {:>12} {:>9} {:>9}",
            "", f.pe_faults, f.retries, f.dead_letters, f.task_timeouts, f.worker_replacements
        );
        let i = &self.ingest;
        if i.batches > 0 {
            let _ = writeln!(
                out,
                "ingest: batches {}  items {}  failed {}  rows {}  fsyncs saved {}  batch p50 {} rows",
                i.batches, i.items, i.items_failed, i.rows, i.fsyncs_saved, i.batch_size.p50_us
            );
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>9} {:>9} {:>9}",
                "ingest stage", "batches", "p50_us", "p95_us", "p99_us"
            );
            for (name, h) in [
                ("analyze", &i.analyze),
                ("commit", &i.commit),
                ("index", &i.index),
            ] {
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>9} {:>9} {:>9}",
                    name, h.count, h.p50_us, h.p95_us, h.p99_us
                );
            }
        }
        let h = &self.storage_health;
        if h.degraded || h.degraded_entries > 0 || h.probe_attempts > 0 || h.io_errors > 0 {
            let _ = writeln!(
                out,
                "storage health: {}  entries {}  exits {}  rejected-while-degraded {}",
                if h.degraded {
                    "DEGRADED (read-only)"
                } else {
                    "healthy"
                },
                h.degraded_entries,
                h.degraded_exits,
                h.rejected_while_degraded
            );
            let _ = writeln!(
                out,
                "storage probes: attempts {}  failures {}  io errors {}{}",
                h.probe_attempts,
                h.probe_failures,
                h.io_errors,
                h.last_error
                    .as_deref()
                    .map(|e| format!("  last: {e}"))
                    .unwrap_or_default()
            );
            if h.fault_sites.iter().any(|&(_, ops, _)| ops > 0) {
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>9}",
                    "io fault site", "ops", "injected"
                );
                for (site, ops, injected) in &h.fault_sites {
                    if *ops > 0 {
                        let _ = writeln!(out, "{site:<28} {ops:>8} {injected:>9}");
                    }
                }
            }
        }
        let p = &self.persistence;
        if p.enabled {
            let _ = writeln!(
                out,
                "persistence: recovered {} records in {} ms",
                p.recovered_records, p.recovery_ms
            );
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>7} {:>11} {:>11}",
                "wal", "appends", "bytes", "fsyncs", "compactions", "wal_records"
            );
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>7} {:>11} {:>11}",
                "", p.wal_appends, p.wal_bytes, p.fsyncs, p.compactions, p.wal_records
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `snap` as a build that predates the field at `path` would send it:
    /// serialised, the field removed, parsed back. Goes through strings
    /// and `Value::Object` only, which real `serde_json` and the offline
    /// stand-in both have.
    fn without(snap: &MetricsSnapshot, path: &[&str]) -> MetricsSnapshot {
        use serde_json::Value;
        let mut json: Value = serde_json::from_str(&serde_json::to_string(snap).unwrap()).unwrap();
        let (field, parents) = path.split_last().unwrap();
        let mut at = &mut json;
        for key in parents {
            let Value::Object(map) = at else {
                panic!("{key}: parent is not an object");
            };
            at = map.get_mut(*key).unwrap();
        }
        let Value::Object(map) = at else {
            panic!("{field}: parent is not an object");
        };
        assert!(map.remove(*field).is_some(), "{field}: no such field");
        serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap()
    }

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let a = RequestId::mint();
        let b = RequestId::mint();
        assert!(b.0 > a.0);
        assert_eq!(format!("{a}"), format!("req-{}", a.0));
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(Duration::from_micros(80)); // bucket bound 100
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(40)); // bucket bound 50_000
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), 100);
        assert_eq!(h.quantile_us(0.95), 50_000);
        assert_eq!(h.quantile_us(0.99), 50_000);
        // An absurdly large value lands in the overflow bucket.
        h.record(Duration::from_secs(3600));
        let snap = h.snapshot();
        assert_eq!(snap.count, 101);
        assert_eq!(snap.buckets.last().unwrap().1, 1);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.99), 0);
    }

    #[test]
    fn metrics_snapshot_roundtrips_and_renders() {
        let m = Metrics::new();
        let e = m.endpoint("Run");
        e.requests.inc();
        e.in_flight.inc();
        e.latency.record(Duration::from_millis(3));
        m.connections_accepted.inc();
        m.connections_rejected.inc();
        let snap = m.snapshot();
        assert_eq!(snap.connections_rejected, 1);
        assert_eq!(snap.endpoints.len(), 1);
        assert_eq!(snap.endpoints[0].endpoint, "Run");
        assert_eq!(snap.endpoints[0].requests, 1);
        assert_eq!(snap.endpoints[0].in_flight, 1);
        assert!(snap.endpoints[0].latency.p50_us > 0);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let table = snap.render();
        assert!(table.contains("Run"), "{table}");
        assert!(table.contains("rejected 1"), "{table}");
    }

    #[test]
    fn search_metrics_snapshot_and_render() {
        let m = Metrics::new();
        m.search.semantic_latency.record(Duration::from_micros(90));
        m.search.spt_latency.record(Duration::from_micros(300));
        m.search.index_pes.set(42);
        m.search.index_workflows.set(7);
        let snap = m.snapshot();
        assert_eq!(snap.search.semantic.count, 1);
        assert_eq!(snap.search.index_pes, 42);
        let table = snap.render();
        assert!(table.contains("pes 42"), "{table}");
        assert!(table.contains("semantic"), "{table}");
        // A v2 snapshot without the `search` field still parses.
        let back = without(&snap, &["search"]);
        assert_eq!(back.search, SearchSnapshot::default());
    }

    #[test]
    fn enactment_metrics_snapshot_and_render() {
        let m = Metrics::new();
        m.enactment.runs.inc();
        m.enactment.runs.inc();
        m.enactment.runs_failed.inc();
        m.enactment.observe(&d4py::FaultStats {
            faults: 5,
            retries: 3,
            dead_letters: 2,
            task_timeouts: 1,
            worker_replacements: 1,
        });
        let snap = m.snapshot();
        assert_eq!(snap.enactment.runs, 2);
        assert_eq!(snap.enactment.runs_failed, 1);
        assert_eq!(snap.enactment.pe_faults, 5);
        assert_eq!(snap.enactment.retries, 3);
        assert_eq!(snap.enactment.dead_letters, 2);
        assert_eq!(snap.enactment.task_timeouts, 1);
        assert_eq!(snap.enactment.worker_replacements, 1);
        let table = snap.render();
        assert!(table.contains("enactment: runs 2  failed 1"), "{table}");
        assert!(table.contains("dead_letters"), "{table}");
        // A pre-v4 snapshot without the `enactment` field still parses.
        let back = without(&snap, &["enactment"]);
        assert_eq!(back.enactment, EnactmentSnapshot::default());
    }

    #[test]
    fn persistence_snapshot_serde_compat_and_render() {
        let m = Metrics::new();
        let mut snap = m.snapshot();
        // Disabled by default: row group absent from the table.
        assert!(!snap.persistence.enabled);
        assert!(!snap.render().contains("persistence:"));
        snap.persistence = PersistenceSnapshot {
            enabled: true,
            wal_appends: 12,
            wal_bytes: 4096,
            fsyncs: 3,
            compactions: 1,
            wal_records: 4,
            recovered_records: 8,
            recovery_ms: 2,
        };
        let table = snap.render();
        assert!(table.contains("recovered 8 records in 2 ms"), "{table}");
        assert!(table.contains("compactions"), "{table}");
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.persistence, snap.persistence);
        // A pre-v5 snapshot without the `persistence` field still parses.
        let back = without(&snap, &["persistence"]);
        assert_eq!(back.persistence, PersistenceSnapshot::default());
    }

    #[test]
    fn ingest_metrics_snapshot_and_render() {
        let m = Metrics::new();
        // Absent until the first batch: row group omitted from the table.
        assert!(!m.snapshot().render().contains("ingest:"));
        m.ingest.batches.inc();
        m.ingest.items.add(32);
        m.ingest.items_failed.inc();
        m.ingest.rows.add(33);
        m.ingest.fsyncs_saved.add(32);
        m.ingest.batch_size.record_value(32);
        m.ingest.analyze_latency.record(Duration::from_micros(900));
        m.ingest.commit_latency.record(Duration::from_micros(200));
        m.ingest.index_latency.record(Duration::from_micros(60));
        let snap = m.snapshot();
        assert_eq!(snap.ingest.batches, 1);
        assert_eq!(snap.ingest.items, 32);
        assert_eq!(snap.ingest.rows, 33);
        assert_eq!(snap.ingest.fsyncs_saved, 32);
        assert_eq!(snap.ingest.batch_size.count, 1);
        // Batch size 32 lands in the ≤50 bucket: reported bound is 50.
        assert_eq!(snap.ingest.batch_size.p50_us, 50);
        assert_eq!(snap.ingest.analyze.count, 1);
        let table = snap.render();
        assert!(table.contains("fsyncs saved 32"), "{table}");
        assert!(table.contains("analyze"), "{table}");
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ingest, snap.ingest);
        // A pre-v6 snapshot without the `ingest` field still parses.
        let back = without(&snap, &["ingest"]);
        assert_eq!(back.ingest, IngestSnapshot::default());
        // A snapshot from a server that still sends a row group this
        // build has dropped parses too: unknown fields are ignored.
        let json = serde_json::to_string(&snap).unwrap();
        let json = format!(r#"{{"dropped_row_group":{{"hits":3}},{}"#, &json[1..]);
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.uptime_ms, snap.uptime_ms);
    }

    #[test]
    fn reco_metrics_snapshot_and_render() {
        let m = Metrics::new();
        // Absent until the first recommendation: row group omitted.
        assert!(!m.snapshot().render().contains("reco:"));
        m.reco.requests.inc();
        m.reco.observe(&aroma::RecoStats {
            retrieved: 40,
            pruned: 10,
            clusters: 3,
            retrieve: Duration::from_micros(400),
            prune: Duration::from_micros(900),
            cluster: Duration::from_micros(80),
            intersect: Duration::from_micros(60),
            ..aroma::RecoStats::default()
        });
        let snap = m.snapshot();
        assert_eq!(snap.reco.requests, 1);
        assert_eq!(snap.reco.pipeline_runs, 1);
        assert_eq!(snap.reco.prune.count, 1);
        let table = snap.render();
        assert!(table.contains("reco: requests 1"), "{table}");
        assert!(table.contains("intersect"), "{table}");
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.reco, snap.reco);
        // A pre-v9 snapshot without the `reco` field still parses.
        let back = without(&snap, &["reco"]);
        assert_eq!(back.reco, RecoSnapshot::default());
    }

    #[test]
    fn literal_latency_serde_compat() {
        let m = Metrics::new();
        m.search.literal_latency.record(Duration::from_micros(120));
        let snap = m.snapshot();
        assert_eq!(snap.search.literal.count, 1);
        assert!(snap.render().contains("literal"), "{}", snap.render());
        // A pre-v9 `search` group without the `literal` field still parses.
        let back = without(&snap, &["search", "literal"]);
        assert_eq!(back.search.literal, HistogramSnapshot::default());
    }

    #[test]
    fn storage_health_snapshot_serde_compat_and_render() {
        let m = Metrics::new();
        let mut snap = m.snapshot();
        // All-zero by default: row group absent from the table.
        assert_eq!(snap.storage_health, StorageHealthSnapshot::default());
        assert!(!snap.render().contains("storage health:"));
        snap.storage_health = StorageHealthSnapshot {
            degraded: true,
            degraded_entries: 2,
            degraded_exits: 1,
            probe_attempts: 5,
            probe_failures: 4,
            rejected_while_degraded: 7,
            io_errors: 3,
            last_error: Some("wal append: injected ENOSPC".into()),
            fault_sites: vec![
                ("wal_append".into(), 12, 3),
                ("snapshot_rename".into(), 0, 0),
            ],
        };
        let table = snap.render();
        assert!(table.contains("DEGRADED (read-only)"), "{table}");
        assert!(table.contains("rejected-while-degraded 7"), "{table}");
        assert!(
            table.contains("last: wal append: injected ENOSPC"),
            "{table}"
        );
        assert!(table.contains("wal_append"), "{table}");
        // Zero-op sites are elided from the fault table.
        assert!(!table.contains("snapshot_rename"), "{table}");
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.storage_health, snap.storage_health);
        // A pre-v8 snapshot without the `storage_health` field still parses.
        let back = without(&snap, &["storage_health"]);
        assert_eq!(back.storage_health, StorageHealthSnapshot::default());
    }

    #[test]
    fn endpoint_handles_are_shared() {
        let m = Metrics::new();
        m.endpoint("GetRegistry").requests.inc();
        m.endpoint("GetRegistry").requests.inc();
        assert_eq!(m.endpoint("GetRegistry").requests.get(), 2);
    }
}
