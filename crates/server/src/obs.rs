//! `laminar-obs` — the serving-path observability layer.
//!
//! Every request that enters [`LaminarServer::handle_envelope`]
//! (in-process or TCP) is minted a [`RequestId`] at ingress and accounted
//! against its endpoint's [`EndpointMetrics`]: a request counter, an error
//! counter, a rejection counter, an in-flight gauge, and a fixed-bucket
//! latency histogram. The whole layer is lock-free — plain relaxed
//! atomics, with one [`EndpointMetrics`] per row of
//! [`protocol::ENDPOINTS`] made when the [`Metrics`] is — so
//! instrumentation never contends with the requests it measures.
//!
//! The subsystems' row groups (search, reco, enactment, ingest, warm) are
//! declared once, in `with_row_groups!`: a field's name and kind there
//! make its live metric, its snapshot field, the copy between the two and
//! its place in the rendered table.
//!
//! A [`MetricsSnapshot`] of everything is serialisable (it travels over
//! the `metrics` protocol endpoint) and renders as the table the
//! `laminar metrics` CLI verb prints.
//!
//! [`LaminarServer::handle_envelope`]: crate::server::LaminarServer::handle_envelope
//! [`protocol::ENDPOINTS`]: crate::protocol::ENDPOINTS

use crate::protocol::ENDPOINTS;
use laminar_registry::PersistSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
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

    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
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

/// A kind of live metric: the plain value a snapshot holds for it, and
/// how the rendered table reads that value.
pub trait Metric {
    type Snapshot;
    fn snapshot(&self) -> Self::Snapshot;
    fn shown(snapshot: &Self::Snapshot) -> Shown<'_>;
}

/// One snapshot value as the rendered table reads it: counters and
/// gauges go on their group's header line, histograms into its table.
#[derive(Debug)]
pub enum Shown<'a> {
    Scalar(i128),
    Histogram(&'a HistogramSnapshot),
}

impl Shown<'_> {
    fn is_zero(&self) -> bool {
        match self {
            Shown::Scalar(v) => *v == 0,
            Shown::Histogram(h) => h.count == 0,
        }
    }
}

impl Metric for Counter {
    type Snapshot = u64;
    fn snapshot(&self) -> u64 {
        self.get()
    }
    fn shown(v: &u64) -> Shown<'_> {
        Shown::Scalar((*v).into())
    }
}

impl Metric for Gauge {
    type Snapshot = i64;
    fn snapshot(&self) -> i64 {
        self.get()
    }
    fn shown(v: &i64) -> Shown<'_> {
        Shown::Scalar((*v).into())
    }
}

impl Metric for Histogram {
    type Snapshot = HistogramSnapshot;
    fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.bucket_counts();
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
    fn shown(h: &HistogramSnapshot) -> Shown<'_> {
        Shown::Histogram(h)
    }
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

/// The row groups, declared once: hands the list to the macro `$emit`.
/// Each group is `name: LiveStruct, SnapshotStruct { field: Kind, .. }`;
/// `Kind` is `Counter`, `Gauge` or `Histogram`, and a histogram's name
/// carries its unit.
macro_rules! with_row_groups {
    ($emit:ident) => {
        $emit! {
            /// Search-engine metrics: the index-size gauges and one
            /// latency histogram per ranking path.
            search: SearchMetrics, SearchSnapshot {
                index_pes: Gauge,
                index_workflows: Gauge,
                semantic_us: Histogram,
                spt_us: Histogram,
                reacc_us: Histogram,
                /// Registry literal search (`SearchLiteral`).
                literal_us: Histogram,
            }
            /// Recommendation-pipeline metrics, fed by the served Aroma
            /// path: where each request's time goes.
            reco: RecoMetrics, RecoSnapshot {
                /// `CodeRecommendation` requests served (any scope or
                /// embedding).
                requests: Counter,
                /// Requests that ran the full Aroma pipeline (SPT, PE or
                /// Both scope).
                pipeline_runs: Counter,
                /// Stage 2: light-weight retrieval over the posting lists
                /// (the query is featurised before the pipeline starts).
                retrieve_us: Histogram,
                /// Stage 3: prune & rerank over the candidate set.
                prune_us: Histogram,
                /// Stage 4: greedy seed clustering.
                cluster_us: Histogram,
                /// Stage 5: cluster intersection into recommendation text.
                intersect_us: Histogram,
            }
            /// Enactment (workflow-run) metrics, fed by the run path from
            /// each run's [`d4py::FaultStats`].
            enactment: EnactmentMetrics, EnactmentSnapshot {
                /// Completed runs (whatever the outcome).
                runs: Counter,
                /// Runs that ended in a terminal error.
                runs_failed: Counter,
                /// Failed PE invocations (each failed attempt counts once).
                pe_faults: Counter,
                /// Supervisor re-invocations under `Retry`/`DeadLetter`.
                retries: Counter,
                /// Datums dropped into dead-letter queues.
                dead_letters: Counter,
                /// Tasks abandoned for exceeding the per-task timeout.
                task_timeouts: Counter,
                /// Hung workers detached and replaced.
                worker_replacements: Counter,
            }
            /// Write-path metrics, fed by every registration (`RegisterPe`
            /// and `RegisterWorkflow` are batches of one).
            ingest: IngestMetrics, IngestSnapshot {
                /// Registration requests served.
                batches: Counter,
                /// Items (PE or workflow units) submitted.
                items: Counter,
                /// Items whose registration failed (the rest of their batch
                /// commits).
                items_failed: Counter,
                /// Registry rows created (a reused PE counts 0).
                rows: Counter,
                /// fsyncs avoided vs a frame per row: rows that shared
                /// their request's WAL frame.
                fsyncs_saved: Counter,
                /// Items per batch (the bucket bounds counted as rows).
                batch_size: Histogram,
                /// Analysis stage: describe, embed, parse and featurise.
                analyze_us: Histogram,
                /// Commit stage: validation, one WAL frame, apply.
                commit_us: Histogram,
                /// Publish stage: one index snapshot swap.
                index_us: Histogram,
            }
            /// Warm-load metrics: how a start built its indexes, and what
            /// writing the index cache (`index.cache`) cost.
            warm: WarmMetrics, WarmSnapshot {
                /// The warm load, from reading the registry's rows to the
                /// one publication.
                load_us: Histogram,
                /// Registry rows served from the index cache.
                cache_rows_hit: Counter,
                /// Registry rows derived from their columns (no cache, or
                /// no valid cache row for their content).
                cache_rows_missed: Counter,
                /// Cache files ignored whole (header or analyser
                /// fingerprint mismatch) or cut short by a bad frame.
                cache_rejected: Counter,
                /// Cache writes, after an explicit or a drain compaction.
                cache_write_us: Histogram,
                /// Bytes of the last cache written.
                cache_bytes: Gauge,
                /// Cache writes that failed (never a request's error).
                cache_write_failures: Counter,
            }
        }
    };
}

/// Generates, from the row-group list, each group's live struct and
/// snapshot struct, and the [`RowGroups`] / [`RowGroupsSnapshot`] pair
/// holding one of each.
macro_rules! row_groups {
    ($(
        $(#[$doc:meta])*
        $group:ident: $live:ident, $snap:ident {
            $($(#[$field_doc:meta])* $field:ident: $kind:ident,)*
        }
    )*) => {
        $(
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $live {
                $($(#[$field_doc])* pub $field: $kind,)*
            }

            #[doc = concat!("Snapshot of [`", stringify!($live), "`] (serialisable).")]
            #[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
            pub struct $snap {
                $(pub $field: <$kind as Metric>::Snapshot,)*
            }
        )*

        /// Every row group's live metrics.
        #[derive(Debug, Default)]
        pub struct RowGroups {
            $(pub $group: $live,)*
        }

        /// Every row group's snapshot.
        #[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
        pub struct RowGroupsSnapshot {
            $(pub $group: $snap,)*
        }

        impl RowGroups {
            fn snapshot(&self) -> RowGroupsSnapshot {
                RowGroupsSnapshot {
                    $($group: $snap {
                        $($field: self.$group.$field.snapshot(),)*
                    },)*
                }
            }
        }

        impl RowGroupsSnapshot {
            /// Each group's name and named values, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, Vec<(&'static str, Shown<'_>)>)> {
                vec![$((
                    stringify!($group),
                    vec![$((
                        stringify!($field),
                        <$kind as Metric>::shown(&self.$group.$field),
                    ),)*],
                ),)*]
            }
        }
    };
}

with_row_groups!(row_groups);

/// The server's metric registry: one [`EndpointMetrics`] per protocol
/// endpoint, connection-level counters fed by the TCP layer, and the
/// subsystems' row groups.
pub struct Metrics {
    started: Instant,
    /// One handle per endpoint, sorted by name.
    endpoints: Vec<(&'static str, Arc<EndpointMetrics>)>,
    pub connections_accepted: Counter,
    pub connections_rejected: Counter,
    pub connections_active: Gauge,
    pub timeouts: Counter,
    pub disconnects: Counter,
    pub groups: RowGroups,
}

impl Default for Metrics {
    fn default() -> Self {
        let mut endpoints: Vec<_> = ENDPOINTS
            .iter()
            .map(|row| (row.name, Arc::default()))
            .collect();
        endpoints.sort_unstable_by_key(|&(name, _)| name);
        Metrics {
            started: Instant::now(),
            endpoints,
            connections_accepted: Counter::default(),
            connections_rejected: Counter::default(),
            connections_active: Gauge::default(),
            timeouts: Counter::default(),
            disconnects: Counter::default(),
            groups: RowGroups::default(),
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

    /// The metrics handle for the endpoint named `name`, a row of
    /// [`ENDPOINTS`].
    pub fn endpoint(&self, name: &str) -> Arc<EndpointMetrics> {
        let at = self
            .endpoints
            .binary_search_by_key(&name, |&(n, _)| n)
            .unwrap_or_else(|_| panic!("{name} is not a row of protocol::ENDPOINTS"));
        self.endpoints[at].1.clone()
    }

    /// Point-in-time snapshot of every counter, gauge and histogram. The
    /// endpoint rows are those with at least one request, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let endpoints: Vec<EndpointSnapshot> = self
            .endpoints
            .iter()
            .filter(|(_, m)| m.requests.get() > 0)
            .map(|(name, m)| EndpointSnapshot {
                endpoint: (*name).to_string(),
                requests: m.requests.get(),
                errors: m.errors.get(),
                rejections: m.rejections.get(),
                in_flight: m.in_flight.get(),
                latency: m.latency.snapshot(),
            })
            .collect();
        MetricsSnapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            connections_accepted: self.connections_accepted.get(),
            connections_rejected: self.connections_rejected.get(),
            connections_active: self.connections_active.get(),
            timeouts: self.timeouts.get(),
            disconnects: self.disconnects.get(),
            endpoints,
            groups: self.groups.snapshot(),
            // Owned by the registry and the health state machine; the
            // `Metrics` endpoint fills both in.
            persistence: None,
            storage_health: StorageHealthSnapshot::default(),
        }
    }
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
    pub groups: RowGroupsSnapshot,
    /// Registry persistence counters; `None` without a data directory.
    pub persistence: Option<PersistSnapshot>,
    /// Storage-health state machine.
    pub storage_health: StorageHealthSnapshot,
}

impl MetricsSnapshot {
    /// Render the snapshot as the table `laminar metrics` prints.
    pub fn render(&self) -> String {
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
        for (group, fields) in self.groups.fields() {
            if fields.iter().any(|(_, v)| !v.is_zero()) {
                render_group(&mut out, group, &fields);
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
        if let Some(p) = &self.persistence {
            // The IO error tally and last error show under storage health.
            let fields = [
                ("wal_appends", p.wal_appends),
                ("wal_bytes", p.wal_bytes),
                ("fsyncs", p.fsyncs),
                ("compactions", p.compactions),
                ("wal_records", p.wal_records),
                ("recovered_records", p.recovered_records),
                ("recovery_ms", p.recovery_ms),
            ]
            .map(|(name, v)| (name, Shown::Scalar(v.into())));
            render_group(&mut out, "persistence", &fields);
        }
        out
    }
}

/// One row group in the table: its counters and gauges on a header line,
/// then its histograms as one `count p50 p95 p99` table.
fn render_group(out: &mut String, group: &str, fields: &[(&str, Shown<'_>)]) {
    let (mut header, mut table) = (format!("{group}:"), String::new());
    for (name, v) in fields {
        let _ = match v {
            Shown::Scalar(v) => write!(header, " {name} {v} "),
            Shown::Histogram(h) => writeln!(
                table,
                "{name:<28} {:>8} {:>9} {:>9} {:>9}",
                h.count, h.p50_us, h.p95_us, h.p99_us
            ),
        };
    }
    let _ = writeln!(out, "{}", header.trim_end());
    if !table.is_empty() {
        let title = format!("{group} histogram");
        let _ = writeln!(out, "{title:<28}    count       p50       p95       p99");
        out.push_str(&table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let snap = h.snapshot();
        assert_eq!(snap.p50_us, 100);
        assert_eq!(snap.p95_us, 50_000);
        assert_eq!(snap.p99_us, 50_000);
        // An absurdly large value lands in the overflow bucket.
        h.record(Duration::from_secs(3600));
        let snap = h.snapshot();
        assert_eq!(snap.count, 101);
        assert_eq!(snap.buckets.last().unwrap().1, 1);
        // Raw values use the same bounds: a batch of 32 rows reads as 50.
        let rows = Histogram::default();
        rows.record_value(32);
        assert_eq!(rows.snapshot().p50_us, 50);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().p99_us, 0);
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

    /// Makes one live metric non-zero: 1 for a counter or gauge, one
    /// value of 32 for a histogram.
    trait Bump {
        fn bump(&self);
    }

    impl Bump for Counter {
        fn bump(&self) {
            self.inc();
        }
    }

    impl Bump for Gauge {
        fn bump(&self) {
            self.inc();
        }
    }

    impl Bump for Histogram {
        fn bump(&self) {
            self.record_value(32);
        }
    }

    /// One `(group, field, bump)` per field of the row-group list.
    macro_rules! bumps {
        ($(
            $(#[$doc:meta])*
            $group:ident: $live:ident, $snap:ident {
                $($(#[$field_doc:meta])* $field:ident: $kind:ident,)*
            }
        )*) => {
            vec![$($((
                stringify!($group),
                stringify!($field),
                (|m: &Metrics| m.groups.$group.$field.bump()) as fn(&Metrics),
            ),)*)*]
        };
    }

    /// Every row-group field, one at a time: it shows in the snapshot,
    /// survives the JSON round trip and renders under its group, while
    /// the all-zero groups stay out of the table and unknown JSON fields
    /// are skipped. Persistence and storage health, which live outside
    /// the list, are the last two cases.
    #[test]
    fn row_groups_snapshot_roundtrip_and_render() {
        let parse = |json: &str| serde_json::from_str::<MetricsSnapshot>(json).unwrap();
        let empty = Metrics::new().snapshot();
        let groups: Vec<&str> = empty.groups.fields().iter().map(|g| g.0).collect();
        assert_eq!(groups, ["search", "reco", "enactment", "ingest", "warm"]);
        let table = empty.render();
        for group in &groups {
            assert!(!table.contains(&format!("{group}:")), "{table}");
        }
        assert!(!table.contains("persistence:"), "{table}");
        assert!(!table.contains("storage health:"), "{table}");

        let bumps = with_row_groups!(bumps);
        assert_eq!(bumps.len(), 35);
        for (group, field, bump) in bumps {
            let m = Metrics::new();
            bump(&m);
            let snap = m.snapshot();
            for (g, fields) in snap.groups.fields() {
                for (f, v) in fields {
                    assert_eq!(v.is_zero(), (g, f) != (group, field), "{g}.{f}");
                }
            }
            let json = serde_json::to_string(&snap).unwrap();
            assert_eq!(parse(&json), snap);
            // A snapshot from a server that sends a metric or a row group
            // this build has dropped parses too.
            let json = json
                .replacen(
                    &format!("\"{group}\":{{"),
                    &format!("\"{group}\":{{\"dropped_metric\":3,"),
                    1,
                )
                .replacen('{', r#"{"dropped_row_group":{"hits":3},"#, 1);
            assert!(json.contains("dropped_metric"), "{json}");
            assert_eq!(parse(&json), snap);

            let table = snap.render();
            for g in &groups {
                assert_eq!(table.contains(&format!("{g}:")), *g == group, "{table}");
            }
            let shown = table.lines().any(|line| {
                let words: Vec<&str> = line.split_whitespace().collect();
                words.windows(2).any(|w| w == [field, "1"])
                    || words.first() == Some(&field) && words.get(1..3) == Some(&["1", "50"][..])
            });
            assert!(shown, "{group}.{field}:\n{table}");
        }

        let mut snap = Metrics::new().snapshot();
        snap.persistence = Some(PersistSnapshot {
            wal_appends: 12,
            wal_bytes: 4096,
            fsyncs: 3,
            compactions: 1,
            wal_records: 4,
            recovered_records: 8,
            recovery_ms: 2,
            ..PersistSnapshot::default()
        });
        let table = snap.render();
        assert!(table.contains("persistence: wal_appends 12"), "{table}");
        assert!(
            table.contains("recovered_records 8  recovery_ms 2"),
            "{table}"
        );
        assert!(table.contains("compactions 1"), "{table}");
        let json = serde_json::to_string(&snap).unwrap();
        assert_eq!(parse(&json), snap);

        let mut snap = Metrics::new().snapshot();
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
        assert_eq!(parse(&json), snap);
    }

    #[test]
    fn endpoint_handles_are_shared() {
        let m = Metrics::new();
        m.endpoint("GetRegistry").requests.inc();
        m.endpoint("GetRegistry").requests.inc();
        assert_eq!(m.endpoint("GetRegistry").requests.get(), 2);
    }
}
