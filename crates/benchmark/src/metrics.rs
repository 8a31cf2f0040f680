//! The metric catalogue: every name the benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step.

use crate::gen::OpClass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Metrics by name, in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// The end-to-end metrics, one set per workload, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("first_output_p50_ms", "ms"),
    ("answer_quality", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics the load generator itself observes, besides the
/// per-class client timings of [`client_metric_names`].
pub const FROM_LOAD: [(&str, &str); 10] = [
    ("client.longest_gap_ms", "ms"),
    ("client.rows_s", "1/s"),
    ("client.cpu_s", "s"),
    ("server.cpu_ms_per_op", "ms"),
    ("server.threads_peak", "count"),
    ("server.peak_rss_mb", "MB"),
    ("registry.disk_mb_end", "MB"),
    ("fixture.load_s", "s"),
    ("fixture.load_rows_s", "1/s"),
    ("fixture.disk_mb", "MB"),
];

/// Per-layer metrics of the traced, in-process run.
pub const FROM_LAYERS: [(&str, &str); 59] = [
    ("net.connect_us", "us"),
    ("net.health_roundtrip_us", "us"),
    ("net.residual.search_semantic_us", "us"),
    ("protocol.encode_request_us", "us"),
    ("protocol.decode_request_us", "us"),
    ("protocol.encode_reply_us", "us"),
    ("protocol.decode_reply_us", "us"),
    ("protocol.stream_frame_us", "us"),
    ("protocol.request_bytes", "B"),
    ("protocol.reply_bytes", "B"),
    ("server.handle.search_semantic_us", "us"),
    ("server.handle.reco_spt_pe_us", "us"),
    ("server.handle.register_pe_us", "us"),
    ("server.handle.get_pe_us", "us"),
    ("server.residual.search_semantic_us", "us"),
    ("server.residual.reco_spt_pe_us", "us"),
    ("server.residual.register_pe_us", "us"),
    ("server.warm_load_ms", "ms"),
    ("embed.unixcoder_text_us", "us"),
    ("embed.reacc_code_us", "us"),
    ("embed.codet5_describe_us", "us"),
    ("pyparse.parse_us", "us"),
    ("pyparse.parse_partial_us", "us"),
    ("spt.feature_vec_us", "us"),
    ("indexes.rank_semantic_us", "us"),
    ("indexes.rank_reacc_us", "us"),
    ("indexes.rank_spt_us", "us"),
    ("indexes.rank_spt_above_us", "us"),
    ("indexes.upsert_us", "us"),
    ("indexes.rows", "count"),
    ("indexes.scan_mb_per_query", "MB"),
    ("aroma.recommend_us", "us"),
    ("aroma.retrieve_us", "us"),
    ("aroma.prune_us", "us"),
    ("aroma.cluster_us", "us"),
    ("aroma.intersect_us", "us"),
    ("aroma.retrieved", "count"),
    ("aroma.pruned", "count"),
    ("aroma.clusters", "count"),
    ("aroma.lsh_candidates", "count"),
    ("reco.sweep_workflows_us", "us"),
    ("registry.get_pe_us", "us"),
    ("registry.literal_search_us", "us"),
    ("registry.add_pe_mem_us", "us"),
    ("registry.add_pe_wal_us", "us"),
    ("registry.add_pe_fsync_us", "us"),
    ("registry.wal_bytes_per_row", "B"),
    ("registry.compact_ms", "ms"),
    ("registry.snapshot_bytes_per_row", "B"),
    ("registry.open_replay_ms", "ms"),
    ("registry.open_snapshot_ms", "ms"),
    ("d4py.simple_run_us", "us"),
    ("d4py.multi_run_us", "us"),
    ("d4py.dynamic_run_us", "us"),
    ("execengine.execute_us", "us"),
    ("execengine.overhead_us", "us"),
    ("execengine.first_line_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// `client.<op>.count|p50_us|p95_us` for every operation class.
pub fn client_metric_names() -> Vec<(String, &'static str)> {
    OpClass::ALL
        .iter()
        .flat_map(|c| {
            [
                (format!("client.{}.count", c.name()), "count"),
                (format!("client.{}.p50_us", c.name()), "us"),
                (format!("client.{}.p95_us", c.name()), "us"),
            ]
        })
        .collect()
}

/// Every per-layer metric name with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = FROM_LOAD.iter().chain(&FROM_LAYERS);
    client_metric_names()
        .into_iter()
        .chain(fixed.map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

pub fn insert(metrics: &mut Metrics, name: String, unit: &str, value: f64) {
    let unit = unit.to_string();
    metrics.insert(name, Metric { value, unit });
}

/// Insert `name` with the unit `catalogue` gives it.
pub fn put(metrics: &mut Metrics, catalogue: &[(&str, &str)], name: &str, value: f64) {
    let unit = catalogue
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
        .1;
    insert(metrics, name.to_string(), unit, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> BTreeSet<(String, String)> {
            spec[key]
                .as_array()
                .expect("a list of metrics")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let own = |names: Vec<(String, &'static str)>| -> BTreeSet<(String, String)> {
            names.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(listed("end_to_end"), own(e2e));
        assert_eq!(listed("per_layer"), own(per_layer()));
        assert!(per_layer().len() <= 128);
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        let own: Vec<&str> = crate::gen::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, own);
    }
}
