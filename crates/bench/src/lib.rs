//! `laminar-bench` — shared evaluation harness code.
//!
//! Every table and figure of the paper's §VII (plus the performance claims
//! embedded in §IV) has a binary in `src/bin/` that regenerates it; the
//! heavy lifting — corpus construction, retrieval runs, precision-recall
//! sweeps — lives here so the binaries and the integration tests share one
//! implementation.
//!
//! | binary | paper artefact | DESIGN.md id |
//! |---|---|---|
//! | `fig10_descriptions` | Fig. 10a/b | E1 |
//! | `fig11_text_to_code` | Fig. 11 | E2 |
//! | `fig12_13_code_to_code` | Fig. 12 + Fig. 13 | E3, E4 |
//! | `table1_client_functions` | Table I | E5 |
//! | `table2_schema` | Table II / Fig. 6 | E6 |
//! | `eval_streaming` | §IV-E true-streaming | E8 |
//! | `eval_resources` | §IV-F resource caching | E9 |
//! | `eval_mappings` | §II-A mappings / Fig. 5b | E10 |
//! | `eval_search_latency` | search latency vs registry size | E11 |
//! | `eval_warm_load` | server start (warm load, index cache) vs registry size | E11 |
//! | `eval_write_stalls` | what a write costs a reader; literal search | DESIGN.md §6 |
//! | `ablation_aroma_variants` | simplified-vs-full Aroma | E12 |
//! | `ablation_description_context` | Fig. 10 → Fig. 11 coupling | E13 |
//! | `ablation_spt_features` | Aroma feature-family ablation | E15 |

use aroma::{AromaConfig, RecoStats};
use csn::{pr_curve, Dataset, DatasetConfig, PeEntry, PrPoint};
use d4py::mapping::{DynamicConfig, Mapping, RunInput};
use d4py::WorkflowGraph;
use embed::{CodeT5Sim, DenseVec, DescriptionContext, ReaccSim, UniXcoderSim};
use laminar_core::{Laminar, LaminarConfig, PoolConfig};
use laminar_server::indexes::IndexHit;
use laminar_server::protocol::{
    content_hash, FaultPolicyWire, Ident, ResourceRefWire, RunInputWire, RunMode,
};
use laminar_server::{IndexRow, LaminarServer, Reply, Request, Response, SearchIndexes, WireFrame};
use spt::{extract_features, Feature, FeatureVec, Spt};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The standard evaluation corpus (laptop-scale stand-in for the paper's
/// 450k-function CodeSearchNet conversion; see DESIGN.md §1).
pub fn standard_corpus() -> Dataset {
    corpus_with_variants(10)
}

/// Corpus with an explicit variants-per-family count (the figure binaries
/// accept it as their first CLI argument for scale sweeps).
pub fn corpus_with_variants(variants_per_family: usize) -> Dataset {
    Dataset::generate(DatasetConfig {
        variants_per_family,
        seed: 42,
        ..DatasetConfig::default()
    })
}

/// Parse the binaries' optional first argument: variants per family
/// (default 10 → 300 PEs).
pub fn corpus_from_args() -> Dataset {
    let variants = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    corpus_with_variants(variants)
}

/// Corpus sized for `eval_search_latency`: `n` PEs spread
/// across the whole family catalogue.
pub fn search_corpus(n: usize) -> Dataset {
    Dataset::generate(DatasetConfig {
        families: csn::family_catalogue().len(),
        variants_per_family: n / csn::family_catalogue().len() + 1,
        seed: 9,
        ..DatasetConfig::default()
    })
}

/// The csn seeds every seeded paper shape (`tests/paper_shapes.rs`) runs
/// over, fixed in advance: the standard corpus's seed and 1 to 7.
pub const SHAPE_SEEDS: [u64; 8] = [42, 1, 2, 3, 4, 5, 6, 7];

/// The corpus of the seeded shapes: 8 families × 5 variants (40 PEs),
/// small enough that a shape runs in seconds in a debug build.
pub fn shape_corpus(seed: u64) -> Dataset {
    Dataset::generate(DatasetConfig {
        families: 8,
        variants_per_family: 5,
        seed,
        ..DatasetConfig::default()
    })
}

/// The ground truth of `entry`'s query: the other PEs of its family.
pub fn relevant_set(dataset: &Dataset, entry: &PeEntry) -> HashSet<u64> {
    dataset.relevant_to(entry).into_iter().collect()
}

/// Ranking depth for the PR sweeps.
pub const MAX_K: usize = 30;

// ---------------------------------------------------------------------------
// Ranking through the served indexes
// ---------------------------------------------------------------------------

/// The indexes the server serves, holding every PE of `dataset` under its
/// corpus id with description embedding `desc(code)` and SPT vector
/// `spt(code)`; its ReACC embedding is the one the server computes, and
/// `aroma` tunes its engine. Every retrieval experiment ranks through
/// these, so the reproduced numbers are the served rankings'.
fn served_indexes(
    dataset: &Dataset,
    aroma: AromaConfig,
    desc: impl Fn(&str) -> DenseVec,
    spt: impl Fn(&str) -> FeatureVec,
) -> SearchIndexes {
    let indexes = SearchIndexes::with_aroma(aroma);
    indexes.bulk_upsert(
        dataset
            .entries
            .iter()
            .map(|e| IndexRow::pe(e.id, &e.name, &e.code, desc(&e.code), spt(&e.code)))
            .collect(),
    );
    indexes
}

/// One retrieval experiment's queries, one per corpus entry in corpus
/// order: the ids each ranked, best first, and the ids that count as hits.
pub struct Rankings {
    pub queries: Vec<(Vec<u64>, HashSet<u64>)>,
}

impl Rankings {
    /// The precision-recall curve at depths 1 to [`MAX_K`].
    pub fn curve(&self) -> Vec<PrPoint> {
        pr_curve(&self.queries, MAX_K)
    }

    /// The best F1 along [`curve`](Self::curve).
    pub fn best_f1(&self) -> f64 {
        csn::best_f1(&self.curve()).0
    }
}

/// Score `rank` leave-one-out over every PE of `dataset`: `rank(entry, k)`
/// answers the entry's query with the ids of its best `k` hits, best
/// first. It is asked for one hit more than [`MAX_K`], the query's own id
/// is dropped from its ranking, and its relevant set is
/// [`relevant_set`]: a query cut from a stored PE never scores by finding
/// that PE, which its unique class name alone would.
fn leave_one_out(dataset: &Dataset, mut rank: impl FnMut(&PeEntry, usize) -> Vec<u64>) -> Rankings {
    let queries = dataset
        .entries
        .iter()
        .map(|e| {
            let mut ranked = rank(e, MAX_K + 1);
            ranked.retain(|&id| id != e.id);
            ranked.truncate(MAX_K);
            (ranked, relevant_set(dataset, e))
        })
        .collect();
    Rankings { queries }
}

fn ids(hits: Vec<IndexHit>) -> Vec<u64> {
    hits.into_iter().map(|h| h.id).collect()
}

/// The SPT feature vector the server indexes `code` under.
fn spt_vec(code: &str) -> FeatureVec {
    Spt::parse_source(code).feature_vec()
}

/// [`served_indexes`] with the default engine, for the structural and
/// ReACC rankings: every PE under SPT vector `spt(code)`.
fn code_indexes(dataset: &Dataset, spt: impl Fn(&str) -> FeatureVec) -> SearchIndexes {
    served_indexes(dataset, AromaConfig::default(), |_| DenseVec::zero(), spt)
}

// ---------------------------------------------------------------------------
// E2 — Fig. 11: text-to-code search
// ---------------------------------------------------------------------------

/// Run the Fig. 11 protocol: for every PE, generate a description with
/// CodeT5 (context per `ctx`), embed it with UniXcoder, store; then query
/// with the entry's ground-truth description paraphrase and rank by cosine
/// ([`SearchIndexes::rank_semantic`]). Returns the averaged PR curve.
pub fn text_to_code_eval(dataset: &Dataset, ctx: DescriptionContext) -> Vec<PrPoint> {
    let gen = CodeT5Sim::new(ctx);
    let embedder = UniXcoderSim::new();
    // Stored side: auto-generated description embeddings (§V-B).
    let indexes = served_indexes(
        dataset,
        AromaConfig::default(),
        |code| embedder.embed_text(&gen.describe_pe(code)),
        |_| FeatureVec::default(),
    );
    // Query side: the CodeSearchNet-style natural-language descriptions.
    // A query paraphrases its family's description and is not the stored
    // text, so its own PE stays in the index and counts as a hit.
    let queries: Vec<(Vec<u64>, HashSet<u64>)> = dataset
        .entries
        .iter()
        .map(|e| {
            let qvec = embedder.embed_text(&e.description);
            let mut relevant = relevant_set(dataset, e);
            relevant.insert(e.id);
            (ids(indexes.rank_semantic(&qvec, None, MAX_K)), relevant)
        })
        .collect();
    pr_curve(&queries, MAX_K)
}

// ---------------------------------------------------------------------------
// E3/E4 — Fig. 12/13: code-to-code search under omission
// ---------------------------------------------------------------------------

/// Which code-to-code retriever to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeRetriever {
    /// Aroma SPT structural features (Fig. 12): [`SearchIndexes::rank_spt`].
    Aroma,
    /// ReACC-py-retriever substitute (Fig. 13): [`SearchIndexes::rank_reacc`].
    Reacc,
}

/// Run the Fig. 12/13 protocol: index every PE's full code; query with each
/// PE's code truncated by `omission` (0.0 / 0.5 / 0.75 / 0.9); scored
/// leave-one-out.
pub fn code_to_code_eval(dataset: &Dataset, retriever: CodeRetriever, omission: f64) -> Rankings {
    let indexes = code_indexes(dataset, spt_vec);
    let reacc = ReaccSim::new();
    leave_one_out(dataset, |e, k| {
        let partial = pyparse::drop_suffix_fraction(&e.code, omission);
        ids(match retriever {
            CodeRetriever::Aroma => indexes.rank_spt(&spt_vec(&partial), None, k),
            CodeRetriever::Reacc => indexes.rank_reacc(&reacc.embed_code(&partial), None, k),
        })
    })
}

/// The omission levels of §VII-D.
pub const OMISSION_LEVELS: &[f64] = &[0.0, 0.5, 0.75, 0.9];

// ---------------------------------------------------------------------------
// E12 — simplified vs full Aroma
// ---------------------------------------------------------------------------

/// E12: the full Aroma pipeline on the Fig. 12 protocol, ranked by the
/// served engine's own stages 2–3 ([`aroma::AromaEngine::pruned_candidates`]):
/// retrieve the top 50 PEs by overlap, prune and rerank each against the
/// granulated query, and keep all 50 in rerank order. Scored
/// leave-one-out.
pub fn full_aroma_eval(dataset: &Dataset, omission: f64) -> Rankings {
    let aroma = AromaConfig {
        rerank_keep: 50,
        ..AromaConfig::default()
    };
    let engine = served_indexes(dataset, aroma, |_| DenseVec::zero(), spt_vec).engine();
    leave_one_out(dataset, |e, _| {
        let tree = pyparse::parse(&pyparse::drop_suffix_fraction(&e.code, omission));
        let qvec = Spt::from_parse_tree(&tree).feature_vec();
        let (pruned, _) = engine.pruned_candidates(&tree, &qvec, &mut RecoStats::default());
        pruned.into_iter().map(|p| p.id).collect()
    })
}

// ---------------------------------------------------------------------------
// E15 — Aroma's feature families
// ---------------------------------------------------------------------------

/// Which of Aroma's four feature families (§II-E) a feature vector keeps,
/// one bit per family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureFamilies(u8);

impl FeatureFamilies {
    pub const TOKEN: FeatureFamilies = FeatureFamilies(1);
    pub const PARENT: FeatureFamilies = FeatureFamilies(2);
    pub const SIBLING: FeatureFamilies = FeatureFamilies(4);
    pub const VAR_USAGE: FeatureFamilies = FeatureFamilies(8);
    /// All four families: the vector the server indexes.
    pub const ALL: FeatureFamilies = FeatureFamilies(15);

    /// These families less those of `other`.
    pub const fn without(self, other: FeatureFamilies) -> FeatureFamilies {
        FeatureFamilies(self.0 & !other.0)
    }

    fn keeps(&self, f: &Feature) -> bool {
        let family = match f {
            Feature::Token(_) => Self::TOKEN,
            Feature::Parent(..) => Self::PARENT,
            Feature::Sibling(..) => Self::SIBLING,
            Feature::VarUsage(..) => Self::VAR_USAGE,
        };
        self.0 & family.0 != 0
    }

    /// The feature vector of `code` over the kept families.
    pub fn feature_vec(&self, code: &str) -> FeatureVec {
        let feats: Vec<Feature> = extract_features(&Spt::parse_source(code))
            .into_iter()
            .filter(|f| self.keeps(f))
            .collect();
        FeatureVec::from_features(&feats)
    }
}

/// E15: the Fig. 12 protocol at `omission` over the feature families in
/// `families` only: [`SearchIndexes::rank_spt`] over an index of each PE's
/// vector of those families, scored leave-one-out.
pub fn feature_families_eval(
    dataset: &Dataset,
    families: FeatureFamilies,
    omission: f64,
) -> Rankings {
    let indexes = code_indexes(dataset, |code| families.feature_vec(code));
    leave_one_out(dataset, |e, k| {
        let partial = pyparse::drop_suffix_fraction(&e.code, omission);
        ids(indexes.rank_spt(&families.feature_vec(&partial), None, k))
    })
}

// ---------------------------------------------------------------------------
// E1 — Fig. 10: description quality
// ---------------------------------------------------------------------------

/// Keyword recall of a generated description against the family's
/// vocabulary: the fraction of content words of the ground-truth
/// description that the generated one mentions.
pub fn description_keyword_recall(generated: &str, ground_truth: &str) -> f64 {
    let gen_tokens: HashSet<String> = embed::text_tokens(generated).into_iter().collect();
    let truth_tokens: Vec<String> = embed::text_tokens(ground_truth);
    if truth_tokens.is_empty() {
        return 0.0;
    }
    let hits = truth_tokens
        .iter()
        .filter(|t| {
            gen_tokens.contains(*t)
                || gen_tokens
                    .iter()
                    .any(|g| g.starts_with(t.as_str()) || t.starts_with(g.as_str()))
        })
        .count();
    hits as f64 / truth_tokens.len() as f64
}

/// Mean keyword recall over the corpus for one description context.
pub fn description_quality(dataset: &Dataset, ctx: DescriptionContext) -> f64 {
    let gen = CodeT5Sim::new(ctx);
    let total: f64 = dataset
        .entries
        .iter()
        .map(|e| description_keyword_recall(&gen.describe_pe(&e.code), &e.description))
        .sum();
    total / dataset.len() as f64
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

/// Render a PR curve as an aligned text table with its best F1.
pub fn render_curve(title: &str, curve: &[PrPoint]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    let _ = writeln!(
        s,
        "{:>4}  {:>9}  {:>9}  {:>9}",
        "k", "precision", "recall", "f1"
    );
    for p in curve {
        let _ = writeln!(
            s,
            "{:>4}  {:>9.4}  {:>9.4}  {:>9.4}",
            p.k,
            p.precision,
            p.recall,
            p.f1()
        );
    }
    let (f1, k) = csn::best_f1(curve);
    let _ = writeln!(s, "best F1 = {f1:.4} at k = {k}");
    s
}

/// An in-process deployment with two pre-warmed containers, and the
/// token of a `bench` user who owns a registered `workflow` row. The
/// row's code is empty: what runs is the engine library's builder of the
/// same name.
fn deploy_for(workflow: &str, description: &str) -> (Laminar, u64) {
    let laminar = Laminar::deploy(LaminarConfig {
        pool: PoolConfig {
            prewarmed: 2,
            ..PoolConfig::default()
        },
        ..LaminarConfig::default()
    });
    let server = laminar.server();
    let token = match server
        .handle(Request::RegisterUser {
            username: "bench".into(),
            password: "pw".into(),
        })
        .value()
    {
        Response::Token(t) => t,
        other => panic!("{other:?}"),
    };
    server
        .handle(Request::RegisterWorkflow {
            token,
            name: workflow.into(),
            code: String::new(),
            description: Some(description.into()),
            pes: vec![],
        })
        .value();
    (laminar, token)
}

// ---------------------------------------------------------------------------
// E8 — §IV-E: true streaming
// ---------------------------------------------------------------------------

/// What one item of E8's `slow_wf` costs before its line is logged.
pub const STREAM_ITEM_COST: Duration = Duration::from_millis(3);

/// E8 (§IV-E): an in-process deployment serving `slow_wf`, whose every
/// item costs [`STREAM_ITEM_COST`], to one logged-in user.
pub struct SlowRuns {
    laminar: Laminar,
    token: u64,
}

impl SlowRuns {
    pub fn deploy() -> SlowRuns {
        let (laminar, token) = deploy_for("slow_wf", "slow emitting workflow");
        laminar.server().engine().library().register("slow_wf", || {
            use d4py::prelude::*;
            let mut g = WorkflowGraph::new("slow_wf");
            let src = g.add(ProducerPE::new("Src", |i| Some(Data::from(i as i64))));
            let slow = g.add(IterativePE::new("Slow", |d: Data| {
                std::thread::sleep(STREAM_ITEM_COST);
                Some(d)
            }));
            let sink = g.add(ConsumerPE::new("Out", |d: Data, ctx: &mut Context<'_>| {
                ctx.log(format!("item {d}"));
            }));
            g.connect(src, OUTPUT, slow, INPUT).unwrap();
            g.connect(slow, OUTPUT, sink, INPUT).unwrap();
            g
        });
        SlowRuns { laminar, token }
    }

    /// Run `items` items and time, from the request, its first output
    /// line (TTFO) and its terminal frame. `streaming` is the `Run`
    /// request's flag and the only switch: `false` is the engine's batch
    /// mode, Laminar 1.0's one HTTP/1.1 response after the whole run, and
    /// `true` sends each line as it is produced, as 2.0 does over HTTP/2.
    pub fn time_run(&self, items: u64, streaming: bool) -> (Duration, Duration) {
        let t0 = Instant::now();
        let reply = self.laminar.server().handle(Request::Run {
            token: self.token,
            ident: Ident::Name("slow_wf".into()),
            input: RunInputWire::Iterations(items),
            mode: RunMode::Sequential,
            streaming,
            verbose: false,
            resources: vec![],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        });
        let Reply::Stream(frames) = reply else {
            panic!("slow_wf answered {reply:?}");
        };
        let mut ttfo = None;
        for frame in frames {
            match frame {
                WireFrame::Line(_) => {
                    ttfo.get_or_insert_with(|| t0.elapsed());
                }
                WireFrame::End { ok: true, .. } => {
                    let total = t0.elapsed();
                    return (ttfo.unwrap_or(total), total);
                }
                WireFrame::End { .. } | WireFrame::Value(_) => panic!("slow_wf failed: {frame:?}"),
                _ => {}
            }
        }
        panic!("slow_wf's stream ended before its terminal frame")
    }
}

// ---------------------------------------------------------------------------
// E10 — §II-A: sequential vs multiprocessing vs dynamic enactment
// ---------------------------------------------------------------------------

/// Items per E10 run.
pub const MAPPING_ITEMS: u64 = 96;

/// Ranks of the multi mapping and workers of the dynamic one in E10.
pub const MAPPING_PROCESSES: usize = 6;

/// E10's three mappings, in order: sequential, multi with
/// [`MAPPING_PROCESSES`] static ranks, and dynamic with as many workers
/// and no autoscaling.
pub fn mappings() -> [Mapping; 3] {
    [
        Mapping::Simple,
        Mapping::Multi {
            processes: MAPPING_PROCESSES,
        },
        Mapping::Dynamic(DynamicConfig {
            initial_workers: MAPPING_PROCESSES,
            max_workers: MAPPING_PROCESSES,
            autoscale: false,
            scale_threshold: 4,
        }),
    ]
}

/// E10's latency-bound workload: every item waits 2 ms (an I/O-ish PE),
/// and with `skewed` every seventh waits eight times as long.
pub fn latency_workload(skewed: bool) -> WorkflowGraph {
    d4py::workflows::latency_bound_graph(2_000, skewed)
}

/// The wall time of one run of `graph` over [`MAPPING_ITEMS`] items under
/// `mapping`.
pub fn time_mapping(graph: &WorkflowGraph, mapping: &Mapping) -> Duration {
    let t0 = Instant::now();
    let r = d4py::mapping::run(graph, RunInput::Iterations(MAPPING_ITEMS), mapping).expect("run");
    assert_eq!(r.lines().len(), MAPPING_ITEMS as usize);
    t0.elapsed()
}

// ---------------------------------------------------------------------------
// E9 — §IV-F: resource caching
// ---------------------------------------------------------------------------

/// Size of each resource an E9 run needs.
pub const RESOURCE_SIZE: usize = 256 * 1024;

/// How many resources an E9 run needs.
pub const N_RESOURCES: usize = 3;

/// E9's resources: `input_{i}.bin`, [`RESOURCE_SIZE`] bytes of `i + 1`.
fn resources() -> Vec<(String, Vec<u8>)> {
    (0..N_RESOURCES)
        .map(|i| (format!("input_{i}.bin"), vec![i as u8 + 1; RESOURCE_SIZE]))
        .collect()
}

/// E9 (§IV-F): the bytes a fresh server receives over `runs` runs of
/// `doubler_wf` that each need [`N_RESOURCES`] resources, as
/// `(inline, cached)`. Laminar 1.0 resent every resource inline on every
/// run, so its column is computed: `runs × N_RESOURCES × RESOURCE_SIZE`.
/// Laminar 2.0's is served: the run sends content hashes and uploads only
/// the files the server's cache misses.
pub fn resource_bytes(runs: usize) -> (u64, u64) {
    let inline = (runs * N_RESOURCES * RESOURCE_SIZE) as u64;
    (inline, cached_resource_bytes(runs))
}

fn cached_resource_bytes(runs: usize) -> u64 {
    let (laminar, token) = deploy_for("doubler_wf", "doubles");
    let server = laminar.server();
    let refs: Vec<ResourceRefWire> = resources()
        .iter()
        .map(|(n, b)| ResourceRefWire {
            name: n.clone(),
            content_hash: content_hash(b),
        })
        .collect();
    let run = |srv: &LaminarServer| {
        srv.handle(Request::Run {
            token,
            ident: Ident::Name("doubler_wf".into()),
            input: RunInputWire::Iterations(2),
            mode: RunMode::Sequential,
            streaming: true,
            verbose: false,
            resources: refs.clone(),
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        })
    };
    for _ in 0..runs {
        match run(&server) {
            Reply::Value(Response::NeedResources(missing)) => {
                for name in missing {
                    let bytes = resources().into_iter().find(|(n, _)| *n == name).unwrap().1;
                    server
                        .handle(Request::UploadResource { token, name, bytes })
                        .value();
                }
                assert!(run(&server).drain().unwrap().ok);
            }
            reply => assert!(reply.drain().unwrap().ok),
        }
    }
    server.resources().stats().bytes_received
}

#[cfg(test)]
mod tests {
    use super::*;
    use csn::best_f1;

    fn tiny() -> Dataset {
        shape_corpus(42)
    }

    #[test]
    fn fig11_shape_realistic_f1() {
        let curve = text_to_code_eval(&tiny(), DescriptionContext::FullClass);
        let (f1, _) = best_f1(&curve);
        // The paper reports 0.61; the synthetic corpus should land in a
        // plausible band — well above chance, well below perfect.
        assert!(f1 > 0.35, "text-to-code F1 too low: {f1}");
        assert!(f1 < 0.98, "text-to-code F1 suspiciously perfect: {f1}");
    }

    #[test]
    fn fig12_aroma_degrades_gracefully() {
        let d = tiny();
        let full = code_to_code_eval(&d, CodeRetriever::Aroma, 0.0).best_f1();
        let ninety = code_to_code_eval(&d, CodeRetriever::Aroma, 0.9).best_f1();
        assert!(full > ninety, "full {full} vs 90% dropped {ninety}");
        assert!(
            ninety > 0.1,
            "Aroma must still work at 90% omission: {ninety}"
        );
    }

    /// Every experiment scored leave-one-out (E3, E4, E12, E15) drops
    /// each query's own PE from its ranking and from its relevant set,
    /// whatever the omission.
    #[test]
    fn leave_one_out_rankings_never_hold_the_query() {
        let d = tiny();
        let check = |what: &str, r: Rankings| {
            assert_eq!(r.queries.len(), d.len(), "{what}");
            for (e, (ranked, relevant)) in d.entries.iter().zip(&r.queries) {
                assert!(
                    !ranked.contains(&e.id),
                    "{what}: query {} ranks itself",
                    e.id
                );
                assert!(
                    !relevant.contains(&e.id),
                    "{what}: query {} is its own hit",
                    e.id
                );
                assert!(ranked.len() <= MAX_K, "{what}: {} hits", ranked.len());
            }
        };
        for &omission in OMISSION_LEVELS {
            check("E3", code_to_code_eval(&d, CodeRetriever::Aroma, omission));
            check("E4", code_to_code_eval(&d, CodeRetriever::Reacc, omission));
            check("E12", full_aroma_eval(&d, omission));
            check(
                "E15",
                feature_families_eval(&d, FeatureFamilies::VAR_USAGE, omission),
            );
        }
    }

    #[test]
    fn fig10_full_class_beats_process_only() {
        let d = tiny();
        let full = description_quality(&d, DescriptionContext::FullClass);
        let proc = description_quality(&d, DescriptionContext::ProcessMethodOnly);
        assert!(
            full > proc,
            "full-class recall {full} must beat process-only {proc}"
        );
    }

    #[test]
    fn keyword_recall_metric() {
        assert!(
            description_keyword_recall("sums the numbers of a list", "sum all numbers in a list")
                > 0.6
        );
        assert_eq!(description_keyword_recall("", "anything here"), 0.0);
        assert_eq!(description_keyword_recall("words", ""), 0.0);
    }

    #[test]
    fn render_curve_is_table_shaped() {
        let curve = vec![PrPoint {
            k: 1,
            precision: 1.0,
            recall: 0.2,
        }];
        let s = render_curve("test", &curve);
        assert!(s.contains("# test"));
        assert!(s.contains("best F1"));
        assert!(s.contains("1.0000"));
    }
}
