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
//! | `ablation_aroma_variants` | simplified-vs-full Aroma | E12 |
//! | `ablation_description_context` | Fig. 10 → Fig. 11 coupling | E13 |
//! | `ablation_lsh` | §IX future work: LSH for structural code | E14 |
//! | `ablation_spt_features` | Aroma feature-family ablation | E15 |

use aroma::prune::{granulated_vec, prune_and_rerank};
use csn::{pr_curve, Dataset, DatasetConfig, PeEntry, PrPoint};
use embed::{CodeT5Sim, DescriptionContext, ReaccSim, UniXcoderSim};
use laminar_core::{Laminar, LaminarConfig, PoolConfig};
use laminar_server::protocol::{
    content_hash, FaultPolicyWire, Ident, ResourceRefWire, RunInputWire, RunMode,
};
use laminar_server::{LaminarServer, Reply, Request, Response, WireFrame};
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

/// The ground truth of `entry`'s query: its family, itself included.
pub fn relevant_set(dataset: &Dataset, entry: &PeEntry) -> HashSet<u64> {
    let mut relevant: HashSet<u64> = dataset.relevant_to(entry).into_iter().collect();
    relevant.insert(entry.id);
    relevant
}

/// Ranking depth for the PR sweeps.
pub const MAX_K: usize = 30;

// ---------------------------------------------------------------------------
// E2 — Fig. 11: text-to-code search
// ---------------------------------------------------------------------------

/// Run the Fig. 11 protocol: for every PE, generate a description with
/// CodeT5 (context per `ctx`), embed it with UniXcoder, store; then query
/// with the entry's ground-truth description paraphrase and rank by cosine.
/// Returns the averaged PR curve.
pub fn text_to_code_eval(dataset: &Dataset, ctx: DescriptionContext) -> Vec<PrPoint> {
    let gen = CodeT5Sim::new(ctx);
    let embedder = UniXcoderSim::new();

    // Stored side: auto-generated description embeddings (§V-B).
    let stored: Vec<embed::DenseVec> = dataset
        .entries
        .iter()
        .map(|e| embedder.embed_text(&gen.describe_pe(&e.code)))
        .collect();

    // Query side: the CodeSearchNet-style natural-language descriptions.
    let queries: Vec<(Vec<u64>, HashSet<u64>)> = dataset
        .entries
        .iter()
        .map(|e| {
            let qvec = embedder.embed_text(&e.description);
            (rank_dense(&qvec, &stored), relevant_set(dataset, e))
        })
        .collect();

    pr_curve(&queries, MAX_K)
}

fn rank_dense(query: &embed::DenseVec, stored: &[embed::DenseVec]) -> Vec<u64> {
    let mut scored: Vec<(u64, f32)> = stored
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u64, query.cosine(v)))
        .collect();
    sort_best_first(&mut scored);
    scored.into_iter().map(|(id, _)| id).collect()
}

/// Ids of `stored` ranked by SPT overlap with `query`, best first, equal
/// scores by id.
pub fn rank_by_overlap(query: &FeatureVec, stored: &[FeatureVec]) -> Vec<u64> {
    let mut scored: Vec<(u64, f32)> = stored
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u64, query.overlap(v)))
        .collect();
    sort_best_first(&mut scored);
    scored.into_iter().map(|(id, _)| id).collect()
}

fn sort_best_first(scored: &mut [(u64, f32)]) {
    scored.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
}

// ---------------------------------------------------------------------------
// E3/E4 — Fig. 12/13: code-to-code search under omission
// ---------------------------------------------------------------------------

/// Which code-to-code retriever to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeRetriever {
    /// Aroma SPT structural features (Fig. 12).
    Aroma,
    /// ReACC-py-retriever substitute (Fig. 13).
    Reacc,
}

/// Run the Fig. 12/13 protocol: index every PE's full code; query with each
/// PE's code truncated by `omission` (0.0 / 0.5 / 0.75 / 0.9); rank and
/// sweep precision/recall.
pub fn code_to_code_eval(
    dataset: &Dataset,
    retriever: CodeRetriever,
    omission: f64,
) -> Vec<PrPoint> {
    match retriever {
        CodeRetriever::Aroma => {
            let stored: Vec<FeatureVec> = dataset
                .entries
                .iter()
                .map(|e| Spt::parse_source(&e.code).feature_vec())
                .collect();
            let queries: Vec<(Vec<u64>, HashSet<u64>)> = dataset
                .entries
                .iter()
                .map(|e| {
                    let partial = pyparse::drop_suffix_fraction(&e.code, omission);
                    let qvec = Spt::parse_source(&partial).feature_vec();
                    (rank_by_overlap(&qvec, &stored), relevant_set(dataset, e))
                })
                .collect();
            pr_curve(&queries, MAX_K)
        }
        CodeRetriever::Reacc => {
            let model = ReaccSim::new();
            let stored: Vec<embed::DenseVec> = dataset
                .entries
                .iter()
                .map(|e| model.embed_code(&e.code))
                .collect();
            let queries: Vec<(Vec<u64>, HashSet<u64>)> = dataset
                .entries
                .iter()
                .map(|e| {
                    let partial = pyparse::drop_suffix_fraction(&e.code, omission);
                    let qvec = model.embed_code(&partial);
                    (rank_dense(&qvec, &stored), relevant_set(dataset, e))
                })
                .collect();
            pr_curve(&queries, MAX_K)
        }
    }
}

/// The omission levels of §VII-D.
pub const OMISSION_LEVELS: &[f64] = &[0.0, 0.5, 0.75, 0.9];

// ---------------------------------------------------------------------------
// E12 — simplified vs full Aroma
// ---------------------------------------------------------------------------

/// How many overlap-ranked candidates E12's full pipeline prunes and
/// reranks per query.
const FULL_AROMA_RETRIEVE: usize = 50;

/// E12: the full Aroma pipeline on the Fig. 12 protocol. Retrieve the top
/// 50 PEs by overlap, prune and rerank each against the granulated query,
/// and rank them by rerank score.
pub fn full_aroma_eval(dataset: &Dataset, omission: f64) -> Vec<PrPoint> {
    let stored: Vec<FeatureVec> = dataset
        .entries
        .iter()
        .map(|e| Spt::parse_source(&e.code).feature_vec())
        .collect();
    let queries: Vec<(Vec<u64>, HashSet<u64>)> = dataset
        .entries
        .iter()
        .map(|e| {
            let partial = pyparse::drop_suffix_fraction(&e.code, omission);
            let qvec = Spt::parse_source(&partial).feature_vec();
            let top = rank_by_overlap(&qvec, &stored);
            let gq = granulated_vec(&partial);
            let mut reranked: Vec<(u64, f32)> = top
                .into_iter()
                .take(FULL_AROMA_RETRIEVE)
                .map(|id| {
                    let pruned = prune_and_rerank(id, &dataset.entries[id as usize].code, &gq);
                    (id, pruned.rerank_score)
                })
                .collect();
            sort_best_first(&mut reranked);
            let ranked = reranked.into_iter().map(|(id, _)| id).collect();
            (ranked, relevant_set(dataset, e))
        })
        .collect();
    pr_curve(&queries, MAX_K)
}

// ---------------------------------------------------------------------------
// E15 — Aroma's feature families
// ---------------------------------------------------------------------------

/// Which of Aroma's four feature families (§II-E) a feature vector keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureFamilies {
    pub token: bool,
    pub parent: bool,
    pub sibling: bool,
    pub var_usage: bool,
}

impl FeatureFamilies {
    /// All four families: the vector the server indexes.
    pub const ALL: FeatureFamilies = FeatureFamilies {
        token: true,
        parent: true,
        sibling: true,
        var_usage: true,
    };
    const NONE: FeatureFamilies = FeatureFamilies {
        token: false,
        parent: false,
        sibling: false,
        var_usage: false,
    };
    pub const TOKEN: FeatureFamilies = FeatureFamilies {
        token: true,
        ..Self::NONE
    };
    pub const PARENT: FeatureFamilies = FeatureFamilies {
        parent: true,
        ..Self::NONE
    };
    pub const SIBLING: FeatureFamilies = FeatureFamilies {
        sibling: true,
        ..Self::NONE
    };
    pub const VAR_USAGE: FeatureFamilies = FeatureFamilies {
        var_usage: true,
        ..Self::NONE
    };

    /// These families less those of `other`.
    pub const fn without(self, other: FeatureFamilies) -> FeatureFamilies {
        FeatureFamilies {
            token: self.token && !other.token,
            parent: self.parent && !other.parent,
            sibling: self.sibling && !other.sibling,
            var_usage: self.var_usage && !other.var_usage,
        }
    }

    fn keeps(&self, f: &Feature) -> bool {
        match f {
            Feature::Token(_) => self.token,
            Feature::Parent(..) => self.parent,
            Feature::Sibling(..) => self.sibling,
            Feature::VarUsage(..) => self.var_usage,
        }
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

/// E15: best F1 of the Fig. 12 protocol at `omission`, ranking by overlap
/// over the feature families in `families` only.
pub fn feature_families_eval(dataset: &Dataset, families: FeatureFamilies, omission: f64) -> f64 {
    let stored: Vec<FeatureVec> = dataset
        .entries
        .iter()
        .map(|e| families.feature_vec(&e.code))
        .collect();
    let queries: Vec<(Vec<u64>, HashSet<u64>)> = dataset
        .entries
        .iter()
        .map(|e| {
            let partial = pyparse::drop_suffix_fraction(&e.code, omission);
            let q = families.feature_vec(&partial);
            (rank_by_overlap(&q, &stored), relevant_set(dataset, e))
        })
        .collect();
    csn::best_f1(&pr_curve(&queries, MAX_K)).0
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
/// `(inline, cached)`. Laminar 1.0 resends every resource inline on every
/// run; Laminar 2.0 sends content hashes and uploads only the files the
/// server's cache misses.
pub fn resource_bytes(runs: usize) -> (u64, u64) {
    (inline_resource_bytes(runs), cached_resource_bytes(runs))
}

fn inline_resource_bytes(runs: usize) -> u64 {
    let (laminar, token) = deploy_for("doubler_wf", "doubles");
    let server = laminar.server();
    for _ in 0..runs {
        let reply = server.handle(Request::RunWithInlineResources {
            token,
            ident: Ident::Name("doubler_wf".into()),
            input: RunInputWire::Iterations(2),
            mode: RunMode::Sequential,
            resources: resources(),
        });
        assert!(reply.drain().unwrap().ok);
    }
    server.resources().stats().bytes_received
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
        // Recall must be monotone in k.
        for w in curve.windows(2) {
            assert!(w[1].recall >= w[0].recall - 1e-9);
        }
    }

    #[test]
    fn fig12_aroma_degrades_gracefully() {
        let d = tiny();
        let full = best_f1(&code_to_code_eval(&d, CodeRetriever::Aroma, 0.0)).0;
        let ninety = best_f1(&code_to_code_eval(&d, CodeRetriever::Aroma, 0.9)).0;
        assert!(full > ninety, "full {full} vs 90% dropped {ninety}");
        assert!(
            ninety > 0.1,
            "Aroma must still work at 90% omission: {ninety}"
        );
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
