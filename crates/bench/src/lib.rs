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
//! | `ablation_aroma_variants` | simplified-vs-full Aroma | E12 |
//! | `ablation_description_context` | Fig. 10 → Fig. 11 coupling | E13 |
//! | `ablation_lsh` | §IX future work: LSH for structural code | E14 |
//! | `ablation_spt_features` | Aroma feature-family ablation | E15 |

use csn::{pr_curve, Dataset, DatasetConfig, PrPoint};
use embed::{CodeT5Sim, DescriptionContext, ReaccSim, UniXcoderSim};
use spt::{FeatureVec, Spt};
use std::collections::HashSet;

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
            let ranked = rank_dense(&qvec, &stored);
            let mut relevant: HashSet<u64> = dataset.relevant_to(e).into_iter().collect();
            relevant.insert(e.id);
            (ranked, relevant)
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
    scored.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    scored.into_iter().map(|(id, _)| id).collect()
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
                    let mut scored: Vec<(u64, f32)> = stored
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (i as u64, qvec.overlap(v)))
                        .collect();
                    scored.sort_unstable_by(|a, b| {
                        b.1.partial_cmp(&a.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.0.cmp(&b.0))
                    });
                    let ranked = scored.into_iter().map(|(id, _)| id).collect();
                    let mut relevant: HashSet<u64> = dataset.relevant_to(e).into_iter().collect();
                    relevant.insert(e.id);
                    (ranked, relevant)
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
                    let ranked = rank_dense(&qvec, &stored);
                    let mut relevant: HashSet<u64> = dataset.relevant_to(e).into_iter().collect();
                    relevant.insert(e.id);
                    (ranked, relevant)
                })
                .collect();
            pr_curve(&queries, MAX_K)
        }
    }
}

/// The omission levels of §VII-D.
pub const OMISSION_LEVELS: &[f64] = &[0.0, 0.5, 0.75, 0.9];

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

#[cfg(test)]
mod tests {
    use super::*;
    use csn::best_f1;

    fn tiny() -> Dataset {
        Dataset::generate(DatasetConfig {
            families: 8,
            variants_per_family: 5,
            seed: 42,
            ..DatasetConfig::default()
        })
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
    fn fig12_13_aroma_beats_reacc_under_omission() {
        let d = tiny();
        for &omission in &[0.5, 0.75] {
            let aroma = best_f1(&code_to_code_eval(&d, CodeRetriever::Aroma, omission)).0;
            let reacc = best_f1(&code_to_code_eval(&d, CodeRetriever::Reacc, omission)).0;
            assert!(
                aroma > reacc,
                "omission {omission}: aroma {aroma} must beat reacc {reacc}"
            );
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
