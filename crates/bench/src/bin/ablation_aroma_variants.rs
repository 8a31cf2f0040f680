//! E12 — ablation: Laminar 2.0's simplified cosine/overlap-over-SPT search
//! (paper §VI-A: "without the need for complex clustering or reranking
//! steps") vs the full Aroma pipeline with prune-and-rerank, at each
//! omission level.
//!
//! This quantifies what the simplification gives up (or doesn't) — the
//! design choice the paper asserts but does not measure.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin ablation_aroma_variants
//! ```

use aroma::prune::{granulated_vec, prune_and_rerank};
use csn::{best_f1, pr_curve};
use laminar_bench::{code_to_code_eval, standard_corpus, CodeRetriever, MAX_K, OMISSION_LEVELS};
use spt::{FeatureVec, Spt};
use std::collections::HashSet;
use std::time::Instant;

fn main() {
    let corpus = standard_corpus();
    eprintln!("corpus: {} PEs", corpus.len());

    println!("# Ablation — simplified (Laminar 2.0) vs full Aroma (retrieve→prune→rerank)\n");
    println!(
        "{:>10}  {:>16}  {:>16}  {:>14}  {:>14}",
        "omission", "simplified F1", "full-aroma F1", "simplified ms", "full ms"
    );

    for &omission in OMISSION_LEVELS {
        // Simplified: straight overlap ranking (what the server ships).
        let t0 = Instant::now();
        let simple_curve = code_to_code_eval(&corpus, CodeRetriever::Aroma, omission);
        let t_simple = t0.elapsed();
        let simple_f1 = best_f1(&simple_curve).0;

        // Full pipeline: retrieve top-50 by overlap, prune & rerank each
        // candidate against the granulated query, rank by rerank score.
        let stored: Vec<FeatureVec> = corpus
            .entries
            .iter()
            .map(|e| Spt::parse_source(&e.code).feature_vec())
            .collect();
        let t1 = Instant::now();
        let queries: Vec<(Vec<u64>, HashSet<u64>)> = corpus
            .entries
            .iter()
            .map(|e| {
                let partial = pyparse::drop_suffix_fraction(&e.code, omission);
                let qvec = Spt::parse_source(&partial).feature_vec();
                // Stage 1: light-weight retrieval.
                let mut scored: Vec<(u64, f32)> = stored
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (i as u64, qvec.overlap(v)))
                    .collect();
                scored.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
                });
                let top: Vec<u64> = scored.iter().take(50).map(|(id, _)| *id).collect();
                // Stage 2: prune & rerank in granule space.
                let gq = granulated_vec(&partial);
                let mut reranked: Vec<(u64, f32)> = top
                    .iter()
                    .map(|&id| {
                        let pruned =
                            prune_and_rerank(id, &corpus.entries[id as usize].code, &gq);
                        (id, pruned.rerank_score)
                    })
                    .collect();
                reranked.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0))
                });
                let ranked: Vec<u64> = reranked.into_iter().map(|(id, _)| id).collect();
                let mut relevant: HashSet<u64> = corpus.relevant_to(e).into_iter().collect();
                relevant.insert(e.id);
                (ranked, relevant)
            })
            .collect();
        let t_full = t1.elapsed();
        let full_f1 = best_f1(&pr_curve(&queries, MAX_K)).0;

        println!(
            "{:>9.0}%  {:>16.4}  {:>16.4}  {:>14.1}  {:>14.1}",
            omission * 100.0,
            simple_f1,
            full_f1,
            t_simple.as_secs_f64() * 1e3,
            t_full.as_secs_f64() * 1e3
        );
    }
    println!("\nshape check: the simplified variant should stay near the full pipeline's F1 at a fraction of its cost — the §VI-A design claim.");
}
