//! E14 — the paper's future work (§IX: "LSH for structural code"), built
//! and measured: MinHash-LSH candidate generation vs exhaustive SPT
//! overlap search, at growing registry sizes.
//!
//! Reports retrieval quality (best F1 on the Fig. 12 protocol at 50 %
//! omission), the fraction of the registry each query actually rescored,
//! and per-query latency.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin ablation_lsh
//! ```

use aroma::{LshConfig, LshIndex};
use csn::{best_f1, pr_curve, Dataset, DatasetConfig};
use laminar_bench::MAX_K;
use spt::{FeatureVec, Spt};
use std::collections::HashSet;
use std::time::Instant;

const OMISSION: f64 = 0.5;

fn main() {
    println!("# LSH (future work, §IX) vs exhaustive structural search — 50% omitted queries\n");
    println!(
        "{:>8}  {:>12}  {:>8}  {:>12}  {:>8}  {:>10}",
        "corpus", "exhaustive", "lsh F1", "candidates", "exh µs", "lsh µs"
    );

    for &variants in &[5usize, 10, 20] {
        let corpus = Dataset::generate(DatasetConfig {
            variants_per_family: variants,
            seed: 42,
            ..DatasetConfig::default()
        });
        let vecs: Vec<FeatureVec> = corpus
            .entries
            .iter()
            .map(|e| Spt::parse_source(&e.code).feature_vec())
            .collect();
        let queries: Vec<FeatureVec> = corpus
            .entries
            .iter()
            .map(|e| {
                Spt::parse_source(&pyparse::drop_suffix_fraction(&e.code, OMISSION)).feature_vec()
            })
            .collect();

        // Exhaustive.
        let t0 = Instant::now();
        let exhaustive: Vec<(Vec<u64>, HashSet<u64>)> = corpus
            .entries
            .iter()
            .zip(&queries)
            .map(|(e, q)| {
                let mut scored: Vec<(u64, f32)> = vecs
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (i as u64, q.overlap(v)))
                    .collect();
                scored.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                let ranked = scored.into_iter().map(|(id, _)| id).collect();
                let mut rel: HashSet<u64> = corpus.relevant_to(e).into_iter().collect();
                rel.insert(e.id);
                (ranked, rel)
            })
            .collect();
        let exh_us = t0.elapsed().as_micros() as f64 / corpus.len() as f64;
        let exh_f1 = best_f1(&pr_curve(&exhaustive, MAX_K)).0;

        // LSH.
        let mut lsh = LshIndex::new(LshConfig { bands: 16, rows: 2 });
        for (i, v) in vecs.iter().enumerate() {
            lsh.add(i as u64, v.clone());
        }
        let t1 = Instant::now();
        let mut candidate_frac = 0.0;
        let lsh_queries: Vec<(Vec<u64>, HashSet<u64>)> = corpus
            .entries
            .iter()
            .zip(&queries)
            .map(|(e, q)| {
                let (hits, stats) = lsh.search(q, MAX_K, 0.0);
                candidate_frac += stats.candidates as f64 / stats.indexed.max(1) as f64;
                let ranked = hits.into_iter().map(|h| h.id).collect();
                let mut rel: HashSet<u64> = corpus.relevant_to(e).into_iter().collect();
                rel.insert(e.id);
                (ranked, rel)
            })
            .collect();
        let lsh_us = t1.elapsed().as_micros() as f64 / corpus.len() as f64;
        candidate_frac /= corpus.len() as f64;
        let lsh_f1 = best_f1(&pr_curve(&lsh_queries, MAX_K)).0;

        println!(
            "{:>8}  {:>12.4}  {:>8.4}  {:>11.1}%  {:>8.0}  {:>10.0}",
            corpus.len(),
            exh_f1,
            lsh_f1,
            candidate_frac * 100.0,
            exh_us,
            lsh_us
        );
    }
    println!("\nshape check: LSH holds most of the exhaustive F1 while rescoring a shrinking fraction of the registry — the Senatus direction the paper names as future work.");
}
