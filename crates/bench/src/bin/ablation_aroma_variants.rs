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

use laminar_bench::{
    code_to_code_eval, full_aroma_eval, standard_corpus, CodeRetriever, OMISSION_LEVELS,
};
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
        let simple_f1 = code_to_code_eval(&corpus, CodeRetriever::Aroma, omission).best_f1();
        let t_simple = t0.elapsed();

        // Full pipeline: retrieve top-50 by overlap, prune & rerank each
        // candidate against the granulated query, rank by rerank score.
        let t1 = Instant::now();
        let full_f1 = full_aroma_eval(&corpus, omission).best_f1();
        let t_full = t1.elapsed();

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
