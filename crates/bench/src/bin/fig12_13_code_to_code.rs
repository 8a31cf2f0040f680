//! E3/E4 — regenerate **Fig. 12** (Aroma) and **Fig. 13** (ReACC-py):
//! precision-recall for code-to-code search at 0 / 50 / 75 / 90 % of the
//! query snippet dropped (paper §VII-D).
//!
//! Expected shape: Aroma holds precision with full and partial snippets;
//! ReACC declines steeply as code is omitted. Paper best F1: Aroma 0.63,
//! ReACC 0.24.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin fig12_13_code_to_code
//! ```

use csn::best_f1;
use laminar_bench::{
    code_to_code_eval, corpus_from_args, render_curve, CodeRetriever, OMISSION_LEVELS,
};

fn main() {
    let corpus = corpus_from_args();
    eprintln!(
        "corpus: {} PEs across {} families",
        corpus.len(),
        corpus.family_keys.len()
    );

    let mut summary = Vec::new();
    for (retriever, figure, paper_f1) in [
        (CodeRetriever::Aroma, "Fig. 12 — Aroma", 0.63),
        (CodeRetriever::Reacc, "Fig. 13 — ReACC-py retriever", 0.24),
    ] {
        let mut max_f1: f64 = 0.0;
        for &omission in OMISSION_LEVELS {
            let curve = code_to_code_eval(&corpus, retriever, omission).curve();
            println!(
                "{}",
                render_curve(
                    &format!("{figure} @ {:.0}% code dropped", omission * 100.0),
                    &curve
                )
            );
            max_f1 = max_f1.max(best_f1(&curve).0);
        }
        summary.push(format!(
            "{figure}: measured max F1 = {max_f1:.4} (paper: {paper_f1})"
        ));
    }
    println!("# Summary");
    for line in summary {
        println!("{line}");
    }
}
