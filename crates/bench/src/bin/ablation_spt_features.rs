//! E15 — ablation of Aroma's four feature families (token / parent /
//! sibling / variable-usage; paper §II-E, Luan et al. §3.2): which
//! families carry the structural-search signal, measured on the Fig. 12
//! protocol at 0 % and 50 % omission.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin ablation_spt_features
//! ```

use csn::{best_f1, pr_curve};
use laminar_bench::{standard_corpus, MAX_K};
use spt::{extract_features, Feature, FeatureVec, Spt};
use std::collections::HashSet;

#[derive(Clone, Copy)]
struct Kinds {
    token: bool,
    parent: bool,
    sibling: bool,
    var_usage: bool,
}

fn keep(f: &Feature, k: Kinds) -> bool {
    match f {
        Feature::Token(_) => k.token,
        Feature::Parent(..) => k.parent,
        Feature::Sibling(..) => k.sibling,
        Feature::VarUsage(..) => k.var_usage,
    }
}

fn vec_with(code: &str, k: Kinds) -> FeatureVec {
    let spt = Spt::parse_source(code);
    let feats: Vec<Feature> = extract_features(&spt)
        .into_iter()
        .filter(|f| keep(f, k))
        .collect();
    FeatureVec::from_features(&feats)
}

fn eval(k: Kinds, omission: f64, corpus: &csn::Dataset) -> f64 {
    let stored: Vec<FeatureVec> = corpus
        .entries
        .iter()
        .map(|e| vec_with(&e.code, k))
        .collect();
    let queries: Vec<(Vec<u64>, HashSet<u64>)> = corpus
        .entries
        .iter()
        .map(|e| {
            let partial = pyparse::drop_suffix_fraction(&e.code, omission);
            let q = vec_with(&partial, k);
            let mut scored: Vec<(u64, f32)> = stored
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
    best_f1(&pr_curve(&queries, MAX_K)).0
}

fn main() {
    let corpus = standard_corpus();
    eprintln!("corpus: {} PEs", corpus.len());

    let all = Kinds { token: true, parent: true, sibling: true, var_usage: true };
    let configs: Vec<(&str, Kinds)> = vec![
        ("all four families", all),
        ("token only", Kinds { parent: false, sibling: false, var_usage: false, ..all }),
        ("parent only", Kinds { token: false, sibling: false, var_usage: false, ..all }),
        ("sibling only", Kinds { token: false, parent: false, var_usage: false, ..all }),
        ("var-usage only", Kinds { token: false, parent: false, sibling: false, ..all }),
        ("without token", Kinds { token: false, ..all }),
        ("without parent", Kinds { parent: false, ..all }),
        ("without sibling", Kinds { sibling: false, ..all }),
        ("without var-usage", Kinds { var_usage: false, ..all }),
    ];

    println!("# Aroma feature-family ablation (best F1, Fig. 12 protocol)\n");
    println!("{:<22} {:>12} {:>12}", "features", "0% dropped", "50% dropped");
    for (label, k) in configs {
        let f0 = eval(k, 0.0, &corpus);
        let f50 = eval(k, 0.5, &corpus);
        println!("{:<22} {:>12.4} {:>12.4}", label, f0, f50);
    }
    println!("\nnote: on the synthetic corpus the variable-usage family alone is the single strongest signal (usage-context bigrams are highly idiom-specific and fully rename-invariant); every leave-one-out row stays close to the full combination, i.e. the families are largely redundant on family-level retrieval and the combination buys robustness rather than peak accuracy.");
}
