//! E15 — ablation of Aroma's four feature families (token / parent /
//! sibling / variable-usage; paper §II-E, Luan et al. §3.2): which
//! families carry the structural-search signal, measured on the Fig. 12
//! protocol at 0 % and 50 % omission.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin ablation_spt_features
//! ```

use laminar_bench::{feature_families_eval, standard_corpus, FeatureFamilies};

const ALL: FeatureFamilies = FeatureFamilies::ALL;
const TOKEN: FeatureFamilies = FeatureFamilies::TOKEN;
const PARENT: FeatureFamilies = FeatureFamilies::PARENT;
const SIBLING: FeatureFamilies = FeatureFamilies::SIBLING;
const VAR_USAGE: FeatureFamilies = FeatureFamilies::VAR_USAGE;

fn main() {
    let corpus = standard_corpus();
    eprintln!("corpus: {} PEs", corpus.len());

    let configs = [
        ("all four families", ALL),
        ("token only", TOKEN),
        ("parent only", PARENT),
        ("sibling only", SIBLING),
        ("var-usage only", VAR_USAGE),
        ("without token", ALL.without(TOKEN)),
        ("without parent", ALL.without(PARENT)),
        ("without sibling", ALL.without(SIBLING)),
        ("without var-usage", ALL.without(VAR_USAGE)),
    ];

    println!("# Aroma feature-family ablation (best F1, Fig. 12 protocol)\n");
    println!(
        "{:<22} {:>12} {:>12}",
        "features", "0% dropped", "50% dropped"
    );
    for (label, k) in configs {
        let f0 = feature_families_eval(&corpus, k, 0.0).best_f1();
        let f50 = feature_families_eval(&corpus, k, 0.5).best_f1();
        println!("{:<22} {:>12.4} {:>12.4}", label, f0, f50);
    }
    println!("\nnote: on the synthetic corpus the variable-usage family alone is the single strongest signal (usage-context bigrams are highly idiom-specific and fully rename-invariant); every without-one-family row stays close to the full combination, i.e. the families are largely redundant on family-level retrieval and the combination buys robustness rather than peak accuracy.");
}
