//! Property suite for the Aroma pipeline (ISSUE 9).
//!
//! Over deterministic synthetic corpora:
//! * clustering covers every pruned input exactly once,
//! * every cluster's seed is its best-ranked member,
//! * the engine's pruned set is exactly what the public stage functions
//!   produce (the server serves the same code path).

use aroma::{
    cluster_results, granulated_vec, prune_and_rerank, AromaEngine, PrunedSnippet, Snippet,
};

/// Deterministic xorshift so the "random" corpora are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A synthetic Python snippet drawn from a handful of idiom families, so
/// corpora contain both near-duplicates (cluster fodder) and noise.
fn snippet(rng: &mut Rng, id: u64) -> Snippet {
    let family = rng.below(5);
    let a = rng.below(9);
    let b = rng.below(9);
    let code = match family {
        0 => format!(
            "total = 0\nfor item in data{a}:\n    total += item * {b}\nreturn total\n"
        ),
        1 => format!(
            "with open(path{a}) as fh:\n    body = fh.read()\nprint(body[{b}])\n"
        ),
        2 => format!(
            "def f{a}(x):\n    if x > {b}:\n        return x\n    return {b}\n"
        ),
        3 => format!(
            "class PE{a}(IterativePE):\n    def _process(self, num):\n        return num * {b}\n"
        ),
        _ => format!(
            "best = None\nfor item in xs{a}:\n    if best is None or item > best:\n        best = item\n"
        ),
    };
    Snippet::new(id, format!("S{id}"), code)
}

fn corpus(seed: u64, n: u64) -> Vec<Snippet> {
    let mut rng = Rng(seed);
    (0..n).map(|id| snippet(&mut rng, id)).collect()
}

const QUERIES: &[&str] = &[
    "total = 0\nfor item in data1:\n    total += item\n",
    "with open(path2) as fh:\n    body = fh.read()\n",
    "def f3(x):\n    if x > 4:\n        return x\n",
    "class PE1(IterativePE):\n    def _process(self, num):\n        return num * 2\n",
    "best = None\nfor item in xs0:\n    if item > best:\n        best = item\n",
];

/// Replicate the engine's prune stage through the public stage functions:
/// retrieval → serial prune → deterministic sort → truncate.
fn pruned_via_stages(e: &AromaEngine, query: &str) -> Vec<PrunedSnippet> {
    let qvec = spt::Spt::parse_source(query).feature_vec();
    let hits = e.index().search_vec(&qvec, e.config().retrieve_n);
    let gvec = granulated_vec(query);
    let mut pruned: Vec<PrunedSnippet> = hits
        .iter()
        .filter_map(|h| {
            let code = &e.index().get(h.id)?.code;
            Some(prune_and_rerank(h.id, code, &gvec))
        })
        .collect();
    pruned.sort_by(|a, b| {
        b.rerank_score
            .partial_cmp(&a.rerank_score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    pruned.truncate(e.config().rerank_keep);
    pruned
}

#[test]
fn clusters_cover_every_pruned_input_exactly_once() {
    for seed in [3, 7, 99] {
        let mut e = AromaEngine::default();
        e.add_batch(corpus(seed, 120));
        for q in QUERIES {
            let pruned = pruned_via_stages(&e, q);
            for sim in [0.0f32, 0.3, 0.5, 0.9, 1.5] {
                let clusters = cluster_results(&pruned, sim);
                let mut covered: Vec<usize> = clusters
                    .iter()
                    .flat_map(|c| c.members.iter().copied())
                    .collect();
                covered.sort_unstable();
                let expected: Vec<usize> = (0..pruned.len()).collect();
                assert_eq!(covered, expected, "seed {seed} query {q:?} sim {sim}");
            }
        }
    }
}

#[test]
fn every_seed_is_the_best_ranked_member() {
    for seed in [5, 42] {
        let mut e = AromaEngine::default();
        e.add_batch(corpus(seed, 150));
        for q in QUERIES {
            let pruned = pruned_via_stages(&e, q);
            let clusters = cluster_results(&pruned, 0.5);
            for c in &clusters {
                let Some(s) = c.seed() else {
                    panic!("cluster_results produced an empty cluster");
                };
                // pruned is rank-sorted, so "best ranked" == lowest index.
                assert_eq!(Some(&s), c.members.iter().min());
                for &m in &c.members {
                    assert!(
                        pruned[s].rerank_score >= pruned[m].rerank_score,
                        "seed {} outranked by member {} (seed {seed}, query {q:?})",
                        pruned[s].id,
                        pruned[m].id,
                    );
                }
            }
        }
    }
}

#[test]
fn engine_matches_stage_functions_end_to_end() {
    // The engine's recommendations must come from exactly the pruned set
    // the public stage functions produce — no hidden divergence between
    // the library pipeline and what the server composes from it.
    let mut e = AromaEngine::default();
    e.add_batch(corpus(17, 80));
    for q in QUERIES {
        let pruned = pruned_via_stages(&e, q);
        let clusters = cluster_results(&pruned, e.config().cluster_sim);
        let recs = e.recommend(q);
        assert!(recs.len() <= clusters.len());
        for r in &recs {
            assert!(
                pruned.iter().any(|p| p.id == r.seed_id),
                "seed {} not in the stage-function pruned set ({q:?})",
                r.seed_id
            );
        }
    }
}
