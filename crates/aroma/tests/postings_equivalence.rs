//! The posting-list index and the granule memo against naive references.
//!
//! * `SnippetIndex::scored` must yield, in `ids()` order, every entry
//!   with its `FeatureVec::overlap`, and `search_vec` what keeping the
//!   positive scores and fully sorting returns — same ids, same score
//!   bits, same order — at every point of a long insert /
//!   replace-in-place / remove churn (swap-remove relabels a row, replace
//!   re-posts one: the posting lists and the id column have to follow
//!   both).
//! * Pruning from an entry's memoised granules must equal pruning from its
//!   source, and a warm engine must recommend exactly like a cold one.
//!
//! Plain `#[test]`s over a seeded xorshift, so the suite also runs where
//! `proptest` is a stand-in.

use aroma::{
    granulated_vec, prune, prune_and_rerank, AromaEngine, Recommendation, ScoredSnippet, Snippet,
    SnippetIndex,
};
use spt::{FeatureVec, Spt};
use std::collections::BTreeMap;

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

/// Source drawn from a few idiom families with small parameter ranges:
/// near-duplicates (and so score ties across ids) are the common case.
fn source(rng: &mut Rng) -> String {
    let (a, b) = (rng.below(6), rng.below(6));
    match rng.below(6) {
        0 => format!("total = 0\nfor item in data{a}:\n    total += item * {b}\nreturn total\n"),
        1 => format!("with open(path{a}) as fh:\n    body = fh.read()\nprint(body[{b}])\n"),
        2 => format!("def f{a}(x):\n    if x > {b}:\n        return x\n    return {b}\n"),
        3 => format!(
            "class PE{a}(IterativePE):\n    def _process(self, num):\n        return num * {b}\n"
        ),
        4 => format!(
            "best = None\nfor item in xs{a}:\n    if best is None or item > best:\n        best = item\n"
        ),
        // No features at all: indexed, never retrievable.
        _ => String::new(),
    }
}

const QUERIES: &[&str] = &[
    "total = 0\nfor item in data1:\n    total += item\n",
    "with open(path2) as fh:\n    body = fh.read()\n",
    "def f3(x):\n    if x > 4:\n        return x\n",
    "class PE1(IterativePE):\n    def _process(self, num):",
    "best = None\nfor item in xs0:\n    if item > best:",
    "import xml\n",
    "",
];

/// The reference: every entry scored on its own, everything sorted.
fn naive_search(
    model: &BTreeMap<u64, FeatureVec>,
    qvec: &FeatureVec,
    top_n: usize,
) -> Vec<ScoredSnippet> {
    let mut scored: Vec<ScoredSnippet> = model
        .iter()
        .map(|(&id, v)| ScoredSnippet {
            id,
            score: qvec.overlap(v),
        })
        .filter(|s| s.score > 0.0)
        .collect();
    scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    scored.truncate(top_n);
    scored
}

fn assert_same_hits(got: &[ScoredSnippet], want: &[ScoredSnippet], what: &str) {
    let bits = |hits: &[ScoredSnippet]| -> Vec<(u64, u32)> {
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    };
    assert_eq!(bits(got), bits(want), "{what}");
}

#[test]
fn search_equals_naive_scan_under_churn() {
    let mut rng = Rng(0x0a20_3a5e);
    let mut index = SnippetIndex::new();
    let mut model: BTreeMap<u64, FeatureVec> = BTreeMap::new();
    let queries: Vec<FeatureVec> = QUERIES
        .iter()
        .map(|q| Spt::parse_source(q).feature_vec())
        .collect();
    for step in 1..=3000 {
        let id = rng.below(300);
        if rng.below(10) < 6 {
            // Insert, or replace in place when the id is held.
            let code = source(&mut rng);
            model.insert(id, Spt::parse_source(&code).feature_vec());
            index.upsert(Snippet::new(id, format!("S{id}"), code));
        } else {
            // Swap-remove: of the last row, a middle row, or nothing.
            assert_eq!(index.remove(id), model.remove(&id).is_some());
        }
        if step % 25 != 0 {
            continue;
        }
        assert_eq!(index.len(), model.len());
        for (q, qvec) in QUERIES.iter().zip(&queries) {
            let row_wise: Vec<ScoredSnippet> = index
                .ids()
                .map(|id| ScoredSnippet {
                    id,
                    score: qvec.overlap(&model[&id]),
                })
                .collect();
            let scored: Vec<ScoredSnippet> = index.scored(qvec).collect();
            assert_same_hits(&scored, &row_wise, &format!("step {step} scored {q:?}"));
            for top_n in [1, 5, 50, usize::MAX] {
                assert_same_hits(
                    &index.search_vec(qvec, top_n),
                    &naive_search(&model, qvec, top_n),
                    &format!("step {step} top_n {top_n} query {q:?}"),
                );
            }
        }
    }
    assert!(model.len() > 100, "the churn keeps the index populated");
    index.clear();
    assert!(index.search_vec(&queries[0], 5).is_empty());
}

fn corpus(seed: u64, n: u64) -> Vec<Snippet> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|id| Snippet::new(id, format!("S{id}"), source(&mut rng)))
        .collect()
}

fn engine_over(snippets: Vec<Snippet>) -> AromaEngine {
    let mut e = AromaEngine::default();
    e.add_batch(snippets);
    e
}

fn assert_same_recommendations(a: &[Recommendation], b: &[Recommendation], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (x.seed_id, &x.seed_name, &x.code, x.cluster_size),
            (y.seed_id, &y.seed_name, &y.code, y.cluster_size),
            "{what}"
        );
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{what}");
        assert_eq!(
            x.retrieval_score.to_bits(),
            y.retrieval_score.to_bits(),
            "{what}"
        );
    }
}

#[test]
fn pruning_from_the_memo_equals_pruning_from_source() {
    let e = engine_over(corpus(41, 200));
    for q in QUERIES {
        let gvec = granulated_vec(q);
        for id in e.index().ids() {
            let code = &e.index().get(id).expect("held").code;
            let granules = e.index().granules(id).expect("held");
            let memo = prune(id, granules, &gvec);
            let parsed = prune_and_rerank(id, code, &gvec);
            assert_eq!(memo.id, parsed.id);
            assert_eq!(memo.kept_statements, parsed.kept_statements);
            assert_eq!(memo.kept_vecs, parsed.kept_vecs);
            assert_eq!(memo.rerank_score.to_bits(), parsed.rerank_score.to_bits());
            assert_eq!(memo.pruned_vec, parsed.pruned_vec);
        }
    }
}

#[test]
fn a_warm_engine_recommends_like_a_cold_one() {
    let snippets = corpus(97, 400);
    let warm = engine_over(snippets.clone());
    for q in QUERIES {
        let (first, first_stats) = warm.recommend_with_stats(q);
        // Second run: every candidate's granules come from the memo.
        let (second, second_stats) = warm.recommend_with_stats(q);
        let (cold, cold_stats) = engine_over(snippets.clone()).recommend_with_stats(q);
        assert_same_recommendations(&first, &second, q);
        assert_same_recommendations(&first, &cold, q);
        for stats in [&second_stats, &cold_stats] {
            assert_eq!(
                (stats.retrieved, stats.pruned, stats.clusters),
                (
                    first_stats.retrieved,
                    first_stats.pruned,
                    first_stats.clusters
                )
            );
        }
    }
}

#[test]
fn the_memo_is_shared_by_clones_and_dropped_with_the_entry() {
    let mut e = engine_over(corpus(5, 50));
    let q = QUERIES[0];
    let (before, _) = e.recommend_with_stats(q);
    let seed = before
        .first()
        .expect("the accumulator family matches")
        .seed_id;

    // The memo is filled once: a second request reads the same value.
    let memo = |e: &AromaEngine| std::ptr::from_ref(e.index().granules(seed).expect("held"));
    let first = memo(&e);
    e.recommend_with_stats(q);
    assert_eq!(memo(&e), first);

    // A copy-on-write clone copies pointers: same entries, same memo.
    let clone = e.clone();
    assert_eq!(memo(&e), memo(&clone));
    assert_same_recommendations(&before, &clone.recommend_with_stats(q).0, "clone");

    // Replacing the entry drops its memo; the clone keeps the old entry.
    let replacement = "with open(path) as fh:\n    return fh.read()\n";
    e.upsert(Snippet::new(seed, "Replaced", replacement));
    assert_ne!(memo(&e), memo(&clone));
    let texts = e.index().granules(seed).expect("held").texts();
    assert!(texts.iter().any(|t| t.contains("open")), "{texts:?}");
    let (after, _) = e.recommend_with_stats(replacement);
    let hit = after
        .iter()
        .find(|r| r.seed_id == seed)
        .expect("the replaced snippet matches its own new source");
    assert_eq!(hit.seed_name, "Replaced");
    assert!(hit.code.contains("open"), "{}", hit.code);
    assert_same_recommendations(&before, &clone.recommend_with_stats(q).0, "old snapshot");

    // A removed entry has no granules to offer.
    assert!(e.remove(seed));
    assert!(e.index().granules(seed).is_none());
}
