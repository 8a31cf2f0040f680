//! The cell's SPT rankings, served from posting lists, against a naive
//! reference: score every row of a model map with `FeatureVec::overlap`,
//! sort everything. `rank_spt` and `rank_spt_above` must return the same
//! ids, kinds, score bits and order for `kind ∈ {None, Pe, Workflow}` at
//! every point of an upsert / replace-in-place / remove churn over both
//! kinds — including the swap-remove of the last row (nothing moves) and
//! of a middle row (the last row's postings are relabelled) — and the
//! engine, fed the same rows, must retrieve like a naive scan of the
//! model's PEs.
//!
//! Plain `#[test]`s over a seeded xorshift, so the suite also runs where
//! `proptest` is a stand-in (`index_props.rs` does not).

use embed::DenseVec;
use laminar_server::indexes::{EntryKind, IndexHit, IndexRow, SearchIndexes};
use spt::{FeatureVec, Spt};
use std::collections::HashMap;
use std::sync::Arc;

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

/// Few families, small parameter ranges: duplicate vectors, and so score
/// ties across ids and kinds, are the common case.
fn source(rng: &mut Rng) -> String {
    let (a, b) = (rng.below(5), rng.below(5));
    match rng.below(5) {
        0 => format!("total = 0\nfor item in data{a}:\n    total += item * {b}\nreturn total\n"),
        1 => format!("with open(path{a}) as fh:\n    body = fh.read()\nprint(body[{b}])\n"),
        2 => format!("def f{a}(x):\n    if x > {b}:\n        return x\n    return {b}\n"),
        3 => format!(
            "class PE{a}(IterativePE):\n    def _process(self, num):\n        return num * {b}\n"
        ),
        _ => String::new(),
    }
}

const QUERIES: &[&str] = &[
    "total = 0\nfor item in data1:\n    total += item\n",
    "with open(path2) as fh:\n    body = fh.read()\n",
    "def f3(x):\n    if x > 4:\n        return x\n",
    "class PE1(IterativePE):\n    def _process(self, num):",
    "import xml\n",
    "",
];

type Key = (u64, EntryKind);

/// The rows the cell should hold, and the order its slots are in: a new
/// row takes the last slot, a removed row's slot is taken by the last.
#[derive(Default)]
struct Model {
    vecs: HashMap<Key, Arc<FeatureVec>>,
    slots: Vec<Key>,
}

impl Model {
    fn upsert(&mut self, key: Key, vec: Arc<FeatureVec>) {
        if self.vecs.insert(key, vec).is_none() {
            self.slots.push(key);
        }
    }

    fn remove(&mut self, key: Key) {
        if self.vecs.remove(&key).is_some() {
            let at = self.slots.iter().position(|k| *k == key).expect("slotted");
            self.slots.swap_remove(at);
        }
    }

    /// Every row of `kind` scored on its own, everything sorted: score
    /// descending, then id, then PE before workflow.
    fn rank(&self, query: &FeatureVec, kind: Option<EntryKind>) -> Vec<IndexHit> {
        let mut hits: Vec<IndexHit> = self
            .vecs
            .iter()
            .filter(|((_, k), _)| kind.is_none_or(|want| *k == want))
            .map(|(&(id, kind), v)| IndexHit {
                id,
                kind,
                score: query.overlap(v),
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then(a.id.cmp(&b.id))
                .then((a.kind == EntryKind::Workflow).cmp(&(b.kind == EntryKind::Workflow)))
        });
        hits
    }
}

fn bits(hits: &[IndexHit]) -> Vec<(u64, EntryKind, u32)> {
    hits.iter()
        .map(|h| (h.id, h.kind, h.score.to_bits()))
        .collect()
}

fn assert_cell_matches(ix: &SearchIndexes, model: &Model, queries: &[FeatureVec], step: usize) {
    assert_eq!(ix.len(), model.vecs.len(), "step {step}");
    for (q, query) in queries.iter().enumerate() {
        for kind in [None, Some(EntryKind::Pe), Some(EntryKind::Workflow)] {
            let all = model.rank(query, kind);
            for k in [0, 1, 5, 50, usize::MAX] {
                assert_eq!(
                    bits(&ix.rank_spt(query, kind, k)),
                    bits(&all[..k.min(all.len())]),
                    "rank_spt step {step} query {q} kind {kind:?} k {k}"
                );
            }
            for min_score in [0.0f32, 1.0, 6.0, 9.5, 1e9] {
                let above: Vec<IndexHit> = all
                    .iter()
                    .filter(|h| h.score >= min_score)
                    .cloned()
                    .collect();
                assert_eq!(
                    bits(&ix.rank_spt_above(query, kind, min_score)),
                    bits(&above),
                    "rank_spt_above step {step} query {q} kind {kind:?} min {min_score}"
                );
            }
        }
        // The engine holds the PEs under the same vectors; its retrieval
        // drops zero scores, otherwise it is the PE ranking.
        let engine = ix.engine();
        let pes = model.rank(query, Some(EntryKind::Pe));
        for top_n in [1, 50, usize::MAX] {
            let want: Vec<(u64, u32)> = pes
                .iter()
                .filter(|h| h.score > 0.0)
                .take(top_n)
                .map(|h| (h.id, h.score.to_bits()))
                .collect();
            let got: Vec<(u64, u32)> = engine
                .index()
                .search_vec(query, top_n)
                .iter()
                .map(|h| (h.id, h.score.to_bits()))
                .collect();
            assert_eq!(got, want, "engine step {step} query {q} top_n {top_n}");
        }
    }
}

#[test]
fn spt_rankings_equal_the_naive_scan_under_churn() {
    let mut rng = Rng(0x1de5_c0de);
    let ix = SearchIndexes::new();
    let mut model = Model::default();
    let queries: Vec<FeatureVec> = QUERIES
        .iter()
        .map(|q| Spt::parse_source(q).feature_vec())
        .collect();
    for step in 1..=3000 {
        match rng.below(10) {
            0..=5 => {
                // Insert, or replace in place when the key is held.
                let id = rng.below(150);
                let kind = if rng.below(3) == 0 {
                    EntryKind::Workflow
                } else {
                    EntryKind::Pe
                };
                let code = source(&mut rng);
                let row = IndexRow::embed(
                    id,
                    kind,
                    &format!("E{id}"),
                    &code,
                    DenseVec::zero(),
                    Spt::parse_source(&code).feature_vec(),
                );
                model.upsert((id, kind), row.spt.clone());
                ix.upsert(row);
            }
            6 => {
                // The last slot: swap-remove moves nothing.
                if let Some(&(id, kind)) = model.slots.last() {
                    ix.remove(id, kind);
                    model.remove((id, kind));
                }
            }
            7 => {
                // A middle slot: the last row is relabelled into it.
                if let Some(&(id, kind)) = model.slots.get(model.slots.len() / 2) {
                    ix.remove(id, kind);
                    model.remove((id, kind));
                }
            }
            _ => {
                // Any key, held or not.
                let key = (rng.below(150), EntryKind::Pe);
                ix.remove(key.0, key.1);
                model.remove(key);
            }
        }
        if step % 25 == 0 {
            assert_cell_matches(&ix, &model, &queries, step);
        }
    }
    assert!(model.vecs.len() > 50, "the churn keeps the cell populated");
    ix.clear();
    model = Model::default();
    assert_cell_matches(&ix, &model, &queries, 3001);
}
