//! The cell's SPT rankings, served from the engine's posting index,
//! against a naive reference: score every PE of a model map with
//! `FeatureVec::overlap`, sort everything. `rank_spt` and `rank_spt_above`
//! must return the same ids, score bits and order for `kind ∈ {None, Pe}`
//! at every point of an upsert / replace-in-place / remove churn over PEs
//! and workflows — including the swap-remove of the engine's last row
//! (nothing moves) and of a middle row (the last row's postings are
//! relabelled) — and nothing for `kind = Workflow`, whose rows the dense
//! rankings still return. The engine's own retrieval must equal a naive
//! scan of the same PEs.
//!
//! Plain `#[test]`s over a seeded xorshift, so the suite also runs where
//! `proptest` is a stand-in (`index_props.rs` does not).

use embed::{DenseVec, Embedder, UniXcoderSim};
use laminar_server::indexes::{EntryKind, IndexHit, IndexRow, SearchIndexes};
use spt::{FeatureVec, Spt};
use std::collections::{BTreeSet, HashMap};

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

/// The rows the cell should hold, and the order the engine's slots are
/// in: a new PE takes the last slot, a removed PE's slot is taken by the
/// last.
#[derive(Default)]
struct Model {
    pes: HashMap<u64, FeatureVec>,
    slots: Vec<u64>,
    workflows: BTreeSet<u64>,
}

impl Model {
    fn upsert_pe(&mut self, id: u64, vec: FeatureVec) {
        if self.pes.insert(id, vec).is_none() {
            self.slots.push(id);
        }
    }

    fn remove_pe(&mut self, id: u64) {
        if self.pes.remove(&id).is_some() {
            let at = self.slots.iter().position(|k| *k == id).expect("slotted");
            self.slots.swap_remove(at);
        }
    }

    /// Every PE scored on its own, everything sorted: score descending,
    /// then id.
    fn rank(&self, query: &FeatureVec) -> Vec<IndexHit> {
        let mut hits: Vec<IndexHit> = self
            .pes
            .iter()
            .map(|(&id, v)| IndexHit {
                id,
                kind: EntryKind::Pe,
                score: query.overlap(v),
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        hits
    }
}

fn bits(hits: &[IndexHit]) -> Vec<(u64, EntryKind, u32)> {
    hits.iter()
        .map(|h| (h.id, h.kind, h.score.to_bits()))
        .collect()
}

fn assert_cell_matches(ix: &SearchIndexes, model: &Model, queries: &[FeatureVec], step: usize) {
    assert_eq!(
        ix.counts(),
        (model.pes.len(), model.workflows.len()),
        "step {step}"
    );
    // Workflows hold dense rows only.
    let text = UniXcoderSim::new().embed("any text");
    let workflows: BTreeSet<u64> = ix
        .rank_semantic(&text, Some(EntryKind::Workflow), usize::MAX)
        .iter()
        .map(|h| h.id)
        .collect();
    assert_eq!(workflows, model.workflows, "step {step}");
    for (q, query) in queries.iter().enumerate() {
        let all = model.rank(query);
        for k in [0, 1, 5, 50, usize::MAX] {
            for kind in [None, Some(EntryKind::Pe)] {
                assert_eq!(
                    bits(&ix.rank_spt(query, kind, k)),
                    bits(&all[..k.min(all.len())]),
                    "rank_spt step {step} query {q} kind {kind:?} k {k}"
                );
            }
            assert!(ix.rank_spt(query, Some(EntryKind::Workflow), k).is_empty());
        }
        for min_score in [0.0f32, 1.0, 6.0, 9.5, 1e9] {
            let above: Vec<IndexHit> = all
                .iter()
                .filter(|h| h.score >= min_score)
                .cloned()
                .collect();
            for kind in [None, Some(EntryKind::Pe)] {
                assert_eq!(
                    bits(&ix.rank_spt_above(query, kind, min_score)),
                    bits(&above),
                    "rank_spt_above step {step} query {q} kind {kind:?} min {min_score}"
                );
            }
            assert!(ix
                .rank_spt_above(query, Some(EntryKind::Workflow), min_score)
                .is_empty());
        }
        // The engine's retrieval drops zero scores, otherwise it is the
        // same ranking.
        let engine = ix.engine();
        for top_n in [1, 50, usize::MAX] {
            let want: Vec<(u64, u32)> = all
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
                let code = source(&mut rng);
                if rng.below(3) == 0 {
                    ix.upsert(IndexRow::workflow(id, &code, DenseVec::zero()));
                    model.workflows.insert(id);
                } else {
                    let row = IndexRow::pe(
                        id,
                        &format!("E{id}"),
                        &code,
                        DenseVec::zero(),
                        Spt::parse_source(&code).feature_vec(),
                    );
                    model.upsert_pe(id, row.pe.as_ref().expect("a PE row").spt.clone());
                    ix.upsert(row);
                }
            }
            6 => {
                // The engine's last slot: swap-remove moves nothing.
                if let Some(&id) = model.slots.last() {
                    ix.remove(id, EntryKind::Pe);
                    model.remove_pe(id);
                }
            }
            7 => {
                // A middle slot: the last row is relabelled into it.
                if let Some(&id) = model.slots.get(model.slots.len() / 2) {
                    ix.remove(id, EntryKind::Pe);
                    model.remove_pe(id);
                }
            }
            8 => {
                // Any PE, held or not.
                let id = rng.below(150);
                ix.remove(id, EntryKind::Pe);
                model.remove_pe(id);
            }
            _ => {
                // Any workflow, held or not: the engine is not involved.
                let id = rng.below(150);
                ix.remove(id, EntryKind::Workflow);
                model.workflows.remove(&id);
            }
        }
        if step % 25 == 0 {
            assert_cell_matches(&ix, &model, &queries, step);
        }
    }
    assert!(
        model.pes.len() > 50 && model.workflows.len() > 20,
        "the churn keeps the cell populated"
    );
    ix.clear();
    model = Model::default();
    assert_cell_matches(&ix, &model, &queries, 3001);
}
