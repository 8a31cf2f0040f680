//! Seeded property tests for the index cell behind [`SearchIndexes`]
//! (plain `#[test]`s over a local xorshift; a failing case prints its
//! seed):
//!
//! * bounded top-k selection returns exactly the prefix of the full-sorted
//!   ranking, ties included (the tie-break key is total, so the prefix is
//!   unique and the comparison is exact, not approximate);
//! * arbitrary upsert/bulk/describe/remove/clear interleavings leave the cell
//!   equivalent to a naive map-of-rows model: both dense modalities over
//!   every row (slot map, slab swap-remove, and per-kind counts all have
//!   to move together for this to hold), the SPT rankings over the PE rows
//!   (workflows have none), the Aroma engine they are served from (exactly
//!   the model's PEs, and — fed each row's SPT vector, never parsing —
//!   recommending like an engine that parsed and featurised them from
//!   scratch), and the one generation (exactly one step per mutation);
//! * the blocked dense scan scores every row with the bits of `dot(query,
//!   row)`: across block-boundary row counts, query shapes (1 to 256
//!   non-zero dimensions, `-0.0`, subnormals, one accumulator lane) and
//!   churn that overwrites, re-describes and swap-removes within and across
//!   blocks, all three dense rankings equal a model that calls `dot` per row
//!   and fully sorts.

use aroma::{AromaEngine, Snippet};
use embed::{dot, DenseVec, Embedder, ReaccSim, UniXcoderSim, DIM};
use laminar_server::indexes::{EntryKind, IndexHit, IndexRow, PeSnippet, SearchIndexes};
use spt::{FeatureVec, Spt};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `prop` on `cases` cases, each from its own seed, printed if it fails.
fn check(cases: u64, prop: impl Fn(&mut Rng)) {
    for case in 1..=cases {
        let seed = case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| prop(&mut Rng(seed)))) {
            eprintln!("failing case seed: {seed:#x}");
            resume_unwind(panic);
        }
    }
}

/// The engine's encoded tie-break key (mirrors the private `entry_key`).
fn key_of(id: u64, kind: EntryKind) -> u64 {
    (id << 1) | matches!(kind, EntryKind::Workflow) as u64
}

/// Naive reference: a map of full rows, ranked by scoring everything and
/// fully sorting — the behaviour the cell must match — plus a count of
/// the mutations applied.
#[derive(Default)]
struct NaiveModel {
    entries: HashMap<u64, IndexRow>,
    mutations: u64,
}

impl NaiveModel {
    fn rank<F>(&self, score: F, kind: Option<EntryKind>, k: usize) -> Vec<IndexHit>
    where
        F: Fn(&IndexRow) -> f32,
    {
        let mut scored: Vec<(u64, EntryKind, f32)> = self
            .entries
            .iter()
            .filter(|(_, e)| kind.is_none_or(|kf| e.kind() == kf))
            .map(|(&key, e)| (key, e.kind(), score(e)))
            .collect();
        scored.sort_unstable_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
            .into_iter()
            .map(|(key, kind, score)| IndexHit {
                id: key >> 1,
                kind,
                score,
            })
            .collect()
    }

    /// SPT ranking: the PE rows by overlap — `None` means `Some(Pe)`,
    /// workflows have no SPT rows.
    fn rank_spt(&self, query: &FeatureVec, kind: Option<EntryKind>, k: usize) -> Vec<IndexHit> {
        if kind == Some(EntryKind::Workflow) {
            return Vec::new();
        }
        let overlap = |e: &IndexRow| e.pe.as_ref().map_or(0.0, |pe| query.overlap(&pe.spt));
        self.rank(overlap, Some(EntryKind::Pe), k)
    }

    /// The PE rows' engine parts, ascending by id.
    fn pes(&self) -> Vec<(u64, &PeSnippet)> {
        let mut pes: Vec<(u64, &PeSnippet)> = self
            .entries
            .values()
            .filter_map(|e| Some((e.id, e.pe.as_ref()?)))
            .collect();
        pes.sort_unstable_by_key(|&(id, _)| id);
        pes
    }

    fn counts(&self) -> (usize, usize) {
        let pes = self.pes().len();
        (pes, self.entries.len() - pes)
    }
}

#[derive(Debug, Clone)]
struct RowSpec {
    id: u64,
    wf: bool,
    variant: u8,
}

#[derive(Debug, Clone)]
enum Op {
    Upsert(RowSpec),
    Bulk(Vec<RowSpec>),
    /// A description update: only the row's description embedding moves.
    Describe(RowSpec),
    Remove {
        id: u64,
        wf: bool,
    },
    Clear,
}

fn row(rng: &mut Rng) -> RowSpec {
    RowSpec {
        id: rng.below(16),
        wf: rng.below(2) == 1,
        variant: rng.below(4) as u8,
    }
}

/// Up to `max - 1` ops, weighted 4 upsert : 2 bulk : 2 describe :
/// 3 remove : 1 clear.
fn ops(rng: &mut Rng, max: u64) -> Vec<Op> {
    (0..rng.below(max))
        .map(|_| match rng.below(12) {
            0..=3 => Op::Upsert(row(rng)),
            4..=5 => Op::Bulk((0..rng.below(5)).map(|_| row(rng)).collect()),
            6..=7 => Op::Describe(row(rng)),
            8..=10 => Op::Remove {
                id: rng.below(16),
                wf: rng.below(2) == 1,
            },
            _ => Op::Clear,
        })
        .collect()
}

fn kind_of(wf: bool) -> EntryKind {
    if wf {
        EntryKind::Workflow
    } else {
        EntryKind::Pe
    }
}

/// Only 4 variants, so duplicate vectors — and therefore score ties — are
/// common across ids.
fn build_row(spec: &RowSpec) -> IndexRow {
    let RowSpec { id, wf, variant } = spec;
    let text = format!("entry variant {variant} does things");
    let code = format!(
        "def f{variant}(data):\n    total = {variant}\n    for item in data:\n        total += item * {variant}\n    return total\n"
    );
    let desc = UniXcoderSim::new().embed(&text);
    if *wf {
        return IndexRow::workflow(*id, &code, desc);
    }
    IndexRow::pe(
        *id,
        &format!("E{id}v{variant}"),
        &code,
        desc,
        Spt::parse_source(&code).feature_vec(),
    )
}

/// Apply one op sequence to both the cell and the naive model.
fn apply(ops: &[Op]) -> (SearchIndexes, NaiveModel) {
    let ix = SearchIndexes::new();
    let mut model = NaiveModel::default();
    for op in ops {
        match op {
            Op::Upsert(spec) => {
                let row = build_row(spec);
                ix.upsert(row.clone());
                model.entries.insert(key_of(row.id, row.kind()), row);
                model.mutations += 1;
            }
            Op::Bulk(specs) => {
                let rows: Vec<IndexRow> = specs.iter().map(build_row).collect();
                ix.bulk_upsert(rows.clone());
                // An empty batch publishes nothing.
                model.mutations += !rows.is_empty() as u64;
                for row in rows {
                    model.entries.insert(key_of(row.id, row.kind()), row);
                }
            }
            Op::Describe(spec) => {
                let row = build_row(spec);
                ix.set_description(row.id, row.kind(), &row.desc);
                // A row that is not indexed stays absent.
                if let Some(held) = model.entries.get_mut(&key_of(row.id, row.kind())) {
                    held.desc = row.desc;
                }
                model.mutations += 1;
            }
            Op::Remove { id, wf } => {
                let kind = kind_of(*wf);
                ix.remove(*id, kind);
                model.entries.remove(&key_of(*id, kind));
                model.mutations += 1;
            }
            Op::Clear => {
                ix.clear();
                model.entries.clear();
                model.mutations += 1;
            }
        }
    }
    (ix, model)
}

/// The cell's engine holds exactly the model's PEs and recommends like
/// an engine built from those rows from scratch.
fn assert_engine_matches_model(ix: &SearchIndexes, model: &NaiveModel) {
    let engine = ix.engine();
    let pes = model.pes();
    let mut held: Vec<u64> = engine.index().ids().collect();
    held.sort_unstable();
    assert_eq!(held, pes.iter().map(|&(id, _)| id).collect::<Vec<_>>());
    for &(id, pe) in &pes {
        let snippet = engine.index().get(id).expect("held id resolves");
        assert_eq!(
            (&snippet.name, &snippet.code),
            (&pe.name, &pe.code),
            "pe {id}"
        );
    }

    let mut fresh = AromaEngine::with_default_config();
    fresh.add_batch(
        pes.iter()
            .map(|&(id, pe)| Snippet::new(id, pe.name.as_str(), pe.code.as_str()))
            .collect(),
    );
    for query in [
        "total = 0\nfor item in data:\n    total += item\n",
        "def f2(data):\n    total = 2\n    for item in data:",
        "import xml\n",
    ] {
        let (got, got_stats) = engine.recommend_with_stats(query);
        let (want, want_stats) = fresh.recommend_with_stats(query);
        assert_eq!(got.len(), want.len(), "{query:?}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.seed_id, w.seed_id, "{query:?}");
            assert_eq!(g.seed_name, w.seed_name);
            assert_eq!(g.code, w.code);
            assert_eq!(g.score.to_bits(), w.score.to_bits());
            assert_eq!(g.retrieval_score.to_bits(), w.retrieval_score.to_bits());
            assert_eq!(g.cluster_size, w.cluster_size);
        }
        assert_eq!(
            (got_stats.retrieved, got_stats.pruned, got_stats.clusters),
            (want_stats.retrieved, want_stats.pruned, want_stats.clusters),
            "{query:?}"
        );
    }
}

/// Upsert/bulk/describe/remove/clear fuzz: after any op interleaving, every
/// modality's bounded ranking equals the naive full-sort prefix exactly
/// (bit-equal scores, same ids, same order — ties resolved
/// identically), the engine matches the model, and the generation
/// counted the mutations.
#[test]
fn cell_matches_naive_model_after_any_op_sequence() {
    check(48, |rng| {
        let (ix, model) = apply(&ops(rng, 40));
        assert_eq!(ix.len(), model.entries.len());
        assert_eq!(ix.counts(), model.counts());
        assert_eq!(ix.generation(), model.mutations);
        assert_engine_matches_model(&ix, &model);

        let emb = UniXcoderSim::new();
        let q_text = emb.embed("an entry that does things with variants");
        let q_spt = Spt::parse_source("total += item * 2\n").feature_vec();
        let q_code = ReaccSim::new().embed_code("for item in data:\n    total += item * 2\n");

        for kind in [None, Some(EntryKind::Pe), Some(EntryKind::Workflow)] {
            for k in [0usize, 1, 7, usize::MAX] {
                assert_eq!(
                    ix.rank_semantic(&q_text, kind, k),
                    model.rank(|e| dot(&q_text.values, &e.desc.values), kind, k),
                    "semantic kind={kind:?} k={k}"
                );
                assert_eq!(
                    ix.rank_spt(&q_spt, kind, k),
                    model.rank_spt(&q_spt, kind, k),
                    "spt kind={kind:?} k={k}"
                );
                assert_eq!(
                    ix.rank_reacc(&q_code, kind, k),
                    model.rank(|e| dot(&q_code.values, &e.reacc.values), kind, k),
                    "reacc kind={kind:?} k={k}"
                );
            }
        }
    });
}

/// The threshold scans equal filtering the full ranking.
#[test]
fn threshold_scans_equal_filtered_full_ranking() {
    check(48, |rng| {
        let (ix, _) = apply(&ops(rng, 30));
        let min_spt = rng.below(8000) as f32 / 1000.0;
        let min_cos = rng.below(1500) as f32 / 1000.0 - 0.5;
        let q_spt = Spt::parse_source("total += item * 2\n").feature_vec();
        let q_code = ReaccSim::new().embed_code("for item in data:\n    total += item * 2\n");
        let full_spt: Vec<IndexHit> = ix
            .rank_spt(&q_spt, Some(EntryKind::Pe), usize::MAX)
            .into_iter()
            .filter(|h| h.score >= min_spt)
            .collect();
        assert_eq!(
            ix.rank_spt_above(&q_spt, Some(EntryKind::Pe), min_spt),
            full_spt
        );
        let full_reacc: Vec<IndexHit> = ix
            .rank_reacc(&q_code, None, usize::MAX)
            .into_iter()
            .filter(|h| h.score >= min_cos)
            .collect();
        assert_eq!(ix.rank_reacc_above(&q_code, None, min_cos), full_reacc);
    });
}

/// Rows per dense block — mirrors the private `BLOCK` in `indexes.rs`, so
/// the row counts below sit on its boundaries. Keep the two in step.
const BLOCK: usize = 64;

/// A weight for a dense row or query: mostly in [-1, 1] (0 included), one
/// in eight subnormal.
fn weight(rng: &mut Rng) -> f32 {
    match rng.below(16) {
        0 => f32::from_bits(1 + rng.below(1000) as u32),
        1 => -f32::MIN_POSITIVE / 2.0,
        _ => (rng.below(2001) as f32 - 1000.0) / 1000.0,
    }
}

/// A vector with about `nonzero` non-zero dimensions (fewer where draws
/// collide or draw 0).
fn sparse(rng: &mut Rng, nonzero: usize) -> DenseVec {
    let mut v = DenseVec::zero();
    for _ in 0..nonzero {
        v.values[rng.below(DIM as u64) as usize] = weight(rng);
    }
    v
}

/// The query shapes the scan treats differently, none of them zero.
fn dense_queries(rng: &mut Rng) -> Vec<(&'static str, DenseVec)> {
    let mut one = DenseVec::zero();
    one.values[rng.below(DIM as u64) as usize] = -0.75;
    let mut all = DenseVec::zero();
    for v in &mut all.values {
        *v = weight(rng);
        if *v == 0.0 {
            *v = 0.5;
        }
    }
    let mut negative_zeros = sparse(rng, 20);
    for v in &mut negative_zeros.values {
        if *v == 0.0 {
            *v = -0.0;
        }
    }
    let mut subnormal = DenseVec::zero();
    subnormal.values[5] = f32::from_bits(1);
    subnormal.values[77] = -f32::MIN_POSITIVE / 2.0;
    subnormal.values[200] = 1.0;
    let mut one_lane = DenseVec::zero();
    for d in (3..DIM).step_by(8).take(12) {
        one_lane.values[d] = weight(rng) + 1.5;
    }
    vec![
        ("1 non-zero", one),
        ("~20 non-zero", sparse(rng, 20)),
        ("~60 non-zero", sparse(rng, 60)),
        ("256 non-zero", all),
        ("-0.0 for every zero", negative_zeros),
        ("subnormal weights", subnormal),
        ("one lane", one_lane),
    ]
}

/// A row written from its embeddings alone; one in four repeats an earlier
/// row's vectors, so exact score ties occur.
fn dense_row(rng: &mut Rng, id: u64, held: &[IndexRow]) -> IndexRow {
    let (desc, reacc) = match held.len() as u64 {
        n if n > 0 && rng.below(4) == 0 => {
            let twin = &held[rng.below(n) as usize];
            (twin.desc.clone(), twin.reacc.clone())
        }
        _ => (sparse(rng, 70), sparse(rng, 90)),
    };
    IndexRow {
        id,
        desc,
        reacc,
        pe: (rng.below(2) == 0).then(|| PeSnippet {
            name: String::new(),
            code: String::new(),
            spt: FeatureVec::default(),
        }),
        content: 0,
    }
}

/// Same hits: ids, kinds, order and the scores' bit patterns.
fn assert_same_bits(got: &[IndexHit], want: &[IndexHit], what: &str) {
    let bits = |hits: &[IndexHit]| -> Vec<(u64, EntryKind, u32)> {
        hits.iter()
            .map(|h| (h.id, h.kind, h.score.to_bits()))
            .collect()
    };
    assert_eq!(bits(got), bits(want), "{what}");
}

/// All three dense rankings of `ix` against the model's `dot`-per-row,
/// fully sorted answer.
fn assert_dense_matches_model(
    ix: &SearchIndexes,
    model: &NaiveModel,
    queries: &[(&str, DenseVec)],
    when: &str,
) {
    let n = model.entries.len();
    assert_eq!(ix.len(), n, "{when}");
    for (shape, q) in queries {
        for kind in [None, Some(EntryKind::Pe), Some(EntryKind::Workflow)] {
            let what = format!("{when}: n={n} query={shape} kind={kind:?}");
            let by_desc = model.rank(|e| dot(&q.values, &e.desc.values), kind, usize::MAX);
            let full = model.rank(|e| dot(&q.values, &e.reacc.values), kind, usize::MAX);
            for k in [1, 5, n, n + 10] {
                assert_same_bits(
                    &ix.rank_semantic(q, kind, k),
                    &by_desc[..k.min(by_desc.len())],
                    &format!("semantic {what} k={k}"),
                );
                assert_same_bits(
                    &ix.rank_reacc(q, kind, k),
                    &full[..k.min(full.len())],
                    &format!("reacc {what} k={k}"),
                );
            }
            let mid = full.get(n / 3).map_or(0.25, |h| h.score);
            for min in [f32::NEG_INFINITY, -0.5, 0.0, mid, 1.0e6] {
                let want: Vec<IndexHit> = full.iter().filter(|h| h.score >= min).cloned().collect();
                assert_same_bits(
                    &ix.rank_reacc_above(q, kind, min),
                    &want,
                    &format!("reacc_above {what} min={min}"),
                );
            }
        }
    }
}

/// The blocked scan against `dot` per row, at row counts on the block
/// boundaries and under churn. `order` mirrors the engine's row order
/// (insertion order, swap-removed), so the churn can aim at the last row,
/// a middle row and a row in another block than the last.
#[test]
fn blocked_dense_scan_equals_dot_per_row_under_churn() {
    check(6, |rng| {
        let queries = dense_queries(rng);
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
            let ix = SearchIndexes::new();
            let mut model = NaiveModel::default();
            let mut order: Vec<(u64, EntryKind)> = Vec::new();
            let mut rows: Vec<IndexRow> = Vec::new();
            for id in 0..n as u64 {
                rows.push(dense_row(rng, id, &rows));
            }
            ix.bulk_upsert(rows.clone());
            for row in rows {
                order.push((row.id, row.kind()));
                model.entries.insert(key_of(row.id, row.kind()), row);
            }
            assert_dense_matches_model(&ix, &model, &queries, "built");

            // A query of only zeros, of either sign, ranks nothing.
            let mut zeros = DenseVec::zero();
            zeros.values[9] = -0.0;
            assert!(ix.rank_semantic(&zeros, None, 5).is_empty());
            assert!(ix.rank_reacc(&zeros, None, 5).is_empty());
            assert!(ix.rank_reacc_above(&zeros, None, -1.0).is_empty());

            if n == 0 {
                continue;
            }

            // Overwrite a row in place, then re-describe another.
            let (id, kind) = order[rng.below(n as u64) as usize];
            let mut row = dense_row(rng, id, &[]);
            row.pe = model.entries[&key_of(id, kind)].pe.clone();
            ix.upsert(row.clone());
            model.entries.insert(key_of(id, kind), row);
            let (id, kind) = order[rng.below(n as u64) as usize];
            let desc = sparse(rng, 70);
            ix.set_description(id, kind, &desc);
            model.entries.get_mut(&key_of(id, kind)).unwrap().desc = desc;
            assert_dense_matches_model(&ix, &model, &queries, "overwritten");

            // Swap-remove the last row, a middle row, and the first row —
            // at 3·BLOCK+7 rows, one in another block than the last.
            for (at, which) in [
                (order.len() - 1, "last removed"),
                (order.len() / 2, "middle removed"),
                (0, "first removed"),
            ] {
                if at >= order.len() {
                    continue;
                }
                let (id, kind) = order.swap_remove(at);
                ix.remove(id, kind);
                model.entries.remove(&key_of(id, kind));
                assert_dense_matches_model(&ix, &model, &queries, which);
            }

            // Append again: at BLOCK+1 rows the removals gave a block
            // back, and this reopens it over whatever it held.
            for id in 1000..1003 {
                let row = dense_row(rng, id, &[]);
                ix.upsert(row.clone());
                order.push((id, row.kind()));
                model.entries.insert(key_of(id, row.kind()), row);
            }
            assert_dense_matches_model(&ix, &model, &queries, "re-appended");
        }
    });
}
