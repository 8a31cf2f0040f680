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
//!   scratch), and the one generation (exactly one step per mutation).

use aroma::{AromaEngine, Snippet};
use embed::{dot, Embedder, ReaccSim, UniXcoderSim};
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
