//! Property tests for the index cell behind [`SearchIndexes`]:
//!
//! * bounded top-k selection returns exactly the prefix of the full-sorted
//!   ranking, ties included (the tie-break key is total, so the prefix is
//!   unique and the comparison is exact, not approximate);
//! * the rayon-partitioned dense scans (and the SPT posting walk beside
//!   them) are bit-identical to a serial full sort once the corpus
//!   crosses `PAR_SCAN_THRESHOLD`;
//! * arbitrary upsert/bulk/describe/remove/clear interleavings leave the cell
//!   equivalent to a naive map-of-rows model: both dense modalities over
//!   every row (slot map, slab swap-remove, and per-kind counts all have
//!   to move together for this to hold), the SPT rankings over the PE rows
//!   (workflows have none), the Aroma engine they are served from (exactly
//!   the model's PEs, and — fed each row's SPT vector, never parsing —
//!   recommending like an engine that parsed and featurised them from
//!   scratch), and the one generation (exactly one step per mutation).

use aroma::{AromaEngine, Snippet};
use embed::dense::PAR_SCAN_THRESHOLD;
use embed::{dot, DenseVec, Embedder, ReaccSim, UniXcoderSim, DIM};
use laminar_server::indexes::{EntryKind, IndexHit, IndexRow, PeSnippet, SearchIndexes};
use proptest::prelude::*;
use spt::{FeatureVec, Spt};
use std::collections::HashMap;

/// Case count: the pinned default, or `LAMINAR_PROPTEST_CASES` when set.
/// `PROPTEST_RNG_SEED=<n>` pins the RNG; the committed
/// `.proptest-regressions` seeds are re-run before any novel case.
fn cases(default: u32) -> u32 {
    std::env::var("LAMINAR_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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

fn arb_row() -> impl Strategy<Value = RowSpec> {
    (0u64..16, any::<bool>(), 0u8..4).prop_map(|(id, wf, variant)| RowSpec { id, wf, variant })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_row().prop_map(Op::Upsert),
        2 => proptest::collection::vec(arb_row(), 0..5).prop_map(Op::Bulk),
        2 => arb_row().prop_map(Op::Describe),
        3 => (0u64..16, any::<bool>()).prop_map(|(id, wf)| Op::Remove { id, wf }),
        1 => Just(Op::Clear),
    ]
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// Upsert/bulk/describe/remove/clear fuzz: after any op interleaving, every
    /// modality's bounded ranking equals the naive full-sort prefix exactly
    /// (bit-equal scores, same ids, same order — ties resolved
    /// identically), the engine matches the model, and the generation
    /// counted the mutations.
    #[test]
    fn cell_matches_naive_model_after_any_op_sequence(
        ops in proptest::collection::vec(arb_op(), 0..40),
    ) {
        let (ix, model) = apply(&ops);
        prop_assert_eq!(ix.len(), model.entries.len());
        prop_assert_eq!(ix.counts(), model.counts());
        prop_assert_eq!(ix.generation(), model.mutations);
        assert_engine_matches_model(&ix, &model);

        let emb = UniXcoderSim::new();
        let q_text = emb.embed("an entry that does things with variants");
        let q_spt = Spt::parse_source("total += item * 2\n").feature_vec();
        let q_code = ReaccSim::new().embed_code("for item in data:\n    total += item * 2\n");

        for kind in [None, Some(EntryKind::Pe), Some(EntryKind::Workflow)] {
            for k in [0usize, 1, 7, usize::MAX] {
                prop_assert_eq!(
                    ix.rank_semantic(&q_text, kind, k),
                    model.rank(|e| dot(&q_text.values, &e.desc.values), kind, k),
                    "semantic kind={:?} k={}", kind, k
                );
                prop_assert_eq!(
                    ix.rank_spt(&q_spt, kind, k),
                    model.rank_spt(&q_spt, kind, k),
                    "spt kind={:?} k={}", kind, k
                );
                prop_assert_eq!(
                    ix.rank_reacc(&q_code, kind, k),
                    model.rank(|e| dot(&q_code.values, &e.reacc.values), kind, k),
                    "reacc kind={:?} k={}", kind, k
                );
            }
        }
    }

    /// The threshold scans equal filtering the full ranking.
    #[test]
    fn threshold_scans_equal_filtered_full_ranking(
        ops in proptest::collection::vec(arb_op(), 0..30),
        min_spt in 0.0f32..8.0,
        min_cos in -0.5f32..1.0,
    ) {
        let (ix, _) = apply(&ops);
        let q_spt = Spt::parse_source("total += item * 2\n").feature_vec();
        let q_code = ReaccSim::new().embed_code("for item in data:\n    total += item * 2\n");
        let full_spt: Vec<IndexHit> = ix
            .rank_spt(&q_spt, Some(EntryKind::Pe), usize::MAX)
            .into_iter()
            .filter(|h| h.score >= min_spt)
            .collect();
        prop_assert_eq!(ix.rank_spt_above(&q_spt, Some(EntryKind::Pe), min_spt), full_spt);
        let full_reacc: Vec<IndexHit> = ix
            .rank_reacc(&q_code, None, usize::MAX)
            .into_iter()
            .filter(|h| h.score >= min_cos)
            .collect();
        prop_assert_eq!(ix.rank_reacc_above(&q_code, None, min_cos), full_reacc);
    }
}

/// Deterministic pseudo-random normalised vector (no rand dependency on
/// the hot path of this test — an LCG is plenty).
fn lcg_vec(seed: &mut u64) -> DenseVec {
    let mut values = vec![0.0f32; DIM];
    for v in &mut values {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((*seed >> 33) as f32 / (1u64 << 31) as f32) - 1.0;
    }
    DenseVec::normalised(values)
}

/// Past `PAR_SCAN_THRESHOLD` the dense modalities rank on the
/// rayon-partitioned path; the output must be bit-identical to a serial
/// full sort. (`upsert_embedded` posts each PE's SPT vector in the engine,
/// so the SPT ranking sees these rows too.) Only 8 distinct SPT vectors across ~4k rows makes ties the
/// common case, so the bounded selection's tie-break (and, for the dense
/// scans, the merge order of the per-worker accumulators) is thoroughly
/// exercised.
#[test]
fn parallel_scan_is_bit_identical_to_serial_past_threshold() {
    let n = PAR_SCAN_THRESHOLD + 64;
    let spt_pool: Vec<FeatureVec> = (0..8)
        .map(|i| {
            Spt::parse_source(&format!("def f{i}(x):\n    return x * {i} + {i}\n")).feature_vec()
        })
        .collect();
    let ix = SearchIndexes::new();
    let mut stored: Vec<(u64, DenseVec, FeatureVec, DenseVec)> = Vec::with_capacity(n);
    let mut seed = 0x5eed;
    for i in 0..n as u64 {
        let d = lcg_vec(&mut seed);
        let s = spt_pool[i as usize % spt_pool.len()].clone();
        let r = lcg_vec(&mut seed);
        ix.upsert_embedded(i, EntryKind::Pe, d.clone(), s.clone(), r.clone());
        stored.push((i, d, s, r));
    }
    assert!(
        ix.len() >= PAR_SCAN_THRESHOLD,
        "corpus must force the parallel path"
    );

    let mut seed_q = 0xfeed_u64;
    let q_dense = lcg_vec(&mut seed_q);
    let q_spt = &spt_pool[3];

    // Serial reference: full score + full sort, engine tie-break order.
    let serial = |score_of: &dyn Fn(&(u64, DenseVec, FeatureVec, DenseVec)) -> f32| {
        let mut scored: Vec<(u64, f32)> = stored.iter().map(|e| (e.0, score_of(e))).collect();
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    };

    for k in [1usize, 7, 100] {
        let want: Vec<(u64, f32)> = serial(&|e| dot(&q_dense.values, &e.1.values))
            .into_iter()
            .take(k)
            .collect();
        let got: Vec<(u64, f32)> = ix
            .rank_semantic(&q_dense, Some(EntryKind::Pe), k)
            .into_iter()
            .map(|h| (h.id, h.score))
            .collect();
        assert_eq!(got, want, "semantic k={k}");

        let want: Vec<(u64, f32)> = serial(&|e| q_spt.overlap(&e.2))
            .into_iter()
            .take(k)
            .collect();
        let got: Vec<(u64, f32)> = ix
            .rank_spt(q_spt, Some(EntryKind::Pe), k)
            .into_iter()
            .map(|h| (h.id, h.score))
            .collect();
        assert_eq!(got, want, "spt k={k}");

        let want: Vec<(u64, f32)> = serial(&|e| dot(&q_dense.values, &e.3.values))
            .into_iter()
            .take(k)
            .collect();
        let got: Vec<(u64, f32)> = ix
            .rank_reacc(&q_dense, Some(EntryKind::Pe), k)
            .into_iter()
            .map(|h| (h.id, h.score))
            .collect();
        assert_eq!(got, want, "reacc k={k}");
    }
}
