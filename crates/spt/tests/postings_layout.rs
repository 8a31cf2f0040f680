//! The two posting-list layouts and the two score paths against the
//! row-wise reference.
//!
//! `Postings` stores a list as `(row, count)` pairs or as a one-byte
//! column, by how many rows it covers, and scores a query in `u16` or in
//! `f32`, by its counts and the posted ones. None of that may show: every
//! score must have the bits of `FeatureVec::overlap` against the row's
//! vector, and every ranking built on the scores must be the full sort of
//! those per-row scores (score descending, then id). Checked for
//! `Postings::overlaps`, `SnippetIndex::scored` and `search_vec`, and the
//! server's `rank_spt` / `rank_spt_above`, at every point of an insert /
//! replace / swap-remove / clear churn whose row count rises and falls
//! through both layout thresholds of most lists, over vectors built
//! directly (`FeatureVec { items }`) so they can post counts no parse
//! produces: 255 and 256 around the cell limit, 70,000 as a flat literal
//! does, and 1.5, 0 and −1, which no `u16` slot can take.
//!
//! Plain `#[test]`s over a seeded xorshift, like the sibling suites.

use embed::DenseVec;
use laminar_server::indexes::{EntryKind, IndexHit, SearchIndexes};
use spt::{FeatureVec, Overlaps, Postings};
use std::collections::HashMap;

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

/// Features `0..FEATURES`; feature `f` is in a row with probability about
/// `1 / (1 + f)` in even phases and `1 / (FEATURES - f)` in odd ones, so
/// as rows are replaced the common lists turn rare and the rare common.
const FEATURES: u64 = 24;

/// Counts no parse produces. The first three are integers ≥ 1 (the `u16`
/// path takes them; 256 and 70,000 keep their own list sparse); the last
/// three are not, and send every query to `f32` while posted.
const ODD_COUNTS: [f32; 6] = [255.0, 256.0, 70_000.0, 1.5, 0.0, -1.0];

fn is_exact(count: f32) -> bool {
    count >= 1.0 && count.fract() == 0.0
}

fn vector(rng: &mut Rng, phase: u64, odd: bool) -> FeatureVec {
    let mut items = Vec::new();
    for f in 0..FEATURES {
        let odds = if phase.is_multiple_of(2) {
            1 + f
        } else {
            FEATURES - f
        };
        if rng.below(odds) != 0 {
            continue;
        }
        let count = if odd && rng.below(4) == 0 {
            ODD_COUNTS[rng.below(ODD_COUNTS.len() as u64) as usize]
        } else {
            (1 + rng.below(4)) as f32
        };
        items.push((f, count));
    }
    FeatureVec { items }
}

/// The rows in the holder's slot order: a new id takes the last slot, a
/// replaced one keeps its slot, a removed one's slot goes to the last.
#[derive(Default)]
struct Model {
    rows: Vec<(u64, FeatureVec)>,
    slot: HashMap<u64, usize>,
}

impl Model {
    fn upsert(&mut self, id: u64, vec: FeatureVec) {
        match self.slot.get(&id) {
            Some(&at) => self.rows[at].1 = vec,
            None => {
                self.slot.insert(id, self.rows.len());
                self.rows.push((id, vec));
            }
        }
    }

    fn remove(&mut self, id: u64) -> bool {
        let Some(at) = self.slot.remove(&id) else {
            return false;
        };
        self.rows.swap_remove(at);
        if let Some((moved, _)) = self.rows.get(at) {
            self.slot.insert(*moved, at);
        }
        true
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.slot.clear();
    }

    fn holds_inexact(&self) -> bool {
        self.rows
            .iter()
            .any(|(_, v)| v.items.iter().any(|&(_, c)| !is_exact(c)))
    }

    /// Every row scored on its own, score descending, then id.
    fn ranked(&self, query: &FeatureVec) -> Vec<(u64, f32)> {
        let mut all: Vec<(u64, f32)> = self
            .rows
            .iter()
            .map(|(id, v)| (*id, query.overlap(v)))
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all
    }
}

/// A holder of bare `Postings`, driven the way `SnippetIndex` drives its
/// own: replace is remove + insert in place, remove is a swap-remove.
#[derive(Default)]
struct Mirror {
    postings: Postings,
    rows: Vec<FeatureVec>,
    slot: HashMap<u64, usize>,
}

impl Mirror {
    fn upsert(&mut self, id: u64, vec: FeatureVec) {
        match self.slot.get(&id) {
            Some(&at) => {
                self.postings.remove(at, &self.rows[at]);
                self.postings.insert(at, &vec);
                self.rows[at] = vec;
            }
            None => {
                let at = self.rows.len();
                self.postings.insert(at, &vec);
                self.slot.insert(id, at);
                self.rows.push(vec);
            }
        }
    }

    fn remove(&mut self, id: u64, model: &Model) {
        let Some(at) = self.slot.remove(&id) else {
            return;
        };
        let gone = self.rows.swap_remove(at);
        self.postings.remove(at, &gone);
        if let Some(moved) = self.rows.get(at) {
            self.postings.relabel(self.rows.len(), at, moved);
            // The model already holds the moved row's id at `at`.
            self.slot.insert(model.rows[at].0, at);
        }
    }

    fn clear(&mut self) {
        self.postings.clear();
        self.rows.clear();
        self.slot.clear();
    }
}

fn hit_bits(hits: &[IndexHit]) -> Vec<(u64, u32)> {
    hits.iter()
        .inspect(|h| assert_eq!(h.kind, EntryKind::Pe))
        .map(|h| (h.id, h.score.to_bits()))
        .collect()
}

fn want_bits<'a>(all: impl IntoIterator<Item = &'a (u64, f32)>) -> Vec<(u64, u32)> {
    all.into_iter().map(|&(id, s)| (id, s.to_bits())).collect()
}

/// Which paths the checks saw: `[u16, f32]`.
type Paths = [usize; 2];

fn check(
    ix: &SearchIndexes,
    mirror: &Mirror,
    model: &Model,
    queries: &[FeatureVec],
    what: &str,
    paths: &mut Paths,
) {
    let engine = ix.engine();
    let index = engine.index();
    assert_eq!(index.len(), model.rows.len(), "{what}");
    for (q, query) in queries.iter().enumerate() {
        let what = format!("{what} query {q}");
        let per_row: Vec<u32> = model
            .rows
            .iter()
            .map(|(_, v)| query.overlap(v).to_bits())
            .collect();
        let rows = model.rows.len();
        let mirrored: Vec<u32> = match mirror.postings.scores(query, rows) {
            Overlaps::Counts(scores) => {
                paths[0] += 1;
                scores.iter().map(|&s| f32::from(s).to_bits()).collect()
            }
            Overlaps::Floats(scores) => {
                paths[1] += 1;
                scores.iter().map(|s| s.to_bits()).collect()
            }
        };
        assert_eq!(mirrored, per_row, "scores {what}");
        let overlaps: Vec<u32> = mirror
            .postings
            .overlaps(query, rows)
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(overlaps, per_row, "overlaps {what}");
        let scored: Vec<(u64, u32)> = index
            .scored(query)
            .map(|s| (s.id, s.score.to_bits()))
            .collect();
        let slotted: Vec<(u64, u32)> = model
            .rows
            .iter()
            .zip(&per_row)
            .map(|((id, _), &bits)| (*id, bits))
            .collect();
        assert_eq!(scored, slotted, "scored {what}");

        let all = model.ranked(query);
        for top_n in [1, 7, 50, usize::MAX] {
            let want = if query.is_empty() {
                Vec::new()
            } else {
                want_bits(all.iter().filter(|h| h.1 > 0.0).take(top_n))
            };
            let got: Vec<(u64, u32)> = index
                .search_vec(query, top_n)
                .iter()
                .map(|h| (h.id, h.score.to_bits()))
                .collect();
            assert_eq!(got, want, "search_vec {what} top_n {top_n}");
        }
        for k in [0, 1, 7, 50, usize::MAX] {
            assert_eq!(
                hit_bits(&ix.rank_spt(query, None, k)),
                want_bits(all.iter().take(k)),
                "rank_spt {what} k {k}"
            );
        }
        for min in [-1.0f32, 0.0, 0.5, 1.0, 6.0, 6.5, 300.0, 1e9] {
            assert_eq!(
                hit_bits(&ix.rank_spt_above(query, Some(EntryKind::Pe), min)),
                want_bits(all.iter().filter(|h| h.1 >= min)),
                "rank_spt_above {what} min {min}"
            );
        }
    }
}

fn queries(rng: &mut Rng) -> Vec<FeatureVec> {
    let mut qs: Vec<FeatureVec> = (0..4).map(|p| vector(rng, p, false)).collect();
    // Every feature at once, with counts from 1 to past every cell.
    qs.push(FeatureVec {
        items: (0..FEATURES).map(|f| (f, (1 + f * 13) as f32)).collect(),
    });
    // A total above 65,535: the f32 path with every posted count exact.
    qs.push(FeatureVec {
        items: vec![(0, 70_000.0), (1, 2.0), (FEATURES - 1, 300.0)],
    });
    // Query counts no u16 slot takes.
    qs.push(FeatureVec {
        items: vec![(0, 1.5), (2, -1.0), (3, 0.0), (FEATURES - 2, 2.0)],
    });
    qs.push(FeatureVec::default());
    qs
}

#[test]
fn layouts_and_score_paths_equal_the_row_wise_overlap_under_churn() {
    let mut rng = Rng(0x5eed_c0de);
    let ix = SearchIndexes::new();
    let mut mirror = Mirror::default();
    let mut model = Model::default();
    let queries = queries(&mut rng);
    let mut paths: Paths = [0, 0];
    let mut step = 0;
    // Grow, shrink, grow past the first peak, shrink to a handful: most
    // lists cross `len × 8 = rows` on the way up and `len × 16 = rows` on
    // the way down, both ways, and the odd phases flip which lists are
    // common. Odd counts are posted in phases 2 and 3 only, then removed.
    for (phase, target) in [(0u64, 160usize), (1, 12), (2, 260), (3, 5), (4, 90)] {
        let odd = phase == 2 || phase == 3;
        while model.rows.len() != target {
            step += 1;
            let grow = model.rows.len() < target;
            // Six in ten steps move towards the target, two replace a
            // row in place, two move away from it.
            let held = |rng: &mut Rng, model: &Model| {
                model.rows[rng.below(model.rows.len() as u64) as usize].0
            };
            match (rng.below(10), grow) {
                (0..=5, true) | (8.., false) => {
                    let id = loop {
                        let id = rng.below(1000);
                        if !model.slot.contains_key(&id) {
                            break id;
                        }
                    };
                    let vec = vector(&mut rng, phase, odd);
                    model.upsert(id, vec.clone());
                    mirror.upsert(id, vec.clone());
                    ix.upsert_embedded(id, EntryKind::Pe, DenseVec::zero(), vec, DenseVec::zero());
                }
                (6..=7, _) if !model.rows.is_empty() => {
                    let id = held(&mut rng, &model);
                    let vec = vector(&mut rng, phase, odd);
                    model.upsert(id, vec.clone());
                    mirror.upsert(id, vec.clone());
                    ix.upsert_embedded(id, EntryKind::Pe, DenseVec::zero(), vec, DenseVec::zero());
                }
                _ if !model.rows.is_empty() => {
                    let id = held(&mut rng, &model);
                    model.remove(id);
                    mirror.remove(id, &model);
                    ix.remove(id, EntryKind::Pe);
                }
                _ => {}
            }
            if step % 7 == 0 {
                check(
                    &ix,
                    &mirror,
                    &model,
                    &queries,
                    &format!("step {step} phase {phase}"),
                    &mut paths,
                );
            }
        }
        if phase == 3 {
            let odd_ids: Vec<u64> = model
                .rows
                .iter()
                .filter(|(_, v)| v.items.iter().any(|&(_, c)| !is_exact(c)))
                .map(|(id, _)| *id)
                .collect();
            for id in odd_ids {
                model.remove(id);
                mirror.remove(id, &model);
                ix.remove(id, EntryKind::Pe);
            }
            assert!(!model.holds_inexact());
        }
        check(
            &ix,
            &mirror,
            &model,
            &queries,
            &format!("end of phase {phase}"),
            &mut paths,
        );
    }
    ix.clear();
    mirror.clear();
    model.clear();
    check(&ix, &mirror, &model, &queries, "cleared", &mut paths);
    for (id, vec) in [
        (3, vector(&mut rng, 0, true)),
        (1, vector(&mut rng, 1, false)),
    ] {
        model.upsert(id, vec.clone());
        mirror.upsert(id, vec.clone());
        ix.upsert_embedded(id, EntryKind::Pe, DenseVec::zero(), vec, DenseVec::zero());
    }
    check(&ix, &mirror, &model, &queries, "refilled", &mut paths);
    assert!(
        paths[0] > 100 && paths[1] > 100,
        "both score paths are covered: {paths:?}"
    );
}

/// A swap-remove relabels the last row, whose features sit in dense
/// lists (every row shares them) and sparse ones (only it has them).
#[test]
fn relabelling_a_row_posted_in_dense_and_sparse_lists() {
    let mut mirror = Mirror::default();
    let mut model = Model::default();
    let ix = SearchIndexes::new();
    let shared = |extra: &[(u64, f32)]| {
        let mut items = vec![(0, 2.0), (1, 1.0)];
        items.extend_from_slice(extra);
        FeatureVec { items }
    };
    let mut rows: Vec<(u64, FeatureVec)> = (10..50)
        .map(|id| (id, shared(&[(2, (1 + id % 3) as f32)])))
        .collect();
    // The last row: the two shared features, one of its own, and one
    // whose count 256 keeps its list sparse.
    rows.push((99, shared(&[(7, 3.0), (8, 256.0)])));
    for (id, vec) in rows {
        model.upsert(id, vec.clone());
        mirror.upsert(id, vec.clone());
        ix.upsert_embedded(id, EntryKind::Pe, DenseVec::zero(), vec, DenseVec::zero());
    }
    let queries = vec![
        FeatureVec {
            items: vec![(0, 1.0), (2, 2.0), (7, 5.0), (8, 300.0)],
        },
        FeatureVec {
            items: vec![(1, 1.0), (8, 70_000.0)],
        },
    ];
    let mut paths: Paths = [0, 0];
    for id in [20, 31, 99, 10] {
        assert!(model.remove(id));
        mirror.remove(id, &model);
        ix.remove(id, EntryKind::Pe);
        check(
            &ix,
            &mirror,
            &model,
            &queries,
            &format!("removed {id}"),
            &mut paths,
        );
    }
    assert_eq!(paths, [4, 4]);
}

/// Features of the held-snapshot churn: enough lists (about fifty blocks)
/// that a write leaves most blocks alone.
const WIDE_FEATURES: u64 = 400;

/// Six-odd random features of `0..WIDE_FEATURES`, counts 1–4, one in
/// eight rows with an odd count.
fn wide_vector(rng: &mut Rng) -> FeatureVec {
    let mut ids: Vec<u64> = (0..3 + rng.below(6))
        .map(|_| rng.below(WIDE_FEATURES))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let odd = rng.below(8) == 0;
    let items = ids
        .into_iter()
        .map(|f| {
            let count = if odd && rng.below(3) == 0 {
                ODD_COUNTS[rng.below(ODD_COUNTS.len() as u64) as usize]
            } else {
                (1 + rng.below(4)) as f32
            };
            (f, count)
        })
        .collect();
    FeatureVec { items }
}

fn score_bits(p: &Postings, query: &FeatureVec, rows: usize) -> Vec<u32> {
    match p.scores(query, rows) {
        Overlaps::Counts(scores) => scores.iter().map(|&s| f32::from(s).to_bits()).collect(),
        Overlaps::Floats(scores) => scores.iter().map(|s| s.to_bits()).collect(),
    }
}

/// The blocks `p` holds the lists of `vecs`' features in.
fn blocks_of<'a>(p: &Postings, vecs: impl IntoIterator<Item = &'a FeatureVec>) -> Vec<usize> {
    vecs.into_iter()
        .flat_map(|v| v.items.iter().filter_map(|&(f, _)| p.block_of(f)))
        .collect()
}

/// A held clone of the postings is a snapshot. Seeded upserts, removes
/// and the relabels a swap-remove makes, applied to the original after
/// the clone, must leave the clone scoring bit for bit like a deep copy
/// taken at hold time (its rows posted afresh) and like the row-wise
/// overlap. A block that holds no list those writes touched must still be
/// the very block the clone holds (`Arc::ptr_eq`), and a touched one a
/// copy. A list the writes empty hands its slot on, so blocks grow only
/// when no slot is free: never past one per eight lists at the peak. And
/// `clear` drops every block. The same churn through `SearchIndexes`
/// leaves a held engine ranking like a fresh index of the held rows.
#[test]
fn a_held_clone_ranks_as_at_hold_time_and_shares_every_untouched_block() {
    let mut rng = Rng(0xb10c_5eed);
    let mut mirror = Mirror::default();
    let mut model = Model::default();
    let ix = SearchIndexes::new();
    let queries: Vec<FeatureVec> = (0..6)
        .map(|_| wide_vector(&mut rng))
        .chain([FeatureVec {
            items: (0..WIDE_FEATURES).step_by(7).map(|f| (f, 2.0)).collect(),
        }])
        .collect();
    let (mut shared_checked, mut copied_checked, mut peak_lists) = (0, 0, 0);
    for round in 0..120 {
        let held = mirror.postings.clone();
        let held_rows = mirror.rows.clone();
        let held_model: Vec<(u64, FeatureVec)> = model.rows.clone();
        let held_engine = ix.engine();
        let mut touched = Vec::new();
        // Grow for two thirds of the rounds, then shrink.
        let grow = if round < 80 { 8 } else { 3 };
        for _ in 0..1 + rng.below(3) {
            let roll = rng.below(10);
            let before: Vec<FeatureVec>;
            if roll < grow || model.rows.is_empty() {
                let id = loop {
                    let id = rng.below(10_000);
                    if !model.slot.contains_key(&id) {
                        break id;
                    }
                };
                let vec = wide_vector(&mut rng);
                before = vec![vec.clone()];
                touched.extend(blocks_of(&mirror.postings, &before));
                model.upsert(id, vec.clone());
                mirror.upsert(id, vec.clone());
                ix.upsert_embedded(id, EntryKind::Pe, DenseVec::zero(), vec, DenseVec::zero());
            } else if roll == 9 {
                let id = model.rows[rng.below(model.rows.len() as u64) as usize].0;
                let vec = wide_vector(&mut rng);
                before = vec![model.rows[model.slot[&id]].1.clone(), vec.clone()];
                touched.extend(blocks_of(&mirror.postings, &before));
                model.upsert(id, vec.clone());
                mirror.upsert(id, vec.clone());
                ix.upsert_embedded(id, EntryKind::Pe, DenseVec::zero(), vec, DenseVec::zero());
            } else {
                let id = model.rows[rng.below(model.rows.len() as u64) as usize].0;
                // The removed row and the last row, which a swap-remove
                // relabels into its slot.
                let last = model.rows.last().expect("a row").1.clone();
                before = vec![model.rows[model.slot[&id]].1.clone(), last];
                touched.extend(blocks_of(&mirror.postings, &before));
                model.remove(id);
                mirror.remove(id, &model);
                ix.remove(id, EntryKind::Pe);
            }
            // Lists opened by the write: their blocks are written too.
            touched.extend(blocks_of(&mirror.postings, &before));
            let live: std::collections::HashSet<u64> = model
                .rows
                .iter()
                .flat_map(|(_, v)| v.items.iter().map(|&(f, _)| f))
                .collect();
            peak_lists = peak_lists.max(live.len());
            assert!(
                mirror.postings.blocks() <= peak_lists.div_ceil(8),
                "round {round}: {} blocks for a peak of {peak_lists} lists",
                mirror.postings.blocks()
            );
        }
        for b in 0..held.blocks() {
            if touched.contains(&b) {
                assert!(
                    !held.shares_block(&mirror.postings, b),
                    "round {round} block {b}"
                );
                copied_checked += 1;
            } else {
                assert!(
                    held.shares_block(&mirror.postings, b),
                    "round {round} block {b}"
                );
                shared_checked += 1;
            }
        }
        let mut deep = Postings::default();
        for (row, v) in held_rows.iter().enumerate() {
            deep.insert(row, v);
        }
        let fresh = SearchIndexes::new();
        for (id, v) in &held_model {
            fresh.upsert_embedded(
                *id,
                EntryKind::Pe,
                DenseVec::zero(),
                v.clone(),
                DenseVec::zero(),
            );
        }
        let fresh_engine = fresh.engine();
        for (q, query) in queries.iter().enumerate() {
            let what = format!("round {round} query {q}");
            let per_row: Vec<u32> = held_rows
                .iter()
                .map(|v| query.overlap(v).to_bits())
                .collect();
            assert_eq!(
                score_bits(&held, query, held_rows.len()),
                per_row,
                "held {what}"
            );
            assert_eq!(
                score_bits(&deep, query, held_rows.len()),
                per_row,
                "deep {what}"
            );
            let now: Vec<u32> = mirror
                .rows
                .iter()
                .map(|v| query.overlap(v).to_bits())
                .collect();
            assert_eq!(
                score_bits(&mirror.postings, query, mirror.rows.len()),
                now,
                "{what}"
            );
            let ranked = |e: &aroma::AromaEngine| -> Vec<(u64, u32)> {
                e.index()
                    .ranked(query, usize::MAX, |_| true)
                    .iter()
                    .map(|h| (h.id, h.score.to_bits()))
                    .collect()
            };
            assert_eq!(ranked(&held_engine), ranked(&fresh_engine), "engine {what}");
        }
        for (id, v) in &held_model {
            assert_eq!(
                held_engine.index().vector(*id),
                Some(v),
                "round {round} id {id}"
            );
        }
    }
    assert!(
        shared_checked > 1_000 && copied_checked > 300,
        "both sides are checked: shared {shared_checked}, copied {copied_checked}"
    );
    let held = mirror.postings.clone();
    mirror.clear();
    assert_eq!(mirror.postings.blocks(), 0);
    assert!((0..held.blocks()).all(|b| !held.shares_block(&mirror.postings, b)));
}

/// A list that empties frees its slot, and the next new feature takes it
/// before any block is opened.
#[test]
fn an_emptied_slot_is_reused_before_a_block_is_opened() {
    let mut p = Postings::default();
    let common = FeatureVec {
        items: (0..20).map(|f| (f, 1.0)).collect(),
    };
    let own = FeatureVec {
        items: (100..105).map(|f| (f, 2.0)).collect(),
    };
    p.insert(0, &common);
    p.insert(1, &own);
    let blocks = p.blocks();
    let freed: Vec<usize> = (100..105).filter_map(|f| p.block_of(f)).collect();
    p.remove(1, &own);
    assert!((100..105).all(|f| p.block_of(f).is_none()));
    let newcomer = FeatureVec {
        items: (200..205).map(|f| (f, 3.0)).collect(),
    };
    p.insert(1, &newcomer);
    assert_eq!(p.blocks(), blocks, "no block opened");
    let mut taken: Vec<usize> = (200..205).filter_map(|f| p.block_of(f)).collect();
    let mut freed = freed;
    taken.sort_unstable();
    freed.sort_unstable();
    assert_eq!(taken, freed, "the freed slots, and only those");
    assert_eq!(
        p.overlaps(&newcomer, 2),
        vec![0.0, newcomer.overlap(&newcomer)]
    );
}
