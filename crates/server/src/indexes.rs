//! The search service's in-memory embedding indexes — a top-k vector
//! engine over three modalities.
//!
//! The registry keeps what users wrote; every vector here is analysed
//! from a row's code and description ([`Analysis::of`]) at registration,
//! or at start-up on a row `index.cache` does not hold, and updated
//! incrementally on every registration or removal. Three indexes, one per
//! search modality:
//!
//! * description embeddings (UniXcoderSim) — text-to-code search (§V-B);
//! * SPT feature vectors (Aroma) — structural code recommendation (§VI);
//! * ReACC code embeddings — the `--embedding_type llm` path (Fig. 9).
//!
//! # Architecture
//!
//! **Storage.** Each dense modality is a `Slab`: rows in fixed blocks,
//! each block dimension-major (`block[d * BLOCK + r]`) behind its own
//! `Arc`. Both embedders are hashed bags, so a query has few non-zero
//! dimensions (about 21 of 256 for a search, 57 for a ReACC snippet); the
//! one scan (`Slab::scores`) reads, per block, only those dimensions'
//! columns — contiguous runs it multiplies into eight lane accumulators —
//! and folds the lanes in [`embed::dense::dot`]'s order, so every score
//! has the bits of `dot(query, row)` at a fraction of the reads. An
//! id→slot map gives O(1) upsert (a strided overwrite of the row inside
//! its block) and O(DIM) deletion (swap-remove: the last row is copied
//! into the vacated slot, and a block that empties is dropped). The
//! sparse SPT modality is not stored here at all: the served
//! [`AromaEngine`]'s [`aroma::SnippetIndex`] holds the one posting index
//! over the PE rows — per feature id, `(slot, count)` pairs or, for a
//! feature an eighth of the rows share, a one-byte count column — with a
//! contiguous id column beside it, and [`rank_spt`] / [`rank_spt_above`]
//! rank through its one ranking, [`aroma::SnippetIndex::ranked`]. Its
//! scores are exact integers (`u16` slots) whenever the counts allow, and
//! otherwise per row the same terms in the same order as
//! [`FeatureVec::overlap`], so either way bit-identical to a row-by-row
//! scan's. Workflows have dense rows only: the paper recommends a
//! workflow by its member PEs' scores (§VI-A,
//! [`sweep_workflows`](crate::sweep_workflows)), never by a vector of its
//! own, so nothing would query one.
//!
//! [`rank_spt`]: SearchIndexes::rank_spt
//! [`rank_spt_above`]: SearchIndexes::rank_spt_above
//!
//! **Concurrency** is read-copy-update: the state lives in an
//! `Arc<IndexState>` behind a lock held only long enough to clone the
//! `Arc`. Queries scan their snapshot entirely lock-free; writers mutate
//! through [`Arc::make_mut`], which is in-place when no query holds a
//! snapshot and a copy-on-write clone when one does. Registrations
//! therefore never block searches and vice versa.
//!
//! **Selection** is bounded: every ranking API takes `k` and runs a
//! size-k heap over the scan ([`embed::topk::TopK`]), O(n log k) time and
//! O(k) memory — no full-corpus sort; the total `(score, key)` order makes
//! the result the prefix of the full-sort ranking. The SPT rankings
//! select by counting over their integer scores instead (see
//! [`aroma::SnippetIndex::ranked`]); their one per-query allocation
//! proportional to the corpus is the score slot per PE, two bytes.
//!
//! **One cell.** The dense state above and the engine (PE names and
//! *source code*, the posting index and id column and, per PE, the
//! statement granules prune & rerank works from, parsed on first use)
//! live in one cell behind one lock, each behind its own `Arc`. Every
//! write API feeds both from the same analysed row — the engine is handed
//! the row's SPT vector, it never re-derives it — and bumps the cell's
//! single monotone `generation` exactly once, so the two can never be
//! observed out of step. Readers clone only the `Arc` they scan: a dense
//! search in flight never forces a copy of the engine, and an SPT read in
//! flight never forces a copy of the slabs. A copy-on-write clone of the
//! dense state copies the key and kind columns, the slot map and one
//! pointer per block; the write then copies the one block of each slab it
//! touches, never a slab. One of the engine copies its id column, its two
//! slot maps and one pointer per block of posting lists and of entries;
//! the write then copies the blocks it touches (sources, vectors and
//! memoised granules are shared between snapshots). At the benchmark
//! fixture's 6,000 csn PEs, `cargo run -p laminar-bench --release --bin
//! eval_write_stalls` reads (medians, 2-vCPU shared container): a
//! dense-state clone 0.010 ms, an engine clone 0.07–0.09 ms, a PE write
//! against a held engine snapshot 0.40–0.48 ms and 0.015–0.018 ms with
//! nothing held.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use aroma::{AromaConfig, AromaEngine, Snippet};
use embed::topk::{ScoredRow, TopK};
use embed::{DenseVec, ReaccSim, UniXcoderSim, DIM};
use spt::{FeatureVec, Spt};

/// What kind of registry row an index entry points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    Pe,
    Workflow,
}

/// Encode `(id, kind)` into the stable ranking/tie-break key. Keeps id
/// order primary so ties still break by ascending id, with kind as the
/// final discriminant (the old full-sort left same-score same-id
/// cross-kind order unspecified).
#[inline]
fn entry_key(id: u64, kind: EntryKind) -> u64 {
    debug_assert!(id < u64::MAX / 2, "registry ids stay far below 2^63");
    (id << 1) | matches!(kind, EntryKind::Workflow) as u64
}

#[inline]
fn key_id(key: u64) -> u64 {
    key >> 1
}

/// Rows per [`Slab`] block. Chosen by measurement (CHANGES.md, PR 24): the
/// scan costs the same from 64 to 1,024 rows a block and twice that at 32,
/// and 64 adds nothing to time-to-listening on an empty directory — so the
/// smallest copy-on-write unit that scans at full speed.
const BLOCK: usize = 64;

/// One dense modality: `DIM`-wide `f32` rows in blocks of `BLOCK`, each
/// block dimension-major (`block[d * BLOCK + r]` is dimension `d` of the
/// block's row `r`) behind its own `Arc`. There are exactly as many blocks
/// as the rows need; how many rows that is, the key column knows. Values
/// past the last row in the last block are stale and never scored.
#[derive(Clone, Default)]
struct Slab {
    blocks: Vec<Arc<[f32]>>,
}

impl Slab {
    /// Row `row`'s values, gathered from its block's columns.
    fn row(&self, row: usize) -> [f32; DIM] {
        let block = &self.blocks[row / BLOCK];
        std::array::from_fn(|d| block[d * BLOCK + row % BLOCK])
    }

    /// Write `values` as row `row`: an overwrite, or an append when `row`
    /// is one past the last. Copies the one block it touches if a snapshot
    /// still shares it.
    fn set(&mut self, row: usize, values: &[f32]) {
        debug_assert_eq!(values.len(), DIM);
        if row / BLOCK == self.blocks.len() {
            self.blocks.push(vec![0.0; DIM * BLOCK].into());
        }
        let block = Arc::make_mut(&mut self.blocks[row / BLOCK]);
        for (column, &v) in block.chunks_exact_mut(BLOCK).zip(values) {
            column[row % BLOCK] = v;
        }
    }

    /// Move row `last` (the final one) into `row`'s place and drop it,
    /// with its block if that empties.
    fn swap_remove(&mut self, row: usize, last: usize) {
        if row != last {
            let moved = self.row(last);
            self.set(row, &moved);
        }
        self.blocks.truncate(last.div_ceil(BLOCK));
    }

    /// The one dense scan: `emit(row, score)` for rows `0..n` in order,
    /// where `score` has the bits of `embed::dense::dot(query, row)` for
    /// finite rows. Per block it walks only the query's non-zero
    /// dimensions, ascending, adding `q[d] * column_d` into accumulator
    /// array `d % 8`, then folds the eight arrays in order — per row the
    /// products `dot` adds, to the same lanes, in the same order. A term
    /// `dot` adds and this skips is `0 * x`, an exact zero, and no lane is
    /// ever `-0.0` (each starts at `+0.0`), so adding it changes no bit.
    ///
    /// A query with no non-zero dimension scores nothing: it would score 0
    /// against every row, and a ranking of that is `k` arbitrary rows.
    fn scores(&self, query: &[f32], n: usize, mut emit: impl FnMut(usize, f32)) {
        debug_assert_eq!(query.len(), DIM);
        debug_assert_eq!(self.blocks.len(), n.div_ceil(BLOCK));
        let nonzero: Vec<(usize, f32)> = query
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, q)| q != 0.0)
            .collect();
        if nonzero.is_empty() {
            return;
        }
        for (b, block) in self.blocks.iter().enumerate() {
            let mut lanes = [[0.0f32; BLOCK]; 8];
            for &(d, q) in &nonzero {
                let column = &block[d * BLOCK..(d + 1) * BLOCK];
                for (acc, x) in lanes[d % 8].iter_mut().zip(column) {
                    *acc += q * x;
                }
            }
            let mut sums = [0.0f32; BLOCK];
            for lane in &lanes {
                for (sum, acc) in sums.iter_mut().zip(lane) {
                    *sum += acc;
                }
            }
            let base = b * BLOCK;
            for (r, &score) in sums.iter().enumerate().take(n - base) {
                emit(base + r, score);
            }
        }
    }
}

/// One immutable snapshot of the two dense modalities. Cloned
/// (copy-on-write) only when a writer mutates while a query still holds
/// the previous snapshot; the clone shares every slab block, and the write
/// then copies the one block it touches.
#[derive(Clone, Default)]
struct IndexState {
    /// `entry_key(id, kind)` per row — ranking tie-break + slot-map key.
    keys: Vec<u64>,
    kinds: Vec<EntryKind>,
    /// The registry content hash each row was analysed from
    /// ([`IndexRow::content`]); 0 where none is known.
    contents: Vec<u64>,
    /// Description embeddings, `keys.len()` rows.
    desc: Slab,
    /// ReACC code embeddings, `keys.len()` rows.
    reacc: Slab,
    /// entry key → row.
    slots: HashMap<u64, usize>,
    pes: usize,
    workflows: usize,
}

impl IndexState {
    fn upsert(&mut self, new: &IndexRow) {
        let kind = new.kind();
        let key = entry_key(new.id, kind);
        let row = match self.slots.entry(key) {
            MapEntry::Occupied(e) => *e.get(),
            MapEntry::Vacant(e) => {
                let row = *e.insert(self.keys.len());
                self.keys.push(key);
                self.kinds.push(kind);
                self.contents.push(0);
                match kind {
                    EntryKind::Pe => self.pes += 1,
                    EntryKind::Workflow => self.workflows += 1,
                }
                row
            }
        };
        self.contents[row] = new.content;
        self.desc.set(row, &new.desc.values);
        self.reacc.set(row, &new.reacc.values);
    }

    /// Overwrite the description embedding of an indexed row; a row that
    /// is not indexed stays absent. The row's content hash becomes unknown.
    fn set_desc(&mut self, id: u64, kind: EntryKind, desc: &DenseVec) {
        if let Some(&row) = self.slots.get(&entry_key(id, kind)) {
            self.desc.set(row, &desc.values);
            self.contents[row] = 0;
        }
    }

    fn remove(&mut self, id: u64, kind: EntryKind) {
        let key = entry_key(id, kind);
        let Some(row) = self.slots.remove(&key) else {
            return;
        };
        match kind {
            EntryKind::Pe => self.pes -= 1,
            EntryKind::Workflow => self.workflows -= 1,
        }
        let last = self.keys.len() - 1;
        self.keys.swap_remove(row);
        self.kinds.swap_remove(row);
        self.contents.swap_remove(row);
        self.desc.swap_remove(row, last);
        self.reacc.swap_remove(row, last);
        if row != last {
            self.slots.insert(self.keys[row], row);
        }
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.kinds.clear();
        self.contents.clear();
        self.desc.blocks.clear();
        self.reacc.blocks.clear();
        self.slots.clear();
        self.pes = 0;
        self.workflows = 0;
    }

    #[inline]
    fn accepts(&self, row: usize, kind: Option<EntryKind>) -> bool {
        kind.is_none_or(|k| self.kinds[row] == k)
    }
}

/// Every vector the indexes hold of one registry row.
#[derive(Debug)]
pub struct Analysis {
    /// UniXcoder embedding of the description.
    pub desc: DenseVec,
    /// ReACC embedding of the code.
    pub reacc: DenseVec,
    /// Aroma SPT features of the code; `Some` exactly for a PE.
    pub spt: Option<FeatureVec>,
}

impl Analysis {
    /// The one analysis of a registry row, from what its user wrote:
    /// registration runs it on a submission, the warm load on a row
    /// `index.cache` does not hold. The analysers are deterministic, so
    /// both give the same bits.
    pub fn of(kind: EntryKind, code: &str, description: &str) -> Analysis {
        Analysis {
            desc: UniXcoderSim::new().embed_text(description),
            reacc: ReaccSim::new().embed_code(code),
            spt: (kind == EntryKind::Pe).then(|| Spt::parse_source(code).feature_vec()),
        }
    }

    /// The index row of registry row `id` with content hash `content`; a
    /// PE's engine entry posts `name` and `code` under its SPT vector.
    pub fn into_row(self, id: u64, content: u64, name: &str, code: &str) -> IndexRow {
        IndexRow {
            id,
            desc: self.desc,
            reacc: self.reacc,
            pe: self.spt.map(|spt| PeSnippet {
                name: name.to_string(),
                code: code.to_string(),
                spt,
            }),
            content,
        }
    }
}

/// One analysed registry row, ready to index: the two dense embeddings
/// for the slabs and — on a PE row — what the Aroma engine indexes.
/// Workflow rows have no such part (workflow-scope recommendations
/// aggregate PE hits over membership).
#[derive(Debug, Clone)]
pub struct IndexRow {
    pub id: u64,
    pub desc: DenseVec,
    pub reacc: DenseVec,
    /// `Some` makes this a PE row, `None` a workflow row.
    pub pe: Option<PeSnippet>,
    /// The content hash ([`crate::index_cache::content_hash`]) of the
    /// registry row these vectors were analysed from, kept beside them
    /// so the index cache can tell later whether they still apply; 0
    /// when the caller has no committed row at hand.
    pub content: u64,
}

/// The engine's share of a PE row: the name and source it cuts into
/// granules for prune & rerank, posted under the row's SPT vector.
#[derive(Debug, Clone)]
pub struct PeSnippet {
    pub name: String,
    pub code: String,
    pub spt: FeatureVec,
}

impl IndexRow {
    /// A PE row whose ReACC embedding is computed from `code` here.
    pub fn pe(id: u64, name: &str, code: &str, desc: DenseVec, spt: FeatureVec) -> Self {
        IndexRow {
            id,
            desc,
            reacc: ReaccSim::new().embed_code(code),
            pe: Some(PeSnippet {
                name: name.to_string(),
                code: code.to_string(),
                spt,
            }),
            content: 0,
        }
    }

    /// A workflow row whose ReACC embedding is computed from `code` here.
    pub fn workflow(id: u64, code: &str, desc: DenseVec) -> Self {
        IndexRow {
            id,
            desc,
            reacc: ReaccSim::new().embed_code(code),
            pe: None,
            content: 0,
        }
    }

    pub fn kind(&self) -> EntryKind {
        match self.pe {
            Some(_) => EntryKind::Pe,
            None => EntryKind::Workflow,
        }
    }
}

/// Which dense modality a ranking runs over.
#[derive(Clone, Copy)]
enum DenseSlab {
    Desc,
    Reacc,
}

/// What the lock guards: the two copy-on-write components and the one
/// generation that orders their publications.
struct Cell {
    index: Arc<IndexState>,
    engine: Arc<AromaEngine>,
    /// Bumped exactly once per write call, whatever it touched.
    generation: u64,
}

/// The search indexes and the recommendation engine, kept consistent
/// with the registry by the server's write paths.
pub struct SearchIndexes {
    cell: RwLock<Cell>,
}

impl Default for SearchIndexes {
    fn default() -> Self {
        SearchIndexes::new()
    }
}

/// A scored index hit.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexHit {
    pub id: u64,
    pub kind: EntryKind,
    pub score: f32,
}

impl SearchIndexes {
    /// Empty indexes around an engine with the default Aroma tunables.
    pub fn new() -> Self {
        SearchIndexes::with_aroma(AromaConfig::default())
    }

    /// Empty indexes around an engine with the given Aroma tunables.
    pub fn with_aroma(config: AromaConfig) -> Self {
        SearchIndexes {
            cell: RwLock::new(Cell {
                index: Arc::default(),
                engine: Arc::new(AromaEngine::new(config)),
                generation: 0,
            }),
        }
    }

    /// The cell, for as long as it takes to clone an `Arc` out of it. A
    /// poisoned lock is handed on, not re-raised: a request that panicked
    /// must not turn every later request into a panic.
    fn read(&self) -> RwLockReadGuard<'_, Cell> {
        self.cell.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of writes published so far. Strictly increasing: every
    /// write API bumps it by exactly one (a batch counts once).
    pub fn generation(&self) -> u64 {
        self.read().generation
    }

    /// Clone the current dense snapshot (an `Arc` bump — queries then
    /// scan it without holding any lock).
    fn snapshot(&self) -> Arc<IndexState> {
        self.read().index.clone()
    }

    /// The current recommendation engine, and with it the structural
    /// index. A recommendation or SPT ranking runs entirely on this
    /// snapshot, lock-free; later writes publish new ones without
    /// disturbing it.
    pub fn engine(&self) -> Arc<AromaEngine> {
        self.read().engine.clone()
    }

    /// One published write: `f` mutates the components it needs through
    /// [`Arc::make_mut`] (in place when no query holds that component's
    /// snapshot, a copy-on-write clone of that component alone when one
    /// does), then the generation moves.
    fn write(&self, f: impl FnOnce(&mut Cell)) {
        let mut cell = self.cell.write().unwrap_or_else(PoisonError::into_inner);
        f(&mut cell);
        cell.generation += 1;
    }

    /// Insert or replace one registry row: its dense rows and, for a PE,
    /// its engine entry.
    pub fn upsert(&self, row: IndexRow) {
        self.bulk_upsert(vec![row]);
    }

    /// Insert or replace many rows in one published write — what every
    /// registration and the warm load go through. Row-for-row equivalent
    /// to calling [`upsert`](Self::upsert) in order.
    pub fn bulk_upsert(&self, rows: Vec<IndexRow>) {
        if rows.is_empty() {
            return;
        }
        self.write(|cell| {
            let index = Arc::make_mut(&mut cell.index);
            let mut snippets = Vec::new();
            for row in rows {
                index.upsert(&row);
                if let Some(pe) = row.pe {
                    snippets.push((Snippet::new(row.id, pe.name, pe.code), pe.spt));
                }
            }
            if !snippets.is_empty() {
                let engine = Arc::make_mut(&mut cell.engine);
                for (snippet, spt) in snippets {
                    engine.insert(snippet, spt);
                }
            }
        });
    }

    /// Replace the description embedding of `(kind, id)` — all a
    /// description update changes. The ReACC row and the engine depend on
    /// the code alone and are left as they are.
    pub fn set_description(&self, id: u64, kind: EntryKind, desc: &DenseVec) {
        self.write(|cell| Arc::make_mut(&mut cell.index).set_desc(id, kind, desc));
    }

    /// A row from its embeddings alone, for callers that measure the index
    /// write by itself. A PE's `spt_vec` is posted in the engine under a
    /// source-less snippet, so [`rank_spt`](Self::rank_spt) and
    /// [`rank_spt_above`](Self::rank_spt_above) see the row; having no
    /// granules, it is never recommended by the pipeline. A workflow's
    /// `spt_vec` is dropped.
    pub fn upsert_embedded(
        &self,
        id: u64,
        kind: EntryKind,
        desc: DenseVec,
        spt_vec: FeatureVec,
        reacc: DenseVec,
    ) {
        self.upsert(IndexRow {
            id,
            desc,
            reacc,
            pe: (kind == EntryKind::Pe).then(|| PeSnippet {
                name: String::new(),
                code: String::new(),
                spt: spt_vec,
            }),
            content: 0,
        });
    }

    pub fn remove(&self, id: u64, kind: EntryKind) {
        self.write(|cell| {
            Arc::make_mut(&mut cell.index).remove(id, kind);
            if kind == EntryKind::Pe {
                Arc::make_mut(&mut cell.engine).remove(id);
            }
        });
    }

    pub fn clear(&self) {
        self.write(|cell| {
            Arc::make_mut(&mut cell.index).clear();
            Arc::make_mut(&mut cell.engine).clear();
        });
    }

    pub fn len(&self) -> usize {
        self.read().index.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every indexed row as one publication left it: the dense state and
    /// the engine from one read of the cell.
    pub fn rows(&self) -> IndexedRows {
        let cell = self.read();
        IndexedRows {
            index: cell.index.clone(),
            engine: cell.engine.clone(),
        }
    }

    /// `(PE entries, workflow entries)` — feeds the index-size gauges.
    pub fn counts(&self) -> (usize, usize) {
        let cell = self.read();
        (cell.index.pes, cell.index.workflows)
    }

    /// One dense ranking for both modalities; a zero query ranks nothing
    /// (see [`Slab::scores`]).
    fn rank_dense(
        &self,
        slab: DenseSlab,
        query: &DenseVec,
        kind: Option<EntryKind>,
        k: usize,
    ) -> Vec<IndexHit> {
        let st = self.snapshot();
        let slab = match slab {
            DenseSlab::Desc => &st.desc,
            DenseSlab::Reacc => &st.reacc,
        };
        let mut top = TopK::new(k);
        slab.scores(&query.values, st.keys.len(), |row, score| {
            if st.accepts(row, kind) {
                top.push(score, st.keys[row], row);
            }
        });
        to_hits(&st, top.into_sorted())
    }

    /// Top-`k` by cosine of description embeddings (semantic text search).
    pub fn rank_semantic(
        &self,
        query: &DenseVec,
        kind: Option<EntryKind>,
        k: usize,
    ) -> Vec<IndexHit> {
        self.rank_dense(DenseSlab::Desc, query, kind, k)
    }

    /// Top-`k` by ReACC code-embedding cosine (`--embedding_type llm`).
    pub fn rank_reacc(&self, query: &DenseVec, kind: Option<EntryKind>, k: usize) -> Vec<IndexHit> {
        self.rank_dense(DenseSlab::Reacc, query, kind, k)
    }

    /// Top-`k` PEs by SPT feature overlap (structural code search), ranked
    /// from the engine's posting index; a PE that shares nothing with the
    /// query still ranks, at 0. Only PEs have SPT rows: `kind = None`
    /// means `Some(Pe)` and `Some(Workflow)` answers empty.
    pub fn rank_spt(&self, query: &FeatureVec, kind: Option<EntryKind>, k: usize) -> Vec<IndexHit> {
        self.rank_spt_where(query, kind, k, |_| true)
    }

    /// *All* PEs with SPT overlap ≥ `min_score`, best first (ties by
    /// ascending id); `kind` as in [`rank_spt`](Self::rank_spt). The
    /// workflow-scope recommendation aggregates member PEs and therefore
    /// needs every match above threshold, not a fixed k — on a corpus of
    /// one base class that is thousands of rows, which the engine's
    /// ranking orders by counting sort over its integer scores; beyond the
    /// matches it allocates one `u16` score slot per PE (`f32` for a query
    /// whose counts are not small integers).
    pub fn rank_spt_above(
        &self,
        query: &FeatureVec,
        kind: Option<EntryKind>,
        min_score: f32,
    ) -> Vec<IndexHit> {
        self.rank_spt_where(query, kind, usize::MAX, |score| score >= min_score)
    }

    fn rank_spt_where(
        &self,
        query: &FeatureVec,
        kind: Option<EntryKind>,
        k: usize,
        keep: impl Fn(f32) -> bool,
    ) -> Vec<IndexHit> {
        if kind == Some(EntryKind::Workflow) {
            return Vec::new();
        }
        self.engine()
            .index()
            .ranked(query, k, keep)
            .into_iter()
            .map(|pe| IndexHit {
                id: pe.id,
                kind: EntryKind::Pe,
                score: pe.score,
            })
            .collect()
    }

    /// *All* ReACC hits with cosine ≥ `min_score`, best first — the dense
    /// counterpart of [`rank_spt_above`](Self::rank_spt_above), used by the
    /// workflow-scope `--embedding_type llm` recommendation. A zero query
    /// matches nothing, like the top-k paths.
    pub fn rank_reacc_above(
        &self,
        query: &DenseVec,
        kind: Option<EntryKind>,
        min_score: f32,
    ) -> Vec<IndexHit> {
        let st = self.snapshot();
        let mut rows = Vec::new();
        st.reacc.scores(&query.values, st.keys.len(), |row, score| {
            if score >= min_score && st.accepts(row, kind) {
                let key = st.keys[row];
                rows.push(ScoredRow { row, key, score });
            }
        });
        rows.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.key.cmp(&b.key)));
        to_hits(&st, rows)
    }
}

/// One consistent view of every indexed row ([`SearchIndexes::rows`]).
pub struct IndexedRows {
    index: Arc<IndexState>,
    engine: Arc<AromaEngine>,
}

/// One indexed row's values, as [`IndexedRows::iter`] reads them.
#[derive(Debug)]
pub struct IndexedRow<'a> {
    pub id: u64,
    pub kind: EntryKind,
    /// The row's content hash, 0 where none is known.
    pub content: u64,
    pub desc: [f32; DIM],
    pub reacc: [f32; DIM],
    /// The SPT vector the engine posts a PE under; `None` for a workflow.
    pub spt: Option<&'a FeatureVec>,
}

impl IndexedRows {
    /// Every row, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = IndexedRow<'_>> + '_ {
        let st = &self.index;
        (0..st.keys.len()).map(move |row| {
            let (id, kind) = (key_id(st.keys[row]), st.kinds[row]);
            IndexedRow {
                id,
                kind,
                content: st.contents[row],
                desc: st.desc.row(row),
                reacc: st.reacc.row(row),
                spt: match kind {
                    EntryKind::Pe => self.engine.index().vector(id),
                    EntryKind::Workflow => None,
                },
            }
        })
    }
}

fn to_hits(st: &IndexState, rows: Vec<ScoredRow>) -> Vec<IndexHit> {
    rows.into_iter()
        .map(|r| IndexHit {
            id: key_id(r.key),
            kind: st.kinds[r.row],
            score: r.score,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use embed::Embedder;

    const ALL: usize = usize::MAX;

    fn row(id: u64, kind: EntryKind, desc: &str, code: &str) -> IndexRow {
        let desc = UniXcoderSim::new().embed(desc);
        match kind {
            EntryKind::Pe => IndexRow::pe(
                id,
                &format!("E{id}"),
                code,
                desc,
                Spt::parse_source(code).feature_vec(),
            ),
            EntryKind::Workflow => IndexRow::workflow(id, code, desc),
        }
    }

    fn add(ix: &SearchIndexes, id: u64, kind: EntryKind, desc: &str, code: &str) {
        ix.upsert(row(id, kind, desc, code));
    }

    #[test]
    fn semantic_ranking() {
        let ix = SearchIndexes::new();
        add(
            &ix,
            1,
            EntryKind::Pe,
            "detects anomalies in sensor data",
            "class A: pass",
        );
        add(
            &ix,
            2,
            EntryKind::Pe,
            "checks whether a number is prime",
            "class B: pass",
        );
        let q = UniXcoderSim::new().embed("a pe that is able to detect anomalies");
        let hits = ix.rank_semantic(&q, Some(EntryKind::Pe), ALL);
        assert_eq!(hits[0].id, 1);
        assert!(hits[0].score > hits[1].score);
        // Bounded k keeps the best hit only.
        assert_eq!(ix.rank_semantic(&q, Some(EntryKind::Pe), 1), hits[..1]);
    }

    #[test]
    fn spt_ranking_and_kind_filter() {
        let ix = SearchIndexes::new();
        add(
            &ix,
            1,
            EntryKind::Pe,
            "",
            "def f(x):\n    return random.randint(1, 1000)\n",
        );
        add(
            &ix,
            2,
            EntryKind::Workflow,
            "",
            "def g(y):\n    return y + 1\n",
        );
        let q = Spt::parse_source("random.randint(1, 1000)").feature_vec();
        let pe_hits = ix.rank_spt(&q, Some(EntryKind::Pe), ALL);
        assert_eq!(pe_hits.len(), 1);
        assert_eq!(pe_hits[0].id, 1);
        // Only PEs have SPT rows.
        assert_eq!(ix.rank_spt(&q, None, ALL), pe_hits);
        assert!(ix.rank_spt(&q, Some(EntryKind::Workflow), ALL).is_empty());
        assert!(ix
            .rank_spt_above(&q, Some(EntryKind::Workflow), 0.0)
            .is_empty());
    }

    #[test]
    fn upsert_replaces() {
        let ix = SearchIndexes::new();
        add(&ix, 1, EntryKind::Pe, "old", "x = 1\n");
        add(
            &ix,
            1,
            EntryKind::Pe,
            "new description about words",
            "x = 1\n",
        );
        assert_eq!(ix.len(), 1);
        let q = UniXcoderSim::new().embed("words");
        let hits = ix.rank_semantic(&q, None, ALL);
        assert!(hits[0].score > 0.0, "new embedding in effect");
    }

    #[test]
    fn remove_and_clear() {
        let ix = SearchIndexes::new();
        add(&ix, 1, EntryKind::Pe, "a", "x = 1\n");
        add(&ix, 2, EntryKind::Workflow, "b", "y = 2\n");
        assert_eq!(ix.counts(), (1, 1));
        ix.remove(1, EntryKind::Pe);
        assert_eq!(ix.len(), 1);
        ix.remove(1, EntryKind::Workflow); // no-op: wrong kind
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.counts(), (0, 1));
        ix.clear();
        assert!(ix.is_empty());
        assert_eq!(ix.counts(), (0, 0));
    }

    #[test]
    fn reacc_ranking_prefers_clones() {
        let ix = SearchIndexes::new();
        let code = "def f(a):\n    return a * 2\n";
        add(&ix, 1, EntryKind::Pe, "", code);
        add(
            &ix,
            2,
            EntryKind::Pe,
            "",
            "class Other:\n    def g(self):\n        pass\n",
        );
        let q = ReaccSim::new().embed_code(code);
        let hits = ix.rank_reacc(&q, None, ALL);
        assert_eq!(hits[0].id, 1);
        assert!(hits[0].score > 0.99);
    }

    #[test]
    fn swap_remove_keeps_rows_consistent() {
        // Remove from the middle, then verify every surviving entry still
        // ranks itself first on its own code — i.e. slabs and slot map
        // moved together.
        let ix = SearchIndexes::new();
        let codes: Vec<String> = (0..8)
            .map(|i| format!("def f{i}(a):\n    return a * {i} + {i}\n"))
            .collect();
        for (i, code) in codes.iter().enumerate() {
            add(
                &ix,
                i as u64,
                EntryKind::Pe,
                &format!("pe number {i}"),
                code,
            );
        }
        ix.remove(3, EntryKind::Pe);
        ix.remove(0, EntryKind::Pe);
        assert_eq!(ix.len(), 6);
        for (i, code) in codes.iter().enumerate() {
            if i == 3 || i == 0 {
                continue;
            }
            let q = ReaccSim::new().embed_code(code);
            let hits = ix.rank_reacc(&q, None, 1);
            assert_eq!(hits[0].id, i as u64, "self-retrieval after swap-remove");
        }
        // The removed ids never surface again.
        let q = ReaccSim::new().embed_code(&codes[3]);
        assert!(ix.rank_reacc(&q, None, ALL).iter().all(|h| h.id != 3));
    }

    #[test]
    fn rank_spt_above_returns_all_matches() {
        let ix = SearchIndexes::new();
        let shared = "def f(data):\n    total = 0\n    for item in data:\n        total += item\n    return total\n";
        add(&ix, 1, EntryKind::Pe, "", shared);
        add(&ix, 2, EntryKind::Pe, "", shared);
        add(&ix, 3, EntryKind::Pe, "", "x = 1\n");
        let q = Spt::parse_source(shared).feature_vec();
        let above = ix.rank_spt_above(&q, Some(EntryKind::Pe), 6.0);
        assert_eq!(above.len(), 2);
        assert_eq!(above[0].id, 1, "tie broken by id");
        assert_eq!(above[1].id, 2);
        // Must equal filtering the full ranking.
        let full: Vec<IndexHit> = ix
            .rank_spt(&q, Some(EntryKind::Pe), ALL)
            .into_iter()
            .filter(|h| h.score >= 6.0)
            .collect();
        assert_eq!(above, full);
    }

    #[test]
    fn rank_reacc_above_matches_filtered_ranking() {
        let ix = SearchIndexes::new();
        let shared = "def f(a):\n    return a * 2\n";
        add(&ix, 1, EntryKind::Pe, "", shared);
        add(&ix, 2, EntryKind::Pe, "", shared);
        add(
            &ix,
            3,
            EntryKind::Pe,
            "",
            "class Other:\n    def g(self):\n        pass\n",
        );
        let q = ReaccSim::new().embed_code(shared);
        let above = ix.rank_reacc_above(&q, Some(EntryKind::Pe), 0.9);
        assert_eq!(above.len(), 2);
        assert_eq!(above[0].id, 1, "tie broken by id");
        let full: Vec<IndexHit> = ix
            .rank_reacc(&q, Some(EntryKind::Pe), ALL)
            .into_iter()
            .filter(|h| h.score >= 0.9)
            .collect();
        assert_eq!(above, full);
    }

    #[test]
    fn bulk_upsert_matches_sequential_upserts() {
        let seq = SearchIndexes::new();
        let bulk = SearchIndexes::new();
        let code = |i: u64| format!("def f{i}(a):\n    return a * {i} + {i}\n");
        let rows: Vec<IndexRow> = (0..6u64)
            .map(|i| {
                let kind = if i % 3 == 0 {
                    EntryKind::Workflow
                } else {
                    EntryKind::Pe
                };
                row(
                    i,
                    kind,
                    &format!("entry number {i} does thing {i}"),
                    &code(i),
                )
            })
            .collect();
        for r in &rows {
            seq.upsert(r.clone());
        }
        bulk.bulk_upsert(rows.clone());
        assert_eq!(seq.len(), bulk.len());
        assert_eq!(seq.counts(), bulk.counts());
        assert_eq!(seq.engine().len(), 4, "the engine holds the PEs only");
        assert_eq!(bulk.engine().len(), 4);
        for r in &rows {
            assert_eq!(
                seq.rank_semantic(&r.desc, None, ALL),
                bulk.rank_semantic(&r.desc, None, ALL)
            );
            let q = Spt::parse_source(&code(r.id)).feature_vec();
            assert_eq!(seq.rank_spt(&q, None, ALL), bulk.rank_spt(&q, None, ALL));
            assert_eq!(
                seq.rank_reacc(&r.reacc, None, ALL),
                bulk.rank_reacc(&r.reacc, None, ALL)
            );
        }
        // An empty bulk call is a no-op, not a publication.
        let g = bulk.generation();
        bulk.bulk_upsert(Vec::new());
        assert_eq!(bulk.generation(), g);
    }

    #[test]
    fn same_id_across_kinds_coexist() {
        let ix = SearchIndexes::new();
        add(&ix, 5, EntryKind::Pe, "pe five", "x = 1\n");
        add(&ix, 5, EntryKind::Workflow, "workflow five", "y = 2\n");
        assert_eq!(ix.len(), 2);
        ix.remove(5, EntryKind::Pe);
        assert_eq!(ix.len(), 1);
        let q = UniXcoderSim::new().embed("workflow five");
        let hits = ix.rank_semantic(&q, None, ALL);
        assert_eq!(hits[0].kind, EntryKind::Workflow);
    }

    #[test]
    fn zero_query_short_circuits() {
        let ix = SearchIndexes::new();
        add(&ix, 1, EntryKind::Pe, "some description", "x = 1\n");
        let zero = UniXcoderSim::new().embed("");
        assert!(zero.is_zero());
        assert!(ix.rank_semantic(&zero, None, ALL).is_empty());
        assert!(ix.rank_reacc(&zero, None, ALL).is_empty());
        assert!(ix.rank_reacc_above(&zero, None, -1.0).is_empty());
    }

    #[test]
    fn generation_bumps_once_per_published_write() {
        let ix = SearchIndexes::new();
        let g0 = ix.generation();
        add(&ix, 1, EntryKind::Pe, "a", "x = 1\n");
        assert_eq!(ix.generation(), g0 + 1, "slabs and engine move as one");
        ix.bulk_upsert(vec![
            row(2, EntryKind::Pe, "b", "y = 2\n"),
            row(3, EntryKind::Workflow, "c", "z = 3\n"),
        ]);
        assert_eq!(ix.generation(), g0 + 2, "one bump per batch, not per row");
        ix.remove(1, EntryKind::Pe);
        assert_eq!(ix.generation(), g0 + 3);
        ix.upsert_embedded(
            9,
            EntryKind::Pe,
            UniXcoderSim::new().embed("d"),
            Spt::parse_source("w = 4\n").feature_vec(),
            ReaccSim::new().embed_code("w = 4\n"),
        );
        assert_eq!(ix.generation(), g0 + 4);
        let engine = ix.engine();
        assert_eq!(engine.len(), 2, "posted under a source-less snippet");
        assert!(engine.index().granules(9).is_some_and(|g| g.is_empty()));
        ix.clear();
        assert_eq!(ix.generation(), g0 + 5);
        assert!(ix.is_empty() && ix.engine().is_empty());
    }

    const ACC: &str = "total = 0\nfor item in data:\n    total += item\n";

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let ix = SearchIndexes::new();
        add(&ix, 1, EntryKind::Pe, "sums a list", ACC);
        let engine = ix.engine();
        ix.remove(1, EntryKind::Pe);
        // The old snapshot still answers from its own state.
        assert_eq!(engine.len(), 1);
        assert!(!engine.recommend(ACC).is_empty());
        assert!(ix.engine().recommend(ACC).is_empty());

        // Dense: BLOCK + 1 rows, so the last row sits alone in block 1.
        let ix = SearchIndexes::new();
        ix.bulk_upsert((0..=BLOCK as u64).map(dense_row).collect());
        let shared = |a: &IndexState, b: &IndexState, block: usize| {
            (
                Arc::ptr_eq(&a.desc.blocks[block], &b.desc.blocks[block]),
                Arc::ptr_eq(&a.reacc.blocks[block], &b.reacc.blocks[block]),
            )
        };

        // An overwrite in block 0 of a held snapshot copies that block of
        // each slab and shares block 1.
        let held = ix.snapshot();
        let before = score_bits(&held);
        let mut row = dense_row(3);
        row.desc.values[40] = -2.0;
        row.reacc.values[41] = 3.0;
        ix.upsert(row);
        let now = ix.snapshot();
        assert_eq!(score_bits(&held), before);
        assert_ne!(
            score_bits(&now),
            before,
            "the write is visible to new readers"
        );
        assert_eq!(shared(&held, &now, 0), (false, false));
        assert_eq!(shared(&held, &now, 1), (true, true));
        // A description update touches the description slab alone.
        let held = now;
        ix.set_description(3, EntryKind::Workflow, &dense_row(7).desc);
        assert_eq!(shared(&held, &ix.snapshot(), 0), (false, true));

        // A swap-remove that moves the last row into block 0 drops block
        // 1; the held snapshot keeps both and ranks as before.
        let held = ix.snapshot();
        let before = score_bits(&held);
        ix.remove(5, EntryKind::Workflow);
        assert_eq!(ix.snapshot().desc.blocks.len(), 1);
        assert_eq!(held.desc.blocks.len(), 2);
        assert_eq!(score_bits(&held), before);

        // An append that opens a new block leaves block 0 shared.
        let held = ix.snapshot();
        let before = score_bits(&held);
        ix.upsert(dense_row(500));
        let now = ix.snapshot();
        assert_eq!(now.desc.blocks.len(), 2);
        assert_eq!(shared(&held, &now, 0), (true, true));
        assert_eq!(score_bits(&held), before);
        assert_eq!(score_bits(&now)[..BLOCK], before[..]);
    }

    /// A workflow row with a few non-zero dimensions picked by `id`.
    fn dense_row(id: u64) -> IndexRow {
        let at = id as usize;
        let mut desc = DenseVec::zero();
        let mut reacc = DenseVec::zero();
        for (step, weight) in [(1, 1.0), (7, -0.5), (31, 0.25)] {
            desc.values[(at * step) % DIM] += weight;
            reacc.values[(at * step + 3) % DIM] -= weight;
        }
        IndexRow {
            id,
            desc,
            reacc,
            pe: None,
            content: 0,
        }
    }

    /// Every row's score in both slabs against one all-non-zero query.
    fn score_bits(st: &IndexState) -> Vec<(u32, u32)> {
        let query: Vec<f32> = (0..DIM).map(|d| 1.0 + d as f32 / 8.0).collect();
        let mut desc = Vec::new();
        st.desc
            .scores(&query, st.keys.len(), |_, s| desc.push(s.to_bits()));
        let mut reacc = Vec::new();
        st.reacc
            .scores(&query, st.keys.len(), |_, s| reacc.push(s.to_bits()));
        desc.into_iter().zip(reacc).collect()
    }

    #[test]
    fn removed_rows_are_never_scored_and_clear_releases_every_block() {
        let ix = SearchIndexes::new();
        ix.bulk_upsert((0..3).map(dense_row).collect());
        // Rows 1 and 2 go; their values stay behind in the block, past
        // the end.
        ix.remove(2, EntryKind::Workflow);
        ix.remove(1, EntryKind::Workflow);
        let q = dense_row(2).desc;
        let hits = ix.rank_semantic(&q, None, ALL);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);

        // Removed to empty, every block is given back, and re-added rows
        // rank like a fresh index's.
        ix.remove(0, EntryKind::Workflow);
        let st = ix.snapshot();
        assert!(st.desc.blocks.is_empty() && st.reacc.blocks.is_empty());
        let fresh = SearchIndexes::new();
        for id in [9, 4] {
            ix.upsert(dense_row(id));
            fresh.upsert(dense_row(id));
        }
        for id in [0, 1, 2, 4, 9] {
            let row = dense_row(id);
            assert_eq!(
                ix.rank_semantic(&row.desc, None, ALL),
                fresh.rank_semantic(&row.desc, None, ALL)
            );
            assert_eq!(
                ix.rank_reacc_above(&row.reacc, None, -1.0),
                fresh.rank_reacc_above(&row.reacc, None, -1.0)
            );
        }

        ix.bulk_upsert((10..10 + 2 * BLOCK as u64).map(dense_row).collect());
        let st = ix.snapshot();
        let blocks: Vec<_> = st.desc.blocks.iter().chain(&st.reacc.blocks).collect();
        let held: Vec<_> = blocks.iter().map(|b| Arc::downgrade(b)).collect();
        assert_eq!(held.len(), 6);
        drop(st);
        ix.clear();
        assert!(ix.snapshot().desc.blocks.is_empty());
        assert!(held.iter().all(|block| block.upgrade().is_none()));
    }

    #[test]
    fn engine_upsert_replaces_by_id_and_skips_workflows() {
        let ix = SearchIndexes::new();
        add(&ix, 1, EntryKind::Pe, "", ACC);
        add(&ix, 1, EntryKind::Pe, "", "x = open(path)\n");
        add(&ix, 1, EntryKind::Workflow, "", ACC);
        let engine = ix.engine();
        assert_eq!(engine.len(), 1);
        assert_eq!(engine.index().get(1).unwrap().code, "x = open(path)\n");
        // Removing the workflow of the same id leaves the PE's snippet.
        ix.remove(1, EntryKind::Workflow);
        assert_eq!(ix.engine().len(), 1);

        // Written from embeddings alone: a workflow's vector goes nowhere,
        // a PE's replaces the snippet and ranks.
        let acc = Spt::parse_source(ACC).feature_vec();
        let zero = DenseVec::zero;
        ix.upsert_embedded(2, EntryKind::Workflow, zero(), acc.clone(), zero());
        assert_eq!(ix.engine().len(), 1);
        let open = Spt::parse_source("x = open(path)\n").feature_vec();
        assert_eq!(ix.rank_spt(&acc, None, ALL)[0].score, acc.overlap(&open));
        ix.upsert_embedded(1, EntryKind::Pe, zero(), acc.clone(), zero());
        let engine = ix.engine();
        assert_eq!(engine.len(), 1);
        assert!(engine.index().get(1).unwrap().code.is_empty());
        assert_eq!(ix.rank_spt(&acc, None, ALL)[0].score, acc.overlap(&acc));
        assert!(engine.recommend(ACC).is_empty(), "no granules to recommend");
    }
}
