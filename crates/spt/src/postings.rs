//! Posting lists over feature vectors: `feature id → rows and counts`.
//!
//! Aroma's light-weight retrieval is a sparse matrix–vector product (Luan
//! et al. §4.1): the overlap of a query with *every* indexed vector at
//! once. Row by row that is one sorted merge per vector, most of which
//! walks features the query does not have. Inverted, the query visits
//! only the lists of its own features and adds `min(count_q, count_row)`
//! into one score slot per row.
//!
//! **Layout.** Each list takes whichever of two forms is smaller, the way
//! Roaring bitmaps pick a container per chunk. A *sparse* list is
//! `(row, count)` pairs, 8 bytes a posting; a *dense* list is a column of
//! one byte per row, the row's count, 0 for absent. So a list becomes
//! dense once it covers an eighth of the rows (`len × 8 ≥ rows`) and every
//! count in it fits a cell (an integer in 1..=255), and goes back to
//! sparse below a sixteenth (`len × 16 < rows`) or when a count that fits
//! no cell arrives; the factor of two keeps a list on the boundary from
//! flipping at every write. Only a list a write touches is re-checked. A
//! column may be shorter than the row count; missing cells are absent. On
//! a dense list insert, remove and relabel are one cell each.
//!
//! **Copy-on-write blocks.** A feature id maps to a slot, and the lists sit
//! eight to a block, each block behind its own `Arc`. A clone copies the
//! slot map and one pointer per block; a write then copies only the blocks
//! that hold a list it touches (a csn PE has ~164 features). A list that
//! empties gives up its slot, and the next new feature takes it before a
//! block is added. At the benchmark fixture's 6,000 csn PEs (24,745 lists)
//! a clone of the served engine, which holds this index, takes 0.07–0.09 ms
//! against 2.3–2.6 ms for one map of lists, and a PE write against a held
//! engine snapshot 0.40–0.48 ms against 2.2–2.5 ms (medians of 51, three
//! runs per side on a 2-vCPU shared container; `cargo run -p laminar-bench
//! --release --bin eval_write_stalls`).
//!
//! **Exact, not approximate.** When every posted count is an integer ≥ 1
//! and the query's counts are integers summing to at most 65,535, every
//! term `min(count_q, count_row)` is an integer and no score can exceed
//! that sum, so the walk accumulates in `u16` — a dense column is then one
//! `zip` of `u8` cells over `u16` slots — and each score is the exact
//! integer [`FeatureVec::overlap`] computes, whose `f32` partial sums are
//! exact too. Any other query (or any posted count that is not an integer
//! ≥ 1, a case the index keeps a counter of) takes `f32` slots and adds
//! each row's terms in ascending feature-id order, exactly the terms and
//! order of [`FeatureVec::overlap`]; an absent dense cell adds nothing.
//! Either way the two agree bit for bit.
//!
//! A holder keeps the forward vectors beside this (they are what it
//! stores anyway) and names a row's vector whenever it un-posts or moves
//! the row; rows are the holder's dense slot numbers, and every holder row
//! is posted, with an empty vector if need be, so the index knows the row
//! count its layout rule is relative to.

use crate::vector::FeatureVec;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::AddAssign;
use std::sync::Arc;

/// Lists per block: the unit a write copies when a clone shares it.
const LISTS: usize = 8;

/// The inverted form of a set of `(row, FeatureVec)` pairs. Feature ids
/// derive from submitted code, so the map keeps the default, keyed
/// hasher.
#[derive(Debug, Clone, Default)]
pub struct Postings {
    /// Feature id → slot; slot `s` is list `s % LISTS` of block
    /// `s / LISTS`.
    slots: HashMap<u64, u32>,
    /// The lists, each block behind its own `Arc`: a clone shares every
    /// block, and a write copies only the blocks it touches.
    blocks: Vec<Arc<[List; LISTS]>>,
    /// Slots whose list emptied, taken before a new block is opened.
    free: Vec<u32>,
    /// Rows posted: the holder's row count.
    rows: usize,
    /// Posted counts that are not integers ≥ 1. While there is one, every
    /// query scores in `f32`.
    inexact: usize,
}

#[derive(Debug, Clone)]
enum List {
    /// `(row, count)` per posting, unordered; `wide` of the counts fit no
    /// cell.
    Sparse {
        postings: Vec<(u32, f32)>,
        wide: usize,
    },
    /// `cells[row]` is the row's count, 0 when absent; `len` cells are
    /// non-zero.
    Dense { cells: Vec<u8>, len: usize },
}

impl Default for List {
    fn default() -> Self {
        List::Sparse {
            postings: Vec::new(),
            wide: 0,
        }
    }
}

/// Every row's overlap with one query: exact integers when the query and
/// the posted counts allow it, `f32` otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum Overlaps {
    Counts(Vec<u16>),
    Floats(Vec<f32>),
}

impl Postings {
    /// Post `vec` under `row`, which must not be posted already.
    pub fn insert(&mut self, row: usize, vec: &FeatureVec) {
        let row = label(row);
        self.rows += 1;
        let rows = self.rows;
        for &(id, count) in &vec.items {
            self.inexact += usize::from(!exact(count));
            let slot = self.open(id);
            let list = self.list_mut(slot);
            list.insert(row, count);
            list.fit(rows);
        }
    }

    /// Un-post `row`, which was posted with `vec`.
    pub fn remove(&mut self, row: usize, vec: &FeatureVec) {
        let row = label(row);
        self.rows -= 1;
        let rows = self.rows;
        for &(id, count) in &vec.items {
            self.inexact -= usize::from(!exact(count));
            let Some(&slot) = self.slots.get(&id) else {
                continue;
            };
            let list = self.list_mut(slot);
            list.remove(row);
            if list.is_empty() {
                // Drop the list's buffer and hand its slot on.
                *list = List::default();
                self.slots.remove(&id);
                self.free.push(slot);
            } else {
                list.fit(rows);
            }
        }
    }

    /// Rename row `from`, posted with `vec`, to the free row `to` — what a
    /// swap-remove does to the holder's last row.
    pub fn relabel(&mut self, from: usize, to: usize, vec: &FeatureVec) {
        let (from, to) = (label(from), label(to));
        let rows = self.rows;
        for &(id, _) in &vec.items {
            if let Some(&slot) = self.slots.get(&id) {
                let list = self.list_mut(slot);
                list.relabel(from, to);
                list.fit(rows);
            }
        }
    }

    pub fn clear(&mut self) {
        *self = Postings::default();
    }

    /// `query.overlap(v)` for the vector `v` of every row in `0..rows`
    /// (0 for a row that is not posted), as `f32`.
    pub fn overlaps(&self, query: &FeatureVec, rows: usize) -> Vec<f32> {
        match self.scores(query, rows) {
            Overlaps::Counts(scores) => scores.into_iter().map(f32::from).collect(),
            Overlaps::Floats(scores) => scores,
        }
    }

    /// The same overlaps, as exact integers when they can be (see the
    /// module docs).
    pub fn scores(&self, query: &FeatureVec, rows: usize) -> Overlaps {
        if self.inexact == 0 && integral_total(query).is_some_and(|t| t <= u32::from(u16::MAX)) {
            Overlaps::Counts(self.accumulate(query, rows))
        } else {
            Overlaps::Floats(self.accumulate(query, rows))
        }
    }

    /// The one pass: per query feature, its list's terms into every
    /// posted row's slot.
    fn accumulate<S: Score>(&self, query: &FeatureVec, rows: usize) -> Vec<S> {
        let mut acc = vec![S::default(); rows];
        for &(id, count) in &query.items {
            let q = S::of_query(count);
            match self.slots.get(&id).map(|&slot| self.list(slot)) {
                Some(List::Sparse { postings, .. }) => {
                    for &(row, c) in postings {
                        acc[row as usize] += S::posting(q, c);
                    }
                }
                Some(List::Dense { cells, .. }) => {
                    for (slot, &c) in acc.iter_mut().zip(cells) {
                        *slot += S::cell(q, c);
                    }
                }
                None => {}
            }
        }
        acc
    }

    /// Feature `id`'s slot, opening one (a freed slot first) if it has
    /// none.
    fn open(&mut self, id: u64) -> u32 {
        match self.slots.entry(id) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                if self.free.is_empty() {
                    let base = label(self.blocks.len() * LISTS);
                    self.blocks
                        .push(Arc::new(std::array::from_fn(|_| List::default())));
                    self.free.extend((base..base + LISTS as u32).rev());
                }
                *slot.insert(self.free.pop().expect("a free slot"))
            }
        }
    }

    fn list(&self, slot: u32) -> &List {
        &self.blocks[slot as usize / LISTS][slot as usize % LISTS]
    }

    /// The list in `slot`, its block copied first if a clone shares it.
    fn list_mut(&mut self, slot: u32) -> &mut List {
        &mut Arc::make_mut(&mut self.blocks[slot as usize / LISTS])[slot as usize % LISTS]
    }

    /// The block feature `id`'s list is in, while it has a list.
    pub fn block_of(&self, id: u64) -> Option<usize> {
        self.slots.get(&id).map(|&slot| slot as usize / LISTS)
    }

    /// Blocks held, emptied ones included; [`clear`](Self::clear) drops
    /// them all.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether block `b` is the very block `other` holds at `b`, not a
    /// copy: what a clone shares until a write touches the block.
    pub fn shares_block(&self, other: &Postings, b: usize) -> bool {
        match (self.blocks.get(b), other.blocks.get(b)) {
            (Some(mine), Some(theirs)) => Arc::ptr_eq(mine, theirs),
            _ => false,
        }
    }
}

impl List {
    fn is_empty(&self) -> bool {
        match self {
            List::Sparse { postings, .. } => postings.is_empty(),
            List::Dense { len, .. } => *len == 0,
        }
    }

    fn insert(&mut self, row: u32, count: f32) {
        match self {
            List::Sparse { postings, wide } => {
                *wide += usize::from(cell(count).is_none());
                postings.push((row, count));
            }
            List::Dense { cells, len } => match cell(count) {
                Some(c) => {
                    let at = row as usize;
                    if cells.len() <= at {
                        cells.resize(at + 1, 0);
                    }
                    cells[at] = c;
                    *len += 1;
                }
                None => {
                    self.make_sparse();
                    self.insert(row, count);
                }
            },
        }
    }

    fn remove(&mut self, row: u32) {
        match self {
            List::Sparse { postings, wide } => {
                if let Some(at) = postings.iter().position(|&(r, _)| r == row) {
                    *wide -= usize::from(cell(postings.swap_remove(at).1).is_none());
                }
            }
            List::Dense { cells, len } => {
                if let Some(c) = cells.get_mut(row as usize).filter(|c| **c != 0) {
                    *c = 0;
                    *len -= 1;
                }
            }
        }
    }

    fn relabel(&mut self, from: u32, to: u32) {
        match self {
            List::Sparse { postings, .. } => {
                if let Some(posting) = postings.iter_mut().find(|(r, _)| *r == from) {
                    posting.0 = to;
                }
            }
            List::Dense { cells, .. } => {
                let Some(c) = cells.get_mut(from as usize).map(std::mem::take) else {
                    return;
                };
                let to = to as usize;
                if cells.len() <= to {
                    cells.resize(to + 1, 0);
                }
                cells[to] = c;
            }
        }
    }

    /// Re-check the layout rule against the index's `rows`.
    fn fit(&mut self, rows: usize) {
        match self {
            List::Sparse { postings, wide: 0 } if postings.len() * 8 >= rows => {
                let end = postings.iter().map(|&(r, _)| r as usize + 1).max();
                let mut cells = vec![0u8; end.unwrap_or(0)];
                for &(row, count) in postings.iter() {
                    cells[row as usize] =
                        cell(count).expect("a sparse list with wide 0 fits cells");
                }
                let len = postings.len();
                *self = List::Dense { cells, len };
            }
            List::Dense { len, .. } if *len * 16 < rows => self.make_sparse(),
            _ => {}
        }
    }

    fn make_sparse(&mut self) {
        if let List::Dense { cells, .. } = self {
            let postings = (0u32..)
                .zip(cells.iter())
                .filter(|&(_, &c)| c != 0)
                .map(|(row, &c)| (row, f32::from(c)))
                .collect();
            *self = List::Sparse { postings, wide: 0 };
        }
    }
}

/// A score slot: `u16` when every term is a small integer, `f32` otherwise.
trait Score: Copy + Default + AddAssign {
    fn of_query(count: f32) -> Self;
    /// `min(q, c)` for a sparse posting of count `c`.
    fn posting(q: Self, c: f32) -> Self;
    /// `min(q, c)` for a dense cell `c`; nothing for an absent (0) cell.
    fn cell(q: Self, c: u8) -> Self;
}

impl Score for u16 {
    fn of_query(count: f32) -> u16 {
        count as u16
    }

    /// `c` is an integer ≥ 1, so the minimum is an integer no larger than
    /// `q`.
    fn posting(q: u16, c: f32) -> u16 {
        f32::from(q).min(c) as u16
    }

    /// An absent cell is 0, and so is its minimum.
    fn cell(q: u16, c: u8) -> u16 {
        q.min(u16::from(c))
    }
}

impl Score for f32 {
    fn of_query(count: f32) -> f32 {
        count
    }

    fn posting(q: f32, c: f32) -> f32 {
        q.min(c)
    }

    /// For an absent cell this adds `+0.0`, which leaves a slot as it is:
    /// slots start at `+0.0` and a sum is `-0.0` only when both addends
    /// are.
    fn cell(q: f32, c: u8) -> f32 {
        if c == 0 {
            0.0
        } else {
            q.min(f32::from(c))
        }
    }
}

/// A count a dense cell can hold.
fn cell(count: f32) -> Option<u8> {
    ((1.0..=255.0).contains(&count) && count.fract() == 0.0).then_some(count as u8)
}

/// A posted count the `u16` path can take: an integer ≥ 1 (a larger one
/// only keeps its own list sparse).
fn exact(count: f32) -> bool {
    count >= 1.0 && count.fract() == 0.0
}

/// The query's total count, when every count is a non-negative integer.
fn integral_total(query: &FeatureVec) -> Option<u32> {
    query.items.iter().try_fold(0u32, |total, &(_, q)| {
        let whole = (0.0..=f32::from(u16::MAX)).contains(&q) && q.fract() == 0.0;
        whole.then(|| total.saturating_add(q as u32))
    })
}

fn label(row: usize) -> u32 {
    u32::try_from(row).expect("an index holds fewer than 2^32 rows")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(items: &[(u64, f32)]) -> FeatureVec {
        FeatureVec {
            items: items.to_vec(),
        }
    }

    /// `Some(true)` for a dense list, `Some(false)` for a sparse one.
    fn dense(p: &Postings, id: u64) -> Option<bool> {
        p.slots
            .get(&id)
            .map(|&slot| matches!(p.list(slot), List::Dense { .. }))
    }

    fn assert_exact(p: &Postings, q: &FeatureVec, rows: &[FeatureVec]) {
        let want: Vec<u32> = rows.iter().map(|v| q.overlap(v).to_bits()).collect();
        let got: Vec<u32> = p
            .overlaps(q, rows.len())
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(got, want, "query {q:?}");
    }

    #[test]
    fn overlaps_equal_the_row_wise_merge() {
        let rows = [
            fv(&[(1, 2.0), (5, 1.0), (9, 3.0)]),
            fv(&[]),
            fv(&[(5, 4.0), (7, 1.0)]),
        ];
        let mut p = Postings::default();
        for (row, v) in rows.iter().enumerate() {
            p.insert(row, v);
        }
        let q = fv(&[(1, 1.0), (5, 2.0), (8, 1.0), (9, 5.0)]);
        let want: Vec<f32> = rows.iter().map(|v| q.overlap(v)).collect();
        assert_eq!(p.overlaps(&q, rows.len()), want);
        assert_eq!(p.overlaps(&fv(&[]), 3), vec![0.0; 3]);
    }

    #[test]
    fn remove_and_relabel_follow_a_swap_remove() {
        let (a, b, c) = (
            fv(&[(1, 1.0), (2, 1.0)]),
            fv(&[(2, 2.0)]),
            fv(&[(1, 3.0), (3, 1.0)]),
        );
        let mut p = Postings::default();
        p.insert(0, &a);
        p.insert(1, &b);
        p.insert(2, &c);
        // Swap-remove row 0: the last row takes its slot.
        p.remove(0, &a);
        p.relabel(2, 0, &c);
        let q = fv(&[(1, 5.0), (2, 5.0), (3, 5.0)]);
        assert_eq!(p.overlaps(&q, 2), vec![q.overlap(&c), q.overlap(&b)]);
        // Emptied lists give up their slots, so the map is bounded by live
        // features.
        p.remove(0, &c);
        p.remove(1, &b);
        assert!(p.slots.is_empty());
    }

    #[test]
    fn a_list_is_dense_from_an_eighth_of_the_rows_to_below_a_sixteenth() {
        let with = fv(&[(1, 3.0), (2, 1.0)]);
        let without = fv(&[(2, 1.0)]);
        let mut p = Postings::default();
        let mut rows: Vec<FeatureVec> = Vec::new();
        let push = |p: &mut Postings, rows: &mut Vec<FeatureVec>, v: &FeatureVec| {
            p.insert(rows.len(), v);
            rows.push(v.clone());
        };
        for _ in 0..31 {
            push(&mut p, &mut rows, &without);
        }
        assert_eq!(dense(&p, 2), Some(true));
        // Every holder of feature 1 re-checks its list: dense from
        // len × 8 ≥ rows, at 5 postings in 36 rows.
        for len in 1..=5 {
            push(&mut p, &mut rows, &with);
            assert_eq!(dense(&p, 1), Some(len >= 5), "{len} of {}", rows.len());
        }
        // Rows without feature 1 do not re-check its list.
        while rows.len() < 65 {
            push(&mut p, &mut rows, &without);
        }
        assert_eq!(dense(&p, 1), Some(true), "5 × 8 < 65, untouched");
        // Swap-remove a holder: 4 × 16 is not below 64 rows.
        p.remove(31, &with);
        p.relabel(64, 31, &without);
        rows.swap_remove(31);
        assert_eq!(dense(&p, 1), Some(true), "4 of 64");
        push(&mut p, &mut rows, &without);
        // The next one: 3 × 16 < 64.
        p.remove(32, &with);
        p.relabel(64, 32, &without);
        rows.swap_remove(32);
        assert_eq!(dense(&p, 1), Some(false), "3 of 64");
        // A posting back: 4 × 8 < 65 keeps it sparse.
        push(&mut p, &mut rows, &with);
        assert_eq!(dense(&p, 1), Some(false), "4 of 65");
        for q in [fv(&[(1, 2.0)]), fv(&[(1, 7.0), (2, 1.0)])] {
            assert_exact(&p, &q, &rows);
        }
    }

    #[test]
    fn counts_that_fit_no_cell_keep_their_list_sparse() {
        let mut p = Postings::default();
        let rows = [
            fv(&[(1, 255.0), (2, 256.0), (3, 70_000.0)]),
            fv(&[(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.5)]),
        ];
        p.insert(0, &rows[0]);
        p.insert(1, &rows[1]);
        assert_eq!(dense(&p, 1), Some(true), "255 fits a cell");
        assert_eq!(dense(&p, 2), Some(false), "256 does not");
        assert_eq!(dense(&p, 3), Some(false));
        assert_eq!(dense(&p, 4), Some(false), "nor does 1.5");
        // Remove the wide row: its lists may go dense again.
        p.remove(0, &rows[0]);
        p.insert(0, &fv(&[(2, 9.0)]));
        assert_eq!(dense(&p, 2), Some(true));
        // A wide count arriving on a dense list turns it sparse.
        p.remove(0, &fv(&[(2, 9.0)]));
        p.insert(0, &fv(&[(1, 0.0)]));
        assert_eq!(dense(&p, 1), Some(false));
    }

    #[test]
    fn a_flat_literal_does_not_move_ordinary_queries_off_u16() {
        let ordinary = fv(&[(1, 2.0), (2, 1.0)]);
        let flat = fv(&[(1, 1.0), (3, 70_000.0)]);
        let mut p = Postings::default();
        p.insert(0, &ordinary);
        p.insert(1, &flat);
        let rows = [ordinary.clone(), flat.clone()];
        let q = fv(&[(1, 3.0), (3, 4.0)]);
        assert_eq!(p.scores(&q, 2), Overlaps::Counts(vec![2, 5]));
        assert_exact(&p, &q, &rows);
        // The flat literal queried with itself totals past 65,535.
        assert!(matches!(p.scores(&flat, 2), Overlaps::Floats(_)));
        assert_exact(&p, &flat, &rows);
    }

    #[test]
    fn a_posted_count_that_is_not_an_integer_of_one_or_more_forces_f32() {
        let q = fv(&[(1, 2.0), (2, 1.0)]);
        for odd in [1.5, 0.0, -1.0] {
            let mut p = Postings::default();
            let rows = [fv(&[(1, 4.0)]), fv(&[(1, 1.0), (2, odd)])];
            p.insert(0, &rows[0]);
            p.insert(1, &rows[1]);
            assert!(matches!(p.scores(&q, 2), Overlaps::Floats(_)), "{odd}");
            assert_exact(&p, &q, &rows);
            // The counter follows the remove.
            p.remove(1, &rows[1]);
            assert!(matches!(p.scores(&q, 1), Overlaps::Counts(_)), "{odd}");
        }
        // A query count that is not a non-negative integer scores in f32.
        let mut p = Postings::default();
        let rows = [fv(&[(1, 4.0), (2, 1.0)])];
        p.insert(0, &rows[0]);
        for odd in [0.5, -1.0] {
            let q = fv(&[(1, odd), (2, 1.0)]);
            assert!(matches!(p.scores(&q, 1), Overlaps::Floats(_)), "{odd}");
            assert_exact(&p, &q, &rows);
        }
    }
}
