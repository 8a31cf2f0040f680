//! Posting lists over feature vectors: `feature id → [(row, count)]`.
//!
//! Aroma's light-weight retrieval is a sparse matrix–vector product (Luan
//! et al. §4.1): the overlap of a query with *every* indexed vector at
//! once. Row by row that is one sorted merge per vector, most of which
//! walks features the query does not have. Inverted, the query visits
//! only the lists of its own features and adds `min(count_q, count_row)`
//! into one score slot per row.
//!
//! The result is exact, not approximate: a row's slot receives the same
//! terms, in the same ascending-feature-id order, as
//! [`FeatureVec::overlap`] adds them, so the two agree bit for bit.
//!
//! A holder keeps the forward vectors beside this (they are what it
//! stores anyway) and names a row's vector whenever it un-posts or moves
//! the row; rows are the holder's dense slot numbers.

use crate::vector::FeatureVec;
use std::collections::HashMap;

/// The inverted form of a set of `(row, FeatureVec)` pairs. Feature ids
/// derive from submitted code, so the map keeps the default, keyed
/// hasher.
#[derive(Debug, Clone, Default)]
pub struct Postings {
    lists: HashMap<u64, Vec<(u32, f32)>>,
}

impl Postings {
    /// Post `vec` under `row`, which must not be posted already.
    pub fn insert(&mut self, row: usize, vec: &FeatureVec) {
        let row = label(row);
        for &(id, count) in &vec.items {
            self.lists.entry(id).or_default().push((row, count));
        }
    }

    /// Un-post `row`, which was posted with `vec`.
    pub fn remove(&mut self, row: usize, vec: &FeatureVec) {
        let row = label(row);
        for &(id, _) in &vec.items {
            let Some(list) = self.lists.get_mut(&id) else {
                continue;
            };
            if let Some(at) = list.iter().position(|&(r, _)| r == row) {
                list.swap_remove(at);
            }
            if list.is_empty() {
                self.lists.remove(&id);
            }
        }
    }

    /// Rename row `from`, posted with `vec`, to the free row `to` — what a
    /// swap-remove does to the holder's last row.
    pub fn relabel(&mut self, from: usize, to: usize, vec: &FeatureVec) {
        let (from, to) = (label(from), label(to));
        for &(id, _) in &vec.items {
            let posting = self
                .lists
                .get_mut(&id)
                .and_then(|list| list.iter_mut().find(|(r, _)| *r == from));
            if let Some(posting) = posting {
                posting.0 = to;
            }
        }
    }

    pub fn clear(&mut self) {
        self.lists.clear();
    }

    /// `query.overlap(v)` for the vector `v` of every row in `0..rows`
    /// (0 for a row that is not posted).
    pub fn overlaps(&self, query: &FeatureVec, rows: usize) -> Vec<f32> {
        let mut acc = vec![0.0f32; rows];
        for &(id, count) in &query.items {
            if let Some(list) = self.lists.get(&id) {
                for &(row, c) in list {
                    acc[row as usize] += count.min(c);
                }
            }
        }
        acc
    }
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
        // Emptied lists are dropped, so the map is bounded by live features.
        p.remove(0, &c);
        p.remove(1, &b);
        assert!(p.lists.is_empty());
    }
}
