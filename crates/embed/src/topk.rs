//! Bounded top-k selection.
//!
//! Ranking a corpus used to mean scoring every entry, materialising a
//! hit per entry and fully sorting the lot — O(n log n) time and O(n)
//! allocation per query even though the server immediately truncates to
//! its `top_n`. [`TopK`] replaces that with a size-k min-heap: O(n log k)
//! time, O(k) memory, and — because the comparator is a *total* order
//! over `(score, key)` — a result that is bit-identical to the prefix of
//! the full-sort ranking, ties included.
//!
//! The ordering is score-descending with ascending `key` as the
//! deterministic tie-break (the same rule the old full-sort used). Scores
//! are compared with [`f32::total_cmp`] so the order is total even for
//! degenerate inputs.

use std::collections::BinaryHeap;

/// One selected row: its position in the scanned corpus, its stable key
/// (the entry id — the tie-break), and its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredRow {
    pub row: usize,
    pub key: u64,
    pub score: f32,
}

/// `true` when `(score_a, key_a)` ranks strictly before `(score_b,
/// key_b)`: higher score first, then smaller key.
#[inline]
pub fn ranks_before(score_a: f32, key_a: u64, score_b: f32, key_b: u64) -> bool {
    match score_a.total_cmp(&score_b) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => key_a < key_b,
    }
}

/// Heap item ordered so the heap's maximum is the *worst-ranked* entry,
/// making `BinaryHeap` a min-heap over the ranking order.
#[derive(Debug, Clone, Copy)]
struct Worst(ScoredRow);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Worst {}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Greater = ranks later: lower score, then larger key.
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then(self.0.key.cmp(&other.0.key))
    }
}

/// A bounded best-k accumulator over `(score, key, row)` triples.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Worst>,
}

impl TopK {
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(4096).saturating_add(1)),
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offer one scored row; keeps it only if it ranks within the best k.
    #[inline]
    pub fn push(&mut self, score: f32, key: u64, row: usize) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Worst(ScoredRow { row, key, score }));
            return;
        }
        let worst = self.heap.peek().expect("non-empty at capacity").0;
        if ranks_before(score, key, worst.score, worst.key) {
            self.heap.pop();
            self.heap.push(Worst(ScoredRow { row, key, score }));
        }
    }

    /// Consume into a best-first vector (the full-sort ranking's prefix).
    pub fn into_sorted(self) -> Vec<ScoredRow> {
        let mut out: Vec<ScoredRow> = self.heap.into_iter().map(|w| w.0).collect();
        out.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.key.cmp(&b.key)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_topk(items: &[(f32, u64)], k: usize) -> Vec<(f32, u64)> {
        let mut all: Vec<(f32, u64)> = items.to_vec();
        all.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    fn run_topk(items: &[(f32, u64)], k: usize) -> Vec<(f32, u64)> {
        let mut t = TopK::new(k);
        for (row, &(s, id)) in items.iter().enumerate() {
            t.push(s, id, row);
        }
        t.into_sorted()
            .into_iter()
            .map(|r| (r.score, r.key))
            .collect()
    }

    #[test]
    fn equals_full_sort_prefix_with_ties() {
        let items: Vec<(f32, u64)> = (0..200u64)
            .map(|i| (((i * 7) % 13) as f32 / 13.0, i))
            .collect();
        for k in [0, 1, 3, 13, 57, 200, 500] {
            assert_eq!(run_topk(&items, k), naive_topk(&items, k), "k={k}");
        }
    }

    #[test]
    fn zero_k_keeps_nothing() {
        let mut t = TopK::new(0);
        t.push(1.0, 1, 0);
        assert!(t.is_empty());
        assert!(t.into_sorted().is_empty());
    }

    #[test]
    fn rows_travel_with_hits() {
        let mut t = TopK::new(2);
        t.push(0.5, 10, 3);
        t.push(0.9, 11, 7);
        t.push(0.1, 12, 9);
        let rows: Vec<usize> = t.into_sorted().iter().map(|r| r.row).collect();
        assert_eq!(rows, vec![7, 3]);
    }
}
