//! Snippet index: featurisation + light-weight search (Aroma stages 1–2).
//!
//! Every added snippet is reduced to a sparse feature vector and posted
//! into an inverted index ([`spt::Postings`]); the search stage walks the
//! posting lists of the query's own features and accumulates every
//! snippet's overlap in one pass — the "matrix multiplication" of the
//! paper's Fig. 3 in its sparse, column-wise form. Scores are exactly
//! those of [`FeatureVec::overlap`] against each stored vector. This is
//! the system's one structural index: the pipeline's retrieval and the
//! server's flat SPT rankings all rank from [`SnippetIndex::ranked`].
//!
//! Entries are immutable and shared (`Arc`), held 256 to a block, each
//! block behind its own `Arc`, as the posting lists are held eight to a
//! block. A copy-on-write clone of the index copies the id column, the
//! id → slot map, the postings' feature → slot map and one pointer per
//! block — no list, source or vector — and a write then copies the blocks
//! it touches: those of the lists its features post to, and one or two
//! entry blocks. At 6,000 csn PEs a clone takes 0.07–0.09 ms and a PE write
//! against a held clone 0.40–0.48 ms, where copying every list took
//! 2.2–2.6 ms (`cargo run -p laminar-bench --release --bin
//! eval_write_stalls`, 2-vCPU shared container). Every clone shares what
//! an entry has memoised: its statement granules, which prune & rerank and
//! completion need and which depend on the source alone, so each snippet is
//! parsed for them at most once, by the first request that retrieves it.

use crate::prune::{statement_granules, Granules};
use spt::{FeatureVec, Overlaps, Postings, Spt};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Registry-wide identifier of an indexed snippet.
pub type SnippetId = u64;

/// A code snippet to index (typically one PE class or one function).
#[derive(Debug, Clone)]
pub struct Snippet {
    pub id: SnippetId,
    pub name: String,
    pub code: String,
}

impl Snippet {
    pub fn new(id: SnippetId, name: impl Into<String>, code: impl Into<String>) -> Self {
        Snippet {
            id,
            name: name.into(),
            code: code.into(),
        }
    }
}

/// A search hit with its retrieval score (feature overlap).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredSnippet {
    pub id: SnippetId,
    pub score: f32,
}

struct Entry {
    snippet: Snippet,
    /// Kept to un-post the entry when it is replaced or removed.
    vec: FeatureVec,
    /// `statement_granules(snippet.code)`, once something has asked.
    granules: OnceLock<Granules>,
}

/// Entries per block of the entry column: the unit a write copies when a
/// clone shares it.
const ENTRIES: usize = 256;

/// One `Arc<Entry>` per slot, in blocks of [`ENTRIES`], each block behind
/// its own `Arc`. Every block but the last is full.
#[derive(Default, Clone)]
struct Entries {
    blocks: Vec<Arc<Vec<Arc<Entry>>>>,
}

impl Entries {
    fn get(&self, slot: usize) -> &Arc<Entry> {
        &self.blocks[slot / ENTRIES][slot % ENTRIES]
    }

    /// The entry in `slot`, its block copied first if a clone shares it.
    fn get_mut(&mut self, slot: usize) -> &mut Arc<Entry> {
        &mut Arc::make_mut(&mut self.blocks[slot / ENTRIES])[slot % ENTRIES]
    }

    fn push(&mut self, entry: Arc<Entry>) {
        if self.blocks.last().is_none_or(|b| b.len() == ENTRIES) {
            self.blocks.push(Arc::new(Vec::with_capacity(ENTRIES)));
        }
        let last = self.blocks.last_mut().expect("a block with room");
        Arc::make_mut(last).push(entry);
    }

    /// Take the entry in `slot` and move the last one into its place.
    fn swap_remove(&mut self, slot: usize) -> Arc<Entry> {
        let tail_at = self
            .blocks
            .len()
            .checked_sub(1)
            .expect("an entry to remove");
        let tail = &mut self.blocks[tail_at];
        let last_slot = tail_at * ENTRIES + tail.len() - 1;
        let last = Arc::make_mut(tail).pop().expect("no block is empty");
        if tail.is_empty() {
            self.blocks.pop();
        }
        if slot == last_slot {
            last
        } else {
            std::mem::replace(self.get_mut(slot), last)
        }
    }
}

/// The in-memory structural index. `Clone` so a server can publish it in
/// an Arc-snapshot RCU state and mutate through `Arc::make_mut`.
#[derive(Default, Clone)]
pub struct SnippetIndex {
    entries: Entries,
    /// `entries[slot].snippet.id` per slot, contiguous: scoring every
    /// entry reads this column instead of one heap `Entry` per row.
    ids: Vec<SnippetId>,
    /// id → slot in `entries`, for O(1) lookup/upsert/remove.
    by_id: HashMap<SnippetId, usize>,
    /// Every entry's vector, posted under its slot.
    postings: Postings,
}

impl SnippetIndex {
    pub fn new() -> Self {
        SnippetIndex::default()
    }

    /// Parse, featurise and store a snippet, replacing any entry with the
    /// same id. Returns the number of distinct features extracted (0 for
    /// unparseable/empty code — still indexed so ids stay dense, but it
    /// can never be retrieved).
    pub fn upsert(&mut self, snippet: Snippet) -> usize {
        let vec = Spt::parse_source(&snippet.code).feature_vec();
        let n = vec.len();
        self.insert(snippet, vec);
        n
    }

    /// Remove by id (swap-remove). Returns `true` when present.
    pub fn remove(&mut self, id: SnippetId) -> bool {
        let Some(ix) = self.by_id.remove(&id) else {
            return false;
        };
        let gone = self.entries.swap_remove(ix);
        self.ids.swap_remove(ix);
        self.postings.remove(ix, &gone.vec);
        if let Some(&moved) = self.ids.get(ix) {
            self.postings
                .relabel(self.ids.len(), ix, &self.entries.get(ix).vec);
            self.by_id.insert(moved, ix);
        }
        true
    }

    pub fn clear(&mut self) {
        self.entries = Entries::default();
        self.ids.clear();
        self.by_id.clear();
        self.postings.clear();
    }

    /// Store a snippet under a feature vector the caller already holds,
    /// replacing any entry with the same id. The one insertion primitive:
    /// [`upsert`](Self::upsert) featurises and then comes here.
    pub fn insert(&mut self, snippet: Snippet, vec: FeatureVec) {
        let entry = Arc::new(Entry {
            snippet,
            vec,
            granules: OnceLock::new(),
        });
        match self.by_id.get(&entry.snippet.id) {
            Some(&ix) => {
                self.postings.remove(ix, &self.entries.get(ix).vec);
                self.postings.insert(ix, &entry.vec);
                *self.entries.get_mut(ix) = entry;
            }
            None => {
                let ix = self.ids.len();
                self.postings.insert(ix, &entry.vec);
                self.by_id.insert(entry.snippet.id, ix);
                self.ids.push(entry.snippet.id);
                self.entries.push(entry);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    pub fn get(&self, id: SnippetId) -> Option<&Snippet> {
        self.by_id.get(&id).map(|&ix| &self.entries.get(ix).snippet)
    }

    /// The feature vector snippet `id` is posted under.
    pub fn vector(&self, id: SnippetId) -> Option<&FeatureVec> {
        self.by_id.get(&id).map(|&ix| &self.entries.get(ix).vec)
    }

    /// The statement granules of snippet `id`'s source. Parsed on first
    /// use and kept for as long as the entry lives — in this index and in
    /// every clone of it.
    pub fn granules(&self, id: SnippetId) -> Option<&Granules> {
        let entry = self.entries.get(*self.by_id.get(&id)?);
        Some(
            entry
                .granules
                .get_or_init(|| statement_granules(&entry.snippet.code)),
        )
    }

    /// Every entry with its overlap with `qvec` — zeros included, in
    /// slot order ([`ids`](Self::ids)).
    pub fn scored(&self, qvec: &FeatureVec) -> impl Iterator<Item = ScoredSnippet> + '_ {
        self.postings
            .overlaps(qvec, self.ids.len())
            .into_iter()
            .zip(&self.ids)
            .map(|(score, &id)| ScoredSnippet { id, score })
    }

    /// Retrieve the `top_n` snippets by feature overlap with `query_code`.
    /// Ties break towards lower ids so results are deterministic.
    pub fn search(&self, query_code: &str, top_n: usize) -> Vec<ScoredSnippet> {
        let qvec = Spt::parse_source(query_code).feature_vec();
        self.search_vec(&qvec, top_n)
    }

    /// Same, with a pre-computed query vector.
    pub fn search_vec(&self, qvec: &FeatureVec, top_n: usize) -> Vec<ScoredSnippet> {
        if qvec.is_empty() {
            return Vec::new();
        }
        self.ranked(qvec, top_n, |score| score > 0.0)
    }

    /// The best `k` entries whose overlap with `qvec` passes `keep`, best
    /// first, ties by ascending id — the prefix of sorting every kept
    /// entry by score, then id. `keep` must be upward closed: a score
    /// above a kept one is kept. The one ranking every search over this
    /// index runs.
    pub fn ranked(
        &self,
        qvec: &FeatureVec,
        k: usize,
        keep: impl Fn(f32) -> bool,
    ) -> Vec<ScoredSnippet> {
        if k == 0 {
            return Vec::new();
        }
        match self.postings.scores(qvec, self.ids.len()) {
            Overlaps::Counts(scores) => self.ranked_counts(&scores, k, keep),
            Overlaps::Floats(scores) => {
                let mut hits: Vec<ScoredSnippet> = scores
                    .into_iter()
                    .zip(&self.ids)
                    .filter(|&(score, _)| keep(score))
                    .map(|(score, &id)| ScoredSnippet { id, score })
                    .collect();
                let best_first = |a: &ScoredSnippet, b: &ScoredSnippet| {
                    b.score.total_cmp(&a.score).then(a.id.cmp(&b.id))
                };
                if hits.len() > k {
                    hits.select_nth_unstable_by(k, best_first);
                    hits.truncate(k);
                }
                hits.sort_unstable_by(best_first);
                hits
            }
        }
    }

    /// [`ranked`](Self::ranked) over integer scores, by counting: a
    /// histogram of the scores finds the lowest score a returned entry can
    /// have (the cut), a counting sort orders the slots at or above it by
    /// score, and only those slots' ids are read — each score's run sorted
    /// by id, the cut's run cut to what `k` leaves room for.
    fn ranked_counts(
        &self,
        scores: &[u16],
        k: usize,
        keep: impl Fn(f32) -> bool,
    ) -> Vec<ScoredSnippet> {
        let Some(&best) = scores.iter().max() else {
            return Vec::new();
        };
        let mut runs = vec![0u32; usize::from(best) + 1];
        for &s in scores {
            runs[usize::from(s)] += 1;
        }
        let (mut cut, mut above) = (None, 0usize);
        for s in (0..=best).rev() {
            if above >= k || !keep(f32::from(s)) {
                break;
            }
            cut = Some(s);
            above += runs[usize::from(s)] as usize;
        }
        let Some(cut) = cut else {
            return Vec::new();
        };
        // `next[best - s]`: where score `s`'s next slot goes, best first.
        let mut next = Vec::with_capacity(usize::from(best - cut) + 1);
        let mut end = 0;
        for s in (cut..=best).rev() {
            next.push(end);
            end += runs[usize::from(s)] as usize;
        }
        let mut order = vec![0u32; end];
        for (slot, &s) in (0u32..).zip(scores) {
            if s >= cut {
                let at = &mut next[usize::from(best - s)];
                order[*at] = slot;
                *at += 1;
            }
        }
        let mut hits = Vec::with_capacity(end.min(k));
        let mut run = order.as_slice();
        for s in (cut..=best).rev() {
            let (this, rest) = run.split_at(runs[usize::from(s)] as usize);
            run = rest;
            let from = hits.len();
            hits.extend(this.iter().map(|&slot| ScoredSnippet {
                id: self.ids[slot as usize],
                score: f32::from(s),
            }));
            let room = k - from;
            let tied = &mut hits[from..];
            if tied.len() > room {
                tied.select_nth_unstable_by_key(room, |h| h.id);
                hits.truncate(from + room);
            }
            hits[from..].sort_unstable_by_key(|h| h.id);
        }
        hits
    }

    /// Iterate over all snippet ids, in slab order (insertion order until
    /// the first remove).
    pub fn ids(&self) -> impl Iterator<Item = SnippetId> + '_ {
        self.ids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_index() -> SnippetIndex {
        let mut ix = SnippetIndex::new();
        ix.upsert(Snippet::new(
            1,
            "SumPE",
            "def process(self, data):\n    total = 0\n    for item in data:\n        total += item\n    return total\n",
        ));
        ix.upsert(Snippet::new(
            2,
            "ReadPE",
            "def process(self, path):\n    with open(path) as fh:\n        return fh.read()\n",
        ));
        ix.upsert(Snippet::new(
            3,
            "MaxPE",
            "def process(self, data):\n    best = None\n    for item in data:\n        if best is None or item > best:\n            best = item\n    return best\n",
        ));
        ix
    }

    #[test]
    fn exact_code_ranks_first() {
        let ix = demo_index();
        let q = ix.get(2).unwrap().code.clone();
        let hits = ix.search(&q, 3);
        assert_eq!(hits[0].id, 2);
        assert!(hits[0].score > hits.get(1).map(|h| h.score).unwrap_or(0.0));
    }

    #[test]
    fn loop_query_prefers_loop_snippets() {
        let ix = demo_index();
        let hits = ix.search("for item in data:\n    total += item\n", 3);
        assert_eq!(hits[0].id, 1, "{hits:?}");
    }

    #[test]
    fn partial_snippet_still_retrieves() {
        let ix = demo_index();
        let full = ix.get(1).unwrap().code.clone();
        let half = pyparse::drop_suffix_fraction(&full, 0.5);
        let hits = ix.search(&half, 3);
        assert_eq!(hits[0].id, 1, "{hits:?}");
    }

    #[test]
    fn empty_query_returns_nothing() {
        let ix = demo_index();
        assert!(ix.search("", 5).is_empty());
        assert!(ix.search("   \n", 5).is_empty());
    }

    #[test]
    fn top_n_zero_and_truncation() {
        let ix = demo_index();
        assert!(ix.search("for item in data: pass\n", 0).is_empty());
        let hits = ix.search("def process(self, data):\n    return data\n", 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn zero_overlap_excluded() {
        let mut ix = SnippetIndex::new();
        ix.upsert(Snippet::new(7, "A", "import os\n"));
        let hits = ix.search("class Completely:\n    pass\n", 5);
        assert!(hits.iter().all(|h| h.score > 0.0));
    }

    #[test]
    fn deterministic_tie_break() {
        let mut ix = SnippetIndex::new();
        ix.upsert(Snippet::new(10, "B", "x = 1\n"));
        ix.upsert(Snippet::new(4, "A", "x = 1\n"));
        let hits = ix.search("x = 1\n", 2);
        assert_eq!(hits[0].id, 4, "lower id wins ties");
    }

    #[test]
    fn unparseable_snippet_indexed_but_inert() {
        let mut ix = SnippetIndex::new();
        let n = ix.upsert(Snippet::new(1, "junk", ""));
        assert_eq!(n, 0);
        assert_eq!(ix.len(), 1);
        assert!(ix.search("x = 1\n", 5).is_empty());
    }

    #[test]
    fn lookup_api() {
        let ix = demo_index();
        assert_eq!(ix.get(1).unwrap().name, "SumPE");
        assert!(ix.get(99).is_none());
        assert_eq!(ix.ids().count(), 3);
    }

    #[test]
    fn upsert_replaces_in_place() {
        let mut ix = demo_index();
        ix.upsert(Snippet::new(1, "SumPE", "with open(p) as fh:\n    pass\n"));
        assert_eq!(ix.len(), 3);
        assert!(ix.get(1).unwrap().code.contains("open"));
        // The accumulate loop no longer top-ranks the replaced snippet.
        let hits = ix.search("for item in data:\n    total += item\n", 3);
        assert_ne!(hits[0].id, 1, "{hits:?}");
    }

    /// A clone shares every entry block; a write then copies the blocks
    /// it touches and no other, and the clone keeps what it held.
    #[test]
    fn a_write_copies_only_the_entry_blocks_it_touches() {
        let vec = |id: u64| FeatureVec {
            items: vec![(id % 7, 1.0)],
        };
        let mut ix = SnippetIndex::new();
        let n = 3 * ENTRIES as u64 + 10;
        for id in 0..n {
            ix.insert(Snippet::new(id, "old", ""), vec(id));
        }
        let held = ix.clone();
        let shared = |ix: &SnippetIndex| -> Vec<bool> {
            held.entries
                .blocks
                .iter()
                .zip(&ix.entries.blocks)
                .map(|(a, b)| Arc::ptr_eq(a, b))
                .collect()
        };
        assert_eq!(shared(&ix), [true; 4]);
        // A replace in block 1 copies block 1.
        let replaced = ENTRIES as u64 + 3;
        ix.insert(Snippet::new(replaced, "new", ""), vec(replaced));
        assert_eq!(shared(&ix), [true, false, true, true]);
        // A swap-remove in block 0 copies block 0 and the last block.
        assert!(ix.remove(5));
        assert_eq!(shared(&ix), [false, false, true, false]);
        assert_eq!(ix.get(n - 1).map(|s| s.id), Some(n - 1));
        assert_eq!(ix.vector(n - 1), Some(&vec(n - 1)));
        assert_eq!(held.get(replaced).unwrap().name, "old");
        assert_eq!(held.get(5).unwrap().name, "old");
        assert_eq!(held.len() as u64, n);
        // Removing the last block's entries (ids from 3 × ENTRIES to
        // n - 2; n - 1 moved to slot 5) drops the block.
        for id in 3 * ENTRIES as u64..n - 2 {
            assert!(ix.remove(id));
        }
        assert_eq!(ix.entries.blocks.len(), 4);
        assert!(ix.remove(n - 2));
        assert_eq!(ix.entries.blocks.len(), 3);
        assert_eq!(ix.len(), 3 * ENTRIES);
        assert_eq!(ix.vector(n - 1), Some(&vec(n - 1)));
    }

    #[test]
    fn remove_then_search_skips_removed() {
        let mut ix = demo_index();
        assert!(ix.remove(1));
        assert!(!ix.remove(1));
        assert_eq!(ix.len(), 2);
        assert!(ix.get(1).is_none());
        // The swap-removed slot still resolves the moved entry.
        assert_eq!(ix.get(3).unwrap().name, "MaxPE");
        let hits = ix.search("for item in data:\n    total += item\n", 3);
        assert!(hits.iter().all(|h| h.id != 1), "{hits:?}");
        ix.clear();
        assert!(ix.is_empty());
    }
}
