//! Snippet index: featurisation + light-weight search (Aroma stages 1–2).
//!
//! Every added snippet is reduced to a sparse feature vector and posted
//! into an inverted index ([`spt::Postings`]); the search stage walks the
//! posting lists of the query's own features and accumulates every
//! snippet's overlap in one pass — the "matrix multiplication" of the
//! paper's Fig. 3 in its sparse, column-wise form. Scores are exactly
//! those of [`FeatureVec::overlap`] against each stored vector. This is
//! the system's one structural index: the pipeline's retrieval and the
//! server's flat SPT rankings all start from [`SnippetIndex::scored`].
//!
//! Entries are immutable and shared (`Arc`): a copy-on-write clone of the
//! index copies the posting map, the id column and one pointer per entry,
//! not sources, and every clone shares what an entry has memoised — its
//! statement granules, which prune & rerank and completion need and which
//! depend on the source alone, so each snippet is parsed for them at most
//! once, by the first request that retrieves it.

use crate::prune::{statement_granules, Granule};
use spt::{FeatureVec, Postings, Spt};
use std::cmp::Ordering;
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
    granules: OnceLock<Vec<Granule>>,
}

/// The in-memory structural index. `Clone` so a server can publish it in
/// an Arc-snapshot RCU state and mutate through `Arc::make_mut`.
#[derive(Default, Clone)]
pub struct SnippetIndex {
    entries: Vec<Arc<Entry>>,
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
        if let Some(moved) = self.entries.get(ix) {
            self.postings.relabel(self.entries.len(), ix, &moved.vec);
            self.by_id.insert(moved.snippet.id, ix);
        }
        true
    }

    pub fn clear(&mut self) {
        self.entries.clear();
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
                self.postings.remove(ix, &self.entries[ix].vec);
                self.postings.insert(ix, &entry.vec);
                self.entries[ix] = entry;
            }
            None => {
                let ix = self.entries.len();
                self.postings.insert(ix, &entry.vec);
                self.by_id.insert(entry.snippet.id, ix);
                self.ids.push(entry.snippet.id);
                self.entries.push(entry);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, id: SnippetId) -> Option<&Snippet> {
        self.by_id.get(&id).map(|&ix| &self.entries[ix].snippet)
    }

    /// The statement granules of snippet `id`'s source. Parsed on first
    /// use and kept for as long as the entry lives — in this index and in
    /// every clone of it.
    pub fn granules(&self, id: SnippetId) -> Option<&[Granule]> {
        let entry = &self.entries[*self.by_id.get(&id)?];
        Some(
            entry
                .granules
                .get_or_init(|| statement_granules(&entry.snippet.code)),
        )
    }

    /// Every entry with its overlap with `qvec` — zeros included, in
    /// slot order ([`ids`](Self::ids)). The one scoring pass every
    /// ranking over this index starts from.
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
        if qvec.is_empty() || self.entries.is_empty() || top_n == 0 {
            return Vec::new();
        }
        let mut scored: Vec<ScoredSnippet> = self.scored(qvec).filter(|s| s.score > 0.0).collect();
        let best_first = |a: &ScoredSnippet, b: &ScoredSnippet| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then(a.id.cmp(&b.id))
        };
        // Most rows share some feature with any query; only `top_n` of
        // them need ordering.
        if scored.len() > top_n {
            scored.select_nth_unstable_by(top_n, best_first);
            scored.truncate(top_n);
        }
        scored.sort_unstable_by(best_first);
        scored
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
