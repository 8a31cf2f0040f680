//! Prune and rerank (Aroma stage 3; paper Fig. 3 "Prune and Rerank").
//!
//! Retrieval scores whole snippets, which favours *large* snippets that
//! mention everything. Pruning fixes that: each retrieved snippet is cut
//! down to the statements that actually contribute overlap with the query,
//! and the snippet is re-scored by how much of the *query* the pruned
//! version covers (containment), so small precise matches outrank large
//! diffuse ones.
//!
//! A candidate's statements live in one [`Granules`] value: their texts,
//! the candidate's sorted distinct feature ids, and per statement a run of
//! `(local id, count)` pairs, a local id indexing those feature ids. A
//! [`Pruner`] holds one query and scratch buffers reused across
//! candidates. For each candidate it maps local ids to query slots with one
//! sorted merge, then scores every statement's marginal gain from per-slot
//! coverage: no union vector is built and nothing is allocated per
//! candidate. The engine materialises a [`PrunedSnippet`] only for the
//! candidates the rerank keeps.
//!
//! Exactness: every count is an integral `f32` (featurisers count with
//! `+= 1.0` and unions add counts) and every sum here stays far below
//! 2^24, so each sum is exact in any order. Coverage, dot products and
//! norms summed per query slot or per local id therefore equal, bit for
//! bit, what `FeatureVec`'s sorted merges over a union vector compute;
//! `tests/prune_equivalence.rs` checks it against that merge-based oracle.

use pyparse::{NodeId, NodeKind, ParseTree, SyntaxKind};
use spt::{FeatureVec, Spt};

/// A snippet pruned against a query.
#[derive(Debug, Clone)]
pub struct PrunedSnippet {
    pub id: u64,
    /// Kept statements, in source order, as token text.
    pub kept_statements: Vec<String>,
    /// Feature vectors of the kept statements (parallel to `kept_statements`).
    pub kept_vecs: Vec<FeatureVec>,
    /// Rerank score: containment of the query in the pruned snippet,
    /// weighted by the raw overlap (so richer matches still win ties).
    pub rerank_score: f32,
    /// Union feature vector of the kept statements.
    pub pruned_vec: FeatureVec,
}

/// Statement-level nodes of a parse tree: the direct children of the module
/// and of every block. These are the pruning granules.
pub fn statement_nodes(tree: &ParseTree) -> Vec<NodeId> {
    let mut out = Vec::new();
    let Some(root) = tree.root else {
        return out;
    };
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        let is_container = matches!(
            tree.kind(id),
            Some(SyntaxKind::Module) | Some(SyntaxKind::Block)
        );
        for &c in tree.node(id).children.iter().rev() {
            if is_container && tree.kind(c).is_some() {
                out.push(c);
            }
            stack.push(c);
        }
    }
    // Stack order mangles source order; restore by NodeId (arena ids grow
    // roughly in parse order, and statements are created in order).
    out.sort_unstable();
    out.dedup();
    out
}

/// A candidate's statement granules, in source order: each statement's
/// header text and its feature vector, stored as a run of
/// `(local id, count)` pairs over the candidate's sorted distinct feature
/// ids. Local ids ascend with feature ids, so a statement's
/// [`FeatureVec`] is rebuilt exactly by [`vec`](Self::vec).
#[derive(Debug)]
pub struct Granules {
    texts: Vec<String>,
    /// Every feature id of every statement, sorted, distinct.
    features: Vec<u64>,
    /// Statement `i`'s run is `runs[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    runs: Vec<(u32, f32)>,
    /// The text of the source's first function definition, or empty.
    first_function: String,
}

impl Granules {
    /// Store `statements` (text, feature vector), in the order given.
    pub fn new(statements: Vec<(String, FeatureVec)>) -> Granules {
        let mut features: Vec<u64> = statements
            .iter()
            .flat_map(|(_, v)| v.items.iter().map(|&(id, _)| id))
            .collect();
        features.sort_unstable();
        features.dedup();
        let mut texts = Vec::with_capacity(statements.len());
        let mut offsets = Vec::with_capacity(statements.len() + 1);
        offsets.push(0);
        let mut runs = Vec::new();
        for (text, vec) in statements {
            runs.extend(vec.items.iter().map(|&(id, count)| {
                let local = features.binary_search(&id).expect("collected above");
                (local as u32, count)
            }));
            offsets.push(runs.len() as u32);
            texts.push(text);
        }
        Granules {
            texts,
            features,
            offsets,
            runs,
            first_function: String::new(),
        }
    }

    /// The text of the first function definition in the source these
    /// granules were cut from ([`first_function_text`]); empty for
    /// granules built from statements alone.
    pub fn first_function(&self) -> &str {
        &self.first_function
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// The statement texts, in source order.
    pub fn texts(&self) -> &[String] {
        &self.texts
    }

    /// Statement `i`'s feature vector.
    pub fn vec(&self, i: usize) -> FeatureVec {
        FeatureVec {
            items: self
                .run(i)
                .iter()
                .map(|&(local, count)| (self.features[local as usize], count))
                .collect(),
        }
    }

    /// Statement `i`'s `(local id, count)` pairs, ascending by local id.
    fn run(&self, i: usize) -> &[(u32, f32)] {
        &self.runs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Per statement, in order: the containment of its vector in `vec`
    /// ([`FeatureVec::containment_in`], the same bits), or `None` for a
    /// statement without features.
    pub(crate) fn containments_in<'a>(
        &'a self,
        vec: &'a FeatureVec,
    ) -> impl Iterator<Item = Option<f32>> + 'a {
        let mut slot_of = Vec::new();
        self.slots_in(vec, &mut slot_of);
        (0..self.len()).map(move |i| {
            let run = self.run(i);
            if run.is_empty() {
                return None;
            }
            let (mut overlap, mut total) = (0.0f32, 0.0f32);
            for &(local, w) in run {
                total += w;
                let slot = slot_of[local as usize];
                if slot != NO_SLOT {
                    overlap += w.min(vec.items[slot as usize].1);
                }
            }
            Some(if total == 0.0 { 0.0 } else { overlap / total })
        })
    }

    /// Fill `slot_of` with, per local id, the index of the same feature in
    /// `vec.items`, or [`NO_SLOT`]: one sorted merge.
    fn slots_in(&self, vec: &FeatureVec, slot_of: &mut Vec<u32>) {
        slot_of.clear();
        let items = &vec.items;
        let mut j = 0;
        for &f in &self.features {
            while j < items.len() && items[j].0 < f {
                j += 1;
            }
            slot_of.push(match items.get(j) {
                Some(&(id, _)) if id == f => j as u32,
                _ => NO_SLOT,
            });
        }
    }
}

/// All statement granules of `code`, in source order; statements without
/// features are left out. They depend on `code` alone, which is why the
/// index memoises them per snippet
/// ([`SnippetIndex::granules`](crate::SnippetIndex::granules)).
///
/// The same parse supplies [`Granules::first_function`], which a
/// recommendation shows beside its match.
pub fn statement_granules(code: &str) -> Granules {
    let tree = pyparse::parse(code);
    let mut granules = Granules::new(
        statement_nodes(&tree)
            .into_iter()
            .map(|s| granule(&tree, s))
            .filter(|(_, vec)| !vec.is_empty())
            .collect(),
    );
    granules.first_function = first_function_text(&tree);
    granules
}

/// The text of `tree`'s first function definition, in preorder (Fig. 9's
/// `similarFunc`), or empty when it defines none.
pub fn first_function_text(tree: &ParseTree) -> String {
    tree.find_kind(SyntaxKind::FuncDef)
        .first()
        .map(|&f| tree.text_of(f))
        .unwrap_or_default()
}

/// Featurise `code` in granule form: the multiset union of its statement
/// granules (headers for compound statements). Queries must be featurised
/// this way before [`prune_and_rerank`] so that both sides of the
/// containment/cosine comparison live in the same feature space.
pub fn granulated_vec(code: &str) -> FeatureVec {
    granulated_vec_of(&pyparse::parse(code))
}

/// [`granulated_vec`] of source the caller has already parsed.
pub fn granulated_vec_of(tree: &ParseTree) -> FeatureVec {
    // Every statement's pairs in one column, sorted, equal ids summed:
    // the counts are integral, so the sums do not depend on their order.
    let mut items: Vec<(u64, f32)> = statement_nodes(tree)
        .into_iter()
        .flat_map(|s| granule(tree, s).1.items)
        .collect();
    // A bare expression (no statement granules) still featurises whole-tree.
    if items.is_empty() {
        return Spt::from_parse_tree(tree).feature_vec();
    }
    items.sort_unstable_by_key(|&(id, _)| id);
    items.dedup_by(|a, b| {
        if a.0 == b.0 {
            b.1 += a.1;
            true
        } else {
            false
        }
    });
    FeatureVec { items }
}

/// Prune `code` against the query's *granulated* feature vector and
/// rerank: [`prune`] over [`statement_granules`] of `code`.
pub fn prune_and_rerank(id: u64, code: &str, query_vec: &FeatureVec) -> PrunedSnippet {
    prune(id, &statement_granules(code), query_vec)
}

/// Prune one candidate, given as its statement granules, against the
/// query's *granulated* feature vector and rerank.
pub fn prune(id: u64, granules: &Granules, query_vec: &FeatureVec) -> PrunedSnippet {
    let mut pruner = Pruner::new(query_vec);
    let mut kept = Vec::new();
    let rerank_score = pruner.score(granules, &mut kept);
    pruner.materialise(id, granules, &kept, rerank_score)
}

/// In [`Pruner`]'s slot map: the local feature is not in the query.
const NO_SLOT: u32 = u32::MAX;

/// Prune & rerank against one query, with scratch reused across
/// candidates: score each candidate with [`score`](Self::score), then
/// [`materialise`](Self::materialise) the ones worth keeping.
pub(crate) struct Pruner<'q> {
    query: &'q FeatureVec,
    qtotal: f32,
    qnorm: f32,
    /// Per local id of the current candidate: its query slot or `NO_SLOT`.
    slot_of: Vec<u32>,
    /// Per query slot: the count the kept statements hold.
    cover: Vec<f32>,
    /// Per local id: the count the kept statements hold.
    counts: Vec<f32>,
}

impl<'q> Pruner<'q> {
    pub(crate) fn new(query: &'q FeatureVec) -> Self {
        Pruner {
            query,
            qtotal: query.total(),
            qnorm: query.norm(),
            slot_of: Vec::new(),
            cover: vec![0.0; query.len()],
            counts: Vec::new(),
        }
    }

    /// Greedy marginal-gain selection: statements are considered in source
    /// order and kept when they add overlap with the query that the
    /// statements kept before them do not already cover. Appends the kept
    /// statements' indices to `kept` and returns the rerank score.
    pub(crate) fn score(&mut self, granules: &Granules, kept: &mut Vec<u32>) -> f32 {
        granules.slots_in(self.query, &mut self.slot_of);
        self.cover.fill(0.0);
        self.counts.clear();
        self.counts.resize(granules.features.len(), 0.0);
        let query = &self.query.items;
        let mut covered = 0.0f32;
        for i in 0..granules.len() {
            let run = granules.run(i);
            // Σ min(q, cov + w) − min(q, cov) over the query features the
            // statement touches: exactly what merging it into the pruned
            // vector adds to the overlap.
            let mut gain = 0.0f32;
            for &(local, w) in run {
                let slot = self.slot_of[local as usize];
                if slot != NO_SLOT {
                    let (q, cov) = (query[slot as usize].1, self.cover[slot as usize]);
                    gain += q.min(cov + w) - q.min(cov);
                }
            }
            if covered + gain > covered + f32::EPSILON {
                covered += gain;
                for &(local, w) in run {
                    self.counts[local as usize] += w;
                    let slot = self.slot_of[local as usize];
                    if slot != NO_SLOT {
                        self.cover[slot as usize] += w;
                    }
                }
                kept.push(i as u32);
            }
        }

        let containment = if self.qtotal > 0.0 {
            covered / self.qtotal
        } else {
            0.0
        };
        // Rerank = coverage of the query × closeness of the pruned snippet.
        // The cosine factor penalises diffuse snippets that cover the query
        // only by also dragging in unrelated statements.
        let dot: f32 = query
            .iter()
            .zip(&self.cover)
            .map(|(&(_, q), &cov)| q * cov)
            .sum();
        let pnorm = self.counts.iter().map(|&c| c * c).sum::<f32>().sqrt();
        let denom = self.qnorm * pnorm;
        let cosine = if denom == 0.0 { 0.0 } else { dot / denom };
        containment * cosine
    }

    /// The [`PrunedSnippet`] of a candidate [`score`](Self::score)d at
    /// `rerank_score`, keeping statements `kept`.
    pub(crate) fn materialise(
        &mut self,
        id: u64,
        granules: &Granules,
        kept: &[u32],
        rerank_score: f32,
    ) -> PrunedSnippet {
        self.counts.clear();
        self.counts.resize(granules.features.len(), 0.0);
        let mut kept_statements = Vec::with_capacity(kept.len());
        let mut kept_vecs = Vec::with_capacity(kept.len());
        for &i in kept {
            let i = i as usize;
            kept_statements.push(granules.texts[i].clone());
            kept_vecs.push(granules.vec(i));
            for &(local, w) in granules.run(i) {
                self.counts[local as usize] += w;
            }
        }
        // Counts are at least 1, so a zero marks a feature no kept
        // statement has.
        let items = granules
            .features
            .iter()
            .zip(&self.counts)
            .filter(|&(_, &c)| c != 0.0)
            .map(|(&f, &c)| (f, c))
            .collect();
        PrunedSnippet {
            id,
            kept_statements,
            kept_vecs,
            rerank_score,
            pruned_vec: FeatureVec { items },
        }
    }
}

/// Render one pruning granule: a simple statement as-is, a compound
/// statement as its *header only* (nested `Block`s are excluded — they have
/// their own granules). This keeps pruning line-precise: a big function
/// cannot swallow the whole query by matching as one unit.
fn granule(tree: &ParseTree, id: NodeId) -> (String, FeatureVec) {
    let mut copy = ParseTree::new();
    let root = copy_excluding_blocks(tree, id, &mut copy, true);
    copy.root = root;
    match root {
        Some(r) => {
            let text = copy.text_of(r);
            let vec = Spt::from_parse_tree(&copy).feature_vec();
            (text, vec)
        }
        None => (String::new(), FeatureVec::default()),
    }
}

fn copy_excluding_blocks(
    src: &ParseTree,
    id: NodeId,
    dst: &mut ParseTree,
    is_root: bool,
) -> Option<NodeId> {
    match &src.node(id).kind {
        NodeKind::Leaf(t) => Some(dst.push(NodeKind::Leaf(t.clone()))),
        NodeKind::Internal(k) => {
            if !is_root && *k == SyntaxKind::Block {
                return None;
            }
            let n = dst.push(NodeKind::Internal(*k));
            for &c in &src.node(id).children {
                if let Some(cc) = copy_excluding_blocks(src, c, dst, false) {
                    dst.add_child(n, cc);
                }
            }
            Some(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANDIDATE: &str = "\
def process(self, data):
    log.debug('starting')
    total = 0
    for item in data:
        total += item
    self.metrics.record(total)
    return total
";

    fn qvec(src: &str) -> FeatureVec {
        granulated_vec(src)
    }

    #[test]
    fn statement_nodes_cover_all_levels() {
        let tree = pyparse::parse(CANDIDATE);
        let stmts = statement_nodes(&tree);
        // funcdef + 5 body statements + the for-loop body statement = 7.
        assert_eq!(stmts.len(), 7, "{:?}", stmts.len());
    }

    #[test]
    fn pruning_keeps_relevant_statements() {
        let q = qvec("total = 0\nfor item in data:\n    total += item\n");
        let pruned = prune_and_rerank(1, CANDIDATE, &q);
        let joined = pruned.kept_statements.join("\n");
        assert!(joined.contains("total"), "{joined}");
        assert!(joined.contains("for"), "{joined}");
        // Irrelevant logging/metrics lines must be dropped.
        assert!(!joined.contains("log . debug"), "{joined}");
        assert!(!joined.contains("metrics"), "{joined}");
    }

    #[test]
    fn rerank_prefers_precise_over_diffuse() {
        let q = qvec("for item in data:\n    total += item\n");
        let precise = prune_and_rerank(1, "for item in data:\n    total += item\n", &q);
        let diffuse_code = format!("{}\n{}", CANDIDATE, "def other(self):\n    return 42\n");
        let diffuse = prune_and_rerank(2, &diffuse_code, &q);
        assert!(
            precise.rerank_score >= diffuse.rerank_score,
            "precise {} vs diffuse {}",
            precise.rerank_score,
            diffuse.rerank_score
        );
    }

    #[test]
    fn empty_query_scores_zero() {
        let pruned = prune_and_rerank(1, CANDIDATE, &FeatureVec::default());
        assert_eq!(pruned.rerank_score, 0.0);
        assert!(pruned.kept_statements.is_empty());
    }

    #[test]
    fn empty_candidate_is_harmless() {
        let q = qvec("x = 1\n");
        let pruned = prune_and_rerank(1, "", &q);
        assert!(pruned.kept_statements.is_empty());
        assert_eq!(pruned.rerank_score, 0.0);
    }

    #[test]
    fn exact_match_scores_highest_and_high() {
        let q = qvec(CANDIDATE);
        let exact = prune_and_rerank(1, CANDIDATE, &q);
        assert!(exact.rerank_score >= 0.99, "score {}", exact.rerank_score);
        let other = prune_and_rerank(
            2,
            "def g(p):\n    with open(p) as fh:\n        return fh.read()\n",
            &q,
        );
        assert!(exact.rerank_score > other.rerank_score);
    }

    #[test]
    fn kept_vecs_parallel_to_statements() {
        let q = qvec(CANDIDATE);
        let pruned = prune_and_rerank(1, CANDIDATE, &q);
        assert_eq!(pruned.kept_statements.len(), pruned.kept_vecs.len());
        assert!(!pruned.kept_statements.is_empty());
    }
}
