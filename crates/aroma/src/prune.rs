//! Prune and rerank (Aroma stage 3; paper Fig. 3 "Prune and Rerank").
//!
//! Retrieval scores whole snippets, which favours *large* snippets that
//! mention everything. Pruning fixes that: each retrieved snippet is cut
//! down to the statements that actually contribute overlap with the query,
//! and the snippet is re-scored by how much of the *query* the pruned
//! version covers (containment), so small precise matches outrank large
//! diffuse ones.

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

/// One pruning granule: a statement's header text and feature vector.
pub type Granule = (String, FeatureVec);

/// All statement granules of `code`, in source order; statements without
/// features are left out. They depend on `code` alone, which is why the
/// index memoises them per snippet
/// ([`SnippetIndex::granules`](crate::SnippetIndex::granules)).
pub fn statement_granules(code: &str) -> Vec<Granule> {
    let tree = pyparse::parse(code);
    statement_nodes(&tree)
        .into_iter()
        .filter_map(|s| {
            let (text, vec) = granule(&tree, s);
            if vec.is_empty() {
                None
            } else {
                Some((text, vec))
            }
        })
        .collect()
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
    let mut acc = FeatureVec::default();
    for s in statement_nodes(tree) {
        let (_, v) = granule(tree, s);
        acc = merge(&acc, &v);
    }
    // A bare expression (no statement granules) still featurises whole-tree.
    if acc.is_empty() {
        acc = Spt::from_parse_tree(tree).feature_vec();
    }
    acc
}

/// Prune `code` against the query's *granulated* feature vector and
/// rerank: [`prune_granules`] over [`statement_granules`] of `code`.
pub fn prune_and_rerank(id: u64, code: &str, query_vec: &FeatureVec) -> PrunedSnippet {
    prune_granules(id, &statement_granules(code), query_vec)
}

/// Prune a candidate, given as its statement granules, against the
/// query's *granulated* feature vector and rerank.
///
/// Greedy marginal-gain selection: statements are considered in source
/// order and kept when they add at least one new overlapping feature with
/// the query that previously-kept statements did not already cover.
pub fn prune_granules(id: u64, granules: &[Granule], query_vec: &FeatureVec) -> PrunedSnippet {
    let mut kept_statements = Vec::new();
    let mut kept_vecs: Vec<FeatureVec> = Vec::new();
    let mut covered = 0.0f32;
    let mut pruned_vec = FeatureVec::default();

    for (text, svec) in granules {
        // Marginal gain: overlap of (pruned ∪ stmt) with query minus what
        // is already covered. Compute via merged vector.
        let merged = merge(&pruned_vec, svec);
        let new_cover = query_vec.overlap(&merged);
        if new_cover > covered + f32::EPSILON {
            covered = new_cover;
            pruned_vec = merged;
            kept_statements.push(text.clone());
            kept_vecs.push(svec.clone());
        }
    }

    let qtotal = query_vec.total();
    let containment = if qtotal > 0.0 { covered / qtotal } else { 0.0 };
    // Rerank = coverage of the query × closeness of the pruned snippet.
    // The cosine factor penalises diffuse snippets that cover the query
    // only by also dragging in unrelated statements.
    let rerank_score = containment * query_vec.cosine(&pruned_vec);

    PrunedSnippet {
        id,
        kept_statements,
        kept_vecs,
        rerank_score,
        pruned_vec,
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

/// Multiset union (max of counts would be set-union; sum keeps weights —
/// Aroma uses the multiset sum of distinct statement contributions).
fn merge(a: &FeatureVec, b: &FeatureVec) -> FeatureVec {
    let mut items = Vec::with_capacity(a.items.len() + b.items.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.items.len() || j < b.items.len() {
        match (a.items.get(i), b.items.get(j)) {
            (Some(&(ia, ca)), Some(&(ib, cb))) => match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    items.push((ia, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    items.push((ib, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    items.push((ia, ca + cb));
                    i += 1;
                    j += 1;
                }
            },
            (Some(&(ia, ca)), None) => {
                items.push((ia, ca));
                i += 1;
            }
            (None, Some(&(ib, cb))) => {
                items.push((ib, cb));
                j += 1;
            }
            (None, None) => break,
        }
    }
    FeatureVec { items }
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
    fn merge_is_sorted_sum() {
        let a = FeatureVec {
            items: vec![(1, 2.0), (5, 1.0)],
        };
        let b = FeatureVec {
            items: vec![(1, 1.0), (3, 4.0)],
        };
        let m = merge(&a, &b);
        assert_eq!(m.items, vec![(1, 3.0), (3, 4.0), (5, 1.0)]);
    }

    #[test]
    fn kept_vecs_parallel_to_statements() {
        let q = qvec(CANDIDATE);
        let pruned = prune_and_rerank(1, CANDIDATE, &q);
        assert_eq!(pruned.kept_statements.len(), pruned.kept_vecs.len());
        assert!(!pruned.kept_statements.is_empty());
    }
}
