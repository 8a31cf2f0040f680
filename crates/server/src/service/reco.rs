//! The recommendation service (paper Fig. 9, §VI): code recommendation
//! through the served Aroma pipeline, and context-aware code completion.
//!
//! Only PEs are indexed for recommendation (the served
//! [`aroma::AromaEngine`] lives in [`SearchIndexes`]): workflow-scope
//! recommendations aggregate PE hits over workflow membership (Fig. 9
//! bottom), they never run the pipeline against workflow code. That
//! aggregation is [`sweep_workflows`] — the inverted-map sweep that
//! replaced the old O(workflows × hits × pe_ids) `contains` scan.
//!
//! [`SearchIndexes`]: crate::indexes::SearchIndexes

use crate::indexes::EntryKind;
use crate::protocol::{EmbeddingType, RecommendationHit, Response, SearchScope};
use crate::server::LaminarServer;
use embed::{DenseVec, ReaccSim};
use spt::{FeatureVec, Spt};
use std::collections::HashMap;

/// A recommendation query, analysed once for however many scopes it is
/// put to: the parsed snippet and its whole-tree SPT vector, or its ReACC
/// embedding.
enum RecoQuery {
    Spt(pyparse::ParseTree, FeatureVec),
    Llm(DenseVec),
}

/// Recommendations returned when a request names no `top_n` (the paper's
/// default).
const RECO_TOP_N: usize = 5;

impl LaminarServer {
    /// `CodeRecommendation`: up to `top_n` PEs, workflows, or both merged on
    /// the shared score scale.
    pub(crate) fn recommend(
        &self,
        scope: SearchScope,
        snippet: &str,
        embedding_type: EmbeddingType,
        top_n: Option<usize>,
    ) -> Response {
        let k = top_n.unwrap_or(RECO_TOP_N);
        self.metrics.groups.reco.requests.inc();
        let query = match embedding_type {
            EmbeddingType::Spt => {
                let tree = pyparse::parse(snippet);
                let q = Spt::from_parse_tree(&tree).feature_vec();
                RecoQuery::Spt(tree, q)
            }
            EmbeddingType::Llm => RecoQuery::Llm(ReaccSim::new().embed_code(snippet)),
        };
        Response::Recommendations(match scope {
            SearchScope::Pe => self.recommend_pes(&query, k),
            SearchScope::Workflow => self.recommend_workflows(&query, k),
            SearchScope::Both => {
                let mut hits = self.recommend_pes(&query, k);
                hits.extend(self.recommend_workflows(&query, k));
                hits.sort_by(|a, b| {
                    b.score
                        .partial_cmp(&a.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.id.cmp(&b.id))
                });
                hits.truncate(k);
                hits
            }
        })
    }

    /// PE-scope recommendations. `spt` runs the full Aroma pipeline
    /// (retrieve → prune & rerank → cluster → intersect) on the engine's
    /// current snapshot; `llm` stays the flat ReACC cosine ranking.
    fn recommend_pes(&self, query: &RecoQuery, k: usize) -> Vec<RecommendationHit> {
        match query {
            RecoQuery::Spt(tree, q) => {
                let engine = self.indexes.engine();
                let start = std::time::Instant::now();
                let (recs, stats) = engine.recommend_parsed(tree, q);
                let groups = &self.metrics.groups;
                groups.search.spt_us.record(start.elapsed());
                groups.reco.pipeline_runs.inc();
                groups.reco.retrieve_us.record(stats.retrieve);
                groups.reco.prune_us.record(stats.prune);
                groups.reco.cluster_us.record(stats.cluster);
                groups.reco.intersect_us.record(stats.intersect);
                recs.into_iter()
                    .filter_map(|r| {
                        let pe = self.registry.pe_row(r.seed_id).ok()?;
                        Some(RecommendationHit {
                            id: r.seed_id,
                            name: pe.name.clone(),
                            description: pe.description.clone(),
                            // The seed's raw feature overlap — the scale the
                            // flat scan always reported (≥ 6.0).
                            score: r.retrieval_score,
                            occurrences: 1,
                            similar_code: first_function(&pe.code),
                            cluster_size: r.cluster_size,
                            common_core: r.code,
                        })
                    })
                    .take(k)
                    .collect()
            }
            RecoQuery::Llm(q) => {
                let start = std::time::Instant::now();
                let hits = self.indexes.rank_reacc(q, Some(EntryKind::Pe), k);
                self.metrics.groups.search.reacc_us.record(start.elapsed());
                hits.into_iter()
                    .filter(|h| h.score >= self.config.reco_min_cosine)
                    .filter_map(|h| {
                        let pe = self.registry.pe_row(h.id).ok()?;
                        Some(RecommendationHit {
                            id: h.id,
                            name: pe.name.clone(),
                            description: pe.description.clone(),
                            score: h.score,
                            occurrences: 1,
                            similar_code: first_function(&pe.code),
                            cluster_size: 1,
                            common_core: String::new(),
                        })
                    })
                    .collect()
            }
        }
    }

    /// Workflow-scope recommendations (Fig. 9 bottom): workflows
    /// containing matching PEs, ranked by total member score. Aggregation
    /// needs *every* PE above threshold (a workflow's rank sums member
    /// scores), so this path uses the threshold scan, not top-k.
    fn recommend_workflows(&self, query: &RecoQuery, k: usize) -> Vec<RecommendationHit> {
        let search = &self.metrics.groups.search;
        let pe_hits: Vec<(u64, f32)> = match query {
            RecoQuery::Spt(_, q) => {
                let start = std::time::Instant::now();
                let hits =
                    self.indexes
                        .rank_spt_above(q, Some(EntryKind::Pe), self.config.reco_min_score);
                search.spt_us.record(start.elapsed());
                hits.into_iter().map(|h| (h.id, h.score)).collect()
            }
            RecoQuery::Llm(q) => {
                let start = std::time::Instant::now();
                let hits = self.indexes.rank_reacc_above(
                    q,
                    Some(EntryKind::Pe),
                    self.config.reco_min_cosine,
                );
                search.reacc_us.record(start.elapsed());
                hits.into_iter().map(|h| (h.id, h.score)).collect()
            }
        };
        // The sweep reads ids and membership in place; only the k winners
        // are hydrated.
        self.registry
            .with_workflow_members(|members| sweep_workflows(&pe_hits, members))
            .into_iter()
            .take(k)
            .filter_map(|(wf_id, score, occurrences)| {
                let wf = self.registry.workflow_row(wf_id).ok()?;
                Some(RecommendationHit {
                    id: wf_id,
                    name: wf.name.clone(),
                    description: wf.description.clone(),
                    score,
                    occurrences,
                    similar_code: String::new(),
                    cluster_size: 0,
                    common_core: String::new(),
                })
            })
            .collect()
    }

    /// `CodeCompletion` (§III): the best SPT match above a relaxed threshold
    /// supplies the untyped remainder.
    pub(crate) fn complete(&self, snippet: &str) -> Response {
        let tree = pyparse::parse(snippet);
        let q = Spt::from_parse_tree(&tree).feature_vec();
        // One engine snapshot both ranks and supplies the winner's
        // statement granules (parsed at most once per PE).
        let engine = self.indexes.engine();
        let start = std::time::Instant::now();
        // Only the single best match matters (the ranking is best-first,
        // so a failed threshold on the top hit fails on every hit).
        let top = engine.index().search_vec(&q, 1);
        self.metrics.groups.search.spt_us.record(start.elapsed());
        let none = Response::Completion {
            source: None,
            lines: Vec::new(),
            progress: 0.0,
        };
        let best = top
            .into_iter()
            // Completion works from much smaller fragments than
            // recommendation, so use half the recommendation threshold.
            .find(|h| h.score >= self.config.reco_min_score / 2.0);
        let Some(hit) = best else {
            return none;
        };
        // (A PE removed since the snapshot is gone from the registry.)
        let (Ok(pe), Some(granules)) = (
            self.registry.pe_row(hit.id),
            engine.index().granules(hit.id),
        ) else {
            return none;
        };
        let completion = aroma::complete_with(&aroma::granulated_vec_of(&tree), granules);
        Response::Completion {
            source: Some((pe.id, pe.name.clone())),
            lines: completion.lines,
            progress: completion.progress,
        }
    }
}

/// Workflow-scope aggregation (Fig. 9 bottom): rank workflows by the
/// summed scores of their matching member PEs. Inverts `pe_hits` into a
/// hash map once, then sweeps each workflow's member list with O(1)
/// lookups — O(hits + Σ|pe_ids|) instead of the old
/// O(workflows × hits × pe_ids) nested `contains` scan. A member id
/// listed twice still counts once, exactly like the scan it replaced.
///
/// Returns `(workflow_id, summed_score, occurrences)` for every workflow
/// with at least one matching member, sorted score-descending with ties
/// broken by ascending id.
pub fn sweep_workflows<'a>(
    pe_hits: &[(u64, f32)],
    workflows: impl IntoIterator<Item = (u64, &'a [u64])>,
) -> Vec<(u64, f32, usize)> {
    // The map carries each hit's rank position so the per-workflow sum
    // runs in hit order — float addition isn't associative, and bit
    // identity with the scan this replaced is part of the contract.
    let by_id: HashMap<u64, (usize, f32)> = pe_hits
        .iter()
        .enumerate()
        .map(|(pos, &(id, score))| (id, (pos, score)))
        .collect();
    let mut out: Vec<(u64, f32, usize)> = workflows
        .into_iter()
        .filter_map(|(wf_id, pe_ids)| {
            let mut matched: Vec<(usize, f32)> = Vec::new();
            for id in pe_ids {
                if let Some(&(pos, s)) = by_id.get(id) {
                    if !matched.iter().any(|&(p, _)| p == pos) {
                        matched.push((pos, s));
                    }
                }
            }
            if matched.is_empty() {
                return None;
            }
            matched.sort_unstable_by_key(|&(pos, _)| pos);
            let score = matched.iter().map(|&(_, s)| s).sum();
            Some((wf_id, score, matched.len()))
        })
        .collect();
    out.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    out
}

/// First function definition's text in `code` (Fig. 9's `similarFunc`).
fn first_function(code: &str) -> String {
    let tree = pyparse::parse(code);
    tree.find_kind(pyparse::SyntaxKind::FuncDef)
        .first()
        .map(|&f| tree.text_of(f))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-inversion aggregation, verbatim from the old server sweep.
    fn naive_sweep<'a>(
        pe_hits: &[(u64, f32)],
        workflows: impl IntoIterator<Item = (u64, &'a [u64])>,
    ) -> Vec<(u64, f32, usize)> {
        let mut out: Vec<(u64, f32, usize)> = workflows
            .into_iter()
            .filter_map(|(wf_id, pe_ids)| {
                let matching: Vec<&(u64, f32)> = pe_hits
                    .iter()
                    .filter(|(id, _)| pe_ids.contains(id))
                    .collect();
                if matching.is_empty() {
                    return None;
                }
                Some((wf_id, matching.iter().map(|(_, s)| s).sum(), matching.len()))
            })
            .collect();
        out.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }

    #[test]
    fn inverted_sweep_matches_naive_contains_scan() {
        // Deterministic synthetic membership: workflow w holds members
        // {w, w+1, … w+4} mod 40; hits cover every third PE id.
        let memberships: Vec<(u64, Vec<u64>)> = (0..50u64)
            .map(|w| (w + 1000, (0..5).map(|m| (w + m) % 40).collect()))
            .collect();
        let pe_hits: Vec<(u64, f32)> = (0..40u64)
            .filter(|id| id % 3 == 0)
            .map(|id| (id, 6.0 + id as f32 * 0.25))
            .collect();
        let wfs = || memberships.iter().map(|(id, pes)| (*id, pes.as_slice()));
        let fast = sweep_workflows(&pe_hits, wfs());
        let naive = naive_sweep(&pe_hits, wfs());
        assert_eq!(fast.len(), naive.len());
        for (f, n) in fast.iter().zip(&naive) {
            assert_eq!(f.0, n.0);
            assert_eq!(f.1.to_bits(), n.1.to_bits(), "wf {}", f.0);
            assert_eq!(f.2, n.2);
        }
        assert!(!fast.is_empty());
    }

    #[test]
    fn sweep_counts_duplicate_members_once() {
        let pe_hits = [(7u64, 6.5f32)];
        let members: &[u64] = &[7, 7, 9];
        let out = sweep_workflows(&pe_hits, [(1u64, members)]);
        assert_eq!(out, vec![(1, 6.5, 1)]);
    }

    #[test]
    fn sweep_skips_workflows_without_matches() {
        let pe_hits = [(1u64, 8.0f32), (2, 7.0)];
        let a: &[u64] = &[1, 2];
        let b: &[u64] = &[3];
        let out = sweep_workflows(&pe_hits, [(10u64, a), (11, b)]);
        assert_eq!(out, vec![(10, 15.0, 2)]);
    }
}
