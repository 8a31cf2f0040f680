//! The end-to-end Aroma pipeline (paper Fig. 3): search → prune & rerank →
//! cluster → create recommendations.

use crate::cluster::cluster_results;
use crate::index::{ScoredSnippet, Snippet, SnippetIndex};
use crate::prune::{granulated_vec_of, Granules, PrunedSnippet, Pruner};
use crate::recommend::create_recommendation;
use pyparse::ParseTree;
use spt::{FeatureVec, Spt};
use std::time::{Duration, Instant};

/// Tunables for the pipeline. Defaults follow the Aroma paper's spirit at
/// registry scale (the paper retrieves 1000 from millions; Laminar
/// registries are orders of magnitude smaller).
#[derive(Debug, Clone)]
pub struct AromaConfig {
    /// Candidates taken from light-weight retrieval.
    pub retrieve_n: usize,
    /// Candidates kept after rerank.
    pub rerank_keep: usize,
    /// Cosine threshold for clustering pruned snippets.
    pub cluster_sim: f32,
    /// Fraction of a cluster that must support a statement for it to be
    /// recommended (≥ 0.5 = majority).
    pub support_fraction: f32,
    /// Maximum number of recommendations returned.
    pub max_recommendations: usize,
    /// Unused, frozen-benchmark names: prune & rerank runs on the calling
    /// thread and retrieval is exact at every size; no LSH code remains
    /// in the workspace (DESIGN.md §10). `crates/benchmark` still fills
    /// both; its next PR removes them.
    pub parallel_threshold: usize,
    pub lsh_min_entries: usize,
    /// Drop retrieval candidates whose feature overlap with the query is
    /// below this (0.0 keeps every overlapping candidate).
    pub min_overlap: f32,
}

impl Default for AromaConfig {
    fn default() -> Self {
        AromaConfig {
            retrieve_n: 50,
            rerank_keep: 10,
            cluster_sim: 0.5,
            support_fraction: 0.5,
            max_recommendations: 5,
            parallel_threshold: 0,
            lsh_min_entries: 0,
            min_overlap: 0.0,
        }
    }
}

/// One recommendation produced by the pipeline.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Id of the cluster-seed snippet the code is drawn from.
    pub seed_id: u64,
    /// Name of the seed snippet.
    pub seed_name: String,
    /// Recommended code (intersected statements, one per line).
    pub code: String,
    /// Rerank score of the seed.
    pub score: f32,
    /// Raw feature-overlap of the seed at retrieval (the scale the
    /// simplified Laminar scorer — and its 6.0 threshold — lives on).
    pub retrieval_score: f32,
    /// Number of snippets in the cluster backing this recommendation.
    pub cluster_size: usize,
}

/// Per-stage telemetry of one pipeline run (feeds the server's
/// recommendation metrics row group).
#[derive(Debug, Clone, Default)]
pub struct RecoStats {
    /// Candidates surviving light-weight retrieval (and the overlap floor).
    pub retrieved: usize,
    /// Snippets kept after prune & rerank.
    pub pruned: usize,
    /// Clusters formed.
    pub clusters: usize,
    /// Unused, frozen-benchmark name: always `None`, since no LSH code
    /// remains in the workspace (DESIGN.md §10). `crates/benchmark` still
    /// reads it; its next PR removes it.
    pub lsh_candidates: Option<usize>,
    pub retrieve: Duration,
    pub prune: Duration,
    pub cluster: Duration,
    pub intersect: Duration,
}

/// Aroma engine over a [`SnippetIndex`]. `Clone` so a server can publish
/// it behind an Arc-snapshot RCU; a clone shares every entry, and with it
/// whatever the entry has memoised.
#[derive(Default, Clone)]
pub struct AromaEngine {
    index: SnippetIndex,
    config: AromaConfig,
}

impl AromaEngine {
    pub fn new(config: AromaConfig) -> Self {
        AromaEngine {
            index: SnippetIndex::new(),
            config,
        }
    }

    pub fn config(&self) -> &AromaConfig {
        &self.config
    }

    pub fn index(&self) -> &SnippetIndex {
        &self.index
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Insert or replace by id a snippet whose SPT feature vector the
    /// caller already holds. The one insertion primitive: the server
    /// feeds it the vector its registry row carries;
    /// [`upsert`](Self::upsert) and [`add_batch`](Self::add_batch)
    /// featurise and then come here.
    pub fn insert(&mut self, snippet: Snippet, vec: FeatureVec) {
        self.index.insert(snippet, vec);
    }

    /// Featurise a snippet and insert or replace it by id.
    pub fn upsert(&mut self, snippet: Snippet) {
        self.index.upsert(snippet);
    }

    /// [`upsert`](Self::upsert) each snippet in order (later duplicates
    /// replace earlier ones).
    pub fn add_batch(&mut self, snippets: Vec<Snippet>) {
        for snippet in snippets {
            self.upsert(snippet);
        }
    }

    pub fn remove(&mut self, id: u64) -> bool {
        self.index.remove(id)
    }

    pub fn clear(&mut self) {
        self.index.clear();
    }

    /// Run the full pipeline for a (possibly partial) code query.
    pub fn recommend(&self, query_code: &str) -> Vec<Recommendation> {
        self.recommend_with_stats(query_code).0
    }

    /// Full pipeline plus per-stage telemetry.
    pub fn recommend_with_stats(&self, query_code: &str) -> (Vec<Recommendation>, RecoStats) {
        let tree = pyparse::parse(query_code);
        self.recommend_parsed(&tree, &Spt::from_parse_tree(&tree).feature_vec())
    }

    /// Stages 2 and 3 for an analysed query, as
    /// [`recommend_parsed`](Self::recommend_parsed) runs them: retrieve the
    /// best `retrieve_n` candidates by feature overlap with `qvec` (those
    /// at or above `min_overlap`), prune & rerank each against `tree`'s
    /// granule-space vector, and materialise the best `rerank_keep`, best
    /// first (equal rerank scores by ascending id), each beside its
    /// retrieval score. Fills `stats`' retrieve and prune fields.
    pub fn pruned_candidates(
        &self,
        tree: &ParseTree,
        qvec: &FeatureVec,
        stats: &mut RecoStats,
    ) -> (Vec<PrunedSnippet>, Vec<f32>) {
        if qvec.is_empty() {
            return (Vec::new(), Vec::new());
        }

        // Stage 2: light-weight retrieval — exact, over the posting lists.
        let t = Instant::now();
        let hits: Vec<ScoredSnippet> = self
            .index
            .search_vec(qvec, self.config.retrieve_n)
            .into_iter()
            .filter(|h| h.score >= self.config.min_overlap)
            .collect();
        stats.retrieve = t.elapsed();
        stats.retrieved = hits.len();
        if hits.is_empty() {
            return (Vec::new(), Vec::new());
        }

        // Stage 3: prune & rerank, from each candidate's memoised
        // granules. Rerank compares in granule space, so re-featurise the
        // query. Every candidate is scored without allocating (its kept
        // statement indices go to one shared column); only the survivors
        // become `PrunedSnippet`s.
        let t = Instant::now();
        let gvec = granulated_vec_of(tree);
        let mut pruner = Pruner::new(&gvec);
        struct Scored<'a> {
            id: u64,
            retrieval_score: f32,
            rerank_score: f32,
            granules: &'a Granules,
            kept: std::ops::Range<usize>,
        }
        let mut kept = Vec::new();
        let mut scored: Vec<Scored> = Vec::with_capacity(hits.len());
        for h in &hits {
            let Some(granules) = self.index.granules(h.id) else {
                continue;
            };
            let start = kept.len();
            let rerank_score = pruner.score(granules, &mut kept);
            scored.push(Scored {
                id: h.id,
                retrieval_score: h.score,
                rerank_score,
                granules,
                kept: start..kept.len(),
            });
        }
        scored.sort_by(|a, b| {
            b.rerank_score
                .partial_cmp(&a.rerank_score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        scored.truncate(self.config.rerank_keep);
        let retrieval_scores: Vec<f32> = scored.iter().map(|s| s.retrieval_score).collect();
        let pruned: Vec<PrunedSnippet> = scored
            .iter()
            .map(|s| pruner.materialise(s.id, s.granules, &kept[s.kept.clone()], s.rerank_score))
            .collect();
        stats.prune = t.elapsed();
        stats.pruned = pruned.len();
        (pruned, retrieval_scores)
    }

    /// [`recommend_with_stats`](Self::recommend_with_stats) for a query
    /// the caller has analysed: `tree` is the parsed query and `qvec` its
    /// whole-tree feature vector. The pipeline never parses the query
    /// itself; its granule-space vector comes from `tree` too.
    pub fn recommend_parsed(
        &self,
        tree: &ParseTree,
        qvec: &FeatureVec,
    ) -> (Vec<Recommendation>, RecoStats) {
        let mut stats = RecoStats::default();
        let (pruned, retrieval_scores) = self.pruned_candidates(tree, qvec, &mut stats);
        if stats.retrieved == 0 {
            return (Vec::new(), stats);
        }

        // Stage 4: cluster.
        let t = Instant::now();
        let clusters = cluster_results(&pruned, self.config.cluster_sim);
        stats.cluster = t.elapsed();
        stats.clusters = clusters.len();

        // Stage 5: intersect each cluster into a recommendation.
        let t = Instant::now();
        let mut out = Vec::new();
        for cluster in clusters.iter().take(self.config.max_recommendations) {
            let Some(seed_ix) = cluster.seed() else {
                continue;
            };
            let min_support =
                ((cluster.len() as f32) * self.config.support_fraction).ceil() as usize;
            let code = create_recommendation(&pruned, cluster, min_support.max(1));
            if code.is_empty() {
                continue;
            }
            let seed = &pruned[seed_ix];
            let seed_name = self
                .index
                .get(seed.id)
                .map(|s| s.name.clone())
                .unwrap_or_default();
            out.push(Recommendation {
                seed_id: seed.id,
                seed_name,
                code,
                score: seed.rerank_score,
                retrieval_score: retrieval_scores[seed_ix],
                cluster_size: cluster.len(),
            });
        }
        stats.intersect = t.elapsed();
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> AromaEngine {
        let mut e = AromaEngine::default();
        e.add_batch(vec![
            Snippet::new(
                1,
                "SumPE",
                "class SumPE(IterativePE):\n    def _process(self, data):\n        total = 0\n        for item in data:\n            total += item\n        return total\n",
            ),
            Snippet::new(
                2,
                "AvgPE",
                "class AvgPE(IterativePE):\n    def _process(self, data):\n        total = 0\n        for item in data:\n            total += item\n        return total / len(data)\n",
            ),
            Snippet::new(
                3,
                "ReadPE",
                "class ReadPE(IterativePE):\n    def _process(self, path):\n        with open(path) as fh:\n            return fh.read()\n",
            ),
            Snippet::new(
                4,
                "RandPE",
                "class RandPE(ProducerPE):\n    def _process(self, inputs):\n        return random.randint(1, 1000)\n",
            ),
        ]);
        e
    }

    #[test]
    fn paper_figure9_query() {
        // Fig. 9 of the paper: `random.randint(1, 1000)` should recommend
        // the number-producer PE.
        let recs = engine().recommend("random.randint(1, 1000)");
        assert!(!recs.is_empty());
        assert_eq!(recs[0].seed_name, "RandPE", "{recs:?}");
    }

    #[test]
    fn partial_accumulator_recommends_sum_family() {
        let recs = engine().recommend("total = 0\nfor item in data:");
        assert!(!recs.is_empty());
        assert!(
            recs[0].seed_name == "SumPE" || recs[0].seed_name == "AvgPE",
            "{recs:?}"
        );
        assert!(recs[0].code.contains("for"));
    }

    #[test]
    fn near_duplicates_collapse_into_one_cluster() {
        let recs = engine().recommend("total = 0\nfor item in data:\n    total += item\n");
        // SumPE and AvgPE share the idiom → the top recommendation's
        // cluster should contain both.
        assert!(recs[0].cluster_size >= 2, "{recs:?}");
    }

    #[test]
    fn empty_query_no_recommendations() {
        assert!(engine().recommend("").is_empty());
    }

    #[test]
    fn unrelated_query_no_recommendations() {
        let recs = engine().recommend("@@@ ###");
        assert!(recs.is_empty());
    }

    #[test]
    fn max_recommendations_respected() {
        let mut e = AromaEngine::new(AromaConfig {
            max_recommendations: 1,
            cluster_sim: 1.1, // never cluster → many clusters
            ..AromaConfig::default()
        });
        for i in 0..5 {
            e.upsert(Snippet::new(
                i,
                format!("PE{i}"),
                format!("def f{i}(x):\n    y = x + {i}\n    return g{i}(y)\n"),
            ));
        }
        let recs = e.recommend("def f(x):\n    y = x + 1\n    return g(y)\n");
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn scores_monotone_nonincreasing() {
        let recs = engine().recommend("total = 0\nfor item in data:\n    total += item\n");
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    fn assert_recs_identical(a: &[Recommendation], b: &[Recommendation]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.seed_id, y.seed_id);
            assert_eq!(x.seed_name, y.seed_name);
            assert_eq!(x.code, y.code);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.retrieval_score.to_bits(), y.retrieval_score.to_bits());
            assert_eq!(x.cluster_size, y.cluster_size);
        }
    }

    #[test]
    fn batch_add_matches_serial_add() {
        let snippets: Vec<Snippet> = (0..300)
            .map(|i| {
                Snippet::new(
                    i,
                    format!("S{i}"),
                    format!("def f{i}(x):\n    return x + {i}\n"),
                )
            })
            .collect();
        let mut a = AromaEngine::default();
        for s in snippets.clone() {
            a.upsert(s);
        }
        let mut b = AromaEngine::default();
        b.add_batch(snippets);
        assert_eq!(a.len(), b.len());
        let q = "def f(x):\n    return x + 5\n";
        assert_eq!(a.index().search(q, 5), b.index().search(q, 5));
        assert_recs_identical(&a.recommend(q), &b.recommend(q));
    }

    #[test]
    fn min_overlap_floor_filters_weak_candidates() {
        let e = engine();
        let q = "class NumberProducer(ProducerPE):\n    def _process(self, inputs):\n        return random.randint(1, 1000)\n";
        let all = e.recommend(q);
        assert!(!all.is_empty());
        let floor = all[0].retrieval_score;
        let mut strict = AromaEngine::new(AromaConfig {
            min_overlap: floor,
            ..AromaConfig::default()
        });
        strict.add_batch(vec![
            e.index().get(1).unwrap().clone(),
            e.index().get(2).unwrap().clone(),
            e.index().get(3).unwrap().clone(),
            e.index().get(4).unwrap().clone(),
        ]);
        let recs = strict.recommend(q);
        assert!(recs.iter().all(|r| r.retrieval_score >= floor), "{recs:?}");
    }

    #[test]
    fn retrieval_equals_the_naive_scan_at_600_entries() {
        // At a size where an approximate prefilter would pay: what prune &
        // rerank receives is still the true top `retrieve_n` by overlap,
        // scored row by row and fully sorted.
        let snippets: Vec<Snippet> = (0..600u64)
            .map(|i| {
                let (a, b) = (i % 7, i % 11);
                let code = match i % 3 {
                    0 => format!("def f{a}(x):\n    y = x + {b}\n    return g{a}(y)\n"),
                    1 => format!("total = {a}\nfor item in data{b}:\n    total += item\n"),
                    _ => format!("with open(p{a}) as fh:\n    body{b} = fh.read()\n"),
                };
                Snippet::new(i, format!("S{i}"), code)
            })
            .collect();
        let mut e = AromaEngine::default();
        e.add_batch(snippets.clone());
        for query in [
            "total = 3\nfor item in data4:\n",
            "def f2(x):\n    y = x + 1\n",
            "body = fh.read()\n",
        ] {
            let qvec = Spt::parse_source(query).feature_vec();
            let mut naive: Vec<ScoredSnippet> = snippets
                .iter()
                .map(|s| ScoredSnippet {
                    id: s.id,
                    score: qvec.overlap(&Spt::parse_source(&s.code).feature_vec()),
                })
                .filter(|s| s.score > 0.0)
                .collect();
            naive.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
            naive.truncate(e.config().retrieve_n);
            assert_eq!(e.index().search_vec(&qvec, e.config().retrieve_n), naive);
            let (recs, stats) = e.recommend_with_stats(query);
            assert_eq!(stats.retrieved, naive.len());
            assert!(recs.iter().all(|r| naive.iter().any(|n| n.id == r.seed_id)));
        }
    }
}
