//! Locality-Sensitive Hashing for structural code search — the paper's
//! stated future work (§IX: "refining deep learning models, including LSH
//! for structural code"), following the direction of Senatus / DeSkew-LSH
//! (Silavong et al. 2021, cited in §VIII).
//!
//! MinHash over the SPT feature *set*: each snippet's features are
//! signature-compressed with `bands × rows` universal hash functions; a
//! query only rescoring snippets that collide with it in at least one
//! band. Retrieval quality degrades gracefully (tunable via banding) while
//! the exact-rescoring set shrinks from the whole registry to a small
//! candidate pool — the sublinear-scaling behaviour Senatus reports.

use crate::index::ScoredSnippet;
use spt::FeatureVec;
use std::collections::HashMap;

/// Banding configuration. `bands × rows` hash functions are evaluated per
/// snippet; more bands → higher recall, more candidates.
#[derive(Debug, Clone, Copy)]
pub struct LshConfig {
    pub bands: usize,
    pub rows: usize,
}

impl Default for LshConfig {
    fn default() -> Self {
        // 16 bands × 2 rows: collision probability s^2 per band — tuned
        // for the high-similarity matches structural search cares about.
        LshConfig { bands: 16, rows: 2 }
    }
}

/// Statistics of one search (exposed for the E14 ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LshSearchStats {
    /// Candidates that collided in ≥1 band and were exactly rescored.
    pub candidates: usize,
    /// Total indexed snippets.
    pub indexed: usize,
}

struct Entry {
    id: u64,
    vec: FeatureVec,
}

/// The MinHash-LSH index over SPT feature vectors.
pub struct LshIndex {
    config: LshConfig,
    /// Per-band buckets: band → (band signature → entry indices).
    tables: Vec<HashMap<u64, Vec<usize>>>,
    entries: Vec<Entry>,
    /// Hash-function parameters (odd multipliers + offsets).
    params: Vec<(u64, u64)>,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Universal hash parameters for `bands × rows` MinHash functions.
fn make_params(config: LshConfig) -> Vec<(u64, u64)> {
    (0..config.bands * config.rows)
        .map(|i| {
            let a = splitmix(i as u64 * 2 + 1) | 1; // odd multiplier
            let b = splitmix(i as u64 * 2 + 2);
            (a, b)
        })
        .collect()
}

/// MinHash signature of a feature-id set.
fn minhash_signature(params: &[(u64, u64)], vec: &FeatureVec) -> Vec<u64> {
    params
        .iter()
        .map(|&(a, b)| {
            vec.items
                .iter()
                .map(|&(id, _)| splitmix(id.wrapping_mul(a).wrapping_add(b)))
                .min()
                .unwrap_or(u64::MAX)
        })
        .collect()
}

/// Per-band bucket keys of a signature.
fn signature_band_keys(config: LshConfig, sig: &[u64]) -> Vec<u64> {
    (0..config.bands)
        .map(|band| {
            let start = band * config.rows;
            let mut h: u64 = 0xcbf29ce484222325 ^ band as u64;
            for &v in &sig[start..start + config.rows] {
                h ^= v;
                h = h.wrapping_mul(0x100000001b3);
            }
            h
        })
        .collect()
}

impl LshIndex {
    pub fn new(config: LshConfig) -> Self {
        LshIndex {
            tables: vec![HashMap::new(); config.bands],
            entries: Vec::new(),
            params: make_params(config),
            config,
        }
    }

    pub fn with_default_config() -> Self {
        LshIndex::new(LshConfig::default())
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index a snippet's SPT feature vector.
    pub fn add(&mut self, id: u64, vec: FeatureVec) {
        let sig = minhash_signature(&self.params, &vec);
        let idx = self.entries.len();
        for (band, key) in signature_band_keys(self.config, &sig).into_iter().enumerate() {
            self.tables[band].entry(key).or_default().push(idx);
        }
        self.entries.push(Entry { id, vec });
    }

    /// Search: gather band-colliding candidates, exactly rescore by
    /// feature overlap, return the top `top_n` above `min_score`.
    pub fn search(
        &self,
        query: &FeatureVec,
        top_n: usize,
        min_score: f32,
    ) -> (Vec<ScoredSnippet>, LshSearchStats) {
        if query.is_empty() || self.entries.is_empty() {
            return (
                Vec::new(),
                LshSearchStats {
                    candidates: 0,
                    indexed: self.entries.len(),
                },
            );
        }
        let sig = minhash_signature(&self.params, query);
        let mut seen = vec![false; self.entries.len()];
        let mut candidates = Vec::new();
        for (band, key) in signature_band_keys(self.config, &sig).into_iter().enumerate() {
            if let Some(bucket) = self.tables[band].get(&key) {
                for &idx in bucket {
                    if !seen[idx] {
                        seen[idx] = true;
                        candidates.push(idx);
                    }
                }
            }
        }
        let stats = LshSearchStats {
            candidates: candidates.len(),
            indexed: self.entries.len(),
        };
        let mut hits: Vec<ScoredSnippet> = candidates
            .into_iter()
            .map(|idx| ScoredSnippet {
                id: self.entries[idx].id,
                score: query.overlap(&self.entries[idx].vec),
            })
            .filter(|h| h.score >= min_score)
            .collect();
        hits.sort_unstable_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        hits.truncate(top_n);
        (hits, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt::Spt;

    fn vec_of(code: &str) -> FeatureVec {
        Spt::parse_source(code).feature_vec()
    }

    fn demo_index() -> LshIndex {
        let mut ix = LshIndex::with_default_config();
        ix.add(1, vec_of("def f(data):\n    total = 0\n    for item in data:\n        total += item\n    return total\n"));
        ix.add(
            2,
            vec_of(
                "def g(data):\n    acc = 0\n    for x in data:\n        acc += x\n    return acc\n",
            ),
        );
        ix.add(
            3,
            vec_of("def h(path):\n    with open(path) as fh:\n        return fh.read()\n"),
        );
        ix.add(
            4,
            vec_of("class A:\n    def run(self):\n        return sorted(self.items)\n"),
        );
        ix
    }

    #[test]
    fn exact_duplicate_always_found() {
        let ix = demo_index();
        let q = vec_of("def f(data):\n    total = 0\n    for item in data:\n        total += item\n    return total\n");
        let (hits, stats) = ix.search(&q, 5, 1.0);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].id, 1);
        assert!(stats.candidates >= 1);
        assert_eq!(stats.indexed, 4);
    }

    #[test]
    fn near_duplicate_collides() {
        // Renamed variables: identical structure → near-identical feature
        // sets → must collide in some band.
        let ix = demo_index();
        let q =
            vec_of("def z(data):\n    s = 0\n    for e in data:\n        s += e\n    return s\n");
        let (hits, _) = ix.search(&q, 5, 1.0);
        assert!(
            hits.iter().any(|h| h.id == 1 || h.id == 2),
            "accumulator family must be retrieved: {hits:?}"
        );
    }

    #[test]
    fn candidates_subset_of_index() {
        let ix = demo_index();
        let q = vec_of("with open(p) as f:\n    body = f.read()\n");
        let (hits, stats) = ix.search(&q, 5, 0.1);
        assert!(stats.candidates <= stats.indexed);
        assert!(hits.len() <= stats.candidates);
    }

    #[test]
    fn empty_query_and_empty_index() {
        let ix = demo_index();
        let (hits, stats) = ix.search(&FeatureVec::default(), 5, 0.0);
        assert!(hits.is_empty());
        assert_eq!(stats.candidates, 0);
        let empty = LshIndex::with_default_config();
        let (hits, _) = empty.search(&vec_of("x = 1\n"), 5, 0.0);
        assert!(hits.is_empty());
        assert!(empty.is_empty());
    }

    #[test]
    fn recall_against_exhaustive_on_corpus() {
        // LSH must recover most of the exhaustive top-1s on a real corpus.
        let corpus = csn_like_corpus();
        let mut ix = LshIndex::with_default_config();
        let vecs: Vec<FeatureVec> = corpus.iter().map(|c| vec_of(c)).collect();
        for (i, v) in vecs.iter().enumerate() {
            ix.add(i as u64, v.clone());
        }
        let mut found = 0;
        let mut candidate_sum = 0usize;
        for (i, v) in vecs.iter().enumerate() {
            // Exhaustive top-1 (excluding self is unnecessary: self is valid).
            let exhaustive_top = vecs
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    v.overlap(a.1)
                        .partial_cmp(&v.overlap(b.1))
                        .unwrap()
                        .then(b.0.cmp(&a.0))
                })
                .unwrap()
                .0;
            let (hits, stats) = ix.search(v, 1, 0.0);
            candidate_sum += stats.candidates;
            if hits.first().map(|h| h.id) == Some(exhaustive_top as u64) {
                found += 1;
            }
            let _ = i;
        }
        let recall = found as f64 / vecs.len() as f64;
        assert!(recall >= 0.9, "top-1 recall {recall}");
        // And it must actually prune: average candidate pool < 80% of corpus.
        let avg = candidate_sum as f64 / vecs.len() as f64;
        assert!(
            avg < vecs.len() as f64 * 0.8,
            "avg candidates {avg} of {}",
            vecs.len()
        );
    }

    fn csn_like_corpus() -> Vec<String> {
        let mut v = Vec::new();
        for i in 0..40 {
            v.push(format!(
                "def f{i}(data):\n    total{i} = {i}\n    for item in data:\n        total{i} += item * {i}\n    return total{i}\n"
            ));
            v.push(format!(
                "def g{i}(path):\n    with open(path) as fh:\n        lines{i} = fh.read()\n    return lines{i}\n"
            ));
        }
        v
    }

    #[test]
    fn more_bands_more_candidates() {
        let corpus = csn_like_corpus();
        let vecs: Vec<FeatureVec> = corpus.iter().map(|c| vec_of(c)).collect();
        let build = |bands: usize| {
            let mut ix = LshIndex::new(LshConfig { bands, rows: 4 });
            for (i, v) in vecs.iter().enumerate() {
                ix.add(i as u64, v.clone());
            }
            ix
        };
        let few = build(4);
        let many = build(32);
        let q = &vecs[0];
        let (_, s_few) = few.search(q, 5, 0.0);
        let (_, s_many) = many.search(q, 5, 0.0);
        assert!(
            s_many.candidates >= s_few.candidates,
            "{s_many:?} vs {s_few:?}"
        );
    }
}
