//! Prune & rerank, completion and the granulated query vector against
//! merge-based oracles.
//!
//! The oracle prunes the way the pipeline once did: it grows the pruned
//! vector with one sorted-merge union per statement and re-walks the whole
//! union with `FeatureVec::overlap` to find each statement's gain. The
//! production path scores from candidate-local feature ids without
//! building a union; both must agree bit for bit — keep sets, kept texts
//! and vectors, `pruned_vec` and `rerank_score` — over the csn corpus and
//! the edge cases, and the whole pipeline must recommend exactly what the
//! oracle's stages compose.
//!
//! Plain `#[test]`s over seeded corpora and a seeded xorshift; every
//! assertion names its seed.

use aroma::{
    cluster_results, complete_with, create_recommendation, granulated_vec, prune, prune_and_rerank,
    statement_granules, AromaEngine, Granules, PrunedSnippet, Recommendation, Snippet,
};
use csn::{Dataset, DatasetConfig};
use spt::{FeatureVec, Spt};

const SEEDS: &[u64] = &[3, 42, 1337];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Multiset union: counts of equal ids add.
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

/// The oracle: greedy marginal gain through a merged union per statement.
fn prune_granules(
    id: u64,
    granules: &[(String, FeatureVec)],
    query_vec: &FeatureVec,
) -> PrunedSnippet {
    let mut kept_statements = Vec::new();
    let mut kept_vecs: Vec<FeatureVec> = Vec::new();
    let mut covered = 0.0f32;
    let mut pruned_vec = FeatureVec::default();
    for (text, svec) in granules {
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
    PrunedSnippet {
        id,
        kept_statements,
        kept_vecs,
        rerank_score: containment * query_vec.cosine(&pruned_vec),
        pruned_vec,
    }
}

/// A candidate as `(text, vector)` pairs, the oracle's input.
type Statements = Vec<(String, FeatureVec)>;

/// The memo as the oracle's input.
fn pairs(granules: &Granules) -> Statements {
    (0..granules.len())
        .map(|i| (granules.texts()[i].clone(), granules.vec(i)))
        .collect()
}

fn bits(v: &FeatureVec) -> Vec<(u64, u32)> {
    v.items.iter().map(|&(id, c)| (id, c.to_bits())).collect()
}

fn assert_same_pruned(got: &PrunedSnippet, want: &PrunedSnippet, what: &str) {
    assert_eq!(got.id, want.id, "{what}");
    assert_eq!(got.kept_statements, want.kept_statements, "{what}");
    assert_eq!(
        got.kept_vecs.iter().map(bits).collect::<Vec<_>>(),
        want.kept_vecs.iter().map(bits).collect::<Vec<_>>(),
        "{what}"
    );
    assert_eq!(bits(&got.pruned_vec), bits(&want.pruned_vec), "{what}");
    assert_eq!(
        got.rerank_score.to_bits(),
        want.rerank_score.to_bits(),
        "{what}: {} vs {}",
        got.rerank_score,
        want.rerank_score
    );
}

fn dataset(seed: u64) -> Dataset {
    Dataset::generate(DatasetConfig {
        variants_per_family: 6,
        seed,
        ..DatasetConfig::default()
    })
}

fn engine_over(data: &Dataset) -> AromaEngine {
    let mut e = AromaEngine::default();
    e.add_batch(
        data.entries
            .iter()
            .map(|p| Snippet::new(p.id, p.name.clone(), p.code.clone()))
            .collect(),
    );
    e
}

/// `n` queries: corpus entries cut to 40–60 % of their lines, as the
/// recommendation workload cuts them, plus one whole entry.
fn queries(data: &Dataset, rng: &mut Rng, n: usize) -> Vec<String> {
    let mut out: Vec<String> = (0..n)
        .map(|_| {
            let entry = &data.entries[rng.below(data.len() as u64) as usize];
            let omission = 0.4 + rng.below(21) as f64 / 100.0;
            pyparse::drop_suffix_fraction(&entry.code, omission)
        })
        .collect();
    out.push(data.entries[0].code.clone());
    out
}

#[test]
fn pruning_equals_the_merge_oracle_over_the_corpus() {
    for &seed in SEEDS {
        let data = dataset(seed);
        let e = engine_over(&data);
        let mut rng = Rng(seed);
        for (qi, q) in queries(&data, &mut rng, 12).iter().enumerate() {
            let gvec = granulated_vec(q);
            for id in e.index().ids() {
                let granules = e.index().granules(id).expect("held");
                let want = prune_granules(id, &pairs(granules), &gvec);
                let what = format!("seed {seed} query {qi} candidate {id}");
                assert_same_pruned(&prune(id, granules, &gvec), &want, &what);
            }
        }
    }
}

/// The pipeline's stages 2–5 composed from the oracle.
fn oracle_recommend(e: &AromaEngine, query: &str) -> (Vec<Recommendation>, usize) {
    let config = e.config();
    let qvec = Spt::parse_source(query).feature_vec();
    if qvec.is_empty() {
        return (Vec::new(), 0);
    }
    let gvec = granulated_vec(query);
    let mut pruned: Vec<(f32, PrunedSnippet)> = e
        .index()
        .search_vec(&qvec, config.retrieve_n)
        .into_iter()
        .filter(|h| h.score >= config.min_overlap)
        .map(|h| {
            let granules = pairs(e.index().granules(h.id).expect("held"));
            (h.score, prune_granules(h.id, &granules, &gvec))
        })
        .collect();
    pruned.sort_by(|a, b| {
        b.1.rerank_score
            .partial_cmp(&a.1.rerank_score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.id.cmp(&b.1.id))
    });
    pruned.truncate(config.rerank_keep);
    let (retrieval, pruned): (Vec<f32>, Vec<PrunedSnippet>) = pruned.into_iter().unzip();
    let mut out = Vec::new();
    for cluster in cluster_results(&pruned, config.cluster_sim)
        .iter()
        .take(config.max_recommendations)
    {
        let seed_ix = cluster.seed().expect("non-empty");
        let min_support = ((cluster.len() as f32) * config.support_fraction).ceil() as usize;
        let code = create_recommendation(&pruned, cluster, min_support.max(1));
        if code.is_empty() {
            continue;
        }
        let seed = &pruned[seed_ix];
        out.push(Recommendation {
            seed_id: seed.id,
            seed_name: e.index().get(seed.id).expect("held").name.clone(),
            code,
            score: seed.rerank_score,
            retrieval_score: retrieval[seed_ix],
            cluster_size: cluster.len(),
        });
    }
    (out, pruned.len())
}

#[test]
fn the_pipeline_recommends_like_the_merge_oracle() {
    for &seed in SEEDS {
        let data = dataset(seed);
        let e = engine_over(&data);
        let mut rng = Rng(seed ^ 0x5eed);
        for (qi, q) in queries(&data, &mut rng, 40).iter().enumerate() {
            let what = format!("seed {seed} query {qi}");
            let (got, stats) = e.recommend_with_stats(q);
            let (want, pruned) = oracle_recommend(&e, q);
            assert_eq!(stats.pruned, pruned, "{what}");
            assert_eq!(got.len(), want.len(), "{what}");
            for (x, y) in got.iter().zip(&want) {
                assert_eq!(
                    (x.seed_id, &x.seed_name, &x.code, x.cluster_size),
                    (y.seed_id, &y.seed_name, &y.code, y.cluster_size),
                    "{what}"
                );
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{what}");
                assert_eq!(
                    x.retrieval_score.to_bits(),
                    y.retrieval_score.to_bits(),
                    "{what}"
                );
            }
        }
    }
}

fn ids(ids: impl IntoIterator<Item = u64>) -> FeatureVec {
    FeatureVec::from_ids(ids.into_iter().collect())
}

#[test]
fn edge_cases_equal_the_merge_oracle() {
    let stmt = |text: &str, v: FeatureVec| (text.to_string(), v);
    // 300 distinct features in one statement: local ids past any u8.
    let wide: FeatureVec = ids((0..300u64).map(|i| i * 7 + 1));
    let cases: Vec<(&str, Statements, FeatureVec)> = vec![
        (
            "empty query",
            vec![stmt("a", ids([1, 2, 2])), stmt("b", ids([3]))],
            FeatureVec::default(),
        ),
        (
            "a statement with no query features",
            vec![
                stmt("a", ids([1, 2])),
                stmt("b", ids([90, 91])),
                stmt("c", ids([3])),
            ],
            ids([1, 2, 3, 3]),
        ),
        (
            "repeated identical statements",
            vec![
                stmt("a", ids([1, 1, 2])),
                stmt("a", ids([1, 1, 2])),
                stmt("a", ids([1, 1, 2])),
            ],
            ids([1, 1, 1, 1, 2, 2, 5]),
        ),
        (
            "a single-statement candidate",
            vec![stmt("only", ids([4, 4, 8]))],
            ids([4, 8, 8]),
        ),
        ("no statements", Vec::new(), ids([1])),
        (
            "more than 255 distinct features",
            vec![
                stmt("narrow", ids([1, 8])),
                stmt("wide", wide.clone()),
                stmt("wide again", wide),
                stmt("tail", ids([2094, 2094, 5000])),
            ],
            ids((0..400u64).map(|i| i * 3 + 1).chain([2094, 2094])),
        ),
    ];
    for (what, statements, q) in cases {
        let granules = Granules::new(statements.clone());
        assert_eq!(pairs(&granules), statements, "{what}: the memo round-trips");
        let want = prune_granules(9, &statements, &q);
        assert_same_pruned(&prune(9, &granules, &q), &want, what);
    }

    // The same shapes from source, through `prune_and_rerank`.
    let sources = [
        ("single statement", "x = f(y)\n", "x = f(y)\n"),
        ("repeated statements", "x = 1\nx = 1\nx = 1\n", "x = 1\n"),
        (
            "unrelated",
            "import os\n",
            "with open(p) as fh:\n    pass\n",
        ),
        ("empty candidate", "", "x = 1\n"),
        ("empty query", "x = 1\n", ""),
    ];
    for (what, code, query) in sources {
        let gvec = granulated_vec(query);
        let want = prune_granules(1, &pairs(&statement_granules(code)), &gvec);
        assert_same_pruned(&prune_and_rerank(1, code, &gvec), &want, what);
    }
}

#[test]
fn granulated_vec_equals_the_merge_fold_over_the_corpus() {
    for &seed in SEEDS {
        let data = dataset(seed);
        let mut rng = Rng(seed);
        let cut = queries(&data, &mut rng, 60);
        let whole = data.entries.iter().map(|p| p.code.clone());
        for (i, code) in whole.chain(cut).enumerate() {
            let granules = statement_granules(&code);
            let mut fold = (0..granules.len()).fold(FeatureVec::default(), |acc, s| {
                merge(&acc, &granules.vec(s))
            });
            if fold.is_empty() {
                fold = Spt::parse_source(&code).feature_vec();
            }
            assert_eq!(
                bits(&granulated_vec(&code)),
                bits(&fold),
                "seed {seed} source {i}"
            );
        }
    }
    // A bare expression has no statement granules.
    let bare = "random.randint(1, 1000)";
    assert_eq!(granulated_vec(bare), Spt::parse_source(bare).feature_vec());
}

/// Completion's coverage test as it reads over `(text, vector)` pairs.
fn oracle_completion(
    snippet: &FeatureVec,
    granules: &[(String, FeatureVec)],
) -> (Vec<String>, f32) {
    if granules.is_empty() {
        return (Vec::new(), 0.0);
    }
    let mut lines = Vec::new();
    let mut covered = 0usize;
    for (text, vec) in granules {
        if vec.is_empty() || vec.containment_in(snippet) >= 0.6 {
            covered += 1;
        } else {
            lines.push(text.clone());
        }
    }
    (lines, covered as f32 / granules.len() as f32)
}

#[test]
fn completion_over_the_memo_equals_the_vector_computation() {
    for &seed in SEEDS {
        let data = dataset(seed);
        let e = engine_over(&data);
        let mut rng = Rng(seed ^ 0xc0de);
        for (qi, q) in queries(&data, &mut rng, 12).iter().enumerate() {
            let gvec = granulated_vec(q);
            for id in e.index().ids() {
                let granules = e.index().granules(id).expect("held");
                let got = complete_with(&gvec, granules);
                let (lines, progress) = oracle_completion(&gvec, &pairs(granules));
                let what = format!("seed {seed} query {qi} candidate {id}");
                assert_eq!(got.lines, lines, "{what}");
                assert_eq!(got.progress.to_bits(), progress.to_bits(), "{what}");
            }
        }
    }
}
