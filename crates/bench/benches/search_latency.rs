//! Criterion bench (E11): search latency vs registry size — semantic
//! (UniXcoder cosine), structural (Aroma SPT overlap), and the llm
//! (ReACC) code path, at 10², 10³, 10⁴ and 10⁵ indexed PEs.
//!
//! Supports the abstract's "significant performance improvements" claim
//! with concrete per-query costs at realistic registry scales. All paths
//! exercise the bounded top-k engine (k = 5, the server default).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use embed::{Embedder, ReaccSim, UniXcoderSim};
use laminar_bench::search_corpus;
use laminar_server::indexes::{EntryKind, SearchIndexes};
use spt::Spt;

/// The server's default per-query result bound.
const K: usize = 5;

fn build_indexes(n: usize) -> SearchIndexes {
    let corpus = search_corpus(n);
    let ix = SearchIndexes::new();
    let emb = UniXcoderSim::new();
    let reacc = ReaccSim::new();
    for e in corpus.entries.iter().take(n) {
        ix.upsert_embedded(
            e.id,
            EntryKind::Pe,
            emb.embed(&e.description),
            Spt::parse_source(&e.code).feature_vec(),
            reacc.embed_code(&e.code),
        );
    }
    ix
}

fn bench_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("search_latency");
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        let ix = build_indexes(n);
        let emb = UniXcoderSim::new();
        let reacc = ReaccSim::new();
        let qtext = emb.embed("detect anomalies in sensor readings");
        let qspt = Spt::parse_source("for item in data:\n    total += item\n").feature_vec();
        let qcode = reacc.embed_code("for item in data:\n    total += item\n");

        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("semantic", n), &n, |b, _| {
            b.iter(|| ix.rank_semantic(black_box(&qtext), Some(EntryKind::Pe), K))
        });
        g.bench_with_input(BenchmarkId::new("spt_overlap", n), &n, |b, _| {
            b.iter(|| ix.rank_spt(black_box(&qspt), Some(EntryKind::Pe), K))
        });
        g.bench_with_input(BenchmarkId::new("reacc_llm", n), &n, |b, _| {
            b.iter(|| ix.rank_reacc(black_box(&qcode), Some(EntryKind::Pe), K))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_search
}
criterion_main!(benches);
