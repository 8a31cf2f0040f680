//! E11 — search latency vs registry size: semantic (UniXcoder cosine),
//! structural (SPT overlap from the engine's posting lists) and the llm
//! (ReACC) code path, at 10², 10³, 10⁴ and 10⁵ indexed PEs, k = 5 (the
//! server default), one thread.
//!
//! Expected shape: the dense scans grow linearly with the registry; every
//! path stays interactive (≪ 100 ms) at any plausible registry size.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin eval_search_latency
//! ```

use embed::{Embedder, ReaccSim, UniXcoderSim};
use laminar_bench::search_corpus;
use laminar_server::indexes::{EntryKind, SearchIndexes};
use spt::Spt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The server's default per-query result bound.
const K: usize = 5;
/// Timed loops per cell; the cell reports their median.
const LOOPS: usize = 9;

fn build_indexes(n: usize) -> SearchIndexes {
    let ix = SearchIndexes::new();
    let emb = UniXcoderSim::new();
    let reacc = ReaccSim::new();
    for e in search_corpus(n).entries.iter().take(n) {
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

/// Median per-query time of `query` over `LOOPS` loops, each long enough
/// (≥ 20 ms) for the clock's resolution not to matter.
fn median_per_query<T>(query: impl Fn() -> T) -> Duration {
    let started = Instant::now();
    black_box(query());
    let once = started.elapsed().max(Duration::from_nanos(1));
    let per_loop = (Duration::from_millis(20).as_nanos() / once.as_nanos()).max(1) as u32;
    let mut loops: Vec<Duration> = (0..LOOPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_loop {
                black_box(query());
            }
            started.elapsed() / per_loop
        })
        .collect();
    loops.sort_unstable();
    loops[LOOPS / 2]
}

fn main() {
    let qtext = UniXcoderSim::new().embed("detect anomalies in sensor readings");
    let qspt = Spt::parse_source("for item in data:\n    total += item\n").feature_vec();
    let qcode = ReaccSim::new().embed_code("for item in data:\n    total += item\n");

    println!("# E11 — per-query search latency vs registry size (k = {K}, median of {LOOPS})\n");
    println!(
        "{:>8}  {:>12}  {:>14}  {:>10}",
        "rows", "semantic µs", "SPT overlap µs", "ReACC µs"
    );
    for n in [100usize, 1_000, 10_000, 100_000] {
        let ix = build_indexes(n);
        let pe = Some(EntryKind::Pe);
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        println!(
            "{:>8}  {:>12.1}  {:>14.1}  {:>10.1}",
            ix.len(),
            us(median_per_query(|| ix.rank_semantic(black_box(&qtext), pe, K))),
            us(median_per_query(|| ix.rank_spt(black_box(&qspt), pe, K))),
            us(median_per_query(|| ix.rank_reacc(black_box(&qcode), pe, K))),
        );
    }
    println!("\nshape check: dense columns ≈ ×10 per row; every cell ≪ 100 ms.");
}
