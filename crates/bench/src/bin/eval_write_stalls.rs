//! DESIGN.md §6, "Concurrency" — what a write costs a reader, and what a
//! literal query costs, at the benchmark fixture's size: 6,000 csn PEs
//! (seed 42, the fixture's corpus), registered in-process in batches of
//! 256 with no description, so the server writes one, as the fixture
//! loads them.
//!
//! Medians of repeated samples, in milliseconds:
//! - **engine clone**: one `AromaEngine::clone` of the served engine, what
//!   a PE write pays when an SPT read holds the engine's snapshot;
//! - **PE write, engine snapshot held** / **nothing held**: one
//!   `SearchIndexes::upsert` of a new PE row (analysed beforehand), with
//!   and without a reader holding the engine;
//! - **dense-state clone**: a description write to a row that is not
//!   indexed while a reader holds the dense snapshot, so the copy-on-write
//!   clone is all it does;
//! - **literal query, full walk**: `literal_search_top` for a term no row
//!   contains, so every row is read;
//! - **literal query, top 100**: the benchmark's kind of term (a PE name
//!   less its last character, or two description words) with the
//!   server's default cap of 100 rows per table.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin eval_write_stalls
//! ```

use csn::{family_catalogue, Dataset, DatasetConfig};
use embed::DenseVec;
use laminar_execengine::ExecutionEngine;
use laminar_registry::{Registry, SearchTarget};
use laminar_server::indexes::{Analysis, EntryKind};
use laminar_server::protocol::BatchItemWire;
use laminar_server::{LaminarServer, PeSubmission, Request, Response, ServerConfig};
use std::hint::black_box;
use std::time::Instant;

/// The fixture's corpus size and seed.
const PES: usize = 6_000;
const CSN_SEED: u64 = 42;
/// Samples per measurement.
const SAMPLES: usize = 51;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let families = family_catalogue().len();
    let dataset = Dataset::generate(DatasetConfig {
        families,
        variants_per_family: PES.div_ceil(families),
        seed: CSN_SEED,
        ..DatasetConfig::default()
    });
    let entries = &dataset.entries[..PES.min(dataset.entries.len())];
    let server = LaminarServer::new(
        Registry::new(),
        ExecutionEngine::with_stock(),
        ServerConfig::default(),
    );
    let token = match server
        .handle(Request::RegisterUser {
            username: "stalls".into(),
            password: "stalls".into(),
        })
        .value()
    {
        Response::Token(t) => t,
        other => panic!("register user: {other:?}"),
    };
    for chunk in entries.chunks(256) {
        let items = chunk
            .iter()
            .map(|e| {
                BatchItemWire::Pe(PeSubmission {
                    name: e.name.clone(),
                    code: e.code.clone(),
                    description: None,
                })
            })
            .collect();
        let reply = server
            .handle(Request::RegisterBatch { token, items })
            .value();
        assert!(
            matches!(reply, Response::BatchRegistered { .. }),
            "{reply:?}"
        );
    }
    let registry = server.registry();
    let ix = server.indexes();
    let pes = registry.all_pes();
    assert_eq!(pes.len(), entries.len());

    // New rows for the writes, analysed before any clock starts: copies of
    // registered PEs under fresh ids.
    let fresh_id = pes.iter().map(|p| p.id).max().unwrap_or(0) + 1;
    let mut rows = (0..2 * SAMPLES).map(|k| {
        let p = &pes[k * 97 % pes.len()];
        Analysis::of(EntryKind::Pe, &p.code, &p.description).into_row(
            fresh_id + k as u64,
            0,
            &p.name,
            &p.code,
        )
    });

    let engine_clone = median(
        (0..SAMPLES)
            .map(|_| {
                let held = ix.engine();
                let t = Instant::now();
                let copy = black_box((*held).clone());
                let elapsed = ms(t);
                drop(copy);
                elapsed
            })
            .collect(),
    );
    let write_held = median(
        (0..SAMPLES)
            .map(|_| {
                let row = rows.next().expect("a row per sample");
                let held = ix.engine();
                let t = Instant::now();
                ix.upsert(row);
                let elapsed = ms(t);
                drop(held);
                elapsed
            })
            .collect(),
    );
    let write_free = median(
        (0..SAMPLES)
            .map(|_| {
                let row = rows.next().expect("a row per sample");
                let t = Instant::now();
                ix.upsert(row);
                ms(t)
            })
            .collect(),
    );
    let absent = u64::MAX / 4;
    let zero = DenseVec::zero();
    let dense_clone = median(
        (0..SAMPLES)
            .map(|_| {
                let held = ix.rows();
                let t = Instant::now();
                ix.set_description(absent, EntryKind::Pe, &zero);
                let elapsed = ms(t);
                drop(held);
                elapsed
            })
            .collect(),
    );

    let full_walk = median(
        (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                black_box(registry.literal_search_top(
                    SearchTarget::Both,
                    "no row holds this term",
                    usize::MAX,
                ));
                ms(t)
            })
            .collect(),
    );
    let terms: Vec<String> = (0..SAMPLES)
        .map(|k| {
            let p = &pes[k * 131 % pes.len()];
            if k % 2 == 0 {
                p.name[..p.name.len() - 1].to_string()
            } else {
                let words: Vec<&str> = p.description.split_whitespace().collect();
                let at = k % words.len().max(1);
                words[at.min(words.len())..(at + 2).min(words.len())].join(" ")
            }
        })
        .collect();
    let top_100 = median(
        terms
            .iter()
            .map(|term| {
                let t = Instant::now();
                black_box(registry.literal_search_top(SearchTarget::Both, term, 100));
                ms(t)
            })
            .collect(),
    );

    println!(
        "# Write stalls and literal search at {} csn PEs (median of {SAMPLES})\n",
        pes.len()
    );
    println!("| measurement | ms |");
    println!("|---|---|");
    for (what, value) in [
        ("engine clone", engine_clone),
        ("PE write, engine snapshot held", write_held),
        ("PE write, nothing held", write_free),
        ("dense-state clone", dense_clone),
        ("literal query, full walk", full_walk),
        ("literal query, top 100", top_100),
    ] {
        println!("| {what} | {value:.3} |");
    }
}
