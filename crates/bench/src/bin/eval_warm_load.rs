//! E11, warm-load column — what a server start costs at 10³ and 10⁴
//! registered PEs: opening the registry (snapshot parse), then the index
//! warm load without and with the index cache (`index.cache`), and the
//! cache's bytes per row. The registry is written the way a deployment
//! writes it: csn PEs registered in batches of 64 through the server, then
//! one `Compact`, which writes the snapshot and the cache.
//!
//! Expected shape: the warm load without the cache re-derives every row
//! (JSON decode of two CLOBs, a ReACC embedding) and grows linearly; with
//! the cache it reads fixed-size binary rows and grows linearly too, at a
//! fraction of the cost. Registry open is untouched by the cache.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin eval_warm_load
//! ```

use laminar_bench::search_corpus;
use laminar_execengine::ExecutionEngine;
use laminar_registry::{PersistOptions, Registry};
use laminar_server::index_cache::CACHE_FILE;
use laminar_server::protocol::BatchItemWire;
use laminar_server::{LaminarServer, PeSubmission, Request, Response, ServerConfig};
use std::path::Path;
use std::time::Instant;

/// Timed starts per cell; the cell reports their median.
const STARTS: usize = 5;

fn options() -> PersistOptions {
    PersistOptions {
        snapshot_every: 0,
        ..PersistOptions::default()
    }
}

fn server(registry: Registry) -> LaminarServer {
    LaminarServer::new(
        registry,
        ExecutionEngine::with_stock(),
        ServerConfig::default(),
    )
}

/// Register `n` csn PEs into `dir` and compact once.
fn populate(dir: &Path, n: usize) {
    let server = server(Registry::open(dir, options()).expect("open"));
    let token = match server
        .handle(Request::RegisterUser {
            username: "e11".into(),
            password: "e11".into(),
        })
        .value()
    {
        Response::Token(t) => t,
        other => panic!("register user: {other:?}"),
    };
    let corpus = search_corpus(n);
    for chunk in corpus.entries[..n].chunks(64) {
        let items = chunk
            .iter()
            .map(|e| {
                BatchItemWire::Pe(PeSubmission {
                    name: e.name.clone(),
                    code: e.code.clone(),
                    description: Some(e.description.clone()),
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
    let reply = server.handle(Request::Compact { token }).value();
    assert!(matches!(reply, Response::Compacted { .. }), "{reply:?}");
}

/// One start: (registry open ms, warm load ms, cache rows hit).
fn start(dir: &Path) -> (f64, f64, u64) {
    let t = Instant::now();
    let registry = Registry::open(dir, options()).expect("reopen");
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let server = server(registry);
    let warm = server.metrics().snapshot().groups.warm;
    (
        open_ms,
        warm.load_us.sum_us as f64 / 1e3,
        warm.cache_rows_hit,
    )
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    println!("# E11 — server start vs registry size (median of {STARTS} starts)\n");
    println!(
        "{:>7}  {:>16}  {:>17}  {:>14}  {:>15}",
        "PEs", "registry open ms", "warm, no cache ms", "warm, cache ms", "cache bytes/row"
    );
    for n in [1_000usize, 10_000] {
        let dir = std::env::temp_dir().join(format!("laminar-e11-warm-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        populate(&dir, n);
        let cache = dir.join(CACHE_FILE);
        let cache_bytes = std::fs::metadata(&cache)
            .expect("a cache after Compact")
            .len();
        let aside = dir.with_extension("cache-aside");
        let mut opens = Vec::new();
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        for _ in 0..STARTS {
            let (open_ms, ms, hits) = start(&dir);
            assert_eq!(hits as usize, n, "every row from the cache");
            opens.push(open_ms);
            warm.push(ms);
            std::fs::rename(&cache, &aside).expect("set the cache aside");
            let (open_ms, ms, hits) = start(&dir);
            assert_eq!(hits, 0);
            opens.push(open_ms);
            cold.push(ms);
            std::fs::rename(&aside, &cache).expect("put the cache back");
        }
        println!(
            "{:>7}  {:>16.1}  {:>17.1}  {:>14.1}  {:>15.0}",
            n,
            median(opens),
            median(cold),
            median(warm),
            cache_bytes as f64 / n as f64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!(
        "\nshape check: both warm columns ≈ ×10 per row; the cache column a fraction of the other."
    );
}
