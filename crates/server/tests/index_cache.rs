//! The index cache (`index.cache`, `laminar_server::index_cache`): a
//! derived file that is never the truth. A start that reads it must build
//! exactly the indexes a start without it builds — every row's vectors
//! bit for bit, every ranking and recommendation — whether the cache is
//! whole, stale, torn, corrupt, from another build, absent or left half
//! written; only the warm group's hit/miss/rejected counters may differ.
//!
//! The oracle is the registry itself: per row, the three analysers run on
//! what its user wrote — the description embedded, the code embedded and,
//! for a PE, parsed into SPT features. A registering server must publish
//! those same bits, and so must a start that re-analyses every row.

use aroma::Recommendation;
use csn::{Dataset, DatasetConfig};
use embed::{DenseVec, ReaccSim, UniXcoderSim, DIM};
use laminar_execengine::ExecutionEngine;
use laminar_registry::wal::crc32;
use laminar_registry::{PersistOptions, Registry, SNAPSHOT_FILE, WAL_FILE};
use laminar_server::index_cache::{CACHE_FILE, HEADER_LEN};
use laminar_server::indexes::{EntryKind, IndexHit};
use laminar_server::protocol::{BatchItemWire, BatchOutcomeWire, EmbeddingType, SearchScope};
use laminar_server::{
    Ident, LaminarServer, PeSubmission, Request, Response, ServerConfig, WarmSnapshot,
};
use serde_json::Value;
use spt::Spt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "laminar-index-cache-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A server over `dir`, auto-compaction off unless `snapshot_every` says.
fn open_with(dir: &Path, snapshot_every: u64) -> LaminarServer {
    let registry = Registry::open(
        dir,
        PersistOptions {
            snapshot_every,
            ..PersistOptions::default()
        },
    )
    .unwrap();
    LaminarServer::new(
        registry,
        ExecutionEngine::with_stock(),
        ServerConfig::default(),
    )
}

fn open(dir: &Path) -> LaminarServer {
    open_with(dir, 0)
}

fn login(server: &LaminarServer) -> u64 {
    let register = Request::RegisterUser {
        username: "cache".into(),
        password: "pw".into(),
    };
    let login = Request::Login {
        username: "cache".into(),
        password: "pw".into(),
    };
    match server.handle(register).value() {
        Response::Token(t) => t,
        _ => match server.handle(login).value() {
            Response::Token(t) => t,
            other => panic!("login: {other:?}"),
        },
    }
}

fn corpus(pes: usize) -> Dataset {
    let families = csn::family_catalogue().len();
    Dataset::generate(DatasetConfig {
        variants_per_family: pes / families + 1,
        seed: 11,
        ..DatasetConfig::default()
    })
}

/// Register `pes` csn PEs (every third without a description, so CodeT5
/// writes one) and `workflows` workflows of three to five other csn PEs
/// (every other one without a description), in batches of 32 items.
fn populate(server: &LaminarServer, token: u64, pes: usize, workflows: usize) {
    let data = corpus(pes + workflows * 5);
    let submission = |i: usize| {
        let e = &data.entries[i];
        PeSubmission {
            name: e.name.clone(),
            code: e.code.clone(),
            description: (!i.is_multiple_of(3)).then(|| e.description.clone()),
        }
    };
    let mut items: Vec<BatchItemWire> =
        (0..pes).map(|i| BatchItemWire::Pe(submission(i))).collect();
    let mut next = pes;
    for w in 0..workflows {
        let members = 3 + w % 3;
        let pes = (next..next + members).map(submission).collect();
        next += members;
        items.push(BatchItemWire::Workflow {
            name: format!("cache_wf_{w}"),
            code: format!("graph = WorkflowGraph()  # workflow {w}\n"),
            description: (w % 2 == 0).then(|| format!("a workflow numbered {w}")),
            pes,
        });
    }
    for chunk in items.chunks(32) {
        let reply = server
            .handle(Request::RegisterBatch {
                token,
                items: chunk.to_vec(),
            })
            .value();
        let Response::BatchRegistered { outcomes } = reply else {
            panic!("register: {reply:?}");
        };
        for outcome in outcomes {
            assert!(
                matches!(outcome, BatchOutcomeWire::Registered { .. }),
                "{outcome:?}"
            );
        }
    }
}

fn compact(server: &LaminarServer, token: u64) {
    let reply = server.handle(Request::Compact { token }).value();
    assert!(matches!(reply, Response::Compacted { .. }), "{reply:?}");
}

fn warm(server: &LaminarServer) -> WarmSnapshot {
    server.metrics().snapshot().groups.warm
}

/// `(hit, missed, rejected)` of the server's one warm load.
fn counts(server: &LaminarServer) -> (u64, u64, u64) {
    let w = warm(server);
    (w.cache_rows_hit, w.cache_rows_missed, w.cache_rejected)
}

/// A row's id, kind, description bits, ReACC bits and SPT items as bits.
type Derived = (u64, EntryKind, Vec<u32>, Vec<u32>, Option<Vec<(u64, u32)>>);
/// The same with the content hash after the kind.
type RowBits = (
    u64,
    EntryKind,
    u64,
    Vec<u32>,
    Vec<u32>,
    Option<Vec<(u64, u32)>>,
);

/// Every indexed row, in slot order, as bits.
fn rows(server: &LaminarServer) -> Vec<RowBits> {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    server
        .indexes()
        .rows()
        .iter()
        .map(|r| {
            (
                r.id,
                r.kind,
                r.content,
                bits(&r.desc),
                bits(&r.reacc),
                r.spt
                    .map(|v| v.items.iter().map(|&(id, c)| (id, c.to_bits())).collect()),
            )
        })
        .collect()
}

/// What the analysers make of every registry row, PEs then workflows,
/// each in registry order — the slot order of a warm load.
fn oracle(server: &LaminarServer) -> Vec<Derived> {
    let bits = |v: &DenseVec| v.values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let desc = |text: &str| bits(&UniXcoderSim::new().embed_text(text));
    let reacc = |code: &str| bits(&ReaccSim::new().embed_code(code));
    let reg = server.registry();
    let mut out: Vec<_> = reg
        .all_pes()
        .iter()
        .map(|p| {
            let spt = Spt::parse_source(&p.code).feature_vec();
            (
                p.id,
                EntryKind::Pe,
                desc(&p.description),
                reacc(&p.code),
                Some(spt.items.iter().map(|&(id, c)| (id, c.to_bits())).collect()),
            )
        })
        .collect();
    out.extend(reg.all_workflows().iter().map(|w| {
        (
            w.id,
            EntryKind::Workflow,
            desc(&w.description),
            reacc(&w.code),
            None,
        )
    }));
    out
}

fn assert_rows_are_the_oracle(server: &LaminarServer, what: &str) {
    let got: Vec<Derived> = rows(server)
        .into_iter()
        .map(|(id, kind, content, desc, reacc, spt)| {
            assert_ne!(content, 0, "{what}: row {id} has its content hash");
            (id, kind, desc, reacc, spt)
        })
        .collect();
    let want = oracle(server);
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{what}: row {:?}", (w.0, w.1));
    }
}

fn hit_bits(hits: Vec<IndexHit>) -> Vec<(u64, EntryKind, u32)> {
    hits.into_iter()
        .map(|h| (h.id, h.kind, h.score.to_bits()))
        .collect()
}

fn reco_key(r: &Recommendation) -> (u64, String, String, u32, u32, usize) {
    (
        r.seed_id,
        r.seed_name.clone(),
        r.code.clone(),
        r.score.to_bits(),
        r.retrieval_score.to_bits(),
        r.cluster_size,
    )
}

/// Every answer the indexes give a fixed set of queries, as bits.
fn answers(server: &LaminarServer) -> Vec<String> {
    let data = corpus(40);
    let ix = server.indexes();
    let mut out = Vec::new();
    for (i, e) in data.entries.iter().step_by(5).enumerate() {
        // Code cut to its first half, as a recommendation query.
        let lines: Vec<&str> = e.code.lines().collect();
        let partial = lines[..lines.len().div_ceil(2)].join("\n");
        let text = UniXcoderSim::new().embed_text(&e.description);
        let code = ReaccSim::new().embed_code(&partial);
        let spt = Spt::parse_source(&partial).feature_vec();
        let kind = [None, Some(EntryKind::Pe), Some(EntryKind::Workflow)][i % 3];
        out.push(format!("{:?}", hit_bits(ix.rank_semantic(&text, kind, 10))));
        out.push(format!("{:?}", hit_bits(ix.rank_reacc(&code, kind, 10))));
        out.push(format!("{:?}", hit_bits(ix.rank_spt(&spt, None, 10))));
        out.push(format!(
            "{:?}",
            hit_bits(ix.rank_spt_above(&spt, None, 6.0))
        ));
        out.push(format!(
            "{:?}",
            hit_bits(ix.rank_reacc_above(&code, None, 0.3))
        ));
        let (recos, stats) = ix.engine().recommend_with_stats(&partial);
        let recos: Vec<_> = recos.iter().map(reco_key).collect();
        out.push(format!(
            "{recos:?} {} {} {}",
            stats.retrieved, stats.pruned, stats.clusters
        ));
    }
    out
}

/// A copy of `from`'s files into a fresh directory, the cache left out
/// unless `with_cache`.
fn copy_dir(from: &Path, tag: &str, with_cache: bool) -> PathBuf {
    let to = fresh_dir(tag);
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        let name = entry.file_name();
        if name == CACHE_FILE && !with_cache {
            continue;
        }
        std::fs::copy(entry.path(), to.join(name)).unwrap();
    }
    to
}

/// A populated directory whose cache covers every row: `pes` PEs and
/// `workflows` workflows registered, then one `Compact`.
fn cached_dir(tag: &str, pes: usize, workflows: usize) -> (PathBuf, usize) {
    let dir = fresh_dir(tag);
    let server = open(&dir);
    let token = login(&server);
    populate(&server, token, pes, workflows);
    compact(&server, token);
    let rows = server.indexes().len();
    assert!(dir.join(CACHE_FILE).exists());
    assert!(warm(&server).cache_bytes > 0);
    (dir, rows)
}

#[test]
fn a_cache_loaded_server_equals_a_cache_less_one_bit_for_bit() {
    let (dir, n) = cached_dir("differential", 240, 24);
    let cached = open(&dir);
    assert_eq!(counts(&cached), (n as u64, 0, 0), "every row is a hit");
    assert_eq!(cached.indexes().generation(), 1, "one publication");

    let bare_dir = copy_dir(&dir, "differential-bare", false);
    let bare = open(&bare_dir);
    assert_eq!(counts(&bare), (0, n as u64, 0), "every row is derived");

    assert_eq!(rows(&cached), rows(&bare));
    assert_rows_are_the_oracle(&cached, "cache-loaded");
    assert_eq!(answers(&cached), answers(&bare));
    assert_eq!(cached.indexes().counts(), bare.indexes().counts());
    for d in [dir, bare_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn a_touched_row_misses_and_the_rest_hit() {
    let (dir, n) = cached_dir("staleness", 60, 6);
    let (removed_pe, updated_pe, rewritten_pe, removed_wf, updated_wf);
    {
        let server = open(&dir);
        assert_eq!(counts(&server), (n as u64, 0, 0));
        let token = login(&server);
        let member_of_any: std::collections::HashSet<u64> = server
            .registry()
            .all_workflows()
            .iter()
            .flat_map(|w| w.pe_ids.clone())
            .collect();
        let free: Vec<_> = server
            .registry()
            .all_pes()
            .into_iter()
            .filter(|p| !member_of_any.contains(&p.id))
            .collect();
        removed_pe = free[0].id;
        updated_pe = free[1].id;
        rewritten_pe = free[2].clone();
        let workflows = server.registry().all_workflows();
        removed_wf = workflows[0].id;
        updated_wf = workflows[1].id;
        let ok = |req: Request| {
            let reply = server.handle(req).value();
            assert_eq!(reply, Response::Ok);
        };
        ok(Request::UpdatePeDescription {
            token,
            ident: Ident::Id(updated_pe),
            description: "now described anew".into(),
        });
        ok(Request::UpdateWorkflowDescription {
            token,
            ident: Ident::Id(updated_wf),
            description: "a workflow described anew".into(),
        });
        ok(Request::RemovePe {
            token,
            ident: Ident::Id(removed_pe),
        });
        ok(Request::RemoveWorkflow {
            token,
            ident: Ident::Id(removed_wf),
        });
        ok(Request::RemovePe {
            token,
            ident: Ident::Id(rewritten_pe.id),
        });
        let reply = server
            .handle(Request::RegisterPe {
                token,
                pe: PeSubmission {
                    name: rewritten_pe.name.clone(),
                    code: format!(
                        "{}\n    def extra(self):\n        return 1\n",
                        rewritten_pe.code
                    ),
                    description: None,
                },
            })
            .value();
        assert!(matches!(reply, Response::Registered { .. }), "{reply:?}");
        // No compaction since: the cache still describes the old rows.
    }
    let server = open(&dir);
    // Three removed, one added: the two re-described rows and the
    // re-registered PE miss, every untouched row hits.
    let rows_now = n - 3 + 1;
    assert_eq!(server.indexes().len(), rows_now);
    assert_eq!(counts(&server), (rows_now as u64 - 3, 3, 0));
    assert_rows_are_the_oracle(&server, "stale cache");
    let bare_dir = copy_dir(&dir, "staleness-bare", false);
    let bare = open(&bare_dir);
    assert_eq!(rows(&server), rows(&bare));
    assert_eq!(answers(&server), answers(&bare));
    for d in [dir, bare_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// The frames of a cache file: `(offset, total length)` each.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut at = HEADER_LEN;
    let mut out = Vec::new();
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        out.push((at, 8 + len));
        at += 8 + len;
    }
    assert_eq!(at, bytes.len());
    out
}

#[test]
fn a_torn_or_corrupt_or_foreign_cache_reopens_to_the_same_indexes() {
    let (dir, n) = cached_dir("corruption", 30, 3);
    let n = n as u64;
    let whole = std::fs::read(dir.join(CACHE_FILE)).unwrap();
    let frames = frames(&whole);
    assert_eq!(frames.len() as u64, n, "one frame per row");
    let want = rows(&open(&copy_dir(&dir, "corruption-bare", false)));

    let check = |bytes: &[u8], expect: (u64, u64, u64), what: &str| {
        let case = copy_dir(&dir, "corruption-case", false);
        std::fs::write(case.join(CACHE_FILE), bytes).unwrap();
        let server = open(&case);
        assert_eq!(counts(&server), expect, "{what}");
        assert_eq!(rows(&server), want, "{what}");
        std::fs::remove_dir_all(case).ok();
    };

    // Cut at every frame boundary: the rows before it hit, nothing is
    // rejected. Cut inside a frame (its header, or its payload): the same
    // rows hit and the torn frame is rejected.
    for (k, &(at, len)) in frames.iter().enumerate() {
        let k = k as u64;
        check(
            &whole[..at],
            (k, n - k, 0),
            &format!("cut before frame {k}"),
        );
        let inside = if k.is_multiple_of(2) {
            at + 3
        } else {
            at + 8 + len / 2
        };
        check(
            &whole[..inside],
            (k, n - k, 1),
            &format!("cut inside frame {k}"),
        );
    }
    check(&whole, (n, 0, 0), "whole");

    // One flipped payload byte ends the cache at that frame.
    for k in [0, frames.len() / 2, frames.len() - 1] {
        let (at, len) = frames[k];
        let mut bytes = whole.clone();
        bytes[at + 8 + len / 3] ^= 0x40;
        let k = k as u64;
        check(&bytes, (k, n - k, 1), &format!("flipped byte in frame {k}"));
    }
    // An over-long length ends it too.
    let mut bytes = whole.clone();
    let (at, _) = frames[1];
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    check(&bytes, (1, n - 1, 1), "over-long length");

    // A header from another format, dimension or analyser build, or none
    // at all: the whole file is ignored.
    for (field, at) in [
        ("magic", 0),
        ("version", 8),
        ("DIM", 12),
        ("fingerprint", 16),
    ] {
        let mut bytes = whole.clone();
        bytes[at] ^= 1;
        check(&bytes, (0, n, 1), &format!("wrong {field}"));
    }
    let mut bytes = whole.clone();
    bytes[12..16].copy_from_slice(&(DIM as u32 * 2).to_le_bytes());
    check(&bytes, (0, n, 1), "twice the DIM");
    check(&[], (0, n, 1), "empty file");
    check(&whole[..HEADER_LEN - 1], (0, n, 1), "cut header");
    check(&whole[..HEADER_LEN], (0, n, 0), "header alone");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_directory_without_a_cache_opens_as_before_and_gains_none() {
    let dir = fresh_dir("compat");
    {
        let server = open(&dir);
        let token = login(&server);
        populate(&server, token, 40, 4);
        // Half the rows in the snapshot, half in the WAL: the directory
        // an older build leaves.
        server.registry().compact().unwrap();
        populate_more(&server, token);
    }
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, [SNAPSHOT_FILE, WAL_FILE]);
    let server = open(&dir);
    let n = server.indexes().len() as u64;
    assert_eq!(counts(&server), (0, n, 0));
    assert_rows_are_the_oracle(&server, "no cache");
    assert!(!dir.join(CACHE_FILE).exists(), "opening writes no cache");
    std::fs::remove_dir_all(dir).ok();
}

fn populate_more(server: &LaminarServer, token: u64) {
    let data = corpus(80);
    let items = data.entries[60..70]
        .iter()
        .map(|e| {
            BatchItemWire::Pe(PeSubmission {
                name: format!("{}_more", e.name),
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

#[test]
fn a_leftover_temporary_cache_is_removed_and_never_read() {
    let (dir, n) = cached_dir("crash", 20, 2);
    let n = n as u64;
    let tmp = dir.join(format!("{CACHE_FILE}.tmp"));
    // A write that died before its rename, beside a whole cache.
    std::fs::write(&tmp, b"half a cache").unwrap();
    let server = open(&dir);
    assert!(!tmp.exists());
    assert_eq!(counts(&server), (n, 0, 0));
    drop(server);
    // Beside no cache: the temporary file is not taken for one.
    std::fs::copy(dir.join(CACHE_FILE), &tmp).unwrap();
    std::fs::remove_file(dir.join(CACHE_FILE)).unwrap();
    let server = open(&dir);
    assert!(!tmp.exists());
    assert_eq!(counts(&server), (0, n, 0));
    assert_rows_are_the_oracle(&server, "leftover tmp");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn the_drain_compaction_writes_the_cache_and_auto_compaction_does_not() {
    let dir = fresh_dir("writers");
    let server = open_with(&dir, 4);
    let token = login(&server);
    populate(&server, token, 40, 4);
    assert!(
        server.registry().persist_stats().unwrap().compactions > 0,
        "auto-compaction ran"
    );
    assert!(
        !dir.join(CACHE_FILE).exists(),
        "auto-compaction wrote a cache"
    );
    assert!(server.shutdown_compact(Duration::from_secs(60)));
    assert!(dir.join(CACHE_FILE).exists());
    let n = server.indexes().len() as u64;
    drop(server);
    let server = open(&dir);
    assert_eq!(counts(&server), (n, 0, 0));
    assert_rows_are_the_oracle(&server, "after the drain");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_failed_cache_write_is_counted_and_the_compaction_still_answers() {
    let dir = fresh_dir("write-failure");
    let server = open(&dir);
    let token = login(&server);
    populate(&server, token, 10, 1);
    // A directory where the file would go: the rename fails.
    std::fs::create_dir(dir.join(CACHE_FILE)).unwrap();
    compact(&server, token);
    let w = warm(&server);
    assert_eq!((w.cache_write_failures, w.cache_bytes), (1, 0));
    assert!(!dir.join(format!("{CACHE_FILE}.tmp")).exists());
    assert!(!server.health().is_degraded(), "storage health untouched");
    drop(server);
    let server = open(&dir);
    let n = server.indexes().len() as u64;
    assert_eq!(counts(&server), (0, n, 1));
    assert_rows_are_the_oracle(&server, "unreadable cache");
    std::fs::remove_dir_all(dir).ok();
}

/// Every indexed row as bits, sorted by kind and id, without its content
/// hash: what a registering server and a re-analysing start must share
/// (their slot orders differ, and a row re-described since the start has
/// no content hash).
fn rows_by_key(server: &LaminarServer) -> Vec<Derived> {
    let mut rows: Vec<Derived> = rows(server)
        .into_iter()
        .map(|(id, kind, _, desc, reacc, spt)| (id, kind, desc, reacc, spt))
        .collect();
    rows.sort_by_key(|r| (r.1 == EntryKind::Workflow, r.0));
    rows
}

fn describe(server: &LaminarServer, token: u64, kind: EntryKind, id: u64, text: &str) {
    let (ident, description) = (Ident::Id(id), text.to_string());
    let request = match kind {
        EntryKind::Pe => Request::UpdatePeDescription {
            token,
            ident,
            description,
        },
        EntryKind::Workflow => Request::UpdateWorkflowDescription {
            token,
            ident,
            description,
        },
    };
    assert_eq!(server.handle(request).value(), Response::Ok);
}

/// Re-describe the first PE and the first workflow.
fn redescribe_one_of_each(server: &LaminarServer, token: u64) {
    let pe = server.registry().all_pes()[0].id;
    let wf = server.registry().all_workflows()[0].id;
    describe(server, token, EntryKind::Pe, pe, "a PE described anew");
    describe(
        server,
        token,
        EntryKind::Workflow,
        wf,
        "a workflow described anew",
    );
}

/// A start that re-analyses every row (no `index.cache`) publishes the
/// index the registering server published: every row's bits, every
/// ranking and every recommendation. `populate` covers PEs sent with a
/// description and PEs CodeT5 describes, workflows sent with one and
/// workflows described from their member codes; one PE and one workflow
/// are re-described after.
#[test]
fn re_analysis_equals_registration_bit_for_bit() {
    let dir = fresh_dir("re-analysis");
    let (registered, registered_answers, n) = {
        let server = open(&dir);
        let token = login(&server);
        populate(&server, token, 60, 6);
        redescribe_one_of_each(&server, token);
        assert_rows_are_the_oracle_by_key(&server, "registering server");
        (
            rows_by_key(&server),
            answers(&server),
            server.indexes().len() as u64,
        )
    };
    assert!(!dir.join(CACHE_FILE).exists());
    let server = open(&dir);
    assert_eq!(counts(&server), (0, n, 0), "every row is re-analysed");
    assert_eq!(rows_by_key(&server), registered);
    assert_eq!(answers(&server), registered_answers);
    assert_rows_are_the_oracle(&server, "re-analysed");
    std::fs::remove_dir_all(dir).ok();
}

fn assert_rows_are_the_oracle_by_key(server: &LaminarServer, what: &str) {
    let mut want = oracle(server);
    want.sort_by_key(|r| (r.1 == EntryKind::Workflow, r.0));
    assert_eq!(rows_by_key(server), want, "{what}");
}

/// Every answer a client sees for a fixed set of requests: each PE by
/// id, semantic and literal search, both recommendation paths and
/// completion.
fn replies(server: &LaminarServer, token: u64) -> Vec<String> {
    let data = corpus(40);
    let mut requests: Vec<Request> = (server.registry().all_pes().iter())
        .map(|p| Request::GetPe {
            token,
            ident: Ident::Id(p.id),
        })
        .collect();
    for e in data.entries.iter().step_by(7) {
        let lines: Vec<&str> = e.code.lines().collect();
        let partial = lines[..lines.len().div_ceil(2)].join("\n");
        for scope in [SearchScope::Pe, SearchScope::Workflow, SearchScope::Both] {
            requests.push(Request::SearchSemantic {
                token,
                scope,
                query: e.description.clone(),
                top_n: None,
            });
            requests.push(Request::SearchLiteral {
                token,
                scope,
                term: e.name[..4].to_string(),
                top_n: None,
            });
            for embedding_type in [EmbeddingType::Spt, EmbeddingType::Llm] {
                requests.push(Request::CodeRecommendation {
                    token,
                    scope,
                    snippet: partial.clone(),
                    embedding_type,
                    top_n: None,
                });
            }
        }
        requests.push(Request::CodeCompletion {
            token,
            snippet: partial,
        });
    }
    requests
        .into_iter()
        .map(|r| {
            let reply = server.handle(r).value();
            assert!(!matches!(reply, Response::Error(_)), "{reply:?}");
            format!("{reply:?}")
        })
        .collect()
}

/// Rewrite every PE and workflow row, and every description update, in
/// `value` as the previous format stored them: with the two JSON
/// embedding columns, filled as that format filled them.
fn with_embedding_columns(value: &mut Value) {
    let columns = |map: &mut serde_json::Map, spt_of_code: bool| {
        let text = |map: &serde_json::Map, key: &str| match map.get(key) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let desc = UniXcoderSim::new().embed_text(&text(map, "description"));
        map.insert(
            "description_embedding".into(),
            Value::String(desc.to_json()),
        );
        if spt_of_code {
            let spt = Spt::parse_source(&text(map, "code")).feature_vec();
            map.insert("spt_embedding".into(), Value::String(spt.to_json()));
        }
    };
    match value {
        Value::Array(items) => items.iter_mut().for_each(with_embedding_columns),
        Value::Object(map) => {
            for (key, inner) in map.iter_mut() {
                match (key.as_str(), inner) {
                    ("pes" | "workflows", Value::Array(rows)) => {
                        for row in rows {
                            let Value::Object(row) = row else { panic!() };
                            columns(row, true);
                        }
                    }
                    ("AddPe" | "AddWorkflow", Value::Object(row)) => columns(row, true),
                    ("UpdatePeDescription" | "UpdateWorkflowDescription", Value::Object(op)) => {
                        columns(op, false)
                    }
                    (_, inner) => with_embedding_columns(inner),
                }
            }
        }
        _ => {}
    }
}

/// A WAL file's frames, each payload rewritten by `edit` and re-framed.
fn rewrite_wal(path: &Path, edit: impl Fn(&mut Value)) {
    let bytes = std::fs::read(path).unwrap();
    let (mut at, mut out) = (0, Vec::new());
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let mut payload: Value = serde_json::from_slice(&bytes[at + 8..at + 8 + len]).unwrap();
        edit(&mut payload);
        let payload = serde_json::to_vec(&payload).unwrap();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        at += 8 + len;
    }
    std::fs::write(path, out).unwrap();
}

/// A data directory in the previous format — rows and description
/// updates carrying the two JSON embedding columns, beside a version-1
/// `index.cache` — opens, answers every request as the server that
/// registered its rows does, serves no row from the old cache, and after
/// one `Compact` restarts with every row a cache hit.
#[test]
fn a_directory_in_the_previous_format_opens_and_answers_as_registered() {
    let dir = fresh_dir("previous-format");
    let registered = {
        let server = open(&dir);
        let token = login(&server);
        populate(&server, token, 30, 3);
        compact(&server, token);
        // After the snapshot: rows and description updates in the WAL.
        populate_more(&server, token);
        redescribe_one_of_each(&server, token);
        replies(&server, token)
    };
    // The snapshot and the WAL as the previous format wrote them.
    let snapshot = dir.join(SNAPSHOT_FILE);
    let mut value: Value = serde_json::from_slice(&std::fs::read(&snapshot).unwrap()).unwrap();
    with_embedding_columns(&mut value);
    std::fs::write(&snapshot, serde_json::to_vec(&value).unwrap()).unwrap();
    rewrite_wal(&dir.join(WAL_FILE), with_embedding_columns);
    for file in [SNAPSHOT_FILE, WAL_FILE] {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.contains("\"spt_embedding\""), "{file}");
        assert!(text.contains("\"description_embedding\""), "{file}");
    }
    // A version-1 cache whose row hashes match today's rows but whose
    // description vectors are negated: serving any of its rows would show.
    let cache = dir.join(CACHE_FILE);
    let mut bytes = std::fs::read(&cache).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    for (at, len) in frames(&bytes) {
        let payload = &mut bytes[at + 8..at + len];
        for x in payload[17..17 + 4 * DIM].chunks_exact_mut(4) {
            x[3] ^= 0x80;
        }
        let crc = crc32(payload);
        bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    }
    std::fs::write(&cache, bytes).unwrap();

    let n = {
        let server = open(&dir);
        let n = server.indexes().len() as u64;
        assert_eq!(counts(&server), (0, n, 1), "no row from the old cache");
        assert_rows_are_the_oracle(&server, "previous format");
        let token = login(&server);
        assert_eq!(replies(&server, token), registered);
        compact(&server, token);
        n
    };
    let text = std::fs::read_to_string(&snapshot).unwrap();
    assert!(!text.contains("_embedding"), "compaction drops the columns");
    let server = open(&dir);
    assert_eq!(counts(&server), (n, 0, 0), "every row hits after Compact");
    assert_rows_are_the_oracle(&server, "after Compact");
    let token = login(&server);
    assert_eq!(replies(&server, token), registered);
    std::fs::remove_dir_all(dir).ok();
}
