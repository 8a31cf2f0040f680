//! End-to-end storage-chaos test over real TCP (DESIGN.md §11): a
//! persistent injected ENOSPC flips the server into read-only degraded
//! mode; mutations get the typed `Response::Degraded` while reads,
//! metrics and health keep serving; the recovery probe restores
//! `Healthy` once the fault clears, and mutations succeed again.

use laminar_execengine::ExecutionEngine;
use laminar_registry::{
    FaultHook, FaultKind, FaultMode, FaultSpec, IoFaultInjector, PersistOptions, Registry,
    SyncPolicy,
};
use laminar_server::{
    Connection, ConnectionError, LaminarServer, NetClientTransport, NetServer, PeSubmission,
    Request, Response, ServerConfig, StorageStateWire,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "laminar-degraded-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pe(name: &str) -> PeSubmission {
    PeSubmission {
        name: name.into(),
        code: format!("class {name}(IterativePE):\n    def _process(self, x):\n        return x\n"),
        description: Some("a chaos-test pe".into()),
    }
}

/// Durable server with a cleared (disk healthy) injector installed;
/// `from_op` arms nothing yet — callers pick the schedule.
fn serve_with_faults(
    dir: &Path,
    spec: FaultSpec,
    seed: u64,
    config: ServerConfig,
) -> (
    Arc<IoFaultInjector>,
    Arc<LaminarServer>,
    NetServer,
    NetClientTransport,
) {
    let inj = IoFaultInjector::new(seed, spec);
    let hook: FaultHook = inj.clone();
    let registry = Registry::open_with_faults(
        dir,
        PersistOptions {
            snapshot_every: 0,
            sync: SyncPolicy::OsBuffered,
        },
        hook,
    )
    .unwrap();
    let server = Arc::new(LaminarServer::new(
        registry,
        ExecutionEngine::with_stock(),
        config,
    ));
    let net = NetServer::bind("127.0.0.1:0", server.clone()).unwrap();
    let client = NetClientTransport::new(net.addr());
    (inj, server, net, client)
}

fn token_of(client: &NetClientTransport) -> u64 {
    match client
        .call(Request::RegisterUser {
            username: "chaos".into(),
            password: "pw".into(),
        })
        .unwrap()
        .value()
    {
        Response::Token(t) => t,
        other => panic!("{other:?}"),
    }
}

fn health_of(client: &NetClientTransport) -> (bool, StorageStateWire, u64) {
    match client.call(Request::Health {}).unwrap().value() {
        Response::Health {
            live,
            ready,
            storage,
            degraded_transitions,
            ..
        } => {
            assert!(live, "a serving process is always live");
            (ready, storage, degraded_transitions)
        }
        other => panic!("{other:?}"),
    }
}

fn registry_pe_count(client: &NetClientTransport, token: u64) -> usize {
    match client.call(Request::GetRegistry { token }).unwrap().value() {
        Response::Registry { pes, .. } => pes.len(),
        other => panic!("{other:?}"),
    }
}

/// The acceptance walk, verified over a real socket: Register →
/// injected ENOSPC → typed Degraded rejection (reads/metrics/health
/// keep answering, memory untouched) → probe recovery → Register
/// succeeds.
#[test]
fn enospc_flips_degraded_reads_keep_serving_probe_recovers() {
    let dir = fresh_dir("walk");
    // Every WAL append from the 3rd onward fails: RegisterUser and the
    // first RegisterPe land, the second RegisterPe hits the full disk.
    let (inj, server, _net, client) = serve_with_faults(
        &dir,
        FaultSpec {
            sites: vec![laminar_registry::IoSite::WalAppend],
            mode: FaultMode::From(3),
            kind: FaultKind::Enospc,
            short_cut: None,
        },
        42,
        ServerConfig::default(),
    );

    let token = token_of(&client);
    assert!(matches!(
        client
            .call(Request::RegisterPe {
                token,
                pe: pe("Healthy")
            })
            .unwrap()
            .value(),
        Response::Registered { .. }
    ));
    let (ready, storage, _) = health_of(&client);
    assert!(ready);
    assert_eq!(storage, StorageStateWire::Healthy);

    // The disk fills: the mutation is rejected with a persistence error
    // and the server flips to degraded.
    match client
        .call(Request::RegisterPe {
            token,
            pe: pe("HitsFullDisk"),
        })
        .unwrap()
        .value()
    {
        Response::Error(msg) => assert!(msg.contains("injected ENOSPC"), "{msg}"),
        other => panic!("{other:?}"),
    }
    assert!(server.health().is_degraded());

    // Further mutations get the typed Degraded rejection with the retry
    // hint — surfaced by the client-side classifier as its own error.
    match client.call(Request::RegisterPe {
        token,
        pe: pe("WhileDegraded"),
    }) {
        Err(ConnectionError::Degraded {
            reason,
            retry_after_ms,
        }) => {
            assert!(reason.contains("storage degraded"), "{reason}");
            assert_eq!(retry_after_ms, 500, "default hint");
        }
        other => panic!("expected a Degraded rejection: {other:?}"),
    }

    // Reads, metrics and health keep serving; memory is untouched (the
    // one healthy PE, nothing from the rejected attempts).
    assert_eq!(registry_pe_count(&client, token), 1);
    match client.call(Request::Metrics {}).unwrap().value() {
        Response::Metrics(m) => {
            let h = &m.storage_health;
            assert!(h.degraded);
            assert_eq!(h.degraded_entries, 1);
            assert!(h.rejected_while_degraded >= 1);
            assert!(h.io_errors >= 1);
            assert!(h.last_error.as_deref().unwrap_or("").contains("injected"));
            let wal_append = h
                .fault_sites
                .iter()
                .find(|(site, _, _)| site == "wal_append")
                .expect("injector counters surface in metrics");
            assert!(wal_append.2 >= 1, "{wal_append:?}");
        }
        other => panic!("{other:?}"),
    }
    let (ready, storage, transitions) = health_of(&client);
    assert!(!ready);
    assert_eq!(storage, StorageStateWire::Degraded);
    assert_eq!(transitions, 1);

    // While the disk is still full the probe must NOT clear the state.
    assert!(
        server.probe_storage(),
        "probe fails while the fault is armed"
    );
    assert!(server.health().is_degraded());

    // Space frees up: the probe recovers the server and writes land.
    inj.clear();
    assert!(
        !server.probe_storage(),
        "probe passes once the fault clears"
    );
    let (ready, storage, transitions) = health_of(&client);
    assert!(ready);
    assert_eq!(storage, StorageStateWire::Healthy);
    assert_eq!(transitions, 1, "one degraded episode");
    assert!(matches!(
        client
            .call(Request::RegisterPe {
                token,
                pe: pe("AfterRecovery")
            })
            .unwrap()
            .value(),
        Response::Registered { .. }
    ));
    assert_eq!(registry_pe_count(&client, token), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A registration is one WAL frame, so a `RegisterWorkflow` that hits a
/// failing disk leaves nothing behind — not a prefix of its members — and
/// the same request lands whole once the probe has cleared the state.
#[test]
fn failed_workflow_frame_leaves_nothing_and_the_retry_lands() {
    let dir = fresh_dir("wf-frame");
    // The first group-commit frame fails; single-record appends and
    // every later frame go through.
    let (_inj, server, _net, client) = serve_with_faults(
        &dir,
        FaultSpec::nth_at(
            laminar_registry::IoSite::WalBatchAppend,
            1,
            FaultKind::Enospc,
        ),
        11,
        ServerConfig::default(),
    );
    let token = token_of(&client);
    let workflow = || Request::RegisterWorkflow {
        token,
        name: "five_wf".into(),
        code: "graph = WorkflowGraph()".into(),
        description: None,
        pes: ["A", "B", "C", "D", "E"].map(pe).to_vec(),
    };
    let before = (
        server.registry().counts(),
        server.indexes().counts(),
        server.indexes().generation(),
    );

    match client.call(workflow()).unwrap().value() {
        Response::Error(msg) => assert!(msg.contains("injected ENOSPC"), "{msg}"),
        other => panic!("{other:?}"),
    }
    assert!(server.health().is_degraded());
    assert_eq!(
        (
            server.registry().counts(),
            server.indexes().counts(),
            server.indexes().generation(),
        ),
        before,
        "no member of the failed frame is registered or indexed"
    );
    assert_eq!(registry_pe_count(&client, token), 0);

    assert!(!server.probe_storage(), "the one-shot fault has passed");
    match client.call(workflow()).unwrap().value() {
        Response::Registered {
            pe_ids,
            workflow_id,
        } => {
            assert_eq!(pe_ids.len(), 5);
            assert!(workflow_id.is_some());
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(server.registry().counts(), (5, 1));
    assert_eq!(server.indexes().counts(), (5, 1));
    assert_eq!(server.indexes().generation(), before.2 + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same walk, but recovery is driven by the background probe thread
/// (`probe_interval_ms`) instead of an explicit probe call.
#[test]
fn background_probe_thread_recovers_after_fault_clears() {
    let dir = fresh_dir("probe-thread");
    let (inj, server, _net, client) = serve_with_faults(
        &dir,
        FaultSpec::persistent(FaultKind::Enospc),
        7,
        ServerConfig {
            probe_interval_ms: 25,
            ..ServerConfig::default()
        },
    );

    // The first mutation hits the full disk and degrades the server.
    let reply = client
        .call(Request::RegisterUser {
            username: "chaos".into(),
            password: "pw".into(),
        })
        .unwrap();
    assert!(matches!(reply.value(), Response::Error(_)));
    assert!(server.health().is_degraded());

    // While the fault is armed the prober keeps failing — give it a few
    // ticks and confirm the state holds.
    std::thread::sleep(Duration::from_millis(120));
    assert!(server.health().is_degraded());
    assert!(server.health().snapshot().probe_attempts >= 1);

    // Clear the fault and wait for the thread to notice.
    inj.clear();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.health().is_degraded() {
        assert!(Instant::now() < deadline, "probe thread never recovered");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (ready, storage, _) = health_of(&client);
    assert!(ready);
    assert_eq!(storage, StorageStateWire::Healthy);
    let token = token_of(&client);
    assert!(token > 0, "mutations land after background recovery");
    let _ = std::fs::remove_dir_all(&dir);
}
