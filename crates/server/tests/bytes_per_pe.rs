//! Bytes a registered PE costs on disk. A registry row keeps what its user
//! wrote — name, description, code — and no vector: 10³ csn PEs
//! registered through the server must take at most 1,536 B each in the
//! WAL frames of their registration and at most 1,024 B each in
//! `snapshot.json` after a `Compact`. Both counts are file sizes, so the
//! test is deterministic.

use csn::{Dataset, DatasetConfig};
use laminar_execengine::ExecutionEngine;
use laminar_registry::{PersistOptions, Registry, SNAPSHOT_FILE, WAL_FILE};
use laminar_server::protocol::{BatchItemWire, BatchOutcomeWire};
use laminar_server::{LaminarServer, PeSubmission, Request, Response, ServerConfig};

const PES: usize = 1_000;
const WAL_BYTES_PER_PE: u64 = 1_536;
const SNAPSHOT_BYTES_PER_PE: u64 = 1_024;

#[test]
fn a_registered_pe_costs_its_source_not_its_vectors() {
    let dir = std::env::temp_dir().join(format!("laminar-bytes-per-pe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = LaminarServer::new(
        Registry::open(&dir, PersistOptions::default()).unwrap(),
        ExecutionEngine::with_stock(),
        ServerConfig::default(),
    );
    let register = Request::RegisterUser {
        username: "bytes".into(),
        password: "pw".into(),
    };
    let Response::Token(token) = server.handle(register).value() else {
        panic!("no token");
    };
    let data = Dataset::generate(DatasetConfig {
        variants_per_family: PES / csn::family_catalogue().len() + 1,
        seed: 7,
        ..DatasetConfig::default()
    });
    let wal_len = || std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    let wal_before = wal_len();
    let items: Vec<BatchItemWire> = (data.entries[..PES].iter().enumerate())
        .map(|(i, e)| {
            BatchItemWire::Pe(PeSubmission {
                name: e.name.clone(),
                code: e.code.clone(),
                // Every other PE is described by CodeT5.
                description: (i % 2 == 0).then(|| e.description.clone()),
            })
        })
        .collect();
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
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, BatchOutcomeWire::Registered { .. })));
    }
    assert_eq!(server.registry().counts(), (PES, 0));
    let wal_per_pe = (wal_len() - wal_before) / PES as u64;

    let reply = server.handle(Request::Compact { token }).value();
    assert!(matches!(reply, Response::Compacted { .. }), "{reply:?}");
    let snapshot_per_pe = std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len() / PES as u64;
    drop(server);
    std::fs::remove_dir_all(&dir).ok();

    println!("per PE: {wal_per_pe} B of WAL frames, {snapshot_per_pe} B of snapshot");
    assert!(
        wal_per_pe <= WAL_BYTES_PER_PE,
        "{wal_per_pe} B of WAL frames per PE, bound {WAL_BYTES_PER_PE}"
    );
    assert!(
        snapshot_per_pe <= SNAPSHOT_BYTES_PER_PE,
        "{snapshot_per_pe} B of snapshot per PE, bound {SNAPSHOT_BYTES_PER_PE}"
    );
}
