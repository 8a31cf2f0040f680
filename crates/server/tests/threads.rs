//! Streamed runs over one kept TCP socket spawn no thread after the
//! first: the server's connection thread, the one pool thread the
//! engine's container jobs run on and the client socket's reader thread
//! carry every run. Dropping the transport's last socket ends its reader
//! and the server's connection thread; the pool thread stays parked.
//!
//! The one test in this binary counts the process's threads (Linux
//! `/proc/self/task`), so nothing else may run beside it.
#![cfg(target_os = "linux")]

use laminar_server::protocol::{FaultPolicyWire, RunInputWire};
use laminar_server::{
    Connection, Ident, LaminarServer, NetClientTransport, NetServer, Request, Response, RunMode,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The ids of the process's threads. A thread that started since the
/// last look has an id not seen then, even if it has ended again.
fn threads() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|e| e.unwrap().file_name().to_string_lossy().parse().unwrap())
        .collect()
}

/// Wait up to five seconds for the threads to be `base` and one more.
fn settles_one_over(base: &BTreeSet<u64>) -> BTreeSet<u64> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = threads();
        let settled = now.is_superset(base) && now.len() == base.len() + 1;
        if settled || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn streams_on_a_kept_socket_spawn_no_thread_and_dropping_it_ends_its_reader() {
    let server = Arc::new(LaminarServer::with_stock());
    let token = match server
        .handle(Request::RegisterUser {
            username: "u".into(),
            password: "p".into(),
        })
        .value()
    {
        Response::Token(t) => t,
        other => panic!("{other:?}"),
    };
    let registered = server
        .handle(Request::RegisterWorkflow {
            token,
            name: "isprime_wf".into(),
            code: "import random\n".into(),
            description: Some("primes".into()),
            pes: vec![],
        })
        .value();
    assert!(
        matches!(registered, Response::Registered { .. }),
        "{registered:?}"
    );
    let net = NetServer::bind("127.0.0.1:0", server).unwrap();
    let base = threads();

    let client = NetClientTransport::new(net.addr());
    let run = || {
        let reply = client
            .call(Request::Run {
                token,
                ident: Ident::Name("isprime_wf".into()),
                input: RunInputWire::Iterations(20),
                mode: RunMode::Sequential,
                streaming: true,
                verbose: false,
                resources: vec![],
                fault: FaultPolicyWire::default(),
                task_timeout_ms: None,
            })
            .unwrap();
        assert!(reply.drain().unwrap().ok);
    };
    run();
    // The server's connection thread, the socket's reader and the pool
    // thread the prewarmed container's job ran on.
    let kept = threads();
    assert!(
        kept.is_superset(&base) && kept.len() == base.len() + 3,
        "{kept:?} over {base:?}"
    );
    for i in 0..20 {
        run();
        assert_eq!(threads(), kept, "stream {i} started a thread");
    }
    drop(client);
    let parked = settles_one_over(&base);
    assert!(
        parked.is_superset(&base) && parked.len() == base.len() + 1 && parked.is_subset(&kept),
        "the reader and the connection thread ended: {parked:?} over {base:?}"
    );
}
