//! Serving-path lifecycle tests over real TCP: saturation and typed
//! `Busy` rejection, retry with backoff, graceful drain of in-flight
//! streams, stalled-stream cancellation with keepalives, wire-level
//! sentinel/EOF edges, kept-alive connections, and concurrent-client
//! stress.

use laminar::client::{LaminarClient, RetryPolicy};
use laminar::core::{Laminar, LaminarConfig};
use laminar::server::net::HANDSHAKE_TIMEOUT;
use laminar::server::protocol::{FaultPolicyWire, RunInputWire};
use laminar::server::{
    Connection, ConnectionError, Ident, LaminarServer, NetClientTransport, NetServer,
    NetServerConfig, Reply, Request, Response, RunMode, WireFrame,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn register_user(server: &LaminarServer, name: &str) -> u64 {
    match server
        .handle(Request::RegisterUser {
            username: name.into(),
            password: "p".into(),
        })
        .value()
    {
        Response::Token(t) => t,
        other => panic!("{other:?}"),
    }
}

/// Register a workflow whose middle PE sleeps `item_ms` per item, both in
/// the engine library (runnable graph) and the registry (resolvable name).
fn register_slow_workflow(server: &LaminarServer, token: u64, name: &'static str, item_ms: u64) {
    server.engine().library().register(name, move || {
        use laminar::d4py::prelude::*;
        let mut g = WorkflowGraph::new(name);
        let src = g.add(ProducerPE::new("Src", |i| Some(Data::from(i as i64))));
        let slow = g.add(IterativePE::new("Slow", move |d: Data| {
            std::thread::sleep(Duration::from_millis(item_ms));
            Some(d)
        }));
        let sink = g.add(ConsumerPE::new("Out", |d: Data, ctx: &mut Context<'_>| {
            ctx.log(format!("{d}"));
        }));
        g.connect(src, OUTPUT, slow, INPUT).unwrap();
        g.connect(slow, OUTPUT, sink, INPUT).unwrap();
        g
    });
    let resp = server
        .handle(Request::RegisterWorkflow {
            token,
            name: name.into(),
            code: String::new(),
            description: Some("deliberately slow".into()),
            pes: vec![],
        })
        .value();
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
}

fn run_request(token: u64, name: &str, items: u64) -> Request {
    Request::Run {
        token,
        ident: Ident::Name(name.into()),
        input: RunInputWire::Iterations(items),
        mode: RunMode::Sequential,
        streaming: true,
        verbose: false,
        resources: vec![],
        fault: FaultPolicyWire::default(),
        task_timeout_ms: None,
    }
}

fn open_stream(addr: SocketAddr, req: Request) -> impl Iterator<Item = WireFrame> {
    let conn = NetClientTransport::new(addr);
    match conn.call(req) {
        Ok(Reply::Stream(rx)) => rx.into_iter(),
        Ok(Reply::Value(v)) => panic!("expected stream, got {v:?}"),
        Err(e) => panic!("expected stream, got error {e:?}"),
    }
}

/// With max_connections = K and K held streams, the K+1th request gets a
/// typed `Busy` rejection — exactly one, the cap is exact; a client with a
/// retry policy absorbs it and eventually succeeds; once a stream ends a
/// bare call is served; the metrics snapshot accounts for all of it.
#[test]
fn saturation_gets_typed_busy_and_retry_recovers() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let token = register_user(&server, "u");
    register_slow_workflow(&server, token, "hold_wf", 5);

    let net = NetServer::bind_with(
        "127.0.0.1:0",
        server.clone(),
        NetServerConfig {
            max_connections: 2,
            retry_after_hint: Duration::from_millis(10),
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = net.addr();

    // Occupy both slots with slow streamed runs (~500 ms and ~1 s).
    let holders: Vec<_> = [100, 200]
        .into_iter()
        .map(|items| {
            std::thread::spawn(move || {
                let frames = open_stream(addr, run_request(token, "hold_wf", items));
                let mut ok = false;
                for f in frames {
                    if let WireFrame::End { ok: o, .. } = f {
                        ok = o;
                    }
                }
                ok
            })
        })
        .collect();

    // Wait (in-process gauge) until both slots are genuinely taken.
    let t0 = Instant::now();
    while net.in_flight() < 2 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "server never saturated"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // K+1th request on a bare connection: typed rejection, not a hang.
    let conn = NetClientTransport::new(addr);
    match conn.call(Request::Metrics {}) {
        Err(ConnectionError::Busy { retry_after_ms }) => assert!(retry_after_ms >= 1),
        Err(e) => panic!("expected Busy, got {e:?}"),
        Ok(Reply::Value(v)) => panic!("expected Busy, got {v:?}"),
        Ok(Reply::Stream(_)) => panic!("expected Busy, got a stream"),
    }
    assert_eq!(server.metrics().snapshot().connections_rejected, 1);

    // The same request through a retrying client eventually succeeds.
    let retry_client = LaminarClient::over(NetClientTransport::new(addr)).with_retry(RetryPolicy {
        max_attempts: 60,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(60),
    });
    let snap = retry_client
        .metrics()
        .expect("retry with backoff should outlast the shorter stream");

    // Under the cap again — the retrying call's own slot given back, at
    // most the longer stream still held — a bare call needs no retry.
    while net.in_flight() > 1 {
        assert!(t0.elapsed() < Duration::from_secs(10), "slots never freed");
        std::thread::sleep(Duration::from_millis(2));
    }
    match conn.call(Request::Metrics {}) {
        Ok(Reply::Value(Response::Metrics(_))) => {}
        other => panic!("expected Metrics under the cap, got {other:?}"),
    }

    for h in holders {
        assert!(h.join().unwrap(), "held stream should complete ok");
    }

    // Accounting: the rejection was counted, both at the connection level
    // and against the endpoint the rejected request targeted.
    assert!(snap.connections_rejected >= 1, "{snap:?}");
    let final_snap = server.metrics().snapshot();
    assert!(final_snap.connections_rejected >= 1);
    let metrics_ep = final_snap
        .endpoints
        .iter()
        .find(|e| e.endpoint == "Metrics")
        .expect("Metrics endpoint row");
    assert!(metrics_ep.rejections >= 1, "{metrics_ep:?}");
    let run_ep = final_snap
        .endpoints
        .iter()
        .find(|e| e.endpoint == "Run")
        .expect("Run endpoint row");
    assert!(run_ep.requests >= 2);
    assert_eq!(run_ep.in_flight, 0, "gauge must return to zero");
    assert!(
        run_ep.latency.count >= 2 && run_ep.latency.p50_us > 0,
        "{run_ep:?}"
    );
}

/// `shutdown` stops accepting while the in-flight stream keeps running;
/// `drain` waits for it and reports a clean drain.
#[test]
fn graceful_shutdown_drains_in_flight_stream() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let token = register_user(&server, "u");
    register_slow_workflow(&server, token, "drain_wf", 4);

    let net = Arc::new(
        NetServer::bind_with(
            "127.0.0.1:0",
            server.clone(),
            NetServerConfig {
                max_connections: 2,
                drain_timeout: Duration::from_secs(10),
                ..NetServerConfig::default()
            },
        )
        .unwrap(),
    );
    let addr = net.addr();

    let mut frames = open_stream(addr, run_request(token, "drain_wf", 60));
    // Prove the stream is live before shutting down.
    let mut saw_line = false;
    for f in frames.by_ref() {
        match f {
            WireFrame::Line(_) => {
                saw_line = true;
                break;
            }
            WireFrame::End { .. } => break,
            _ => {}
        }
    }
    assert!(saw_line, "stream produced no lines before shutdown");

    net.shutdown();
    let drainer = {
        let net = net.clone();
        std::thread::spawn(move || net.drain(Duration::from_secs(10)))
    };

    // The in-flight stream runs to completion during the drain.
    let mut finished_ok = false;
    for f in frames {
        if let WireFrame::End { ok, .. } = f {
            finished_ok = ok;
        }
    }
    assert!(finished_ok, "in-flight stream must finish during drain");
    assert!(drainer.join().unwrap(), "drain should complete in time");
    assert_eq!(net.in_flight(), 0);

    // New connections are no longer served.
    std::thread::sleep(Duration::from_millis(20));
    let conn = NetClientTransport::new(addr);
    assert!(
        conn.call(Request::Metrics {}).is_err(),
        "server should not serve after shutdown"
    );
}

/// A stream quiet past the request deadline is cancelled with the typed
/// `TimedOut` reply, after keepalive frames kept the connection warm.
#[test]
fn stalled_stream_cancelled_with_typed_timeout_after_keepalives() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let token = register_user(&server, "u");
    register_slow_workflow(&server, token, "stall_wf", 2_000);

    let net = NetServer::bind_with(
        "127.0.0.1:0",
        server.clone(),
        NetServerConfig {
            request_timeout: Duration::from_millis(200),
            keepalive_interval: Duration::from_millis(40),
            ..NetServerConfig::default()
        },
    )
    .unwrap();

    let frames = open_stream(net.addr(), run_request(token, "stall_wf", 3));
    let mut keepalives = 0u32;
    let mut timed_out = false;
    for f in frames {
        match f {
            WireFrame::Keepalive { .. } => keepalives += 1,
            WireFrame::Value(Response::TimedOut { .. }) => timed_out = true,
            _ => {}
        }
    }
    assert!(
        timed_out,
        "stalled stream must get the typed TimedOut reply"
    );
    assert!(keepalives >= 1, "keepalives must precede the cancellation");
    assert!(server.metrics().snapshot().timeouts >= 1);
}

/// Raw wire check: a bare (pre-versioning, v1) request is answered with a
/// length-prefixed `Value` frame, a zero-length sentinel, then EOF.
#[test]
fn wire_reply_ends_with_zero_length_sentinel_then_eof() {
    use std::io::{Read, Write};

    let laminar = Laminar::deploy(LaminarConfig::default());
    let net = NetServer::bind("127.0.0.1:0", laminar.server()).unwrap();

    let mut s = std::net::TcpStream::connect(net.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let body = br#"{"GetRegistry":{"token":1}}"#;
    s.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
    s.write_all(body).unwrap();

    let mut len4 = [0u8; 4];
    s.read_exact(&mut len4).unwrap();
    let n = u32::from_be_bytes(len4) as usize;
    assert!(n > 0 && n < 4096, "frame length {n}");
    let mut buf = vec![0u8; n];
    s.read_exact(&mut buf).unwrap();
    let frame: serde_json::Value = serde_json::from_slice(&buf).unwrap();
    assert!(frame.get("Value").is_some(), "{frame}");

    s.read_exact(&mut len4).unwrap();
    assert_eq!(u32::from_be_bytes(len4), 0, "zero-length sentinel expected");
    assert_eq!(s.read(&mut [0u8; 8]).unwrap(), 0, "EOF after sentinel");
}

/// A client that connects and hangs up without sending anything must not
/// wedge its slot: the next request is served normally. The dead
/// connection owns the only slot until its EOF is read, and typed `Busy`
/// is the documented answer meanwhile, so the call goes through the
/// client's default retry policy.
#[test]
fn early_disconnect_leaves_server_serving() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let net = NetServer::bind_with(
        "127.0.0.1:0",
        laminar.server(),
        NetServerConfig {
            max_connections: 1,
            ..NetServerConfig::default()
        },
    )
    .unwrap();

    drop(std::net::TcpStream::connect(net.addr()).unwrap());

    let client = LaminarClient::over(NetClientTransport::new(net.addr()));
    client.metrics().expect("served after the early hang-up");
    assert!(net.drain(Duration::from_secs(5)));
    assert_eq!(net.in_flight(), 0);
}

/// `shutdown` on an idle server wakes the accept thread out of its
/// blocking `accept`: the listener closes promptly, there is nothing to
/// drain, and shutting down again (or dropping the handle) does nothing.
#[test]
fn shutdown_wakes_a_blocked_accept() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let net = NetServer::bind("127.0.0.1:0", laminar.server()).unwrap();

    net.shutdown();
    assert!(net.drain(Duration::ZERO), "an idle server is drained");
    let t0 = Instant::now();
    while std::net::TcpStream::connect(net.addr()).is_ok() {
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "listener still open after shutdown"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    net.shutdown();
    drop(net);
    let snap = laminar.server().metrics().snapshot();
    assert_eq!(snap.connections_accepted, 0, "the wake-up is no client");
}

/// Connections the server has accepted so far.
fn accepted(server: &LaminarServer) -> u64 {
    server.metrics().snapshot().connections_accepted
}

/// Wait until `net` holds exactly `n` live connections.
fn await_in_flight(net: &NetServer, n: usize, within: Duration) {
    let t0 = Instant::now();
    while net.in_flight() != n {
        assert!(
            t0.elapsed() < within,
            "in_flight stayed {} (want {n})",
            net.in_flight()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A client that never retries: what it gets through, its transport got
/// through.
fn tcp_client(addr: SocketAddr) -> LaminarClient {
    LaminarClient::connect_tcp(addr).with_retry(RetryPolicy::none())
}

/// Sequential value requests from one client travel on one socket: the
/// server accepts one connection for all of them.
#[test]
fn sequential_requests_share_one_connection() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let net = NetServer::bind("127.0.0.1:0", server.clone()).unwrap();
    let mut client = tcp_client(net.addr());
    client.register("u", "p").unwrap();
    for _ in 0..10 {
        client.get_registry().unwrap();
        client.metrics().unwrap();
    }
    assert_eq!(accepted(&server), 1);
    assert_eq!(net.in_flight(), 1, "the kept socket holds its slot");
}

/// A streamed run gives its socket back at the sentinel: a value request
/// after it rides the same connection, and the stream lost no line.
#[test]
fn stream_then_value_request_on_one_socket() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let token = register_user(&server, "u");
    register_slow_workflow(&server, token, "short_wf", 1);
    let net = NetServer::bind("127.0.0.1:0", server.clone()).unwrap();
    let mut client = tcp_client(net.addr());
    client.login("u", "p").unwrap();

    let out = client.run("short_wf", 25).unwrap();
    assert!(out.ok);
    let mut lines = out.lines;
    lines.sort_by_key(|l| l.parse::<i64>().unwrap());
    let want: Vec<String> = (0..25).map(|i| i.to_string()).collect();
    assert_eq!(lines, want, "every line delivered");

    client.get_registry().unwrap();
    assert_eq!(accepted(&server), 1, "login, run and listing on one socket");
}

/// The server closes a connection idle past `HANDSHAKE_TIMEOUT`; the
/// client's next request connects afresh without surfacing an error.
#[test]
fn idle_connection_closed_by_server_and_next_request_reconnects() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let net = NetServer::bind("127.0.0.1:0", server.clone()).unwrap();
    let mut client = tcp_client(net.addr());
    client.register("u", "p").unwrap();
    assert_eq!(net.in_flight(), 1);

    let idle_since = Instant::now();
    await_in_flight(&net, 0, HANDSHAKE_TIMEOUT * 3);
    assert!(
        idle_since.elapsed() >= HANDSHAKE_TIMEOUT / 2,
        "closed after {:?}",
        idle_since.elapsed()
    );

    client.get_registry().expect("the next request reconnects");
    assert_eq!(accepted(&server), 2);
}

/// A receiver dropped in the middle of a stream still ends the run as
/// `Failed`: the transport drops the socket rather than keeping it.
#[test]
fn receiver_dropped_mid_stream_records_the_run_failed() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let token = register_user(&server, "u");
    register_slow_workflow(&server, token, "drop_wf", 10);
    let net = NetServer::bind("127.0.0.1:0", server.clone()).unwrap();

    let mut frames = open_stream(net.addr(), run_request(token, "drop_wf", 100));
    assert!(frames.any(|f| matches!(f, WireFrame::Line(_))));
    drop(frames);

    let t0 = Instant::now();
    loop {
        let executions = match server
            .handle(Request::GetExecutions {
                token,
                ident: Ident::Name("drop_wf".into()),
            })
            .value()
        {
            Response::Executions(rows) => rows,
            other => panic!("{other:?}"),
        };
        assert_eq!(executions.len(), 1);
        if executions[0].status == "Failed" {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "run never settled Failed: {}",
            executions[0].status
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    await_in_flight(&net, 0, Duration::from_secs(5));
}

/// A stream whose receiver is dropped mid-run takes its socket with it
/// (the server records the run `Failed`); the next `run_stream` on the
/// same transport connects afresh and completes.
#[test]
fn run_stream_after_a_dropped_stream_completes() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let token = register_user(&server, "u");
    register_slow_workflow(&server, token, "drop_wf", 10);
    let net = NetServer::bind("127.0.0.1:0", server.clone()).unwrap();
    let mut client = tcp_client(net.addr());
    client.login("u", "p").unwrap();

    let ident = || Ident::Name("drop_wf".into());
    let first = client
        .run_stream(
            ident(),
            RunInputWire::Iterations(100),
            RunMode::Sequential,
            false,
        )
        .unwrap();
    assert!(first.iter().any(|f| matches!(f, WireFrame::Line(_))));
    drop(first);
    let t0 = Instant::now();
    while client.get_executions(ident()).unwrap()[0].status != "Failed" {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the socket stayed open"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let next = client
        .run_stream(
            ident(),
            RunInputWire::Iterations(3),
            RunMode::Sequential,
            false,
        )
        .unwrap();
    let frames: Vec<WireFrame> = next.iter().collect();
    let lines = frames
        .iter()
        .filter(|f| matches!(f, WireFrame::Line(_)))
        .count();
    assert_eq!(lines, 3);
    assert!(
        matches!(frames.last(), Some(WireFrame::End { ok: true, .. })),
        "{:?}",
        frames.last()
    );
}

/// `graceful_shutdown` closes idle kept-alive connections at once: with
/// nothing but idle sockets open it returns long before the drain
/// deadline.
#[test]
fn graceful_shutdown_closes_idle_connections_at_once() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let net = NetServer::bind_with(
        "127.0.0.1:0",
        server.clone(),
        NetServerConfig {
            drain_timeout: Duration::from_secs(10),
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let clients: Vec<LaminarClient> = (0..3)
        .map(|i| {
            let mut c = tcp_client(net.addr());
            c.register(&format!("u{i}"), "p").unwrap();
            c
        })
        .collect();
    assert_eq!(net.in_flight(), 3);

    let t0 = Instant::now();
    assert!(net.graceful_shutdown(), "idle connections drain");
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "drain waited {:?} on idle connections",
        t0.elapsed()
    );
    assert_eq!(net.in_flight(), 0);
    for c in &clients {
        assert!(c.get_registry().is_err(), "served after shutdown");
    }
}

/// Idle kept-alive connections hold their slots: at the cap the next
/// connection is bounced with `Busy`, and closing one client frees a
/// slot for it.
#[test]
fn idle_connections_hold_slots_under_the_cap() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let net = NetServer::bind_with(
        "127.0.0.1:0",
        server.clone(),
        NetServerConfig {
            max_connections: 2,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut holders: Vec<LaminarClient> = (0..2)
        .map(|i| {
            let mut c = tcp_client(net.addr());
            c.register(&format!("u{i}"), "p").unwrap();
            c
        })
        .collect();
    assert_eq!(net.in_flight(), 2);

    let extra = NetClientTransport::new(net.addr());
    match extra.call(Request::Metrics {}) {
        Err(ConnectionError::Busy { .. }) => {}
        other => panic!("expected Busy at the cap, got {other:?}"),
    }
    assert_eq!(server.metrics().snapshot().connections_rejected, 1);

    holders.pop();
    await_in_flight(&net, 1, Duration::from_secs(5));
    match extra.call(Request::Metrics {}) {
        Ok(Reply::Value(Response::Metrics(_))) => {}
        other => panic!("expected Metrics under the cap, got {other:?}"),
    }
    assert_eq!(net.in_flight(), 2);
    holders[0]
        .get_registry()
        .expect("the other holder keeps its slot");
}

/// A kept socket the server closed unread is resent once on a fresh
/// socket, and a non-idempotent `RegisterPe` is applied exactly once: the
/// first server shuts down with the client's socket idle, a second one
/// takes over the port, and the client (which never retries) registers.
#[test]
fn register_is_applied_once_across_a_stale_socket_reconnect() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let first = NetServer::bind("127.0.0.1:0", server.clone()).unwrap();
    let addr = first.addr();
    let mut client = tcp_client(addr);
    client.register("u", "p").unwrap();

    first.shutdown();
    assert!(
        first.drain(Duration::from_secs(1)),
        "the idle socket closes"
    );
    let t0 = Instant::now();
    let second = loop {
        match NetServer::bind(&addr.to_string(), server.clone()) {
            Ok(net) => break net,
            Err(e) => assert!(t0.elapsed() < Duration::from_millis(500), "rebind: {e}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    client
        .register_pe("Once", "class Once(IterativePE):\n    pass\n", None)
        .expect("resent on a fresh socket");
    let registered = server
        .registry()
        .all_pes()
        .iter()
        .filter(|pe| pe.name == "Once")
        .count();
    assert_eq!(registered, 1);
    let snap = server.metrics().snapshot();
    let ep = snap
        .endpoints
        .iter()
        .find(|e| e.endpoint == "RegisterPe")
        .expect("RegisterPe endpoint row");
    assert_eq!(ep.requests, 1, "the stale socket carried no request");
    assert_eq!(second.in_flight(), 1);
}

fn stress(clients: usize, requests_per_client: usize) {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let server = laminar.server();
    let net = NetServer::bind_with(
        "127.0.0.1:0",
        server.clone(),
        NetServerConfig {
            max_connections: 4,
            retry_after_hint: Duration::from_millis(5),
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = net.addr();

    let handles: Vec<_> = (0..clients)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client =
                    LaminarClient::over(NetClientTransport::new(addr)).with_retry(RetryPolicy {
                        max_attempts: 20,
                        base_delay: Duration::from_millis(5),
                        max_delay: Duration::from_millis(50),
                    });
                client.register(&format!("user{i}"), "pw").unwrap();
                for _ in 0..requests_per_client {
                    let (_pes, _wfs) = client.get_registry().unwrap();
                    let snap = client.metrics().unwrap();
                    assert!(snap.connections_accepted > 0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let snap = server.metrics().snapshot();
    let registry_ep = snap
        .endpoints
        .iter()
        .find(|e| e.endpoint == "GetRegistry")
        .expect("GetRegistry endpoint row");
    assert!(registry_ep.requests >= (clients * requests_per_client) as u64);
    for ep in &snap.endpoints {
        assert_eq!(
            ep.in_flight, 0,
            "{}: gauge must settle at zero",
            ep.endpoint
        );
        assert!(
            ep.requests >= ep.errors + ep.rejections,
            "{}: inconsistent accounting {ep:?}",
            ep.endpoint
        );
    }
}

/// Tier-1-sized concurrency: every request succeeds (retry absorbs any
/// Busy bounces) and the per-endpoint accounting stays consistent.
#[test]
fn concurrent_clients_with_retry_all_succeed() {
    stress(8, 5);
}

/// Heavy variant, excluded from tier-1: `cargo test -- --ignored`.
#[test]
#[ignore = "heavy stress; run explicitly with cargo test -- --ignored"]
fn heavy_concurrent_stress() {
    stress(16, 25);
}
