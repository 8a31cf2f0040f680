//! TCP loopback transport: the client-server split over a real socket,
//! with a production-shaped request lifecycle.
//!
//! The in-process [`Transport`](crate::connection::Transport) hands the
//! server's reply over unchanged; this module carries the same protocol
//! over TCP so the client and server genuinely run as separate endpoints
//! (the paper's Dockerised client/server deployment, minus Docker).
//!
//! Wire format: length-prefixed JSON (see [`crate::protocol`] for the
//! full frame and version rules). The client sends one
//! [`RequestEnvelope`] per connection; the server answers with a
//! sequence of [`WireFrame`]s terminated by a zero-length sentinel.
//!
//! Request lifecycle:
//!
//! * **Backpressure** — the accept thread blocks in `accept` and gives
//!   every connection its own thread, up to
//!   [`NetServerConfig::max_connections`] live at once; one count under a
//!   mutex is that cap, the [`NetServer::in_flight`] reading and what
//!   [`NetServer::drain`] waits on. At the cap the connection goes to a
//!   dedicated rejection thread, which reads the request (so the reply is
//!   not lost to a TCP reset) and answers with the typed
//!   [`Response::Busy`] carrying a retry hint. The cap is exact and
//!   nothing queues invisibly.
//! * **Deadlines** — the request frame must arrive within
//!   [`HANDSHAKE_TIMEOUT`]. Streamed replies send
//!   [`WireFrame::Keepalive`] during quiet stretches; a stream quiet for
//!   [`NetServerConfig::request_timeout`] is cancelled with the typed
//!   [`Response::TimedOut`] and its receiver is dropped.
//! * **Coalesced frames** — after each blocking receive, a streamed reply
//!   writes every frame already queued behind it (up to
//!   [`COALESCE_BYTES`]) in one write, the sentinel behind the terminal
//!   frame; it never waits for more. The client reads through one buffer.
//! * **Disconnects** — any write failure drops the frame receiver
//!   immediately. The run's next frame finds no one to send to and
//!   records the execution `Failed`; the enactment itself is not
//!   cancelled and runs to completion, its lines going nowhere.
//! * **Graceful drain** — [`NetServer::shutdown`] sets the stop flag and
//!   connects to itself once, which wakes the accept thread to close the
//!   listener; [`NetServer::drain`] then sleeps on the live-connection
//!   count's condvar until it reads zero or the drain deadline passes.
//!
//! Everything is accounted in the server's [`Metrics`](crate::obs::Metrics)
//! registry: connection counters, per-endpoint rejection counts, timeout
//! and disconnect counters.

use crate::connection::{classify, Connection, ConnectionError};
use crate::protocol::{Reply, Request, RequestEnvelope, Response, WireFrame};
use crate::server::LaminarServer;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Maximum accepted request size (16 MiB — resources travel inline).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Maximum reply frame a client reads. A reply is the client's own
/// server answering, and a registry listing outgrows [`MAX_FRAME`] at
/// ~30k PEs (~550 bytes each); a paper-scale one (~450k) fits in this.
const MAX_REPLY_FRAME: usize = 1024 * 1024 * 1024;

/// A streamed reply coalesces queued frames into one write up to about
/// this many bytes, so a long backlog still starts leaving promptly.
const COALESCE_BYTES: usize = 64 * 1024;

/// How long a freshly accepted connection may take to deliver its
/// request frame.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long the client waits for the next reply frame: the server's
/// default stream deadline ([`NetServerConfig::request_timeout`], 30 s)
/// plus 5 s. Keepalives arrive far more often, so only a stalled or dead
/// server trips it.
pub const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(35);

/// Serving-path tunables.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// The hard cap on concurrently served connections, one thread each.
    /// Excess connections get a typed `Busy` reply.
    pub max_connections: usize,
    /// A streamed reply quiet for this long is cancelled with the typed
    /// `TimedOut` reply.
    pub request_timeout: Duration,
    /// Interval between keepalive frames on a quiet stream.
    pub keepalive_interval: Duration,
    /// How long `graceful_shutdown` waits for in-flight connections.
    pub drain_timeout: Duration,
    /// Retry hint carried in `Busy` rejections.
    pub retry_after_hint: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 32,
            request_timeout: Duration::from_secs(30),
            keepalive_interval: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(5),
            retry_after_hint: Duration::from_millis(50),
        }
    }
}

/// Why a frame read failed (drives the typed error replies).
#[derive(Debug)]
enum ReadError {
    Io(std::io::Error),
    /// Length prefix exceeded the reader's limit.
    TooLarge(usize),
    /// The payload was not valid JSON for the expected type.
    Malformed(String),
}

/// Append one length-prefixed JSON message to `buf`.
fn encode_msg<T: serde::Serialize>(buf: &mut Vec<u8>, msg: &T) -> std::io::Result<()> {
    let json = serde_json::to_vec(msg).map_err(std::io::Error::other)?;
    buf.extend_from_slice(&(json.len() as u32).to_be_bytes());
    buf.extend_from_slice(&json);
    Ok(())
}

/// The end-of-response sentinel: a zero-length frame.
const SENTINEL: [u8; 4] = 0u32.to_be_bytes();

/// Write one length-prefixed JSON message.
fn write_msg<T: serde::Serialize>(stream: &mut TcpStream, msg: &T) -> std::io::Result<()> {
    let mut buf = Vec::new();
    encode_msg(&mut buf, msg)?;
    stream.write_all(&buf)
}

/// Write a reply's last message and the sentinel behind it, in one write.
fn write_last<T: serde::Serialize>(stream: &mut TcpStream, msg: &T) -> std::io::Result<()> {
    let mut buf = Vec::new();
    encode_msg(&mut buf, msg)?;
    buf.extend_from_slice(&SENTINEL);
    stream.write_all(&buf)
}

/// Read one length-prefixed message of at most `max` bytes; `Ok(None)` on
/// the sentinel.
fn read_frame<T: serde::de::DeserializeOwned>(
    stream: &mut impl Read,
    max: usize,
) -> Result<Option<T>, ReadError> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).map_err(ReadError::Io)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 {
        return Ok(None);
    }
    if len > max {
        return Err(ReadError::TooLarge(len));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf).map_err(ReadError::Io)?;
    let value = serde_json::from_slice(&buf).map_err(|e| ReadError::Malformed(e.to_string()))?;
    Ok(Some(value))
}

/// The live connections of one [`NetServer`]: this count is the
/// `max_connections` cap, the `in_flight` reading and what `drain` waits
/// on.
#[derive(Default)]
struct Live {
    count: Mutex<usize>,
    changed: Condvar,
}

impl Live {
    fn count(&self) -> MutexGuard<'_, usize> {
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One admitted connection's place in the count, given back when its
/// thread ends — by return or by unwinding.
struct Slot(Arc<Live>);

impl Drop for Slot {
    fn drop(&mut self) {
        *self.0.count() -= 1;
        self.0.changed.notify_all();
    }
}

/// A running TCP server, one thread per connection. Dropping the handle
/// (or calling [`NetServer::shutdown`]) stops the accept loop; call
/// [`NetServer::drain`] afterwards to wait for in-flight connections.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    live: Arc<Live>,
    config: NetServerConfig,
    server: Arc<LaminarServer>,
}

impl NetServer {
    /// Bind and serve `server` on `addr` with the default config (use
    /// port 0 for an ephemeral port; the bound address is available via
    /// [`NetServer::addr`]).
    pub fn bind(addr: &str, server: Arc<LaminarServer>) -> std::io::Result<NetServer> {
        NetServer::bind_with(addr, server, NetServerConfig::default())
    }

    /// Bind and serve with an explicit [`NetServerConfig`].
    pub fn bind_with(
        addr: &str,
        server: Arc<LaminarServer>,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let net = NetServer {
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            live: Arc::new(Live::default()),
            config,
            server,
        };

        // Rejections are served off the accept thread by one bouncer;
        // its small buffer bounds the bounce backlog too.
        let (busy_tx, busy_rx) = sync_channel::<TcpStream>(64);
        {
            let (server, config) = (net.server.clone(), net.config.clone());
            std::thread::spawn(move || {
                for stream in busy_rx {
                    reject_busy(stream, &server, &config);
                }
            });
        }

        let (stop, live) = (net.stop.clone(), net.live.clone());
        let (server, config) = (net.server.clone(), net.config.clone());
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                // `shutdown` wakes this thread with a connection of its own.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                server.metrics().connections_accepted.inc();
                let admitted = {
                    let mut count = live.count();
                    let admitted = *count < config.max_connections.max(1);
                    if admitted {
                        *count += 1;
                    }
                    admitted
                };
                if admitted {
                    let slot = Slot(live.clone());
                    let (server, config) = (server.clone(), config.clone());
                    std::thread::spawn(move || {
                        let _slot = slot;
                        server.metrics().connections_active.inc();
                        let _ = handle_connection(stream, &server, &config);
                        server.metrics().connections_active.dec();
                    });
                } else {
                    server.metrics().connections_rejected.inc();
                    // Bounce; if even the bouncer is backed up, drop the
                    // connection outright.
                    let _ = busy_tx.try_send(stream);
                }
            }
            // The listener closes here, and dropping `busy_tx` lets the
            // bouncer exit once it has answered its backlog.
        });
        Ok(net)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn config(&self) -> &NetServerConfig {
        &self.config
    }

    /// Number of connections currently being served.
    pub fn in_flight(&self) -> usize {
        *self.live.count()
    }

    /// Stop accepting new connections (in-flight connections keep
    /// running). The first call wakes the accept thread out of its
    /// blocking `accept` by connecting to it; later calls do nothing.
    pub fn shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }

    /// Wait for in-flight connections to finish, up to `timeout`.
    /// Returns `true` if the server fully drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let (count, _) = self
            .live
            .changed
            .wait_timeout_while(self.live.count(), timeout, |count| *count > 0)
            .unwrap_or_else(PoisonError::into_inner);
        *count == 0
    }

    /// Stop accepting, then drain up to the configured drain deadline,
    /// then fold the WAL into a snapshot with whatever drain budget is
    /// left — best-effort (skipped under degraded storage, and never
    /// blocking past the deadline), so the next start recovers from a
    /// snapshot instead of a long WAL replay.
    pub fn graceful_shutdown(&self) -> bool {
        self.shutdown();
        let start = Instant::now();
        let drained = self.drain(self.config.drain_timeout);
        let remaining = self.config.drain_timeout.saturating_sub(start.elapsed());
        if !remaining.is_zero() {
            let _ = self.server.shutdown_compact(remaining);
        }
        drained
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one bounced connection: read its request (so closing the socket
/// does not reset away the reply), account the rejection, answer `Busy`.
fn reject_busy(mut stream: TcpStream, server: &LaminarServer, config: &NetServerConfig) {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .ok();
    if let Ok(Some(env)) = read_frame::<RequestEnvelope>(&mut stream, MAX_FRAME) {
        let ep = server.metrics().endpoint(env.body.endpoint().name);
        ep.requests.inc();
        ep.rejections.inc();
    }
    let busy = WireFrame::Value(Response::Busy {
        retry_after_ms: config.retry_after_hint.as_millis() as u64,
    });
    let _ = write_last(&mut stream, &busy);
}

fn handle_connection(
    mut stream: TcpStream,
    server: &LaminarServer,
    config: &NetServerConfig,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    // One request per connection (HTTP-like); it must arrive promptly.
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok();
    let env: RequestEnvelope = match read_frame(&mut stream, MAX_FRAME) {
        Ok(Some(env)) => env,
        Ok(None) => return Ok(()),
        Err(ReadError::TooLarge(len)) => {
            let err = WireFrame::Value(Response::Error(format!(
                "frame too large: {len} bytes (max {MAX_FRAME})"
            )));
            return write_last(&mut stream, &err);
        }
        Err(ReadError::Malformed(m)) => {
            let err = WireFrame::Value(Response::Error(format!("malformed request: {m}")));
            return write_last(&mut stream, &err);
        }
        Err(ReadError::Io(_)) => return Ok(()),
    };
    stream.set_read_timeout(None).ok();

    let (id, reply) = server.handle_envelope(env);
    match reply {
        Reply::Value(v) => write_last(&mut stream, &WireFrame::Value(v)),
        Reply::Stream(rx) => {
            let mut quiet = Duration::ZERO;
            let mut batch = Vec::new();
            loop {
                match rx.recv_timeout(config.keepalive_interval) {
                    Ok(frame) => {
                        quiet = Duration::ZERO;
                        // Coalesce: the frames already queued behind this
                        // one go out in the same write, up to
                        // `COALESCE_BYTES`. Nothing waits for more, so no
                        // frame is held back.
                        batch.clear();
                        let mut frame = frame;
                        let done = loop {
                            let done = matches!(
                                frame,
                                WireFrame::End { .. } | WireFrame::Value(Response::Error(_))
                            );
                            encode_msg(&mut batch, &frame)?;
                            if done {
                                batch.extend_from_slice(&SENTINEL);
                                break true;
                            }
                            if batch.len() >= COALESCE_BYTES {
                                break false;
                            }
                            match rx.try_recv() {
                                Ok(queued) => frame = queued,
                                Err(_) => break false,
                            }
                        };
                        if stream.write_all(&batch).is_err() {
                            // Client hung up: dropping `rx` makes the run's
                            // next send fail, which records the execution
                            // `Failed`.
                            server.metrics().disconnects.inc();
                            return Ok(());
                        }
                        if done {
                            return Ok(());
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        quiet += config.keepalive_interval;
                        if quiet >= config.request_timeout {
                            // Stalled stream: cancel it. Returning drops
                            // `rx`, which settles the run as `Failed`.
                            server.metrics().timeouts.inc();
                            let cancel = WireFrame::Value(Response::TimedOut { request_id: id.0 });
                            return write_last(&mut stream, &cancel);
                        }
                        let beat = WireFrame::Keepalive { request_id: id.0 };
                        if write_msg(&mut stream, &beat).is_err() {
                            server.metrics().disconnects.inc();
                            return Ok(());
                        }
                    }
                    // Producer vanished without a terminal frame; end the
                    // response so the client is not left hanging.
                    Err(RecvTimeoutError::Disconnected) => return stream.write_all(&SENTINEL),
                }
            }
        }
    }
}

/// Client-side TCP [`Connection`]: one socket per request.
#[derive(Clone)]
pub struct NetClientTransport {
    addr: SocketAddr,
}

impl NetClientTransport {
    pub fn new(addr: SocketAddr) -> Self {
        NetClientTransport { addr }
    }

    /// Send a request and classify the reply. A reply opening with
    /// [`WireFrame::Begin`] (or any non-`Value` frame, for version-1
    /// servers) becomes a frame stream; a single `Value` frame becomes
    /// `Reply::Value`.
    pub fn send(&self, req: Request) -> Result<Reply, ConnectionError> {
        let mut stream = TcpStream::connect(self.addr)
            .map_err(|e| ConnectionError::Unavailable(e.to_string()))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT)).ok();
        write_msg(&mut stream, &RequestEnvelope::new(req))
            .map_err(|e| ConnectionError::Unavailable(format!("send failed: {e}")))?;

        // The server writes every frame it has queued at once: read them
        // through one buffer, not two syscalls a frame. The first frame
        // classifies the reply.
        let mut stream = BufReader::new(stream);
        let first: Option<WireFrame> =
            read_frame(&mut stream, MAX_REPLY_FRAME).map_err(first_read_error)?;
        match first {
            None => Ok(Reply::Value(Response::Error("empty reply".into()))),
            Some(WireFrame::Value(v)) => {
                // Synchronous response; consume the sentinel.
                let _: Result<Option<WireFrame>, _> = read_frame(&mut stream, MAX_REPLY_FRAME);
                Ok(Reply::Value(v))
            }
            Some(first) => {
                // One reader thread moves the stream's frames, up to the
                // sentinel, from the socket into the reply's channel, so a
                // stream is a `Receiver` whichever side produced it. A read
                // error ends the channel; a stream cut before its terminal
                // frame is the run fold's to report. When the receiver is
                // gone the thread drops the socket, which is how the server
                // observes the disconnect.
                let (tx, rx) = channel();
                std::thread::spawn(move || {
                    let mut frame = Some(first);
                    while let Some(f) = frame {
                        if tx.send(f).is_err() {
                            break;
                        }
                        frame = read_frame(&mut stream, MAX_REPLY_FRAME).ok().flatten();
                    }
                });
                Ok(Reply::Stream(rx))
            }
        }
    }
}

/// Map a failure reading the *first* reply frame onto the retry taxonomy:
/// before any frame arrives the request provably produced no output for
/// us, and an EOF there means the server never started the reply.
fn first_read_error(e: ReadError) -> ConnectionError {
    match e {
        ReadError::Io(io)
            if io.kind() == std::io::ErrorKind::WouldBlock
                || io.kind() == std::io::ErrorKind::TimedOut =>
        {
            ConnectionError::TimedOut { request_id: 0 }
        }
        ReadError::Io(io) if io.kind() == std::io::ErrorKind::UnexpectedEof => {
            ConnectionError::Unavailable("connection closed before reply".into())
        }
        ReadError::Io(io) => ConnectionError::Protocol(format!("read failed: {io}")),
        ReadError::TooLarge(n) => ConnectionError::Protocol(format!("oversized frame: {n} bytes")),
        ReadError::Malformed(m) => ConnectionError::Protocol(format!("malformed frame: {m}")),
    }
}

impl Connection for NetClientTransport {
    fn call(&self, req: Request) -> Result<Reply, ConnectionError> {
        classify(self.send(req)?)
    }

    fn endpoint(&self) -> String {
        format!("tcp://{}", self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        FaultPolicyWire, Ident, PeSubmission, RunInputWire, RunMode, PROTOCOL_VERSION,
    };

    fn serve() -> (NetServer, NetClientTransport) {
        let server = Arc::new(LaminarServer::with_stock());
        let net = NetServer::bind("127.0.0.1:0", server).expect("bind");
        let client = NetClientTransport::new(net.addr());
        (net, client)
    }

    fn token_of(reply: Reply) -> u64 {
        match reply.value() {
            Response::Token(t) => t,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sync_request_over_tcp() {
        let (_srv, client) = serve();
        let token = token_of(
            client
                .call(Request::RegisterUser {
                    username: "tcp".into(),
                    password: "pw".into(),
                })
                .unwrap(),
        );
        assert!(token > 0);
        let reply = client.call(Request::GetRegistry { token }).unwrap();
        match reply.value() {
            Response::Registry { pes, workflows } => {
                assert!(pes.is_empty());
                assert!(workflows.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn auth_error_over_tcp() {
        let (_srv, client) = serve();
        let reply = client.call(Request::GetRegistry { token: 42 }).unwrap();
        assert!(matches!(reply.value(), Response::Error(_)));
    }

    #[test]
    fn streaming_run_over_tcp() {
        let (_srv, client) = serve();
        let token = token_of(
            client
                .call(Request::RegisterUser {
                    username: "tcp".into(),
                    password: "pw".into(),
                })
                .unwrap(),
        );
        client
            .call(Request::RegisterWorkflow {
                token,
                name: "isprime_wf".into(),
                code: String::new(),
                description: Some("prime pipeline".into()),
                pes: vec![PeSubmission {
                    name: "IsPrime".into(),
                    code: "class IsPrime(IterativePE):\n    def _process(self, n):\n        return n\n".into(),
                    description: None,
                }],
            })
            .unwrap()
            .value();
        let reply = client
            .call(Request::Run {
                token,
                ident: Ident::Name("isprime_wf".into()),
                input: RunInputWire::Iterations(15),
                mode: RunMode::Multiprocess { processes: 9 },
                streaming: true,
                verbose: true,
                resources: vec![],
                fault: FaultPolicyWire::default(),
                task_timeout_ms: None,
            })
            .unwrap();
        let out = reply.drain().unwrap();
        assert!(out.ok);
        assert!(!out.lines.is_empty());
        for l in &out.lines {
            assert!(l.contains("is prime"), "{l}");
        }
        assert!(!out.summaries.is_empty());
    }

    /// Register `name` (a workflow the engine library knows) for a fresh
    /// user and return the session token.
    fn with_workflow(client: &NetClientTransport, name: &str) -> u64 {
        let token = token_of(
            client
                .call(Request::RegisterUser {
                    username: "tcp".into(),
                    password: "pw".into(),
                })
                .unwrap(),
        );
        let reply = client
            .call(Request::RegisterWorkflow {
                token,
                name: name.into(),
                code: String::new(),
                description: Some(format!("{name} pipeline")),
                pes: vec![],
            })
            .unwrap();
        assert!(matches!(reply.value(), Response::Registered { .. }));
        token
    }

    fn run_request(token: u64, workflow: &str, iterations: u64, mode: RunMode) -> Request {
        Request::Run {
            token,
            ident: Ident::Name(workflow.into()),
            input: RunInputWire::Iterations(iterations),
            mode,
            streaming: true,
            verbose: false,
            resources: vec![],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        }
    }

    /// Send `req` on a raw socket and read the reply frame by frame up to
    /// the sentinel, each frame stamped with its arrival; then everything
    /// the server still sends before it closes.
    fn raw_stream(addr: SocketAddr, req: Request) -> (Vec<(Instant, WireFrame)>, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        write_msg(&mut stream, &RequestEnvelope::new(req)).unwrap();
        let mut frames = Vec::new();
        while let Some(frame) = read_frame::<WireFrame>(&mut stream, MAX_REPLY_FRAME).unwrap() {
            frames.push((Instant::now(), frame));
        }
        let mut trailing = Vec::new();
        stream.read_to_end(&mut trailing).unwrap();
        (frames, trailing)
    }

    #[test]
    fn coalesced_stream_delivers_every_line_then_one_sentinel() {
        let (srv, client) = serve();
        let token = with_workflow(&client, "wordcount_wf");
        let mut reference = d4py::run(
            &d4py::workflows::word_count_graph(),
            d4py::RunInput::Iterations(200),
            &d4py::Mapping::Simple,
        )
        .unwrap()
        .lines()
        .to_vec();
        reference.sort();
        assert!(reference.len() > 500, "a long stream: {}", reference.len());
        for mode in [RunMode::Sequential, RunMode::Multiprocess { processes: 5 }] {
            let (frames, trailing) = raw_stream(
                srv.addr(),
                run_request(token, "wordcount_wf", 200, mode.clone()),
            );
            assert!(matches!(frames[0].1, WireFrame::Begin { .. }), "{mode:?}");
            assert!(
                matches!(frames.last().unwrap().1, WireFrame::End { ok: true, .. }),
                "{mode:?}: End must be the last frame"
            );
            assert!(
                trailing.is_empty(),
                "{mode:?}: bytes after the sentinel: {trailing:?}"
            );
            let mut lines: Vec<String> = frames
                .into_iter()
                .filter_map(|(_, f)| match f {
                    WireFrame::Line(l) => Some(l),
                    _ => None,
                })
                .collect();
            lines.sort();
            assert_eq!(lines, reference, "{mode:?}");
        }
    }

    #[test]
    fn coalescing_never_holds_back_the_first_line() {
        let (srv, client) = serve();
        srv.server.engine().library().register("slow_wf", || {
            use d4py::prelude::*;
            let mut g = WorkflowGraph::new("slow_wf");
            let src = g.add(ProducerPE::new("Src", |i| Some(Data::from(i as i64))));
            let slow = g.add(IterativePE::new("Slow", |d: Data| {
                std::thread::sleep(Duration::from_millis(30));
                Some(d)
            }));
            let sink = g.add(ConsumerPE::new("Out", |d: Data, ctx: &mut Context<'_>| {
                ctx.log(format!("{d}"));
            }));
            g.connect(src, OUTPUT, slow, INPUT).unwrap();
            g.connect(slow, OUTPUT, sink, INPUT).unwrap();
            g
        });
        let token = with_workflow(&client, "slow_wf");
        let (frames, _) = raw_stream(
            srv.addr(),
            run_request(token, "slow_wf", 10, RunMode::Sequential),
        );
        let first_line = frames
            .iter()
            .find(|(_, f)| matches!(f, WireFrame::Line(_)))
            .map(|(at, _)| *at)
            .expect("a line");
        let (end, last) = frames.last().unwrap();
        assert!(matches!(last, WireFrame::End { ok: true, .. }), "{last:?}");
        // Nine more 30 ms items follow the first line, so it must arrive
        // at least ~270 ms before End unless something held it back.
        let lead = end.duration_since(first_line);
        assert!(
            lead >= Duration::from_millis(150),
            "first line only {lead:?} before End"
        );
    }

    #[test]
    fn concurrent_tcp_clients() {
        let (_srv, client) = serve();
        let token = token_of(
            client
                .call(Request::RegisterUser {
                    username: "tcp".into(),
                    password: "pw".into(),
                })
                .unwrap(),
        );
        std::thread::scope(|s| {
            for i in 0..8 {
                let client = client.clone();
                s.spawn(move || {
                    let reply = client
                        .call(Request::RegisterPe {
                            token,
                            pe: PeSubmission {
                                name: format!("PE{i}"),
                                code: format!("class PE{i}(IterativePE):\n    def _process(self, x):\n        return x + {i}\n"),
                                description: None,
                            },
                        })
                        .unwrap();
                    assert!(matches!(reply.value(), Response::Registered { .. }));
                });
            }
        });
        let reply = client.call(Request::GetRegistry { token }).unwrap();
        match reply.value() {
            Response::Registry { pes, .. } => assert_eq!(pes.len(), 8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn large_payload_roundtrip() {
        let (_srv, client) = serve();
        let token = token_of(
            client
                .call(Request::RegisterUser {
                    username: "tcp".into(),
                    password: "pw".into(),
                })
                .unwrap(),
        );
        // A 1 MiB resource travels fine under the 16 MiB cap.
        let bytes = vec![7u8; 1024 * 1024];
        let reply = client
            .call(Request::UploadResource {
                token,
                name: "big.bin".into(),
                bytes,
            })
            .unwrap();
        assert!(matches!(reply.value(), Response::ResourceStored { .. }));
    }

    #[test]
    fn shutdown_stops_accepting() {
        let (srv, client) = serve();
        assert!(srv.graceful_shutdown(), "no in-flight work to drain");
        std::thread::sleep(Duration::from_millis(20));
        // Either refused (typed Unavailable) or an error reply — never a
        // hang.
        let result = client.call(Request::Login {
            username: "x".into(),
            password: "y".into(),
        });
        match result {
            Err(ConnectionError::Unavailable(_)) | Err(ConnectionError::Protocol(_)) => {}
            Ok(reply) => {
                let _ = reply.value();
            }
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_gets_typed_error() {
        let (_srv, client) = serve();
        // Hand-roll a connection that claims a 32 MiB frame.
        let mut stream = TcpStream::connect(client.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        stream
            .write_all(&((32 * 1024 * 1024) as u32).to_be_bytes())
            .unwrap();
        stream.flush().unwrap();
        let frame: Option<WireFrame> = read_frame(&mut stream, MAX_REPLY_FRAME).unwrap();
        match frame {
            Some(WireFrame::Value(Response::Error(e))) => {
                assert!(e.contains("frame too large"), "{e}");
            }
            other => panic!("{other:?}"),
        }
    }

    /// Arbitrary bytes, a valid frame with bytes overwritten, and every
    /// truncation of it, through the frame decoder: a typed `ReadError`
    /// (or, where the bytes still decode, a frame or the sentinel) — never
    /// a panic, and never a read past what the length prefix allowed.
    #[test]
    fn read_frame_is_total_over_arbitrary_and_truncated_bytes() {
        let mut state = 0x5eed_f4a3_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let json = serde_json::to_vec(&RequestEnvelope::new(Request::Login {
            username: "rosa".into(),
            password: "pw".into(),
        }))
        .unwrap();
        let mut valid = (json.len() as u32).to_be_bytes().to_vec();
        valid.extend_from_slice(&json);
        let decode = |bytes: &[u8]| read_frame::<RequestEnvelope>(&mut &bytes[..], MAX_FRAME);
        assert!(matches!(decode(&valid), Ok(Some(_))));

        for cut in 0..valid.len() {
            assert!(
                matches!(decode(&valid[..cut]), Err(ReadError::Io(_))),
                "{cut}"
            );
        }
        for _ in 0..512 {
            let raw: Vec<u8> = (0..next() % 64).map(|_| next() as u8).collect();
            let mut damaged = valid.clone();
            let at = next() as usize % damaged.len();
            damaged[at] = next() as u8;
            for bytes in [raw, damaged] {
                match decode(&bytes) {
                    Ok(_) | Err(ReadError::Malformed(_)) => {}
                    Err(ReadError::Io(e)) => {
                        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{bytes:?}")
                    }
                    Err(ReadError::TooLarge(len)) => assert!(len > MAX_FRAME, "{bytes:?}"),
                }
            }
        }
    }

    /// A reply may outgrow the request cap (a registry listing does at
    /// ~30k PEs): the client reads it, the server refuses such a request.
    #[test]
    fn replies_may_exceed_the_request_frame_cap() {
        let mut bytes = Vec::new();
        let listing = WireFrame::Value(Response::Description("x".repeat(MAX_FRAME)));
        encode_msg(&mut bytes, &listing).unwrap();
        let read: Option<WireFrame> = read_frame(&mut &bytes[..], MAX_REPLY_FRAME).unwrap();
        assert!(matches!(
            read,
            Some(WireFrame::Value(Response::Description(d))) if d.len() == MAX_FRAME
        ));
        assert!(matches!(
            read_frame::<RequestEnvelope>(&mut &bytes[..], MAX_FRAME),
            Err(ReadError::TooLarge(len)) if len > MAX_FRAME
        ));
    }

    #[test]
    fn malformed_request_gets_typed_error() {
        let (_srv, client) = serve();
        let mut stream = TcpStream::connect(client.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let garbage = b"this is not json";
        stream
            .write_all(&(garbage.len() as u32).to_be_bytes())
            .unwrap();
        stream.write_all(garbage).unwrap();
        stream.flush().unwrap();
        let frame: Option<WireFrame> = read_frame(&mut stream, MAX_REPLY_FRAME).unwrap();
        match frame {
            Some(WireFrame::Value(Response::Error(e))) => {
                assert!(e.contains("malformed request"), "{e}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_request_gets_typed_unsupported_over_tcp() {
        // Bare Request JSON, no envelope field: parsed as version 1.
        let (_srv, client) = serve();
        let mut stream = TcpStream::connect(client.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let raw = serde_json::to_vec(&Request::Login {
            username: "ghost".into(),
            password: "pw".into(),
        })
        .unwrap();
        stream.write_all(&(raw.len() as u32).to_be_bytes()).unwrap();
        stream.write_all(&raw).unwrap();
        stream.flush().unwrap();
        let frame: Option<WireFrame> = read_frame(&mut stream, MAX_REPLY_FRAME).unwrap();
        match frame {
            Some(WireFrame::Value(Response::Unsupported {
                server_version: PROTOCOL_VERSION,
                client_version: 1,
            })) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn future_version_gets_typed_unsupported_over_tcp() {
        let (_srv, client) = serve();
        let mut stream = TcpStream::connect(client.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let raw = br#"{"protocol_version":99,"Login":{"username":"x","password":"y"}}"#;
        stream.write_all(&(raw.len() as u32).to_be_bytes()).unwrap();
        stream.write_all(raw).unwrap();
        stream.flush().unwrap();
        let frame: Option<WireFrame> = read_frame(&mut stream, MAX_REPLY_FRAME).unwrap();
        match frame {
            Some(WireFrame::Value(Response::Unsupported {
                client_version: 99, ..
            })) => {}
            other => panic!("{other:?}"),
        }
    }
}
