//! TCP loopback transport: the client-server split over a real socket,
//! with a production-shaped request lifecycle.
//!
//! The in-process [`Transport`](crate::connection::Transport) hands the
//! server's reply over unchanged; this module carries the same protocol
//! over TCP so the client and server genuinely run as separate endpoints
//! (the paper's Dockerised client/server deployment, minus Docker).
//!
//! Wire format: length-prefixed JSON (see [`crate::protocol`] for the
//! full frame and version rules). A connection carries one
//! [`RequestEnvelope`] at a time; the server answers each with a
//! sequence of [`WireFrame`]s terminated by a zero-length sentinel, then
//! reads the connection's next request.
//!
//! Request lifecycle:
//!
//! * **Backpressure** — the accept thread blocks in `accept` and gives
//!   every connection its own thread, up to
//!   [`NetServerConfig::max_connections`] live at once, idle kept-alive
//!   ones included; one count under a mutex is that cap, the
//!   [`NetServer::in_flight`] reading and what [`NetServer::drain`] waits
//!   on. At the cap the connection goes to a dedicated rejection thread,
//!   which reads the request (so the reply is not lost to a TCP reset)
//!   and answers with the typed [`Response::Busy`] carrying a retry hint,
//!   then closes. The cap is exact and nothing queues invisibly.
//! * **Keep-alive** — after a value reply, or a stream that ended with
//!   `End` or an error value, the connection waits for its next request.
//!   It closes when the client closes it, when no request arrives within
//!   [`HANDSHAKE_TIMEOUT`], and after a frame too large or malformed, a
//!   version mismatch, a failed write, a cancelled stream or a producer
//!   that vanished.
//! * **Deadlines** — each request frame must arrive within
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
//! * **Graceful drain** — [`NetServer::shutdown`] sets the stop flag,
//!   shuts the read side of every live connection (an idle one reads EOF
//!   at once and closes; a busy one closes after its reply) and connects
//!   to itself once, which wakes the accept thread to close the listener;
//!   [`NetServer::drain`] then sleeps on the live-connection count's
//!   condvar until it reads zero or the drain deadline passes.
//!
//! Client side, [`NetClientTransport`] keeps the socket its last reply
//! left open and sends the next request on it; a kept socket that the
//! server has closed in the meantime fails before the first reply byte,
//! and only then is the request sent once more, on a fresh socket. A
//! socket's first stream starts its reader thread, which reads every
//! stream the socket carries into the reply's channel and ends when the
//! socket is dropped: one thread per connection, as on the server.
//!
//! Everything is accounted in the server's [`Metrics`](crate::obs::Metrics)
//! registry: connection counters, per-endpoint rejection counts, timeout
//! and disconnect counters.

use crate::connection::{classify, Connection, ConnectionError};
use crate::protocol::{Reply, Request, RequestEnvelope, Response, WireFrame};
use crate::server::LaminarServer;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender};
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

/// How long a connection may wait for its next request frame, the first
/// included, before the server closes it.
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

/// Whether a reply ending in the value `v` closes its connection: a
/// `Busy` bounce, a version mismatch and a cancelled stream do. Both ends
/// read the lifecycle from here.
fn closes(v: &Response) -> bool {
    matches!(
        v,
        Response::Busy { .. } | Response::Unsupported { .. } | Response::TimedOut { .. }
    )
}

/// The live connections of one [`NetServer`]: their count is the
/// `max_connections` cap, the `in_flight` reading and what `drain` waits
/// on; a handle on each is what `shutdown` closes.
#[derive(Default)]
struct Live {
    state: Mutex<LiveState>,
    changed: Condvar,
    stop: AtomicBool,
}

#[derive(Default)]
struct LiveState {
    count: usize,
    /// A second handle on each admitted socket, by slot number.
    sockets: HashMap<u64, TcpStream>,
    next_slot: u64,
}

impl Live {
    fn state(&self) -> MutexGuard<'_, LiveState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a place for `stream` unless `cap` connections are live (or
    /// the socket cannot be duplicated: it is then bounced as at the
    /// cap). Once the server is stopping, a new socket is shut for reading
    /// at once, like those [`NetServer::shutdown`] found.
    fn admit(self: &Arc<Self>, stream: &TcpStream, cap: usize) -> Option<Slot> {
        let mut state = self.state();
        if state.count >= cap {
            return None;
        }
        let handle = stream.try_clone().ok()?;
        if self.stop.load(Ordering::SeqCst) {
            let _ = handle.shutdown(Shutdown::Read);
        }
        state.count += 1;
        state.next_slot += 1;
        let slot = state.next_slot;
        state.sockets.insert(slot, handle);
        Some(Slot(self.clone(), slot))
    }
}

/// One admitted connection's place in the count, given back when its
/// thread ends — by return or by unwinding.
struct Slot(Arc<Live>, u64);

impl Drop for Slot {
    fn drop(&mut self) {
        let mut state = self.0.state();
        state.count -= 1;
        state.sockets.remove(&self.1);
        drop(state);
        self.0.changed.notify_all();
    }
}

/// A running TCP server, one thread per connection. Dropping the handle
/// (or calling [`NetServer::shutdown`]) stops the accept loop; call
/// [`NetServer::drain`] afterwards to wait for in-flight connections.
pub struct NetServer {
    addr: SocketAddr,
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

        let live = net.live.clone();
        let (server, config) = (net.server.clone(), net.config.clone());
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                // `shutdown` wakes this thread with a connection of its own.
                if live.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                server.metrics().connections_accepted.inc();
                if let Some(slot) = live.admit(&stream, config.max_connections.max(1)) {
                    let (server, config) = (server.clone(), config.clone());
                    std::thread::spawn(move || {
                        server.metrics().connections_active.inc();
                        let _ = handle_connection(stream, &slot, &server, &config);
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

    /// Number of connections currently open, idle kept-alive ones
    /// included.
    pub fn in_flight(&self) -> usize {
        self.live.state().count
    }

    /// Stop accepting new connections and close the idle ones; a
    /// connection in the middle of a reply finishes it, then closes. The
    /// first call shuts the read side of every live socket — a thread
    /// waiting for a request reads EOF — and wakes the accept thread out
    /// of its blocking `accept` by connecting to it; later calls do
    /// nothing.
    pub fn shutdown(&self) {
        if !self.live.stop.swap(true, Ordering::SeqCst) {
            for socket in self.live.state().sockets.values() {
                let _ = socket.shutdown(Shutdown::Read);
            }
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }

    /// Wait for in-flight connections to finish, up to `timeout`.
    /// Returns `true` if the server fully drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let (state, _) = self
            .live
            .changed
            .wait_timeout_while(self.live.state(), timeout, |state| state.count > 0)
            .unwrap_or_else(PoisonError::into_inner);
        state.count == 0
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

/// Serve one connection's requests, one after another, until it closes
/// (the module doc's keep-alive rule).
fn handle_connection(
    stream: TcpStream,
    slot: &Slot,
    server: &LaminarServer,
    config: &NetServerConfig,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    // The server reads only while it waits for a request, so one read
    // timeout is the deadline for every request frame.
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).ok();
    let mut conn = BufReader::new(stream);
    loop {
        let env: RequestEnvelope = match read_frame(&mut conn, MAX_FRAME) {
            Ok(Some(env)) => env,
            Ok(None) => return Ok(()),
            Err(ReadError::TooLarge(len)) => {
                let err = WireFrame::Value(Response::Error(format!(
                    "frame too large: {len} bytes (max {MAX_FRAME})"
                )));
                return write_last(conn.get_mut(), &err);
            }
            Err(ReadError::Malformed(m)) => {
                let err = WireFrame::Value(Response::Error(format!("malformed request: {m}")));
                return write_last(conn.get_mut(), &err);
            }
            // EOF, the idle deadline, or `shutdown`.
            Err(ReadError::Io(_)) => return Ok(()),
        };
        let (id, reply) = server.handle_envelope(env);
        let keep = match reply {
            Reply::Value(v) => {
                let keep = !closes(&v);
                write_last(conn.get_mut(), &WireFrame::Value(v))?;
                keep
            }
            Reply::Stream(rx) => stream_reply(conn.get_mut(), rx, id.0, server, config)?,
        };
        if !keep || slot.0.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// Write a streamed reply as its frames come; `Ok(true)` when it ended
/// normally, with `End` or an error value and the sentinel.
fn stream_reply(
    stream: &mut TcpStream,
    rx: Receiver<WireFrame>,
    request_id: u64,
    server: &LaminarServer,
    config: &NetServerConfig,
) -> std::io::Result<bool> {
    let mut quiet = Duration::ZERO;
    let mut batch = Vec::new();
    loop {
        match rx.recv_timeout(config.keepalive_interval) {
            Ok(frame) => {
                quiet = Duration::ZERO;
                // Coalesce: the frames already queued behind this one go
                // out in the same write, up to `COALESCE_BYTES`. Nothing
                // waits for more, so no frame is held back.
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
                    // Client hung up: dropping `rx` makes the run's next
                    // send fail, which records the execution `Failed`.
                    server.metrics().disconnects.inc();
                    return Ok(false);
                }
                if done {
                    return Ok(true);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                quiet += config.keepalive_interval;
                if quiet >= config.request_timeout {
                    // Stalled stream: cancel it. Returning drops `rx`,
                    // which settles the run as `Failed`.
                    server.metrics().timeouts.inc();
                    let cancel = WireFrame::Value(Response::TimedOut { request_id });
                    return write_last(stream, &cancel).map(|()| false);
                }
                let beat = WireFrame::Keepalive { request_id };
                if write_msg(stream, &beat).is_err() {
                    server.metrics().disconnects.inc();
                    return Ok(false);
                }
            }
            // Producer vanished without a terminal frame; end the
            // response so the client is not left hanging.
            Err(RecvTimeoutError::Disconnected) => {
                return stream.write_all(&SENTINEL).map(|()| false)
            }
        }
    }
}

/// One client socket, and the sender its reader thread waits on once the
/// socket has carried a stream. The socket's value exchanges run on the
/// caller's thread; its streams are read by that one thread, which ends
/// when the socket is dropped (it holds the only sender).
struct Socket {
    conn: BufReader<TcpStream>,
    reader: Option<Sender<Stream>>,
}

/// The socket a [`NetClientTransport`] keeps between requests, with the
/// moment it went idle; clones of the transport share it.
type IdleSocket = Arc<Mutex<Option<(Socket, Instant)>>>;

/// A streamed reply for a socket's reader thread: the socket itself, the
/// reply's first frame, the reply's channel, and where the socket goes
/// back once the reply is read.
struct Stream {
    socket: Socket,
    first: WireFrame,
    tx: Sender<WireFrame>,
    idle: IdleSocket,
}

impl Stream {
    /// Move the stream's frames, up to the sentinel, from the socket into
    /// the reply's channel, so a stream is a `Receiver` whichever side
    /// produced it. A read error ends the channel; a stream cut before
    /// its terminal frame is the run fold's to report. When the receiver
    /// is gone the socket is dropped, which is how the server observes
    /// the disconnect.
    fn read(self) {
        let Stream {
            mut socket,
            first: mut frame,
            tx,
            idle,
        } = self;
        loop {
            let keep = match &frame {
                WireFrame::End { .. } => Some(true),
                WireFrame::Value(v) => Some(!closes(v)),
                _ => None,
            };
            if let Some(keep) = keep {
                // The sentinel follows in the same write: give the socket
                // back before the terminal frame, so the caller's next
                // request finds it.
                finish(socket, keep, &idle);
                let _ = tx.send(frame);
                return;
            }
            if tx.send(frame).is_err() {
                return;
            }
            frame = match read_frame(&mut socket.conn, MAX_REPLY_FRAME) {
                Ok(Some(next)) => next,
                _ => return,
            };
        }
    }
}

/// Start a socket's reader thread; it reads the streams sent to it.
fn spawn_reader() -> Sender<Stream> {
    let (tx, rx) = channel::<Stream>();
    std::thread::spawn(move || rx.into_iter().for_each(Stream::read));
    tx
}

/// Client-side TCP [`Connection`]: requests go one after another over
/// one kept-alive socket. A request takes the idle socket, or connects
/// when there is none (or clones of the transport are using it), and
/// the socket goes back only once its reply's sentinel has been read.
#[derive(Clone)]
pub struct NetClientTransport {
    addr: SocketAddr,
    idle: IdleSocket,
}

/// Why an exchange on one socket failed.
enum Failed {
    /// Before the first reply byte: the write failed, or the socket read
    /// EOF or a reset. On a kept socket this is the server's idle close,
    /// and the request was never read.
    Unread(ConnectionError),
    /// After it (or on a timeout): the request may have executed.
    Read(ConnectionError),
}

impl NetClientTransport {
    pub fn new(addr: SocketAddr) -> Self {
        NetClientTransport {
            addr,
            idle: IdleSocket::default(),
        }
    }

    /// Send a request and classify the reply. A reply opening with
    /// [`WireFrame::Begin`] (or any non-`Value` frame, for version-1
    /// servers) becomes a frame stream; a single `Value` frame becomes
    /// `Reply::Value`.
    pub fn send(&self, req: Request) -> Result<Reply, ConnectionError> {
        let mut request = Vec::new();
        encode_msg(&mut request, &RequestEnvelope::new(req))
            .map_err(|e| ConnectionError::Unavailable(format!("send failed: {e}")))?;
        // A kept socket that fails before the reply began was closed by
        // the server unread: send once more, on a fresh socket.
        if let Some(socket) = self.take_idle() {
            match self.exchange(socket, &request) {
                Err(Failed::Unread(_)) => {}
                Err(Failed::Read(e)) => return Err(e),
                Ok(reply) => return Ok(reply),
            }
        }
        let stream = TcpStream::connect(self.addr)
            .map_err(|e| ConnectionError::Unavailable(e.to_string()))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT)).ok();
        let socket = Socket {
            conn: BufReader::new(stream),
            reader: None,
        };
        self.exchange(socket, &request)
            .map_err(|(Failed::Unread(e) | Failed::Read(e))| e)
    }

    /// The kept socket, unless it has been idle for half the server's
    /// [`HANDSHAKE_TIMEOUT`] or more: a request must not race the
    /// server's idle close.
    fn take_idle(&self) -> Option<Socket> {
        let (socket, since) = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()?;
        (since.elapsed() < HANDSHAKE_TIMEOUT / 2).then_some(socket)
    }

    /// Write `request` on `socket` and read the reply's first frame; the
    /// first frame classifies the reply.
    fn exchange(&self, mut socket: Socket, request: &[u8]) -> Result<Reply, Failed> {
        let conn = &mut socket.conn;
        if let Err(e) = conn.get_mut().write_all(request) {
            return Err(Failed::Unread(ConnectionError::Unavailable(format!(
                "send failed: {e}"
            ))));
        }
        // The server writes every frame it has queued at once: read them
        // through one buffer, not two syscalls a frame.
        match conn.fill_buf() {
            Ok([]) => {
                let closed = ConnectionError::Unavailable("connection closed before reply".into());
                return Err(Failed::Unread(closed));
            }
            Ok(_) => {}
            Err(e) => {
                let unread = matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                        | ErrorKind::BrokenPipe
                );
                let e = first_read_error(ReadError::Io(e));
                return Err(if unread {
                    Failed::Unread(e)
                } else {
                    Failed::Read(e)
                });
            }
        }
        let first: Option<WireFrame> =
            read_frame(conn, MAX_REPLY_FRAME).map_err(|e| Failed::Read(first_read_error(e)))?;
        match first {
            None => Ok(Reply::Value(Response::Error("empty reply".into()))),
            Some(WireFrame::Value(v)) => {
                // Synchronous response; consume the sentinel.
                finish(socket, !closes(&v), &self.idle);
                Ok(Reply::Value(v))
            }
            Some(first) => {
                // The socket's reader thread reads the rest; a socket's
                // first stream starts it.
                let reader = socket.reader.take().unwrap_or_else(spawn_reader);
                socket.reader = Some(reader.clone());
                let (tx, rx) = channel();
                let _ = reader.send(Stream {
                    socket,
                    first,
                    tx,
                    idle: self.idle.clone(),
                });
                Ok(Reply::Stream(rx))
            }
        }
    }
}

/// Read the sentinel behind a reply's last frame, then keep the socket
/// for the next request if the server keeps its end open (`keep`).
fn finish(mut socket: Socket, keep: bool, idle: &IdleSocket) {
    let sentinel = matches!(
        read_frame::<WireFrame>(&mut socket.conn, MAX_REPLY_FRAME),
        Ok(None)
    );
    if sentinel && keep {
        *idle.lock().unwrap_or_else(PoisonError::into_inner) = Some((socket, Instant::now()));
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

    /// Send `req` on a raw socket, the only request on it (the socket's
    /// sending side closes behind it), and read the reply frame by frame
    /// up to the sentinel, each frame stamped with its arrival; then
    /// everything the server still sends before it closes.
    fn raw_stream(addr: SocketAddr, req: Request) -> (Vec<(Instant, WireFrame)>, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        write_msg(&mut stream, &RequestEnvelope::new(req)).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut frames = Vec::new();
        while let Some(frame) = read_frame::<WireFrame>(&mut stream, MAX_REPLY_FRAME).unwrap() {
            frames.push((Instant::now(), frame));
        }
        let mut trailing = Vec::new();
        stream.read_to_end(&mut trailing).unwrap();
        (frames, trailing)
    }

    /// A streamed reply over TCP coalesces queued frames into one write:
    /// every line still arrives, `End` is the last frame and one sentinel
    /// follows it.
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

    /// Coalescing writes what is queued and never waits for more: a slow
    /// run's first line is not held back until `End`.
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

    /// A handler that panics is answered with a typed error on the same
    /// socket, which then serves the next request; the endpoint counts
    /// one request, one error and nothing in flight.
    #[test]
    fn handler_panic_gets_a_typed_error_and_keeps_the_connection() {
        let (srv, _client) = serve();
        let mut stream = TcpStream::connect(srv.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let login = Request::Login {
            username: crate::server::PANIC_USER.into(),
            password: "pw".into(),
        };
        write_msg(&mut stream, &RequestEnvelope::new(login)).unwrap();
        match read_frame::<WireFrame>(&mut stream, MAX_REPLY_FRAME).unwrap() {
            Some(WireFrame::Value(Response::Error(e))) => {
                assert!(e.starts_with("internal error: handler panic"), "{e}")
            }
            other => panic!("{other:?}"),
        }
        assert!(read_frame::<WireFrame>(&mut stream, MAX_REPLY_FRAME)
            .unwrap()
            .is_none());
        let ep = srv.server.metrics().endpoint("Login");
        assert_eq!(ep.requests.get(), 1);
        assert_eq!(ep.errors.get(), 1);
        assert_eq!(ep.in_flight.get(), 0);
        // The same socket serves the next request.
        write_msg(&mut stream, &RequestEnvelope::new(Request::Health {})).unwrap();
        assert!(matches!(
            read_frame::<WireFrame>(&mut stream, MAX_REPLY_FRAME).unwrap(),
            Some(WireFrame::Value(Response::Health { .. }))
        ));
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
