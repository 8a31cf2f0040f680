//! The unified client↔server connection abstraction.
//!
//! [`Connection`] is the one trait the in-process [`Transport`] and the
//! TCP [`NetClientTransport`](crate::net::NetClientTransport) implement:
//! `call` takes a [`Request`] and returns either a [`Reply`] (value or
//! frame stream) or a typed [`ConnectionError`]. Neither shapes a reply:
//! whether a run streams its frames (HTTP/2-style, Laminar 2.0) or holds
//! them to the end (HTTP/1.1-style, Laminar 1.0, §IV-E) is the engine's
//! response mode, set by the `Run` request's `streaming` flag.
//!
//! Error taxonomy (drives the client's retry policy):
//!
//! * [`ConnectionError::Unavailable`] — the request never reached the
//!   server (connect refused, endpoint gone). Always safe to retry.
//! * [`ConnectionError::Busy`] — typed saturation rejection from the
//!   server's connection cap, issued before the request was
//!   dispatched. Always safe to retry, after the hinted delay.
//! * [`ConnectionError::TimedOut`] — no reply within the deadline; the
//!   request may have executed, so only idempotent requests retry.
//! * [`ConnectionError::Degraded`] — the server is in read-only degraded
//!   mode and rejected a mutation before applying it. The server may
//!   recover (a background probe restores it), so idempotent requests
//!   retry after the hinted delay; non-idempotent requests surface the
//!   error — NOT `is_transient`, because whether a retry is safe depends
//!   on the endpoint, not the connection.
//! * [`ConnectionError::UnsupportedVersion`] / [`ConnectionError::Protocol`]
//!   — never retried.

use crate::protocol::{Reply, Request, Response};
use crate::server::LaminarServer;
use std::fmt;
use std::sync::Arc;

/// Typed connection-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectionError {
    /// The request never reached a server (connect refused, DNS, closed
    /// listener). Safe to retry.
    Unavailable(String),
    /// The server is at its connection cap; retry after the hint.
    Busy { retry_after_ms: u64 },
    /// No reply within the deadline.
    TimedOut { request_id: u64 },
    /// The server is in read-only degraded mode (storage fault) and
    /// rejected the mutation without applying it. Idempotent requests
    /// may retry after the hint — the server probes its storage in the
    /// background and recovers.
    Degraded { reason: String, retry_after_ms: u64 },
    /// The server does not speak this protocol version.
    UnsupportedVersion {
        server_version: u16,
        client_version: u16,
    },
    /// Malformed traffic or a mid-exchange transport failure (bytes may
    /// already have flowed — never retried).
    Protocol(String),
}

impl ConnectionError {
    /// Whether a retry can never duplicate work: the request provably
    /// did not start executing.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ConnectionError::Unavailable(_) | ConnectionError::Busy { .. }
        )
    }
}

impl fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectionError::Unavailable(m) => write!(f, "server unavailable: {m}"),
            ConnectionError::Busy { retry_after_ms } => {
                write!(f, "server busy (retry after {retry_after_ms} ms)")
            }
            ConnectionError::TimedOut { request_id } => {
                write!(f, "request req-{request_id} timed out")
            }
            ConnectionError::Degraded {
                reason,
                retry_after_ms,
            } => write!(
                f,
                "server degraded, read-only: {reason} (retry after {retry_after_ms} ms)"
            ),
            ConnectionError::UnsupportedVersion {
                server_version,
                client_version,
            } => write!(
                f,
                "protocol version {client_version} unsupported (server speaks {server_version})"
            ),
            ConnectionError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ConnectionError {}

/// One client↔server connection. Implemented by the in-process
/// [`Transport`] and the TCP
/// [`NetClientTransport`](crate::net::NetClientTransport); everything
/// above (client library, CLI, examples, tests) is written once against
/// this trait.
pub trait Connection: Send + Sync {
    /// Send one request; synchronous replies come back as
    /// `Reply::Value`, streamed replies as `Reply::Stream`. Typed
    /// rejections ([`Response::Busy`], [`Response::Unsupported`]) are
    /// surfaced as `Err`, never as values.
    fn call(&self, req: Request) -> Result<Reply, ConnectionError>;

    /// Human-readable endpoint description (for error messages).
    fn endpoint(&self) -> String {
        "in-process".to_string()
    }
}

/// Map typed rejection values onto [`ConnectionError`]s — shared by every
/// transport so callers never see `Response::Busy` as a success value.
pub fn classify(reply: Reply) -> Result<Reply, ConnectionError> {
    match reply {
        Reply::Value(Response::Busy { retry_after_ms }) => {
            Err(ConnectionError::Busy { retry_after_ms })
        }
        Reply::Value(Response::Degraded {
            reason,
            retry_after_ms,
        }) => Err(ConnectionError::Degraded {
            reason,
            retry_after_ms,
        }),
        Reply::Value(Response::Unsupported {
            server_version,
            client_version,
        }) => Err(ConnectionError::UnsupportedVersion {
            server_version,
            client_version,
        }),
        other => Ok(other),
    }
}

/// The in-process [`Connection`]: requests go straight into a shared
/// [`LaminarServer`], and a streamed reply is the run service's own
/// channel, handed to the caller unchanged.
#[derive(Clone)]
pub struct Transport {
    server: Arc<LaminarServer>,
}

impl Transport {
    pub fn new(server: Arc<LaminarServer>) -> Self {
        Transport { server }
    }
}

impl Connection for Transport {
    fn call(&self, req: Request) -> Result<Reply, ConnectionError> {
        classify(self.server.handle(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{FaultPolicyWire, Ident, PeSubmission, RunInputWire, RunMode, WireFrame};
    use std::time::{Duration, Instant};

    #[test]
    fn classify_maps_typed_rejections() {
        let busy = classify(Reply::Value(Response::Busy { retry_after_ms: 7 }));
        assert!(matches!(
            busy,
            Err(ConnectionError::Busy { retry_after_ms: 7 })
        ));
        let vers = classify(Reply::Value(Response::Unsupported {
            server_version: 2,
            client_version: 9,
        }));
        assert!(matches!(
            vers,
            Err(ConnectionError::UnsupportedVersion {
                server_version: 2,
                client_version: 9
            })
        ));
        let ok = classify(Reply::Value(Response::Ok));
        assert!(matches!(ok, Ok(Reply::Value(Response::Ok))));
    }

    #[test]
    fn transient_classification() {
        assert!(ConnectionError::Unavailable("x".into()).is_transient());
        assert!(ConnectionError::Busy { retry_after_ms: 1 }.is_transient());
        assert!(!ConnectionError::TimedOut { request_id: 1 }.is_transient());
        assert!(!ConnectionError::Protocol("x".into()).is_transient());
        // Degraded is endpoint-dependent (idempotent-only retry), so it
        // must NOT ride the unconditional transient path.
        assert!(!ConnectionError::Degraded {
            reason: "disk".into(),
            retry_after_ms: 100
        }
        .is_transient());
    }

    #[test]
    fn classify_maps_degraded() {
        let deg = classify(Reply::Value(Response::Degraded {
            reason: "wal append: injected ENOSPC".into(),
            retry_after_ms: 250,
        }));
        match deg {
            Err(ConnectionError::Degraded {
                reason,
                retry_after_ms: 250,
            }) => assert!(reason.contains("ENOSPC")),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    fn setup() -> (Arc<LaminarServer>, u64, u64) {
        let server = Arc::new(LaminarServer::with_stock());
        let token = match server
            .handle(Request::RegisterUser {
                username: "u".into(),
                password: "p".into(),
            })
            .value()
        {
            Response::Token(t) => t,
            _ => unreachable!(),
        };
        let resp = server
            .handle(Request::RegisterWorkflow {
                token,
                name: "doubler_wf".into(),
                code: String::new(),
                description: Some("doubles numbers".into()),
                pes: vec![PeSubmission {
                    name: "Double".into(),
                    code: "class Double(IterativePE):\n    def _process(self, x):\n        return x * 2\n".into(),
                    description: None,
                }],
            })
            .value();
        let wf_id = match resp {
            Response::Registered { workflow_id, .. } => workflow_id.unwrap().1,
            other => panic!("{other:?}"),
        };
        (server, token, wf_id)
    }

    fn run_req(token: u64, wf: u64, streaming: bool) -> Request {
        Request::Run {
            token,
            ident: Ident::Id(wf),
            input: RunInputWire::Iterations(8),
            mode: RunMode::Sequential,
            streaming,
            verbose: false,
            resources: vec![],
            fault: FaultPolicyWire::default(),
            task_timeout_ms: None,
        }
    }

    #[test]
    fn both_modes_deliver_identical_content() {
        let (server, token, wf) = setup();
        let tp = Transport::new(server);
        let streamed = tp.call(run_req(token, wf, true)).unwrap().drain().unwrap();
        let batched = tp.call(run_req(token, wf, false)).unwrap().drain().unwrap();
        assert!(streamed.ok && batched.ok);
        assert_eq!(streamed.lines, batched.lines);
    }

    #[test]
    fn streaming_has_lower_time_to_first_frame_on_slow_runs() {
        let (server, token, _) = setup();
        // Register a deliberately slow workflow in the engine library.
        server.engine().library().register("slow_wf", || {
            use d4py::prelude::*;
            let mut g = WorkflowGraph::new("slow_wf");
            let src = g.add(ProducerPE::new("Src", |i| Some(Data::from(i as i64))));
            let slow = g.add(IterativePE::new("Slow", |d: Data| {
                std::thread::sleep(Duration::from_millis(8));
                Some(d)
            }));
            let sink = g.add(ConsumerPE::new("Out", |d: Data, ctx: &mut Context<'_>| {
                ctx.log(format!("{d}"));
            }));
            g.connect(src, OUTPUT, slow, INPUT).unwrap();
            g.connect(slow, OUTPUT, sink, INPUT).unwrap();
            g
        });
        let t2 = server
            .handle(Request::RegisterWorkflow {
                token,
                name: "slow_wf".into(),
                code: String::new(),
                description: Some("slow".into()),
                pes: vec![],
            })
            .value();
        assert!(matches!(t2, Response::Registered { .. }));

        let ttfo = |streaming: bool| -> Duration {
            let tp = Transport::new(server.clone());
            let reply = tp.call(Request::Run {
                token,
                ident: Ident::Name("slow_wf".into()),
                input: RunInputWire::Iterations(10),
                mode: RunMode::Sequential,
                streaming,
                verbose: false,
                resources: vec![],
                fault: FaultPolicyWire::default(),
                task_timeout_ms: None,
            });
            let t0 = Instant::now();
            let reply = reply.unwrap();
            match reply {
                Reply::Stream(rx) => {
                    for f in rx.iter() {
                        match f {
                            WireFrame::Line(_) => return t0.elapsed(),
                            WireFrame::End { .. } => break,
                            _ => {}
                        }
                    }
                    t0.elapsed()
                }
                _ => panic!("expected stream"),
            }
        };
        let t_stream = ttfo(true);
        let t_batch = ttfo(false);
        assert!(
            t_stream < t_batch,
            "streaming TTFO {t_stream:?} must beat batch {t_batch:?}"
        );
    }

    #[test]
    fn transport_implements_connection() {
        let (server, token, _) = setup();
        let conn: Box<dyn Connection> = Box::new(Transport::new(server));
        let reply = conn.call(Request::GetRegistry { token }).unwrap();
        assert!(matches!(reply.value(), Response::Registry { .. }));
    }
}
