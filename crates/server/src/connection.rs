//! The unified client↔server connection abstraction.
//!
//! Historically the in-process [`Transport`](crate::transport::Transport)
//! and the TCP [`NetClientTransport`](crate::net::NetClientTransport)
//! exposed two different call surfaces and the client branched between
//! them. [`Connection`] is the single trait both implement now:
//! `call` takes a [`Request`] and returns either a [`Reply`] (value or
//! frame stream) or a typed [`ConnectionError`]. Delivery shaping — the
//! §IV-E batch-vs-streaming discipline and the simulated per-frame
//! latency — is trait-level configuration via [`ConnOptions`], not a
//! property of one concrete transport.
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

use crate::clock::SharedClock;
use crate::protocol::{Reply, Request, Response, WireFrame};
use crate::transport::DeliveryMode;
use std::fmt;
use std::sync::mpsc::{channel, Receiver};
use std::time::Duration;

/// Trait-level connection configuration, shared by every transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnOptions {
    /// Frame-delivery discipline (§IV-E): HTTP/1.1-style batch or
    /// HTTP/2-style streaming.
    pub delivery: DeliveryMode,
    /// Simulated one-way latency applied per delivered frame (Batch pays
    /// it once for the aggregate, Streaming once per frame).
    pub frame_latency: Duration,
    /// Client-side per-request deadline (TCP read timeout). The server's
    /// keepalive frames reset it, so only a truly stalled or dead server
    /// trips it.
    pub request_timeout: Duration,
}

impl Default for ConnOptions {
    fn default() -> Self {
        ConnOptions {
            delivery: DeliveryMode::Streaming,
            frame_latency: Duration::ZERO,
            request_timeout: Duration::from_secs(30),
        }
    }
}

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
                "protocol version {client_version} unsupported (server speaks ≤ {server_version})"
            ),
            ConnectionError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ConnectionError {}

/// One client↔server connection. Implemented by the in-process
/// [`Transport`](crate::transport::Transport) and the TCP
/// [`NetClientTransport`](crate::net::NetClientTransport); everything
/// above (client library, CLI, examples, tests) is written once against
/// this trait.
pub trait Connection: Send + Sync {
    /// Send one request; synchronous replies come back as
    /// `Reply::Value`, streamed replies as `Reply::Stream`. Typed
    /// rejections ([`Response::Busy`], [`Response::Unsupported`]) are
    /// surfaced as `Err`, never as values.
    fn call(&self, req: Request) -> Result<Reply, ConnectionError>;

    /// The connection's current options.
    fn options(&self) -> ConnOptions;

    /// Replace the connection's options (delivery mode, frame latency,
    /// deadline).
    fn set_options(&mut self, opts: ConnOptions);

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

/// Hand a streamed reply's frames to the caller the way `opts` shapes
/// them (§IV-E), from a thread of its own: `Streaming` passes each frame on
/// as it arrives, one `frame_latency` apiece; `Batch` holds every frame
/// until the source ends and pays the latency once. `frames` is the
/// server's channel (in-process) or the socket's frames up to the sentinel
/// (TCP); it is dropped as soon as the receiver is gone, so the producer
/// behind it observes the disconnect.
pub fn deliver(
    frames: impl Iterator<Item = WireFrame> + Send + 'static,
    opts: ConnOptions,
    clock: SharedClock,
) -> Receiver<WireFrame> {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let pay_latency = || {
            if !opts.frame_latency.is_zero() {
                clock.sleep(opts.frame_latency);
            }
        };
        match opts.delivery {
            DeliveryMode::Streaming => {
                for frame in frames {
                    pay_latency();
                    if tx.send(frame).is_err() {
                        break;
                    }
                }
            }
            DeliveryMode::Batch => {
                let held: Vec<WireFrame> = frames.collect();
                pay_latency();
                for frame in held {
                    if tx.send(frame).is_err() {
                        break;
                    }
                }
            }
        }
    });
    rx
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn default_options() {
        let o = ConnOptions::default();
        assert_eq!(o.delivery, DeliveryMode::Streaming);
        assert!(o.frame_latency.is_zero());
    }
}
