//! Seeded network-fault [`Connection`] wrapper — the transport fault
//! plane of the simulation.
//!
//! [`FaultyConn`] sits between the client and any inner [`Connection`]
//! (in practice the in-process `Transport`) and injects faults on either
//! side of a frame exchange, driven by a deterministic [`SimRng`]:
//!
//! * [`NetFault::DisconnectBeforeSend`] — the connection dies before the
//!   request leaves: the server never sees it; the client gets
//!   [`ConnectionError::Unavailable`] (always safe to retry).
//! * [`NetFault::DropRequest`] — the request is lost in flight: the
//!   server never sees it; the client gets [`ConnectionError::TimedOut`].
//! * [`NetFault::DuplicateRequest`] — at-least-once delivery: the server
//!   executes the request twice, the first reply is discarded, the
//!   second is returned. Exercises server-side idempotency (duplicate
//!   registration reuse, upload dedup).
//! * [`NetFault::DropReply`] — the server executed the request but the
//!   reply is lost: the client gets [`ConnectionError::TimedOut`] even
//!   though the effect happened. The classic ambiguous-ack case.
//! * [`NetFault::DisconnectAfterReply`] — mid-reply connection reset:
//!   executed server-side, surfaced as [`ConnectionError::Protocol`]
//!   (never retried by the client).
//! * [`NetFault::Delay`] — frame delay only; the wrapper does not wait, so
//!   this perturbs nothing but the schedule, and the call succeeds.
//!
//! The wrapper is **omniscient**: every attempt it makes against the
//! inner connection is journalled as a [`CallRecord`] with the request
//! and the *true* server-side outcome — including outcomes the client
//! never saw because the reply was dropped. The harness's reference
//! model replays this journal, which is what lets the oracle demand
//! exact agreement even under ambiguous acks.
//!
//! Faults can come from a seeded percentage (the harness's chaos mode)
//! or from an explicit script (unit tests pin one fault per call).

use crate::rng::SimRng;
use laminar_server::protocol::{Reply, Request, Response, WireFrame};
use laminar_server::{Connection, ConnectionError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One injected transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Frame delay only; the call still succeeds.
    Delay,
    /// Request lost in flight: not executed, client times out.
    DropRequest,
    /// Connection refused before send: not executed, client sees
    /// `Unavailable`.
    DisconnectBeforeSend,
    /// At-least-once delivery: executed twice, first reply discarded.
    DuplicateRequest,
    /// Reply lost: executed, client times out.
    DropReply,
    /// Connection reset mid-reply: executed, client sees `Protocol`.
    DisconnectAfterReply,
}

impl NetFault {
    pub const ALL: [NetFault; 6] = [
        NetFault::Delay,
        NetFault::DropRequest,
        NetFault::DisconnectBeforeSend,
        NetFault::DuplicateRequest,
        NetFault::DropReply,
        NetFault::DisconnectAfterReply,
    ];

    pub fn name(self) -> &'static str {
        match self {
            NetFault::Delay => "delay",
            NetFault::DropRequest => "drop-request",
            NetFault::DisconnectBeforeSend => "disconnect-before-send",
            NetFault::DuplicateRequest => "duplicate-request",
            NetFault::DropReply => "drop-reply",
            NetFault::DisconnectAfterReply => "disconnect-after-reply",
        }
    }
}

/// True server-side outcome of one attempt against the inner connection.
#[derive(Debug, Clone)]
pub enum CallOutcome {
    /// The request never reached the server (dropped or disconnected
    /// before send). Guaranteed no server-side effect.
    NotDelivered,
    /// The server returned a synchronous value (which the client may or
    /// may not have seen, depending on the fault).
    Value(Response),
    /// The server opened a stream and it was handed to the caller
    /// undrained (fault-free streamed call).
    Stream,
    /// The server opened a stream but the reply was lost; the wrapper
    /// drained it to completion so server-side effects are settled.
    /// `ok` is the terminal frame's verdict.
    StreamDrained { ok: bool },
    /// The inner connection itself rejected the call (busy, degraded,
    /// unsupported version). No registry mutation happened.
    Rejected(ConnectionError),
}

/// Journal entry: one attempt the wrapper made (or deliberately did not
/// make) against the inner connection, in order.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// Monotone per-connection attempt number.
    pub seq: u64,
    /// Fault applied to this attempt, if any.
    pub fault: Option<NetFault>,
    /// The request as the server saw (or would have seen) it.
    pub req: Request,
    /// What actually happened server-side.
    pub outcome: CallOutcome,
}

/// Shared fault-plan + journal state, handed to both the wrapper and the
/// harness.
#[derive(Debug)]
pub struct NetState {
    /// Percent chance (0–100) that a call draws a fault.
    percent: AtomicU32,
    rng: Mutex<SimRng>,
    /// Scripted faults consumed before any random draw (front first).
    script: Mutex<VecDeque<Option<NetFault>>>,
    journal: Mutex<Vec<CallRecord>>,
    seq: AtomicU64,
}

impl NetState {
    /// Seeded random plan, initially quiescent (0% faults).
    pub fn new(seed: u64) -> Arc<NetState> {
        Arc::new(NetState {
            percent: AtomicU32::new(0),
            rng: Mutex::new(SimRng::new(seed)),
            script: Mutex::new(VecDeque::new()),
            journal: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
        })
    }

    /// Set the random fault probability (0 disables the random plane;
    /// scripted faults still fire).
    pub fn set_percent(&self, percent: u32) {
        self.percent.store(percent.min(100), Ordering::SeqCst);
    }

    pub fn percent(&self) -> u32 {
        self.percent.load(Ordering::SeqCst)
    }

    /// Queue an explicit fault decision for the next call(s). `None`
    /// scripts a clean call. Scripted entries take priority over the
    /// random plan.
    pub fn push_script(&self, fault: Option<NetFault>) {
        self.script.lock().unwrap().push_back(fault);
    }

    /// Take everything journalled since the last drain.
    pub fn drain_journal(&self) -> Vec<CallRecord> {
        std::mem::take(&mut *self.journal.lock().unwrap())
    }

    fn decide(&self, req: &Request) -> Option<NetFault> {
        let scripted = self.script.lock().unwrap().pop_front();
        let fault = match scripted {
            Some(f) => f,
            None => {
                let percent = self.percent.load(Ordering::SeqCst);
                let mut rng = self.rng.lock().unwrap();
                if percent > 0 && rng.chance(percent) {
                    Some(*rng.pick(&NetFault::ALL))
                } else {
                    None
                }
            }
        };
        // Replaying a run duplicates its execution-history and container
        // side effects in ways no real at-least-once transport batches
        // into one reply stream; downgrade to a harmless delay.
        match (fault, req) {
            (Some(NetFault::DuplicateRequest), Request::Run { .. }) => Some(NetFault::Delay),
            _ => fault,
        }
    }

    fn record(&self, fault: Option<NetFault>, req: Request, outcome: CallOutcome) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.journal.lock().unwrap().push(CallRecord {
            seq,
            fault,
            req,
            outcome,
        });
    }
}

/// Drain a frame stream to its terminal frame; returns the `End` verdict
/// (`false` if the stream errored out or the channel closed early).
fn drain_stream(rx: &std::sync::mpsc::Receiver<WireFrame>) -> bool {
    for frame in rx.iter() {
        match frame {
            WireFrame::End { ok, .. } => return ok,
            WireFrame::Value(Response::Error(_)) | WireFrame::Value(Response::TimedOut { .. }) => {
                return false
            }
            _ => {}
        }
    }
    false
}

/// The fault-injecting [`Connection`] wrapper. See the module docs for
/// fault semantics.
pub struct FaultyConn<C: Connection> {
    inner: C,
    state: Arc<NetState>,
}

impl<C: Connection> FaultyConn<C> {
    pub fn new(inner: C, state: Arc<NetState>) -> FaultyConn<C> {
        FaultyConn { inner, state }
    }

    /// Execute against the inner connection and journal the true outcome.
    /// Returns the raw result for the caller to shape per the fault.
    fn attempt(&self, fault: Option<NetFault>, req: &Request) -> Result<Reply, ConnectionError> {
        match self.inner.call(req.clone()) {
            Ok(Reply::Value(v)) => {
                self.state
                    .record(fault, req.clone(), CallOutcome::Value(v.clone()));
                Ok(Reply::Value(v))
            }
            Ok(Reply::Stream(rx)) => {
                // Journalled lazily by the caller: a delivered stream is
                // `Stream`, a lost one is drained to `StreamDrained`.
                Ok(Reply::Stream(rx))
            }
            Err(e) => {
                self.state
                    .record(fault, req.clone(), CallOutcome::Rejected(e.clone()));
                Err(e)
            }
        }
    }

    /// Execute, then lose the reply: streams are drained to completion
    /// first so server-side effects are fully settled before the client
    /// sees the (lossy) error.
    fn attempt_and_lose(&self, fault: Option<NetFault>, req: &Request) {
        match self.inner.call(req.clone()) {
            Ok(Reply::Value(v)) => {
                self.state
                    .record(fault, req.clone(), CallOutcome::Value(v.clone()));
            }
            Ok(Reply::Stream(rx)) => {
                let ok = drain_stream(&rx);
                self.state
                    .record(fault, req.clone(), CallOutcome::StreamDrained { ok });
            }
            Err(e) => {
                self.state
                    .record(fault, req.clone(), CallOutcome::Rejected(e));
            }
        }
    }
}

impl<C: Connection> Connection for FaultyConn<C> {
    fn call(&self, req: Request) -> Result<Reply, ConnectionError> {
        let fault = self.state.decide(&req);
        match fault {
            None | Some(NetFault::Delay) => match self.attempt(fault, &req)? {
                Reply::Value(v) => Ok(Reply::Value(v)),
                Reply::Stream(rx) => {
                    self.state.record(fault, req, CallOutcome::Stream);
                    Ok(Reply::Stream(rx))
                }
            },
            Some(NetFault::DisconnectBeforeSend) => {
                let seq = self.state.seq.load(Ordering::SeqCst);
                self.state.record(fault, req, CallOutcome::NotDelivered);
                Err(ConnectionError::Unavailable(format!(
                    "sim: connection refused before send (attempt {seq})"
                )))
            }
            Some(NetFault::DropRequest) => {
                let seq = self.state.seq.load(Ordering::SeqCst);
                self.state.record(fault, req, CallOutcome::NotDelivered);
                Err(ConnectionError::TimedOut { request_id: seq })
            }
            Some(NetFault::DuplicateRequest) => {
                // At-least-once: the server executes twice; the client
                // only ever sees the second reply.
                self.attempt_and_lose(fault, &req);
                match self.attempt(fault, &req)? {
                    Reply::Value(v) => Ok(Reply::Value(v)),
                    Reply::Stream(rx) => {
                        self.state.record(fault, req, CallOutcome::Stream);
                        Ok(Reply::Stream(rx))
                    }
                }
            }
            Some(NetFault::DropReply) => {
                let seq = self.state.seq.load(Ordering::SeqCst);
                self.attempt_and_lose(fault, &req);
                Err(ConnectionError::TimedOut { request_id: seq })
            }
            Some(NetFault::DisconnectAfterReply) => {
                self.attempt_and_lose(fault, &req);
                Err(ConnectionError::Protocol(
                    "sim: connection reset mid-reply".to_string(),
                ))
            }
        }
    }

    fn endpoint(&self) -> String {
        format!("sim-faulty({})", self.inner.endpoint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_faults_fire_in_order_then_fall_back_to_random() {
        let state = NetState::new(1);
        state.push_script(Some(NetFault::DropRequest));
        state.push_script(None);
        let req = Request::Metrics {};
        assert_eq!(state.decide(&req), Some(NetFault::DropRequest));
        assert_eq!(state.decide(&req), None);
        // Script exhausted, percent 0 → clean.
        assert_eq!(state.decide(&req), None);
        state.set_percent(100);
        assert!(state.decide(&req).is_some());
    }

    #[test]
    fn duplicate_is_downgraded_for_runs() {
        let state = NetState::new(2);
        state.push_script(Some(NetFault::DuplicateRequest));
        let run = Request::Run {
            token: 1,
            ident: laminar_server::protocol::Ident::Name("wf".into()),
            input: laminar_server::protocol::RunInputWire::Iterations(1),
            mode: laminar_server::protocol::RunMode::Sequential,
            streaming: false,
            verbose: false,
            resources: vec![],
            fault: laminar_server::protocol::FaultPolicyWire::default(),
            task_timeout_ms: None,
        };
        assert_eq!(state.decide(&run), Some(NetFault::Delay));
        state.push_script(Some(NetFault::DuplicateRequest));
        assert_eq!(
            state.decide(&Request::Metrics {}),
            Some(NetFault::DuplicateRequest)
        );
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let draw = |seed: u64| -> Vec<Option<NetFault>> {
            let state = NetState::new(seed);
            state.set_percent(40);
            (0..50).map(|_| state.decide(&Request::Metrics {})).collect()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }
}
