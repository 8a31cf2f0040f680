//! Response-delivery transports (paper §IV-E "True-Streaming").
//!
//! Laminar 1.0 used HTTP/1.1: the engine ran the whole workflow and sent
//! one complete response. Laminar 2.0 uses HTTP/2 streaming: independent
//! frames flow to the client as output becomes available. The measurable
//! difference is the *framing discipline*, reproduced here over an
//! in-process channel with an optional per-frame latency model standing in
//! for the network (experiment E8 sweeps it).

use crate::clock::{SharedClock, SystemClock};
use crate::connection::{classify, deliver, ConnOptions, Connection, ConnectionError};
use crate::protocol::{Reply, Request};
use crate::server::LaminarServer;
use std::sync::Arc;
use std::time::Duration;

/// Frame-delivery discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// HTTP/1.1: hold every frame until the terminal frame, then deliver
    /// the whole response at once.
    Batch,
    /// HTTP/2: deliver each frame as soon as it exists.
    Streaming,
}

/// The in-process [`Connection`]: requests go straight into a shared
/// [`LaminarServer`], with delivery shaping (mode + simulated per-frame
/// latency) from its [`ConnOptions`].
#[derive(Clone)]
pub struct Transport {
    server: Arc<LaminarServer>,
    opts: ConnOptions,
    clock: SharedClock,
}

impl Transport {
    pub fn new(server: Arc<LaminarServer>, mode: DeliveryMode) -> Self {
        Transport {
            server,
            opts: ConnOptions {
                delivery: mode,
                ..ConnOptions::default()
            },
            clock: Arc::new(SystemClock::new()),
        }
    }

    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.opts.frame_latency = latency;
        self
    }

    /// Run the frame-latency model on an injected clock (the simulation
    /// harness passes a virtual one so latency never blocks real time).
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    pub fn with_options(mut self, opts: ConnOptions) -> Self {
        self.opts = opts;
        self
    }

    pub fn server(&self) -> &LaminarServer {
        &self.server
    }

    /// Send a request; the reply's frames obey this transport's delivery
    /// mode. Synchronous replies are unaffected by the mode.
    pub fn send(&self, req: Request) -> Reply {
        match self.server.handle(req) {
            Reply::Stream(frames) => {
                Reply::Stream(deliver(frames.into_iter(), self.opts, self.clock.clone()))
            }
            value => value,
        }
    }
}

impl Connection for Transport {
    fn call(&self, req: Request) -> Result<Reply, ConnectionError> {
        classify(self.send(req))
    }

    fn options(&self) -> ConnOptions {
        self.opts
    }

    fn set_options(&mut self, opts: ConnOptions) {
        self.opts = opts;
    }

    fn endpoint(&self) -> String {
        "in-process".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        FaultPolicyWire, Ident, PeSubmission, Response, RunInputWire, RunMode, WireFrame,
    };
    use std::time::Instant;

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
        let stream = Transport::new(server.clone(), DeliveryMode::Streaming);
        let batch = Transport::new(server, DeliveryMode::Batch);
        let (l1, _, _, ok1) = stream.send(run_req(token, wf, true)).drain();
        let (l2, _, _, ok2) = batch.send(run_req(token, wf, false)).drain();
        assert!(ok1 && ok2);
        assert_eq!(l1.len(), l2.len());
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
            let mode = if streaming {
                DeliveryMode::Streaming
            } else {
                DeliveryMode::Batch
            };
            let tp = Transport::new(server.clone(), mode);
            let reply = tp.send(Request::Run {
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
    fn latency_model_applies() {
        let (server, token, wf) = setup();
        let slow_net =
            Transport::new(server, DeliveryMode::Batch).with_latency(Duration::from_millis(10));
        let t0 = Instant::now();
        let (_, _, _, ok) = slow_net.send(run_req(token, wf, false)).drain();
        assert!(ok);
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn transport_implements_connection() {
        let (server, token, _) = setup();
        let conn: Box<dyn Connection> = Box::new(Transport::new(server, DeliveryMode::Streaming));
        let reply = conn.call(Request::GetRegistry { token }).unwrap();
        assert!(matches!(reply.value(), Response::Registry { .. }));
    }
}
