//! E9 — the §IV-F resource-management claim: bytes on the wire for E
//! repeated executions of a workflow needing R resources, Laminar 1.0
//! (inline resend every run) vs Laminar 2.0 (content-hash cache +
//! multipart upload of missing files only).
//!
//! Expected shape: 2.0 transmits each resource once; 1.0 transmits
//! R×S bytes per execution, so the ratio grows linearly with E.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin eval_resources
//! ```

use laminar_core::{Laminar, LaminarConfig};
use laminar_server::protocol::content_hash;
use laminar_server::{Request, Response};
use laminar_server::protocol::{FaultPolicyWire, Ident, ResourceRefWire, RunInputWire, RunMode};

const RESOURCE_SIZE: usize = 256 * 1024; // 256 KiB per resource
const N_RESOURCES: usize = 3;

fn setup() -> (std::sync::Arc<laminar_server::LaminarServer>, u64) {
    let laminar = Laminar::deploy(LaminarConfig {
        prewarmed: 2,
        ..LaminarConfig::default()
    });
    let server = laminar.server();
    let token = match server
        .handle(Request::RegisterUser {
            username: "bench".into(),
            password: "pw".into(),
        })
        .value()
    {
        Response::Token(t) => t,
        other => panic!("{other:?}"),
    };
    server
        .handle(Request::RegisterWorkflow {
            token,
            name: "doubler_wf".into(),
            code: String::new(),
            description: Some("doubles".into()),
            pes: vec![],
        })
        .value();
    (server, token)
}

fn resources() -> Vec<(String, Vec<u8>)> {
    (0..N_RESOURCES)
        .map(|i| {
            (
                format!("input_{i}.bin"),
                vec![i as u8 + 1; RESOURCE_SIZE],
            )
        })
        .collect()
}

fn main() {
    println!("# §IV-F — resource transmission: Laminar 1.0 (inline) vs 2.0 (cached)\n");
    println!(
        "{:>6}  {:>16}  {:>16}  {:>8}",
        "runs", "1.0 bytes sent", "2.0 bytes sent", "ratio"
    );
    for executions in [1usize, 2, 5, 10, 20] {
        // ---- Laminar 1.0 baseline: everything inline, every run.
        let (server_v1, token1) = setup();
        for _ in 0..executions {
            let reply = server_v1.handle(Request::RunWithInlineResources {
                token: token1,
                ident: Ident::Name("doubler_wf".into()),
                input: RunInputWire::Iterations(2),
                mode: RunMode::Sequential,
                resources: resources(),
            });
            assert!(reply.drain().unwrap().ok);
        }
        let v1_bytes = server_v1.resources().stats().bytes_received;

        // ---- Laminar 2.0: references + upload-on-miss.
        let (server_v2, token2) = setup();
        for _ in 0..executions {
            let refs: Vec<ResourceRefWire> = resources()
                .iter()
                .map(|(n, b)| ResourceRefWire {
                    name: n.clone(),
                    content_hash: content_hash(b),
                })
                .collect();
            let run = |srv: &laminar_server::LaminarServer| {
                srv.handle(Request::Run {
                    token: token2,
                    ident: Ident::Name("doubler_wf".into()),
                    input: RunInputWire::Iterations(2),
                    mode: RunMode::Sequential,
                    streaming: true,
                    verbose: false,
                    resources: refs.clone(),
                    fault: FaultPolicyWire::default(),
                    task_timeout_ms: None,
                })
            };
            match run(&server_v2) {
                laminar_server::Reply::Value(Response::NeedResources(missing)) => {
                    for name in missing {
                        let bytes = resources()
                            .into_iter()
                            .find(|(n, _)| *n == name)
                            .unwrap()
                            .1;
                        server_v2
                            .handle(Request::UploadResource {
                                token: token2,
                                name,
                                bytes,
                            })
                            .value();
                    }
                    assert!(run(&server_v2).drain().unwrap().ok);
                }
                reply => assert!(reply.drain().unwrap().ok),
            }
        }
        let v2_bytes = server_v2.resources().stats().bytes_received;
        println!(
            "{:>6}  {:>16}  {:>16}  {:>7.1}x",
            executions,
            v1_bytes,
            v2_bytes,
            v1_bytes as f64 / v2_bytes.max(1) as f64
        );
    }
    println!(
        "\nshape check: 2.0 bytes stay constant ({} KiB total); the ratio grows ≈ linearly with runs.",
        N_RESOURCES * RESOURCE_SIZE / 1024
    );
}
