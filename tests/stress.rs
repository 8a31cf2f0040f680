//! Stress and concurrency tests: sustained throughput through the
//! dataflow engine and concurrent executions through the serverless stack.

use laminar::core::{Laminar, LaminarConfig, PoolConfig, ISPRIME_WORKFLOW_SOURCE};
use laminar::d4py::mapping::{run, DynamicConfig, Mapping, RunInput};
use laminar::d4py::prelude::*;
use std::sync::Arc;

/// 10k items through a 3-stage pipeline under each mapping — checks
/// throughput sanity, backpressure (bounded channels), and exact counts.
#[test]
fn ten_thousand_items_every_mapping() {
    fn graph() -> WorkflowGraph {
        let mut g = WorkflowGraph::new("stress_wf");
        let src = g.add(ProducerPE::new("Src", |i| Some(Data::from(i as i64))));
        let stage = g.add(IterativePE::new("Stage", |d: Data| {
            Some(Data::from(d.as_int().unwrap_or(0) ^ 0x5a))
        }));
        let sink = g.add(AggregatePE::new(
            "Count",
            0i64,
            |acc: &mut i64, _d: Data| *acc += 1,
            |acc: &i64| Some(Data::from(*acc)),
        ));
        let out = g.add(ConsumerPE::new("Out", |d: Data, ctx: &mut Context<'_>| {
            ctx.log(format!("count {d}"));
        }));
        g.connect(src, OUTPUT, stage, INPUT).unwrap();
        g.connect(stage, OUTPUT, sink, INPUT).unwrap();
        g.connect_grouped(sink, OUTPUT, out, INPUT, Grouping::AllToOne)
            .unwrap();
        g
    }

    const N: u64 = 10_000;
    for mapping in [
        Mapping::Simple,
        Mapping::Multi { processes: 8 },
        Mapping::Dynamic(DynamicConfig {
            initial_workers: 4,
            max_workers: 4,
            autoscale: false,
            scale_threshold: 8,
        }),
    ] {
        let t0 = std::time::Instant::now();
        let r = run(&graph(), RunInput::Iterations(N), &mapping).unwrap();
        let total: i64 = r
            .lines()
            .iter()
            .map(|l| l.strip_prefix("count ").unwrap().parse::<i64>().unwrap())
            .sum();
        assert_eq!(total, N as i64, "{:?}", r.lines());
        // Generous sanity bound: 10k trivial items in < 30 s.
        assert!(t0.elapsed().as_secs() < 30);
    }
}

/// Many clients running workflows concurrently through one deployment:
/// the container pool is bounded, every execution completes, every
/// response is recorded.
#[test]
fn concurrent_executions_through_the_stack() {
    let laminar = Laminar::deploy(LaminarConfig {
        pool: PoolConfig {
            max_containers: 3,
            cold_start: std::time::Duration::from_millis(1),
            prewarmed: 1,
        },
        ..LaminarConfig::default()
    });
    let mut boot = laminar.client();
    boot.register("stress", "pw").unwrap();
    let reg = boot
        .register_workflow("isprime_wf", ISPRIME_WORKFLOW_SOURCE)
        .unwrap();
    let server = laminar.server();
    let wf_id = reg.workflow.1;

    let ok_runs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    std::thread::scope(|s| {
        for _ in 0..6 {
            let server = server.clone();
            let ok_runs = ok_runs.clone();
            s.spawn(move || {
                let mut client = laminar::client::LaminarClient::connect(server);
                client.login("stress", "pw").unwrap();
                for _ in 0..3 {
                    let out = client.run(wf_id, 5).unwrap();
                    assert!(out.ok);
                    ok_runs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
            });
        }
    });
    assert_eq!(ok_runs.load(std::sync::atomic::Ordering::SeqCst), 18);
    // Every execution recorded with a response.
    let execs = server.registry().executions_for(wf_id);
    assert_eq!(execs.len(), 18);
    for e in &execs {
        assert_eq!(server.registry().responses_for(e.id).len(), 1);
    }
    // The pool never exceeded its bound.
    let stats = server.engine().pool().stats();
    assert!(stats.created <= 3, "{stats:?}");
    assert!(stats.warm_hits > 0);
}

/// Concurrent searches while registrations mutate the indexes: no panics,
/// no torn reads, monotone registry growth.
#[test]
fn concurrent_search_and_registration() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let mut boot = laminar.client();
    boot.register("mixer", "pw").unwrap();
    let server = laminar.server();
    std::thread::scope(|s| {
        // Writers.
        for t in 0..3 {
            let server = server.clone();
            s.spawn(move || {
                let mut client = laminar::client::LaminarClient::connect(server);
                client.login("mixer", "pw").unwrap();
                for i in 0..20 {
                    client
                        .register_pe(
                            &format!("Gen{t}_{i}"),
                            &format!(
                                "class Gen{t}_{i}(IterativePE):\n    def _process(self, x):\n        return x * {i} + {t}\n"
                            ),
                            None,
                        )
                        .unwrap();
                }
            });
        }
        // Readers.
        for _ in 0..3 {
            let server = server.clone();
            s.spawn(move || {
                let mut client = laminar::client::LaminarClient::connect(server);
                client.login("mixer", "pw").unwrap();
                for _ in 0..30 {
                    let _ = client
                        .search_registry_semantic(
                            laminar::core::SearchScope::Pe,
                            "multiplies the input by a constant",
                        )
                        .unwrap();
                    let _ = client
                        .code_recommendation(
                            laminar::core::SearchScope::Pe,
                            "def _process(self, x):\n    return x * 3\n",
                            laminar::core::EmbeddingType::Spt,
                        )
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(server.registry().counts().0, 60);
    assert_eq!(server.indexes().len(), 60);
}
