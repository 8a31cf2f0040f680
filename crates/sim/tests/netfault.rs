//! Network-fault wrapper in isolation, against a real in-process server:
//! every fault kind, on either side of a frame exchange, must surface as
//! a typed error or a successful retry — never a wedged call, never an
//! untyped failure. The journal must always record the *true*
//! server-side outcome, including effects the client never saw.

use laminar_client::{ClientError, LaminarClient, RetryPolicy};
use laminar_core::{Laminar, LaminarConfig, PoolConfig};
use laminar_server::protocol::{FaultPolicyWire, Ident, RunInputWire, RunMode};
use laminar_server::{ConnectionError, Transport};
use laminar_sim::{CallOutcome, FaultyConn, NetFault, NetState};
use std::sync::Arc;
use std::time::Duration;

/// Deploy an in-memory stack and a logged-in client routed through a
/// quiescent `FaultyConn` with the given attempt budget.
fn stack(max_attempts: u32) -> (Laminar, Arc<NetState>, LaminarClient) {
    let laminar = Laminar::try_deploy(LaminarConfig {
        pool: PoolConfig {
            cold_start: Duration::ZERO,
            ..PoolConfig::default()
        },
        ..LaminarConfig::default()
    })
    .expect("deploy");
    laminar.seed_stock_registry().expect("stock");
    let net = NetState::new(7);
    let transport = Transport::new(laminar.server());
    let mut client = LaminarClient::over(FaultyConn::new(transport, net.clone()))
        .with_retry(RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        });
    client.login("stock", "stock").expect("login");
    net.drain_journal(); // isolate each test's observations
    (laminar, net, client)
}

#[test]
fn every_value_fault_is_typed_with_no_retry_budget() {
    let (_laminar, net, client) = stack(1);

    // Delay: the call still succeeds.
    net.push_script(Some(NetFault::Delay));
    client.metrics().expect("delay is harmless");

    // DropRequest: never delivered, typed timeout.
    net.push_script(Some(NetFault::DropRequest));
    match client.metrics() {
        Err(ClientError::Connection(ConnectionError::TimedOut { .. })) => {}
        other => panic!("drop-request should time out, got {other:?}"),
    }

    // DisconnectBeforeSend: never delivered, typed unavailable.
    net.push_script(Some(NetFault::DisconnectBeforeSend));
    match client.metrics() {
        Err(ClientError::Connection(ConnectionError::Unavailable(_))) => {}
        other => panic!("disconnect-before-send should be unavailable, got {other:?}"),
    }

    // DuplicateRequest: executed twice, second reply returned.
    net.drain_journal();
    net.push_script(Some(NetFault::DuplicateRequest));
    client.metrics().expect("duplicate still answers");
    let dup_records: Vec<_> = net
        .drain_journal()
        .into_iter()
        .filter(|r| r.fault == Some(NetFault::DuplicateRequest))
        .collect();
    assert_eq!(dup_records.len(), 2, "both executions must be journalled");

    // DropReply: executed server-side, client sees a typed timeout.
    net.push_script(Some(NetFault::DropReply));
    match client.metrics() {
        Err(ClientError::Connection(ConnectionError::TimedOut { .. })) => {}
        other => panic!("drop-reply should time out, got {other:?}"),
    }
    let rec = net.drain_journal().pop().expect("journalled");
    assert!(
        matches!(rec.outcome, CallOutcome::Value(_)),
        "the journal must show the server answered: {rec:?}"
    );

    // DisconnectAfterReply: executed, surfaced as a protocol error.
    net.push_script(Some(NetFault::DisconnectAfterReply));
    match client.metrics() {
        Err(ClientError::Connection(ConnectionError::Protocol(_))) => {}
        other => panic!("disconnect-after-reply should be protocol, got {other:?}"),
    }
}

#[test]
fn transient_faults_recover_under_retry() {
    let (_laminar, net, client) = stack(4);

    // Unavailable is always retried; the second attempt is clean.
    net.push_script(Some(NetFault::DisconnectBeforeSend));
    net.push_script(None);
    client.metrics().expect("retried to success");

    // A timed-out *idempotent* read is retried too.
    net.push_script(Some(NetFault::DropRequest));
    net.push_script(None);
    client.metrics().expect("idempotent timeout retried");

    // Even several consecutive faults stay within the budget.
    net.push_script(Some(NetFault::DisconnectBeforeSend));
    net.push_script(Some(NetFault::DisconnectBeforeSend));
    net.push_script(None);
    client.metrics().expect("two faults then clean");
}

#[test]
fn stream_faults_never_wedge_a_run() {
    let (_laminar, net, client) = stack(4);
    let run = |c: &LaminarClient| {
        c.run_custom_faults(
            Ident::Name("isprime_wf".into()),
            RunInputWire::Iterations(3),
            RunMode::Sequential,
            false,
            FaultPolicyWire::default(),
            None,
        )
    };

    // Baseline: the stock workflow runs clean through the wrapper.
    let out = run(&client).expect("clean run");
    assert!(out.ok, "clean run must succeed: {out:?}");
    net.drain_journal();

    // DropReply mid-stream: the wrapper drains the stream (server-side
    // effects settle), the client gets a typed timeout — Run is not
    // idempotent, so no blind re-send.
    net.push_script(Some(NetFault::DropReply));
    match run(&client) {
        Err(ClientError::Connection(ConnectionError::TimedOut { .. })) => {}
        other => panic!("drop-reply run should time out, got {other:?}"),
    }
    let rec = net.drain_journal().pop().expect("journalled");
    assert!(
        matches!(rec.outcome, CallOutcome::StreamDrained { ok: true }),
        "the lost stream must be drained to completion: {rec:?}"
    );

    // DisconnectAfterReply mid-stream: typed protocol error, drained.
    net.push_script(Some(NetFault::DisconnectAfterReply));
    match run(&client) {
        Err(ClientError::Connection(ConnectionError::Protocol(_))) => {}
        other => panic!("disconnect run should be protocol, got {other:?}"),
    }

    // DisconnectBeforeSend: provably never dispatched, so the client
    // retries even a run; second attempt succeeds.
    net.drain_journal();
    net.push_script(Some(NetFault::DisconnectBeforeSend));
    net.push_script(None);
    let out = run(&client).expect("undelivered run retried");
    assert!(out.ok);

    // DuplicateRequest downgrades to Delay for runs: exactly one
    // execution in the journal, and the call succeeds.
    net.drain_journal();
    net.push_script(Some(NetFault::DuplicateRequest));
    let out = run(&client).expect("duplicate run downgraded");
    assert!(out.ok);
    let records = net.drain_journal();
    assert_eq!(records.len(), 1, "one execution only: {records:?}");
    assert_eq!(records[0].fault, Some(NetFault::Delay));
}

#[test]
fn ambiguous_ack_journal_records_the_committed_mutation() {
    let (_laminar, net, client) = stack(1);

    // The reply to a registration is lost: the client cannot know the
    // outcome, but the journal must show the commit and its id.
    net.push_script(Some(NetFault::DropReply));
    match client.register_pe("GhostAck", "class GhostAck(IterativePE):\n    def _process(self, x):\n        return x\n", Some("ambiguous ack pe")) {
        Err(ClientError::Connection(ConnectionError::TimedOut { .. })) => {}
        other => panic!("lost-reply registration should time out, got {other:?}"),
    }
    let rec = net.drain_journal().pop().expect("journalled");
    match rec.outcome {
        CallOutcome::Value(laminar_server::Response::Registered { ref pe_ids, .. }) => {
            assert_eq!(pe_ids.len(), 1);
            assert_eq!(pe_ids[0].0, "GhostAck");
        }
        ref other => panic!("journal must hold the true outcome, got {other:?}"),
    }
    // And the server really has it.
    let pe = client.get_pe(Ident::Name("GhostAck".into())).expect("committed");
    assert_eq!(pe.id, {
        match net.drain_journal().pop().unwrap().outcome {
            CallOutcome::Value(laminar_server::Response::Pe(info)) => info.id,
            other => panic!("unexpected {other:?}"),
        }
    });
}
