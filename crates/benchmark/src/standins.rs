//! Checks on the third-party crates the benchmark is built against.
//!
//! Offline that is the stand-ins under `vendor/`; with a registry it is
//! the published crates. Either must pass: the expectations below are the
//! published crates' documented behaviour, which is what "same wire
//! format" and "same channel semantics" mean.

use laminar_server::protocol::{Ident, RunInputWire};
use laminar_server::{Request, RequestEnvelope, Response, RunMode, SearchScope, WireFrame};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

#[test]
fn envelope_flattens_the_request_beside_the_version() {
    let envelope = RequestEnvelope::new(Request::SearchSemantic {
        token: 7,
        scope: SearchScope::Pe,
        query: "sum \"all\"\n".into(),
        top_n: None,
    });
    let json = serde_json::to_string(&envelope).unwrap();
    assert_eq!(
        json,
        r#"{"protocol_version":9,"SearchSemantic":{"token":7,"scope":"Pe","query":"sum \"all\"\n","top_n":null}}"#
    );
    assert_eq!(
        serde_json::from_str::<RequestEnvelope>(&json).unwrap(),
        envelope
    );
    // A bare request is a version-1 envelope; an absent `top_n` is `None`.
    let bare: RequestEnvelope =
        serde_json::from_str(r#"{"SearchSemantic":{"token":7,"scope":"Pe","query":"q"}}"#).unwrap();
    assert_eq!(bare.protocol_version, 1);
    assert!(matches!(
        bare.body,
        Request::SearchSemantic { top_n: None, .. }
    ));
    assert!(serde_json::from_str::<RequestEnvelope>(r#"{"protocol_version":9}"#).is_err());
}

#[test]
fn enums_are_externally_tagged() {
    let run = Request::Run {
        token: 1,
        ident: Ident::Name("isprime_wf".into()),
        input: RunInputWire::Iterations(3),
        mode: RunMode::Multiprocess { processes: 5 },
        streaming: true,
        verbose: false,
        resources: Vec::new(),
        fault: Default::default(),
        task_timeout_ms: None,
    };
    let json = serde_json::to_string(&run).unwrap();
    assert_eq!(
        json,
        r#"{"Run":{"token":1,"ident":{"Name":"isprime_wf"},"input":{"Iterations":3},"mode":{"Multiprocess":{"processes":5}},"streaming":true,"verbose":false,"resources":[],"fault":"FailFast","task_timeout_ms":null}}"#
    );
    assert_eq!(serde_json::from_str::<Request>(&json).unwrap(), run);
    for frame in [
        WireFrame::Value(Response::Ok),
        WireFrame::Line("the num {'input': 7} is prime".into()),
        WireFrame::End {
            ok: true,
            millis: 3,
        },
        WireFrame::Value(Response::Registered {
            pe_ids: vec![("A".into(), 1)],
            workflow_id: Some(("w".into(), 2)),
        }),
    ] {
        let json = serde_json::to_string(&frame).unwrap();
        assert_eq!(
            serde_json::from_slice::<WireFrame>(json.as_bytes()).unwrap(),
            frame,
            "{json}"
        );
    }
    assert_eq!(
        serde_json::to_string(&WireFrame::Value(Response::Ok)).unwrap(),
        r#"{"Value":"Ok"}"#
    );
    assert!(serde_json::from_str::<WireFrame>(r#"{"Nope":1}"#).is_err());
    assert!(
        serde_json::from_str::<WireFrame>(r#"{"Line":"a","End":{"ok":true,"millis":1}}"#).is_err()
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Shapes {
    text: String,
    floats: Vec<f32>,
    wide: f64,
    pair: (u8, i64),
    by_name: BTreeMap<String, Option<bool>>,
    #[serde(default)]
    later: u32,
    #[serde(skip)]
    scratch: u32,
}

#[test]
fn values_round_trip_exactly() {
    let shapes = Shapes {
        text: "tab\t quote\" slash\\ bell\u{7} e-acute \u{e9} han \u{6f22} emoji \u{1f600}".into(),
        floats: vec![0.1, -1.5e-7, 3.402_823_5e38, 1.0, 16_777_217.0],
        wide: 1.0e21,
        pair: (255, i64::MIN),
        by_name: BTreeMap::from([("a".to_string(), Some(true)), ("b".to_string(), None)]),
        later: 4,
        scratch: 9,
    };
    let json = serde_json::to_string(&shapes).unwrap();
    assert!(json.contains(r#""wide":1e21"#), "{json}");
    assert!(json.contains("bell\\u0007"), "{json}");
    assert!(!json.contains("scratch"));
    let back: Shapes = serde_json::from_str(&json).unwrap();
    assert_eq!(
        back,
        Shapes {
            scratch: 0,
            ..shapes
        }
    );
    // Pretty output parses to the same value; escapes parse, surrogate
    // pairs included; unknown keys are skipped whatever they hold.
    let pretty = serde_json::to_string_pretty(&back).unwrap();
    assert!(pretty.starts_with("{\n  \"text\": "), "{pretty}");
    assert_eq!(serde_json::from_str::<Shapes>(&pretty).unwrap(), back);
    let odd = r#"{"text":"😀é\/","floats":[],"wide":2,"pair":[1,-1],
                  "by_name":{},"extra":{"deep":[1,{"x":"}"}],"s":"]"}}"#;
    let odd: Shapes = serde_json::from_str(odd).unwrap();
    assert_eq!(
        (odd.text.as_str(), odd.wide, odd.later),
        ("\u{1f600}\u{e9}/", 2.0, 0)
    );
    for bad in [
        r#"{"text":1}"#,
        r#"{"text":"a""#,
        "[]",
        r#"{"text":"a"} x"#,
        r#"{"pair":[1]}"#,
    ] {
        assert!(serde_json::from_str::<Shapes>(bad).is_err(), "{bad}");
    }
    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(serde_json::from_str::<serde_json::Value>(&deep).is_err());
}

#[test]
fn zero_capacity_channel_hands_over_only_to_a_waiting_receiver() {
    let (tx, rx) = crossbeam_channel::bounded::<u32>(0);
    assert!(matches!(
        tx.try_send(1),
        Err(crossbeam_channel::TrySendError::Full(1))
    ));
    let waiter = std::thread::spawn(move || rx.recv());
    // The hand-off succeeds once the receiver is parked in `recv`.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while tx.try_send(2).is_err() {
        assert!(
            std::time::Instant::now() < deadline,
            "receiver never waited"
        );
        std::thread::yield_now();
    }
    assert_eq!(waiter.join().unwrap(), Ok(2));
    assert!(matches!(
        tx.try_send(3),
        Err(crossbeam_channel::TrySendError::Disconnected(3))
    ));

    let (tx, rx) = crossbeam_channel::bounded::<u32>(1);
    tx.send(1).unwrap();
    assert!(tx.try_send(2).unwrap_err().is_full());
    drop(tx);
    // Queued messages outlive the senders; then the channel reports it.
    assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(10)),
        Err(crossbeam_channel::RecvTimeoutError::Disconnected)
    );
}

#[test]
fn parallel_adaptors_give_the_sequential_answer() {
    use rayon::prelude::*;
    let data: Vec<u32> = (0..1000).collect();
    let doubled: Vec<u32> = data.par_iter().map(|x| x * 2).collect();
    assert_eq!(doubled, data.iter().map(|x| x * 2).collect::<Vec<_>>());
    let evens: Vec<usize> = (0..10usize)
        .into_par_iter()
        .filter_map(|i| (i % 2 == 0).then_some(i))
        .collect();
    assert_eq!(evens, [0, 2, 4, 6, 8]);
    let total = data
        .par_chunks_exact(10)
        .enumerate()
        .fold(
            || 0u64,
            |acc, (row, chunk)| acc + row as u64 * chunk.len() as u64,
        )
        .reduce(|| 0, |a, b| a + b);
    assert_eq!(total, (0..100u64).map(|row| row * 10).sum::<u64>());
}
