//! Mapping portability (paper §II-A): a deterministic abstract workflow
//! must produce the same output multiset under every mapping and process
//! count — the property that lets Laminar swap mappings per run request.

use laminar::d4py::mapping::{run, DynamicConfig, Mapping, RunInput};
use laminar::d4py::workflows;
use laminar::d4py::WorkflowGraph;

fn sorted_lines(g: &WorkflowGraph, input: RunInput, mapping: &Mapping) -> Vec<String> {
    let mut v = run(g, input, mapping).expect("run").lines().to_vec();
    v.sort();
    v
}

fn mappings() -> Vec<Mapping> {
    vec![
        Mapping::Simple,
        Mapping::Multi { processes: 3 },
        Mapping::Multi { processes: 6 },
        Mapping::Multi { processes: 11 },
        Mapping::Dynamic(DynamicConfig {
            initial_workers: 1,
            max_workers: 4,
        }),
        Mapping::Dynamic(DynamicConfig {
            initial_workers: 4,
            max_workers: 4,
        }),
    ]
}

#[test]
fn isprime_equivalent_under_all_mappings() {
    let reference = sorted_lines(
        &workflows::isprime_graph(),
        RunInput::Iterations(40),
        &Mapping::Simple,
    );
    assert!(!reference.is_empty());
    for mapping in mappings() {
        let got = sorted_lines(
            &workflows::isprime_graph(),
            RunInput::Iterations(40),
            &mapping,
        );
        assert_eq!(got, reference);
    }
}

#[test]
fn doubler_equivalent_under_all_mappings() {
    let reference = sorted_lines(
        &workflows::doubler_graph(),
        RunInput::Iterations(64),
        &Mapping::Simple,
    );
    assert_eq!(reference.len(), 64);
    for mapping in mappings() {
        let got = sorted_lines(
            &workflows::doubler_graph(),
            RunInput::Iterations(64),
            &mapping,
        );
        assert_eq!(got, reference);
    }
}

#[test]
fn anomaly_equivalent_under_all_mappings() {
    let reference = sorted_lines(
        &workflows::anomaly_graph(50.0),
        RunInput::Iterations(80),
        &Mapping::Simple,
    );
    for mapping in mappings() {
        // The anomaly pipeline has 4 PEs: skip process counts below its
        // static-partition minimum.
        if let Mapping::Multi { processes } = &mapping {
            if *processes < 4 {
                continue;
            }
        }
        let got = sorted_lines(
            &workflows::anomaly_graph(50.0),
            RunInput::Iterations(80),
            &mapping,
        );
        assert_eq!(got, reference);
    }
}

#[test]
fn wordcount_final_counts_equivalent() {
    // Per-line streams differ in interleaving (counter emits intermediate
    // counts), but the *final* per-word count is mapping-invariant thanks
    // to GroupBy routing.
    use std::collections::BTreeMap;
    let finals = |lines: &[String]| -> BTreeMap<String, i64> {
        let mut m = BTreeMap::new();
        for l in lines {
            let mut parts = l.rsplitn(2, ' ');
            let n: i64 = parts.next().unwrap().parse().unwrap();
            let w = parts.next().unwrap().to_string();
            let e = m.entry(w).or_insert(0);
            *e = (*e).max(n);
        }
        m
    };
    let reference = finals(
        run(
            &workflows::word_count_graph(),
            RunInput::Iterations(12),
            &Mapping::Simple,
        )
        .unwrap()
        .lines(),
    );
    // NOTE: the dynamic mapping cannot honour GroupBy (documented
    // restriction shared with the real Redis mapping), so only static
    // mappings are compared here.
    for mapping in [
        Mapping::Multi { processes: 4 },
        Mapping::Multi { processes: 9 },
    ] {
        let got = finals(
            run(
                &workflows::word_count_graph(),
                RunInput::Iterations(12),
                &mapping,
            )
            .unwrap()
            .lines(),
        );
        assert_eq!(got, reference);
    }
}

#[test]
fn iteration_counts_conserved_across_mappings() {
    // Total iterations per PE must equal the number of data items that
    // reached it, independent of the mapping.
    for mapping in mappings() {
        let r = run(
            &workflows::doubler_graph(),
            RunInput::Iterations(30),
            &mapping,
        )
        .unwrap();
        let total_for = |pe: &str| -> u64 {
            r.counts
                .iter()
                .filter(|((name, _), _)| name == pe)
                .map(|(_, n)| *n)
                .sum()
        };
        assert_eq!(total_for("Numbers0"), 30);
        assert_eq!(total_for("Double1"), 30);
        assert_eq!(total_for("Print2"), 30);
    }
}

#[test]
fn empty_input_equivalent() {
    for mapping in mappings() {
        let r = run(
            &workflows::isprime_graph(),
            RunInput::Iterations(0),
            &mapping,
        )
        .unwrap();
        assert!(r.lines().is_empty());
    }
}

/// Two producer roots feeding one consumer: each root is driven for every
/// iteration, so root A sees 0, 1, 2 and root B sees 0, 1, 2 — never a
/// share of one interleaved count.
#[test]
fn two_producer_roots_each_see_every_iteration() {
    use laminar::d4py::prelude::*;
    let two_roots = || {
        let mut g = WorkflowGraph::new("two_roots_wf");
        let a = g.add(ProducerPE::new("A", |i| Some(Data::from(i as i64))));
        let b = g.add(ProducerPE::new("B", |i| Some(Data::from(100 + i as i64))));
        let out = g.add(workflows::print_consumer("Out"));
        g.connect(a, OUTPUT, out, INPUT).unwrap();
        g.connect(b, OUTPUT, out, INPUT).unwrap();
        g
    };
    let mut expected: Vec<String> = [0, 1, 2, 100, 101, 102]
        .iter()
        .map(|n| format!("got {n}"))
        .collect();
    expected.sort();
    for mapping in mappings() {
        let got = sorted_lines(&two_roots(), RunInput::Iterations(3), &mapping);
        assert_eq!(got, expected);
    }
}

/// FNV-1a over the lines in order, each ended by a newline.
fn digest(lines: &[String]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The simple mapping's lines, in order, for every stock workflow (the
/// multiset tests above cannot see a reordering), and the multi mapping's
/// per-rank counts for `wordcount_wf`, whose `GroupBy` edge places each
/// word on one counter rank. The digests were recorded before the
/// mappings shared one enactment core.
#[test]
fn simple_order_and_groupby_placement_are_pinned() {
    let cases: [(WorkflowGraph, u64, u64); 7] = [
        (workflows::isprime_graph(), 200, 0x7da1355189fe3c3c),
        (workflows::doubler_graph(), 64, 0x7020a9cc6b17bd4b),
        (workflows::word_count_graph(), 12, 0x3fe71dc5c7becf12),
        (workflows::anomaly_graph(50.0), 200, 0x987be35f6a04d99f),
        (workflows::aggregate_sum_graph(), 50, 0x81b5c835244e3370),
        (workflows::cpu_bound_graph(10, true), 20, 0x2cd6107cb145ba99),
        (
            workflows::latency_bound_graph(0, false),
            20,
            0x5fb3eefb609b47cb,
        ),
    ];
    for (g, n, pinned) in cases {
        let r = run(&g, RunInput::Iterations(n), &Mapping::Simple).unwrap();
        assert_eq!(digest(r.lines()), pinned, "{}: {:?}", g.name, r.lines());
    }

    let r = run(
        &workflows::word_count_graph(),
        RunInput::Iterations(12),
        &Mapping::Multi { processes: 9 },
    )
    .unwrap();
    let counts: Vec<(&str, usize, u64)> = r
        .counts
        .iter()
        .map(|((pe, rank), n)| (pe.as_str(), *rank, *n))
        .collect();
    assert_eq!(
        counts,
        [
            ("PrintCount3", 7, 29),
            ("PrintCount3", 8, 29),
            ("Sentences0", 0, 12),
            ("Splitter1", 1, 4),
            ("Splitter1", 2, 4),
            ("Splitter1", 3, 4),
            ("WordCounter2", 4, 28),
            ("WordCounter2", 5, 8),
            ("WordCounter2", 6, 22),
        ]
    );
}
