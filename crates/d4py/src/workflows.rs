//! Stock workflows used throughout the workspace — the paper's running
//! examples (isprime_wf of Fig. 5, word counting of Fig. 7, anomaly
//! detection of Fig. 8) plus small helpers for tests and benches.
//!
//! Everything is deterministic: "random" numbers come from a fixed-seed
//! xorshift keyed by the iteration index, so runs are reproducible across
//! mappings and machines.

use crate::data::Data;
use crate::graph::{Grouping, WorkflowGraph, INPUT, OUTPUT};
use crate::pe::{
    AggregatePE, ConsumerPE, Context, GenericPE, IterativePE, PortSpec, ProducerPE, StatefulPE,
};
use std::collections::BTreeMap;

/// Deterministic pseudo-random number in `1..=max` keyed by `i`.
pub fn pseudo_random(i: u64, max: u64) -> u64 {
    let mut x = i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0xDEADBEEF);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    (x % max) + 1
}

/// Producer emitting pseudo-random integers in `1..=max`
/// (the paper's `NumberProducer`).
pub fn number_producer(max: u64) -> impl crate::graph::PEFactory {
    ProducerPE::new("Numbers", move |i| Some(Data::from(pseudo_random(i, max) as i64)))
}

/// Identity 1-in/1-out PE.
pub fn identity_pe(name: &str) -> impl crate::graph::PEFactory {
    IterativePE::new(name, Some)
}

/// Consumer logging `got <datum>`.
pub fn print_consumer(name: &str) -> impl crate::graph::PEFactory {
    ConsumerPE::new(name, |d: Data, ctx: &mut Context<'_>| {
        ctx.log(format!("got {d}"));
    })
}

/// Producer → doubler → printer (the crate-level doc example).
pub fn doubler_graph() -> WorkflowGraph {
    let mut g = WorkflowGraph::new("doubler_wf");
    let src = g.add(ProducerPE::new("Numbers", |i| Some(Data::from(i as i64))));
    let dbl = g.add(IterativePE::new("Double", |d: Data| {
        Some(Data::from(d.as_int().unwrap_or(0) * 2))
    }));
    let sink = g.add(print_consumer("Print"));
    g.connect(src, OUTPUT, dbl, INPUT).expect("ports exist");
    g.connect(dbl, OUTPUT, sink, INPUT).expect("ports exist");
    g
}

/// Is `n` prime? (trial division — deliberately the naive algorithm of the
/// paper's Listing 1, which doubles as CPU-bound work for the benches).
pub fn is_prime(n: i64) -> bool {
    if n < 2 {
        return false;
    }
    let mut i = 2;
    while i < n {
        if n % i == 0 {
            return false;
        }
        i += 1;
    }
    true
}

/// The paper's `isprime_wf` (Fig. 5): NumberProducer → IsPrime →
/// PrintPrime. Output lines match Fig. 5b: `the num {'input': 751} is prime`.
pub fn isprime_graph() -> WorkflowGraph {
    let mut g = WorkflowGraph::new("isprime_wf");
    let producer = g.add(ProducerPE::new("NumberProducer", |i| {
        Some(Data::from(pseudo_random(i, 1000) as i64))
    }));
    let isprime = g.add(IterativePE::new("IsPrime", |d: Data| {
        let n = d.as_int()?;
        if is_prime(n) {
            Some(d)
        } else {
            None
        }
    }));
    let printer = g.add(ConsumerPE::new("PrintPrime", |d: Data, ctx: &mut Context<'_>| {
        let record = Data::record([("input", d)]);
        ctx.log(format!("the num {record} is prime"));
    }));
    g.connect(producer, OUTPUT, isprime, INPUT).expect("ports exist");
    g.connect(isprime, OUTPUT, printer, INPUT).expect("ports exist");
    g
}

const SENTENCES: &[&str] = &[
    "stream processing with laminar",
    "serverless stream processing",
    "laminar runs dispel4py workflows",
    "search the registry for stream workflows",
    "code search finds similar processing elements",
    "stream the output to the client",
];

/// Word-count workflow (Fig. 7's `words`-flavoured registry entries):
/// SentenceProducer → Splitter (one word per output) → WordCounter
/// (stateful, grouped by word) → printer logging `<word> <count>`.
pub fn word_count_graph() -> WorkflowGraph {
    let mut g = WorkflowGraph::new("wordcount_wf");
    let src = g.add(ProducerPE::new("Sentences", |i| {
        Some(Data::from(SENTENCES[(i as usize) % SENTENCES.len()]))
    }));
    let split = g.add(GenericPE::new(
        "Splitter",
        PortSpec::iterative(),
        |input: Option<(&str, Data)>, ctx: &mut Context<'_>| {
            if let Some((_, d)) = input {
                if let Some(s) = d.as_str() {
                    for w in s.split_whitespace() {
                        ctx.write(Data::record([("word", Data::from(w))]));
                    }
                }
            }
        },
    ));
    let count = g.add(StatefulPE::new(
        "WordCounter",
        BTreeMap::<String, i64>::new(),
        |state: &mut BTreeMap<String, i64>, d: Data, ctx: &mut Context<'_>| {
            if let Some(w) = d.get("word").and_then(Data::as_str) {
                let c = state.entry(w.to_string()).or_insert(0);
                *c += 1;
                ctx.write(Data::from(format!("{w} {c}")));
            }
        },
    ));
    let sink = g.add(ConsumerPE::new("PrintCount", |d: Data, ctx: &mut Context<'_>| {
        ctx.log(d.to_string());
    }));
    g.connect(src, OUTPUT, split, INPUT).expect("ports exist");
    g.connect_grouped(split, OUTPUT, count, INPUT, Grouping::GroupBy("word".into()))
        .expect("ports exist");
    g.connect(count, OUTPUT, sink, INPUT).expect("ports exist");
    g
}

/// Anomaly-detection workflow (the Fig. 8 registry content): a sensor
/// producer emits temperature records; NormalizeData converts to Celsius;
/// AnomalyDetection flags out-of-band values; Alerting logs them.
pub fn anomaly_graph(threshold: f64) -> WorkflowGraph {
    let mut g = WorkflowGraph::new("anomaly_wf");
    let src = g.add(ProducerPE::new("SensorReadings", |i| {
        // Mostly benign readings with occasional spikes.
        let base = 290.0 + (pseudo_random(i, 100) as f64) / 10.0;
        let spike = if pseudo_random(i, 10) == 1 { 60.0 } else { 0.0 };
        Some(Data::record([
            ("sensor", Data::from(format!("s{}", i % 4))),
            ("kelvin", Data::from(base + spike)),
        ]))
    }));
    let norm = g.add(IterativePE::new("NormalizeData", |d: Data| {
        let k = d.get("kelvin")?.as_float()?;
        let sensor = d.get("sensor")?.clone();
        Some(Data::record([
            ("sensor", sensor),
            ("celsius", Data::from(k - 273.15)),
        ]))
    }));
    let detect = g.add(IterativePE::new("AnomalyDetection", move |d: Data| {
        let c = d.get("celsius")?.as_float()?;
        if c > threshold {
            Some(d)
        } else {
            None
        }
    }));
    let alert = g.add(ConsumerPE::new("Alerting", |d: Data, ctx: &mut Context<'_>| {
        ctx.log(format!("ALERT anomaly detected: {d}"));
    }));
    g.connect(src, OUTPUT, norm, INPUT).expect("ports exist");
    g.connect(norm, OUTPUT, detect, INPUT).expect("ports exist");
    g.connect(detect, OUTPUT, alert, INPUT).expect("ports exist");
    g
}

/// CPU-bound pipeline for the mapping benches (E10): the per-item cost is
/// `work` rounds of trial division, and the cost is *skewed* (items keyed
/// `i % 7 == 0` are 8× heavier) so dynamic allocation has an edge.
pub fn cpu_bound_graph(work: u64, skewed: bool) -> WorkflowGraph {
    let mut g = WorkflowGraph::new("cpu_wf");
    let src = g.add(ProducerPE::new("Feed", move |i| Some(Data::from(i as i64))));
    let crunch = g.add(IterativePE::new("Crunch", move |d: Data| {
        let i = d.as_int().unwrap_or(0) as u64;
        let rounds = if skewed && i.is_multiple_of(7) { work * 8 } else { work };
        let mut primes = 0i64;
        for n in 0..rounds {
            if is_prime((1000 + n) as i64) {
                primes += 1;
            }
        }
        Some(Data::from(primes))
    }));
    let sink = g.add(ConsumerPE::new("Collect", |d: Data, ctx: &mut Context<'_>| {
        ctx.log(format!("{d}"));
    }));
    g.connect(src, OUTPUT, crunch, INPUT).expect("ports exist");
    g.connect(crunch, OUTPUT, sink, INPUT).expect("ports exist");
    g
}

/// Terminal-aggregation workflow: producer(0..n) → per-rank partial sums
/// (flushed at end-of-stream) → AllToOne global combiner → printer.
/// The classic two-level streaming aggregation tree; exercises the
/// teardown-emission path on every mapping.
pub fn aggregate_sum_graph() -> WorkflowGraph {
    let mut g = WorkflowGraph::new("aggregate_wf");
    let src = g.add(ProducerPE::new("Feed", |i| Some(Data::from(i as i64))));
    let partial = g.add(AggregatePE::new(
        "PartialSum",
        0i64,
        |acc: &mut i64, d: Data| *acc += d.as_int().unwrap_or(0),
        |acc: &i64| Some(Data::from(*acc)),
    ));
    let combine = g.add(AggregatePE::new(
        "GlobalSum",
        0i64,
        |acc: &mut i64, d: Data| *acc += d.as_int().unwrap_or(0),
        |acc: &i64| Some(Data::from(*acc)),
    ));
    let sink = g.add(ConsumerPE::new("PrintSum", |d: Data, ctx: &mut Context<'_>| {
        ctx.log(format!("sum {d}"));
    }));
    g.connect(src, OUTPUT, partial, INPUT).expect("ports exist");
    g.connect_grouped(partial, OUTPUT, combine, INPUT, Grouping::AllToOne)
        .expect("ports exist");
    g.connect(combine, OUTPUT, sink, INPUT).expect("ports exist");
    g
}

/// Latency-bound pipeline for the mapping benches on few-core machines:
/// each item waits `delay_us` microseconds (an I/O-ish PE — network call,
/// disk read); parallel mappings overlap the waits. `skewed` makes items
/// with `i % 7 == 0` eight times slower.
pub fn latency_bound_graph(delay_us: u64, skewed: bool) -> WorkflowGraph {
    let mut g = WorkflowGraph::new("latency_wf");
    let src = g.add(ProducerPE::new("Feed", move |i| Some(Data::from(i as i64))));
    let wait = g.add(IterativePE::new("Wait", move |d: Data| {
        let i = d.as_int().unwrap_or(0) as u64;
        let us = if skewed && i.is_multiple_of(7) { delay_us * 8 } else { delay_us };
        std::thread::sleep(std::time::Duration::from_micros(us));
        Some(d)
    }));
    let sink = g.add(ConsumerPE::new("Collect", |d: Data, ctx: &mut Context<'_>| {
        ctx.log(format!("{d}"));
    }));
    g.connect(src, OUTPUT, wait, INPUT).expect("ports exist");
    g.connect(wait, OUTPUT, sink, INPUT).expect("ports exist");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{run, Mapping, RunInput};

    #[test]
    fn pseudo_random_is_deterministic_and_in_range() {
        for i in 0..1000 {
            let v = pseudo_random(i, 1000);
            assert!((1..=1000).contains(&v));
            assert_eq!(v, pseudo_random(i, 1000));
        }
        // Spread: at least 500 distinct values over 1000 draws.
        let distinct: std::collections::HashSet<u64> =
            (0..1000).map(|i| pseudo_random(i, 1000)).collect();
        assert!(distinct.len() > 500);
    }

    #[test]
    fn is_prime_basics() {
        assert!(!is_prime(0));
        assert!(!is_prime(1));
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(4));
        assert!(is_prime(751)); // Fig. 5b's example prime
        assert!(!is_prime(1000));
    }

    #[test]
    fn isprime_graph_output_format_matches_fig5b() {
        let r = run(&isprime_graph(), RunInput::Iterations(50), &Mapping::Simple).unwrap();
        assert!(!r.lines().is_empty());
        let line = &r.lines()[0];
        assert!(line.starts_with("the num {'input': "), "{line}");
        assert!(line.ends_with("} is prime"), "{line}");
    }

    #[test]
    fn anomaly_graph_only_flags_above_threshold() {
        let r = run(&anomaly_graph(50.0), RunInput::Iterations(100), &Mapping::Simple).unwrap();
        assert!(!r.lines().is_empty(), "spikes must occur in 100 draws");
        for line in r.lines() {
            assert!(line.starts_with("ALERT"), "{line}");
        }
        // Higher threshold → fewer (or equal) alerts.
        let strict = run(&anomaly_graph(80.0), RunInput::Iterations(100), &Mapping::Simple).unwrap();
        assert!(strict.lines().len() <= r.lines().len());
    }

    #[test]
    fn word_count_accumulates_per_word() {
        let r = run(&word_count_graph(), RunInput::Iterations(6), &Mapping::Simple).unwrap();
        let stream_counts: Vec<&String> = r
            .lines()
            .iter()
            .filter(|l| l.starts_with("stream "))
            .collect();
        assert!(stream_counts.len() >= 3, "{:?}", r.lines());
        // Counts must be monotonically increasing for one word.
        let values: Vec<i64> = stream_counts
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        for w in values.windows(2) {
            assert!(w[1] > w[0], "{values:?}");
        }
    }

    #[test]
    fn aggregate_sum_exact_on_static_mappings() {
        // 0+1+…+49 = 1225. Sequential and multi mappings must produce the
        // exact global sum as a single line.
        for mapping in [Mapping::Simple, Mapping::Multi { processes: 8 }] {
            let r = run(&aggregate_sum_graph(), RunInput::Iterations(50), &mapping).unwrap();
            assert_eq!(r.lines(), &["sum 1225"], "{:?}", r.counts);
        }
    }

    #[test]
    fn aggregate_sum_dynamic_partials_conserve_total() {
        // The dynamic mapping keeps per-worker state (the real Redis
        // mapping's restriction): each worker flushes its own partial at
        // teardown, so the *sum of the printed partials* is conserved.
        let r = run(
            &aggregate_sum_graph(),
            RunInput::Iterations(50),
            &Mapping::Dynamic(crate::mapping::DynamicConfig {
                initial_workers: 3,
                max_workers: 3,
            }),
        )
        .unwrap();
        let total: i64 = r
            .lines()
            .iter()
            .map(|l| l.strip_prefix("sum ").unwrap().parse::<i64>().unwrap())
            .sum();
        assert_eq!(total, 1225, "{:?}", r.lines());
    }

    #[test]
    fn cpu_bound_graph_runs_on_all_mappings() {
        for m in [
            Mapping::Simple,
            Mapping::Multi { processes: 4 },
            Mapping::Dynamic(crate::mapping::DynamicConfig::default()),
        ] {
            let r = run(&cpu_bound_graph(10, true), RunInput::Iterations(10), &m).unwrap();
            assert_eq!(r.lines().len(), 10);
        }
    }
}
