//! E10 — the mapping comparison (§II-A, Fig. 5b): sequential vs
//! multiprocessing (static) vs dynamic (Redis-style) enactment, on uniform
//! and skewed workloads.
//!
//! Two workload classes:
//! * **latency-bound** (I/O-ish PEs — the common dispel4py case): parallel
//!   mappings overlap the per-item waits, so they win even on one core;
//! * **cpu-bound** (trial division): wins require real cores, so this half
//!   is informative only on multi-core machines (the shape note says which
//!   applies).
//!
//! Expected shape: parallel ≪ sequential on latency-bound work; the
//! dynamic mapping matches or beats the static partition on the *skewed*
//! variant, where fixed ranks sit idle. `tests/paper_shapes.rs` gates the
//! latency-bound half.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin eval_mappings
//! ```

use d4py::workflows::cpu_bound_graph;
use laminar_bench::{latency_workload, mappings, time_mapping, MAPPING_ITEMS, MAPPING_PROCESSES};

const CPU_WORK: u64 = 800;

fn row(label: &str, graph_of: impl Fn() -> d4py::WorkflowGraph) {
    let [seq, multi, dynamic] = mappings().map(|m| time_mapping(&graph_of(), &m));
    println!(
        "{:<22} {:>14.1} {:>14.1} {:>14.1}   {:>5.1}x / {:>4.1}x",
        label,
        seq.as_secs_f64() * 1e3,
        multi.as_secs_f64() * 1e3,
        dynamic.as_secs_f64() * 1e3,
        seq.as_secs_f64() / multi.as_secs_f64().max(1e-9),
        seq.as_secs_f64() / dynamic.as_secs_f64().max(1e-9),
    );
}

fn main() {
    println!(
        "# Mapping comparison — {MAPPING_ITEMS} items, {MAPPING_PROCESSES} processes/workers, {} cores\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    println!(
        "{:<22} {:>14} {:>14} {:>14}   speedups",
        "workload", "sequential ms", "multi ms", "dynamic ms"
    );
    row("latency uniform", || latency_workload(false));
    row("latency skewed", || latency_workload(true));
    row("cpu uniform", || cpu_bound_graph(CPU_WORK, false));
    row("cpu skewed", || cpu_bound_graph(CPU_WORK, true));

    // Fig. 5b's partition print-out.
    let g = d4py::workflows::isprime_graph();
    let partition = g.partition(9).expect("partition");
    let names: Vec<String> = g
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            format!(
                "'{}{}': range({}, {})",
                n.name, i, partition[i].start, partition[i].end
            )
        })
        .collect();
    println!("\n# Fig. 5b rank partition for `run 169 -i 10 --multi -v` (9 processes)");
    println!("{{{}}}", names.join(", "));

    println!("\nshape check: latency-bound parallel speedups ≈ worker count; cpu-bound speedups require ≥ that many physical cores.");
}
