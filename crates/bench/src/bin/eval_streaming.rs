//! E8 — the §IV-E true-streaming claim: time-to-first-output (TTFO) and
//! total latency for the HTTP/1.1-style batch path (Laminar 1.0) vs the
//! HTTP/2-style streaming path (Laminar 2.0), as a function of stream
//! length.
//!
//! Batch is the engine's batch mode and streaming its streaming mode; the
//! `Run` request's `streaming` flag is the only switch.
//!
//! Expected shape: streaming TTFO stays ≈ one item's processing cost
//! regardless of stream length; batch TTFO grows with the whole run.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin eval_streaming
//! ```

use laminar_bench::SlowRuns;

fn main() {
    let runs = SlowRuns::deploy();
    println!("# §IV-E — batch (HTTP/1.1, Laminar 1.0) vs streaming (HTTP/2, Laminar 2.0)\n");
    println!(
        "{:>6}  {:>14}  {:>14}  {:>13}  {:>13}  {:>8}",
        "items", "batch TTFO ms", "stream TTFO ms", "batch total", "stream total", "speedup"
    );

    for items in [5u64, 10, 20, 40] {
        let (b_ttfo, b_total) = runs.time_run(items, false);
        let (s_ttfo, s_total) = runs.time_run(items, true);
        println!(
            "{:>6}  {:>14.1}  {:>14.1}  {:>13.1}  {:>13.1}  {:>7.1}x",
            items,
            b_ttfo.as_secs_f64() * 1e3,
            s_ttfo.as_secs_f64() * 1e3,
            b_total.as_secs_f64() * 1e3,
            s_total.as_secs_f64() * 1e3,
            b_ttfo.as_secs_f64() / s_ttfo.as_secs_f64().max(1e-9),
        );
    }
    println!(
        "\nshape check: streaming TTFO must stay flat while batch TTFO grows with the stream."
    );
}
