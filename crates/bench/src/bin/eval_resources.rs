//! E9 — the §IV-F resource-management claim: bytes on the wire for E
//! repeated executions of a workflow needing R resources, Laminar 1.0
//! (inline resend every run) vs Laminar 2.0 (content-hash cache +
//! multipart upload of missing files only). The 1.0 column is computed,
//! E×R×S bytes; the 2.0 column is what a served run receives.
//!
//! Expected shape: 2.0 transmits each resource once; 1.0 transmits
//! R×S bytes per execution, so the ratio grows linearly with E.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin eval_resources
//! ```

use laminar_bench::{resource_bytes, N_RESOURCES, RESOURCE_SIZE};

fn main() {
    println!("# §IV-F — resource transmission: Laminar 1.0 (inline) vs 2.0 (cached)\n");
    println!(
        "{:>6}  {:>16}  {:>16}  {:>8}",
        "runs", "1.0 bytes sent", "2.0 bytes sent", "ratio"
    );
    for executions in [1usize, 2, 5, 10, 20] {
        let (v1_bytes, v2_bytes) = resource_bytes(executions);
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
