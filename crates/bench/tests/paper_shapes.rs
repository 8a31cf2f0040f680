//! The paper's shapes as executable gates. Every timing bound is
//! relative, so a busy host slows both sides of a comparison and does not
//! flip it; each timing is the best of three runs, so one stall does not
//! either. Byte counts are compared exactly.

use laminar_bench::{resource_bytes, SlowRuns, N_RESOURCES, RESOURCE_SIZE};
use std::time::Duration;

/// The best of three timings of `run`.
fn best_of_three(run: impl Fn() -> Duration) -> Duration {
    (0..3).map(|_| run()).min().expect("three runs")
}

/// E8 (§IV-E): streaming TTFO stays flat while batch TTFO grows with the
/// stream. Only the `Run` request's `streaming` flag changes.
#[test]
fn e8_streaming_ttfo_stays_flat_while_batch_ttfo_grows_with_the_stream() {
    let runs = SlowRuns::deploy();
    let ttfo = |items, streaming| best_of_three(|| runs.time_run(items, streaming).0);
    let batch_5 = ttfo(5, false);
    let batch_20 = ttfo(20, false);
    let stream_20 = ttfo(20, true);
    assert!(
        stream_20 * 4 < batch_20,
        "streaming TTFO {stream_20:?} at 20 items is not under a quarter of batch TTFO {batch_20:?}"
    );
    assert!(
        batch_20.as_secs_f64() > 2.5 * batch_5.as_secs_f64(),
        "batch TTFO {batch_20:?} at 20 items is not 2.5x its {batch_5:?} at 5 items"
    );
}

/// E9 (§IV-F): the cached path receives each resource once, however many
/// runs need it, while the inline path receives every resource on every
/// run. Both are byte counts, so the gate is exact.
#[test]
fn e9_cached_bytes_stay_flat_while_inline_bytes_grow_with_runs() {
    let once = (N_RESOURCES * RESOURCE_SIZE) as u64;
    for runs in [1, 5] {
        let (v1_bytes, v2_bytes) = resource_bytes(runs);
        assert_eq!(v2_bytes, once, "cached bytes after {runs} runs");
        assert_eq!(
            v1_bytes,
            runs as u64 * v2_bytes,
            "inline bytes after {runs} runs"
        );
    }
}
