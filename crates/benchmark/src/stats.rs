//! Order statistics over what the clients observed.
//!
//! A failed request has no latency, and ranks above every request that
//! has one: a percentile is taken over the requests *attempted*, so a
//! system that fails its slow requests cannot look faster for it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const BEYOND: usize = 10;

/// One finished request as a client thread saw it. Times are seconds
/// since the measured phase began.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub done_at: f64,
    /// Send → final frame decoded; `None` when the request failed.
    pub latency: Option<f64>,
    /// Send → first payload frame; equals `latency` for unary replies.
    pub first_output: Option<f64>,
}

/// The `q`-quantile (0 < q < 1) by nearest rank over `attempted`
/// requests, of which only `sorted` (ascending) succeeded. `None` when
/// the rank falls among the failures or nothing was attempted.
pub fn percentile(sorted: &[f64], attempted: usize, q: f64) -> Option<f64> {
    if attempted == 0 {
        return None;
    }
    let rank = ((attempted as f64 * q).ceil() as usize).clamp(1, attempted);
    sorted.get(rank - 1).copied()
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 that still has
/// [`BEYOND`] of `n` samples above it.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // Per mille, so the count beyond is exact integer arithmetic.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= BEYOND)
        .map(|per_mille| per_mille as f64 / 1000.0)
}

fn sorted_latencies(samples: &[Sample], pick: fn(&Sample) -> Option<f64>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().filter_map(pick).collect();
    v.sort_by(f64::total_cmp);
    v
}

pub fn latency_percentile(samples: &[Sample], q: f64) -> Option<f64> {
    percentile(&sorted_latencies(samples, |s| s.latency), samples.len(), q)
}

pub fn first_output_percentile(samples: &[Sample], q: f64) -> Option<f64> {
    percentile(
        &sorted_latencies(samples, |s| s.first_output),
        samples.len(),
        q,
    )
}

/// How a tail latency was arrived at, most trustworthy first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailBasis {
    /// Median of the p95s of five consecutive fifths of the run, each
    /// fifth holding [`BEYOND`] samples beyond its p95.
    Fifths,
    /// p95 of the whole run: the fifths were too short.
    Pooled,
    /// The slowest request: even the whole run was too short for a p95.
    Max,
}

impl TailBasis {
    pub fn name(self) -> &'static str {
        match self {
            TailBasis::Fifths => "fifths",
            TailBasis::Pooled => "pooled",
            TailBasis::Max => "max",
        }
    }
}

/// p95 that one burst cannot move: `samples` in completion order are cut
/// into five consecutive fifths and the median of their p95s is taken.
/// Shorter runs fall back as [`TailBasis`] describes. `None` when the
/// chosen rank falls among failures.
pub fn tail_p95(samples: &[Sample]) -> Option<(f64, TailBasis)> {
    const Q: f64 = 0.95;
    let fifth = samples.len() / 5;
    if fifth / 20 >= BEYOND {
        let mut p95s = Vec::with_capacity(5);
        for chunk in samples.chunks_exact(fifth).take(5) {
            p95s.push(latency_percentile(chunk, Q)?);
        }
        p95s.sort_by(f64::total_cmp);
        return Some((p95s[2], TailBasis::Fifths));
    }
    if samples.len() / 20 >= BEYOND {
        return latency_percentile(samples, Q).map(|v| (v, TailBasis::Pooled));
    }
    if samples.iter().any(|s| s.latency.is_none()) {
        return None;
    }
    sorted_latencies(samples, |s| s.latency)
        .last()
        .map(|&v| (v, TailBasis::Max))
}

pub fn failed(samples: &[Sample]) -> usize {
    samples.iter().filter(|s| s.latency.is_none()).count()
}

/// Failures over attempts; a run that attempted nothing failed entirely.
pub fn failed_share(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        failed(samples) as f64 / samples.len() as f64
    }
}

/// The longest stretch of the measured phase `[0, duration]` in which no
/// request completed on any thread. A closed loop hides a stall from its
/// latency percentiles (nothing is sent while it lasts); this shows it.
pub fn longest_gap(samples: &[Sample], duration: f64) -> f64 {
    let mut times: Vec<f64> = samples.iter().map(|s| s.done_at).collect();
    times.push(0.0);
    times.push(duration);
    times.sort_by(f64::total_cmp);
    times.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max)
}

pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(done_at: f64, latency: f64) -> Sample {
        Sample {
            done_at,
            latency: Some(latency),
            first_output: Some(latency / 2.0),
        }
    }

    fn fail(done_at: f64) -> Sample {
        Sample {
            done_at,
            latency: None,
            first_output: None,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 100, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 100, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 100, 0.999), Some(100.0));
        assert_eq!(percentile(&[], 0, 0.5), None);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.90));
        assert_eq!(highest_percentile(199), Some(0.90));
        assert_eq!(highest_percentile(200), Some(0.95));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
    }

    #[test]
    fn failures_rank_above_every_latency() {
        // 90 fast successes and 10 failures: p50 is finite, p95 is not.
        let mut samples: Vec<Sample> = (0..90).map(|i| ok(i as f64, 1.0)).collect();
        samples.extend((90..100).map(|i| fail(i as f64)));
        assert_eq!(failed(&samples), 10);
        assert!((failed_share(&samples) - 0.10).abs() < 1e-12);
        assert_eq!(latency_percentile(&samples, 0.5), Some(1.0));
        assert_eq!(latency_percentile(&samples, 0.90), Some(1.0));
        assert_eq!(latency_percentile(&samples, 0.95), None);
        assert_eq!(first_output_percentile(&samples, 0.5), Some(0.5));
        assert_eq!(failed_share(&[]), 1.0);
    }

    #[test]
    fn tail_is_the_median_of_the_fifths_so_one_burst_cannot_move_it() {
        // 1000 requests at 1 ms; the second fifth holds a burst of forty
        // 50 ms requests, enough to own that fifth's p95 and the pooled
        // p96 but not the median of the five.
        let mut samples: Vec<Sample> = (0..1000).map(|i| ok(i as f64, 1.0)).collect();
        for s in &mut samples[210..250] {
            s.latency = Some(50.0);
        }
        assert_eq!(tail_p95(&samples), Some((1.0, TailBasis::Fifths)));
        assert_eq!(latency_percentile(&samples[200..400], 0.95), Some(50.0));
        assert_eq!(latency_percentile(&samples, 0.97), Some(50.0));
    }

    #[test]
    fn tail_falls_back_when_the_run_is_short() {
        let pooled: Vec<Sample> = (0..300).map(|i| ok(i as f64, i as f64)).collect();
        assert_eq!(tail_p95(&pooled), Some((284.0, TailBasis::Pooled)));
        let short: Vec<Sample> = (0..50).map(|i| ok(i as f64, i as f64)).collect();
        assert_eq!(tail_p95(&short), Some((49.0, TailBasis::Max)));
        let mut failing = short.clone();
        failing.push(fail(50.0));
        assert_eq!(tail_p95(&failing), None);
        assert_eq!(tail_p95(&[]), None);
    }

    #[test]
    fn longest_gap_spans_threads_and_both_ends() {
        // Completions at 1, 2, 7 and 8 s of a 10 s phase: the stall is
        // the 5 s in the middle, not the 2 s at the end.
        let samples = [ok(7.0, 0.1), ok(1.0, 0.1), ok(8.0, 0.1), ok(2.0, 0.1)];
        assert!((longest_gap(&samples, 10.0) - 5.0).abs() < 1e-12);
        assert!((longest_gap(&samples[..1], 10.0) - 7.0).abs() < 1e-12);
        assert!((longest_gap(&[], 10.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }
}
