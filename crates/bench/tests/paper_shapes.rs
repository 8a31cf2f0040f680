//! The paper's shapes as executable gates. Every timing bound is
//! relative, so a busy host slows both sides of a comparison and does not
//! flip it; each timing is the best of three runs, so one stall does not
//! either. Byte counts are compared exactly. Retrieval shapes run on
//! every seed of `SHAPE_SEEDS` with margins fixed in advance, and
//! print their per-seed numbers. The code-to-code shapes (Fig. 12/13,
//! E12, E15) are scored leave-one-out, under the margins they had when
//! the query's own PE still counted:
//!
//! ```text
//! cargo test -p laminar-bench --release --test paper_shapes -- --nocapture
//! ```

use csn::{best_f1, Dataset};
use embed::DescriptionContext;
use laminar_bench::{
    code_to_code_eval, description_quality, feature_families_eval, full_aroma_eval,
    latency_workload, mappings, resource_bytes, shape_corpus, text_to_code_eval, time_mapping,
    CodeRetriever, FeatureFamilies, SlowRuns, MAX_K, N_RESOURCES, OMISSION_LEVELS, RESOURCE_SIZE,
    SHAPE_SEEDS,
};
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

/// E10 (§II-A, Fig. 5b) on the latency-bound workload: the parallel
/// mappings overlap the per-item waits, so multi and dynamic each run the
/// uniform workload at least twice as fast as sequential enactment, and
/// on the skewed one, where static ranks sit idle, dynamic is no slower
/// than multi. Sleeps dominate, so this holds on one core too.
#[test]
fn e10_parallel_mappings_overlap_waits_and_dynamic_absorbs_skew() {
    let [seq, multi, dynamic] = mappings();
    let time = |skewed, mapping| best_of_three(|| time_mapping(&latency_workload(skewed), mapping));
    let (seq_u, multi_u, dynamic_u) = (
        time(false, &seq),
        time(false, &multi),
        time(false, &dynamic),
    );
    let (multi_s, dynamic_s) = (time(true, &multi), time(true, &dynamic));
    println!(
        "uniform: sequential {seq_u:?}, multi {multi_u:?}, dynamic {dynamic_u:?}; skewed: multi {multi_s:?}, dynamic {dynamic_s:?}"
    );
    for (name, parallel) in [("multi", multi_u), ("dynamic", dynamic_u)] {
        assert!(
            parallel * 2 <= seq_u,
            "{name} {parallel:?} is not 2x faster than sequential {seq_u:?} on the uniform workload"
        );
    }
    assert!(
        dynamic_s <= multi_s,
        "dynamic {dynamic_s:?} is slower than multi {multi_s:?} on the skewed workload"
    );
}

/// Fig. 11 (E2, §VII-C) on every seed of [`SHAPE_SEEDS`]: the single-peak
/// precision-recall trade-off. Recall never falls as k grows, precision at
/// k = 1 is above precision at [`MAX_K`], and the best F1 lies strictly
/// between the two ends.
#[test]
fn e2_text_to_code_f1_peaks_between_the_ends() {
    for seed in SHAPE_SEEDS {
        let curve = text_to_code_eval(&shape_corpus(seed), DescriptionContext::FullClass);
        let (f1, k) = best_f1(&curve);
        let (first, last) = (&curve[0], &curve[MAX_K - 1]);
        println!(
            "seed {seed}: best F1 {f1:.4} at k = {k}, precision {:.4} at k = 1 and {:.4} at k = {MAX_K}",
            first.precision, last.precision
        );
        for w in curve.windows(2) {
            assert!(
                w[1].recall >= w[0].recall,
                "seed {seed}: recall falls from {:.4} at k = {} to {:.4}",
                w[0].recall,
                w[0].k,
                w[1].recall
            );
        }
        assert!(
            first.precision > last.precision,
            "seed {seed}: precision {:.4} at k = 1 is not above {:.4} at k = {MAX_K}",
            first.precision,
            last.precision
        );
        assert!(
            1 < k && k < MAX_K,
            "seed {seed}: best F1 {f1:.4} is at an end, k = {k}"
        );
    }
}

/// Best F1 of `retriever` at each of [`OMISSION_LEVELS`].
fn f1_per_level(d: &Dataset, retriever: CodeRetriever) -> Vec<f64> {
    OMISSION_LEVELS
        .iter()
        .map(|&omission| code_to_code_eval(d, retriever, omission).best_f1())
        .collect()
}

/// The largest value and its index.
fn peak(f1s: &[f64]) -> (f64, usize) {
    f1s.iter().enumerate().fold(
        (f64::MIN, 0),
        |best, (i, &f)| if f > best.0 { (f, i) } else { best },
    )
}

/// How far Aroma's max F1 must clear ReACC's (the paper: 0.63 against
/// 0.24). Fixed before this test first ran.
const FIG12_13_MAX_F1_MARGIN: f64 = 0.15;

/// Fig. 12/13 (E3/E4, §VII-D) on every seed of [`SHAPE_SEEDS`]: Aroma's max
/// F1 is well above ReACC's, Aroma "performs better with partial
/// snippets" (its best level drops code), it beats ReACC with full code
/// and with half of it dropped, and at 90 % omission "both models
/// struggle" (each is below its own peak). At 75 % and 90 % the two are
/// close and either may lead, so no order is asserted there.
#[test]
fn fig12_13_aroma_peaks_on_partial_code_well_above_reacc() {
    let level = |omission: f64| OMISSION_LEVELS.iter().position(|&o| o == omission).unwrap();
    let (full, half, ninety) = (level(0.0), level(0.5), level(0.9));
    for seed in SHAPE_SEEDS {
        let d = shape_corpus(seed);
        let aroma = f1_per_level(&d, CodeRetriever::Aroma);
        let reacc = f1_per_level(&d, CodeRetriever::Reacc);
        println!("seed {seed}: Aroma {aroma:.4?}, ReACC {reacc:.4?} at {OMISSION_LEVELS:?}");
        let (aroma_max, aroma_at) = peak(&aroma);
        let (reacc_max, _) = peak(&reacc);
        assert!(
            aroma_max > reacc_max + FIG12_13_MAX_F1_MARGIN,
            "seed {seed}: Aroma max F1 {aroma_max:.4} is not {FIG12_13_MAX_F1_MARGIN} above ReACC's {reacc_max:.4}"
        );
        assert!(
            OMISSION_LEVELS[aroma_at] > 0.0,
            "seed {seed}: Aroma peaks on full code {aroma:.4?}"
        );
        for at in [full, half] {
            assert!(
                aroma[at] > reacc[at],
                "seed {seed}: at {} omission Aroma {:.4} does not beat ReACC {:.4}",
                OMISSION_LEVELS[at],
                aroma[at],
                reacc[at]
            );
        }
        assert!(
            aroma[ninety] < aroma_max && reacc[ninety] < reacc_max,
            "seed {seed}: a retriever is at its peak at 90 % omission: Aroma {aroma:.4?}, ReACC {reacc:.4?}"
        );
    }
}

/// How many times process-only's downstream search F1 the full-class
/// context must reach. Fixed before this test first ran.
const E13_F1_RATIO: f64 = 1.5;

/// E13 (Fig. 10 → Fig. 11) on every seed of [`SHAPE_SEEDS`]: describing a PE
/// from its full class instead of its `_process()` method alone raises
/// both the descriptions' keyword recall and the downstream text-to-code
/// search F1, the latter at least [`E13_F1_RATIO`] times.
#[test]
fn e13_full_class_descriptions_lift_downstream_search() {
    for seed in SHAPE_SEEDS {
        let d = shape_corpus(seed);
        let [(proc_recall, proc_f1), (full_recall, full_f1)] = [
            DescriptionContext::ProcessMethodOnly,
            DescriptionContext::FullClass,
        ]
        .map(|ctx| {
            (
                description_quality(&d, ctx),
                best_f1(&text_to_code_eval(&d, ctx)).0,
            )
        });
        println!(
            "seed {seed}: keyword recall {proc_recall:.4} -> {full_recall:.4}, search F1 {proc_f1:.4} -> {full_f1:.4}"
        );
        assert!(
            full_recall > proc_recall,
            "seed {seed}: full-class keyword recall {full_recall:.4} does not beat process-only {proc_recall:.4}"
        );
        assert!(
            full_f1 > E13_F1_RATIO * proc_f1,
            "seed {seed}: full-class search F1 {full_f1:.4} is not {E13_F1_RATIO}x process-only {proc_f1:.4}"
        );
    }
}

/// E12 (§VI-A) on every seed of [`SHAPE_SEEDS`]: the simplified overlap
/// search the server ships is at least as good as the full retrieve →
/// prune → rerank pipeline with full code and with half of it dropped.
/// At 75 % omission the full pipeline leads on 7 of the 8 seeds (by up to
/// 0.050 on seed 6), so no order is asserted there or at 90 %;
/// EXPERIMENTS.md records the per-seed numbers.
#[test]
fn e12_simplified_search_matches_the_full_pipeline_on_full_and_half_code() {
    for seed in SHAPE_SEEDS {
        let d = shape_corpus(seed);
        let simplified = f1_per_level(&d, CodeRetriever::Aroma);
        let full: Vec<f64> = OMISSION_LEVELS
            .iter()
            .map(|&omission| full_aroma_eval(&d, omission).best_f1())
            .collect();
        println!(
            "seed {seed}: simplified {simplified:.4?}, full pipeline {full:.4?} at {OMISSION_LEVELS:?}"
        );
        for (at, &omission) in OMISSION_LEVELS.iter().enumerate() {
            if omission <= 0.5 {
                assert!(
                    simplified[at] >= full[at],
                    "seed {seed}: at {omission} omission simplified {:.4} is below the full pipeline's {:.4}",
                    simplified[at],
                    full[at]
                );
            }
        }
    }
}

/// E15 on every seed of [`SHAPE_SEEDS`]: the variable-usage family alone is
/// the strongest single signal. At 0 % and 50 % omission it beats each
/// other family alone and all four together.
#[test]
fn e15_var_usage_is_the_strongest_feature_family() {
    let rivals = [
        ("token", FeatureFamilies::TOKEN),
        ("parent", FeatureFamilies::PARENT),
        ("sibling", FeatureFamilies::SIBLING),
        ("all four", FeatureFamilies::ALL),
    ];
    for seed in SHAPE_SEEDS {
        let d = shape_corpus(seed);
        for omission in [0.0, 0.5] {
            let f1 = |families| feature_families_eval(&d, families, omission).best_f1();
            let vu = f1(FeatureFamilies::VAR_USAGE);
            let rivals: Vec<(&str, f64)> = rivals
                .iter()
                .map(|&(name, families)| (name, f1(families)))
                .collect();
            println!("seed {seed} at {omission}: var-usage {vu:.4}, {rivals:.4?}");
            for (name, rival) in rivals {
                assert!(
                    vu > rival,
                    "seed {seed}: at {omission} omission var-usage only {vu:.4} does not beat {name} {rival:.4}"
                );
            }
        }
    }
}
