//! Code completion from structural recommendations.
//!
//! The paper presents Laminar as offering "context-aware code completions"
//! (§III, §V): the developer has typed the beginning of a PE; the system
//! finds the most structurally-similar registered PE and suggests the part
//! the developer has *not yet typed*. This module derives that suggestion:
//! the candidate's statement granules whose features the snippet does not
//! already cover, in source order.

use crate::prune::{granulated_vec, statement_granules, Granule};
use spt::FeatureVec;

/// A completion suggestion derived from one candidate PE.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Statements the snippet does not cover yet, in source order.
    pub lines: Vec<String>,
    /// Fraction of the candidate already covered by the snippet (how far
    /// along the developer is).
    pub progress: f32,
}

/// How much of a granule must be covered by the snippet for it to count
/// as "already typed".
const COVERED_THRESHOLD: f32 = 0.6;

/// Complete `snippet` using `candidate_code`: return the candidate's
/// statements that the snippet has not typed yet.
pub fn complete_from(snippet: &str, candidate_code: &str) -> Completion {
    complete_with(
        &granulated_vec(snippet),
        &statement_granules(candidate_code),
    )
}

/// [`complete_from`] for a snippet already featurised in granule form and
/// a candidate already cut into its statement granules.
pub fn complete_with(snippet_vec: &FeatureVec, granules: &[Granule]) -> Completion {
    if granules.is_empty() {
        return Completion {
            lines: Vec::new(),
            progress: 0.0,
        };
    }
    let mut lines = Vec::new();
    let mut covered = 0usize;
    for (text, vec) in granules {
        if is_covered(vec, snippet_vec) {
            covered += 1;
        } else {
            lines.push(text.clone());
        }
    }
    Completion {
        progress: covered as f32 / granules.len() as f32,
        lines,
    }
}

fn is_covered(granule: &FeatureVec, snippet: &FeatureVec) -> bool {
    if granule.is_empty() {
        return true;
    }
    granule.containment_in(snippet) >= COVERED_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUM_PE: &str = "\
class SumPE(IterativePE):
    def _process(self, data):
        total = 0
        for item in data:
            total += item
        return total
";

    #[test]
    fn completes_the_untyped_remainder() {
        let snippet = "class SumPE(IterativePE):\n    def _process(self, data):\n        total = 0\n        for item in data:\n";
        let c = complete_from(snippet, SUM_PE);
        let joined = c.lines.join("\n");
        assert!(joined.contains("total += item"), "{joined}");
        assert!(joined.contains("return total"), "{joined}");
        // Already-typed statements are not suggested again.
        assert!(!joined.contains("total = 0"), "{joined}");
        assert!(c.progress > 0.3, "progress {}", c.progress);
    }

    #[test]
    fn full_snippet_needs_nothing() {
        let c = complete_from(SUM_PE, SUM_PE);
        assert!(c.lines.is_empty(), "{:?}", c.lines);
        assert!((c.progress - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_snippet_suggests_everything() {
        let c = complete_from("", SUM_PE);
        assert!(!c.lines.is_empty());
        assert_eq!(c.progress, 0.0);
        assert!(c.lines[0].contains("class SumPE") || c.lines[0].contains("def _process"));
    }

    #[test]
    fn empty_candidate_is_harmless() {
        let c = complete_from("x = 1\n", "");
        assert!(c.lines.is_empty());
        assert_eq!(c.progress, 0.0);
    }

    #[test]
    fn renamed_snippet_still_matches_structure() {
        // The developer used different names; structural coverage should
        // still recognise the typed part.
        let snippet = "class MyPE(IterativePE):\n    def _process(self, xs):\n        acc = 0\n        for v in xs:\n";
        let c = complete_from(snippet, SUM_PE);
        let joined = c.lines.join("\n");
        assert!(joined.contains("return"), "{joined}");
        assert!(c.progress > 0.0);
    }
}
