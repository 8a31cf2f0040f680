//! Workflow-scope recommendation aggregation.
//!
//! Only PEs are indexed for recommendation (the served
//! [`aroma::AromaEngine`] lives in [`SearchIndexes`]): workflow-scope
//! recommendations aggregate PE hits over workflow membership (Fig. 9
//! bottom), they never run the pipeline against workflow code. That
//! aggregation is [`sweep_workflows`] — the inverted-map sweep that
//! replaced the old O(workflows × hits × pe_ids) `contains` scan.
//!
//! [`SearchIndexes`]: crate::indexes::SearchIndexes

use std::collections::HashMap;

/// Workflow-scope aggregation (Fig. 9 bottom): rank workflows by the
/// summed scores of their matching member PEs. Inverts `pe_hits` into a
/// hash map once, then sweeps each workflow's member list with O(1)
/// lookups — O(hits + Σ|pe_ids|) instead of the old
/// O(workflows × hits × pe_ids) nested `contains` scan. A member id
/// listed twice still counts once, exactly like the scan it replaced.
///
/// Returns `(workflow_id, summed_score, occurrences)` for every workflow
/// with at least one matching member, sorted score-descending with ties
/// broken by ascending id.
pub fn sweep_workflows<'a>(
    pe_hits: &[(u64, f32)],
    workflows: impl IntoIterator<Item = (u64, &'a [u64])>,
) -> Vec<(u64, f32, usize)> {
    // The map carries each hit's rank position so the per-workflow sum
    // runs in hit order — float addition isn't associative, and bit
    // identity with the scan this replaced is part of the contract.
    let by_id: HashMap<u64, (usize, f32)> = pe_hits
        .iter()
        .enumerate()
        .map(|(pos, &(id, score))| (id, (pos, score)))
        .collect();
    let mut out: Vec<(u64, f32, usize)> = workflows
        .into_iter()
        .filter_map(|(wf_id, pe_ids)| {
            let mut matched: Vec<(usize, f32)> = Vec::new();
            for id in pe_ids {
                if let Some(&(pos, s)) = by_id.get(id) {
                    if !matched.iter().any(|&(p, _)| p == pos) {
                        matched.push((pos, s));
                    }
                }
            }
            if matched.is_empty() {
                return None;
            }
            matched.sort_unstable_by_key(|&(pos, _)| pos);
            let score = matched.iter().map(|&(_, s)| s).sum();
            Some((wf_id, score, matched.len()))
        })
        .collect();
    out.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-inversion aggregation, verbatim from the old server sweep.
    fn naive_sweep<'a>(
        pe_hits: &[(u64, f32)],
        workflows: impl IntoIterator<Item = (u64, &'a [u64])>,
    ) -> Vec<(u64, f32, usize)> {
        let mut out: Vec<(u64, f32, usize)> = workflows
            .into_iter()
            .filter_map(|(wf_id, pe_ids)| {
                let matching: Vec<&(u64, f32)> = pe_hits
                    .iter()
                    .filter(|(id, _)| pe_ids.contains(id))
                    .collect();
                if matching.is_empty() {
                    return None;
                }
                Some((wf_id, matching.iter().map(|(_, s)| s).sum(), matching.len()))
            })
            .collect();
        out.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }

    #[test]
    fn inverted_sweep_matches_naive_contains_scan() {
        // Deterministic synthetic membership: workflow w holds members
        // {w, w+1, … w+4} mod 40; hits cover every third PE id.
        let memberships: Vec<(u64, Vec<u64>)> = (0..50u64)
            .map(|w| (w + 1000, (0..5).map(|m| (w + m) % 40).collect()))
            .collect();
        let pe_hits: Vec<(u64, f32)> = (0..40u64)
            .filter(|id| id % 3 == 0)
            .map(|id| (id, 6.0 + id as f32 * 0.25))
            .collect();
        let wfs = || memberships.iter().map(|(id, pes)| (*id, pes.as_slice()));
        let fast = sweep_workflows(&pe_hits, wfs());
        let naive = naive_sweep(&pe_hits, wfs());
        assert_eq!(fast.len(), naive.len());
        for (f, n) in fast.iter().zip(&naive) {
            assert_eq!(f.0, n.0);
            assert_eq!(f.1.to_bits(), n.1.to_bits(), "wf {}", f.0);
            assert_eq!(f.2, n.2);
        }
        assert!(!fast.is_empty());
    }

    #[test]
    fn sweep_counts_duplicate_members_once() {
        let pe_hits = [(7u64, 6.5f32)];
        let members: &[u64] = &[7, 7, 9];
        let out = sweep_workflows(&pe_hits, [(1u64, members)]);
        assert_eq!(out, vec![(1, 6.5, 1)]);
    }

    #[test]
    fn sweep_skips_workflows_without_matches() {
        let pe_hits = [(1u64, 8.0f32), (2, 7.0)];
        let a: &[u64] = &[1, 2];
        let b: &[u64] = &[3];
        let out = sweep_workflows(&pe_hits, [(10u64, a), (11, b)]);
        assert_eq!(out, vec![(10, 15.0, 2)]);
    }
}
