//! Dense embedding vectors and batch ranking.
//!
//! Both model substitutes produce L2-normalised 256-dimensional vectors via
//! signed feature hashing (the classic "hashing trick"): each textual
//! feature hashes to a dimension and a sign, contributions accumulate, and
//! the result is normalised. Cosine similarity between normalised vectors
//! is a plain dot product.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::topk::{ScoredRow, TopK};

/// Embedding dimensionality (fixed across the workspace so embeddings can
/// be stored in the registry and compared later).
pub const DIM: usize = 256;

/// Fused dot product, unrolled into eight independent accumulator lanes so
/// the compiler can keep the reduction in vector registers (the serial
/// `zip().map().sum()` form creates a loop-carried dependency on a single
/// scalar accumulator, which blocks auto-vectorisation of the adds).
///
/// Inputs of unequal length score only the common prefix; `DIM`-strided
/// slab rows always hit the exact-chunk fast path.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut lanes = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..8 {
            lanes[i] += xa[i] * xb[i];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    let mut sum = tail;
    for lane in lanes {
        sum += lane;
    }
    sum
}

/// An L2-normalised dense vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseVec {
    pub values: Vec<f32>,
}

impl DenseVec {
    /// The zero vector (embedding of empty input).
    pub fn zero() -> Self {
        DenseVec {
            values: vec![0.0; DIM],
        }
    }

    /// Build from raw accumulated values, L2-normalising in place.
    pub fn normalised(mut values: Vec<f32>) -> Self {
        debug_assert_eq!(values.len(), DIM);
        let norm = values.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for v in &mut values {
                *v /= norm;
            }
        }
        DenseVec { values }
    }

    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0.0)
    }

    /// Cosine similarity (dot product — inputs are normalised).
    pub fn cosine(&self, other: &DenseVec) -> f32 {
        dot(&self.values, &other.values)
    }

    /// Serialise for registry storage (JSON array, as the paper's
    /// `descriptionEmbedding` column).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.values).expect("DenseVec serialisation cannot fail")
    }

    pub fn from_json(s: &str) -> Result<DenseVec, String> {
        let values: Vec<f32> = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if values.len() != DIM {
            return Err(format!("expected {DIM} dims, got {}", values.len()));
        }
        Ok(DenseVec { values })
    }
}

/// One ranked retrieval hit.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedHit {
    pub index: usize,
    pub score: f32,
}

/// Rank all `corpus` vectors against `query`, best first; deterministic
/// tie-break by index.
pub fn batch_rank(query: &DenseVec, corpus: &[DenseVec]) -> Vec<RankedHit> {
    let mut hits: Vec<RankedHit> = corpus
        .iter()
        .enumerate()
        .map(|(index, v)| RankedHit {
            index,
            score: query.cosine(v),
        })
        .collect();
    hits.sort_unstable_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
    hits
}

/// Top-k scan over a `DIM`-strided slab. `keys[row]` supplies the stable
/// tie-break key; rows where `accept(row)` is false are skipped.
pub fn slab_topk<F>(
    query: &[f32],
    slab: &[f32],
    keys: &[u64],
    k: usize,
    accept: F,
) -> Vec<ScoredRow>
where
    F: Fn(usize) -> bool,
{
    debug_assert_eq!(slab.len(), keys.len() * DIM);
    let mut top = TopK::new(k);
    for (row, chunk) in slab.chunks_exact(DIM).enumerate() {
        if accept(row) {
            top.push(dot(query, chunk), keys[row], row);
        }
    }
    top.into_sorted()
}

/// Threshold scan shared by every "all hits above `min_score`" ranking
/// path: score rows `0..n` with the caller's closure (dense slab stride,
/// sparse feature overlap — the helper doesn't care), keep rows where
/// `accept(row)` holds and `score(row) ≥ min_score`, and return them
/// best-first under the total `(score desc, key asc)` order.
pub fn slab_scan_above<S, F>(
    n: usize,
    score: S,
    accept: F,
    keys: &[u64],
    min_score: f32,
) -> Vec<ScoredRow>
where
    S: Fn(usize) -> f32,
    F: Fn(usize) -> bool,
{
    debug_assert!(keys.len() >= n);
    let mut rows: Vec<ScoredRow> = (0..n)
        .filter_map(|row| {
            if !accept(row) {
                return None;
            }
            let s = score(row);
            (s >= min_score).then_some(ScoredRow {
                row,
                key: keys[row],
                score: s,
            })
        })
        .collect();
    rows.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.key.cmp(&b.key)));
    rows
}

/// Signed hashing: fold a feature hash into (dimension, sign).
#[inline]
pub fn hash_to_dim(h: u64) -> (usize, f32) {
    let dim = (h % DIM as u64) as usize;
    let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
    (dim, sign)
}

/// The accumulator both embedders fill: feature hash → (occurrences,
/// weight). A `BTreeMap`, so [`FeatureBag::embed`] sums in ascending-hash
/// order: once three features collide on a dimension the rounded f32 sum
/// depends on the order, and a `HashMap`'s order differs per instance.
#[derive(Default)]
pub(crate) struct FeatureBag(BTreeMap<u64, (f32, f32)>);

impl FeatureBag {
    /// Count one occurrence of `key`. The weight given first sticks.
    pub(crate) fn add(&mut self, key: &str, weight: f32) {
        self.0
            .entry(fnv1a(key.as_bytes()))
            .or_insert((0.0, weight))
            .0 += 1.0;
    }

    /// Square-root damp the counts, signed-hash them into `DIM`
    /// dimensions and L2-normalise.
    pub(crate) fn embed(self) -> DenseVec {
        let mut values = vec![0.0f32; DIM];
        for (h, (count, weight)) in self.0 {
            let (dim, sign) = hash_to_dim(h);
            values[dim] += sign * weight * count.sqrt();
        }
        DenseVec::normalised(values)
    }
}

/// FNV-1a, shared with the sparse SPT path for consistency.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(pairs: &[(usize, f32)]) -> DenseVec {
        let mut values = vec![0.0; DIM];
        for &(i, v) in pairs {
            values[i] = v;
        }
        DenseVec::normalised(values)
    }

    #[test]
    fn normalisation() {
        let v = vec_of(&[(0, 3.0), (1, 4.0)]);
        let norm: f32 = v.values.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_stays_zero() {
        let z = DenseVec::zero();
        assert!(z.is_zero());
        assert_eq!(z.cosine(&z), 0.0);
        let n = DenseVec::normalised(vec![0.0; DIM]);
        assert!(n.is_zero());
    }

    #[test]
    fn cosine_identity_and_orthogonality() {
        let a = vec_of(&[(0, 1.0)]);
        let b = vec_of(&[(1, 1.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn batch_rank_orders_and_breaks_ties() {
        let q = vec_of(&[(0, 1.0)]);
        let corpus = vec![
            vec_of(&[(1, 1.0)]),           // orthogonal
            vec_of(&[(0, 1.0)]),           // identical
            vec_of(&[(0, 1.0), (1, 1.0)]), // partial
            vec_of(&[(1, 1.0)]),           // orthogonal (tie with 0)
        ];
        let hits = batch_rank(&q, &corpus);
        assert_eq!(hits[0].index, 1);
        assert_eq!(hits[1].index, 2);
        assert_eq!(hits[2].index, 0, "tie broken by index");
        assert_eq!(hits[3].index, 3);
    }

    #[test]
    fn json_roundtrip_and_validation() {
        let v = vec_of(&[(3, 1.0), (7, -2.0)]);
        let back = DenseVec::from_json(&v.to_json()).unwrap();
        assert_eq!(v, back);
        assert!(DenseVec::from_json("[1.0, 2.0]").is_err(), "wrong dim");
        assert!(DenseVec::from_json("nope").is_err());
    }

    #[test]
    fn hash_to_dim_in_range_and_signed() {
        let mut signs = [false, false];
        for s in ["a", "b", "c", "dd", "ee", "ff", "gg"] {
            let (d, sign) = hash_to_dim(fnv1a(s.as_bytes()));
            assert!(d < DIM);
            assert!(sign == 1.0 || sign == -1.0);
            signs[(sign < 0.0) as usize] = true;
        }
        assert!(signs[0] && signs[1], "both signs occur");
    }

    #[test]
    fn fused_dot_matches_naive() {
        let a: Vec<f32> = (0..DIM).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..DIM).map(|i| (i as f32 * 0.11).cos()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-3);
        // Unequal lengths score the common prefix only.
        assert!(
            (dot(&a[..19], &b) - a[..19].iter().zip(&b).map(|(x, y)| x * y).sum::<f32>()).abs()
                < 1e-4
        );
        assert_eq!(dot(&[], &b), 0.0);
    }

    #[test]
    fn slab_topk_matches_full_sort_prefix() {
        let n = 300;
        let rows: Vec<DenseVec> = (0..n)
            .map(|i| vec_of(&[(i % DIM, 1.0), ((i * 3) % DIM, 0.5)]))
            .collect();
        let mut slab = Vec::with_capacity(n * DIM);
        for r in &rows {
            slab.extend_from_slice(&r.values);
        }
        let keys: Vec<u64> = (0..n as u64).map(|i| i * 2 + 1).collect();
        let q = vec_of(&[(0, 1.0), (3, 0.7)]);

        let mut full: Vec<(f32, u64)> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (q.cosine(r), keys[i]))
            .collect();
        full.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        for k in [1, 5, 17, n, n + 10] {
            let got: Vec<(f32, u64)> = slab_topk(&q.values, &slab, &keys, k, |_| true)
                .into_iter()
                .map(|h| (h.score, h.key))
                .collect();
            let want: Vec<(f32, u64)> = full.iter().take(k).copied().collect();
            assert_eq!(got, want, "k={k}");
        }

        // Filtering: only even rows.
        let got: Vec<usize> = slab_topk(&q.values, &slab, &keys, n, |row| row % 2 == 0)
            .into_iter()
            .map(|h| h.row)
            .collect();
        assert_eq!(got.len(), n / 2);
        assert!(got.iter().all(|r| r % 2 == 0));
    }

    #[test]
    fn slab_scan_above_filters_and_sorts() {
        let rows: Vec<f32> = vec![0.9, 0.1, 0.5, 0.9, 0.3];
        let keys: Vec<u64> = vec![10, 11, 12, 13, 14];
        let got = slab_scan_above(rows.len(), |r| rows[r], |r| r != 2, &keys, 0.25);
        let picks: Vec<(u64, f32)> = got.iter().map(|h| (h.key, h.score)).collect();
        // row 2 rejected by accept, row 1 below threshold; tie 0/3 breaks
        // by ascending key.
        assert_eq!(picks, vec![(10, 0.9), (13, 0.9), (14, 0.3)]);
    }
}
