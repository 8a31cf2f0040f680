//! Dense embedding vectors.
//!
//! Both model substitutes produce L2-normalised 256-dimensional vectors via
//! signed feature hashing (the classic "hashing trick"): each textual
//! feature hashes to a dimension and a sign, contributions accumulate, and
//! the result is normalised. Cosine similarity between normalised vectors
//! is a plain dot product.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Embedding dimensionality (fixed across the workspace so embeddings can
/// be stored in the registry and compared later).
pub const DIM: usize = 256;

/// Fused dot product, unrolled into eight independent accumulator lanes so
/// the compiler can keep the reduction in vector registers (the serial
/// `zip().map().sum()` form creates a loop-carried dependency on a single
/// scalar accumulator, which blocks auto-vectorisation of the adds).
///
/// Inputs of unequal length score only the common prefix; `DIM`-long
/// vectors always hit the exact-chunk fast path. The server's blocked scan
/// is checked bit for bit against this function: per row it adds the same
/// products to the same lanes in the same order.
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

    /// Render as the paper's `descriptionEmbedding` JSON array; nothing
    /// stores that text, and nothing parses it back.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.values).expect("DenseVec serialisation cannot fail")
    }
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
    /// Count one occurrence of the feature whose key is `parts` joined end
    /// to end — hashed piece by piece, so no caller builds the string.
    /// The weight given first sticks.
    pub(crate) fn add(&mut self, parts: &[&[u8]], weight: f32) {
        self.0.entry(fnv1a_parts(parts)).or_insert((0.0, weight)).0 += 1.0;
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
    fnv1a_parts(&[bytes])
}

/// FNV-1a of `parts` joined end to end. The hash is a fold over bytes, so
/// this is `fnv1a` of the concatenation without building it.
#[inline]
fn fnv1a_parts(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in parts.iter().copied().flatten() {
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
    fn json_is_the_values() {
        let v = vec_of(&[(3, 1.0), (7, -2.0)]);
        let values: Vec<f32> = serde_json::from_str(&v.to_json()).unwrap();
        assert_eq!(values, v.values);
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

    /// The six key shapes the embedders feed `FeatureBag::add`, streamed
    /// and formatted, on tokens with multi-byte characters.
    #[test]
    fn streamed_hash_equals_hash_of_the_formatted_key() {
        let (a, b, c) = ("détecte", "日本語", "x_1");
        let (ab, bb, cb) = (a.as_bytes(), b.as_bytes(), c.as_bytes());
        let cases: [(&[&[u8]], String); 6] = [
            (&[b"u:", ab], format!("u:{a}")),
            (
                &[b"c:", "té日".as_bytes()],
                format!("c:{}{}{}", 't', 'é', '日'),
            ),
            (&[b"b:", ab, b"|", bb], format!("b:{a}|{b}")),
            (&[b"1:", bb], format!("1:{b}")),
            (&[b"2:", bb, b"|", cb], format!("2:{b}|{c}")),
            (&[b"3:", ab, b"|", bb, b"|", cb], format!("3:{a}|{b}|{c}")),
        ];
        for (parts, key) in cases {
            assert_eq!(fnv1a_parts(parts), fnv1a(key.as_bytes()), "{key}");
        }
        assert_eq!(fnv1a_parts(&[]), fnv1a(b""));
        assert_eq!(fnv1a_parts(&[b"", b"ab", b""]), fnv1a(b"ab"));
    }
}
