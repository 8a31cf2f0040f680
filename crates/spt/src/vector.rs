//! Sparse feature vectors.
//!
//! Features are hashed with 64-bit FNV-1a into a sorted sparse vector of
//! `(feature-id, count)` pairs. Dot products and cosine similarity are
//! linear merges over the sorted id lists — this is the "matrix
//! multiplication for quick snippet identification" step of the Aroma
//! pipeline (paper Fig. 3) in row form.
//!
//! `to_json` renders a vector as the paper's `sptEmbedding` CLOB column
//! held it (§VI, Fig. 6); nothing here stores that text, and nothing
//! parses it back.

use crate::features::Feature;
use serde::{Deserialize, Serialize};

/// Sorted sparse vector over the hashed feature space.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FeatureVec {
    /// `(feature id, count)` sorted ascending by id, ids unique.
    pub items: Vec<(u64, f32)>,
}

/// 64-bit FNV-1a as a byte stream: feeding an encoding piece by piece
/// hashes to the same id as feeding it whole, which is what lets the
/// extractor hash a feature without ever building its string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Fnv1a {
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// `n` in decimal, as `format!("{n}")` would spell it.
    #[inline]
    pub fn write_decimal(&mut self, n: usize) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut n = n;
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.write(&digits[at..]);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over the feature's stable encoding.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

impl FeatureVec {
    /// Build from a feature multiset.
    pub fn from_features(features: &[Feature]) -> FeatureVec {
        FeatureVec::from_ids(
            features
                .iter()
                .map(|f| fnv1a(f.encode().as_bytes()))
                .collect(),
        )
    }

    /// Build from a multiset of hashed feature ids, in any order.
    pub fn from_ids(mut ids: Vec<u64>) -> FeatureVec {
        ids.sort_unstable();
        let mut items: Vec<(u64, f32)> = Vec::with_capacity(ids.len());
        for id in ids {
            match items.last_mut() {
                Some(last) if last.0 == id => last.1 += 1.0,
                _ => items.push((id, 1.0)),
            }
        }
        FeatureVec { items }
    }

    /// Number of distinct features.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total feature count (multiset cardinality).
    pub fn total(&self) -> f32 {
        self.items.iter().map(|&(_, c)| c).sum()
    }

    /// Sparse dot product (sorted merge).
    pub fn dot(&self, other: &FeatureVec) -> f32 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0f32;
        while i < self.items.len() && j < other.items.len() {
            let (a, ca) = self.items[i];
            let (b, cb) = other.items[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += ca * cb;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Multiset intersection size: Σ min(count_a, count_b). This is Aroma's
    /// overlap score — the score the paper's default 6.0 threshold applies
    /// to (§VI-A).
    pub fn overlap(&self, other: &FeatureVec) -> f32 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0f32;
        while i < self.items.len() && j < other.items.len() {
            let (a, ca) = self.items[i];
            let (b, cb) = other.items[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += ca.min(cb);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.items
            .iter()
            .map(|&(_, c)| c * c)
            .sum::<f32>()
            .sqrt()
    }

    /// Cosine similarity in [0, 1] (counts are non-negative). Zero when
    /// either vector is empty.
    pub fn cosine(&self, other: &FeatureVec) -> f32 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        self.dot(other) / denom
    }

    /// Containment of `self` in `other`: |self ∩ other| / |self|. Used by
    /// prune-and-rerank (how much of the query does this snippet cover?).
    pub fn containment_in(&self, other: &FeatureVec) -> f32 {
        let t = self.total();
        if t == 0.0 {
            return 0.0;
        }
        self.overlap(other) / t
    }

    /// Render as the paper's `sptEmbedding` JSON: `[[id, count], ...]`.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.items).expect("FeatureVec serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Feature;

    fn fv(tokens: &[&str]) -> FeatureVec {
        let fs: Vec<Feature> = tokens.iter().map(|t| Feature::Token((*t).into())).collect();
        FeatureVec::from_features(&fs)
    }

    #[test]
    fn counts_accumulate() {
        let v = fv(&["a", "b", "a", "a"]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.total(), 4.0);
    }

    #[test]
    fn ids_sorted_unique() {
        let v = fv(&["z", "a", "m", "a"]);
        let ids: Vec<u64> = v.items.iter().map(|&(id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn dot_and_overlap() {
        let a = fv(&["x", "x", "y"]);
        let b = fv(&["x", "y", "y", "z"]);
        assert_eq!(a.dot(&b), 2.0 * 1.0 + 1.0 * 2.0);
        assert_eq!(a.overlap(&b), 1.0 + 1.0 + 0.0 + 1.0 - 1.0); // min(2,1)+min(1,2)=2
        assert_eq!(a.overlap(&b), 2.0);
    }

    #[test]
    fn cosine_bounds_and_identity() {
        let a = fv(&["x", "y", "z"]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
        let b = fv(&["p", "q"]);
        assert_eq!(a.cosine(&b), 0.0);
        let c = fv(&["x", "q"]);
        let s = a.cosine(&c);
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn empty_vector_behaviour() {
        let e = FeatureVec::default();
        let a = fv(&["x"]);
        assert_eq!(e.cosine(&a), 0.0);
        assert_eq!(e.dot(&a), 0.0);
        assert_eq!(e.containment_in(&a), 0.0);
        assert!(e.is_empty());
    }

    #[test]
    fn containment_asymmetry() {
        let small = fv(&["x", "y"]);
        let big = fv(&["x", "y", "z", "w"]);
        assert!((small.containment_in(&big) - 1.0).abs() < 1e-6);
        assert!((big.containment_in(&small) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn json_is_the_items() {
        let v = FeatureVec {
            items: vec![(3, 2.0), (5, 0.5)],
        };
        assert_eq!(v.to_json(), "[[3,2.0],[5,0.5]]");
    }

    #[test]
    fn fnv_known_values_and_dispersion() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        // Nearby inputs hash far apart.
        assert_ne!(fnv1a(b"T:a"), fnv1a(b"T:b"));
        assert_ne!(fnv1a(b"T:a"), fnv1a(b"S:a"));
    }

    #[test]
    fn dot_is_symmetric() {
        let a = fv(&["x", "y", "y"]);
        let b = fv(&["y", "z"]);
        assert_eq!(a.dot(&b), b.dot(&a));
        assert_eq!(a.overlap(&b), b.overlap(&a));
    }
}
