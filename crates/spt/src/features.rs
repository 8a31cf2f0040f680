//! Aroma feature extraction (Luan et al. 2019, §3.2) over an [`Spt`].
//!
//! Four feature families are produced for every *eligible* leaf token —
//! keywords, (globalised) names, and literals; bare punctuation contributes
//! to node labels but not to features:
//!
//! 1. `Token(t)` — the token itself, with local variables globalised to
//!    `#VAR` and long string literals normalised to `#STR`;
//! 2. `Parent(t, i, label)` — for up to three enclosing SPT internal nodes:
//!    the token, the child index of the path at that ancestor, and the
//!    ancestor's simplified label;
//! 3. `Sibling(t, u)` — ordered bigrams of consecutive eligible tokens;
//! 4. `VarUsage(c1, c2)` — for each local variable, the labels of the
//!    parent contexts of consecutive usages (variable-agnostic, so `i`
//!    in one snippet matches `idx` in another).
//!
//! Two extractors produce them. [`feature_ids`] is the one every index and
//! query goes through: it streams each feature's encoding straight from
//! the tree into an FNV-1a state and never builds a string.
//! [`extract_features`] materialises the same multiset as [`Feature`]
//! values — for the E13 ablation, which filters by family, and as the
//! reference the streamed ids are tested against.

use crate::tree::{Spt, SptNode, SptNodeId};
use crate::vector::Fnv1a;
use pyparse::TokKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// One extracted structural feature.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Feature {
    Token(String),
    Parent(String, u8, String),
    Sibling(String, String),
    VarUsage(String, String),
}

impl Feature {
    /// Stable textual encoding (the hashing key).
    pub fn encode(&self) -> String {
        match self {
            Feature::Token(t) => format!("T:{t}"),
            Feature::Parent(t, i, l) => format!("P:{t}|{i}|{l}"),
            Feature::Sibling(a, b) => format!("S:{a}|{b}"),
            Feature::VarUsage(a, b) => format!("V:{a}|{b}"),
        }
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Maximum ancestor depth for parent features (Aroma uses 3).
const PARENT_LEVELS: usize = 3;
/// String literals longer than this are normalised to `#STR`.
const MAX_LITERAL_LEN: usize = 12;
/// Label bytes a feature hashes. A label is as long as its node has
/// children, and every leaf under the node hashes it again, so an
/// unbounded label makes one flat 100k-element literal quadratic. Real
/// labels are tens of bytes; past the bound a label counts as its first
/// [`MAX_LABEL_BYTES`] and its length — so a vector stored before the bound
/// existed differs from today's on the features under such a node (more
/// than ~340 statements in a block, 204 elements in a list).
const MAX_LABEL_BYTES: usize = 1024;

/// The part of `label` that is hashed verbatim, and its full byte length
/// when that is only a prefix.
fn bounded_label(label: &str) -> (&str, Option<usize>) {
    if label.len() <= MAX_LABEL_BYTES {
        return (label, None);
    }
    let mut cut = MAX_LABEL_BYTES;
    while !label.is_char_boundary(cut) {
        cut -= 1;
    }
    (&label[..cut], Some(label.len()))
}

/// A label as [`Feature`]s carry it: verbatim, or `prefix#length` past the
/// bound.
fn label_string(label: &str) -> String {
    match bounded_label(label) {
        (whole, None) => whole.to_string(),
        (prefix, Some(len)) => format!("{prefix}#{len}"),
    }
}

fn write_label(h: &mut Fnv1a, label: &str) {
    let (prefix, len) = bounded_label(label);
    h.write(prefix.as_bytes());
    if let Some(len) = len {
        h.write(b"#");
        h.write_decimal(len);
    }
}

/// The token a leaf contributes to features, or `None` for punctuation
/// and layout tokens: keywords, numbers and API names verbatim, local
/// variables as `#VAR`, long string literals as `#STR`.
fn feature_token(text: &str, kind: TokKind, is_variable: bool) -> Option<&str> {
    match kind {
        TokKind::Keyword | TokKind::Number => Some(text),
        TokKind::Name if is_variable => Some("#VAR"),
        TokKind::Name => Some(text),
        TokKind::Str if text.len() > MAX_LITERAL_LEN => Some("#STR"),
        TokKind::Str => Some(text),
        TokKind::Op | TokKind::Newline | TokKind::Indent | TokKind::Dedent | TokKind::Eof => None,
    }
}

/// `(parent, child index)` per arena slot under `root`; `None` for `root`
/// itself and for slots outside its subtree. The index wraps at 256, as
/// the stored ids always have.
fn parent_table(spt: &Spt, root: SptNodeId) -> Vec<Option<(SptNodeId, u8)>> {
    let mut parent = vec![None; spt.nodes.len()];
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        for (i, &c) in spt.children(id).iter().enumerate() {
            parent[c.index()] = Some((id, i as u8));
            stack.push(c);
        }
    }
    parent
}

/// A hash state fed `tag` and the feature's first field.
fn tagged(tag: &[u8], first: &str) -> Fnv1a {
    let mut h = Fnv1a::default();
    h.write(tag);
    h.write(first.as_bytes());
    h
}

/// The hashed ids of every feature of `spt`, as a multiset in no
/// particular order: exactly `fnv1a(f.encode())` for each `f` of
/// [`extract_features`], computed without building `f` or its encoding.
pub fn feature_ids(spt: &Spt) -> Vec<u64> {
    let Some(root) = spt.root else {
        return Vec::new();
    };
    let parent = parent_table(spt, root);
    let mut ids = Vec::new();
    let mut previous: Option<&str> = None;
    // Variable name -> label of the context it was last used in.
    let mut last_use: HashMap<&str, &str> = HashMap::new();
    for leaf in spt.leaves_under(root) {
        let SptNode::Leaf { text, kind, is_variable } = &spt.nodes[leaf.index()] else {
            continue;
        };
        let Some(token) = feature_token(text, *kind, *is_variable) else {
            continue;
        };
        ids.push(tagged(b"T:", token).finish());

        let mut stem = tagged(b"P:", token);
        stem.write(b"|");
        let mut cur = leaf;
        for _ in 0..PARENT_LEVELS {
            let Some((p, idx)) = parent[cur.index()] else {
                break;
            };
            let mut h = stem;
            h.write_decimal(idx as usize);
            h.write(b"|");
            write_label(&mut h, spt.label(p));
            ids.push(h.finish());
            cur = p;
        }

        if let Some(before) = previous.replace(token) {
            let mut h = tagged(b"S:", before);
            h.write(b"|");
            h.write(token.as_bytes());
            ids.push(h.finish());
        }

        if *is_variable {
            let context = parent[leaf.index()].map_or("", |(p, _)| spt.label(p));
            if let Some(before) = last_use.insert(text.as_str(), context) {
                let mut h = Fnv1a::default();
                h.write(b"V:");
                write_label(&mut h, before);
                h.write(b"|");
                write_label(&mut h, context);
                ids.push(h.finish());
            }
        }
    }
    ids
}

/// Reusable extractor (kept for API symmetry with the paper's pipeline
/// stages; extraction itself is stateless).
#[derive(Debug, Default, Clone, Copy)]
pub struct FeatureExtractor;

impl FeatureExtractor {
    pub fn new() -> Self {
        FeatureExtractor
    }

    pub fn extract(&self, spt: &Spt) -> Vec<Feature> {
        extract_features(spt)
    }
}

/// Extract all features of `spt` as values — the reference form of
/// [`feature_ids`].
pub fn extract_features(spt: &Spt) -> Vec<Feature> {
    let Some(root) = spt.root else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let parent = parent_table(spt, root);

    // Token + parent features; remember eligible tokens and variable uses.
    let mut eligible: Vec<&str> = Vec::new();
    let mut var_uses: HashMap<&str, Vec<String>> = HashMap::new();
    for leaf in spt.leaves_under(root) {
        let SptNode::Leaf { text, kind, is_variable } = &spt.nodes[leaf.index()] else {
            continue;
        };
        let Some(token) = feature_token(text, *kind, *is_variable) else {
            continue;
        };
        out.push(Feature::Token(token.to_string()));

        // Parent features: climb up to PARENT_LEVELS ancestors.
        let mut cur = leaf;
        for _ in 0..PARENT_LEVELS {
            let Some((p, idx)) = parent[cur.index()] else {
                break;
            };
            out.push(Feature::Parent(
                token.to_string(),
                idx,
                label_string(spt.label(p)),
            ));
            cur = p;
        }

        if *is_variable {
            let ctx = parent[leaf.index()].map_or("", |(p, _)| spt.label(p));
            var_uses
                .entry(text.as_str())
                .or_default()
                .push(label_string(ctx));
        }
        eligible.push(token);
    }

    // Sibling features: ordered bigrams of consecutive eligible tokens.
    for pair in eligible.windows(2) {
        out.push(Feature::Sibling(pair[0].to_string(), pair[1].to_string()));
    }

    // Variable-usage features: consecutive usage contexts per variable.
    // Sort variables so output order is deterministic.
    let mut vars: Vec<_> = var_uses.into_iter().collect();
    vars.sort_by(|a, b| a.0.cmp(b.0));
    for (_name, contexts) in vars {
        for pair in contexts.windows(2) {
            out.push(Feature::VarUsage(pair[0].clone(), pair[1].clone()));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Spt;

    fn feats(src: &str) -> Vec<Feature> {
        extract_features(&Spt::parse_source(src))
    }

    fn count<F: Fn(&Feature) -> bool>(fs: &[Feature], pred: F) -> usize {
        fs.iter().filter(|f| pred(f)).count()
    }

    #[test]
    fn empty_has_no_features() {
        assert!(feats("").is_empty());
    }

    #[test]
    fn token_features_globalise_variables() {
        let fs = feats("def f(x):\n    return x + 1\n");
        assert!(fs.contains(&Feature::Token("#VAR".into())));
        assert!(fs.contains(&Feature::Token("def".into())));
        assert!(fs.contains(&Feature::Token("return".into())));
        assert!(fs.contains(&Feature::Token("1".into())));
        // `x` must not appear verbatim.
        assert!(!fs.contains(&Feature::Token("x".into())));
    }

    #[test]
    fn api_names_survive() {
        let fs = feats("def f(x):\n    return range(x)\n");
        assert!(fs.contains(&Feature::Token("range".into())));
    }

    #[test]
    fn parent_features_reference_labels() {
        let fs = feats("if x < 2:\n    return x\n");
        let has_if_label = fs.iter().any(|f| match f {
            Feature::Parent(_, _, l) => l.contains("if") && l.contains(':'),
            _ => false,
        });
        assert!(has_if_label, "{fs:?}");
    }

    #[test]
    fn parent_features_at_most_three_levels() {
        let fs = feats("def f(a):\n    if a:\n        while a:\n            for i in a:\n                g(i)\n");
        // Every eligible token contributes at most PARENT_LEVELS parent features.
        let tokens = count(&fs, |f| matches!(f, Feature::Token(_)));
        let parents = count(&fs, |f| matches!(f, Feature::Parent(..)));
        assert!(parents <= tokens * 3);
        assert!(parents > 0);
    }

    #[test]
    fn sibling_features_are_ordered_bigrams() {
        let fs = feats("a = 1\n");
        // a(#VAR) then 1: bigram (#VAR, 1). '=' is punctuation → skipped.
        assert!(fs.contains(&Feature::Sibling("#VAR".into(), "1".into())), "{fs:?}");
        assert!(!fs.contains(&Feature::Sibling("1".into(), "#VAR".into())));
    }

    #[test]
    fn var_usage_features_link_consecutive_contexts() {
        let fs = feats("def f(n):\n    if n > 0:\n        return n\n");
        let vu = count(&fs, |f| matches!(f, Feature::VarUsage(..)));
        // n used 3 times (param, condition, return) → 2 consecutive pairs.
        assert_eq!(vu, 2, "{fs:?}");
    }

    #[test]
    fn long_strings_normalised() {
        let fs = feats("s = 'a very long string literal indeed'\nt = 'ok'\n");
        assert!(fs.contains(&Feature::Token("#STR".into())));
        assert!(fs.contains(&Feature::Token("'ok'".into())));
    }

    #[test]
    fn rename_invariance_of_feature_multiset() {
        use std::collections::HashMap;
        let to_counts = |fs: Vec<Feature>| {
            let mut m: HashMap<String, usize> = HashMap::new();
            for f in fs {
                *m.entry(f.encode()).or_default() += 1;
            }
            m
        };
        let a = to_counts(feats("def f(count):\n    count += 1\n    return count\n"));
        let b = to_counts(feats("def f(total):\n    total += 1\n    return total\n"));
        assert_eq!(a, b, "pure renaming must not change the feature multiset");
    }

    #[test]
    fn encoding_is_injective_across_kinds() {
        let t = Feature::Token("x|1|y".into());
        let p = Feature::Parent("x".into(), 1, "y".into());
        assert_ne!(t.encode(), p.encode());
        let s = Feature::Sibling("a".into(), "b".into());
        let v = Feature::VarUsage("a".into(), "b".into());
        assert_ne!(s.encode(), v.encode());
    }

    #[test]
    fn extractor_api() {
        let spt = Spt::parse_source("x = 1\n");
        let fx = FeatureExtractor::new();
        assert_eq!(fx.extract(&spt), extract_features(&spt));
    }
}
