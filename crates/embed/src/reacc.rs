//! `ReaccSim` — the code-to-code retrieval substitute for the
//! ReACC-py-retriever (paper §VI, §VII-D).
//!
//! ReACC embeds the *surface token sequence* of code; it "excelled at clone
//! detection by recalling functions from identical or semantically
//! equivalent code" but degrades steeply on partial snippets (Fig. 13). The
//! substitute reproduces that profile deliberately:
//!
//! * features are exact lexical tokens plus order-sensitive token bigrams
//!   and trigrams — no variable globalisation, no structural abstraction;
//! * n-grams dominate the weight, so removing half the code removes far
//!   more than half of the matching mass (every n-gram crossing the cut
//!   dies), and renaming a variable kills every n-gram it participates in.
//!
//! Contrast with Aroma's SPT features, which survive both truncation
//! (features are local to kept statements) and renaming (`#VAR`).

use crate::dense::{DenseVec, FeatureBag};
use crate::Embedder;
use pyparse::{lex, TokKind};

const W_UNIGRAM: f32 = 0.5;
const W_BIGRAM: f32 = 1.0;
const W_TRIGRAM: f32 = 1.5;

/// Deterministic code embedder mimicking ReACC-py-retriever's profile.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReaccSim;

impl ReaccSim {
    pub fn new() -> Self {
        ReaccSim
    }

    /// Embed a code snippet by its exact token sequence.
    pub fn embed_code(&self, code: &str) -> DenseVec {
        let (toks, _) = lex(code);
        let texts: Vec<&[u8]> = toks
            .iter()
            .filter(|t| !t.kind.is_synthetic() && t.kind != TokKind::Op)
            .map(|t| t.text.as_bytes())
            .collect();
        if texts.is_empty() {
            return DenseVec::zero();
        }
        let mut bag = FeatureBag::default();
        for t in &texts {
            bag.add(&[b"1:", t], W_UNIGRAM);
        }
        for w in texts.windows(2) {
            bag.add(&[b"2:", w[0], b"|", w[1]], W_BIGRAM);
        }
        for w in texts.windows(3) {
            bag.add(&[b"3:", w[0], b"|", w[1], b"|", w[2]], W_TRIGRAM);
        }
        bag.embed()
    }
}

impl Embedder for ReaccSim {
    fn embed(&self, input: &str) -> DenseVec {
        self.embed_code(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUM: &str = "def process(self, data):\n    total = 0\n    for item in data:\n        total += item\n    return total\n";

    fn sim(a: &str, b: &str) -> f32 {
        let m = ReaccSim::new();
        m.embed_code(a).cosine(&m.embed_code(b))
    }

    /// The streamed feature keys embed exactly like the `format!`-ed
    /// strings they replaced.
    #[test]
    fn embeds_like_the_formatted_keys() {
        for code in [
            SUM,
            "x = 1\n",
            "naïve = 'café 日本語'\nprint(naïve, naïve)\n",
        ] {
            let (toks, _) = lex(code);
            let texts: Vec<&str> = toks
                .iter()
                .filter(|t| !t.kind.is_synthetic() && t.kind != TokKind::Op)
                .map(|t| t.text.as_str())
                .collect();
            let mut bag = FeatureBag::default();
            for t in &texts {
                bag.add(&[format!("1:{t}").as_bytes()], W_UNIGRAM);
            }
            for w in texts.windows(2) {
                bag.add(&[format!("2:{}|{}", w[0], w[1]).as_bytes()], W_BIGRAM);
            }
            for w in texts.windows(3) {
                bag.add(
                    &[format!("3:{}|{}|{}", w[0], w[1], w[2]).as_bytes()],
                    W_TRIGRAM,
                );
            }
            assert_eq!(ReaccSim::new().embed_code(code), bag.embed(), "{code}");
        }
    }

    #[test]
    fn exact_clone_is_perfect() {
        assert!((sim(SUM, SUM) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn near_clone_scores_high() {
        // Whitespace/comment changes do not affect the token stream.
        let reformatted = "def process(self, data):\n    # sum everything\n    total = 0\n    for item in data:\n            total += item\n    return total\n";
        assert!(sim(SUM, reformatted) > 0.99);
    }

    #[test]
    fn renaming_hurts_badly() {
        // The documented ReACC weakness: renamed variables break the exact
        // n-grams.
        let renamed = SUM.replace("total", "acc").replace("item", "x");
        let s = sim(SUM, &renamed);
        assert!(s < 0.6, "renamed similarity should collapse: {s}");
    }

    #[test]
    fn truncation_hurts_superlinearly() {
        let half = pyparse::drop_suffix_fraction(SUM, 0.5);
        let s_half = sim(SUM, &half);
        let ninety = pyparse::drop_suffix_fraction(SUM, 0.9);
        let s_ninety = sim(SUM, &ninety);
        assert!(s_half < 0.9, "half {s_half}");
        assert!(s_ninety < s_half, "ninety {s_ninety} < half {s_half}");
    }

    #[test]
    fn unrelated_code_scores_low() {
        let other = "class Reader:\n    def run(self, path):\n        with open(path) as fh:\n            return fh.read()\n";
        let s = sim(SUM, other);
        assert!(s < 0.35, "{s}");
    }

    #[test]
    fn empty_input() {
        let m = ReaccSim::new();
        assert!(m.embed_code("").is_zero());
        assert!(m.embed_code("# only a comment\n").is_zero());
    }

    #[test]
    fn deterministic() {
        let m = ReaccSim::new();
        assert_eq!(m.embed_code(SUM), m.embed_code(SUM));
    }

    #[test]
    fn operators_excluded_from_ngrams() {
        // `a+b` vs `a-b`: identifiers identical, operators differ — ReACC
        // substitute sees them as near-identical (it models token recall,
        // not semantics).
        let s = sim("x = a + b\n", "x = a - b\n");
        assert!(s > 0.95, "{s}");
    }
}
