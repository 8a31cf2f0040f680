//! `UniXcoderSim` — the text-embedding substitute for UniXcoder (paper
//! §V-B).
//!
//! Laminar's text-to-code search embeds PE/workflow *descriptions* and user
//! queries into a shared space and ranks by cosine similarity. The
//! substitute is a hashed bag-of-subwords model:
//!
//! * unigram tokens (stopworded, identifier-split) — the semantic core;
//! * token bigrams — a little compositionality ("detect anomalies" ≠
//!   "anomalies detected elsewhere");
//! * character 3-grams of each token — robustness to morphology
//!   ("detection" vs "detect", "normalizes" vs "normalize").
//!
//! Counts are square-root damped (a token appearing 9× counts 3×) so long
//! descriptions do not drown short ones, then signed-hashed into 256 dims
//! and L2-normalised.

use crate::dense::{DenseVec, FeatureBag};
use crate::tokenize::text_tokens;
use crate::Embedder;

/// Relative weights of the three feature families.
const W_UNIGRAM: f32 = 1.0;
const W_BIGRAM: f32 = 0.6;
const W_CHAR3: f32 = 0.25;

/// Deterministic text embedder. Stateless and `Copy` — construct freely.
#[derive(Debug, Default, Clone, Copy)]
pub struct UniXcoderSim;

impl UniXcoderSim {
    pub fn new() -> Self {
        UniXcoderSim
    }

    /// Embed a natural-language description or query.
    pub fn embed_text(&self, text: &str) -> DenseVec {
        let tokens = text_tokens(text);
        if tokens.is_empty() {
            return DenseVec::zero();
        }

        // Accumulate feature counts first so damping can apply per feature.
        let mut bag = FeatureBag::default();
        for t in &tokens {
            bag.add(&[b"u:", t.as_bytes()], W_UNIGRAM);
            for gram in char_trigrams(t) {
                bag.add(&[b"c:", gram.as_bytes()], W_CHAR3);
            }
        }
        for pair in tokens.windows(2) {
            bag.add(
                &[b"b:", pair[0].as_bytes(), b"|", pair[1].as_bytes()],
                W_BIGRAM,
            );
        }
        bag.embed()
    }
}

/// Every run of three consecutive characters of `t`, as slices of it.
fn char_trigrams(t: &str) -> impl Iterator<Item = &str> {
    let starts = t.char_indices().map(|(at, _)| at);
    let ends = starts.clone().chain([t.len()]).skip(3);
    starts.zip(ends).map(|(start, end)| &t[start..end])
}

impl Embedder for UniXcoderSim {
    fn embed(&self, input: &str) -> DenseVec {
        self.embed_text(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(a: &str, b: &str) -> f32 {
        let m = UniXcoderSim::new();
        m.embed_text(a).cosine(&m.embed_text(b))
    }

    #[test]
    fn char_trigrams_are_the_three_char_windows() {
        for t in ["", "ab", "abc", "detect", "détecte", "日本語の"] {
            let chars: Vec<char> = t.chars().collect();
            let want: Vec<String> = chars.windows(3).map(|w| w.iter().collect()).collect();
            assert_eq!(char_trigrams(t).collect::<Vec<_>>(), want, "{t:?}");
        }
    }

    /// The streamed feature keys embed exactly like the `format!`-ed
    /// strings they replaced.
    #[test]
    fn embeds_like_the_formatted_keys() {
        for text in [
            "detect anomalies in sensor data",
            "AnomalyDetectionPE normalizes normalizes temperature_records x1",
            "ab abc",
        ] {
            let tokens = text_tokens(text);
            let mut bag = FeatureBag::default();
            for t in &tokens {
                bag.add(&[format!("u:{t}").as_bytes()], W_UNIGRAM);
                let chars: Vec<char> = t.chars().collect();
                for w in chars.windows(3) {
                    bag.add(&[format!("c:{}{}{}", w[0], w[1], w[2]).as_bytes()], W_CHAR3);
                }
            }
            for pair in tokens.windows(2) {
                bag.add(&[format!("b:{}|{}", pair[0], pair[1]).as_bytes()], W_BIGRAM);
            }
            assert_eq!(UniXcoderSim::new().embed_text(text), bag.embed(), "{text}");
        }
    }

    #[test]
    fn deterministic() {
        let m = UniXcoderSim::new();
        assert_eq!(
            m.embed_text("detect anomalies"),
            m.embed_text("detect anomalies")
        );
    }

    #[test]
    fn identity_similarity_is_one() {
        assert!(
            (sim(
                "reads a file and returns lines",
                "reads a file and returns lines"
            ) - 1.0)
                .abs()
                < 1e-5
        );
    }

    #[test]
    fn empty_input_embeds_to_zero() {
        let m = UniXcoderSim::new();
        assert!(m.embed_text("").is_zero());
        assert!(m.embed_text("   the a of ").is_zero());
    }

    #[test]
    fn related_beats_unrelated() {
        // Paper Fig. 8: "a pe that is able to detect anomalies" ranks the
        // anomaly-detection PE far above unrelated PEs.
        let query = "a pe that is able to detect anomalies";
        let anomaly = "Anomaly detection PE flags values that deviate from the mean";
        let prime = "checks whether a given number is prime and returns it";
        assert!(
            sim(query, anomaly) > sim(query, prime) + 0.1,
            "anomaly {} prime {}",
            sim(query, anomaly),
            sim(query, prime)
        );
    }

    #[test]
    fn morphology_tolerance_via_char_ngrams() {
        let s_exact = sim(
            "normalize temperature records",
            "normalize temperature records",
        );
        let s_morph = sim(
            "normalizes the temperatures of records",
            "normalize temperature records",
        );
        let s_unrel = sim("parse json configuration", "normalize temperature records");
        assert!(s_morph > s_unrel, "morph {s_morph} unrel {s_unrel}");
        assert!(s_exact > s_morph);
    }

    #[test]
    fn word_order_matters_slightly() {
        let a = sim("stream data to redis", "stream data to redis");
        let b = sim("redis to data stream", "stream data to redis");
        assert!(b < a);
        assert!(b > 0.5, "bag-of-words core keeps them close: {b}");
    }

    #[test]
    fn identifier_queries_match_descriptions() {
        // A camelCase class name in the query should match its split form.
        let s = sim("AnomalyDetectionPE", "anomaly detection pe");
        assert!(s > 0.5, "{s}");
    }

    #[test]
    fn length_damping() {
        // A short exact description should not lose badly to a long
        // description that repeats the keywords many times.
        let query = "count words in a text";
        let short = "counts the words in a text";
        let spam = "words words words words words words words counts counts counts counts text text text text";
        assert!(
            sim(query, short) > sim(query, spam),
            "short {} spam {}",
            sim(query, short),
            sim(query, spam)
        );
    }
}
