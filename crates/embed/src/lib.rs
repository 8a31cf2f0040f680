//! `embed` — deterministic substitutes for the deep-learning models used by
//! Laminar 2.0 (paper §II-C).
//!
//! The paper relies on three pretrained transformers, none of which can run
//! in a pure-Rust offline build:
//!
//! | Paper model | Role | Substitute |
//! |---|---|---|
//! | CodeT5 | generate PE/workflow descriptions (§IV-C) | [`codet5::CodeT5Sim`] — extractive summariser over the parse tree |
//! | UniXcoder | embed descriptions & queries for text-to-code search (§V-B) | [`unixcoder::UniXcoderSim`] — 256-d hashed bag-of-subwords embedder |
//! | ReACC-py-retriever | code-to-code clone retrieval (§VI) | [`reacc::ReaccSim`] — order-sensitive exact-token n-gram embedder |
//!
//! The substitutes preserve the *behavioural profile* the evaluation
//! depends on: UniXcoderSim retrieves semantically-related descriptions
//! imperfectly (F1 in the 0.6 band); ReaccSim excels at (near-)clone
//! retrieval but collapses on partial or renamed code, which is exactly the
//! weakness Figures 12–13 contrast against Aroma's structural search.
//!
//! All models are deterministic: the same input always embeds identically,
//! with no global state.

pub mod codet5;
pub mod dense;
pub mod reacc;
pub mod tokenize;
pub mod topk;
pub mod unixcoder;

pub use codet5::{CodeT5Sim, DescriptionContext};
pub use dense::{dot, DenseVec, DIM};
pub use reacc::ReaccSim;
pub use tokenize::{split_identifier, subword_tokens, text_tokens};
pub use topk::{ScoredRow, TopK};
pub use unixcoder::UniXcoderSim;

/// Common interface implemented by both embedding substitutes.
pub trait Embedder {
    /// Embed an input into the shared 256-d space. Must be deterministic.
    fn embed(&self, input: &str) -> DenseVec;
}
