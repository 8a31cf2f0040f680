//! `aroma` — structural code search and recommendation (paper §II-E, §VI).
//!
//! Reimplements the Aroma pipeline of Luan et al. (2019), re-targeted from
//! Java to Python exactly as Laminar 2.0 did:
//!
//! 1. **Featurisation & light-weight search** ([`index`]): every indexed
//!    snippet is parsed to an SPT and hashed to a sparse feature vector;
//!    retrieval scores the query vector against the whole corpus at once
//!    through posting lists (the sparse "matrix multiplication", Fig. 3).
//! 2. **Prune and rerank** ([`prune`]): each retrieved snippet is pruned to
//!    the statements that actually overlap the query, and reranked by how
//!    much of the query the pruned snippet contains. A snippet's statement
//!    granules are parsed once and kept with its index entry.
//! 3. **Clustering** ([`cluster`]): similar pruned snippets are grouped by
//!    iterative greedy clustering.
//! 4. **Recommendation** ([`recommend`]): each cluster is intersected into
//!    a single representative snippet.
//!
//! The paper's Laminar 2.0 *described* a simplified variant — cosine/
//! overlap scoring of stored `sptEmbedding`s with a configurable score
//! threshold (default 6.0) and top-5 cut, "without the need for complex
//! clustering or reranking steps" (§VI-A). The server's workflow scope
//! *is* that variant: a threshold scan over this crate's posting index
//! ([`SnippetIndex::scored`]) and a membership sweep. Its PE scope runs
//! the full [`AromaEngine`] pipeline end-to-end over the same index, kept
//! in registry lockstep by the server's index cell (DESIGN.md §12).

pub mod cluster;
pub mod completion;
pub mod engine;
pub mod index;
pub mod lsh;
pub mod prune;
pub mod recommend;

pub use cluster::{cluster_results, Cluster};
pub use completion::{complete_from, complete_with, Completion};
pub use engine::{AromaConfig, AromaEngine, RecoStats, Recommendation};
pub use index::{ScoredSnippet, Snippet, SnippetId, SnippetIndex};
pub use lsh::{LshConfig, LshIndex, LshSearchStats};
pub use prune::{
    granulated_vec, granulated_vec_of, prune_and_rerank, prune_granules, statement_granules,
    Granule, PrunedSnippet,
};
pub use recommend::create_recommendation;
