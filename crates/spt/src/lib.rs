//! `spt` — Simplified Parse Trees and Aroma-style structural features.
//!
//! Implements the representation half of the Aroma pipeline (paper §II-E,
//! Fig. 2): a [`ParseTree`](pyparse::ParseTree) is simplified into an
//! [`Spt`], local variables are detected and globalised to `#VAR`, and four
//! kinds of structural features are extracted:
//!
//! * **token features** — each eligible leaf token;
//! * **parent features** — `(token, child-index, ancestor-label)` for up to
//!   three enclosing SPT nodes;
//! * **sibling features** — ordered bigrams of eligible tokens;
//! * **variable-usage features** — consecutive usage contexts of each local
//!   variable.
//!
//! Features are hashed (FNV-1a, 64-bit) into a [`FeatureVec`] — a sorted
//! sparse vector supporting the dot-product / cosine scoring the search
//! layer needs, and JSON (de)serialisation matching the paper's
//! `sptEmbedding` registry column (§VI, Fig. 6). [`Postings`] is the
//! inverted form of a set of them, which scores a query against every
//! indexed vector in one pass over the query's own features.
//!
//! ```
//! let spt = spt::Spt::parse_source("def f(x):\n    return x + 1\n");
//! let vec = spt.feature_vec();
//! assert!(vec.len() > 0);
//! assert!((vec.cosine(&vec) - 1.0).abs() < 1e-6);
//! ```

pub mod features;
pub mod locals;
pub mod postings;
pub mod tree;
pub mod vector;

pub use features::{extract_features, feature_ids, Feature, FeatureExtractor};
pub use locals::local_variables;
pub use postings::Postings;
pub use tree::{Spt, SptNode, SptNodeId};
pub use vector::{FeatureVec, Fnv1a};
