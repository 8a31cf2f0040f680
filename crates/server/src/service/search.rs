//! The search service: literal search over the registry and semantic
//! search over the description embeddings (paper Fig. 7 and 8).

use crate::indexes::EntryKind;
use crate::protocol::{Response, SearchScope, SemanticHit};
use crate::server::LaminarServer;
use crate::service::registry::{pe_info, wf_info};
use laminar_registry::SearchTarget;

/// Semantic search's hit count when a request names no `top_n` (the
/// paper's default).
const SEMANTIC_TOP_N: usize = 5;

/// Literal search's row cap per table when a request names no `top_n`.
const LITERAL_TOP_N: usize = 100;

impl LaminarServer {
    /// `SearchLiteral`: the first `top_n` matching rows of each table.
    pub(crate) fn literal_search(
        &self,
        scope: SearchScope,
        term: &str,
        top_n: Option<usize>,
    ) -> Response {
        let target = match scope {
            SearchScope::Pe => SearchTarget::Pe,
            SearchScope::Workflow => SearchTarget::Workflow,
            SearchScope::Both => SearchTarget::Both,
        };
        let k = top_n.unwrap_or(LITERAL_TOP_N);
        let start = std::time::Instant::now();
        let (pes, wfs) = self.registry.literal_search_top(target, term, k);
        let elapsed = start.elapsed();
        self.metrics.groups.search.literal_us.record(elapsed);
        Response::Registry {
            pes: pes.iter().map(|p| pe_info(p)).collect(),
            workflows: wfs.iter().map(|w| wf_info(w)).collect(),
        }
    }

    /// `SearchSemantic`: the `top_n` rows whose description embedding is
    /// closest to the query's.
    pub(crate) fn semantic_search(
        &self,
        scope: SearchScope,
        query: &str,
        top_n: Option<usize>,
    ) -> Response {
        let k = top_n.unwrap_or(SEMANTIC_TOP_N);
        let qvec = self.unixcoder.embed_text(query);
        let kind = match scope {
            SearchScope::Pe => Some(EntryKind::Pe),
            SearchScope::Workflow => Some(EntryKind::Workflow),
            SearchScope::Both => None,
        };
        let start = std::time::Instant::now();
        let hits = self.indexes.rank_semantic(&qvec, kind, k);
        let elapsed = start.elapsed();
        self.metrics.groups.search.semantic_us.record(elapsed);
        Response::SemanticResults(
            hits.into_iter()
                .filter_map(|h| {
                    let (name, description) = match h.kind {
                        EntryKind::Pe => {
                            let p = self.registry.pe_row(h.id).ok()?;
                            (p.name.clone(), p.description.clone())
                        }
                        EntryKind::Workflow => {
                            let w = self.registry.workflow_row(h.id).ok()?;
                            (w.name.clone(), w.description.clone())
                        }
                    };
                    Some(SemanticHit {
                        id: h.id,
                        name,
                        description,
                        cosine_similarity: h.score,
                    })
                })
                .collect(),
        )
    }
}
