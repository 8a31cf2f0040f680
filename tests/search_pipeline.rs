//! Cross-crate integration of the search pipeline: registration stores
//! what the user wrote and indexes the vectors analysed from it, and all
//! three search modalities answer consistently on a CSN corpus.

use laminar::core::{EmbeddingType, Laminar, LaminarConfig, SearchScope};
use laminar::csn::{Dataset, DatasetConfig};
use laminar::embed::UniXcoderSim;

fn corpus() -> Dataset {
    Dataset::generate(DatasetConfig {
        families: 8,
        variants_per_family: 4,
        seed: 11,
        ..DatasetConfig::default()
    })
}

#[test]
fn registration_stores_the_source_and_indexes_its_vectors() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let mut client = laminar.client();
    client.register("u", "p").unwrap();
    let e = &corpus().entries[0];
    let id = client.register_pe(&e.name, &e.code, None).unwrap();
    let server = laminar.server();
    let row = server.registry().get_pe(id).unwrap();
    assert_eq!((&row.name, &row.code), (&e.name, &e.code));
    // Auto-generated description is non-trivial (§IV-C).
    assert!(row.description.len() > 10);
    // Fig. 6's embedding columns, analysed from the row, live in the index.
    let rows = server.indexes().rows();
    let indexed = rows.iter().find(|r| r.id == id).unwrap();
    assert!(indexed.spt.unwrap().len() > 10);
    let desc = UniXcoderSim::new().embed_text(&row.description);
    assert_eq!(indexed.desc.to_vec(), desc.values);
}

#[test]
fn semantic_search_finds_family_for_every_query() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let mut client = laminar.client();
    client.register("u", "p").unwrap();
    let corpus = corpus();
    for e in &corpus.entries {
        client.register_pe(&e.name, &e.code, None).unwrap();
    }
    // Each family's canonical description must retrieve ≥1 family member
    // in the top 5 for a large majority of families.
    let mut ok = 0;
    let total = corpus.family_keys.len();
    for fam in 0..total {
        let entry = corpus.entries.iter().find(|e| e.family == fam).unwrap();
        let hits = client
            .search_registry_semantic(SearchScope::Pe, &entry.description)
            .unwrap();
        let family_prefix = entry
            .name
            .trim_end_matches(|c: char| c.is_ascii_digit())
            .to_string();
        if hits.iter().any(|h| h.name.starts_with(&family_prefix)) {
            ok += 1;
        }
    }
    assert!(ok * 10 >= total * 8, "only {ok}/{total} families retrieved");
}

#[test]
fn structural_search_robust_to_partial_queries_unlike_llm() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let mut client = laminar.client();
    client.register("u", "p").unwrap();
    let corpus = corpus();
    for e in &corpus.entries {
        client.register_pe(&e.name, &e.code, None).unwrap();
    }
    // Query: half of a sum-family PE.
    let sum_entry = corpus
        .entries
        .iter()
        .find(|e| e.name.starts_with("SumList"))
        .unwrap();
    let partial = laminar::pyparse::drop_suffix_fraction(&sum_entry.code, 0.5);

    let spt_hits = client
        .code_recommendation(SearchScope::Pe, &partial, EmbeddingType::Spt)
        .unwrap();
    assert!(
        !spt_hits.is_empty(),
        "Aroma must recommend from partial code"
    );
    assert!(
        spt_hits[0].name.starts_with("SumList"),
        "the top recommendation belongs to the query's family: {spt_hits:?}"
    );

    // The LLM path ranks snippets one by one; Aroma clusters near-duplicates
    // behind one hit, so SPT's productivity is the snippets its clusters
    // cover. It must be at least the LLM path's ranked list.
    let llm_hits = client
        .code_recommendation(SearchScope::Pe, &partial, EmbeddingType::Llm)
        .unwrap();
    let clustered: usize = spt_hits.iter().map(|h| h.cluster_size).sum();
    assert!(
        clustered >= llm_hits.len(),
        "SPT clusters cover {clustered} snippets, the LLM path ranks {}",
        llm_hits.len()
    );
}

#[test]
fn update_description_moves_search_results() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let mut client = laminar.client();
    client.register("u", "p").unwrap();
    let id = client
        .register_pe(
            "Opaque",
            "class Opaque(IterativePE):\n    def _process(self, q):\n        return q\n",
            None,
        )
        .unwrap();
    let before = client
        .search_registry_semantic(SearchScope::Pe, "quantum flux capacitor calibration")
        .unwrap();
    let top_before = before.first().map(|h| h.cosine_similarity).unwrap_or(0.0);
    client
        .update_pe_description(id, "quantum flux capacitor calibration for time travel")
        .unwrap();
    let after = client
        .search_registry_semantic(SearchScope::Pe, "quantum flux capacitor calibration")
        .unwrap();
    assert_eq!(after[0].id, id);
    assert!(after[0].cosine_similarity > top_before + 0.2, "{after:?}");
}

#[test]
fn remove_pe_removes_it_from_search() {
    let laminar = Laminar::deploy(LaminarConfig::default());
    let mut client = laminar.client();
    client.register("u", "p").unwrap();
    let id = client
        .register_pe(
            "Ephemeral",
            "class Ephemeral(IterativePE):\n    def _process(self, z):\n        return z\n",
            Some("an utterly ephemeral component"),
        )
        .unwrap();
    let hits = client
        .search_registry_semantic(SearchScope::Pe, "utterly ephemeral component")
        .unwrap();
    assert_eq!(hits[0].id, id);
    client.remove_pe(id).unwrap();
    let hits = client
        .search_registry_semantic(SearchScope::Pe, "utterly ephemeral component")
        .unwrap();
    assert!(hits.iter().all(|h| h.id != id));
}

#[test]
fn registry_snapshot_roundtrip_preserves_search_data() {
    let dir = std::env::temp_dir().join(format!("laminar-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let deploy = || {
        Laminar::deploy(LaminarConfig {
            data_dir: Some(dir.clone()),
            ..LaminarConfig::default()
        })
    };
    let entries: Vec<_> = corpus().entries.into_iter().take(6).collect();
    let before = {
        let laminar = deploy();
        let mut client = laminar.client();
        client.register("u", "p").unwrap();
        for e in &entries {
            client.register_pe(&e.name, &e.code, None).unwrap();
        }
        laminar.server().registry().compact().unwrap();
        client
            .search_registry_semantic(SearchScope::Pe, &entries[0].description)
            .unwrap()
    };
    // Reopened from the snapshot: the rows, and the search answers the
    // indexes re-analysed from them give.
    let laminar = deploy();
    let mut client = laminar.client();
    client.login("u", "p").unwrap();
    assert_eq!(laminar.server().registry().counts().0, 6);
    let after = client
        .search_registry_semantic(SearchScope::Pe, &entries[0].description)
        .unwrap();
    assert_eq!(after, before);
    drop(laminar);
    std::fs::remove_dir_all(&dir).ok();
}
