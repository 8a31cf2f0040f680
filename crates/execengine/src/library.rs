//! Runnable-workflow library.
//!
//! The paper's engine executes the registered *Python* code with a Python
//! interpreter. A pure-Rust reproduction cannot run Python, so registered
//! workflow names map to native [`WorkflowGraph`] builders instead; the
//! registry still stores the Python source for search/recommendation, and
//! this library supplies the executable twin (substitution documented in
//! DESIGN.md). The stock paper workflows are pre-registered.

use d4py::workflows;
use d4py::WorkflowGraph;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

type Builder = Arc<dyn Fn() -> WorkflowGraph + Send + Sync>;

/// Name → graph-builder map.
#[derive(Default)]
pub struct WorkflowLibrary {
    builders: RwLock<HashMap<String, Builder>>,
}

impl WorkflowLibrary {
    /// Empty library.
    pub fn new() -> Self {
        WorkflowLibrary::default()
    }

    /// Library pre-loaded with the paper's stock workflows:
    /// `isprime_wf` (Fig. 5), `wordcount_wf` (Fig. 7's words entries),
    /// `anomaly_wf` (Fig. 8), and the doc example `doubler_wf`.
    pub fn with_stock_workflows() -> Self {
        let lib = WorkflowLibrary::new();
        lib.register("isprime_wf", workflows::isprime_graph);
        lib.register("wordcount_wf", workflows::word_count_graph);
        lib.register("anomaly_wf", || workflows::anomaly_graph(50.0));
        lib.register("doubler_wf", workflows::doubler_graph);
        lib
    }

    /// The builders, for reading. A poisoned lock is handed on, not
    /// re-raised: the map is only ever inserted into.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, Builder>> {
        self.builders.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register (or replace) a builder under `name`.
    pub fn register<F>(&self, name: &str, builder: F)
    where
        F: Fn() -> WorkflowGraph + Send + Sync + 'static,
    {
        self.builders
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), Arc::new(builder));
    }

    /// Build a fresh graph for `name`.
    pub fn build(&self, name: &str) -> Option<WorkflowGraph> {
        let b = self.read().get(name).cloned()?;
        Some(b())
    }

    pub fn contains(&self, name: &str) -> bool {
        self.read().contains_key(name)
    }

    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_workflows_present_and_buildable() {
        let lib = WorkflowLibrary::with_stock_workflows();
        assert_eq!(
            lib.names(),
            vec!["anomaly_wf", "doubler_wf", "isprime_wf", "wordcount_wf"]
        );
        for name in lib.names() {
            let g = lib.build(&name).unwrap();
            assert!(g.validate().is_ok(), "{name}");
        }
    }

    #[test]
    fn custom_registration_and_replacement() {
        let lib = WorkflowLibrary::new();
        assert!(!lib.contains("custom"));
        lib.register("custom", workflows::doubler_graph);
        assert!(lib.contains("custom"));
        let g1 = lib.build("custom").unwrap();
        assert_eq!(g1.name, "doubler_wf");
        lib.register("custom", workflows::isprime_graph);
        let g2 = lib.build("custom").unwrap();
        assert_eq!(g2.name, "isprime_wf", "replacement takes effect");
    }

    #[test]
    fn unknown_name_returns_none() {
        assert!(WorkflowLibrary::new().build("nope").is_none());
    }

    #[test]
    fn builders_mint_fresh_graphs() {
        let lib = WorkflowLibrary::with_stock_workflows();
        let a = lib.build("isprime_wf").unwrap();
        let b = lib.build("isprime_wf").unwrap();
        // Distinct instances (no shared state between runs).
        assert_eq!(a.nodes.len(), b.nodes.len());
    }
}
