//! Auto-import dependency management (paper §III: "supports auto-import
//! mechanisms for dependency management").
//!
//! The engine scans the registered workflow's Python source for `import` /
//! `from … import` statements, classifies each root module against a
//! simulated package index (standard library, already-installed cache, or
//! known-on-PyPI), and "installs" anything missing by adding it to the
//! cache — so the second execution of the same workflow resolves instantly,
//! exactly the behaviour the paper's engine exhibits.

use pyparse::{SyntaxKind, TokKind};
use std::collections::BTreeSet;
use std::sync::{PoisonError, RwLock};

/// Python standard-library roots the simulated index treats as built-in.
const STDLIB: &[&str] = &[
    "abc", "argparse", "asyncio", "base64", "collections", "csv", "dataclasses", "datetime",
    "functools", "glob", "hashlib", "heapq", "io", "itertools", "json", "logging", "math",
    "multiprocessing", "os", "pathlib", "pickle", "queue", "random", "re", "shutil", "socket",
    "string", "struct", "subprocess", "sys", "tempfile", "threading", "time", "typing", "urllib",
    "uuid",
];

/// Packages the simulated PyPI knows about (installable).
const KNOWN_PYPI: &[&str] = &[
    "dispel4py", "flask", "numpy", "pandas", "redis", "requests", "scipy", "sklearn", "torch",
];

/// How one imported root module was resolved.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ImportResolution {
    /// Python standard library — nothing to do.
    Stdlib(String),
    /// Already in the engine's package cache.
    Cached(String),
    /// Freshly installed into the cache (simulated `pip install`).
    Installed(String),
    /// Unknown to the index — the workflow would fail on this import.
    Unresolved(String),
}

impl ImportResolution {
    pub fn module(&self) -> &str {
        match self {
            ImportResolution::Stdlib(m)
            | ImportResolution::Cached(m)
            | ImportResolution::Installed(m)
            | ImportResolution::Unresolved(m) => m,
        }
    }
}

/// The simulated package index + install cache.
#[derive(Default)]
pub struct PackageIndex {
    installed: RwLock<BTreeSet<String>>,
}

impl PackageIndex {
    pub fn new() -> Self {
        PackageIndex::default()
    }

    pub fn is_installed(&self, module: &str) -> bool {
        self.installed
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(module)
    }

    pub fn installed_count(&self) -> usize {
        self.installed
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Resolve one root module name.
    pub fn resolve(&self, module: &str) -> ImportResolution {
        if STDLIB.binary_search(&module).is_ok() {
            return ImportResolution::Stdlib(module.to_string());
        }
        if self.is_installed(module) {
            return ImportResolution::Cached(module.to_string());
        }
        if KNOWN_PYPI.binary_search(&module).is_ok() {
            self.installed
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(module.to_string());
            return ImportResolution::Installed(module.to_string());
        }
        ImportResolution::Unresolved(module.to_string())
    }
}

/// Extract the *root* modules imported by `code` (both statement forms;
/// relative imports are local to the workflow bundle and skipped).
pub fn imported_modules(code: &str) -> Vec<String> {
    let tree = pyparse::parse(code);
    let mut roots: BTreeSet<String> = BTreeSet::new();
    for kind in [SyntaxKind::ImportStmt, SyntaxKind::ImportFromStmt] {
        for node in tree.find_kind(kind) {
            match kind {
                SyntaxKind::ImportStmt => {
                    // Every ImportAlias child's first Name is a root module.
                    for &c in &tree.node(node).children {
                        if tree.kind(c) == Some(SyntaxKind::ImportAlias) {
                            if let Some(tok) = tree
                                .node(c)
                                .children
                                .iter()
                                .filter_map(|&cc| tree.leaf(cc))
                                .find(|t| t.kind == TokKind::Name)
                            {
                                roots.insert(tok.text.clone());
                            }
                        }
                    }
                }
                SyntaxKind::ImportFromStmt => {
                    // `from X.Y import Z` → root X; `from . import Z` → skip.
                    let mut found_from = false;
                    for &c in &tree.node(node).children {
                        if let Some(tok) = tree.leaf(c) {
                            if tok.is_kw("from") {
                                found_from = true;
                                continue;
                            }
                            if tok.is_kw("import") {
                                break;
                            }
                            if found_from && tok.kind == TokKind::Name {
                                roots.insert(tok.text.clone());
                                break;
                            }
                            if found_from && (tok.is_op(".") || tok.is_op("...")) {
                                break; // relative import
                            }
                        }
                    }
                }
                _ => unreachable!(),
            }
        }
    }
    roots.into_iter().collect()
}

/// Resolve every import in `code` against `index`.
pub fn resolve_imports(code: &str, index: &PackageIndex) -> Vec<ImportResolution> {
    imported_modules(code)
        .iter()
        .map(|m| index.resolve(m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_sorted_for_binary_search() {
        let mut s = STDLIB.to_vec();
        s.sort_unstable();
        assert_eq!(s, STDLIB);
        let mut k = KNOWN_PYPI.to_vec();
        k.sort_unstable();
        assert_eq!(k, KNOWN_PYPI);
    }

    #[test]
    fn extracts_root_modules() {
        let code = "\
import os
import os.path
import numpy as np
from collections import deque
from dispel4py.base import IterativePE
from . import sibling
from ..pkg import thing
";
        let mods = imported_modules(code);
        assert_eq!(mods, vec!["collections", "dispel4py", "numpy", "os"]);
    }

    #[test]
    fn resolution_classes() {
        let ix = PackageIndex::new();
        assert_eq!(ix.resolve("os"), ImportResolution::Stdlib("os".into()));
        assert_eq!(ix.resolve("numpy"), ImportResolution::Installed("numpy".into()));
        // Second resolution hits the cache — the §IV-F caching behaviour.
        assert_eq!(ix.resolve("numpy"), ImportResolution::Cached("numpy".into()));
        assert_eq!(
            ix.resolve("totally_private_pkg"),
            ImportResolution::Unresolved("totally_private_pkg".into())
        );
        assert_eq!(ix.installed_count(), 1);
    }

    #[test]
    fn resolve_imports_end_to_end() {
        let ix = PackageIndex::new();
        let code = "import random\nimport redis\nfrom mystery import thing\n";
        let res = resolve_imports(code, &ix);
        assert_eq!(res.len(), 3);
        assert!(res.contains(&ImportResolution::Unresolved("mystery".into())));
        assert!(res.contains(&ImportResolution::Installed("redis".into())));
        assert!(res.contains(&ImportResolution::Stdlib("random".into())));
    }

    #[test]
    fn no_imports_no_resolutions() {
        let ix = PackageIndex::new();
        assert!(resolve_imports("x = 1\n", &ix).is_empty());
        assert!(resolve_imports("", &ix).is_empty());
    }

    #[test]
    fn malformed_code_still_scanned() {
        let ix = PackageIndex::new();
        let res = resolve_imports("import json\ndef broken(:\n", &ix);
        assert_eq!(res, vec![ImportResolution::Stdlib("json".into())]);
    }
}
