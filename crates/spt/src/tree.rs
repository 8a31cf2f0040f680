//! Simplified Parse Tree construction.
//!
//! An SPT keeps the hierarchical structure of the parse tree but abstracts
//! non-essential detail (paper §II-E): single-child chains are collapsed,
//! and each internal node carries a *label* built from its direct children —
//! keywords and operators appear verbatim, everything else becomes a `__`
//! placeholder. `if x < 2 : return x` thus labels as `if __ : __` at the
//! statement level, which is what makes structurally-similar code align
//! regardless of the identifiers and literals involved.

use crate::features::{extract_features, feature_ids, Feature};
use crate::locals::local_variables;
use crate::vector::FeatureVec;
use pyparse::{NodeId, NodeKind, ParseTree, SyntaxKind, TokKind, Token};
use std::collections::HashSet;

/// Index of a node in the [`Spt`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SptNodeId(pub u32);

impl SptNodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One SPT node: either a leaf token or an internal node with a label.
#[derive(Debug, Clone)]
pub enum SptNode {
    /// Leaf: original token text, its kind, and whether it is a detected
    /// local variable (globalised to `#VAR` during featurisation).
    Leaf {
        text: String,
        kind: TokKind,
        is_variable: bool,
    },
    /// Internal node with its simplified label and children.
    Internal {
        label: String,
        kind: SyntaxKind,
        children: Vec<SptNodeId>,
    },
}

/// A Simplified Parse Tree.
#[derive(Debug, Clone, Default)]
pub struct Spt {
    pub nodes: Vec<SptNode>,
    pub root: Option<SptNodeId>,
    /// Local variable names detected in the source (already applied to the
    /// `is_variable` flags; kept for inspection and tests).
    pub variables: HashSet<String>,
    /// Parse diagnostics carried over from the underlying parse.
    pub parse_errors: usize,
}

impl Spt {
    /// Parse `src` and build its SPT. Never fails; a malformed snippet
    /// yields the SPT of whatever could be parsed (`parse_errors` counts
    /// the diagnostics).
    pub fn parse_source(src: &str) -> Spt {
        let tree = pyparse::parse(src);
        Spt::from_parse_tree(&tree)
    }

    /// Build the SPT of an already-parsed tree.
    pub fn from_parse_tree(tree: &ParseTree) -> Spt {
        let variables = local_variables(tree);
        let mut spt = Spt {
            nodes: Vec::new(),
            root: None,
            variables,
            parse_errors: tree.errors.len(),
        };
        if let Some(root) = tree.root {
            let id = spt.build(tree, root);
            spt.root = id;
        }
        spt
    }

    fn push(&mut self, node: SptNode) -> SptNodeId {
        let id = SptNodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    fn build(&mut self, tree: &ParseTree, id: NodeId) -> Option<SptNodeId> {
        match &tree.node(id).kind {
            NodeKind::Leaf(tok) => self.build_leaf(tok),
            NodeKind::Internal(kind) => {
                let mut children = Vec::new();
                for &c in &tree.node(id).children {
                    if let Some(sc) = self.build(tree, c) {
                        children.push(sc);
                    }
                }
                match children.len() {
                    0 => None,
                    // Collapse single-child chains: the SPT abstracts away
                    // trivial unary productions.
                    1 => Some(children[0]),
                    _ => {
                        let label = self.label_of(&children);
                        Some(self.push(SptNode::Internal {
                            label,
                            kind: *kind,
                            children,
                        }))
                    }
                }
            }
        }
    }

    fn build_leaf(&mut self, tok: &Token) -> Option<SptNodeId> {
        if tok.kind.is_synthetic() {
            return None;
        }
        let is_variable = tok.kind == TokKind::Name && self.variables.contains(&tok.text);
        Some(self.push(SptNode::Leaf {
            text: tok.text.clone(),
            kind: tok.kind,
            is_variable,
        }))
    }

    /// Label = direct children rendered: keywords/operators verbatim,
    /// everything else `__`.
    fn label_of(&self, children: &[SptNodeId]) -> String {
        let mut s = String::new();
        for &c in children {
            if !s.is_empty() {
                s.push(' ');
            }
            match &self.nodes[c.index()] {
                SptNode::Leaf {
                    text,
                    kind: TokKind::Keyword | TokKind::Op,
                    ..
                } => s.push_str(text),
                _ => s.push_str("__"),
            }
        }
        s
    }

    /// Label of an internal node ("" for leaves).
    pub fn label(&self, id: SptNodeId) -> &str {
        match &self.nodes[id.index()] {
            SptNode::Internal { label, .. } => label,
            SptNode::Leaf { .. } => "",
        }
    }

    pub fn children(&self, id: SptNodeId) -> &[SptNodeId] {
        match &self.nodes[id.index()] {
            SptNode::Internal { children, .. } => children,
            SptNode::Leaf { .. } => &[],
        }
    }

    pub fn is_leaf(&self, id: SptNodeId) -> bool {
        matches!(self.nodes[id.index()], SptNode::Leaf { .. })
    }

    /// Leaf ids in source order under `id`.
    pub fn leaves_under(&self, id: SptNodeId) -> Vec<SptNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            match &self.nodes[n.index()] {
                SptNode::Leaf { .. } => out.push(n),
                SptNode::Internal { children, .. } => {
                    for &c in children.iter().rev() {
                        stack.push(c);
                    }
                }
            }
        }
        out
    }

    /// Number of nodes in the whole SPT.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Extract the Aroma features of the whole tree.
    pub fn features(&self) -> Vec<Feature> {
        extract_features(self)
    }

    /// Hash the features into a sparse vector — the `sptEmbedding` the
    /// registry stores (paper §VI).
    pub fn feature_vec(&self) -> FeatureVec {
        FeatureVec::from_ids(feature_ids(self))
    }

    /// Pretty-print (indented labels + tokens), for debugging and tests.
    pub fn dump(&self) -> String {
        fn go(spt: &Spt, id: SptNodeId, depth: usize, out: &mut String) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            match &spt.nodes[id.index()] {
                SptNode::Leaf { text, is_variable, .. } => {
                    if *is_variable {
                        out.push_str(&format!("#VAR({text})\n"));
                    } else {
                        out.push_str(text);
                        out.push('\n');
                    }
                }
                SptNode::Internal { label, children, .. } => {
                    out.push_str(&format!("[{label}]\n"));
                    for &c in children {
                        go(spt, c, depth + 1, out);
                    }
                }
            }
        }
        let mut s = String::new();
        if let Some(r) = self.root {
            go(self, r, 0, &mut s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_source() {
        let spt = Spt::parse_source("");
        assert!(spt.root.is_none());
        assert_eq!(spt.size(), 0);
        assert_eq!(spt.feature_vec().len(), 0);
    }

    #[test]
    fn if_statement_label() {
        let spt = Spt::parse_source("if x < 2:\n    return x\n");
        let dump = spt.dump();
        assert!(dump.contains("[if __ : __]"), "{dump}");
    }

    #[test]
    fn single_child_chains_collapse() {
        // `x` alone would be Module -> ExprStmt -> leaf; the SPT must be
        // just the leaf.
        let spt = Spt::parse_source("x\n");
        assert_eq!(spt.size(), 1);
        assert!(spt.is_leaf(spt.root.unwrap()));
    }

    #[test]
    fn variables_are_flagged() {
        let spt = Spt::parse_source("def f(a, b):\n    c = a + b\n    return c\n");
        assert!(spt.variables.contains("a"));
        assert!(spt.variables.contains("b"));
        assert!(spt.variables.contains("c"));
        assert!(!spt.variables.contains("f"), "function name is not a variable");
        let dump = spt.dump();
        assert!(dump.contains("#VAR(a)"), "{dump}");
    }

    #[test]
    fn builtins_and_attributes_not_variables() {
        let spt = Spt::parse_source("def f(x):\n    return len(x.items)\n");
        assert!(!spt.variables.contains("len"));
        assert!(!spt.variables.contains("items"));
        assert!(spt.variables.contains("x"));
    }

    #[test]
    fn structure_insensitive_to_renaming() {
        // The paper's core claim: structurally identical code with renamed
        // variables produces (nearly) identical SPT features.
        let a = Spt::parse_source("def f(a):\n    if a > 0:\n        return a * 2\n");
        let b = Spt::parse_source("def f(qq):\n    if qq > 0:\n        return qq * 2\n");
        let sim = a.feature_vec().cosine(&b.feature_vec());
        assert!(sim > 0.95, "rename similarity {sim}");
    }

    #[test]
    fn different_structure_scores_lower() {
        let a = Spt::parse_source("def f(a):\n    if a > 0:\n        return a * 2\n");
        let c = Spt::parse_source("def g(s):\n    with open(s) as fh:\n        return fh.read()\n");
        let ab = a.feature_vec().cosine(&a.feature_vec());
        let ac = a.feature_vec().cosine(&c.feature_vec());
        assert!(ac < ab);
        assert!(ac < 0.6, "unrelated code similarity {ac}");
    }

    #[test]
    fn partial_snippet_shares_features_with_full() {
        let full = "def process(self, data):\n    total = 0\n    for item in data:\n        total += item\n    return total\n";
        let half = pyparse::drop_suffix_fraction(full, 0.5);
        let f = Spt::parse_source(full).feature_vec();
        let h = Spt::parse_source(&half).feature_vec();
        let sim = f.cosine(&h);
        assert!(sim > 0.4, "prefix similarity {sim}");
    }

    #[test]
    fn leaves_in_source_order() {
        let spt = Spt::parse_source("a = b + c\n");
        let leaves = spt.leaves_under(spt.root.unwrap());
        let texts: Vec<_> = leaves
            .iter()
            .map(|&l| match &spt.nodes[l.index()] {
                SptNode::Leaf { text, .. } => text.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(texts, vec!["a", "=", "b", "+", "c"]);
    }

    #[test]
    fn parse_errors_counted() {
        let spt = Spt::parse_source("def f(:\n");
        assert!(spt.parse_errors > 0);
    }
}
