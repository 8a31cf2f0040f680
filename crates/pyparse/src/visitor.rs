//! Pre-order tree traversal with enter/leave callbacks.
//!
//! The SPT builder and the description generator both need depth-aware
//! walks; this tiny visitor keeps that logic in one place.

use crate::token::Token;
use crate::tree::{NodeId, NodeKind, ParseTree, SyntaxKind};

/// Callbacks for [`walk`]. All methods have empty defaults, so visitors
/// implement only what they need.
pub trait Visit {
    /// Called when entering an internal node, before its children.
    fn enter(&mut self, _tree: &ParseTree, _id: NodeId, _kind: SyntaxKind, _depth: usize) {}
    /// Called when leaving an internal node, after its children.
    fn leave(&mut self, _tree: &ParseTree, _id: NodeId, _kind: SyntaxKind, _depth: usize) {}
    /// Called for each leaf token.
    fn token(&mut self, _tree: &ParseTree, _id: NodeId, _tok: &Token, _depth: usize) {}
}

/// Depth-first pre-order walk from `start` (use `tree.root` for the whole
/// tree). Iterative, so pathological deep trees cannot overflow the stack.
pub fn walk<V: Visit>(tree: &ParseTree, start: NodeId, v: &mut V) {
    enum Step {
        Enter(NodeId, usize),
        Leave(NodeId, usize),
    }
    let mut stack = vec![Step::Enter(start, 0)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Enter(id, depth) => match &tree.node(id).kind {
                NodeKind::Leaf(tok) => v.token(tree, id, tok, depth),
                NodeKind::Internal(kind) => {
                    v.enter(tree, id, *kind, depth);
                    stack.push(Step::Leave(id, depth));
                    for &c in tree.node(id).children.iter().rev() {
                        stack.push(Step::Enter(c, depth + 1));
                    }
                }
            },
            Step::Leave(id, depth) => {
                if let NodeKind::Internal(kind) = &tree.node(id).kind {
                    v.leave(tree, id, *kind, depth);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
    }

    impl Visit for Recorder {
        fn enter(&mut self, _t: &ParseTree, _id: NodeId, kind: SyntaxKind, depth: usize) {
            self.events.push(format!("enter {} @{depth}", kind.name()));
        }
        fn leave(&mut self, _t: &ParseTree, _id: NodeId, kind: SyntaxKind, depth: usize) {
            self.events.push(format!("leave {} @{depth}", kind.name()));
        }
        fn token(&mut self, _t: &ParseTree, _id: NodeId, tok: &Token, _depth: usize) {
            self.events.push(format!("tok {tok}"));
        }
    }

    #[test]
    fn enter_leave_balance() {
        let t = parse("def f():\n    return 1\n");
        let mut r = Recorder::default();
        walk(&t, t.root.unwrap(), &mut r);
        let enters = r.events.iter().filter(|e| e.starts_with("enter")).count();
        let leaves = r.events.iter().filter(|e| e.starts_with("leave")).count();
        assert_eq!(enters, leaves);
        assert_eq!(r.events.first().unwrap(), "enter module @0");
        assert_eq!(r.events.last().unwrap(), "leave module @0");
    }

    #[test]
    fn tokens_in_source_order() {
        let t = parse("x = 1 + 2\n");
        let mut r = Recorder::default();
        walk(&t, t.root.unwrap(), &mut r);
        let toks: Vec<_> = r
            .events
            .iter()
            .filter(|e| e.starts_with("tok"))
            .cloned()
            .collect();
        assert_eq!(toks, vec!["tok x", "tok =", "tok 1", "tok +", "tok 2"]);
    }

    #[test]
    fn deep_tree_does_not_overflow() {
        // 300 nested unary minuses — about as deep as the parser's own
        // nesting budget lets a tree get; the walker must be iterative
        // regardless.
        let src = format!("x = {}1\n", "-".repeat(300));
        let t = parse(&src);
        assert!(t.errors.is_empty());
        let mut r = Recorder::default();
        walk(&t, t.root.unwrap(), &mut r);
        assert!(r.events.len() > 600);
    }
}
