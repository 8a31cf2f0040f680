//! Error-tolerant recursive-descent parser.
//!
//! Produces a concrete [`ParseTree`] — internal nodes for grammar
//! productions, leaves for *every* kept token (keywords, operators,
//! punctuation, names, literals). The parser mirrors the shape of the
//! Python 3 reference grammar closely enough that the SPTs derived from it
//! match what the paper's ANTLR pipeline would produce.
//!
//! Recovery discipline: any statement that fails to parse becomes an
//! [`SyntaxKind::ErrorNode`] containing the skipped tokens, and parsing
//! resumes at the next statement boundary. A truncated input (the 50/75/90 %
//! omission experiments of §VII-D) therefore still yields a tree covering
//! everything before the truncation point.
//!
//! Nesting is budgeted (`MAX_DEPTH`): the parser is recursive, its
//! input arrives from the network, and a stack overflow aborts the whole
//! process. Past the budget the rest of the logical line is dropped
//! behind an `ErrorNode` and parsing carries on with the next line —
//! hostile nesting degrades to a partial tree like any other malformed
//! input.

use crate::lexer::lex;
use crate::token::{TokKind, Token};
use crate::tree::{NodeId, NodeKind, ParseTree, SyntaxKind};
use std::fmt;

/// A (recoverable) parse diagnostic. The parser never fails outright; these
/// are collected on [`ParseTree::errors`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a module. Never fails: diagnostics end up in `tree.errors`.
pub fn parse(src: &str) -> ParseTree {
    let (toks, lex_errors) = lex(src);
    let mut p = Parser::new(toks);
    let root = p.parse_module();
    let mut tree = p.tree;
    tree.root = Some(root);
    for e in lex_errors {
        tree.errors.push(e.to_string());
    }
    for e in p.errors {
        tree.errors.push(e.to_string());
    }
    tree
}

/// Parse a single expression (e.g. a search query fragment).
pub fn parse_expression(src: &str) -> ParseTree {
    let (toks, lex_errors) = lex(src);
    let mut p = Parser::new(toks);
    let root = p.parse_testlist_star();
    let mut tree = p.tree;
    tree.root = Some(root);
    for e in lex_errors {
        tree.errors.push(e.to_string());
    }
    for e in p.errors {
        tree.errors.push(e.to_string());
    }
    tree
}

/// How many budgeted productions (statement, test, not-test, factor,
/// atom, target atom — every recursion cycle of the grammar runs through
/// one of them) may be in flight at once. One bracket level costs four,
/// one block level one, so this admits 100 nested brackets and 400 nested
/// blocks — CPython itself stops at 200 and 100 — and keeps the deepest
/// descent under 1 MiB of stack in a debug build, half of what a spawned
/// thread gets by default.
const MAX_DEPTH: usize = 400;

/// Recursive-descent parser state.
pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
    pub(crate) tree: ParseTree,
    errors: Vec<ParseError>,
    /// Budgeted productions currently in flight (see `MAX_DEPTH`).
    depth: usize,
}

impl Parser {
    pub fn new(toks: Vec<Token>) -> Self {
        Parser {
            toks,
            pos: 0,
            tree: ParseTree::new(),
            errors: Vec::new(),
            depth: 0,
        }
    }

    // ---- token helpers -------------------------------------------------

    fn cur(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn peek(&self, off: usize) -> &Token {
        let i = (self.pos + off).min(self.toks.len() - 1);
        &self.toks[i]
    }

    fn at_eof(&self) -> bool {
        self.cur().kind == TokKind::Eof
    }

    fn at_kw(&self, s: &str) -> bool {
        self.cur().is_kw(s)
    }

    fn at_op(&self, s: &str) -> bool {
        self.cur().is_op(s)
    }

    fn at_kind(&self, k: TokKind) -> bool {
        self.cur().kind == k
    }

    fn error_here(&mut self, msg: impl Into<String>) {
        let t = self.cur().clone();
        self.errors.push(ParseError {
            line: t.line,
            col: t.col,
            message: msg.into(),
        });
    }

    /// Consume the current token as a leaf child of `parent`.
    fn bump_into(&mut self, parent: NodeId) {
        if self.at_eof() {
            return;
        }
        let tok = self.toks[self.pos].clone();
        self.pos += 1;
        let leaf = self.tree.push(NodeKind::Leaf(tok));
        self.tree.add_child(parent, leaf);
    }

    /// Consume the current token without keeping it (layout tokens).
    fn skip(&mut self) {
        if !self.at_eof() {
            self.pos += 1;
        }
    }

    fn expect_op(&mut self, s: &str, parent: NodeId) {
        if self.at_op(s) {
            self.bump_into(parent);
        } else {
            self.error_here(format!("expected '{s}', found '{}'", self.cur()));
        }
    }

    fn expect_kw(&mut self, s: &str, parent: NodeId) {
        if self.at_kw(s) {
            self.bump_into(parent);
        } else {
            self.error_here(format!("expected keyword '{s}', found '{}'", self.cur()));
        }
    }

    fn expect_name(&mut self, parent: NodeId) {
        if self.at_kind(TokKind::Name) {
            self.bump_into(parent);
        } else {
            self.error_here(format!("expected name, found '{}'", self.cur()));
        }
    }

    fn expect_newline(&mut self) {
        if self.at_kind(TokKind::Newline) {
            self.skip();
        } else if !self.at_eof() && !self.at_kind(TokKind::Dedent) {
            self.error_here(format!("expected end of line, found '{}'", self.cur()));
            self.recover_to_line_end();
        }
    }

    /// Skip tokens up to and including the next NEWLINE (or stop at
    /// DEDENT/EOF) — the statement-level synchronisation point.
    fn recover_to_line_end(&mut self) {
        loop {
            match self.cur().kind {
                TokKind::Newline => {
                    self.skip();
                    return;
                }
                TokKind::Dedent | TokKind::Eof => return,
                _ => self.skip(),
            }
        }
    }

    fn node(&mut self, kind: SyntaxKind) -> NodeId {
        self.tree.push(NodeKind::Internal(kind))
    }

    /// Run one budgeted production a level deeper. Over budget, the rest
    /// of the logical line (brackets suppress newlines, so that is the
    /// whole over-deep construct) is dropped and an empty `ErrorNode`
    /// stands in for it.
    fn nested(&mut self, production: fn(&mut Self) -> NodeId) -> NodeId {
        if self.depth >= MAX_DEPTH {
            self.error_here(format!("nesting deeper than {MAX_DEPTH} levels"));
            while !self.at_line_end() {
                self.skip();
            }
            return self.node(SyntaxKind::ErrorNode);
        }
        self.depth += 1;
        let n = production(self);
        self.depth -= 1;
        n
    }

    /// The left-nesting loops (`a + b + c`, `a.b.c`) deepen the *tree* by
    /// one level per operator without recursing, and the tree's consumers
    /// do recurse — so a chain gets the same budget. Over it the chain
    /// stops where it is; the statement's end-of-line check then reports
    /// and drops what is left.
    fn chain_room(&mut self, links: &mut usize) -> bool {
        *links += 1;
        if *links > MAX_DEPTH {
            self.error_here(format!("operator chain longer than {MAX_DEPTH}"));
            return false;
        }
        true
    }

    // ---- module & statements -------------------------------------------

    pub fn parse_module(&mut self) -> NodeId {
        let module = self.node(SyntaxKind::Module);
        while !self.at_eof() {
            // Tolerate stray layout tokens at top level (truncated inputs).
            if matches!(self.cur().kind, TokKind::Newline | TokKind::Indent | TokKind::Dedent) {
                self.skip();
                continue;
            }
            let before = self.pos;
            let stmt = self.parse_statement();
            self.tree.add_child(module, stmt);
            if self.pos == before {
                // Defensive: guarantee progress even on pathological input.
                self.skip();
            }
        }
        module
    }

    fn parse_statement(&mut self) -> NodeId {
        self.nested(Self::statement)
    }

    fn statement(&mut self) -> NodeId {
        if self.at_op("@") {
            return self.parse_decorated();
        }
        if self.at_kw("async") {
            // async def / async for / async with — parse the underlying
            // statement and prepend the `async` leaf.
            let kw = self.toks[self.pos].clone();
            self.pos += 1;
            let inner = self.parse_statement();
            let leaf = self.tree.push(NodeKind::Leaf(kw));
            // Prepend: re-order children so `async` comes first.
            self.tree.nodes[inner.index()].children.insert(0, leaf);
            self.tree.nodes[leaf.index()].parent = Some(inner);
            return inner;
        }
        let kw = if self.cur().kind == TokKind::Keyword {
            self.cur().text.as_str()
        } else {
            ""
        };
        match kw {
            "if" => self.parse_if(),
            "while" => self.parse_while(),
            "for" => self.parse_for(),
            "try" => self.parse_try(),
            "with" => self.parse_with(),
            "def" => self.parse_funcdef(),
            "class" => self.parse_classdef(),
            _ => self.parse_simple_stmt_line(),
        }
    }

    fn parse_decorated(&mut self) -> NodeId {
        // Decorators attach to the following def/class by becoming its
        // leading children (keeps the tree flat, as ANTLR's `decorated`
        // production effectively does).
        let mut decs = Vec::new();
        while self.at_op("@") {
            let d = self.node(SyntaxKind::Decorator);
            self.bump_into(d); // @
            let expr = self.parse_test();
            self.tree.add_child(d, expr);
            self.expect_newline();
            decs.push(d);
        }
        let def = if self.at_kw("class") {
            self.parse_classdef()
        } else if self.at_kw("def") || self.at_kw("async") {
            if self.at_kw("async") {
                // Reuse the async path in parse_statement.
                self.parse_statement()
            } else {
                self.parse_funcdef()
            }
        } else {
            self.error_here("expected 'def' or 'class' after decorator");
            self.parse_simple_stmt_line()
        };
        for (i, d) in decs.into_iter().enumerate() {
            self.tree.nodes[def.index()].children.insert(i, d);
            self.tree.nodes[d.index()].parent = Some(def);
        }
        def
    }

    fn parse_classdef(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::ClassDef);
        self.expect_kw("class", n);
        self.expect_name(n);
        if self.at_op("(") {
            self.bump_into(n);
            if !self.at_op(")") {
                self.parse_arglist_into(n);
            }
            self.expect_op(")", n);
        }
        self.expect_op(":", n);
        let body = self.parse_block();
        self.tree.add_child(n, body);
        n
    }

    fn parse_funcdef(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::FuncDef);
        self.expect_kw("def", n);
        self.expect_name(n);
        let params = self.node(SyntaxKind::Parameters);
        self.expect_op("(", params);
        while !self.at_op(")") && !self.at_eof() && !self.at_kind(TokKind::Newline) {
            let p = self.node(SyntaxKind::Param);
            if self.at_op("*") || self.at_op("**") {
                self.bump_into(p);
            }
            if self.at_kind(TokKind::Name) {
                self.bump_into(p);
            } else if !self.at_op(",") && !self.at_op(")") {
                self.error_here(format!("expected parameter, found '{}'", self.cur()));
                self.skip();
            }
            if self.at_op(":") {
                self.bump_into(p);
                let ann = self.parse_test();
                self.tree.add_child(p, ann);
            }
            if self.at_op("=") {
                self.bump_into(p);
                let default = self.parse_test();
                self.tree.add_child(p, default);
            }
            self.tree.add_child(params, p);
            if self.at_op(",") {
                self.bump_into(params);
            } else {
                break;
            }
        }
        self.expect_op(")", params);
        self.tree.add_child(n, params);
        if self.at_op("->") {
            self.bump_into(n);
            let ret = self.parse_test();
            self.tree.add_child(n, ret);
        }
        self.expect_op(":", n);
        let body = self.parse_block();
        self.tree.add_child(n, body);
        n
    }

    fn parse_if(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::IfStmt);
        self.expect_kw("if", n);
        let cond = self.parse_namedexpr();
        self.tree.add_child(n, cond);
        self.expect_op(":", n);
        let body = self.parse_block();
        self.tree.add_child(n, body);
        while self.at_kw("elif") {
            let e = self.node(SyntaxKind::ElifClause);
            self.bump_into(e);
            let c = self.parse_namedexpr();
            self.tree.add_child(e, c);
            self.expect_op(":", e);
            let b = self.parse_block();
            self.tree.add_child(e, b);
            self.tree.add_child(n, e);
        }
        if self.at_kw("else") {
            let e = self.node(SyntaxKind::ElseClause);
            self.bump_into(e);
            self.expect_op(":", e);
            let b = self.parse_block();
            self.tree.add_child(e, b);
            self.tree.add_child(n, e);
        }
        n
    }

    fn parse_while(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::WhileStmt);
        self.expect_kw("while", n);
        let cond = self.parse_namedexpr();
        self.tree.add_child(n, cond);
        self.expect_op(":", n);
        let body = self.parse_block();
        self.tree.add_child(n, body);
        if self.at_kw("else") {
            let e = self.node(SyntaxKind::ElseClause);
            self.bump_into(e);
            self.expect_op(":", e);
            let b = self.parse_block();
            self.tree.add_child(e, b);
            self.tree.add_child(n, e);
        }
        n
    }

    fn parse_for(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::ForStmt);
        self.expect_kw("for", n);
        let target = self.parse_target_list();
        self.tree.add_child(n, target);
        self.expect_kw("in", n);
        let iter = self.parse_testlist_star();
        self.tree.add_child(n, iter);
        self.expect_op(":", n);
        let body = self.parse_block();
        self.tree.add_child(n, body);
        if self.at_kw("else") {
            let e = self.node(SyntaxKind::ElseClause);
            self.bump_into(e);
            self.expect_op(":", e);
            let b = self.parse_block();
            self.tree.add_child(e, b);
            self.tree.add_child(n, e);
        }
        n
    }

    fn parse_try(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::TryStmt);
        self.expect_kw("try", n);
        self.expect_op(":", n);
        let body = self.parse_block();
        self.tree.add_child(n, body);
        while self.at_kw("except") {
            let e = self.node(SyntaxKind::ExceptClause);
            self.bump_into(e);
            if !self.at_op(":") {
                let exc = self.parse_test();
                self.tree.add_child(e, exc);
                if self.at_kw("as") {
                    self.bump_into(e);
                    self.expect_name(e);
                }
            }
            self.expect_op(":", e);
            let b = self.parse_block();
            self.tree.add_child(e, b);
            self.tree.add_child(n, e);
        }
        if self.at_kw("else") {
            let e = self.node(SyntaxKind::ElseClause);
            self.bump_into(e);
            self.expect_op(":", e);
            let b = self.parse_block();
            self.tree.add_child(e, b);
            self.tree.add_child(n, e);
        }
        if self.at_kw("finally") {
            let e = self.node(SyntaxKind::FinallyClause);
            self.bump_into(e);
            self.expect_op(":", e);
            let b = self.parse_block();
            self.tree.add_child(e, b);
            self.tree.add_child(n, e);
        }
        n
    }

    fn parse_with(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::WithStmt);
        self.expect_kw("with", n);
        loop {
            let item = self.node(SyntaxKind::WithItem);
            let ctx = self.parse_test();
            self.tree.add_child(item, ctx);
            if self.at_kw("as") {
                self.bump_into(item);
                let target = self.parse_target_atom();
                self.tree.add_child(item, target);
            }
            self.tree.add_child(n, item);
            if self.at_op(",") {
                self.bump_into(n);
            } else {
                break;
            }
        }
        self.expect_op(":", n);
        let body = self.parse_block();
        self.tree.add_child(n, body);
        n
    }

    /// block: simple_stmts | NEWLINE INDENT statement+ DEDENT
    fn parse_block(&mut self) -> NodeId {
        let block = self.node(SyntaxKind::Block);
        if self.at_kind(TokKind::Newline) {
            self.skip();
            if self.at_kind(TokKind::Indent) {
                self.skip();
                while !self.at_kind(TokKind::Dedent) && !self.at_eof() {
                    if self.at_kind(TokKind::Newline) || self.at_kind(TokKind::Indent) {
                        self.skip();
                        continue;
                    }
                    let before = self.pos;
                    let stmt = self.parse_statement();
                    self.tree.add_child(block, stmt);
                    if self.pos == before {
                        self.skip();
                    }
                }
                if self.at_kind(TokKind::Dedent) {
                    self.skip();
                }
            } else if !self.at_eof() {
                self.error_here("expected an indented block");
            }
            // At EOF with no indent: an empty block (truncated input) — fine.
        } else if !self.at_eof() {
            // Inline suite: simple_stmt (';' simple_stmt)* NEWLINE
            loop {
                let stmt = self.parse_simple_stmt();
                self.tree.add_child(block, stmt);
                if self.at_op(";") {
                    self.skip();
                    if self.at_kind(TokKind::Newline) || self.at_eof() {
                        break;
                    }
                } else {
                    break;
                }
            }
            self.expect_newline();
        }
        block
    }

    /// One source line of `;`-separated simple statements.
    fn parse_simple_stmt_line(&mut self) -> NodeId {
        let first = self.parse_simple_stmt();
        if !self.at_op(";") {
            self.expect_newline();
            return first;
        }
        // Wrap multiple statements in an ExprStmt-like container only when
        // needed; reuse Block to hold them keeps kinds honest.
        let block = self.node(SyntaxKind::Block);
        self.tree.add_child(block, first);
        while self.at_op(";") {
            self.skip();
            if self.at_kind(TokKind::Newline) || self.at_eof() {
                break;
            }
            let s = self.parse_simple_stmt();
            self.tree.add_child(block, s);
        }
        self.expect_newline();
        block
    }

    fn parse_simple_stmt(&mut self) -> NodeId {
        let kw = if self.cur().kind == TokKind::Keyword {
            self.cur().text.as_str()
        } else {
            ""
        };
        match kw {
            "pass" => self.leaf_stmt(SyntaxKind::PassStmt),
            "break" => self.leaf_stmt(SyntaxKind::BreakStmt),
            "continue" => self.leaf_stmt(SyntaxKind::ContinueStmt),
            "return" => {
                let n = self.node(SyntaxKind::ReturnStmt);
                self.bump_into(n);
                if !self.at_line_end() {
                    let e = self.parse_testlist_star();
                    self.tree.add_child(n, e);
                }
                n
            }
            "raise" => {
                let n = self.node(SyntaxKind::RaiseStmt);
                self.bump_into(n);
                if !self.at_line_end() {
                    let e = self.parse_test();
                    self.tree.add_child(n, e);
                    if self.at_kw("from") {
                        self.bump_into(n);
                        let c = self.parse_test();
                        self.tree.add_child(n, c);
                    }
                }
                n
            }
            "global" | "nonlocal" => {
                let kind = if kw == "global" {
                    SyntaxKind::GlobalStmt
                } else {
                    SyntaxKind::NonlocalStmt
                };
                let n = self.node(kind);
                self.bump_into(n);
                self.expect_name(n);
                while self.at_op(",") {
                    self.bump_into(n);
                    self.expect_name(n);
                }
                n
            }
            "assert" => {
                let n = self.node(SyntaxKind::AssertStmt);
                self.bump_into(n);
                let e = self.parse_test();
                self.tree.add_child(n, e);
                if self.at_op(",") {
                    self.bump_into(n);
                    let m = self.parse_test();
                    self.tree.add_child(n, m);
                }
                n
            }
            "del" => {
                let n = self.node(SyntaxKind::DelStmt);
                self.bump_into(n);
                let t = self.parse_target_list();
                self.tree.add_child(n, t);
                n
            }
            "import" => {
                let n = self.node(SyntaxKind::ImportStmt);
                self.bump_into(n);
                self.parse_import_aliases(n);
                n
            }
            "from" => {
                let n = self.node(SyntaxKind::ImportFromStmt);
                self.bump_into(n);
                // dotted module path (possibly relative)
                while self.at_op(".") || self.at_op("...") {
                    self.bump_into(n);
                }
                if self.at_kind(TokKind::Name) {
                    self.bump_into(n);
                    while self.at_op(".") {
                        self.bump_into(n);
                        self.expect_name(n);
                    }
                }
                self.expect_kw("import", n);
                if self.at_op("*") {
                    self.bump_into(n);
                } else if self.at_op("(") {
                    self.bump_into(n);
                    self.parse_import_aliases(n);
                    self.expect_op(")", n);
                } else {
                    self.parse_import_aliases(n);
                }
                n
            }
            "yield" => {
                let n = self.node(SyntaxKind::YieldStmt);
                let y = self.parse_yield_expr();
                self.tree.add_child(n, y);
                n
            }
            _ => self.parse_expr_stmt(),
        }
    }

    fn parse_import_aliases(&mut self, parent: NodeId) {
        loop {
            let a = self.node(SyntaxKind::ImportAlias);
            self.expect_name(a);
            while self.at_op(".") {
                self.bump_into(a);
                self.expect_name(a);
            }
            if self.at_kw("as") {
                self.bump_into(a);
                self.expect_name(a);
            }
            self.tree.add_child(parent, a);
            if self.at_op(",") {
                self.bump_into(parent);
            } else {
                break;
            }
        }
    }

    fn leaf_stmt(&mut self, kind: SyntaxKind) -> NodeId {
        let n = self.node(kind);
        self.bump_into(n);
        n
    }

    fn at_line_end(&self) -> bool {
        matches!(
            self.cur().kind,
            TokKind::Newline | TokKind::Eof | TokKind::Dedent
        ) || self.at_op(";")
    }

    /// expr_stmt: testlist (annassign | augassign test | ('=' testlist)*)
    fn parse_expr_stmt(&mut self) -> NodeId {
        let first = self.parse_testlist_star();
        if self.at_op(":") {
            // Annotated assignment: `x: int = 5`
            let n = self.node(SyntaxKind::AnnAssign);
            self.tree.add_child(n, first);
            self.bump_into(n); // :
            let ann = self.parse_test();
            self.tree.add_child(n, ann);
            if self.at_op("=") {
                self.bump_into(n);
                let v = self.parse_testlist_star();
                self.tree.add_child(n, v);
            }
            return n;
        }
        const AUG: &[&str] = &[
            "+=", "-=", "*=", "/=", "//=", "%=", "**=", ">>=", "<<=", "&=", "|=", "^=", "@=",
        ];
        if self.cur().kind == TokKind::Op && AUG.contains(&self.cur().text.as_str()) {
            let n = self.node(SyntaxKind::AugAssign);
            self.tree.add_child(n, first);
            self.bump_into(n);
            let v = self.parse_testlist_star();
            self.tree.add_child(n, v);
            return n;
        }
        if self.at_op("=") {
            let n = self.node(SyntaxKind::Assign);
            self.tree.add_child(n, first);
            while self.at_op("=") {
                self.bump_into(n);
                let v = self.parse_testlist_star();
                self.tree.add_child(n, v);
            }
            return n;
        }
        let n = self.node(SyntaxKind::ExprStmt);
        self.tree.add_child(n, first);
        n
    }

    // ---- targets ---------------------------------------------------------

    fn parse_target_list(&mut self) -> NodeId {
        let first = self.parse_target_atom();
        if !self.at_op(",") {
            return first;
        }
        let n = self.node(SyntaxKind::TupleExpr);
        self.tree.add_child(n, first);
        while self.at_op(",") {
            self.bump_into(n);
            if self.at_kw("in") || self.at_op("=") || self.at_line_end() || self.at_op(":") {
                break;
            }
            let t = self.parse_target_atom();
            self.tree.add_child(n, t);
        }
        n
    }

    fn parse_target_atom(&mut self) -> NodeId {
        self.nested(Self::target_atom)
    }

    fn target_atom(&mut self) -> NodeId {
        if self.at_op("*") {
            let n = self.node(SyntaxKind::Starred);
            self.bump_into(n);
            let inner = self.parse_target_atom();
            self.tree.add_child(n, inner);
            return n;
        }
        // Targets share the postfix grammar (attribute/subscript chains).
        self.parse_postfix()
    }

    // ---- expressions ------------------------------------------------------

    /// testlist_star_expr: (test|star_expr) (',' (test|star_expr))* [',']
    pub fn parse_testlist_star(&mut self) -> NodeId {
        let first = self.parse_star_or_test();
        if !self.at_op(",") {
            return first;
        }
        let n = self.node(SyntaxKind::TupleExpr);
        self.tree.add_child(n, first);
        while self.at_op(",") {
            self.bump_into(n);
            if self.expr_terminator() {
                break;
            }
            let t = self.parse_star_or_test();
            self.tree.add_child(n, t);
        }
        n
    }

    fn expr_terminator(&self) -> bool {
        self.at_line_end()
            || self.at_op(")")
            || self.at_op("]")
            || self.at_op("}")
            || self.at_op("=")
            || self.at_op(":")
            || self.at_kw("in")
            || self.at_kw("for")
            || self.at_kw("if")
            || self.at_kw("else")
            || self.at_kw("as")
    }

    fn parse_star_or_test(&mut self) -> NodeId {
        if self.at_op("*") || self.at_op("**") {
            let n = self.node(SyntaxKind::Starred);
            self.bump_into(n);
            let inner = self.parse_test();
            self.tree.add_child(n, inner);
            return n;
        }
        self.parse_namedexpr()
    }

    /// namedexpr_test: test [':=' test]
    fn parse_namedexpr(&mut self) -> NodeId {
        let lhs = self.parse_test();
        if self.at_op(":=") {
            let n = self.node(SyntaxKind::WalrusExpr);
            self.tree.add_child(n, lhs);
            self.bump_into(n);
            let rhs = self.parse_test();
            self.tree.add_child(n, rhs);
            return n;
        }
        lhs
    }

    /// test: or_test ['if' or_test 'else' test] | lambdef
    pub fn parse_test(&mut self) -> NodeId {
        self.nested(Self::test)
    }

    fn test(&mut self) -> NodeId {
        if self.at_kw("lambda") {
            return self.parse_lambda();
        }
        if self.at_kw("yield") {
            return self.parse_yield_expr();
        }
        let body = self.parse_or_test();
        if self.at_kw("if") {
            let n = self.node(SyntaxKind::Ternary);
            self.tree.add_child(n, body);
            self.bump_into(n); // if
            let cond = self.parse_or_test();
            self.tree.add_child(n, cond);
            self.expect_kw("else", n);
            let other = self.parse_test();
            self.tree.add_child(n, other);
            return n;
        }
        body
    }

    fn parse_lambda(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::Lambda);
        self.expect_kw("lambda", n);
        let params = self.node(SyntaxKind::Parameters);
        while !self.at_op(":") && !self.at_line_end() {
            let p = self.node(SyntaxKind::Param);
            if self.at_op("*") || self.at_op("**") {
                self.bump_into(p);
            }
            if self.at_kind(TokKind::Name) {
                self.bump_into(p);
            } else if !self.at_op(",") {
                self.error_here(format!("expected lambda parameter, found '{}'", self.cur()));
                self.skip();
            }
            if self.at_op("=") {
                self.bump_into(p);
                let d = self.parse_test();
                self.tree.add_child(p, d);
            }
            self.tree.add_child(params, p);
            if self.at_op(",") {
                self.bump_into(params);
            } else {
                break;
            }
        }
        self.tree.add_child(n, params);
        self.expect_op(":", n);
        let body = self.parse_test();
        self.tree.add_child(n, body);
        n
    }

    fn parse_yield_expr(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::YieldExpr);
        self.expect_kw("yield", n);
        if self.at_kw("from") {
            self.bump_into(n);
            let e = self.parse_test();
            self.tree.add_child(n, e);
        } else if !self.at_line_end() && !self.at_op(")") && !self.at_op("]") && !self.at_op("}") {
            let e = self.parse_testlist_star();
            self.tree.add_child(n, e);
        }
        n
    }

    fn parse_or_test(&mut self) -> NodeId {
        let mut lhs = self.parse_and_test();
        let mut links = 0;
        while self.at_kw("or") && self.chain_room(&mut links) {
            let n = self.node(SyntaxKind::BoolOp);
            self.tree.add_child(n, lhs);
            self.bump_into(n);
            let rhs = self.parse_and_test();
            self.tree.add_child(n, rhs);
            lhs = n;
        }
        lhs
    }

    fn parse_and_test(&mut self) -> NodeId {
        let mut lhs = self.parse_not_test();
        let mut links = 0;
        while self.at_kw("and") && self.chain_room(&mut links) {
            let n = self.node(SyntaxKind::BoolOp);
            self.tree.add_child(n, lhs);
            self.bump_into(n);
            let rhs = self.parse_not_test();
            self.tree.add_child(n, rhs);
            lhs = n;
        }
        lhs
    }

    fn parse_not_test(&mut self) -> NodeId {
        self.nested(Self::not_test)
    }

    fn not_test(&mut self) -> NodeId {
        if self.at_kw("not") {
            let n = self.node(SyntaxKind::NotOp);
            self.bump_into(n);
            let e = self.parse_not_test();
            self.tree.add_child(n, e);
            return n;
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> NodeId {
        let lhs = self.parse_bitor();
        let at_comp = |p: &Self| {
            p.at_op("<")
                || p.at_op(">")
                || p.at_op("==")
                || p.at_op(">=")
                || p.at_op("<=")
                || p.at_op("!=")
                || p.at_kw("in")
                || p.at_kw("is")
                || (p.at_kw("not") && p.peek(1).is_kw("in"))
        };
        if !at_comp(self) {
            return lhs;
        }
        let n = self.node(SyntaxKind::Compare);
        self.tree.add_child(n, lhs);
        while at_comp(self) {
            // `not in` / `is not` are two tokens.
            self.bump_into(n);
            if (self.at_kw("in") && self.tree_last_leaf_is(n, "not"))
                || (self.at_kw("not") && self.tree_last_leaf_is(n, "is"))
            {
                self.bump_into(n);
            }
            let rhs = self.parse_bitor();
            self.tree.add_child(n, rhs);
        }
        n
    }

    fn tree_last_leaf_is(&self, node: NodeId, kw: &str) -> bool {
        self.tree
            .node(node)
            .children
            .iter()
            .rev()
            .find_map(|&c| self.tree.leaf(c))
            .is_some_and(|t| t.is_kw(kw))
    }

    fn parse_binop_level(
        &mut self,
        ops: &[&str],
        next: fn(&mut Self) -> NodeId,
    ) -> NodeId {
        let mut lhs = next(self);
        let mut links = 0;
        while self.cur().kind == TokKind::Op
            && ops.contains(&self.cur().text.as_str())
            && self.chain_room(&mut links)
        {
            let n = self.node(SyntaxKind::BinOp);
            self.tree.add_child(n, lhs);
            self.bump_into(n);
            let rhs = next(self);
            self.tree.add_child(n, rhs);
            lhs = n;
        }
        lhs
    }

    fn parse_bitor(&mut self) -> NodeId {
        self.parse_binop_level(&["|"], Self::parse_bitxor)
    }

    fn parse_bitxor(&mut self) -> NodeId {
        self.parse_binop_level(&["^"], Self::parse_bitand)
    }

    fn parse_bitand(&mut self) -> NodeId {
        self.parse_binop_level(&["&"], Self::parse_shift)
    }

    fn parse_shift(&mut self) -> NodeId {
        self.parse_binop_level(&["<<", ">>"], Self::parse_arith)
    }

    fn parse_arith(&mut self) -> NodeId {
        self.parse_binop_level(&["+", "-"], Self::parse_term)
    }

    fn parse_term(&mut self) -> NodeId {
        self.parse_binop_level(&["*", "/", "//", "%", "@"], Self::parse_factor)
    }

    fn parse_factor(&mut self) -> NodeId {
        self.nested(Self::factor)
    }

    fn factor(&mut self) -> NodeId {
        if self.at_op("+") || self.at_op("-") || self.at_op("~") {
            let n = self.node(SyntaxKind::UnaryOp);
            self.bump_into(n);
            let e = self.parse_factor();
            self.tree.add_child(n, e);
            return n;
        }
        self.parse_power()
    }

    fn parse_power(&mut self) -> NodeId {
        let base = self.parse_await();
        if self.at_op("**") {
            let n = self.node(SyntaxKind::Power);
            self.tree.add_child(n, base);
            self.bump_into(n);
            let e = self.parse_factor();
            self.tree.add_child(n, e);
            return n;
        }
        base
    }

    fn parse_await(&mut self) -> NodeId {
        if self.at_kw("await") {
            let n = self.node(SyntaxKind::AwaitExpr);
            self.bump_into(n);
            let e = self.parse_postfix();
            self.tree.add_child(n, e);
            return n;
        }
        self.parse_postfix()
    }

    /// Postfix chain: atom (call | attribute | subscript)*
    fn parse_postfix(&mut self) -> NodeId {
        let mut e = self.parse_atom();
        let mut links = 0;
        loop {
            let at_postfix = self.at_op("(") || self.at_op(".") || self.at_op("[");
            if !at_postfix || !self.chain_room(&mut links) {
                return e;
            }
            if self.at_op("(") {
                let n = self.node(SyntaxKind::Call);
                self.tree.add_child(n, e);
                let args = self.node(SyntaxKind::Arguments);
                self.bump_into(args); // (
                if !self.at_op(")") {
                    self.parse_arglist_into(args);
                }
                self.expect_op(")", args);
                self.tree.add_child(n, args);
                e = n;
            } else if self.at_op(".") {
                let n = self.node(SyntaxKind::Attribute);
                self.tree.add_child(n, e);
                self.bump_into(n); // .
                self.expect_name(n);
                e = n;
            } else {
                let n = self.node(SyntaxKind::Subscript);
                self.tree.add_child(n, e);
                self.bump_into(n); // [
                let idx = self.parse_slice();
                self.tree.add_child(n, idx);
                self.expect_op("]", n);
                e = n;
            }
        }
    }

    /// slice: test | [test] ':' [test] [':' [test]] (and tuple-of-slices)
    fn parse_slice(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::Slice);
        loop {
            if !self.at_op(":") && !self.at_op("]") && !self.at_op(",") {
                let e = self.parse_test();
                self.tree.add_child(n, e);
            }
            if self.at_op(":") {
                self.bump_into(n);
                continue;
            }
            if self.at_op(",") {
                self.bump_into(n);
                continue;
            }
            break;
        }
        // A bare single expression is not a slice node — collapse for clean trees.
        if self.tree.node(n).children.len() == 1 {
            let only = self.tree.node(n).children[0];
            if self.tree.kind(only).is_some() || self.tree.leaf(only).is_some() {
                // Detach: return the inner expression directly. The Slice
                // node becomes unreachable garbage, which the arena allows.
                self.tree.nodes[only.index()].parent = None;
                return only;
            }
        }
        n
    }

    fn parse_arglist_into(&mut self, args: NodeId) {
        loop {
            if self.at_op(")") || self.at_eof() {
                break;
            }
            if self.at_op("*") || self.at_op("**") {
                let a = self.node(SyntaxKind::StarArgument);
                self.bump_into(a);
                let e = self.parse_test();
                self.tree.add_child(a, e);
                self.tree.add_child(args, a);
            } else if self.at_kind(TokKind::Name) && self.peek(1).is_op("=") {
                let a = self.node(SyntaxKind::KeywordArgument);
                self.bump_into(a); // name
                self.bump_into(a); // =
                let e = self.parse_test();
                self.tree.add_child(a, e);
                self.tree.add_child(args, a);
            } else {
                let a = self.node(SyntaxKind::Argument);
                let e = self.parse_namedexpr();
                self.tree.add_child(a, e);
                // Generator-expression argument: f(x for x in y)
                if self.at_kw("for") {
                    let comp = self.parse_comp_clauses();
                    self.tree.add_child(a, comp);
                }
                self.tree.add_child(args, a);
            }
            if self.at_op(",") {
                self.bump_into(args);
            } else {
                break;
            }
        }
    }

    fn parse_comp_clauses(&mut self) -> NodeId {
        // One or more `for … in …` / `if …` clauses.
        let comp = self.node(SyntaxKind::Comprehension);
        while self.at_kw("for") || self.at_kw("if") || self.at_kw("async") {
            if self.at_kw("async") {
                self.bump_into(comp);
                continue;
            }
            if self.at_kw("for") {
                let f = self.node(SyntaxKind::CompFor);
                self.bump_into(f);
                let t = self.parse_target_list();
                self.tree.add_child(f, t);
                self.expect_kw("in", f);
                let it = self.parse_or_test();
                self.tree.add_child(f, it);
                self.tree.add_child(comp, f);
            } else {
                let i = self.node(SyntaxKind::CompIf);
                self.bump_into(i);
                let c = self.parse_or_test();
                self.tree.add_child(i, c);
                self.tree.add_child(comp, i);
            }
        }
        comp
    }

    fn parse_atom(&mut self) -> NodeId {
        self.nested(Self::atom)
    }

    fn atom(&mut self) -> NodeId {
        let t = self.cur().clone();
        match t.kind {
            TokKind::Name | TokKind::Number => {
                let leaf = self.tree.push(NodeKind::Leaf(t));
                self.pos += 1;
                leaf
            }
            TokKind::Str => {
                // Adjacent string literals concatenate; keep them as siblings
                // under the first leaf's parent — simplest: single leaf per
                // literal, joined under a ParenExpr-like node when multiple.
                let leaf = self.tree.push(NodeKind::Leaf(t));
                self.pos += 1;
                if self.at_kind(TokKind::Str) {
                    let n = self.node(SyntaxKind::ParenExpr);
                    self.tree.add_child(n, leaf);
                    while self.at_kind(TokKind::Str) {
                        self.bump_into(n);
                    }
                    return n;
                }
                leaf
            }
            TokKind::Keyword => match t.text.as_str() {
                "True" | "False" | "None" => {
                    let leaf = self.tree.push(NodeKind::Leaf(t));
                    self.pos += 1;
                    leaf
                }
                "lambda" => self.parse_lambda(),
                "not" => self.parse_not_test(),
                "await" => self.parse_await(),
                "yield" => self.parse_yield_expr(),
                _ => {
                    self.error_here(format!("unexpected keyword '{}' in expression", t.text));
                    let n = self.node(SyntaxKind::ErrorNode);
                    self.bump_into(n);
                    n
                }
            },
            TokKind::Op => match t.text.as_str() {
                "(" => self.parse_paren(),
                "[" => self.parse_list(),
                "{" => self.parse_dict_or_set(),
                "..." => {
                    let leaf = self.tree.push(NodeKind::Leaf(t));
                    self.pos += 1;
                    leaf
                }
                _ => {
                    self.error_here(format!("unexpected token '{}' in expression", t.text));
                    let n = self.node(SyntaxKind::ErrorNode);
                    self.bump_into(n);
                    n
                }
            },
            TokKind::Newline | TokKind::Indent | TokKind::Dedent | TokKind::Eof => {
                // Truncated expression (omission experiments): produce an
                // empty error node without consuming layout tokens.
                self.error_here("expression expected before end of input/line");
                self.node(SyntaxKind::ErrorNode)
            }
        }
    }

    fn parse_paren(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::ParenExpr);
        self.bump_into(n); // (
        if self.at_op(")") {
            self.bump_into(n);
            return n; // empty tuple
        }
        let first = self.parse_star_or_test();
        self.tree.add_child(n, first);
        if self.at_kw("for") || self.at_kw("async") {
            let comp = self.parse_comp_clauses();
            self.tree.add_child(n, comp);
        } else {
            while self.at_op(",") {
                self.bump_into(n);
                if self.at_op(")") {
                    break;
                }
                let e = self.parse_star_or_test();
                self.tree.add_child(n, e);
            }
        }
        self.expect_op(")", n);
        n
    }

    fn parse_list(&mut self) -> NodeId {
        let n = self.node(SyntaxKind::ListExpr);
        self.bump_into(n); // [
        if self.at_op("]") {
            self.bump_into(n);
            return n;
        }
        let first = self.parse_star_or_test();
        self.tree.add_child(n, first);
        if self.at_kw("for") || self.at_kw("async") {
            let comp = self.parse_comp_clauses();
            self.tree.add_child(n, comp);
        } else {
            while self.at_op(",") {
                self.bump_into(n);
                if self.at_op("]") {
                    break;
                }
                let e = self.parse_star_or_test();
                self.tree.add_child(n, e);
            }
        }
        self.expect_op("]", n);
        n
    }

    fn parse_dict_or_set(&mut self) -> NodeId {
        // Decide dict vs set after the first element.
        let open_tok = self.toks[self.pos].clone();
        self.pos += 1;
        if self.at_op("}") {
            let n = self.node(SyntaxKind::DictExpr);
            let open = self.tree.push(NodeKind::Leaf(open_tok));
            self.tree.add_child(n, open);
            self.bump_into(n);
            return n;
        }
        if self.at_op("**") {
            let n = self.node(SyntaxKind::DictExpr);
            let open = self.tree.push(NodeKind::Leaf(open_tok));
            self.tree.add_child(n, open);
            self.parse_dict_items(n);
            self.expect_op("}", n);
            return n;
        }
        let first = self.parse_star_or_test();
        if self.at_op(":") {
            let n = self.node(SyntaxKind::DictExpr);
            let open = self.tree.push(NodeKind::Leaf(open_tok));
            self.tree.add_child(n, open);
            let item = self.node(SyntaxKind::DictItem);
            self.tree.add_child(item, first);
            self.bump_into(item); // :
            let v = self.parse_test();
            self.tree.add_child(item, v);
            self.tree.add_child(n, item);
            if self.at_kw("for") || self.at_kw("async") {
                let comp = self.parse_comp_clauses();
                self.tree.add_child(n, comp);
            } else if self.at_op(",") {
                self.bump_into(n);
                self.parse_dict_items(n);
            }
            self.expect_op("}", n);
            return n;
        }
        // Set
        let n = self.node(SyntaxKind::SetExpr);
        let open = self.tree.push(NodeKind::Leaf(open_tok));
        self.tree.add_child(n, open);
        self.tree.add_child(n, first);
        if self.at_kw("for") || self.at_kw("async") {
            let comp = self.parse_comp_clauses();
            self.tree.add_child(n, comp);
        } else {
            while self.at_op(",") {
                self.bump_into(n);
                if self.at_op("}") {
                    break;
                }
                let e = self.parse_star_or_test();
                self.tree.add_child(n, e);
            }
        }
        self.expect_op("}", n);
        n
    }

    fn parse_dict_items(&mut self, dict: NodeId) {
        loop {
            if self.at_op("}") || self.at_eof() {
                break;
            }
            if self.at_op("**") {
                let item = self.node(SyntaxKind::DictItem);
                self.bump_into(item);
                let e = self.parse_test();
                self.tree.add_child(item, e);
                self.tree.add_child(dict, item);
            } else {
                let item = self.node(SyntaxKind::DictItem);
                let k = self.parse_test();
                self.tree.add_child(item, k);
                self.expect_op(":", item);
                let v = self.parse_test();
                self.tree.add_child(item, v);
                self.tree.add_child(dict, item);
            }
            if self.at_op(",") {
                self.bump_into(dict);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SyntaxKind::*;

    fn ok(src: &str) -> ParseTree {
        let t = parse(src);
        assert!(t.errors.is_empty(), "unexpected errors for {src:?}: {:?}", t.errors);
        assert!(t.check_integrity().is_ok());
        t
    }

    #[test]
    fn empty_module() {
        let t = ok("");
        assert_eq!(t.kind(t.root.unwrap()), Some(Module));
        assert_eq!(t.node(t.root.unwrap()).children.len(), 0);
    }

    #[test]
    fn simple_assignment() {
        let t = ok("x = 1\n");
        assert_eq!(t.find_kind(Assign).len(), 1);
    }

    #[test]
    fn chained_assignment() {
        let t = ok("a = b = c = 0\n");
        let assigns = t.find_kind(Assign);
        assert_eq!(assigns.len(), 1);
        // a (=, b) (=, c) (=, 0) → 7 children
        assert_eq!(t.node(assigns[0]).children.len(), 7);
    }

    #[test]
    fn augmented_and_annotated() {
        let t = ok("x += 1\ny: int = 5\nz: str\n");
        assert_eq!(t.find_kind(AugAssign).len(), 1);
        assert_eq!(t.find_kind(AnnAssign).len(), 2);
    }

    #[test]
    fn isprime_pe_class() {
        // Listing 1 of the paper.
        let src = "\
class IsPrime(IterativePE):
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, num):
        if all(num % i != 0 for i in range(2, num)):
            return num
";
        let t = ok(src);
        assert_eq!(t.find_kind(ClassDef).len(), 1);
        assert_eq!(t.find_kind(FuncDef).len(), 2);
        assert_eq!(t.find_kind(IfStmt).len(), 1);
        assert_eq!(t.find_kind(ReturnStmt).len(), 1);
        assert!(t.find_funcdef("_process").is_some());
        assert!(t.find_funcdef("missing").is_none());
        assert_eq!(t.def_name(t.find_kind(ClassDef)[0]), Some("IsPrime"));
    }

    #[test]
    fn if_elif_else() {
        let t = ok("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n");
        assert_eq!(t.find_kind(IfStmt).len(), 1);
        assert_eq!(t.find_kind(ElifClause).len(), 1);
        assert_eq!(t.find_kind(ElseClause).len(), 1);
    }

    #[test]
    fn while_and_for_with_else() {
        let t = ok("while x:\n    break\nelse:\n    pass\nfor i in r:\n    continue\nelse:\n    pass\n");
        assert_eq!(t.find_kind(WhileStmt).len(), 1);
        assert_eq!(t.find_kind(ForStmt).len(), 1);
        assert_eq!(t.find_kind(ElseClause).len(), 2);
        assert_eq!(t.find_kind(BreakStmt).len(), 1);
        assert_eq!(t.find_kind(ContinueStmt).len(), 1);
    }

    #[test]
    fn try_except_finally() {
        let t = ok("try:\n    f()\nexcept ValueError as e:\n    pass\nexcept:\n    pass\nfinally:\n    g()\n");
        assert_eq!(t.find_kind(TryStmt).len(), 1);
        assert_eq!(t.find_kind(ExceptClause).len(), 2);
        assert_eq!(t.find_kind(FinallyClause).len(), 1);
    }

    #[test]
    fn with_statement() {
        let t = ok("with open(p) as f, lock:\n    data = f.read()\n");
        assert_eq!(t.find_kind(WithStmt).len(), 1);
        assert_eq!(t.find_kind(WithItem).len(), 2);
    }

    #[test]
    fn imports() {
        let t = ok("import os\nimport os.path as osp\nfrom typing import List, Dict\nfrom . import sibling\nfrom ..pkg import thing\nfrom mod import *\n");
        assert_eq!(t.find_kind(ImportStmt).len(), 2);
        assert_eq!(t.find_kind(ImportFromStmt).len(), 4);
    }

    #[test]
    fn calls_args_kwargs() {
        let t = ok("f(1, x, key=2, *args, **kwargs)\n");
        assert_eq!(t.find_kind(Call).len(), 1);
        assert_eq!(t.find_kind(KeywordArgument).len(), 1);
        assert_eq!(t.find_kind(StarArgument).len(), 2);
        assert_eq!(t.find_kind(Argument).len(), 2);
    }

    #[test]
    fn attribute_and_subscript_chains() {
        let t = ok("x = a.b.c[0][1:2].d(e)\n");
        assert_eq!(t.find_kind(Attribute).len(), 3);
        assert_eq!(t.find_kind(Subscript).len(), 2);
        assert_eq!(t.find_kind(Slice).len(), 1, "{}", t.dump());
        assert_eq!(t.find_kind(Call).len(), 1);
    }

    #[test]
    fn operator_precedence_shape() {
        let t = ok("x = 1 + 2 * 3\n");
        // The `+` BinOp must be the outermost: its rhs is the `*` BinOp.
        let binops = t.find_kind(BinOp);
        assert_eq!(binops.len(), 2);
        let outer = binops[0];
        let leaves: Vec<_> = t
            .node(outer)
            .children
            .iter()
            .filter_map(|&c| t.leaf(c))
            .map(|tk| tk.text.clone())
            .collect();
        assert!(leaves.contains(&"+".to_string()), "{}", t.dump());
    }

    #[test]
    fn comparisons_and_membership() {
        let t = ok("a = x < y <= z\nb = k in d\nc = k not in d\nd_ = x is not None\n");
        assert_eq!(t.find_kind(Compare).len(), 4);
    }

    #[test]
    fn boolean_and_not() {
        let t = ok("x = a and b or not c\n");
        assert_eq!(t.find_kind(BoolOp).len(), 2);
        assert_eq!(t.find_kind(NotOp).len(), 1);
    }

    #[test]
    fn ternary_lambda_walrus() {
        let t = ok("y = (f(x) if x else g(x))\nh = lambda a, b=2: a + b\nif (n := next(it)) is not None:\n    use(n)\n");
        assert_eq!(t.find_kind(Ternary).len(), 1);
        assert_eq!(t.find_kind(Lambda).len(), 1);
        assert_eq!(t.find_kind(WalrusExpr).len(), 1);
    }

    #[test]
    fn collections_and_comprehensions() {
        let t = ok("a = [1, 2]\nb = {1: 'x', 2: 'y'}\nc = {1, 2}\nd = (1, 2)\ne = [i * i for i in r if i]\nf = {k: v for k, v in items}\ng = {x for x in s}\nh = sum(x for x in xs)\n");
        assert_eq!(t.find_kind(ListExpr).len(), 2);
        assert_eq!(t.find_kind(DictExpr).len(), 2);
        assert_eq!(t.find_kind(SetExpr).len(), 2);
        assert_eq!(t.find_kind(Comprehension).len(), 4);
        assert_eq!(t.find_kind(CompIf).len(), 1);
    }

    #[test]
    fn empty_collections() {
        let t = ok("a = []\nb = {}\nc = ()\n");
        assert_eq!(t.find_kind(ListExpr).len(), 1);
        assert_eq!(t.find_kind(DictExpr).len(), 1);
        assert_eq!(t.find_kind(ParenExpr).len(), 1);
    }

    #[test]
    fn decorators() {
        let t = ok("@staticmethod\n@registry.register('name')\ndef f():\n    pass\n");
        assert_eq!(t.find_kind(Decorator).len(), 2);
        let f = t.find_kind(FuncDef)[0];
        // Decorators are the first children of the funcdef.
        assert_eq!(t.kind(t.node(f).children[0]), Some(Decorator));
    }

    #[test]
    fn class_with_bases_and_keywords() {
        let t = ok("class A(B, metaclass=M):\n    pass\n");
        assert_eq!(t.find_kind(ClassDef).len(), 1);
        assert_eq!(t.find_kind(KeywordArgument).len(), 1);
    }

    #[test]
    fn return_yield_raise() {
        let t = ok("def g():\n    yield 1\n    yield from xs\n    return\ndef h():\n    raise ValueError('x') from err\n");
        assert_eq!(t.find_kind(YieldExpr).len(), 2);
        assert_eq!(t.find_kind(ReturnStmt).len(), 1);
        assert_eq!(t.find_kind(RaiseStmt).len(), 1);
    }

    #[test]
    fn global_nonlocal_assert_del() {
        let t = ok("def f():\n    global a, b\n    nonlocal_ = 1\n    assert a, 'msg'\n    del a\n");
        assert_eq!(t.find_kind(GlobalStmt).len(), 1);
        assert_eq!(t.find_kind(AssertStmt).len(), 1);
        assert_eq!(t.find_kind(DelStmt).len(), 1);
    }

    #[test]
    fn inline_suite() {
        let t = ok("if x: y = 1; z = 2\n");
        assert_eq!(t.find_kind(IfStmt).len(), 1);
        assert_eq!(t.find_kind(Assign).len(), 2);
    }

    #[test]
    fn semicolons_at_top_level() {
        let t = ok("a = 1; b = 2; c = 3\n");
        assert_eq!(t.find_kind(Assign).len(), 3);
    }

    #[test]
    fn tuple_assignment_unpacking() {
        let t = ok("a, b = b, a\nx, *rest = items\nfor k, v in d.items():\n    pass\n");
        assert!(t.find_kind(TupleExpr).len() >= 3);
        assert_eq!(t.find_kind(Starred).len(), 1);
    }

    #[test]
    fn async_constructs() {
        let t = ok("async def f():\n    await g()\n    async for x in aiter:\n        pass\n    async with ctx:\n        pass\n");
        assert_eq!(t.find_kind(FuncDef).len(), 1);
        assert_eq!(t.find_kind(AwaitExpr).len(), 1);
        assert_eq!(t.find_kind(ForStmt).len(), 1);
        assert_eq!(t.find_kind(WithStmt).len(), 1);
    }

    #[test]
    fn type_annotations_on_functions() {
        let t = ok("def f(a: int, b: str = 'x') -> bool:\n    return True\n");
        let params = t.find_kind(Param);
        assert_eq!(params.len(), 2);
    }

    #[test]
    fn docstring_module_and_function() {
        let t = ok("\"\"\"Module doc.\"\"\"\ndef f():\n    \"\"\"Func doc.\"\"\"\n    return 1\n");
        assert_eq!(t.find_kind(ExprStmt).len(), 2);
    }

    // ---- error tolerance -------------------------------------------------

    #[test]
    fn recovers_from_bad_statement() {
        // NB: garbage must not *open* brackets — unbalanced `(` makes the
        // lexer treat the rest of the file as one logical line, which is
        // faithful Python tokenizer behaviour.
        let src = "x = 1\n= ) garbage ) =\ny = 2\n";
        let t = parse(src);
        assert!(!t.errors.is_empty());
        assert_eq!(t.find_kind(Assign).len(), 2, "statements around the error must survive");
    }

    #[test]
    fn truncated_function_parses_prefix() {
        // Simulates the paper's 50%-dropped snippets.
        let src = "def process(self, data):\n    total = 0\n    for item in data:\n        total +=";
        let t = parse(src);
        assert_eq!(t.find_kind(FuncDef).len(), 1);
        assert_eq!(t.find_kind(ForStmt).len(), 1);
        assert!(!t.errors.is_empty());
    }

    #[test]
    fn truncated_mid_call() {
        let src = "result = compute(a, b,";
        let t = parse(src);
        assert_eq!(t.find_kind(Call).len(), 1);
        assert!(!t.errors.is_empty());
    }

    #[test]
    fn unclosed_block_at_eof() {
        let src = "class A:\n    def f(self):\n";
        let t = parse(src);
        assert_eq!(t.find_kind(ClassDef).len(), 1);
        assert_eq!(t.find_kind(FuncDef).len(), 1);
    }

    #[test]
    fn missing_colon_recovers() {
        let src = "if x\n    y = 1\nz = 2\n";
        let t = parse(src);
        assert!(!t.errors.is_empty());
        // The trailing assignment must still be parsed.
        assert!(t.find_kind(Assign).iter().any(|&a| t.text_of(a).starts_with('z')));
    }

    #[test]
    fn expression_entry_point() {
        let t = parse_expression("random.randint(1, 1000)");
        assert!(t.errors.is_empty());
        assert_eq!(t.find_kind(Call).len(), 1);
        assert_eq!(t.find_kind(Attribute).len(), 1);
    }

    #[test]
    fn every_statement_parses_without_panic_on_fuzz_corpus() {
        // A grab-bag of tricky-but-valid lines.
        let corpus = [
            "x=-1",
            "f(**{'a':1})",
            "a[b][c](d)(e)[f]",
            "print(*args, sep=', ')",
            "x = y if z else w if v else u",
            "not not x",
            "-x ** 2",
            "a @ b @ c",
            "x = (yield)",
            "l = [[], [[]], [[[]]]]",
            "d = {(1,2): [3,4], **other}",
            "s = f\"{a}{b!r:>10}\"",
            "t = a,",
            "del d[k]",
            "assert isinstance(x, (int, float))",
            "x = ...",
        ];
        for line in corpus {
            let t = parse(&format!("{line}\n"));
            assert!(t.errors.is_empty(), "{line:?} produced {:?}\n{}", t.errors, t.dump());
        }
    }

    /// `levels` nested `def`/`if` blocks, one space of indent per level.
    /// The source grows with the square of the depth, so block nesting is
    /// exercised at thousands of levels, not the 100,000 of the one-line
    /// forms (that would be 5 GB of spaces).
    fn nested_blocks(levels: usize) -> String {
        let mut src = String::new();
        for level in 0..levels {
            src.push_str(&" ".repeat(level));
            src.push_str(if level % 2 == 0 { "def f():\n" } else { "if x:\n" });
        }
        src.push_str(&" ".repeat(levels));
        src.push_str("pass\n");
        src
    }

    /// Hostile nesting (test threads get the default 2 MiB stack, as the
    /// server's connection threads do): every recursion cycle of the
    /// grammar, driven far past the budget, still returns a tree — the
    /// part inside the budget, an error for the rest, and the next line
    /// parsed as if nothing had happened.
    #[test]
    fn nesting_past_the_budget_degrades_to_a_partial_tree() {
        const N: usize = 100_000;
        let wrap = |open: &str, close: &str| format!("x = {}1{}", open.repeat(N), close.repeat(N));
        let cases = [
            ("paren", wrap("(", ")")),
            ("list", wrap("[", "]")),
            ("set", wrap("{", "}")),
            ("dict", wrap("{1:", "}")),
            ("call", wrap("f(", ")")),
            ("subscript", wrap("a[", "]")),
            ("not", wrap("not ", "")),
            ("unary", wrap("-", "")),
            ("power", wrap("2**", "")),
            ("lambda", wrap("lambda: ", "")),
            ("ternary", wrap("1 if a else ", "")),
            ("await", wrap("await ", "")),
            ("yield", wrap("yield ", "")),
            ("star target", format!("for {}a in b: pass", "*".repeat(N))),
            ("async", format!("{}def f(): pass", "async ".repeat(N))),
            ("blocks", nested_blocks(2_000)),
        ];
        for (name, src) in cases {
            let t = parse(&format!("{src}\ny = 2\n"));
            assert!(
                t.errors.iter().any(|e| e.contains("nesting deeper than")),
                "{name}: {:?}",
                t.errors.first()
            );
            assert!(t.depth() <= 4 * MAX_DEPTH, "{name}: depth {}", t.depth());
            let module = t.root.unwrap();
            let last = *t.node(module).children.last().unwrap();
            assert_eq!(t.text_of(last), "y = 2", "{name}: parsing resumed");
        }
        // Brackets that never close swallow the rest of the input, as
        // they do below the budget; there is still a tree.
        let t = parse(&format!("x = {}\ny = 2\n", "(".repeat(N)));
        assert_eq!(t.node(t.root.unwrap()).children.len(), 1);
    }

    /// The left-nesting loops build deep trees without recursing; their
    /// consumers recurse, so the same budget stops the chain.
    #[test]
    fn operator_chains_past_the_budget_are_cut() {
        const N: usize = 100_000;
        let cases = [
            ("arith", format!("x = {}1", "1+".repeat(N))),
            ("bool", format!("x = {}a", "a or ".repeat(N))),
            ("attribute", format!("x = a{}", ".b".repeat(N))),
            ("call", format!("x = a{}", "()".repeat(N))),
        ];
        for (name, src) in cases {
            let t = parse(&format!("{src}\ny = 2\n"));
            assert!(
                t.errors.iter().any(|e| e.contains("operator chain longer than")),
                "{name}: {:?}",
                t.errors.first()
            );
            assert!(t.depth() <= MAX_DEPTH + 16, "{name}: depth {}", t.depth());
            let module = t.root.unwrap();
            let last = *t.node(module).children.last().unwrap();
            assert_eq!(t.text_of(last), "y = 2", "{name}: parsing resumed");
        }
    }

    #[test]
    fn nesting_inside_the_budget_is_untouched() {
        let brackets = format!("x = {}1{}\n", "(".repeat(90), ")".repeat(90));
        let sum = format!("x = {}1\n", "1 + ".repeat(300));
        for src in [brackets, sum, nested_blocks(100)] {
            let t = ok(&src);
            assert!(t.find_kind(ErrorNode).is_empty());
        }
    }

    #[test]
    fn leaves_reconstruct_source_tokens() {
        let src = "x = f(1, 2)\n";
        let t = ok(src);
        assert_eq!(t.text_of(t.root.unwrap()), "x = f ( 1 , 2 )");
    }
}
