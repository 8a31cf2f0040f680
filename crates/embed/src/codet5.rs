//! `CodeT5Sim` — the description-generation substitute for CodeT5 (paper
//! §IV-C, §VII-B).
//!
//! Laminar auto-generates a natural-language description for every PE and
//! workflow that lacks one; descriptions drive both literal and semantic
//! search, so their quality matters (Fig. 10). The substitute is an
//! *extractive* summariser over the parse tree. Crucially it reproduces the
//! paper's experimental contrast:
//!
//! * [`DescriptionContext::ProcessMethodOnly`] (Laminar 1.0) sees only the
//!   `_process` method body — no class name, no class docstring, no other
//!   methods — and therefore produces terse, context-poor descriptions;
//! * [`DescriptionContext::FullClass`] (Laminar 2.0) sees the whole class
//!   and produces strictly richer descriptions.

use crate::tokenize::split_identifier;
use pyparse::{NodeId, ParseTree, SyntaxKind, TokKind};

/// How much of the PE the generator is allowed to see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescriptionContext {
    /// Laminar 1.0 behaviour: the `_process()` method only.
    ProcessMethodOnly,
    /// Laminar 2.0 behaviour: the entire class definition.
    FullClass,
}

/// Deterministic extractive description generator.
#[derive(Debug, Clone, Copy)]
pub struct CodeT5Sim {
    pub context: DescriptionContext,
}

impl Default for CodeT5Sim {
    fn default() -> Self {
        CodeT5Sim {
            context: DescriptionContext::FullClass,
        }
    }
}

/// Facts extracted from the visible portion of the code.
#[derive(Debug, Default)]
struct Facts {
    class_name: Option<String>,
    base: Option<String>,
    docstrings: Vec<String>,
    methods: Vec<String>,
    calls: Vec<String>,
    has_loop: bool,
    has_condition: bool,
    has_return: bool,
    has_yield: bool,
}

impl CodeT5Sim {
    pub fn new(context: DescriptionContext) -> Self {
        CodeT5Sim { context }
    }

    /// Generate a description for a PE class (or bare function) source.
    pub fn describe_pe(&self, code: &str) -> String {
        let tree = pyparse::parse(code);
        let facts = match self.context {
            DescriptionContext::FullClass => collect_facts(&tree, tree.root),
            DescriptionContext::ProcessMethodOnly => {
                let proc = tree
                    .find_funcdef("_process")
                    .or_else(|| tree.find_funcdef("process"));
                match proc {
                    Some(f) => collect_facts(&tree, Some(f)),
                    None => collect_facts(&tree, tree.root),
                }
            }
        };
        render(&facts, self.context)
    }

    /// Generate a workflow description. The paper builds "a class named
    /// after the workflow including all PE functions as methods" — we do
    /// the equivalent by pooling the member PE descriptions.
    pub fn describe_workflow(&self, workflow_name: &str, pe_codes: &[&str]) -> String {
        let name_words = split_identifier(workflow_name).join(" ");
        let mut parts = vec![format!("Workflow {name_words}")];
        let mut member_bits = Vec::new();
        for code in pe_codes {
            let tree = pyparse::parse(code);
            let facts = collect_facts(&tree, tree.root);
            if let Some(cn) = &facts.class_name {
                let words = split_identifier(cn).join(" ");
                member_bits.push(words);
            }
        }
        if !member_bits.is_empty() {
            parts.push(format!("composed of {}", member_bits.join(", ")));
        }
        let mut s = parts.join(" ");
        s.push('.');
        s
    }
}

fn collect_facts(tree: &ParseTree, scope: Option<NodeId>) -> Facts {
    let mut facts = Facts::default();
    let Some(scope) = scope else {
        return facts;
    };
    walk(tree, scope, &mut facts, true);
    facts
}

fn walk(tree: &ParseTree, id: NodeId, facts: &mut Facts, top: bool) {
    match tree.kind(id) {
        Some(SyntaxKind::ClassDef) => {
            if facts.class_name.is_none() {
                facts.class_name = tree.def_name(id).map(str::to_string);
                // Base class: the first Argument name inside the class header.
                facts.base = class_base(tree, id);
            }
            if let Some(doc) = block_docstring(tree, id) {
                facts.docstrings.push(doc);
            }
        }
        Some(SyntaxKind::FuncDef) => {
            if let Some(name) = tree.def_name(id) {
                if !top && name != "__init__" {
                    facts.methods.push(name.to_string());
                }
            }
            if let Some(doc) = block_docstring(tree, id) {
                facts.docstrings.push(doc);
            }
        }
        Some(SyntaxKind::ForStmt) | Some(SyntaxKind::WhileStmt) | Some(SyntaxKind::CompFor) => {
            facts.has_loop = true;
        }
        Some(SyntaxKind::IfStmt) | Some(SyntaxKind::Ternary) => facts.has_condition = true,
        Some(SyntaxKind::ReturnStmt) => facts.has_return = true,
        Some(SyntaxKind::YieldExpr) | Some(SyntaxKind::YieldStmt) => facts.has_yield = true,
        Some(SyntaxKind::Call) => {
            if let Some(name) = call_target_name(tree, id) {
                if !facts.calls.contains(&name) && facts.calls.len() < 8 {
                    facts.calls.push(name);
                }
            }
        }
        _ => {}
    }
    for &c in &tree.node(id).children {
        walk(tree, c, facts, false);
    }
}

/// Dotted name of a call target: `random.randint(...)` → "random.randint".
fn call_target_name(tree: &ParseTree, call: NodeId) -> Option<String> {
    let target = *tree.node(call).children.first()?;
    let leaves = tree.leaves_under(target);
    let mut s = String::new();
    for t in leaves {
        match t.kind {
            TokKind::Name => {
                s.push_str(&t.text);
            }
            TokKind::Op if t.text == "." => s.push('.'),
            _ => return None, // complex target (subscript etc.) — skip
        }
    }
    // Filter dunder noise and bare `self`.
    if s.is_empty() || s.starts_with("self.__") || s.contains("__init__") || s == "self" {
        return None;
    }
    Some(s.trim_start_matches("self.").to_string())
}

/// First statement of a class/function body when it is a string literal.
fn block_docstring(tree: &ParseTree, def: NodeId) -> Option<String> {
    let block = tree
        .node(def)
        .children
        .iter()
        .copied()
        .find(|&c| tree.kind(c) == Some(SyntaxKind::Block))?;
    let first = *tree.node(block).children.first()?;
    let leaves = tree.leaves_under(first);
    if leaves.len() == 1 && leaves[0].kind == TokKind::Str {
        Some(clean_string_literal(&leaves[0].text))
    } else {
        None
    }
}

fn class_base(tree: &ParseTree, class: NodeId) -> Option<String> {
    // Children: `class` Name `(` … `)` `:` Block — the first Argument under
    // the classdef holds the base.
    for &c in &tree.node(class).children {
        if tree.kind(c) == Some(SyntaxKind::Argument) {
            let leaves = tree.leaves_under(c);
            if let Some(t) = leaves.first() {
                if t.kind == TokKind::Name {
                    return Some(t.text.clone());
                }
            }
        }
    }
    None
}

fn clean_string_literal(lit: &str) -> String {
    lit.trim_start_matches(['r', 'b', 'f', 'u', 'R', 'B', 'F', 'U'])
        .trim_matches(['"', '\''])
        .trim()
        .to_string()
}

/// Map dispel4py base classes to phrases.
fn base_phrase(base: &str) -> Option<&'static str> {
    match base {
        "IterativePE" => {
            Some("an iterative processing element consuming one input and producing one output")
        }
        "ProducerPE" => Some("a producer processing element that generates data"),
        "ConsumerPE" => Some("a consumer processing element that absorbs data"),
        "GenericPE" => Some("a generic processing element"),
        _ => None,
    }
}

/// The sentences as one text, each closed by a period unless it already
/// ends in one (a docstring usually does).
fn join_sentences(sentences: &[String]) -> String {
    let mut s = String::new();
    for sentence in sentences {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(sentence);
        if !sentence.ends_with('.') {
            s.push('.');
        }
    }
    s
}

fn render(facts: &Facts, context: DescriptionContext) -> String {
    let mut sentences: Vec<String> = Vec::new();

    // CodeT5 produces one focused intent sentence; when the code carries a
    // docstring, the model's output tracks it closely and skips structural
    // boilerplate. Mirror that: docstring-bearing code gets a compact
    // name + docstring + API summary.
    if !facts.docstrings.is_empty() {
        if let Some(name) = &facts.class_name {
            let words = split_identifier(name).join(" ");
            // The class name carries the PE's concept; CodeT5's generations
            // lead with it and restate it ("WordCounter — counts words…"),
            // which is precisely the §IV-C full-class-context advantage.
            sentences.push(format!("{words}: implements {words}"));
        }
        for doc in facts.docstrings.iter().take(2) {
            if !doc.is_empty() {
                sentences.push(doc.clone());
            }
        }
        if !facts.calls.is_empty() {
            let mut words: Vec<String> = Vec::new();
            for c in facts.calls.iter().take(5) {
                for part in c.split('.') {
                    for w in split_identifier(part) {
                        if !words.contains(&w) {
                            words.push(w);
                        }
                    }
                }
            }
            sentences.push(format!("uses {}", words.join(", ")));
        }
        let s = join_sentences(&sentences);
        let mut chars = s.chars();
        return match chars.next() {
            Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
            None => s,
        };
    }

    if let Some(name) = &facts.class_name {
        let words = split_identifier(name).join(" ");
        match facts.base.as_deref().and_then(base_phrase) {
            Some(bp) => sentences.push(format!("{words}: {bp}")),
            None => match &facts.base {
                Some(b) => sentences.push(format!("{words} class (extends {b})")),
                None => sentences.push(format!("{words} class")),
            },
        }
    }

    for doc in facts.docstrings.iter().take(2) {
        if !doc.is_empty() {
            sentences.push(doc.clone());
        }
    }

    if context == DescriptionContext::FullClass && !facts.methods.is_empty() {
        sentences.push(format!("defines {}", facts.methods.join(", ")));
    }

    // Behavioural clause from the body shape.
    let mut behaviour = Vec::new();
    if facts.has_loop {
        behaviour.push("iterates over its input");
    }
    if facts.has_condition {
        behaviour.push("applies a condition");
    }
    if facts.has_yield {
        behaviour.push("yields a stream of results");
    } else if facts.has_return {
        behaviour.push("returns a result");
    }
    if !behaviour.is_empty() {
        sentences.push(behaviour.join(" and "));
    }

    if !facts.calls.is_empty() {
        let mut words: Vec<String> = Vec::new();
        for c in facts.calls.iter().take(5) {
            for part in c.split('.') {
                for w in split_identifier(part) {
                    if !words.contains(&w) {
                        words.push(w);
                    }
                }
            }
        }
        sentences.push(format!("uses {}", words.join(", ")));
    }

    if sentences.is_empty() {
        return "Python code snippet.".to_string();
    }
    let s = join_sentences(&sentences);
    // Capitalise the first letter for presentation parity with CodeT5.
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ISPRIME: &str = "\
class IsPrime(IterativePE):
    \"\"\"Checks whether a given number is prime and returns the number if it is.\"\"\"
    def __init__(self):
        IterativePE.__init__(self)
    def _process(self, num):
        if all(num % i != 0 for i in range(2, num)):
            return num
";

    #[test]
    fn full_class_description_is_rich() {
        let gen = CodeT5Sim::new(DescriptionContext::FullClass);
        let d = gen.describe_pe(ISPRIME);
        // Docstring-bearing code: compact name + docstring + API summary.
        assert!(d.contains("Is prime") || d.contains("is prime"), "{d}");
        assert!(d.contains("Checks whether a given number is prime"), "{d}");
        assert!(d.contains("uses"), "{d}");
    }

    /// A docstring that ends its sentence keeps one period, and the
    /// paper's IsPrime reads as Fig. 10 prints it.
    #[test]
    fn a_docstring_sentence_is_not_closed_twice() {
        let d = CodeT5Sim::new(DescriptionContext::FullClass).describe_pe(ISPRIME);
        assert_eq!(
            d,
            "Is prime: implements is prime. Checks whether a given number is prime \
             and returns the number if it is. uses all, range."
        );
        let structural = CodeT5Sim::new(DescriptionContext::FullClass).describe_pe(
            "class Gen(IterativePE):\n    \"\"\"Yields each item.\"\"\"\n    def _process(self, xs):\n        for x in xs:\n            yield x\n",
        );
        assert!(!structural.contains(".."), "{structural}");
    }

    #[test]
    fn docstring_free_class_gets_structural_description() {
        let gen = CodeT5Sim::new(DescriptionContext::FullClass);
        let d = gen.describe_pe(
            "class Gen(IterativePE):\n    def _process(self, xs):\n        for x in xs:\n            yield x\n",
        );
        assert!(d.contains("iterative processing element"), "{d}");
    }

    #[test]
    fn process_only_description_is_poor() {
        // Fig. 10 contrast: Laminar 1.0 sees only `_process`, losing the
        // class name and docstring.
        let gen = CodeT5Sim::new(DescriptionContext::ProcessMethodOnly);
        let d = gen.describe_pe(ISPRIME);
        assert!(!d.contains("Is prime"), "{d}");
        assert!(!d.contains("Checks whether"), "{d}");
        // It still sees the body shape.
        assert!(
            d.contains("condition") || d.contains("range") || d.contains("all"),
            "{d}"
        );
    }

    #[test]
    fn full_class_strictly_longer() {
        let full = CodeT5Sim::new(DescriptionContext::FullClass).describe_pe(ISPRIME);
        let proc = CodeT5Sim::new(DescriptionContext::ProcessMethodOnly).describe_pe(ISPRIME);
        assert!(full.len() > proc.len(), "full {full:?} vs proc {proc:?}");
    }

    #[test]
    fn base_classes_mapped() {
        let gen = CodeT5Sim::default();
        let d = gen.describe_pe(
            "class Gen(ProducerPE):\n    def _process(self, inputs):\n        return 1\n",
        );
        assert!(d.contains("producer"), "{d}");
        let d2 = gen
            .describe_pe("class Sink(ConsumerPE):\n    def _process(self, x):\n        print(x)\n");
        assert!(d2.contains("consumer"), "{d2}");
    }

    #[test]
    fn api_calls_surface() {
        let gen = CodeT5Sim::default();
        let d = gen.describe_pe("class R(ProducerPE):\n    def _process(self, i):\n        return random.randint(1, 1000)\n");
        assert!(d.contains("random"), "{d}");
        assert!(d.contains("randint"), "{d}");
    }

    #[test]
    fn unknown_base_and_bare_function() {
        let gen = CodeT5Sim::default();
        let d = gen.describe_pe("class X(SomethingElse):\n    def f(self):\n        pass\n");
        assert!(d.contains("extends SomethingElse"), "{d}");
        let d2 = gen.describe_pe("def lonely(x):\n    return x\n");
        assert!(!d2.is_empty());
    }

    #[test]
    fn empty_and_garbage_input() {
        let gen = CodeT5Sim::default();
        assert_eq!(gen.describe_pe(""), "Python code snippet.");
        let d = gen.describe_pe(")))((");
        assert!(!d.is_empty());
    }

    #[test]
    fn deterministic() {
        let gen = CodeT5Sim::default();
        assert_eq!(gen.describe_pe(ISPRIME), gen.describe_pe(ISPRIME));
    }

    #[test]
    fn workflow_description_pools_members() {
        let gen = CodeT5Sim::default();
        let producer = "class NumberProducer(ProducerPE):\n    def _process(self, i):\n        return random.randint(1, 1000)\n";
        let d = gen.describe_workflow("isprime_wf", &[producer, ISPRIME]);
        assert!(d.contains("isprime wf") || d.contains("isprime"), "{d}");
        assert!(
            d.contains("Number producer") || d.contains("number producer"),
            "{d}"
        );
        assert!(d.to_lowercase().contains("is prime"), "{d}");
    }

    #[test]
    fn yield_detection() {
        let gen = CodeT5Sim::default();
        let d = gen.describe_pe("class S(GenericPE):\n    def _process(self, xs):\n        for x in xs:\n            yield x * 2\n");
        assert!(d.contains("yields"), "{d}");
        assert!(d.contains("iterates"), "{d}");
    }
}
