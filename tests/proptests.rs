//! Seeded property tests on the core data structures and invariants
//! across the workspace: plain `#[test]`s, each property run on a fixed
//! number of cases drawn from a local xorshift; a failing case prints its
//! seed.

use laminar::csn::{precision_recall_at_k, Dataset, DatasetConfig};
use laminar::d4py::Data;
use laminar::pyparse;
use laminar::spt::{feature_ids, FeatureVec, Spt};
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Up to `max` characters drawn from the ASCII `alphabet`.
    fn string(&mut self, alphabet: &str, max: usize) -> String {
        (0..self.below(max + 1))
            .map(|_| alphabet.as_bytes()[self.below(alphabet.len())] as char)
            .collect()
    }
}

/// `prop` on `cases` cases, each from its own seed, printed if it fails.
fn check(cases: u64, prop: impl Fn(&mut Rng)) {
    for case in 1..=cases {
        let seed = case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| prop(&mut Rng(seed)))) {
            eprintln!("failing case seed: {seed:#x}");
            resume_unwind(panic);
        }
    }
}

// ---------------------------------------------------------------------------
// pyparse: total robustness — the parser must never panic, and its trees
// must always satisfy structural integrity.
// ---------------------------------------------------------------------------

/// Lexer, parser and both feature extractors over `src`: none may panic,
/// all must return, and what they return must be well formed.
fn assert_total(src: &str) {
    let (toks, _) = pyparse::lex(src);
    assert_eq!(toks.last().map(|t| t.kind), Some(pyparse::TokKind::Eof));
    let tree = pyparse::parse(src);
    assert!(tree.check_integrity().is_ok(), "{src:?}");
    let spt = Spt::from_parse_tree(&tree);
    assert_eq!(spt.feature_vec(), FeatureVec::from_ids(feature_ids(&spt)));
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    check(256, |rng| {
        // Any scalar value, half of them ASCII so tokens form.
        let src: String = (0..rng.below(201))
            .map(|_| match rng.below(2) {
                0 => (rng.below(0x80) as u8) as char,
                _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            })
            .collect();
        assert_total(&src);
    });
}

#[test]
fn arbitrary_bytes_never_panic_lexer_parser_or_featuriser() {
    // Source arrives as bytes off the wire: raw bytes (decoded lossily,
    // as a client reading a file would), and valid source with bytes
    // overwritten, so the damage lands inside strings, indents and names.
    let valid = b"class A(IterativePE):\n    def _process(self, data):\n        s = 'text'\n        for item in data:\n            s += item[0]\n        return s\n";
    check(256, |rng| {
        let raw: Vec<u8> = (0..rng.below(401)).map(|_| rng.next() as u8).collect();
        assert_total(&String::from_utf8_lossy(&raw));
        let mut damaged = valid.to_vec();
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(damaged.len());
            damaged[at] = rng.next() as u8;
        }
        damaged.truncate(rng.below(damaged.len() + 1));
        assert_total(&String::from_utf8_lossy(&damaged));
    });
}

#[test]
fn parser_never_panics_on_python_like_input() {
    const LINES: &[&str] = &[
        "x = 1",
        "def f(a, b):",
        "    return a + b",
        "class C(Base):",
        "    pass",
        "for i in range(10):",
        "    total += i",
        "if x > 0:",
        "with open(p) as fh:",
        "import os",
        "",
        "  ",
        ")",
        "'unterminated",
    ];
    check(256, |rng| {
        let lines: Vec<&str> = (0..rng.below(30))
            .map(|_| LINES[rng.below(LINES.len())])
            .collect();
        assert_total(&lines.join("\n"));
    });
}

#[test]
fn lexer_balances_indents() {
    check(256, |rng| {
        let src = rng.string("abcdefghijklmnopqrstuvwxyz =:\n\t()0123456789", 200);
        let (toks, _) = pyparse::lex(&src);
        let count = |kind| toks.iter().filter(|t| t.kind == kind).count();
        assert_eq!(
            count(pyparse::TokKind::Indent),
            count(pyparse::TokKind::Dedent)
        );
        assert_eq!(toks.last().map(|t| t.kind), Some(pyparse::TokKind::Eof));
    });
}

#[test]
fn truncation_always_yields_parseable_prefix() {
    let src = "class A(IterativePE):\n    def _process(self, data):\n        total = 0\n        for item in data:\n            total += item\n        return total\n";
    check(256, |rng| {
        let frac = rng.below(1 << 20) as f64 / (1 << 20) as f64;
        let cut = pyparse::drop_suffix_fraction(src, frac);
        assert!(!cut.is_empty());
        let tree = pyparse::parse(&cut);
        assert!(tree.check_integrity().is_ok());
        assert!(!tree.find_kind(pyparse::SyntaxKind::ClassDef).is_empty());
    });
}

// ---------------------------------------------------------------------------
// FeatureVec algebra
// ---------------------------------------------------------------------------

fn feature_vec(rng: &mut Rng) -> FeatureVec {
    let mut counts: BTreeMap<u64, f32> = BTreeMap::new();
    for _ in 0..rng.below(60) {
        *counts.entry(rng.below(5000) as u64).or_default() += (1 + rng.below(5)) as f32;
    }
    FeatureVec {
        items: counts.into_iter().collect(),
    }
}

#[test]
fn dot_symmetric_and_cosine_bounded() {
    check(256, |rng| {
        let (a, b) = (feature_vec(rng), feature_vec(rng));
        assert_eq!(a.dot(&b), b.dot(&a));
        let c = a.cosine(&b);
        assert!((0.0..=1.0 + 1e-4).contains(&c), "cosine {c}");
        assert!((a.overlap(&b) - b.overlap(&a)).abs() < 1e-6);
    });
}

#[test]
fn overlap_bounded_by_totals() {
    check(256, |rng| {
        let (a, b) = (feature_vec(rng), feature_vec(rng));
        let o = a.overlap(&b);
        assert!(o <= a.total() + 1e-6);
        assert!(o <= b.total() + 1e-6);
        assert!(o >= 0.0);
    });
}

#[test]
fn self_cosine_is_one_unless_empty() {
    check(256, |rng| {
        let a = feature_vec(rng);
        if a.is_empty() {
            assert_eq!(a.cosine(&a), 0.0);
        } else {
            assert!((a.cosine(&a) - 1.0).abs() < 1e-5);
        }
    });
}

#[test]
fn feature_vec_json_roundtrip() {
    check(256, |rng| {
        let a = feature_vec(rng);
        let items: Vec<(u64, f32)> = serde_json::from_str(&a.to_json()).unwrap();
        assert_eq!(a.items, items);
    });
}

// ---------------------------------------------------------------------------
// Data serde + display
// ---------------------------------------------------------------------------

fn data(rng: &mut Rng, depth: usize) -> Data {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Data::Null,
        1 => Data::from(rng.below(2) == 1),
        2 => Data::from(rng.next() as i64),
        3 => Data::from((rng.next() as i64 % 1_000_000_000_000) as f64 / 1000.0),
        4 => Data::from(
            rng.string("abcdefghijklmnopqrstuvwxyz0123456789 ", 12)
                .as_str(),
        ),
        5 => Data::List((0..rng.below(4)).map(|_| data(rng, depth - 1)).collect()),
        _ => Data::Map(
            (0..rng.below(4))
                .map(|_| {
                    let key = format!("k{}", rng.string("abcdefghijklmnopqrstuvwxyz", 5));
                    (key, data(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

#[test]
fn data_serde_roundtrip() {
    check(256, |rng| {
        let d = data(rng, 3);
        let json = serde_json::to_string(&d).unwrap();
        let back: Data = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    });
}

#[test]
fn group_hash_deterministic() {
    check(256, |rng| {
        let d = data(rng, 3);
        assert_eq!(d.group_hash(), d.clone().group_hash());
    });
}

// ---------------------------------------------------------------------------
// Metrics invariants
// ---------------------------------------------------------------------------

#[test]
fn precision_recall_always_in_unit_interval() {
    check(128, |rng| {
        // Rankings are id lists without duplicates (the metric's contract).
        let mut seen = HashSet::new();
        let ranked: Vec<u64> = (0..rng.below(30))
            .map(|_| rng.below(50) as u64)
            .filter(|id| seen.insert(*id))
            .collect();
        let relevant: HashSet<u64> = (0..rng.below(20)).map(|_| rng.below(50) as u64).collect();
        let (p, r) = precision_recall_at_k(&ranked, &relevant, rng.below(40));
        assert!((0.0..=1.0).contains(&p));
        assert!((0.0..=1.0).contains(&r));
    });
}

// ---------------------------------------------------------------------------
// Aroma pipeline invariants
// ---------------------------------------------------------------------------

fn corpus(families: usize, variants_per_family: usize, seed: u64) -> Dataset {
    Dataset::generate(DatasetConfig {
        families,
        variants_per_family,
        seed,
        ..DatasetConfig::default()
    })
}

fn pe_code(rng: &mut Rng) -> String {
    let seed = rng.below(1000) as u64;
    corpus(6, 1, seed).entries[rng.below(6)].code.clone()
}

#[test]
fn pruned_statements_come_from_the_candidate() {
    use laminar::aroma::{granulated_vec, prune_and_rerank, statement_granules};
    check(32, |rng| {
        let (cand, query) = (pe_code(rng), pe_code(rng));
        let pruned = prune_and_rerank(1, &cand, &granulated_vec(&query));
        let granules: HashSet<String> = statement_granules(&cand).texts().iter().cloned().collect();
        for s in &pruned.kept_statements {
            assert!(granules.contains(s), "{s:?} not a candidate granule");
        }
        assert!(pruned.rerank_score >= 0.0);
        assert!(pruned.rerank_score <= 1.0 + 1e-4);
    });
}

#[test]
fn completion_lines_come_from_the_candidate() {
    use laminar::aroma::{complete_from, statement_granules};
    check(32, |rng| {
        let (cand, query) = (pe_code(rng), pe_code(rng));
        let c = complete_from(&query, &cand);
        assert!((0.0..=1.0).contains(&c.progress));
        let granules: HashSet<String> = statement_granules(&cand).texts().iter().cloned().collect();
        for l in &c.lines {
            assert!(granules.contains(l));
        }
        // lines + covered partition the granules.
        let covered = (c.progress * granules.len() as f32).round() as usize;
        assert_eq!(covered + c.lines.len(), granules.len());
    });
}

// ---------------------------------------------------------------------------
// Dataset generation invariants
// ---------------------------------------------------------------------------

#[test]
fn generated_corpora_always_parse() {
    check(12, |rng| {
        let d = corpus(6, 3, rng.below(1000) as u64);
        assert_eq!(d.len(), 18);
        for e in &d.entries {
            let tree = pyparse::parse(&e.code);
            assert!(tree.errors.is_empty(), "{}: {:?}", e.name, tree.errors);
        }
        // Names unique.
        let names: HashSet<_> = d.entries.iter().map(|e| e.name.clone()).collect();
        assert_eq!(names.len(), d.len());
    });
}
