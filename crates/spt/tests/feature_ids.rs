//! The streamed extractor against its reference.
//!
//! `Spt::feature_vec` hashes features straight from the tree
//! (`spt::feature_ids`); `Spt::features` materialises the same features as
//! values. Every id a registry has ever stored is
//! `fnv1a(Feature::encode())`, so the two must agree as multisets on any
//! input — which is all that keeps stored `sptEmbedding` CLOBs, the
//! EXPERIMENTS.md tables and the sim digests where they are. (Labels past
//! 1 KiB are the exception: both extractors now bound them the same way,
//! so ids under such a node differ from what was stored before the bound.)
//!
//! Plain `#[test]`s over a seeded xorshift, so the suite also runs where
//! `proptest` is a stand-in.

use spt::vector::fnv1a;
use spt::{FeatureVec, Spt};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

const NAMES: &[&str] = &[
    "data", "item", "total", "self", "résumé", "x", "acc", "fh", "path", "n",
];
const CALLS: &[&str] = &[
    "len",
    "range",
    "open",
    "random.randint",
    "self.write",
    "print",
];
const LITERALS: &[&str] = &[
    "0",
    "1000",
    "3.5",
    "'ok'",
    "'twelve chars'",
    "'thirteen chars'",
    "\"a string literal far past the normalisation bound\"",
    "None",
    "True",
];

fn expr(rng: &mut Rng, depth: usize) -> String {
    match rng.below(if depth == 0 { 3 } else { 7 }) {
        0 => rng.pick(NAMES).to_string(),
        1 => rng.pick(LITERALS).to_string(),
        2 => format!("{}.{}", rng.pick(NAMES), rng.pick(NAMES)),
        3 => format!("{}({})", rng.pick(CALLS), expr(rng, depth - 1)),
        4 => format!(
            "{} {} {}",
            expr(rng, depth - 1),
            rng.pick(&["+", "*", "<", "and", "is not", "in"]),
            expr(rng, depth - 1)
        ),
        5 => format!("[{}, {}]", expr(rng, depth - 1), expr(rng, depth - 1)),
        _ => format!("{}[{}]", rng.pick(NAMES), expr(rng, depth - 1)),
    }
}

fn block(rng: &mut Rng, indent: usize, depth: usize, out: &mut String) {
    let pad = " ".repeat(indent);
    for _ in 0..1 + rng.below(4) {
        match rng.below(if depth == 0 { 4 } else { 8 }) {
            0 => out.push_str(&format!("{pad}{} = {}\n", rng.pick(NAMES), expr(rng, 2))),
            1 => out.push_str(&format!("{pad}{} += {}\n", rng.pick(NAMES), expr(rng, 1))),
            2 => out.push_str(&format!("{pad}return {}\n", expr(rng, 2))),
            3 => out.push_str(&format!("{pad}{}\n", expr(rng, 2))),
            4 => {
                out.push_str(&format!("{pad}if {}:\n", expr(rng, 2)));
                block(rng, indent + 4, depth - 1, out);
            }
            5 => {
                out.push_str(&format!(
                    "{pad}for {} in {}:\n",
                    rng.pick(NAMES),
                    expr(rng, 1)
                ));
                block(rng, indent + 4, depth - 1, out);
            }
            6 => {
                out.push_str(&format!(
                    "{pad}with open({}) as {}:\n",
                    rng.pick(NAMES),
                    rng.pick(NAMES)
                ));
                block(rng, indent + 4, depth - 1, out);
            }
            _ => {
                out.push_str(&format!(
                    "{pad}def {}(self, {}):\n",
                    rng.pick(CALLS).replace('.', "_"),
                    rng.pick(NAMES)
                ));
                block(rng, indent + 4, depth - 1, out);
            }
        }
    }
}

/// A processing-element-shaped class with a random body.
fn generated_pe(rng: &mut Rng) -> String {
    let mut src = format!("class PE{}(IterativePE):\n", rng.below(1000));
    src.push_str("    def _process(self, data):\n");
    block(rng, 8, 3, &mut src);
    src
}

/// `Spt::features` hashed the way ids have always been made.
fn reference(spt: &Spt) -> FeatureVec {
    let ids = spt
        .features()
        .iter()
        .map(|f| fnv1a(f.encode().as_bytes()))
        .collect();
    FeatureVec::from_ids(ids)
}

fn assert_streamed_equals_reference(src: &str) {
    let spt = Spt::parse_source(src);
    assert_eq!(spt.feature_vec(), reference(&spt), "source:\n{src}");
}

#[test]
fn generated_pes_and_partial_cuts_of_them() {
    let mut rng = Rng(0x5eed_1ab5);
    for _ in 0..300 {
        let src = generated_pe(&mut rng);
        assert_streamed_equals_reference(&src);
        // Cut at an arbitrary character: mid-token, mid-string, mid-block.
        let cut = rng.below(src.chars().count() + 1);
        let partial: String = src.chars().take(cut).collect();
        assert_streamed_equals_reference(&partial);
        // And at a line boundary, the way a recommendation query is cut.
        let lines: Vec<&str> = src.lines().collect();
        let keep = rng.below(lines.len() + 1);
        assert_streamed_equals_reference(&lines[..keep].join("\n"));
    }
}

#[test]
fn degenerate_sources() {
    for src in [
        "",
        "\n\n",
        "x",
        "x\n",
        "@@@ ###",
        "def f(:\n",
        "s = 'a very long string literal indeed'\nt = 'ok'\n",
        "x = x\nx = x\nx\n",
    ] {
        assert_streamed_equals_reference(src);
    }
    assert!(Spt::parse_source("").feature_vec().is_empty());
}

#[test]
fn child_indexes_past_255_wrap_like_the_stored_ids() {
    // 300 statements under one module node: child indexes 256.. wrap
    // through `u8`, and the label (899 bytes) is still hashed whole.
    let src: String = (0..300).map(|i| format!("f{i}()\n")).collect();
    let spt = Spt::parse_source(&src);
    let root = spt.root.expect("a module");
    assert_eq!(spt.children(root).len(), 300);
    assert!(spt.label(root).len() < 1024);
    assert_eq!(spt.feature_vec(), reference(&spt));
}

/// The longest label in `spt` (the list node's, in the sources below).
fn longest_label(spt: &Spt) -> &str {
    spt.nodes
        .iter()
        .filter_map(|n| match n {
            spt::SptNode::Internal { label, .. } => Some(label.as_str()),
            _ => None,
        })
        .max_by_key(|l| l.len())
        .expect("an internal node")
}

#[test]
fn labels_up_to_the_bound_hash_verbatim_and_longer_ones_by_prefix_and_length() {
    let list = |n: usize| format!("x = [{}]\n", vec!["1"; n].join(", "));
    let has = |spt: &Spt, encoding: String| {
        let id = fnv1a(encoding.as_bytes());
        spt.feature_vec().items.iter().any(|&(i, _)| i == id)
    };

    // `[ __ , __ ]` is 5 bytes per element + 1: 204 elements stay under
    // 1 KiB and hash exactly as they always have.
    let short = Spt::parse_source(&list(204));
    let label = longest_label(&short);
    assert_eq!(label.len(), 1021);
    assert!(has(&short, format!("P:1|1|{label}")));
    assert_eq!(short.feature_vec(), reference(&short));

    // Past it: the first 1 KiB and the byte length.
    let long = Spt::parse_source(&list(2000));
    let label = longest_label(&long);
    assert_eq!(label.len(), 10_001);
    assert!(has(&long, format!("P:1|1|{}#10001", &label[..1024])));
    assert!(!has(&long, format!("P:1|1|{label}")));
    assert_eq!(long.feature_vec(), reference(&long));
}
