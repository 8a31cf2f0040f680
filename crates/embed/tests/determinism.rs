//! The embedders are bit-deterministic: the same input embeds to the same
//! 256 `f32` bit patterns every time, within one process and one thread.
//!
//! Both models sum `sign · weight · √count` per hashed dimension. Once
//! three or more features collide on a dimension the rounded `f32` sum
//! depends on the order of the additions, so the accumulator must iterate
//! in a fixed order. 200 inputs long enough to collide, embedded 50 times
//! each: a `HashMap` accumulator differs from its own first result on
//! over a third of these repeats.

use embed::{DenseVec, ReaccSim, UniXcoderSim};

const INPUTS: usize = 200;
const REPEATS: usize = 50;

const WORDS: &[&str] = &[
    "anomaly",
    "detect",
    "stream",
    "sensor",
    "normalize",
    "records",
    "prime",
    "number",
    "producer",
    "tokenize",
    "words",
    "count",
    "filter",
    "window",
    "average",
    "threshold",
    "parse",
    "json",
    "redis",
    "publish",
    "temperature",
    "readings",
    "workflow",
    "element",
    "batch",
    "merge",
];

/// Knuth's MMIX LCG: a fixed input set with no dependency on `rand`.
fn lcg(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

fn sentence(state: &mut u64) -> String {
    let n = 20 + lcg(state) % 40;
    (0..n)
        .map(|_| WORDS[lcg(state) % WORDS.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

fn code(state: &mut u64) -> String {
    let mut src = String::from("class Pe(IterativePE):\n    def _process(self, data):\n");
    for _ in 0..8 + lcg(state) % 12 {
        let (a, b, c) = (
            WORDS[lcg(state) % WORDS.len()],
            WORDS[lcg(state) % WORDS.len()],
            WORDS[lcg(state) % WORDS.len()],
        );
        src.push_str(&format!("        {a} = self.{b}(data, {c})\n"));
    }
    src.push_str("        return data\n");
    src
}

fn bits(v: &DenseVec) -> Vec<u32> {
    v.values.iter().map(|x| x.to_bits()).collect()
}

fn assert_repeats_bit_identical(what: &str, inputs: &[String], embed: impl Fn(&str) -> DenseVec) {
    let mut differing = 0;
    for input in inputs {
        let first = bits(&embed(input));
        differing += (1..REPEATS)
            .filter(|_| bits(&embed(input)) != first)
            .count();
    }
    assert_eq!(
        differing,
        0,
        "{what}: {differing} of {} repeats differ bitwise from the first result",
        inputs.len() * (REPEATS - 1)
    );
}

#[test]
fn embed_text_is_bit_identical_across_repeats() {
    let mut state = 42;
    let inputs: Vec<String> = (0..INPUTS).map(|_| sentence(&mut state)).collect();
    let model = UniXcoderSim::new();
    assert_repeats_bit_identical("embed_text", &inputs, |s| model.embed_text(s));
}

#[test]
fn embed_code_is_bit_identical_across_repeats() {
    let mut state = 1337;
    let inputs: Vec<String> = (0..INPUTS).map(|_| code(&mut state)).collect();
    let model = ReaccSim::new();
    assert_repeats_bit_identical("embed_code", &inputs, |s| model.embed_code(s));
}
