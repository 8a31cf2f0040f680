//! The seeded workload generator.
//!
//! Each client thread draws from its own [`Generator`], an endless
//! iterator of [`Op`]s that is a pure function of `(workload, seed,
//! thread)`: how far a timed run gets into the stream depends on the
//! machine, what the stream holds does not. The server only ever sees
//! what comes out of here.

use crate::fixture::{camel, Corpus};
use csn::{family_catalogue, Dataset, DatasetConfig, PeEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    Search,
    Recommend,
    Ingest,
    Mixed,
    Run,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Search,
        Workload::Recommend,
        Workload::Ingest,
        Workload::Mixed,
        Workload::Run,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Search => "search",
            Workload::Recommend => "recommend",
            Workload::Ingest => "ingest",
            Workload::Mixed => "mixed",
            Workload::Run => "run",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload starts on the loaded corpus (else on an
    /// empty data directory).
    pub fn on_corpus(self) -> bool {
        matches!(
            self,
            Workload::Search | Workload::Recommend | Workload::Mixed
        )
    }
}

/// The operation classes the per-layer client metrics are keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    SearchSemantic,
    SearchLiteral,
    RecoSptPe,
    RecoSptWf,
    RecoLlmPe,
    Completion,
    GetPe,
    RegisterPe,
    RegisterBatch,
    RegisterWf,
    UpdateDesc,
    RunSeq,
    RunMulti,
    RunDynamic,
}

impl OpClass {
    pub const ALL: [OpClass; 14] = [
        OpClass::SearchSemantic,
        OpClass::SearchLiteral,
        OpClass::RecoSptPe,
        OpClass::RecoSptWf,
        OpClass::RecoLlmPe,
        OpClass::Completion,
        OpClass::GetPe,
        OpClass::RegisterPe,
        OpClass::RegisterBatch,
        OpClass::RegisterWf,
        OpClass::UpdateDesc,
        OpClass::RunSeq,
        OpClass::RunMulti,
        OpClass::RunDynamic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpClass::SearchSemantic => "search_semantic",
            OpClass::SearchLiteral => "search_literal",
            OpClass::RecoSptPe => "reco_spt_pe",
            OpClass::RecoSptWf => "reco_spt_wf",
            OpClass::RecoLlmPe => "reco_llm_pe",
            OpClass::Completion => "completion",
            OpClass::GetPe => "get_pe",
            OpClass::RegisterPe => "register_pe",
            OpClass::RegisterBatch => "register_batch",
            OpClass::RegisterWf => "register_wf",
            OpClass::UpdateDesc => "update_desc",
            OpClass::RunSeq => "run_seq",
            OpClass::RunMulti => "run_multi",
            OpClass::RunDynamic => "run_dynamic",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    Sequential,
    Multiprocess,
    Dynamic,
}

/// Iterations every `run` request asks for.
pub const RUN_ITERATIONS: u64 = 200;
/// Ranks of a multiprocess run.
pub const RUN_PROCESSES: usize = 5;
/// PEs in one `register_batch` of the ingest schedule.
pub const INGEST_BATCH: usize = 16;
/// Distinct arguments per read class in `mixed`.
pub const POOL: usize = 256;
const ZIPF_EXPONENT: f64 = 1.1;
const POOL_SEED: u64 = 0x9001;

/// A new PE: a unique name and its class source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreshPe {
    pub name: String,
    pub code: String,
}

/// One request. `family` is the ground truth replies are scored against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    SearchSemantic {
        workflows: bool,
        query: String,
        family: usize,
    },
    SearchLiteral {
        term: String,
    },
    Recommend {
        workflows: bool,
        llm: bool,
        snippet: String,
        family: usize,
    },
    Completion {
        snippet: String,
    },
    GetPe {
        name: String,
    },
    RegisterPe(FreshPe),
    RegisterBatch(Vec<FreshPe>),
    /// A workflow file over PEs this thread registered earlier.
    RegisterWorkflow {
        name: String,
        source: String,
    },
    UpdateDescription {
        name: String,
        description: String,
    },
    Run {
        workflow: &'static str,
        kind: RunKind,
    },
}

impl Op {
    pub fn class(&self) -> OpClass {
        match self {
            Op::SearchSemantic { .. } => OpClass::SearchSemantic,
            Op::SearchLiteral { .. } => OpClass::SearchLiteral,
            Op::Recommend { llm: true, .. } => OpClass::RecoLlmPe,
            Op::Recommend {
                workflows: true, ..
            } => OpClass::RecoSptWf,
            Op::Recommend { .. } => OpClass::RecoSptPe,
            Op::Completion { .. } => OpClass::Completion,
            Op::GetPe { .. } => OpClass::GetPe,
            Op::RegisterPe(_) => OpClass::RegisterPe,
            Op::RegisterBatch(_) => OpClass::RegisterBatch,
            Op::RegisterWorkflow { .. } => OpClass::RegisterWf,
            Op::UpdateDescription { .. } => OpClass::UpdateDesc,
            Op::Run { kind, .. } => match kind {
                RunKind::Sequential => OpClass::RunSeq,
                RunKind::Multiprocess => OpClass::RunMulti,
                RunKind::Dynamic => OpClass::RunDynamic,
            },
        }
    }

    /// Registry rows the op adds when it succeeds: `(PEs, workflows)`.
    pub fn rows_added(&self) -> (u64, u64) {
        match self {
            Op::RegisterPe(_) => (1, 0),
            Op::RegisterBatch(items) => (items.len() as u64, 0),
            Op::RegisterWorkflow { .. } => (0, 1),
            _ => (0, 0),
        }
    }
}

/// Zipf over `n` ranks by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += (rank as f64).powf(-exponent);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The fixed argument pools `mixed` draws its reads from. Their contents
/// come from [`POOL_SEED`], not the run's seed: under Zipf(1.1) the top
/// few ranks of a pool take most draws, so pools that changed with the
/// seed would make the seed choose how expensive the workload is. The
/// run's seed drives which ranks are drawn, and both client threads
/// repeat the same arguments.
struct Pools {
    semantic: Vec<Op>,
    reco_spt: Vec<Op>,
    reco_llm: Vec<Op>,
    completion: Vec<Op>,
    literal: Vec<Op>,
    get_pe: Vec<Op>,
    zipf: Zipf,
}

pub struct Generator<'c> {
    workload: Workload,
    corpus: &'c Corpus,
    rng: StdRng,
    seed: u64,
    thread: usize,
    /// Requests drawn so far.
    drawn: u64,
    /// New PEs named so far.
    named: u64,
    fresh: VecDeque<PeEntry>,
    fresh_blocks: u64,
    /// PEs this thread registered most recently, for workflow files.
    recent: VecDeque<FreshPe>,
    /// A workflow file is due after the single register just drawn.
    workflow_due: bool,
    workflows_named: u64,
    seen: HashSet<String>,
    pools: Option<Pools>,
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `entry` cut to a seeded 40–60 % of its lines: the omission protocol of
/// the paper's code-to-code evaluation.
fn truncate(entry: &PeEntry, rng: &mut StdRng) -> String {
    let lines: Vec<&str> = entry.code.lines().collect();
    let keep = ((lines.len() as f64 * rng.gen_range(0.4..0.6f64)).round() as usize).max(2);
    lines[..keep.min(lines.len())].join("\n") + "\n"
}

/// A ground-truth description with each word dropped with probability
/// 0.2, at least three words kept.
fn dropout(description: &str, rng: &mut StdRng) -> String {
    let words: Vec<&str> = description.split_whitespace().collect();
    let mut kept: Vec<&str> = words
        .iter()
        .copied()
        .filter(|_| !rng.gen_bool(0.2))
        .collect();
    if kept.len() < 3.min(words.len()) {
        kept = words;
    }
    kept.join(" ")
}

impl<'c> Generator<'c> {
    pub fn new(workload: Workload, seed: u64, thread: usize, corpus: &'c Corpus) -> Generator<'c> {
        let pools = (workload == Workload::Mixed)
            .then(|| Generator::bare(Workload::Mixed, POOL_SEED, usize::MAX, corpus).build_pools());
        let mut g = Generator::bare(workload, seed, thread, corpus);
        g.pools = pools;
        g
    }

    fn bare(workload: Workload, seed: u64, thread: usize, corpus: &'c Corpus) -> Generator<'c> {
        Generator {
            workload,
            corpus,
            rng: StdRng::seed_from_u64(mix(mix(seed, workload as u64), thread as u64)),
            seed,
            thread,
            drawn: 0,
            named: 0,
            fresh: VecDeque::new(),
            fresh_blocks: 0,
            recent: VecDeque::new(),
            workflow_due: false,
            workflows_named: 0,
            seen: HashSet::new(),
            pools: None,
        }
    }

    /// The number in the `n`-th new name of this generator. Corpus ids
    /// stay far below a million; the workload and thread digits keep
    /// `ingest`, `mixed` and their threads apart.
    fn unique(&self, n: u64) -> u64 {
        1_000_000 * (10 * (self.workload as u64 + 1) + self.thread as u64 + 1) + n
    }

    fn entry(&mut self) -> &'c PeEntry {
        let entries = self.corpus.entries();
        &entries[self.rng.gen_range(0..entries.len())]
    }

    /// A semantic query no earlier draw of this generator produced.
    fn semantic(&mut self, workflows: bool) -> Op {
        let family = self.rng.gen_range(0..family_catalogue().len());
        let descriptions = family_catalogue()[family].descriptions;
        let mut query = String::new();
        for _ in 0..16 {
            let base = descriptions[self.rng.gen_range(0..descriptions.len())];
            query = dropout(base, &mut self.rng);
            if self.seen.insert(query.clone()) {
                break;
            }
        }
        Op::SearchSemantic {
            workflows,
            query,
            family,
        }
    }

    fn recommend(&mut self, workflows: bool, llm: bool) -> Op {
        let entry = self.entry();
        Op::Recommend {
            workflows,
            llm,
            snippet: truncate(entry, &mut self.rng),
            family: entry.family,
        }
    }

    /// The next new PE: a `csn` variant from a seed no corpus uses, under
    /// a name no other thread, workload or corpus row has.
    fn fresh_pe(&mut self) -> FreshPe {
        if self.fresh.is_empty() {
            let block = Dataset::generate(DatasetConfig {
                families: family_catalogue().len(),
                variants_per_family: 8,
                seed: mix(
                    mix(self.seed, 0xf4e5),
                    mix(self.thread as u64, self.fresh_blocks),
                ),
                ..DatasetConfig::default()
            });
            self.fresh_blocks += 1;
            let mut entries = block.entries;
            // Interleave families instead of registering them in runs.
            for i in (1..entries.len()).rev() {
                entries.swap(i, self.rng.gen_range(0..=i));
            }
            self.fresh = entries.into();
        }
        let entry = self.fresh.pop_front().expect("block was just refilled");
        let unique = self.unique(self.named);
        self.named += 1;
        let name = format!("{}PE{unique}", camel(family_catalogue()[entry.family].key));
        FreshPe {
            code: entry.code.replace(&entry.name, &name),
            name,
        }
    }

    fn register_pe(&mut self) -> Op {
        let pe = self.fresh_pe();
        self.recent.push_back(pe.clone());
        if self.recent.len() > 8 {
            self.recent.pop_front();
        }
        Op::RegisterPe(pe)
    }

    fn register_workflow(&mut self) -> Op {
        let members = self.rng.gen_range(3..=6usize).min(self.recent.len());
        let source = self
            .recent
            .iter()
            .rev()
            .take(members)
            .map(|pe| pe.code.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        let unique = self.unique(self.workflows_named);
        self.workflows_named += 1;
        Op::RegisterWorkflow {
            name: format!("BenchWf{unique}"),
            source,
        }
    }

    fn ingest(&mut self) -> Op {
        if std::mem::take(&mut self.workflow_due) {
            return self.register_workflow();
        }
        // Ten-request schedule: nine singles, then one batch. The drawn
        // counter skips workflow files, which ride behind a single.
        let slot = self.drawn;
        self.drawn += 1;
        if slot % 10 == 9 {
            return Op::RegisterBatch((0..INGEST_BATCH).map(|_| self.fresh_pe()).collect());
        }
        let singles = slot - slot / 10;
        self.workflow_due = singles % 20 == 19;
        self.register_pe()
    }

    fn build_pools(&mut self) -> Pools {
        let semantic = (0..POOL).map(|_| self.semantic(false)).collect();
        let reco_spt = (0..POOL).map(|_| self.recommend(false, false)).collect();
        let reco_llm = (0..POOL).map(|_| self.recommend(false, true)).collect();
        let completion = (0..POOL)
            .map(|_| {
                let entry = self.entry();
                Op::Completion {
                    snippet: truncate(entry, &mut self.rng),
                }
            })
            .collect();
        // Half the terms are PE names less their last character (a
        // handful of rows), half are description words (a capped page).
        let mut terms = HashSet::new();
        let mut literal = Vec::new();
        let mut attempts = 0;
        while literal.len() < POOL {
            attempts += 1;
            let entry = self.entry();
            let term = if literal.len() % 2 == 0 {
                entry.name[..entry.name.len() - 1].to_string()
            } else {
                let words: Vec<&str> = entry.description.split_whitespace().collect();
                let at = self.rng.gen_range(0..words.len());
                words[at..(at + 2).min(words.len())].join(" ")
            };
            // A tiny corpus may not hold POOL distinct terms.
            if terms.insert(term.clone()) || attempts > 64 * POOL {
                literal.push(Op::SearchLiteral { term });
            }
        }
        let get_pe = (0..POOL)
            .map(|_| Op::GetPe {
                name: self.entry().name.clone(),
            })
            .collect();
        Pools {
            semantic,
            reco_spt,
            reco_llm,
            completion,
            literal,
            get_pe,
            zipf: Zipf::new(POOL, ZIPF_EXPONENT),
        }
    }

    fn mixed(&mut self) -> Op {
        let roll = self.rng.gen_range(0..100);
        let pools = self.pools.as_ref().expect("mixed generators carry pools");
        let pick = |pool: &[Op], rng: &mut StdRng| pool[pools.zipf.sample(rng)].clone();
        match roll {
            0..=54 => pick(&pools.semantic, &mut self.rng),
            55..=69 => pick(&pools.reco_spt, &mut self.rng),
            70..=74 => pick(&pools.reco_llm, &mut self.rng),
            75..=79 => pick(&pools.completion, &mut self.rng),
            80..=84 => pick(&pools.literal, &mut self.rng),
            85..=89 => pick(&pools.get_pe, &mut self.rng),
            90..=97 => self.register_pe(),
            _ => {
                let entry = self.entry();
                let descriptions = family_catalogue()[entry.family].descriptions;
                Op::UpdateDescription {
                    name: entry.name.clone(),
                    description: descriptions[self.rng.gen_range(0..descriptions.len())]
                        .to_string(),
                }
            }
        }
    }

    fn run(&mut self) -> Op {
        let slot = self.drawn;
        self.drawn += 1;
        // Sequential 50 %, multiprocess 25 %, dynamic 25 %, the two
        // workflows alternating. Dynamic runs are all `isprime_wf`: the
        // dynamic mapping keeps PE state per worker (as `d4py` documents,
        // like the Redis mapping it models), so `wordcount_wf`'s running
        // counts are not defined under it.
        let kind = match slot % 8 {
            0..=3 => RunKind::Sequential,
            4 | 5 => RunKind::Multiprocess,
            _ => RunKind::Dynamic,
        };
        Op::Run {
            workflow: if slot.is_multiple_of(2) || kind == RunKind::Dynamic {
                "isprime_wf"
            } else {
                "wordcount_wf"
            },
            kind,
        }
    }
}

impl Iterator for Generator<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match self.workload {
            Workload::Search => {
                let workflows = self.rng.gen_bool(0.2);
                self.semantic(workflows)
            }
            Workload::Recommend => {
                let workflows = self.rng.gen_bool(0.2);
                self.recommend(workflows, false)
            }
            Workload::Ingest => self.ingest(),
            Workload::Mixed => self.mixed(),
            Workload::Run => self.run(),
        })
    }
}

/// Requests per thread that go into [`stream_hash`].
pub const HASHED_OPS: usize = 512;

/// FNV-1a over the first [`HASHED_OPS`] requests of each of `threads`
/// streams: the fingerprint a result carries so two runs can show they
/// were offered the same requests.
pub fn stream_hash(workload: Workload, seed: u64, threads: usize, corpus: &Corpus) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for thread in 0..threads {
        for op in Generator::new(workload, seed, thread, corpus).take(HASHED_OPS) {
            for byte in format!("{op:?}").bytes() {
                hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{family_of, Scale};

    fn corpus() -> Corpus {
        Corpus::generate(Scale::SMOKE)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let corpus = corpus();
        for workload in Workload::ALL {
            let a: Vec<Op> = Generator::new(workload, 7, 1, &corpus).take(300).collect();
            let b: Vec<Op> = Generator::new(workload, 7, 1, &corpus).take(300).collect();
            assert_eq!(a, b, "{workload:?}");
            assert_eq!(
                stream_hash(workload, 7, 2, &corpus),
                stream_hash(workload, 7, 2, &corpus)
            );
            if workload != Workload::Run {
                assert_ne!(
                    stream_hash(workload, 7, 2, &corpus),
                    stream_hash(workload, 8, 2, &corpus),
                    "{workload:?}"
                );
            }
        }
    }

    #[test]
    fn new_names_are_unique_across_threads_and_workloads() {
        let corpus = corpus();
        let mut names = HashSet::new();
        for workload in [Workload::Ingest, Workload::Mixed] {
            for thread in 0..2 {
                for op in Generator::new(workload, 3, thread, &corpus).take(400) {
                    let fresh = match op {
                        Op::RegisterPe(pe) => vec![pe],
                        Op::RegisterBatch(items) => items,
                        _ => continue,
                    };
                    for pe in fresh {
                        assert!(pe.code.contains(&format!("class {}(", pe.name)));
                        assert!(family_of(&pe.name).is_some(), "{}", pe.name);
                        assert!(names.insert(pe.name.clone()), "{} repeats", pe.name);
                    }
                }
            }
        }
        assert!(corpus.entries().iter().all(|e| !names.contains(&e.name)));
    }

    #[test]
    fn ingest_follows_the_nine_to_one_schedule() {
        let corpus = corpus();
        let ops: Vec<Op> = Generator::new(Workload::Ingest, 1, 0, &corpus)
            .take(230)
            .collect();
        let requests: Vec<&Op> = ops
            .iter()
            .filter(|op| !matches!(op, Op::RegisterWorkflow { .. }))
            .collect();
        for (i, op) in requests.iter().enumerate() {
            match op {
                Op::RegisterBatch(items) => {
                    assert_eq!(i % 10, 9);
                    assert_eq!(items.len(), INGEST_BATCH);
                }
                Op::RegisterPe(_) => assert_ne!(i % 10, 9),
                other => panic!("unexpected {other:?}"),
            }
        }
        let workflows = ops.len() - requests.len();
        assert!(
            workflows >= 9,
            "one workflow file per twenty singles, got {workflows}"
        );
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, Op::RegisterWorkflow { .. }) {
                assert!(matches!(ops[i - 1], Op::RegisterPe(_)));
            }
        }
    }

    #[test]
    fn search_queries_do_not_repeat_and_mixed_reads_do() {
        let corpus = corpus();
        let queries: Vec<String> = Generator::new(Workload::Search, 5, 0, &corpus)
            .take(2000)
            .map(|op| match op {
                Op::SearchSemantic { query, .. } => query,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let distinct: HashSet<&String> = queries.iter().collect();
        assert!(
            distinct.len() * 100 >= queries.len() * 99,
            "{} of {}",
            distinct.len(),
            queries.len()
        );

        let mixed: Vec<String> = Generator::new(Workload::Mixed, 5, 0, &corpus)
            .take(2000)
            .filter_map(|op| match op {
                Op::SearchSemantic { query, .. } => Some(query),
                _ => None,
            })
            .collect();
        let distinct: HashSet<&String> = mixed.iter().collect();
        assert!(distinct.len() <= POOL);
        assert!(distinct.len() * 2 < mixed.len(), "Zipf reads must repeat");
    }

    #[test]
    fn mixed_mix_matches_its_shares() {
        let corpus = corpus();
        let mut counts = std::collections::BTreeMap::new();
        let n = 20_000;
        for op in Generator::new(Workload::Mixed, 11, 0, &corpus).take(n) {
            *counts.entry(op.class()).or_insert(0usize) += 1;
        }
        let share = |c: OpClass| counts.get(&c).copied().unwrap_or(0) as f64 / n as f64;
        assert!((share(OpClass::SearchSemantic) - 0.55).abs() < 0.02);
        assert!((share(OpClass::RecoSptPe) - 0.15).abs() < 0.02);
        assert!((share(OpClass::RegisterPe) - 0.08).abs() < 0.01);
        assert!((share(OpClass::UpdateDesc) - 0.02).abs() < 0.01);
        for c in [
            OpClass::RecoLlmPe,
            OpClass::Completion,
            OpClass::SearchLiteral,
            OpClass::GetPe,
        ] {
            assert!((share(c) - 0.05).abs() < 0.01, "{c:?}");
        }
    }

    #[test]
    fn run_cycles_mappings_and_keeps_stateful_workflows_off_dynamic() {
        let corpus = corpus();
        let kinds: Vec<(&str, RunKind)> = Generator::new(Workload::Run, 1, 0, &corpus)
            .take(16)
            .map(|op| match op {
                Op::Run { workflow, kind } => (workflow, kind),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let of = |k: RunKind| kinds.iter().filter(|(_, kind)| *kind == k).count();
        assert_eq!(of(RunKind::Sequential), 8);
        assert_eq!(of(RunKind::Multiprocess), 4);
        assert_eq!(of(RunKind::Dynamic), 4);
        for kind in [RunKind::Sequential, RunKind::Multiprocess] {
            for wf in ["isprime_wf", "wordcount_wf"] {
                assert!(kinds.contains(&(wf, kind)), "{wf} never runs {kind:?}");
            }
        }
        assert!(!kinds.contains(&("wordcount_wf", RunKind::Dynamic)));
    }
}
