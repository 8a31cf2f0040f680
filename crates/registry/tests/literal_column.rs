//! Literal search against the naive scan it replaced.
//!
//! The registry answers literal search from a lowercase column it keeps
//! beside the rows, updated by the one mutation path that live writes, WAL
//! replay and snapshot load share. Whatever that path is handed, the
//! answer must be exactly the scan `name.to_lowercase().contains(&t) ||
//! description.to_lowercase().contains(&t)` with `t = term.to_lowercase()`
//! over `all_pes` / `all_workflows`, in id order, and `literal_search_top`
//! its prefix of `limit` rows. Checked after every step of a seeded script
//! of adds, description updates, removes and `remove_all`, and again after
//! each reopen from a snapshot plus a WAL tail. Names and descriptions
//! draw on characters whose lowercase differs from a per-byte fold: the
//! Kelvin sign `K` (→ `k`), `İ` (→ `i̇`, one char to two), `ẞ` (→ `ß`) and a
//! final sigma (`Σ` → `ς` at a word's end, `σ` elsewhere).
//!
//! Plain `#[test]`s over a seeded xorshift; a failing case prints its
//! seed.

use laminar_registry::{
    NewPe, NewWorkflow, PeRow, PersistOptions, Registry, SearchTarget, SyncPolicy, WorkflowRow,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;

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

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// Pieces names and descriptions are built from.
const WORDS: [&str; 14] = [
    "Prime",
    "count",
    "WORD",
    "K",
    "\u{212A}elvin",
    "İstanbul",
    "ẞtraße",
    "ΣΟΦΟΣ",
    "σοφος",
    "Mix",
    "data",
    "İ",
    "ß",
    "ss",
];

/// Terms searched at every step: each word, case variants, the
/// two-character lowercase of `İ`, and the empty term, which matches all.
const TERMS: [&str; 17] = [
    "", "prime", "PRIME", "k", "K", "\u{212A}", "i\u{307}", "İ", "i", "ß", "ẞ", "ss", "σ", "ς",
    "Σ", "ος", "nomatch",
];

const LIMITS: [usize; 5] = [0, 1, 2, 5, usize::MAX];

fn text(rng: &mut Rng) -> String {
    let n = rng.below(4);
    (0..n)
        .map(|_| rng.pick(&WORDS))
        .collect::<Vec<_>>()
        .join(" ")
}

fn naive<'a, R>(rows: &'a [R], term: &str, fields: impl Fn(&R) -> (&str, &str)) -> Vec<&'a R> {
    let needle = term.to_lowercase();
    rows.iter()
        .filter(|r| {
            let (name, description) = fields(r);
            name.to_lowercase().contains(&needle) || description.to_lowercase().contains(&needle)
        })
        .collect()
}

/// Every term, target and limit against the naive scan.
fn check_all(reg: &Registry, what: &str) {
    let (pes, wfs) = (reg.all_pes(), reg.all_workflows());
    for term in TERMS {
        let want_pes = naive(&pes, term, |p: &PeRow| {
            (p.name.as_str(), p.description.as_str())
        });
        let want_wfs = naive(&wfs, term, |w: &WorkflowRow| {
            (w.name.as_str(), w.description.as_str())
        });
        for target in [SearchTarget::Pe, SearchTarget::Workflow, SearchTarget::Both] {
            let (want_p, want_w) = match target {
                SearchTarget::Pe => (want_pes.clone(), Vec::new()),
                SearchTarget::Workflow => (Vec::new(), want_wfs.clone()),
                SearchTarget::Both => (want_pes.clone(), want_wfs.clone()),
            };
            let (got_p, got_w) = reg.literal_search(target, term);
            assert_eq!(
                got_p.iter().collect::<Vec<_>>(),
                want_p,
                "{what}: PEs for {term:?} {target:?}"
            );
            assert_eq!(
                got_w.iter().collect::<Vec<_>>(),
                want_w,
                "{what}: workflows for {term:?} {target:?}"
            );
            for limit in LIMITS {
                let (top_p, top_w) = reg.literal_search_top(target, term, limit);
                let top_p: Vec<&PeRow> = top_p.iter().map(|p| &**p).collect();
                let top_w: Vec<&WorkflowRow> = top_w.iter().map(|w| &**w).collect();
                assert_eq!(
                    top_p,
                    want_p[..limit.min(want_p.len())],
                    "{what}: top {limit} PEs for {term:?} {target:?}"
                );
                assert_eq!(
                    top_w,
                    want_w[..limit.min(want_w.len())],
                    "{what}: top {limit} workflows for {term:?} {target:?}"
                );
            }
        }
    }
}

fn fresh_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "laminar-literal-column-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> PersistOptions {
    PersistOptions {
        snapshot_every: 0,
        sync: SyncPolicy::OsBuffered,
    }
}

/// One seeded script: `steps` operations, a compaction a third of the way
/// in and a reopen (snapshot + WAL tail) two thirds of the way in and at
/// the end.
fn script(seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let dir = fresh_dir(seed);
    let mut reg = Registry::open(&dir, opts()).unwrap();
    let user = reg.register_user("lit", "pw").unwrap();
    let mut serial = 0usize;
    for step in 0..steps {
        let pe_ids: Vec<u64> = reg.all_pes().iter().map(|p| p.id).collect();
        let wf_ids: Vec<u64> = reg.all_workflows().iter().map(|w| w.id).collect();
        serial += 1;
        match rng.below(20) {
            0..=6 => {
                let name = format!("{}{serial}", text(&mut rng));
                reg.add_pe(NewPe {
                    user_id: user,
                    name,
                    description: text(&mut rng),
                    code: String::new(),
                    description_embedding: String::new(),
                    spt_embedding: String::new(),
                })
                .unwrap();
            }
            7..=9 => {
                let members = if pe_ids.is_empty() || rng.below(2) == 0 {
                    Vec::new()
                } else {
                    vec![pe_ids[rng.below(pe_ids.len())]]
                };
                let name = format!("{}wf{serial}", text(&mut rng));
                reg.add_workflow(NewWorkflow {
                    user_id: user,
                    name,
                    description: text(&mut rng),
                    code: String::new(),
                    pe_ids: members,
                })
                .unwrap();
            }
            10..=12 if !pe_ids.is_empty() => {
                let id = pe_ids[rng.below(pe_ids.len())];
                reg.update_pe_description(id, &text(&mut rng)).unwrap();
            }
            13..=14 if !wf_ids.is_empty() => {
                let id = wf_ids[rng.below(wf_ids.len())];
                reg.update_workflow_description(id, &text(&mut rng))
                    .unwrap();
            }
            15..=16 if !pe_ids.is_empty() => {
                // A PE a workflow lists stays: the foreign key refuses.
                let _ = reg.remove_pe(pe_ids[rng.below(pe_ids.len())]);
            }
            17..=18 if !wf_ids.is_empty() => {
                reg.remove_workflow(wf_ids[rng.below(wf_ids.len())])
                    .unwrap();
            }
            19 if rng.below(4) == 0 => reg.remove_all().unwrap(),
            _ => {}
        }
        check_all(&reg, &format!("seed {seed:#x} step {step}"));
        if step == steps / 3 {
            reg.compact().unwrap();
        }
        if step == 2 * steps / 3 {
            let before = (reg.all_pes(), reg.all_workflows());
            drop(reg);
            reg = Registry::open(&dir, opts()).unwrap();
            assert_eq!((reg.all_pes(), reg.all_workflows()), before);
            check_all(&reg, &format!("seed {seed:#x} reopened at step {step}"));
        }
    }
    reg.compact().unwrap();
    let pes = reg.all_pes();
    reg.update_pe_description(pes.first().map_or(0, |p| p.id), "ẞ after the snapshot")
        .ok();
    let before = (reg.all_pes(), reg.all_workflows());
    drop(reg);
    let reg = Registry::open(&dir, opts()).unwrap();
    assert_eq!((reg.all_pes(), reg.all_workflows()), before);
    check_all(&reg, &format!("seed {seed:#x} reopened at the end"));
    drop(reg);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn literal_search_equals_the_naive_scan_through_writes_and_reopens() {
    for case in 1..=6u64 {
        let seed = case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| script(seed, 120))) {
            eprintln!("failing case seed: {seed:#x}");
            resume_unwind(panic);
        }
    }
}

/// The case-folding edge cases by name, so a regression names its
/// character.
#[test]
fn case_folding_edge_cases_match_like_to_lowercase() {
    let reg = Registry::new();
    let user = reg.register_user("lit", "pw").unwrap();
    for (name, description) in [
        ("\u{212A}elvinPE", "kelvin sign"),
        ("İstanbulPE", "dotted capital i"),
        ("ẞtraßePE", "capital sharp s"),
        ("SophosPE", "ΣΟΦΟΣ"),
        ("PlainPE", "ASCII only"),
    ] {
        reg.add_pe(NewPe {
            user_id: user,
            name: name.into(),
            description: description.into(),
            code: String::new(),
            description_embedding: String::new(),
            spt_embedding: String::new(),
        })
        .unwrap();
    }
    let names = |term: &str| -> Vec<String> {
        reg.literal_search(SearchTarget::Pe, term)
            .0
            .into_iter()
            .map(|p| p.name)
            .collect()
    };
    // The Kelvin sign lowercases to an ASCII `k`; an ASCII `K` does not
    // fold to the Kelvin sign.
    assert_eq!(names("kelvin"), ["\u{212A}elvinPE"]);
    assert_eq!(names("\u{212A}"), ["\u{212A}elvinPE"]);
    // `İ` lowercases to two chars, `i` + combining dot: a plain `i`
    // matches inside it, and the term `İ` matches only where it occurs.
    assert_eq!(names("İ"), ["İstanbulPE"]);
    assert_eq!(names("i\u{307}stanbul"), ["İstanbulPE"]);
    // `ẞ` lowercases to `ß`, never to `ss`.
    assert_eq!(names("ẞ"), ["ẞtraßePE"]);
    assert_eq!(names("ss"), Vec::<String>::new());
    // A final sigma lowercases to `ς` at a word's end.
    assert_eq!(names("σοφος"), ["SophosPE"]);
    assert_eq!(names("ΣΟΦΟΣ"), ["SophosPE"]);
    check_all(&reg, "edge cases");
}
