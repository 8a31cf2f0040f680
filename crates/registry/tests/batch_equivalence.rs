//! Properties of the registration frame (DESIGN.md §9): plain seeded
//! `#[test]`s over a local xorshift; a failing case prints its seed.
//!
//! Two contracts of [`Registry::add_units`] are under test:
//!
//! 1. **Chunking invariance** — a list of units committed as one frame
//!    must leave the registry in the bit-identical state that committing
//!    the same submissions row by row (`add_pe` / `add_workflow`, a frame
//!    per row) produces, including assigned ids, duplicate-name id-reuse,
//!    per-unit errors and the incrementally maintained name indexes. All
//!    of them stage rows through the same routine; how the rows are
//!    grouped into frames changes the commit granularity, never the
//!    outcome.
//! 2. **Frame atomicity** — the call is one WAL frame, so a crash
//!    mid-write recovers to *either* the pre-call state *or* the full
//!    post-call state. No byte-level cut may expose a partially applied
//!    frame.

use laminar_registry::{
    NewPe, NewWorkflow, PeOutcome, PersistOptions, Registry, RegistrationUnit, RegistryError,
    SyncPolicy, UnitOutcome, WAL_FILE,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "laminar-batch-eq-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
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

fn new_pe(user_id: u64, name: String) -> NewPe {
    NewPe {
        user_id,
        name,
        description: "a batch-equivalence pe".into(),
        code: "class P(IterativePE): pass".into(),
        description_embedding: "0.1,0.2".into(),
        spt_embedding: "0.3".into(),
    }
}

fn new_wf(user_id: u64, name: String, pe_ids: Vec<u64>) -> NewWorkflow {
    NewWorkflow {
        user_id,
        name,
        description: "a batch-equivalence workflow".into(),
        code: "graph = WorkflowGraph()".into(),
        description_embedding: "0.4".into(),
        spt_embedding: "0.5".into(),
        pe_ids,
    }
}

/// Generator-level description of one member PE: a name drawn from a
/// deliberately tiny alphabet (to provoke the duplicate-reuse path, in
/// both cases), and optionally a dangling user id (to provoke the
/// FK-check error path mid-unit).
#[derive(Debug, Clone)]
struct PeSpec {
    name: u8,
    lowercase: bool,
    bad_user: bool,
}

/// One unit of the generated batch: member PEs plus an optional workflow
/// whose name collides across units with probability by construction.
#[derive(Debug, Clone)]
struct UnitSpec {
    pes: Vec<PeSpec>,
    workflow: Option<u8>,
}

/// 1 to `max - 1` units of up to three member PEs (one in ten with a
/// dangling user) and, half the time, a workflow.
fn units(rng: &mut Rng, max: u64) -> Vec<UnitSpec> {
    (0..1 + rng.below(max - 1))
        .map(|_| UnitSpec {
            pes: (0..rng.below(4))
                .map(|_| PeSpec {
                    name: rng.next() as u8,
                    lowercase: rng.below(2) == 1,
                    bad_user: rng.below(10) == 0,
                })
                .collect(),
            workflow: (rng.below(2) == 1).then(|| rng.next() as u8),
        })
        .collect()
}

/// Materialise a spec against a concrete user id. The name alphabet is
/// four PE names (case-varied, since duplicate detection is
/// case-insensitive) and three workflow names.
fn unit_from_spec(user: u64, spec: &UnitSpec) -> RegistrationUnit {
    let pes = spec
        .pes
        .iter()
        .map(|p| {
            let name = if p.lowercase {
                format!("pe{}", p.name % 4)
            } else {
                format!("Pe{}", p.name % 4)
            };
            new_pe(if p.bad_user { user + 999 } else { user }, name)
        })
        .collect();
    // `add_units` derives the workflow's member list from the unit's own
    // PEs, so the pe_ids passed here are intentionally empty; the
    // row-by-row driver fills them in the same way.
    let workflow = spec
        .workflow
        .map(|n| new_wf(user, format!("Wf{}", n % 3), vec![]));
    RegistrationUnit { pes, workflow }
}

/// The finest chunking, one unit at a time: `add_pe` per member (on a
/// duplicate name, the id the submitting user already owns under it),
/// then `add_workflow` over the ids that landed — every row its own
/// frame. Returns the same outcome shape as `add_units`.
fn drive_sequential(reg: &Registry, unit: RegistrationUnit) -> UnitOutcome {
    let mut out = UnitOutcome::default();
    let mut member_ids: Vec<u64> = Vec::new();
    for new in unit.pes {
        let (name, user_id) = (new.name.clone(), new.user_id);
        match reg.add_pe(new) {
            Ok(id) => {
                member_ids.push(id);
                out.pes.push(PeOutcome {
                    name,
                    id,
                    created: true,
                });
            }
            Err(RegistryError::DuplicateName { .. }) => {
                let id = reg
                    .get_pe_by_name_for_user(user_id, &name)
                    .expect("duplicate implies a resolvable id")
                    .id;
                member_ids.push(id);
                out.pes.push(PeOutcome {
                    name,
                    id,
                    created: false,
                });
            }
            Err(e) => {
                out.error = Some(e);
                break;
            }
        }
    }
    if out.error.is_none() {
        if let Some(mut wf) = unit.workflow {
            wf.pe_ids = member_ids;
            let name = wf.name.clone();
            match reg.add_workflow(wf) {
                Ok(id) => out.workflow = Some((name, id)),
                Err(e) => out.error = Some(e),
            }
        }
    }
    out
}

/// `add_units(units)` ≡ the same submissions committed row by row:
/// identical outcomes (ids, reuse flags, errors), identical snapshot,
/// identical name indexes — live, and again after a WAL replay.
#[test]
fn batch_registration_equals_sequential_registration() {
    check(24, |rng| {
        let specs = units(rng, 6);
        let batch_dir = fresh_dir("batch");
        let seq_dir = fresh_dir("seq");
        let batch_reg = Registry::open(&batch_dir, opts()).unwrap();
        let seq_reg = Registry::open(&seq_dir, opts()).unwrap();
        let bu = batch_reg.register_user("rosa", "pw").unwrap();
        let su = seq_reg.register_user("rosa", "pw").unwrap();
        assert_eq!(bu, su);

        let batch_units: Vec<RegistrationUnit> =
            specs.iter().map(|s| unit_from_spec(bu, s)).collect();
        let seq_units: Vec<RegistrationUnit> =
            specs.iter().map(|s| unit_from_spec(su, s)).collect();

        let batch_out = batch_reg.add_units(batch_units).unwrap();
        let seq_out: Vec<UnitOutcome> = seq_units
            .into_iter()
            .map(|u| drive_sequential(&seq_reg, u))
            .collect();

        assert_eq!(batch_out.len(), seq_out.len());
        for (b, s) in batch_out.iter().zip(&seq_out) {
            assert_eq!(&b.pes, &s.pes);
            assert_eq!(&b.workflow, &s.workflow);
            assert_eq!(&b.error, &s.error);
        }
        assert_eq!(&batch_reg.snapshot(), &seq_reg.snapshot());
        assert_eq!(batch_reg.debug_name_indexes(), seq_reg.debug_name_indexes());

        // The group-commit frame replays to the same state the live
        // registry reached (and its indexes rebuild identically).
        let expected = batch_reg.snapshot();
        drop(batch_reg);
        let replayed = Registry::open(&batch_dir, opts()).unwrap();
        assert_eq!(&replayed.snapshot(), &expected);
        assert_eq!(replayed.debug_name_indexes(), seq_reg.debug_name_indexes());

        let _ = std::fs::remove_dir_all(&batch_dir);
        let _ = std::fs::remove_dir_all(&seq_dir);
    });
}

/// Cut the WAL at *every* byte across the batch frame: recovery must
/// land on the pre-batch state for every cut short of the full frame,
/// and on the post-batch state only at the frame boundary. A batch is
/// never partially applied.
#[test]
fn batch_frame_recovers_all_or_nothing() {
    check(24, |rng| {
        let specs = units(rng, 4);
        let dir = fresh_dir("cut");
        let (pre, post) = {
            let reg = Registry::open(&dir, opts()).unwrap();
            let user = reg.register_user("rosa", "pw").unwrap();
            let pre = reg.snapshot();
            let units: Vec<RegistrationUnit> =
                specs.iter().map(|s| unit_from_spec(user, s)).collect();
            reg.add_units(units).unwrap();
            (pre, reg.snapshot())
        };

        let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        // Frame 1 is the AddUser record; everything after it is the one
        // batch frame (empty when every unit failed validation).
        let user_frame_end = {
            let replay = laminar_registry::wal::replay(&dir.join(WAL_FILE)).unwrap();
            assert!(!replay.torn, "the uncut log must be clean");
            let first = &replay.records[0];
            8 + serde_json::to_vec(first).unwrap().len() as u64
        };
        let total = wal_bytes.len() as u64;

        for cut in user_frame_end..=total {
            let cut_dir = fresh_dir("cut-at");
            std::fs::write(cut_dir.join(WAL_FILE), &wal_bytes[..cut as usize]).unwrap();
            let recovered = Registry::open(&cut_dir, opts()).unwrap();
            let expected = if cut == total { &post } else { &pre };
            assert_eq!(&recovered.snapshot(), expected);
            let _ = std::fs::remove_dir_all(&cut_dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}
