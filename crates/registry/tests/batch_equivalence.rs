//! Properties of the registration frame (DESIGN.md §9).
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
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// Case count: the pinned default, or `LAMINAR_PROPTEST_CASES` when set.
/// `PROPTEST_RNG_SEED=<n>` pins the RNG; the committed
/// `.proptest-regressions` seeds are re-run before any novel case.
fn cases(default: u32) -> u32 {
    std::env::var("LAMINAR_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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

fn arb_unit() -> impl Strategy<Value = UnitSpec> {
    let pe = (any::<u8>(), any::<bool>(), proptest::bool::weighted(0.1)).prop_map(
        |(name, lowercase, bad_user)| PeSpec {
            name,
            lowercase,
            bad_user,
        },
    );
    (
        proptest::collection::vec(pe, 0..4),
        proptest::option::of(any::<u8>()),
    )
        .prop_map(|(pes, workflow)| UnitSpec { pes, workflow })
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: cases(24),
        ..ProptestConfig::default()
    })]

    /// `add_units(units)` ≡ the same submissions committed row by row:
    /// identical outcomes (ids, reuse flags, errors), identical snapshot,
    /// identical name indexes — live, and again after a WAL replay.
    #[test]
    fn batch_registration_equals_sequential_registration(
        specs in proptest::collection::vec(arb_unit(), 1..6)
    ) {
        let batch_dir = fresh_dir("batch");
        let seq_dir = fresh_dir("seq");
        let batch_reg = Registry::open(&batch_dir, opts()).unwrap();
        let seq_reg = Registry::open(&seq_dir, opts()).unwrap();
        let bu = batch_reg.register_user("rosa", "pw").unwrap();
        let su = seq_reg.register_user("rosa", "pw").unwrap();
        prop_assert_eq!(bu, su);

        let batch_units: Vec<RegistrationUnit> =
            specs.iter().map(|s| unit_from_spec(bu, s)).collect();
        let seq_units: Vec<RegistrationUnit> =
            specs.iter().map(|s| unit_from_spec(su, s)).collect();

        let batch_out = batch_reg.add_units(batch_units).unwrap();
        let seq_out: Vec<UnitOutcome> = seq_units
            .into_iter()
            .map(|u| drive_sequential(&seq_reg, u))
            .collect();

        prop_assert_eq!(batch_out.len(), seq_out.len());
        for (b, s) in batch_out.iter().zip(&seq_out) {
            prop_assert_eq!(&b.pes, &s.pes);
            prop_assert_eq!(&b.workflow, &s.workflow);
            prop_assert_eq!(&b.error, &s.error);
        }
        prop_assert_eq!(&batch_reg.snapshot(), &seq_reg.snapshot());
        prop_assert_eq!(
            batch_reg.debug_name_indexes(),
            seq_reg.debug_name_indexes()
        );

        // The group-commit frame replays to the same state the live
        // registry reached (and its indexes rebuild identically).
        let expected = batch_reg.snapshot();
        drop(batch_reg);
        let replayed = Registry::open(&batch_dir, opts()).unwrap();
        prop_assert_eq!(&replayed.snapshot(), &expected);
        prop_assert_eq!(
            replayed.debug_name_indexes(),
            seq_reg.debug_name_indexes()
        );

        let _ = std::fs::remove_dir_all(&batch_dir);
        let _ = std::fs::remove_dir_all(&seq_dir);
    }

    /// Cut the WAL at *every* byte across the batch frame: recovery must
    /// land on the pre-batch state for every cut short of the full frame,
    /// and on the post-batch state only at the frame boundary. A batch is
    /// never partially applied.
    #[test]
    fn batch_frame_recovers_all_or_nothing(
        specs in proptest::collection::vec(arb_unit(), 1..4)
    ) {
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
            prop_assert_eq!(&recovered.snapshot(), expected);
            let _ = std::fs::remove_dir_all(&cut_dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
