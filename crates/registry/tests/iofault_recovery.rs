//! Storage-chaos suite (DESIGN.md §11): deterministic disk faults driven
//! through every instrumented IO site of the durability layer.
//!
//! A fixed mutation script runs against a WAL-backed registry while an
//! [`IoFaultInjector`] fails one (or, in the persistent/random tests,
//! many) of its IO operations. The invariants, checked for **every**
//! `(site, kind)` combination:
//!
//! * **acknowledged ⇒ durable** — every mutation that returned `Ok` is
//!   present after a clean reopen;
//! * **rejected ⇒ absent** — a mutation that returned an error left the
//!   in-memory state untouched, and nothing of it replays from disk;
//! * the recovered registry equals the acknowledged state exactly
//!   (snapshot and name indexes), and still accepts writes;
//! * the storage probe fails while a persistent fault is armed and
//!   passes once it clears;
//! * the same seed and spec replay a bit-identical fault schedule and
//!   recover a bit-identical registry.

use laminar_registry::{
    ExecutionStatus, FaultEvent, FaultHook, FaultKind, FaultMode, FaultSpec, IoFaultHook,
    IoFaultInjector, IoSite, NewPe, NewWorkflow, PersistOptions, Registry, RegistrationUnit, RegistryError,
    SyncPolicy,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "laminar-iofault-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `EveryAppend` so the `wal_fsync` site is exercised; no auto-compaction
/// (the script compacts explicitly to hit the snapshot sites).
fn opts() -> PersistOptions {
    PersistOptions {
        snapshot_every: 0,
        sync: SyncPolicy::EveryAppend,
    }
}

fn new_pe(user_id: u64, name: &str) -> NewPe {
    NewPe {
        user_id,
        name: name.into(),
        description: "a chaos-suite pe".into(),
        code: "class P(IterativePE): pass".into(),
        description_embedding: "0.1,0.2".into(),
        spt_embedding: "0.3".into(),
    }
}

fn new_wf(user_id: u64, name: &str) -> NewWorkflow {
    NewWorkflow {
        user_id,
        name: name.into(),
        description: "a chaos-suite workflow".into(),
        code: "graph = WorkflowGraph()".into(),
        pe_ids: Vec::new(),
    }
}

/// Runs mutations one at a time, asserting after every rejected one that
/// the in-memory state is exactly what it was before the attempt.
struct Driver<'a> {
    reg: &'a Registry,
    acked: u64,
    rejected: u64,
}

impl Driver<'_> {
    fn step<T>(
        &mut self,
        f: impl FnOnce(&Registry) -> Result<T, RegistryError>,
    ) -> Option<T> {
        let before = self.reg.snapshot();
        match f(self.reg) {
            Ok(v) => {
                self.acked += 1;
                Some(v)
            }
            Err(_) => {
                assert_eq!(
                    self.reg.snapshot(),
                    before,
                    "a rejected mutation must leave memory untouched"
                );
                self.rejected += 1;
                None
            }
        }
    }
}

/// The fixed script: hits every instrumented site at least once —
/// single appends (+ their fsyncs), two group-commit frames (a
/// registration batch, a run's finish), and two explicit compactions
/// (snapshot write/fsync/rename + WAL truncate).
/// Later steps look their targets up dynamically, so the script stays
/// valid no matter which earlier step the injector killed.
fn drive(reg: &Registry) -> (u64, u64) {
    let mut d = Driver {
        reg,
        acked: 0,
        rejected: 0,
    };
    let user = d.step(|r| r.register_user("rosa", "pw")).unwrap_or(0);
    d.step(|r| r.add_pe(new_pe(user, "IsPrime")).map(|_| ()));
    d.step(|r| r.add_pe(new_pe(user, "Tokenizer")).map(|_| ()));
    d.step(|r| {
        r.add_units(vec![RegistrationUnit {
            pes: vec![new_pe(user, "Counter"), new_pe(user, "Doubler")],
            workflow: Some(new_wf(user, "count_wf")),
        }])
        .map(|_| ())
    });
    d.step(|r| r.compact().map(|_| ()));
    d.step(|r| match r.all_pes().first().map(|p| p.id) {
        Some(id) => r.update_pe_description(id, "updated"),
        None => Ok(()),
    });
    let wf = reg.all_workflows().first().map(|w| w.id);
    d.step(|r| match wf {
        Some(id) => r.add_execution(id, user, "simple", "5").map(|_| ()),
        None => Ok(()),
    });
    let exec = wf.and_then(|w| reg.executions_for(w).first().map(|e| e.id));
    d.step(|r| match exec {
        Some(id) => r
            .finish_execution(id, "the num 5 is prime", ExecutionStatus::Completed)
            .map(|_| ()),
        None => Ok(()),
    });
    d.step(|r| r.add_pe(new_pe(user, "Anomaly")).map(|_| ()));
    d.step(|r| r.compact().map(|_| ()));
    (d.acked, d.rejected)
}

/// Which matching operation to fail, per site — chosen so the fault
/// lands mid-script (the script provides at least this many matches).
fn nth_for(site: IoSite) -> u64 {
    match site {
        IoSite::WalAppend => 3,
        IoSite::WalFsync => 5,
        _ => 1,
    }
}

/// The tentpole matrix: one injected fault at every site × every kind;
/// after the fault clears, the probe passes and a clean reopen recovers
/// exactly the acknowledged state.
#[test]
fn one_fault_at_every_site_and_kind_preserves_acknowledged_state() {
    for site in IoSite::ALL {
        for kind in [
            FaultKind::Enospc,
            FaultKind::ShortWrite,
            FaultKind::FsyncError,
        ] {
            let dir = fresh_dir(&format!("{}-{kind:?}", site.name()));
            let inj =
                IoFaultInjector::new(42, FaultSpec::nth_at(site, nth_for(site), kind));
            let hook: FaultHook = inj.clone();
            let reg = Registry::open_with_faults(&dir, opts(), hook).unwrap();

            let (acked, rejected) = drive(&reg);
            let tag = format!("{} / {kind:?}", site.name());
            assert_eq!(inj.injected_total(), 1, "{tag}: the Nth fault must fire once");
            assert!(rejected >= 1, "{tag}: the faulted step must be rejected");
            assert!(acked >= 1, "{tag}: the script must get some work through");
            let counters = inj.counters();
            let hit = counters.iter().find(|c| c.site == site).unwrap();
            assert_eq!((hit.injected, hit.ops >= nth_for(site)), (1, true), "{tag}");

            // The fault condition clears; the storage probe passes and
            // re-truncates any torn tail left behind.
            inj.clear();
            reg.verify_storage().unwrap_or_else(|e| panic!("{tag}: probe after clear: {e}"));

            let expected = reg.snapshot();
            drop(reg);

            // Clean reopen (no hook): recovered == acknowledged, indexes
            // match a from-scratch rebuild, and writes still land.
            let recovered = Registry::open(&dir, opts()).unwrap();
            assert_eq!(recovered.snapshot(), expected, "{tag}");
            assert_eq!(
                recovered.debug_name_indexes(),
                Registry::from_snapshot(expected).debug_name_indexes(),
                "{tag}"
            );
            let uid = recovered
                .login("rosa", "pw")
                .or_else(|_| recovered.register_user("rosa", "pw"))
                .unwrap();
            recovered
                .add_pe(new_pe(uid, "PostRecovery"))
                .unwrap_or_else(|e| panic!("{tag}: post-recovery write: {e}"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A disk that is full and stays full: every mutation is rejected and
/// memory never drifts; the probe fails while the fault is armed and
/// passes once it clears, after which writes succeed again.
#[test]
fn persistent_enospc_rejects_everything_until_cleared() {
    let dir = fresh_dir("persistent");
    let inj = IoFaultInjector::new(7, FaultSpec::persistent(FaultKind::Enospc));
    let hook: FaultHook = inj.clone();
    let reg = Registry::open_with_faults(&dir, opts(), hook).unwrap();

    let empty = reg.snapshot();
    for _ in 0..3 {
        assert!(matches!(
            reg.register_user("rosa", "pw"),
            Err(RegistryError::Persistence(_))
        ));
        assert_eq!(reg.snapshot(), empty, "rejections must leave memory untouched");
    }
    assert!(inj.injected_total() >= 3);
    assert!(
        reg.verify_storage().is_err(),
        "the probe must fail while the device stays full"
    );

    inj.clear();
    reg.verify_storage().unwrap();
    let user = reg.register_user("rosa", "pw").unwrap();
    reg.add_pe(new_pe(user, "IsPrime")).unwrap();
    let expected = reg.snapshot();
    drop(reg);
    let recovered = Registry::open(&dir, opts()).unwrap();
    assert_eq!(recovered.snapshot(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed append must not poison the log for the appends after it:
/// a short write mid-script leaves the tail clean enough that every
/// later acknowledged mutation survives a reopen.
#[test]
fn short_write_mid_script_does_not_bury_later_appends() {
    let dir = fresh_dir("tail");
    let inj = IoFaultInjector::new(
        13,
        FaultSpec {
            sites: vec![IoSite::WalAppend],
            mode: FaultMode::Nth(2),
            kind: FaultKind::ShortWrite,
            short_cut: Some(5),
        },
    );
    let hook: FaultHook = inj.clone();
    let reg = Registry::open_with_faults(&dir, opts(), hook).unwrap();
    let user = reg.register_user("rosa", "pw").unwrap();
    assert!(reg.add_pe(new_pe(user, "Torn")).is_err(), "the 2nd append faults");
    // The very next append must land on a clean boundary and replay.
    let pe = reg.add_pe(new_pe(user, "Survivor")).unwrap();
    let expected = reg.snapshot();
    drop(reg);
    let recovered = Registry::open(&dir, opts()).unwrap();
    assert_eq!(recovered.snapshot(), expected);
    assert_eq!(recovered.get_pe(pe).unwrap().name, "Survivor");
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_seeded(seed: u64) -> (Vec<FaultEvent>, u64, u64, Vec<u8>) {
    let dir = fresh_dir(&format!("seed{seed}"));
    let inj = IoFaultInjector::new(
        seed,
        FaultSpec {
            sites: Vec::new(),
            mode: FaultMode::Random(40),
            kind: FaultKind::ShortWrite,
            short_cut: None,
        },
    );
    let hook: FaultHook = inj.clone();
    let reg = Registry::open_with_faults(&dir, opts(), hook).unwrap();
    let (acked, rejected) = drive(&reg);
    inj.clear();
    reg.verify_storage().unwrap();
    let in_memory = reg.snapshot();
    drop(reg);
    let recovered = Registry::open(&dir, opts()).unwrap();
    assert_eq!(recovered.snapshot(), in_memory, "seed {seed}");
    let bytes = serde_json::to_vec(&recovered.snapshot()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (inj.journal(), acked, rejected, bytes)
}

/// Determinism: the same seed over the same script produces a
/// bit-identical fault schedule, the same ack/reject split, and a
/// bit-identical recovered registry; a different seed diverges.
#[test]
fn same_seed_replays_a_bit_identical_run() {
    let a = run_seeded(99);
    let b = run_seeded(99);
    assert_eq!(a.0, b.0, "fault journals must match event-for-event");
    assert_eq!((a.1, a.2), (b.1, b.2), "ack/reject split must match");
    assert_eq!(a.3, b.3, "recovered snapshots must be bit-identical");
    assert!(a.2 >= 1, "40% over the script should reject something");
    let c = run_seeded(100);
    assert_ne!(a.0, c.0, "a different seed must diverge");
}
