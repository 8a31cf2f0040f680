//! Crash-recovery property test for the durable registry (DESIGN.md §8):
//! plain seeded `#[test]`s over a local xorshift; a failing case prints
//! its seed.
//!
//! The durability contract under test: **acknowledged implies durable at
//! every byte**. A random mutation script is driven against a WAL-backed
//! registry while the acknowledged state after every WAL record is
//! captured. The WAL is then cut at *every byte offset spanning the tail
//! record* — simulating a crash mid-write — and each cut must recover to
//! exactly the acknowledged prefix:
//!
//! * the recovered `RegistrySnapshot` is bit-identical to the state after
//!   the last complete record;
//! * the incrementally maintained name indexes match a from-scratch
//!   rebuild of that same snapshot;
//! * the torn tail is truncated in place, so a further clean reopen
//!   replays the same prefix;
//! * the recovered registry accepts new writes.

use laminar_registry::wal::{Wal, WalOp, WalRecord};
use laminar_registry::{
    wal, ExecutionRow, ExecutionStatus, FaultHook, FaultKind, FaultSpec, IoFaultInjector, IoSite,
    NewPe, NewWorkflow, PersistOptions, Registry, RegistrySnapshot, ResponseRow, SyncPolicy,
    SEALED_WAL_FILE, SNAPSHOT_FILE, WAL_FILE,
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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
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
        "laminar-recovery-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// No auto-compaction: the whole history stays in the WAL, so every cut
/// point exercises replay rather than snapshot loading.
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
        description: "a property-test pe".into(),
        code: "class P(IterativePE): pass".into(),
        description_embedding: "0.1,0.2".into(),
        spt_embedding: "0.3".into(),
    }
}

fn new_wf(user_id: u64, name: String, pe_ids: Vec<u64>) -> NewWorkflow {
    NewWorkflow {
        user_id,
        name,
        description: "a property-test workflow".into(),
        code: "graph = WorkflowGraph()".into(),
        pe_ids,
    }
}

/// One step of the mutation script. Targets are chosen modulo the live
/// row set at interpretation time, so every generated script is valid to
/// *attempt* — rejected mutations (duplicates, FK violations) are part of
/// the property: they must leave no WAL record behind.
#[derive(Debug, Clone)]
enum Op {
    AddPe(u8),
    AddWorkflow(u8),
    UpdatePeDescription(u8),
    RemovePe(u8),
    RemoveWorkflow(u8),
    RemoveAll,
    AddExecution(u8),
    FinishExecution(u8),
}

/// 1 to 13 ops, weighted 4 : 3 : 2 : 2 : 2 : 1 : 2 : 2 in the order
/// `Op` declares them.
fn script(rng: &mut Rng) -> Vec<Op> {
    (0..1 + rng.below(13))
        .map(|_| {
            let n = rng.next() as u8;
            match rng.below(18) {
                0..=3 => Op::AddPe(n),
                4..=6 => Op::AddWorkflow(n),
                7..=8 => Op::UpdatePeDescription(n),
                9..=10 => Op::RemovePe(n),
                11..=12 => Op::RemoveWorkflow(n),
                13 => Op::RemoveAll,
                14..=15 => Op::AddExecution(n),
                _ => Op::FinishExecution(n),
            }
        })
        .collect()
}

fn pick(ids: &[u64], n: u8) -> Option<u64> {
    if ids.is_empty() {
        None
    } else {
        Some(ids[n as usize % ids.len()])
    }
}

/// Interpret one op; returns whether the registry acknowledged a mutation
/// (i.e. exactly one WAL frame was appended).
fn drive(reg: &Registry, user: u64, op: &Op) -> bool {
    // A deliberately small name space so the script hits the
    // case-insensitive duplicate check and the name-index churn paths.
    match op {
        Op::AddPe(n) => reg
            .add_pe(new_pe(user, format!("Pe{}", n % 5)))
            .is_ok(),
        Op::AddWorkflow(n) => {
            let pe_ids: Vec<u64> = reg.all_pes().iter().map(|p| p.id).take(2).collect();
            reg.add_workflow(new_wf(user, format!("Wf{}", n % 3), pe_ids))
                .is_ok()
        }
        Op::UpdatePeDescription(n) => {
            let ids: Vec<u64> = reg.all_pes().iter().map(|p| p.id).collect();
            pick(&ids, *n)
                .map(|id| reg.update_pe_description(id, "updated").is_ok())
                .unwrap_or(false)
        }
        Op::RemovePe(n) => {
            let ids: Vec<u64> = reg.all_pes().iter().map(|p| p.id).collect();
            pick(&ids, *n)
                .map(|id| reg.remove_pe(id).is_ok())
                .unwrap_or(false)
        }
        Op::RemoveWorkflow(n) => {
            let ids: Vec<u64> = reg.all_workflows().iter().map(|w| w.id).collect();
            pick(&ids, *n)
                .map(|id| reg.remove_workflow(id).is_ok())
                .unwrap_or(false)
        }
        Op::RemoveAll => reg.remove_all().is_ok(),
        Op::AddExecution(n) => {
            let ids: Vec<u64> = reg.all_workflows().iter().map(|w| w.id).collect();
            pick(&ids, *n)
                .map(|id| reg.add_execution(id, user, "simple", "5").is_ok())
                .unwrap_or(false)
        }
        Op::FinishExecution(n) => {
            let wfs: Vec<u64> = reg.all_workflows().iter().map(|w| w.id).collect();
            let ids: Vec<u64> = wfs
                .iter()
                .flat_map(|w| reg.executions_for(*w))
                .map(|e| e.id)
                .collect();
            pick(&ids, *n)
                .map(|id| {
                    reg.finish_execution(id, "the num 7 is prime", ExecutionStatus::Completed)
                        .is_ok()
                })
                .unwrap_or(false)
        }
    }
}

/// Byte offset where each WAL frame ends: `ends[k]` is the length of the
/// log after `k + 1` complete frames, read off the frames' length headers
/// (`Wal::append` and `Wal::append_batch` both write an 8-byte header,
/// then the payload).
fn frame_ends(wal_path: &std::path::Path) -> Vec<u64> {
    let replay = wal::replay(wal_path).unwrap();
    assert!(!replay.torn, "the uncut log must be clean");
    let bytes = std::fs::read(wal_path).unwrap();
    let mut ends = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        at += 8 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        ends.push(at as u64);
    }
    assert_eq!(at as u64, replay.valid_bytes);
    ends
}

/// Drive `script` against a fresh WAL-backed registry in `dir`; returns
/// `states`, where `states[k]` is the WAL's record count and the
/// acknowledged snapshot after `k` WAL frames (the first being the
/// user's).
fn acknowledged_states(dir: &std::path::Path, script: &[Op]) -> Vec<(u64, RegistrySnapshot)> {
    let mut states = vec![(0, RegistrySnapshot::default())];
    let reg = Registry::open(dir, opts()).unwrap();
    let records = |reg: &Registry| reg.persist_stats().unwrap().wal_appends;
    let user = reg.register_user("rosa", "pw").unwrap();
    states.push((records(&reg), reg.snapshot()));
    for op in script {
        if drive(&reg, user, op) {
            states.push((records(&reg), reg.snapshot()));
        }
    }
    states
}

#[test]
fn every_tail_cut_recovers_the_acknowledged_prefix() {
    check(12, |rng| {
        let dir = fresh_dir("prop");
        let states = acknowledged_states(&dir, &script(rng));

        let wal_path = dir.join(WAL_FILE);
        let wal_bytes = std::fs::read(&wal_path).unwrap();
        let ends = frame_ends(&wal_path);
        let n = ends.len();
        assert_eq!(n + 1, states.len());

        // Cut at every byte across the tail frame (from "tail absent
        // entirely" through "tail complete").
        let tail_start = if n >= 2 { ends[n - 2] } else { 0 };
        for cut in tail_start..=ends[n - 1] {
            let cut_dir = fresh_dir("cut");
            std::fs::write(cut_dir.join(WAL_FILE), &wal_bytes[..cut as usize]).unwrap();

            let recovered = Registry::open(&cut_dir, opts()).unwrap();
            let k = if cut == ends[n - 1] { n } else { n - 1 };
            let (records, state) = &states[k];
            assert_eq!(recovered.persist_stats().unwrap().recovered_records, *records);
            assert_eq!(&recovered.snapshot(), state);
            // Incrementally maintained indexes == from-scratch rebuild.
            let rebuilt = Registry::from_snapshot(state.clone());
            assert_eq!(
                recovered.debug_name_indexes(),
                rebuilt.debug_name_indexes()
            );
            drop(recovered);

            // The torn tail was truncated in place: a second open replays
            // the same prefix without relying on the first one's cut.
            let again = Registry::open(&cut_dir, opts()).unwrap();
            assert_eq!(&again.snapshot(), state);
            // And the recovered registry still accepts writes.
            let uid = again
                .login("rosa", "pw")
                .unwrap_or_else(|_| again.register_user("rosa", "pw").unwrap());
            assert!(again.add_pe(new_pe(uid, "PostRecovery".into())).is_ok());
            let _ = std::fs::remove_dir_all(&cut_dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Whatever bytes follow the last acknowledged frame — noise, a header
/// whose length field promises up to 4 GiB, a well-framed payload that is
/// not a record — open recovers exactly the acknowledged state, cuts the
/// tail off, and never sizes anything by the length field it read.
#[test]
fn arbitrary_wal_tails_recover_the_acknowledged_state() {
    check(24, |rng| {
        let dir = fresh_dir("tail");
        let states = acknowledged_states(&dir, &script(rng));
        let acknowledged = &states.last().unwrap().1;
        let wal_path = dir.join(WAL_FILE);
        let clean = std::fs::read(&wal_path).unwrap();

        let noise: Vec<u8> = (0..1 + rng.below(64)).map(|_| rng.next() as u8).collect();
        let mut promises = (rng.next() as u32 | 0x0400_0000).to_le_bytes().to_vec();
        promises.extend_from_slice(&noise);
        let not_a_record = b"[1, 2, 3]";
        let mut framed = (not_a_record.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&wal::crc32(not_a_record).to_le_bytes());
        framed.extend_from_slice(not_a_record);

        for tail in [noise.clone(), promises, framed] {
            let mut bytes = clean.clone();
            bytes.extend_from_slice(&tail);
            std::fs::write(&wal_path, &bytes).unwrap();
            let recovered = Registry::open(&dir, opts()).unwrap();
            assert_eq!(&recovered.snapshot(), acknowledged);
            drop(recovered);
            assert_eq!(std::fs::read(&wal_path).unwrap(), clean, "tail cut off");
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A snapshot with one bit flipped anywhere in it opens as a registry —
/// the acknowledged one when the flip landed in whitespace-equivalent
/// bytes, another well-formed one when it changed a value — or is refused
/// with a typed error. It never panics, and what opens can be read and
/// written.
#[test]
fn bit_flipped_snapshots_open_or_fail_typed() {
    check(12, |rng| {
        let dir = fresh_dir("flip");
        acknowledged_states(&dir, &script(rng));
        Registry::open(&dir, opts()).unwrap().compact().unwrap();
        let snap_path = dir.join(SNAPSHOT_FILE);
        let clean = std::fs::read(&snap_path).unwrap();
        for _ in 0..32 {
            let mut bytes = clean.clone();
            bytes[rng.below(clean.len())] ^= 1 << rng.below(8);
            std::fs::write(&snap_path, &bytes).unwrap();
            match Registry::open(&dir, opts()) {
                Ok(reg) => {
                    let _ = (reg.snapshot(), reg.counts(), reg.debug_name_indexes());
                    if let Ok(uid) = reg.register_user("post-flip", "pw") {
                        let _ = reg.add_pe(new_pe(uid, "PostFlip".into()));
                    }
                }
                Err(e) => assert!(e.to_string().contains("snapshot"), "{e}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Deterministic companion: records in `wal.log` that the snapshot
/// already contains — the head a cut left unsealed because an older
/// sealed log survived, or a log older than its snapshot — must replay as
/// a no-op (idempotence at recorded ids).
#[test]
fn snapshot_plus_overlapping_wal_recovers_once() {
    let dir = fresh_dir("overlap");
    let reg = Registry::open(&dir, opts()).unwrap();
    let user = reg.register_user("rosa", "pw").unwrap();
    let pe = reg.add_pe(new_pe(user, "IsPrime".into())).unwrap();
    reg.add_workflow(new_wf(user, "isprime_wf".into(), vec![pe]))
        .unwrap();
    let before = reg.snapshot();
    let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    // Compact seals the WAL and writes the snapshot…
    reg.compact().unwrap().unwrap();
    drop(reg);
    // …but "the crash" resurrects the pre-compaction WAL on top of it.
    std::fs::write(dir.join(WAL_FILE), &wal_bytes).unwrap();

    let recovered = Registry::open(&dir, opts()).unwrap();
    assert_eq!(recovered.snapshot(), before);
    assert_eq!(recovered.counts(), (1, 1));
    assert_eq!(
        recovered.debug_name_indexes(),
        Registry::from_snapshot(before).debug_name_indexes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash-during-compaction, at every IO site the compaction touches: the
/// seal of the live WAL at the cut (the `WalTruncate` site), then the
/// snapshot tmp write, its fsync and the atomic rename over
/// `snapshot.json`. Whichever step dies, the failed `compact()` must
/// surface an error, the registry must keep taking writes — records
/// committed after the cut land in the fresh `wal.log` — and a reopen must
/// recover exactly the acknowledged state: a failed seal leaves the old
/// snapshot and the whole log; a failed write leaves the old snapshot,
/// the sealed log and the new `wal.log` (a dead `snapshot.json.tmp` is
/// ignored).
#[test]
fn compaction_crash_at_every_site_recovers_the_acknowledged_state() {
    for (i, site) in [
        IoSite::SnapshotWrite,
        IoSite::SnapshotFsync,
        IoSite::SnapshotRename,
        IoSite::WalTruncate,
    ]
    .into_iter()
    .enumerate()
    {
        let dir = fresh_dir("compact-crash");
        let acknowledged = {
            let hook: FaultHook = IoFaultInjector::new(
                100 + i as u64,
                FaultSpec::nth_at(site, 1, FaultKind::Enospc),
            );
            let reg = Registry::open_with_faults(&dir, opts(), hook).unwrap();
            let user = reg.register_user("rosa", "pw").unwrap();
            let a = reg.add_pe(new_pe(user, "IsPrime".into())).unwrap();
            let b = reg.add_pe(new_pe(user, "Doubler".into())).unwrap();
            reg.add_workflow(new_wf(user, "isprime_wf".into(), vec![a, b]))
                .unwrap();
            let wf = reg.all_workflows()[0].id;
            let exec = reg.add_execution(wf, user, "simple", "5").unwrap();
            // The compaction dies at `site`; the error must be loud.
            assert!(
                reg.compact().is_err(),
                "{site:?}: a compaction that lost an IO op must error"
            );
            // Writes after the cut, including updates of rows it shared.
            reg.add_pe(new_pe(user, "AfterCut".into())).unwrap();
            reg.update_pe_description(a, "updated after the cut").unwrap();
            reg.finish_execution(exec, "the num 5 is prime", ExecutionStatus::Completed)
                .unwrap();
            assert_eq!(
                dir.join(SEALED_WAL_FILE).exists(),
                site != IoSite::WalTruncate,
                "{site:?}: a failed write keeps its sealed log; a failed seal makes none"
            );
            reg.snapshot()
            // `reg` dropped here: the crash.
        };

        let recovered = Registry::open(&dir, opts()).unwrap();
        assert_eq!(
            recovered.snapshot(),
            acknowledged,
            "{site:?}: reopen must recover the acknowledged prefix"
        );
        assert_eq!(
            recovered.debug_name_indexes(),
            Registry::from_snapshot(acknowledged.clone()).debug_name_indexes(),
            "{site:?}: recovered indexes must match a from-scratch rebuild"
        );
        // The recovered registry accepts writes and a clean compaction.
        let uid = recovered.login("rosa", "pw").unwrap();
        recovered
            .add_pe(new_pe(uid, "PostCrash".into()))
            .unwrap();
        recovered.compact().unwrap().unwrap();
        let after = recovered.snapshot();
        drop(recovered);
        // And the post-compaction state survives yet another reopen.
        let again = Registry::open(&dir, opts()).unwrap();
        assert_eq!(again.snapshot(), after, "{site:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A run's history as older logs framed it — four single-record frames,
/// `Submitted` → `Running` → response → final status — replays to the
/// rows those records describe, and to the history `add_execution` +
/// `finish_execution` (a `Running` row, then one two-record frame) leave
/// for the same runs. Only `submitted_seq` differs between the two, as
/// the older framing spent more sequence numbers per run.
#[test]
fn four_frame_run_history_replays_to_the_two_frame_rows() {
    let setup = |dir: &std::path::Path| {
        let reg = Registry::open(dir, opts()).unwrap();
        let user = reg.register_user("rosa", "pw").unwrap();
        let pe = reg.add_pe(new_pe(user, "IsPrime".into())).unwrap();
        let wf = reg
            .add_workflow(new_wf(user, "isprime_wf".into(), vec![pe]))
            .unwrap();
        (reg, user, wf)
    };
    let runs = [
        ("simple", "5", "the num 5 is prime\n", ExecutionStatus::Completed),
        ("multi", "3", "", ExecutionStatus::Failed),
    ];

    let two_frames = fresh_dir("two-frames");
    let (reg, user, wf) = setup(&two_frames);
    for (mapping, input, output, status) in runs {
        let run = reg.add_execution(wf, user, mapping, input).unwrap();
        reg.finish_execution(run, output, status).unwrap();
    }
    drop(reg);

    let four_frames = fresh_dir("four-frames");
    let (reg, _, _) = setup(&four_frames);
    let base = reg.snapshot();
    let wal_path = four_frames.join(WAL_FILE);
    let wal_bytes = std::fs::metadata(&wal_path).unwrap().len();
    drop(reg);
    let mut log = Wal::open(&wal_path, SyncPolicy::OsBuffered, 3, wal_bytes).unwrap();
    let (mut id, mut seq) = (base.next_id, base.seq);
    let mut expected = (Vec::new(), Vec::new());
    for (mapping, input, output, status) in runs {
        let row = ExecutionRow {
            id: id + 1,
            workflow_id: wf,
            user_id: user,
            mapping: mapping.into(),
            input: input.into(),
            status: ExecutionStatus::Submitted,
            submitted_seq: seq + 1,
        };
        let response = ResponseRow {
            id: id + 2,
            execution_id: row.id,
            output: output.into(),
            status,
        };
        for op in [
            WalOp::AddExecution(row.clone()),
            WalOp::SetExecutionStatus {
                id: row.id,
                status: ExecutionStatus::Running,
            },
            WalOp::AddResponse(response.clone()),
            WalOp::SetExecutionStatus { id: row.id, status },
        ] {
            seq += 1;
            log.append(&WalRecord { seq, op }).unwrap();
        }
        expected.0.push(ExecutionRow { status, ..row });
        expected.1.push(response);
        id += 2;
    }
    drop(log);

    let replayed_four = Registry::open(&four_frames, opts()).unwrap();
    let snap = replayed_four.snapshot();
    assert_eq!((snap.executions, snap.responses), expected);
    let history = |reg: &Registry| -> Vec<_> {
        reg.execution_history(wf)
            .into_iter()
            .map(|(e, preview)| (e.id, e.mapping, e.input, e.status, preview))
            .collect()
    };
    let replayed_two = Registry::open(&two_frames, opts()).unwrap();
    assert_eq!(history(&replayed_four), history(&replayed_two));
    // Ids go on from the replayed log either way.
    assert_eq!(
        replayed_four.add_execution(wf, user, "dynamic", "1").unwrap(),
        replayed_two.add_execution(wf, user, "dynamic", "1").unwrap()
    );
    let _ = std::fs::remove_dir_all(&two_frames);
    let _ = std::fs::remove_dir_all(&four_frames);
}
