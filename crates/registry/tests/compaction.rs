//! Compaction off the write path (DESIGN.md §8, "Snapshots and
//! compaction").
//!
//! * **Amortised trigger** — auto-compaction waits until the log written
//!   since the last snapshot is at least as large as that snapshot, so the
//!   bytes ever snapshotted stay within a small multiple of the final
//!   snapshot, and the number of compactions grows with the logarithm of
//!   the registry, not with its size.
//! * **Off the lock** — while an auto-compaction's snapshot write is
//!   stalled, writers and readers on other threads finish, a second
//!   trigger starts no second compaction, and `compact()` waits.
//! * **Recovery matrix** — every combination of an old or a new
//!   `snapshot.json`, a sealed log present or absent, and records
//!   committed after the cut or not reopens to exactly the acknowledged
//!   state; a sealed log torn inside its last frame reopens to the
//!   history before the tear, with `wal.log` set aside, never to a state
//!   with a gap in it. The storage probe audits the sealed log too.
//! * **Format** — the snapshot a compaction writes is byte-identical to
//!   `serde_json::to_vec(&registry.snapshot())`, and a directory in the
//!   layout that predates the sealed log (`snapshot.json` + `wal.log`)
//!   opens unchanged.

use laminar_registry::wal::{self, SyncPolicy, Wal, WalOp, WalRecord};
use laminar_registry::{
    ExecutionStatus, FaultHook, FaultKind, FaultSpec, Induced, IoFaultHook, IoFaultInjector,
    IoSite, NewPe, NewWorkflow, PersistOptions, Registry, RegistrySnapshot, UserRow,
    DISCARDED_WAL_FILE, SEALED_WAL_FILE, SNAPSHOT_FILE, WAL_FILE,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// How long an operation that must not wait for a compaction may take.
const PROMPT: Duration = Duration::from_secs(10);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "laminar-compaction-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(snapshot_every: u64) -> PersistOptions {
    PersistOptions {
        snapshot_every,
        sync: SyncPolicy::OsBuffered,
    }
}

fn new_pe(user_id: u64, name: &str) -> NewPe {
    NewPe {
        user_id,
        name: name.into(),
        description: format!("{name}: a compaction-suite pe"),
        code: format!("class {name}(IterativePE):\n    def _process(self, x):\n        return x\n"),
        description_embedding: "[0.1, 0.2, 0.3]".into(),
        spt_embedding: "[[7, 1.0], [9, 2.0]]".into(),
    }
}

fn new_wf(user_id: u64, name: &str, pe_ids: Vec<u64>) -> NewWorkflow {
    NewWorkflow {
        user_id,
        name: name.into(),
        description: "a compaction-suite workflow".into(),
        code: "graph = WorkflowGraph()".into(),
        pe_ids,
    }
}

/// Reopen `dir` with no hook and check it recovers `expected`, name
/// indexes included; then check it still takes writes and a compaction,
/// and that the result survives another reopen.
fn assert_reopens_to(dir: &Path, expected: &RegistrySnapshot, tag: &str) {
    let recovered = Registry::open(dir, opts(0)).unwrap();
    assert_eq!(&recovered.snapshot(), expected, "{tag}");
    assert_eq!(
        recovered.debug_name_indexes(),
        Registry::from_snapshot(expected.clone()).debug_name_indexes(),
        "{tag}: indexes"
    );
    let user = recovered.login("rosa", "pw").unwrap();
    recovered.add_pe(new_pe(user, "PostRecovery")).unwrap();
    recovered.compact().unwrap().unwrap();
    recovered.add_pe(new_pe(user, "PostCompaction")).unwrap();
    let after = recovered.snapshot();
    drop(recovered);
    assert_eq!(
        Registry::open(dir, opts(0)).unwrap().snapshot(),
        after,
        "{tag}: again"
    );
}

/// Tallies the snapshot writes (and the bytes each was handed) and the
/// seals; fails nothing.
#[derive(Debug, Default)]
struct Tally {
    writes: AtomicU64,
    bytes: AtomicU64,
    seals: AtomicU64,
}

impl IoFaultHook for Tally {
    fn induce(&self, site: IoSite, len: usize) -> Option<Induced> {
        match site {
            IoSite::SnapshotWrite => {
                self.writes.fetch_add(1, Ordering::SeqCst);
                self.bytes.fetch_add(len as u64, Ordering::SeqCst);
            }
            IoSite::WalTruncate => {
                self.seals.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        }
        None
    }
}

/// 3,000 single-PE registrations with `snapshot_every: 4`. Compacting
/// every 4 records would write ~750 snapshots, ~1,100× the final one in
/// bytes; the amortised trigger writes a snapshot only once the log has
/// outgrown the last one.
#[test]
fn auto_compaction_is_amortised() {
    let dir = fresh_dir("amortised");
    let tally = Arc::new(Tally::default());
    let reg = Registry::open_with_faults(&dir, opts(4), tally.clone()).unwrap();
    let user = reg.register_user("rosa", "pw").unwrap();
    for i in 0..3000 {
        reg.add_pe(new_pe(user, &format!("Pe{i}"))).unwrap();
    }
    let stats = reg.persist_stats().unwrap();
    let written = tally.bytes.load(Ordering::SeqCst);
    assert_eq!(stats.compactions, tally.writes.load(Ordering::SeqCst));
    assert!(stats.compactions >= 2, "{stats:?}");
    assert!(stats.compactions <= 16, "{} compactions", stats.compactions);

    let last = reg.compact().unwrap().unwrap();
    assert_eq!(
        last.snapshot_bytes as usize,
        serde_json::to_vec(&reg.snapshot()).unwrap().len()
    );
    assert!(
        written <= 3 * last.snapshot_bytes,
        "{written} bytes snapshotted for a final snapshot of {}",
        last.snapshot_bytes
    );
    // A restart replays at most about one snapshot's worth of log.
    assert!(last.wal_bytes <= 2 * last.snapshot_bytes, "{last:?}");
    let expected = reg.snapshot();
    drop(reg);
    assert_eq!(Registry::open(&dir, opts(4)).unwrap().snapshot(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Holds every snapshot write at the door until opened.
#[derive(Debug, Default)]
struct Gate {
    tally: Tally,
    /// (writes that reached the gate, gate open)
    state: Mutex<(u64, bool)>,
    changed: Condvar,
}

impl Gate {
    fn wait_for_writer(&self) -> bool {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, PROMPT, |s| s.0 == 0)
            .unwrap();
        state.0 > 0
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl IoFaultHook for Gate {
    fn induce(&self, site: IoSite, len: usize) -> Option<Induced> {
        self.tally.induce(site, len);
        if site == IoSite::SnapshotWrite {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            self.changed.notify_all();
            while !state.1 {
                state = self.changed.wait(state).unwrap();
            }
        }
        None
    }
}

/// Opens the gate when dropped, so a failed assertion does not leave
/// threads stuck behind it.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// Run `f` on its own thread; its result, if it arrives within `PROMPT`.
fn promptly<T: Send + 'static>(
    reg: &Arc<Registry>,
    f: impl FnOnce(&Registry) -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    let reg = Arc::clone(reg);
    std::thread::spawn(move || {
        let _ = tx.send(f(&reg));
    });
    rx.recv_timeout(PROMPT).ok()
}

#[test]
fn snapshot_write_runs_off_the_registry_lock() {
    let dir = fresh_dir("off-lock");
    let gate = Arc::new(Gate::default());
    let _opener = OpenOnDrop(gate.clone());
    let reg = Arc::new(Registry::open_with_faults(&dir, opts(4), gate.clone()).unwrap());

    // Four records: the fourth is due, and its compaction stalls at the
    // gate. The triggering write runs on its own thread, so a registry
    // that wrote the snapshot under its lock fails here instead of
    // hanging the test.
    let (user, pe, exec) = promptly(&reg, |r| {
        let user = r.register_user("rosa", "pw").unwrap();
        let pe = r.add_pe(new_pe(user, "IsPrime")).unwrap();
        let wf = r
            .add_workflow(new_wf(user, "isprime_wf", vec![pe]))
            .unwrap();
        let exec = r.add_execution(wf, user, "simple", "5").unwrap();
        (user, pe, exec)
    })
    .expect("the write that triggers a compaction must not wait for it");
    assert!(
        gate.wait_for_writer(),
        "the auto-compaction reached its snapshot write"
    );

    // Writers and readers finish while the snapshot write is stalled.
    let added = promptly(&reg, move |r| r.add_pe(new_pe(user, "Doubler")))
        .expect("add_pe must not wait for the snapshot write")
        .unwrap();
    let read = promptly(&reg, move |r| r.get_pe(pe)).expect("get_pe must not wait");
    assert_eq!(read.unwrap().name, "IsPrime");
    promptly(&reg, move |r| {
        r.finish_execution(exec, "5 is prime", ExecutionStatus::Completed)
    })
    .expect("finish_execution must not wait")
    .unwrap();
    for i in 0..4 {
        promptly(&reg, move |r| r.add_pe(new_pe(user, &format!("More{i}"))))
            .expect("add_pe must not wait")
            .unwrap();
    }
    // Those writes made a compaction due again; none started.
    assert_eq!(
        gate.tally.writes.load(Ordering::SeqCst),
        1,
        "one snapshot write at a time"
    );
    assert_eq!(
        gate.tally.seals.load(Ordering::SeqCst),
        1,
        "one cut at a time"
    );

    // `compact()` waits for the running compaction.
    let (tx, rx) = mpsc::channel();
    let waiter = Arc::clone(&reg);
    std::thread::spawn(move || {
        let _ = tx.send(waiter.compact());
    });
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "compact() must wait"
    );
    assert_eq!(gate.tally.writes.load(Ordering::SeqCst), 1);

    gate.open();
    let manual = rx
        .recv_timeout(PROMPT)
        .expect("compact() finishes once the gate opens");
    assert!(manual.unwrap().is_some());
    let stats = reg.persist_stats().unwrap();
    assert!(stats.compactions >= 2, "{stats:?}");
    assert_eq!(stats.io_errors, 0);
    assert!(reg.get_pe(added).is_ok());

    let expected = reg.snapshot();
    drop(reg);
    assert_reopens_to(&dir, &expected, "off-lock");
    let _ = std::fs::remove_dir_all(&dir);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Snapshot {
    /// The snapshot from before the cut under test.
    Old,
    /// The snapshot the cut under test wrote.
    New,
}

/// One cell of the matrix: what a reopen must recover.
struct Cell {
    /// Every acknowledged write.
    acknowledged: RegistrySnapshot,
    /// History up to the sealed log's last whole frame, for a sealed log
    /// torn inside its last frame: the state before the cut's last write,
    /// or the state at the cut when the new snapshot already covers it.
    at_tear: RegistrySnapshot,
}

/// Build one cell of the matrix in a fresh directory. The cut under test
/// follows an earlier, successful compaction, so "old" is a real snapshot
/// and not an empty directory.
fn matrix_cell(dir: &Path, snapshot: Snapshot, sealed: bool, after: bool) -> Cell {
    // For an old snapshot beside a sealed log, the second snapshot write
    // fails: the one of the cut under test. (No operation is the 0th.)
    let failing = if (snapshot, sealed) == (Snapshot::Old, true) {
        2
    } else {
        0
    };
    let hook: FaultHook = IoFaultInjector::new(
        5,
        FaultSpec::nth_at(IoSite::SnapshotWrite, failing, FaultKind::Enospc),
    );
    let reg = Registry::open_with_faults(dir, opts(0), hook).unwrap();
    let user = reg.register_user("rosa", "pw").unwrap();
    let a = reg.add_pe(new_pe(user, "IsPrime")).unwrap();
    reg.compact().unwrap().unwrap();
    let old = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();

    let b = reg.add_pe(new_pe(user, "Doubler")).unwrap();
    let wf = reg
        .add_workflow(new_wf(user, "isprime_wf", vec![a, b]))
        .unwrap();
    let exec = reg.add_execution(wf, user, "simple", "5").unwrap();
    let before_last = reg.snapshot();
    reg.update_pe_description(a, "before the cut")
        .unwrap();
    let at_tear = match snapshot {
        Snapshot::Old => before_last,
        Snapshot::New => reg.snapshot(),
    };
    match (snapshot, sealed) {
        // No cut: the old snapshot and the live log.
        (Snapshot::Old, false) => {}
        // The cut sealed the log and its write failed.
        (Snapshot::Old, true) => assert!(reg.compact().is_err()),
        // A finished compaction.
        (Snapshot::New, false) => {
            reg.compact().unwrap().unwrap();
        }
        // A crash after the snapshot's rename, before the sealed log's
        // deletion: the sealed log holds what `wal.log` held at the cut.
        (Snapshot::New, true) => {
            let at_cut = std::fs::read(dir.join(WAL_FILE)).unwrap();
            reg.compact().unwrap().unwrap();
            std::fs::write(dir.join(SEALED_WAL_FILE), at_cut).unwrap();
        }
    }
    if after {
        reg.add_pe(new_pe(user, "Tokenizer")).unwrap();
        reg.finish_execution(exec, "5 is prime", ExecutionStatus::Completed)
            .unwrap();
        reg.update_pe_description(a, "after the cut")
            .unwrap();
        reg.remove_pe(reg.add_pe(new_pe(user, "Scratch")).unwrap())
            .unwrap();
    }
    let acknowledged = reg.snapshot();
    drop(reg);
    if (snapshot, sealed, after) == (Snapshot::Old, true, false) {
        // Nothing came after the seal: the same state as a crash between
        // the seal's rename and the fresh log's creation.
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
        std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
    }

    let now = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    assert_eq!(
        now == old,
        snapshot == Snapshot::Old,
        "which snapshot.json is on disk"
    );
    assert_eq!(
        dir.join(SEALED_WAL_FILE).exists(),
        sealed,
        "sealed log on disk"
    );
    Cell {
        acknowledged,
        at_tear,
    }
}

/// Cut the sealed log inside its last frame, as a lost or corrupt tail
/// would. History then ends at the tear: `wal.log`, whose records came
/// after the lost ones, is set aside byte for byte and never replayed.
fn tear_the_sealed_log(dir: &Path, tag: &str) {
    let sealed = std::fs::read(dir.join(SEALED_WAL_FILE)).unwrap();
    std::fs::write(dir.join(SEALED_WAL_FILE), &sealed[..sealed.len() - 3]).unwrap();
    let live = std::fs::read(dir.join(WAL_FILE)).unwrap_or_default();
    let reg = Registry::open(dir, opts(0)).unwrap();
    let stats = reg.persist_stats().unwrap();
    assert_eq!(stats.io_errors, 1, "{tag}: the tear is reported");
    let whole_frames = wal::replay(&dir.join(SEALED_WAL_FILE)).unwrap().records;
    assert_eq!(
        stats.recovered_records,
        whole_frames.len() as u64,
        "{tag}: only the sealed log's whole frames replay"
    );
    drop(reg);
    let aside = std::fs::read(dir.join(DISCARDED_WAL_FILE)).ok();
    if live.is_empty() {
        assert_eq!(aside, None, "{tag}: nothing to set aside");
    } else {
        assert_eq!(aside, Some(live), "{tag}: wal.log set aside unchanged");
    }
}

#[test]
fn every_snapshot_sealed_log_and_tail_combination_recovers() {
    for snapshot in [Snapshot::Old, Snapshot::New] {
        for sealed in [false, true] {
            for after in [false, true] {
                // A torn sealed log: history ends at the tear.
                for torn in [false, true] {
                    if torn && !sealed {
                        continue;
                    }
                    let tag = format!(
                        "{snapshot:?} snapshot, sealed {sealed}, torn {torn}, writes after {after}"
                    );
                    let dir = fresh_dir("matrix");
                    let cell = matrix_cell(&dir, snapshot, sealed, after);
                    let expected = if torn {
                        tear_the_sealed_log(&dir, &tag);
                        cell.at_tear
                    } else {
                        cell.acknowledged
                    };
                    assert_reopens_to(&dir, &expected, &tag);
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

/// The storage probe audits the sealed log as well as `wal.log`: a clean
/// one passes, a torn one fails the probe.
#[test]
fn the_storage_probe_audits_the_sealed_log() {
    let dir = fresh_dir("probe");
    let hook: FaultHook = IoFaultInjector::new(
        3,
        FaultSpec::nth_at(IoSite::SnapshotRename, 1, FaultKind::Enospc),
    );
    let reg = Registry::open_with_faults(&dir, opts(0), hook).unwrap();
    let user = reg.register_user("rosa", "pw").unwrap();
    reg.add_pe(new_pe(user, "A")).unwrap();
    assert!(reg.compact().is_err(), "the rename fails");
    assert!(dir.join(SEALED_WAL_FILE).exists(), "the sealed log stays");
    reg.verify_storage().unwrap();

    let sealed = std::fs::read(dir.join(SEALED_WAL_FILE)).unwrap();
    std::fs::write(dir.join(SEALED_WAL_FILE), &sealed[..sealed.len() - 1]).unwrap();
    let err = reg.verify_storage().unwrap_err().to_string();
    assert!(err.contains("sealed wal"), "{err}");
    drop(reg);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot whose write failed leaves its sealed log; the next cut
/// does not seal over it, and its snapshot folds both logs. The folded
/// counts are those a registry that truncated its log after each good
/// snapshot would report.
#[test]
fn a_failed_write_is_folded_by_the_next_snapshot() {
    let dir = fresh_dir("refold");
    let hook: FaultHook = IoFaultInjector::new(
        9,
        FaultSpec::nth_at(IoSite::SnapshotRename, 1, FaultKind::Enospc),
    );
    let reg = Registry::open_with_faults(&dir, opts(0), hook).unwrap();
    let user = reg.register_user("rosa", "pw").unwrap();
    reg.add_pe(new_pe(user, "A")).unwrap();
    assert!(reg.compact().is_err(), "the rename fails");
    assert_eq!(
        reg.persist_stats().unwrap().wal_records,
        2,
        "nothing was folded"
    );
    reg.add_pe(new_pe(user, "B")).unwrap();

    let second = reg.compact().unwrap().unwrap();
    assert_eq!(
        second.wal_records, 3,
        "the sealed log's 2 records and the live log's 1"
    );
    assert!(!dir.join(SEALED_WAL_FILE).exists(), "covered, so deleted");
    assert_eq!(reg.persist_stats().unwrap().wal_records, 0);

    reg.add_pe(new_pe(user, "C")).unwrap();
    let third = reg.compact().unwrap().unwrap();
    assert_eq!(
        third.wal_records, 1,
        "only what came after the last snapshot"
    );
    let stats = reg.persist_stats().unwrap();
    assert_eq!((stats.compactions, stats.io_errors), (2, 1));
    let expected = reg.snapshot();
    drop(reg);
    assert_reopens_to(&dir, &expected, "refold");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_writes_the_bytes_of_the_snapshot() {
    let dir = fresh_dir("format");
    let reg = Registry::open(&dir, opts(0)).unwrap();
    let user = reg.register_user("rosa", "pw").unwrap();
    let a = reg.add_pe(new_pe(user, "IsPrime")).unwrap();
    let b = reg.add_pe(new_pe(user, "Quote\"And\\Slash")).unwrap();
    let wf = reg
        .add_workflow(new_wf(user, "isprime_wf", vec![b, a]))
        .unwrap();
    let exec = reg.add_execution(wf, user, "multi", "[1, 2]").unwrap();
    reg.finish_execution(exec, "line1\nline2 ü", ExecutionStatus::Failed)
        .unwrap();
    reg.add_execution(wf, user, "dynamic", "3").unwrap();
    reg.update_workflow_description(wf, "renamed")
        .unwrap();
    let stats = reg.compact().unwrap().unwrap();
    let expected = serde_json::to_vec(&reg.snapshot()).unwrap();
    assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), expected);
    assert_eq!(stats.snapshot_bytes, expected.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The layout a registry wrote before logs were sealed: `snapshot.json`
/// (a `RegistrySnapshot` as serde writes it) and `wal.log` frames on top
/// of it, no sealed log. It opens to the same state, and its first
/// compaction seals that log like any other.
#[test]
fn a_directory_without_a_sealed_log_opens_unchanged() {
    let dir = fresh_dir("parent-layout");
    let base = Registry::new();
    let user = base.register_user("rosa", "pw").unwrap();
    base.add_pe(new_pe(user, "IsPrime")).unwrap();
    let mut expected = base.snapshot();
    std::fs::write(
        dir.join(SNAPSHOT_FILE),
        serde_json::to_vec(&expected).unwrap(),
    )
    .unwrap();

    let mut log = Wal::open(&dir.join(WAL_FILE), SyncPolicy::OsBuffered, 0, 0).unwrap();
    let sam = UserRow {
        id: expected.next_id + 1,
        username: "sam".into(),
        password_hash: laminar_registry::store::hash_password("sam", "pw"),
        created_seq: expected.seq + 1,
    };
    let record = WalRecord {
        seq: expected.seq + 1,
        op: WalOp::AddUser(sam.clone()),
    };
    log.append(&record).unwrap();
    drop(log);
    expected.users.push(sam);
    expected.next_id += 1;
    expected.seq += 1;

    let reg = Registry::open(&dir, opts(0)).unwrap();
    assert_eq!(reg.snapshot(), expected);
    assert_eq!(reg.persist_stats().unwrap().recovered_records, 1);
    assert_eq!(reg.login("sam", "pw").unwrap(), expected.next_id);
    assert_eq!(reg.compact().unwrap().unwrap().wal_records, 1);
    assert!(!dir.join(SEALED_WAL_FILE).exists());
    assert!(wal::replay(&dir.join(WAL_FILE)).unwrap().records.is_empty());
    drop(reg);
    assert_reopens_to(&dir, &expected, "parent layout");
    let _ = std::fs::remove_dir_all(&dir);
}
