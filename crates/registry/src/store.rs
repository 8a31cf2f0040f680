//! The registry store: tables, indexes, integrity rules, persistence.
//!
//! # Durability
//!
//! A registry opened with [`Registry::open`] is backed by a data
//! directory holding `snapshot.json` (atomic full snapshot) and
//! `wal.log` (a [`crate::wal`] write-ahead log). Every write path
//! appends its typed mutation record to the WAL **before** mutating
//! in-memory state, under the same write lock, so WAL order equals
//! apply order and an acknowledged mutation is always recoverable.
//! Recovery is snapshot load → sealed-log replay (if one is present) →
//! WAL replay (truncating a torn tail) → index rebuild. A torn sealed log
//! ends history at its last valid frame: `wal.log`, which follows it, is
//! set aside unreplayed, so recovery always yields a prefix of history.
//!
//! # Compaction
//!
//! A compaction folds the log into a fresh snapshot in two steps. The
//! *cut*, under the write lock, copies the row pointers (rows sit behind
//! `Arc`, so this is O(rows) and copies no row) and seals the live WAL:
//! `wal.log` is renamed to `wal.log.sealed` and a fresh `wal.log` takes
//! the appends that follow. The *write*, with no registry lock held,
//! serialises the cut, writes `snapshot.json` atomically and deletes the
//! sealed log. It runs automatically, on a thread the registry spawns,
//! once the log written since the last snapshot holds at least
//! [`PersistOptions::snapshot_every`] records and at least as many bytes
//! as that snapshot, and on demand, on the caller's thread, via
//! [`Registry::compact`]. One compaction runs at a time. A registry built
//! with [`Registry::new`] has no persistence and behaves exactly as
//! before.

use crate::error::RegistryError;
use crate::iofault::{FaultHook, IoSite, SiteCounter};
use crate::rows::*;
use crate::wal::{self, SyncPolicy, Wal, WalOp, WalRecord};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::thread::JoinHandle;
use std::time::Instant;

/// Snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";
/// WAL file name inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// The WAL a compaction's cut set aside, until a snapshot that covers it
/// is durable. Recovery replays it between the snapshot and `wal.log`.
pub const SEALED_WAL_FILE: &str = "wal.log.sealed";

/// Where recovery sets `wal.log` aside when the sealed log before it is
/// torn: history ends at the sealed log's last valid frame, so the later
/// records are kept on disk for inspection but never replayed. An older
/// file of that name is replaced.
pub const DISCARDED_WAL_FILE: &str = "wal.log.discarded";

/// What a search should cover (the CLI's `workflow | pe` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchTarget {
    Pe,
    Workflow,
    Both,
}

/// Durability knobs for [`Registry::open`].
#[derive(Debug, Clone, Copy)]
pub struct PersistOptions {
    /// Auto-compact once the log written since the last snapshot holds at
    /// least this many records **and** at least as many bytes as that
    /// snapshot (its size at open, 0 without one). The record count is a
    /// floor; the byte rule keeps the total bytes ever snapshotted within
    /// about twice the registry's final size. `0` disables
    /// auto-compaction.
    pub snapshot_every: u64,
    /// When WAL appends reach the disk.
    pub sync: SyncPolicy,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            snapshot_every: 1024,
            sync: SyncPolicy::OsBuffered,
        }
    }
}

/// Counters for the persistence layer, surfaced in the metrics table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PersistSnapshot {
    /// Records appended to the WAL since open.
    pub wal_appends: u64,
    /// Frame bytes appended to the WAL since open.
    pub wal_bytes: u64,
    /// fsync calls issued (per-append syncs + compaction syncs).
    pub fsyncs: u64,
    /// Compactions performed since open.
    pub compactions: u64,
    /// WAL records written since the last snapshot (resets on
    /// compaction).
    pub wal_records: u64,
    /// WAL records replayed during recovery at open.
    pub recovered_records: u64,
    /// Wall-clock recovery duration (snapshot load + replay) at open.
    pub recovery_ms: u64,
    /// IO errors observed on the persistence path (WAL appends, snapshot
    /// writes, truncates) since open. Serde-defaulted for v7 payloads.
    #[serde(default)]
    pub io_errors: u64,
    /// Human-readable description of the most recent persistence error.
    #[serde(default)]
    pub last_error: Option<String>,
}

impl PersistSnapshot {
    /// Record a persistence-path IO failure so callers (metrics, health
    /// probes) can see storage trouble without parsing error strings.
    fn io_failed(&mut self, context: &str, e: &dyn std::fmt::Display) {
        self.io_errors += 1;
        self.last_error = Some(format!("{context}: {e}"));
    }
}

/// One unit of a registration: member PEs plus an optional workflow row
/// referencing them. A bare PE registration is a unit with one PE and no
/// workflow. The workflow's `pe_ids` field is ignored — it is filled with
/// the unit's resolved member ids.
#[derive(Debug, Clone)]
pub struct RegistrationUnit {
    pub pes: Vec<NewPe>,
    pub workflow: Option<NewWorkflow>,
}

/// One member PE's fate inside a unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeOutcome {
    pub name: String,
    pub id: u64,
    /// False when the name already existed for this user and the
    /// existing id was reused (idempotent re-registration).
    pub created: bool,
}

/// What one [`Registry::add_units`] call committed.
#[derive(Debug, Clone, Default)]
pub struct UnitsCommitted {
    /// One outcome per unit, in submission order.
    pub outcomes: Vec<UnitOutcome>,
    /// The frame was fsynced ([`SyncPolicy::EveryAppend`]): one fsync
    /// for all its rows.
    pub fsynced: bool,
}

/// Per-unit outcome of [`Registry::add_units`]. A unit that fails
/// validation keeps the member PEs staged before the failure, so
/// `pes`/`workflow` report what actually landed even when `error` is set.
#[derive(Debug, Clone, Default)]
pub struct UnitOutcome {
    pub pes: Vec<PeOutcome>,
    pub workflow: Option<(String, u64)>,
    pub error: Option<RegistryError>,
}

/// What a compaction folded into the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// WAL records absorbed: those written since the last snapshot.
    pub wal_records: u64,
    /// WAL bytes absorbed.
    pub wal_bytes: u64,
    /// Size of the snapshot written.
    pub snapshot_bytes: u64,
}

/// Records and bytes of a stretch of WAL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    records: u64,
    bytes: u64,
}

impl Span {
    fn of(wal: &Wal) -> Span {
        Span {
            records: wal.records(),
            bytes: wal.bytes(),
        }
    }

    fn plus(self, other: Span) -> Span {
        Span {
            records: self.records + other.records,
            bytes: self.bytes + other.bytes,
        }
    }

    fn minus(self, other: Span) -> Span {
        Span {
            records: self.records.saturating_sub(other.records),
            bytes: self.bytes.saturating_sub(other.bytes),
        }
    }
}

/// Live persistence state: the open WAL plus counters. Lives inside
/// `Inner` so WAL appends happen under the registry write lock.
#[derive(Debug)]
struct Persist {
    dir: PathBuf,
    wal: Wal,
    opts: PersistOptions,
    /// The counters; `wal_records` stays 0 here, since `persist_stats`
    /// reads it from `pending()`.
    stats: PersistSnapshot,
    /// Fault hook shared with the WAL, kept here so snapshot writes and
    /// the storage probe consult the same injector.
    fault: Option<FaultHook>,
    /// The sealed log on disk, while no durable snapshot covers it (its
    /// compaction's write failed, or is still running).
    sealed: Option<Span>,
    /// The head of the live log that the last snapshot already covers:
    /// non-empty only after a cut that found a sealed log, and so could
    /// not seal the live one.
    covered: Span,
    /// Size of the last snapshot written, or found at open.
    snapshot_bytes: u64,
}

impl Persist {
    /// The log written since the last durable snapshot.
    fn pending(&self) -> Span {
        let live = Span::of(&self.wal).minus(self.covered);
        self.sealed.unwrap_or_default().plus(live)
    }

    /// The auto-compaction trigger: the log has outgrown the snapshot.
    fn due(&self) -> bool {
        let pending = self.pending();
        self.opts.snapshot_every > 0
            && pending.records >= self.opts.snapshot_every
            && pending.bytes >= self.snapshot_bytes
    }

    /// Count a failed persistence step and turn it into the caller's error.
    fn failed(&mut self, context: &str, e: std::io::Error) -> RegistryError {
        self.stats.io_failed(context, &e);
        persist_err(context, e)
    }
}

#[derive(Debug, Default)]
struct Inner {
    users: Vec<UserRow>,
    /// The row tables hold their rows behind `Arc`, so a compaction's cut
    /// shares them instead of copying them, and an update after a cut
    /// copies only its own row (`Arc::make_mut`).
    pes: BTreeMap<u64, Arc<PeRow>>,
    workflows: BTreeMap<u64, Arc<WorkflowRow>>,
    executions: Vec<Arc<ExecutionRow>>,
    responses: Vec<Arc<ResponseRow>>,
    next_id: u64,
    seq: u64,
    /// Secondary index: lowercase PE name → ids (idx_pe_name).
    pe_name_index: HashMap<String, Vec<u64>>,
    /// Secondary index: lowercase workflow name → ids (idx_wf_name).
    wf_name_index: HashMap<String, Vec<u64>>,
    /// Every PE's name and description, lowercased, for literal search.
    pe_literal: LiteralColumn,
    /// The same for every workflow.
    wf_literal: LiteralColumn,
    persist: Option<Persist>,
}

/// A table's name and description per row, lowercased once when the row
/// is applied, in id order: literal search walks this instead of
/// lowercasing every row on every query.
#[derive(Debug, Default)]
struct LiteralColumn(Vec<Lowered>);

#[derive(Debug)]
struct Lowered {
    id: u64,
    name: Box<str>,
    description: Box<str>,
}

impl LiteralColumn {
    fn upsert(&mut self, id: u64, name: &str, description: &str) {
        let row = Lowered {
            id,
            name: name.to_lowercase().into(),
            description: description.to_lowercase().into(),
        };
        match self.0.binary_search_by_key(&id, |r| r.id) {
            Ok(at) => self.0[at] = row,
            Err(at) => self.0.insert(at, row),
        }
    }

    fn set_description(&mut self, id: u64, description: &str) {
        if let Ok(at) = self.0.binary_search_by_key(&id, |r| r.id) {
            self.0[at].description = description.to_lowercase().into();
        }
    }

    fn remove(&mut self, id: u64) {
        if let Ok(at) = self.0.binary_search_by_key(&id, |r| r.id) {
            self.0.remove(at);
        }
    }

    /// Ids, ascending, of the rows whose lowercase name or description
    /// contains `needle`, itself lowercase.
    fn matching<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.0
            .iter()
            .filter(move |r| r.name.contains(needle) || r.description.contains(needle))
            .map(|r| r.id)
    }
}

impl Inner {
    fn rebuild_indexes(&mut self) {
        self.pe_name_index.clear();
        self.pe_literal = LiteralColumn::default();
        for (id, pe) in &self.pes {
            self.pe_name_index
                .entry(pe.name.to_lowercase())
                .or_default()
                .push(*id);
            self.pe_literal.upsert(*id, &pe.name, &pe.description);
        }
        self.wf_name_index.clear();
        self.wf_literal = LiteralColumn::default();
        for (id, wf) in &self.workflows {
            self.wf_name_index
                .entry(wf.name.to_lowercase())
                .or_default()
                .push(*id);
            self.wf_literal.upsert(*id, &wf.name, &wf.description);
        }
    }

    /// Drop `id` from a name index, removing the key once empty so the
    /// index can't grow without bound under register/remove churn.
    fn unindex(index: &mut HashMap<String, Vec<u64>>, name: &str, id: u64) {
        let key = name.to_lowercase();
        if let Some(v) = index.get_mut(&key) {
            v.retain(|&x| x != id);
            if v.is_empty() {
                index.remove(&key);
            }
        }
    }

    /// First committed PE id under the lowercase name `key` that
    /// `user_id` owns. Names are unique per user, not globally, so this is
    /// the row a re-registration of the name by that user refers to.
    fn pe_owned_by(&self, user_id: u64, key: &str) -> Option<u64> {
        self.pe_name_index.get(key)?.iter().copied().find(|id| {
            self.pes.get(id).is_some_and(|p| p.user_id == user_id)
        })
    }

    fn bump_id(&mut self, id: u64) {
        self.next_id = self.next_id.max(id);
    }

    /// Apply one mutation record to in-memory state. This is the single
    /// mutation path shared by live writes and WAL replay, so recovery is
    /// bit-identical to the original execution. Records were validated
    /// before being logged, so apply never fails; it keeps `next_id` and
    /// `seq` as high-water marks of the ids/seqs it has seen, and every
    /// add is guarded at its recorded id so that replaying a WAL whose
    /// records a crashed compaction already folded into the snapshot
    /// (crash between rename and truncate) cannot duplicate rows.
    fn apply(&mut self, rec: &WalRecord) {
        self.seq = self.seq.max(rec.seq);
        match &rec.op {
            WalOp::AddUser(row) => {
                self.bump_id(row.id);
                if !self.users.iter().any(|u| u.id == row.id) {
                    self.users.push(row.clone());
                }
            }
            WalOp::AddPe(row) => {
                self.bump_id(row.id);
                let ids = self.pe_name_index.entry(row.name.to_lowercase()).or_default();
                if !ids.contains(&row.id) {
                    ids.push(row.id);
                }
                self.pe_literal.upsert(row.id, &row.name, &row.description);
                self.pes.insert(row.id, Arc::new(row.clone()));
            }
            WalOp::UpdatePeDescription { id, description } => {
                if let Some(pe) = self.pes.get_mut(id) {
                    let pe = Arc::make_mut(pe);
                    pe.description = description.clone();
                    self.pe_literal.set_description(*id, description);
                }
            }
            WalOp::RemovePe { id } => {
                if let Some(row) = self.pes.remove(id) {
                    Self::unindex(&mut self.pe_name_index, &row.name, *id);
                    self.pe_literal.remove(*id);
                }
            }
            WalOp::AddWorkflow(row) => {
                self.bump_id(row.id);
                let ids = self.wf_name_index.entry(row.name.to_lowercase()).or_default();
                if !ids.contains(&row.id) {
                    ids.push(row.id);
                }
                self.wf_literal.upsert(row.id, &row.name, &row.description);
                self.workflows.insert(row.id, Arc::new(row.clone()));
            }
            WalOp::UpdateWorkflowDescription { id, description } => {
                if let Some(wf) = self.workflows.get_mut(id) {
                    let wf = Arc::make_mut(wf);
                    wf.description = description.clone();
                    self.wf_literal.set_description(*id, description);
                }
            }
            WalOp::RemoveWorkflow { id } => {
                if let Some(row) = self.workflows.remove(id) {
                    Self::unindex(&mut self.wf_name_index, &row.name, *id);
                    self.wf_literal.remove(*id);
                }
            }
            WalOp::RemoveAll => {
                self.pes.clear();
                self.workflows.clear();
                self.pe_name_index.clear();
                self.wf_name_index.clear();
                self.pe_literal = LiteralColumn::default();
                self.wf_literal = LiteralColumn::default();
            }
            WalOp::AddExecution(row) => {
                self.bump_id(row.id);
                if let Err(at) = self.execution_at(row.id) {
                    self.executions.insert(at, Arc::new(row.clone()));
                }
            }
            WalOp::SetExecutionStatus { id, status } => {
                if let Ok(at) = self.execution_at(*id) {
                    Arc::make_mut(&mut self.executions[at]).status = *status;
                }
            }
            WalOp::AddResponse(row) => {
                self.bump_id(row.id);
                if let Err(at) = self.responses.binary_search_by_key(&row.id, |r| r.id) {
                    self.responses.insert(at, Arc::new(row.clone()));
                }
            }
        }
    }

    /// Where execution `id` sits (`Ok`) or would be inserted (`Err`).
    /// Ids only grow, so both history tables are in id order, replay
    /// included; an insert lands at the end.
    fn execution_at(&self, id: u64) -> Result<usize, usize> {
        self.executions.binary_search_by_key(&id, |e| e.id)
    }

    fn to_snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            users: self.users.clone(),
            pes: self.pes.values().map(owned).collect(),
            workflows: self.workflows.values().map(owned).collect(),
            executions: self.executions.iter().map(owned).collect(),
            responses: self.responses.iter().map(owned).collect(),
            next_id: self.next_id,
            seq: self.seq,
        }
    }

    /// The rows as they stand, shared rather than copied: O(rows) pointer
    /// copies (and the small users table). Serialises to the same bytes
    /// as [`Inner::to_snapshot`].
    fn view(&self) -> SnapshotView {
        SnapshotView {
            users: self.users.clone(),
            pes: self.pes.values().cloned().collect(),
            workflows: self.workflows.values().cloned().collect(),
            executions: self.executions.clone(),
            responses: self.responses.clone(),
            next_id: self.next_id,
            seq: self.seq,
        }
    }

    fn from_snapshot(snap: RegistrySnapshot) -> Inner {
        let mut inner = Inner {
            users: snap.users,
            pes: snap.pes.into_iter().map(|p| (p.id, Arc::new(p))).collect(),
            workflows: snap.workflows.into_iter().map(|w| (w.id, Arc::new(w))).collect(),
            executions: snap.executions.into_iter().map(Arc::new).collect(),
            responses: snap.responses.into_iter().map(Arc::new).collect(),
            next_id: snap.next_id,
            seq: snap.seq,
            pe_name_index: HashMap::new(),
            wf_name_index: HashMap::new(),
            pe_literal: LiteralColumn::default(),
            wf_literal: LiteralColumn::default(),
            persist: None,
        };
        inner.rebuild_indexes();
        inner
    }
}

/// Rows staged for one commit: validated and numbered against local
/// id/seq counters, visible to later rows of the same frame through the
/// staged-name sets, and to nobody else until [`Registry::commit`] has
/// made the frame durable and applied it. Every `NewPe` / `NewWorkflow`
/// becomes a row here and nowhere else.
#[derive(Default)]
struct Stage {
    next_id: u64,
    seq: u64,
    frame: Vec<WalRecord>,
    /// `(lowercase name, owner)` → id of the PEs staged so far.
    pe_names: HashMap<(String, u64), u64>,
    /// `(lowercase name, owner)` of the workflows staged so far.
    wf_names: HashSet<(String, u64)>,
}

impl Stage {
    fn new(inner: &Inner) -> Stage {
        Stage {
            next_id: inner.next_id,
            seq: inner.seq,
            ..Stage::default()
        }
    }

    /// Number the next row: `(id, seq)`.
    fn number(&mut self) -> (u64, u64) {
        self.next_id += 1;
        self.seq += 1;
        (self.next_id, self.seq)
    }

    /// Stage one PE. A name the submitting user already owns
    /// (case-insensitive, through the lowercase index so it matches what
    /// name lookup can reach) is not an error here: it resolves to that
    /// user's id under the name — a committed row before a staged one —
    /// with `created: false`, and stages nothing.
    fn pe(&mut self, inner: &Inner, new: NewPe) -> Result<PeOutcome, RegistryError> {
        Registry::check_user(inner, new.user_id)?;
        let key = (new.name.to_lowercase(), new.user_id);
        let existing = inner
            .pe_owned_by(new.user_id, &key.0)
            .or_else(|| self.pe_names.get(&key).copied());
        if let Some(id) = existing {
            return Ok(PeOutcome { name: new.name, id, created: false });
        }
        let (id, seq) = self.number();
        self.pe_names.insert(key, id);
        self.frame.push(WalRecord {
            seq,
            op: WalOp::AddPe(PeRow {
                id,
                user_id: new.user_id,
                name: new.name.clone(),
                description: new.description,
                code: new.code,
            }),
        });
        Ok(PeOutcome { name: new.name, id, created: true })
    }

    /// Stage one workflow over `new.pe_ids`, which the caller has resolved
    /// to committed PEs or ones staged earlier in this frame.
    fn workflow(&mut self, inner: &Inner, new: NewWorkflow) -> Result<u64, RegistryError> {
        Registry::check_user(inner, new.user_id)?;
        let key = (new.name.to_lowercase(), new.user_id);
        let committed = inner.wf_name_index.get(&key.0).is_some_and(|ids| {
            ids.iter()
                .any(|id| inner.workflows.get(id).is_some_and(|w| w.user_id == new.user_id))
        });
        if committed || self.wf_names.contains(&key) {
            return Err(RegistryError::DuplicateName {
                table: "Workflow",
                name: new.name,
            });
        }
        let (id, seq) = self.number();
        self.wf_names.insert(key);
        self.frame.push(WalRecord {
            seq,
            op: WalOp::AddWorkflow(WorkflowRow {
                id,
                user_id: new.user_id,
                name: new.name,
                description: new.description,
                code: new.code,
                pe_ids: new.pe_ids,
            }),
        });
        Ok(id)
    }
}

/// Serializable snapshot of the whole registry. Fields are public so
/// recovery tests can compare registries structurally.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    pub users: Vec<UserRow>,
    pub pes: Vec<PeRow>,
    pub workflows: Vec<WorkflowRow>,
    pub executions: Vec<ExecutionRow>,
    pub responses: Vec<ResponseRow>,
    pub next_id: u64,
    pub seq: u64,
}

/// A compaction's cut: the registry's rows shared with the live tables.
/// Its fields are [`RegistrySnapshot`]'s in the same order, so it
/// serialises to the same JSON.
#[derive(Debug, Serialize)]
struct SnapshotView {
    users: Vec<UserRow>,
    pes: Vec<Arc<PeRow>>,
    workflows: Vec<Arc<WorkflowRow>>,
    executions: Vec<Arc<ExecutionRow>>,
    responses: Vec<Arc<ResponseRow>>,
    next_id: u64,
    seq: u64,
}

/// A compaction between its cut and its write.
struct CompactJob {
    view: SnapshotView,
    dir: PathBuf,
    fault: Option<FaultHook>,
    /// The log the snapshot folds: everything since the last snapshot.
    folded: Span,
    /// The live log at the cut, when the cut found a sealed log and so
    /// left the live one unsealed: the snapshot covers its head.
    unsealed: Option<Span>,
}

impl CompactJob {
    /// Serialise, write `snapshot.json` atomically, then delete the sealed
    /// log it covers. Runs with no registry lock held. Returns the
    /// snapshot's size, or the failed step and its error.
    fn write(&self) -> Result<u64, (&'static str, std::io::Error)> {
        let json = serde_json::to_vec(&self.view).map_err(|e| {
            let e = std::io::Error::new(std::io::ErrorKind::InvalidData, e);
            ("serialise snapshot", e)
        })?;
        wal::write_atomic_hooked(&self.dir.join(SNAPSHOT_FILE), &json, self.fault.as_ref())
            .map_err(|e| ("write snapshot", e))?;
        match std::fs::remove_file(self.dir.join(SEALED_WAL_FILE)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(("delete sealed wal", e)),
            _ => Ok(json.len() as u64),
        }
    }

    /// Record the write's outcome, under the write lock: on success the
    /// sealed log is gone and the new snapshot's size is the trigger's
    /// next bar; on failure the sealed log stays for the next snapshot
    /// to cover.
    fn settle(
        &self,
        inner: &mut Inner,
        written: Result<u64, (&'static str, std::io::Error)>,
    ) -> Result<CompactStats, RegistryError> {
        let p = inner.persist.as_mut().expect("only a persistent registry is cut");
        let snapshot_bytes = written.map_err(|(context, e)| p.failed(context, e))?;
        p.sealed = None;
        if let Some(live) = self.unsealed {
            p.covered = live;
        }
        p.snapshot_bytes = snapshot_bytes;
        p.stats.compactions += 1;
        p.stats.fsyncs += 1; // the snapshot's
        Ok(CompactStats {
            wal_records: self.folded.records,
            wal_bytes: self.folded.bytes,
            snapshot_bytes,
        })
    }
}

/// What the registry shares with its compaction thread.
#[derive(Default)]
struct Shared {
    inner: RwLock<Inner>,
    /// True from a compaction's cut until its write is settled.
    compacting: Mutex<bool>,
    /// Signalled when `compacting` falls.
    idle: Condvar,
}

/// The registry. Cheap to share: interior `RwLock`, many concurrent
/// readers (searches) against occasional writers (registrations).
#[derive(Default)]
pub struct Registry {
    shared: Arc<Shared>,
    /// The auto-compaction thread last spawned, joined on drop.
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for Registry {
    /// An auto-compaction in flight finishes before the registry goes:
    /// a reopen in the same process sees its snapshot.
    fn drop(&mut self) {
        let worker = self.worker.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(handle) = worker.take() {
            let _ = handle.join();
        }
    }
}

/// Salted FNV password hash. A stand-in for the paper's server-side auth —
/// NOT cryptographically secure, and documented as such in DESIGN.md.
pub fn hash_password(username: &str, password: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in username.as_bytes().iter().chain(b"\x00laminar-salt\x00").chain(password.as_bytes()) {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A shared row, copied out for a caller.
fn owned<T: Clone>(row: &Arc<T>) -> T {
    T::clone(row)
}

fn persist_err(context: &str, e: impl std::fmt::Display) -> RegistryError {
    RegistryError::Persistence(format!("{context}: {e}"))
}

impl Shared {
    /// A poisoned lock is handed on, not re-raised: a request that
    /// panicked must not turn every later request into a panic.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn compacting(&self) -> MutexGuard<'_, bool> {
        self.compacting.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait until no compaction runs; returns with the slot's lock held.
    fn wait_idle(&self) -> MutexGuard<'_, bool> {
        let mut compacting = self.compacting();
        while *compacting {
            compacting = self.idle.wait(compacting).unwrap_or_else(PoisonError::into_inner);
        }
        compacting
    }

    /// Take the one compaction slot if it is free. The thread the
    /// compaction runs on holds it as a [`Slot`].
    fn try_begin(&self) -> bool {
        !std::mem::replace(&mut *self.compacting(), true)
    }

    /// Take the one compaction slot, waiting for a running compaction.
    fn begin(&self) -> Slot<'_> {
        *self.wait_idle() = true;
        Slot(self)
    }

    fn end(&self) {
        *self.compacting() = false;
        self.idle.notify_all();
    }

    /// The cut, under the write lock: seal the live log — unless an older
    /// sealed log survives, which the snapshot must cover first — and
    /// share the rows. On a failed seal nothing has changed.
    fn cut(inner: &mut Inner) -> Result<CompactJob, RegistryError> {
        let p = inner.persist.as_mut().expect("only a persistent registry is cut");
        let folded = p.pending();
        let live = Span::of(&p.wal);
        let unsealed = if p.sealed.is_some() {
            Some(live)
        } else {
            if let Err(e) = p.wal.seal(&p.dir.join(SEALED_WAL_FILE)) {
                return Err(p.failed("seal wal", e));
            }
            p.stats.fsyncs += 1; // the directory's, after the rename
            p.sealed = Some(live.minus(p.covered));
            p.covered = Span::default();
            None
        };
        let (dir, fault) = (p.dir.clone(), p.fault.clone());
        Ok(CompactJob {
            view: inner.view(),
            dir,
            fault,
            folded,
            unsealed,
        })
    }

    /// The auto-compaction thread: write the cut, settle it, and cut
    /// again while the log has outgrown the new snapshot (a trigger that
    /// came during the write skipped). Gives the slot back in the same
    /// lock hold as its last check, so no trigger is lost between them.
    fn compact_in_background(&self, mut job: CompactJob) {
        let slot = Slot(self);
        loop {
            let written = job.write();
            let mut inner = self.write();
            let settled = job.settle(&mut inner, written);
            let next = match settled {
                Ok(_) if inner.persist.as_ref().is_some_and(Persist::due) => {
                    Shared::cut(&mut inner).ok()
                }
                _ => None,
            };
            match next {
                Some(next) => job = next,
                None => {
                    // Given back under the lock of the last check.
                    drop(slot);
                    return;
                }
            }
        }
    }
}

/// The compaction slot, held from a cut until its write is settled.
/// Dropping it gives the slot back, so a compaction that panics cannot
/// keep it.
struct Slot<'a>(&'a Shared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.end();
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn with_inner(inner: Inner) -> Registry {
        Registry {
            shared: Arc::new(Shared {
                inner: RwLock::new(inner),
                ..Shared::default()
            }),
            worker: Mutex::default(),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.shared.read()
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.shared.write()
    }

    /// Open a durable registry backed by `dir`, recovering prior state:
    /// load `snapshot.json` if present, replay `wal.log` on top
    /// (truncating a torn tail in place), rebuild the name indexes, and
    /// leave the WAL open for appending. The directory is created if
    /// missing; an empty directory yields an empty registry.
    pub fn open(dir: &Path, opts: PersistOptions) -> Result<Registry, RegistryError> {
        Self::open_impl(dir, opts, None)
    }

    /// [`Registry::open`] with a deterministic IO fault hook installed
    /// (see [`crate::iofault`]). Every WAL append/fsync/truncate and
    /// snapshot write/fsync/rename consults the hook before touching the
    /// file, so tests can fail any single IO operation and check that
    /// "acknowledged ⇒ durable, unacknowledged ⇒ absent" holds there.
    pub fn open_with_faults(
        dir: &Path,
        opts: PersistOptions,
        fault: FaultHook,
    ) -> Result<Registry, RegistryError> {
        Self::open_impl(dir, opts, Some(fault))
    }

    fn open_impl(
        dir: &Path,
        opts: PersistOptions,
        fault: Option<FaultHook>,
    ) -> Result<Registry, RegistryError> {
        let start = Instant::now();
        std::fs::create_dir_all(dir).map_err(|e| persist_err("create data dir", e))?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        // A leftover snapshot.json.tmp is a compaction that died before
        // its rename — the live snapshot + WAL are still authoritative.
        let _ = std::fs::remove_file(wal::tmp_path(&snap_path));

        let (mut inner, snapshot_bytes) = if snap_path.exists() {
            let json = std::fs::read_to_string(&snap_path)
                .map_err(|e| persist_err("read snapshot", e))?;
            let snap: RegistrySnapshot =
                serde_json::from_str(&json).map_err(|e| persist_err("parse snapshot", e))?;
            (Inner::from_snapshot(snap), json.len() as u64)
        } else {
            (Inner::default(), 0)
        };

        // A sealed log is one whose compaction did not finish deleting it:
        // it holds the records between the snapshot before that cut and
        // `wal.log`. Replaying it onto a snapshot that already covers it
        // is a no-op (apply is idempotent at recorded ids). It stays on
        // disk until the next snapshot covers it.
        let sealed_path = dir.join(SEALED_WAL_FILE);
        let wal_path = dir.join(WAL_FILE);
        let mut stats = PersistSnapshot::default();
        let sealed = if sealed_path.exists() {
            let replayed =
                wal::replay(&sealed_path).map_err(|e| persist_err("replay sealed wal", e))?;
            for rec in &replayed.records {
                inner.apply(rec);
            }
            if replayed.torn {
                // History ends at the sealed log's last valid frame: every
                // record in `wal.log` came after the lost ones, so applying
                // them would build a state with a gap in it. Set `wal.log`
                // aside, durably, before the sealed log's tail goes — a
                // crash in between must not leave a clean sealed log beside
                // the later records.
                let set_aside = std::fs::metadata(&wal_path).is_ok_and(|m| m.len() > 0);
                if set_aside {
                    let aside = dir.join(DISCARDED_WAL_FILE);
                    std::fs::rename(&wal_path, &aside)
                        .map_err(|e| persist_err("set wal aside", e))?;
                    wal::sync_parent(&aside);
                }
                wal::truncate_to(&sealed_path, replayed.valid_bytes)
                    .map_err(|e| persist_err("truncate torn sealed wal", e))?;
                let aside = if set_aside {
                    format!("; {WAL_FILE} set aside as {DISCARDED_WAL_FILE}")
                } else {
                    String::new()
                };
                stats.io_failed(
                    "replay sealed wal",
                    &format_args!("torn frame at byte {}{aside}", replayed.valid_bytes),
                );
            }
            Some(Span {
                records: replayed.records.len() as u64,
                bytes: replayed.valid_bytes,
            })
        } else {
            None
        };

        let replayed = wal::replay(&wal_path).map_err(|e| persist_err("replay wal", e))?;
        if replayed.torn {
            wal::truncate_to(&wal_path, replayed.valid_bytes)
                .map_err(|e| persist_err("truncate torn wal tail", e))?;
        }
        for rec in &replayed.records {
            inner.apply(rec);
        }
        let live = replayed.records.len() as u64;
        let recovered = live + sealed.map_or(0, |s| s.records);

        let mut wal = Wal::open(&wal_path, opts.sync, live, replayed.valid_bytes)
            .map_err(|e| persist_err("open wal", e))?;
        if let Some(hook) = fault.clone() {
            wal.set_fault_hook(hook);
        }
        inner.persist = Some(Persist {
            dir: dir.to_path_buf(),
            wal,
            opts,
            stats: PersistSnapshot {
                recovered_records: recovered,
                recovery_ms: start.elapsed().as_millis() as u64,
                ..stats
            },
            fault,
            sealed,
            covered: Span::default(),
            snapshot_bytes,
        });
        Ok(Registry::with_inner(inner))
    }

    /// The one commit: log `frame` to the WAL (when persistent) — a lone
    /// record as a single-record frame, several as one group-commit frame,
    /// so one write and at most one fsync either way — then apply it in
    /// memory. On WAL failure nothing is applied and the whole frame is
    /// rejected: acknowledged implies durable, and a frame is all or
    /// nothing. Returns whether the frame was fsynced. Starts an
    /// auto-compaction when one is due; compaction failure never fails
    /// the already-durable frame. An empty frame touches nothing.
    fn commit(&self, inner: &mut Inner, frame: &[WalRecord]) -> Result<bool, RegistryError> {
        let mut fsynced = false;
        if let Some(p) = inner.persist.as_mut() {
            let appended = match frame {
                [rec] => p.wal.append(rec),
                recs => p.wal.append_batch(recs),
            };
            let (bytes, synced) = match appended {
                Ok(v) => v,
                Err(e) => {
                    p.stats.io_failed("wal append", &e);
                    return Err(persist_err("wal append", e));
                }
            };
            p.stats.wal_appends += frame.len() as u64;
            p.stats.wal_bytes += bytes;
            if synced {
                p.stats.fsyncs += 1;
                fsynced = true;
            }
        }
        for rec in frame {
            inner.apply(rec);
        }
        self.compact_in_background_if_due(inner);
        Ok(fsynced)
    }

    /// The auto-compaction trigger, checked after every commit: when the
    /// log has outgrown the last snapshot and no compaction is running,
    /// take the cut here and hand the write to a thread. A trigger that
    /// finds a compaction running skips; that compaction checks again
    /// when it settles.
    fn compact_in_background_if_due(&self, inner: &mut Inner) {
        if !inner.persist.as_ref().is_some_and(Persist::due) || !self.shared.try_begin() {
            return;
        }
        let Ok(job) = Shared::cut(inner) else {
            self.shared.end();
            return;
        };
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("registry-compact".into())
            .spawn(move || shared.compact_in_background(job));
        let p = inner.persist.as_mut().expect("only a persistent registry is due");
        match spawned {
            Ok(handle) => {
                // The last worker gave the slot back, so it has returned or
                // is returning: joining it waits on nothing.
                let last = self.worker.lock().unwrap_or_else(PoisonError::into_inner).replace(handle);
                if last.is_some_and(|last| last.join().is_err()) {
                    p.stats.io_failed("compaction", &"the compaction thread panicked");
                }
            }
            Err(e) => {
                // The sealed log stays; the next snapshot covers it.
                p.failed("spawn compaction", e);
                self.shared.end();
            }
        }
    }

    /// Fold the log into a fresh snapshot now, on the caller's thread:
    /// wait for a running compaction, cut under the write lock (sealing
    /// the WAL), then serialise and write with no lock held. Returns
    /// `None` for a non-persistent registry. A crash at any step leaves
    /// a directory that reopens to the acknowledged state: every op is
    /// idempotent at its recorded id, so replaying log records that a
    /// snapshot already covers is harmless.
    pub fn compact(&self) -> Result<Option<CompactStats>, RegistryError> {
        let slot = self.shared.begin();
        let job = {
            let mut inner = self.write();
            match inner.persist {
                None => return Ok(None),
                Some(_) => Shared::cut(&mut inner)?,
            }
        };
        let written = job.write();
        let mut inner = self.write();
        let settled = job.settle(&mut inner, written);
        drop(slot);
        self.compact_in_background_if_due(&mut inner);
        settled.map(Some)
    }

    /// Persistence counters, or `None` for an in-memory registry. Waits
    /// for a running compaction, so the counters describe settled work.
    pub fn persist_stats(&self) -> Option<PersistSnapshot> {
        drop(self.shared.wait_idle());
        let inner = self.read();
        inner.persist.as_ref().map(|p| PersistSnapshot {
            wal_records: p.pending().records,
            ..p.stats.clone()
        })
    }

    /// Per-site fault-injection counters from the installed hook, or
    /// empty when no hook is installed (the production configuration).
    pub fn fault_counters(&self) -> Vec<SiteCounter> {
        self.read()
            .persist
            .as_ref()
            .and_then(|p| p.fault.as_ref())
            .map(|h| h.counters())
            .unwrap_or_default()
    }

    /// Recovery probe for health checks: re-verify that the storage
    /// under a durable registry is writable and the WAL tail is clean.
    ///
    /// Three steps, cheapest first: (1) replay the sealed log (if one is
    /// on disk) and the WAL from disk as a CRC audit — a torn or
    /// unreadable frame in either fails the probe; (2) write,
    /// fsync, and remove a scratch `health.probe` file in the data
    /// directory, consulting the same fault hook the WAL uses (an armed
    /// persistent injector keeps the probe failing until it is cleared);
    /// (3) heal the live WAL tail under the write lock so a previously
    /// poisoned log is re-truncated to its acknowledged boundary. An
    /// in-memory registry trivially passes. Steps 1–2 take only the read
    /// lock, so searches keep serving while the probe runs.
    pub fn verify_storage(&self) -> Result<(), RegistryError> {
        let (dir, wal_path, fault) = {
            let inner = self.read();
            match inner.persist.as_ref() {
                None => return Ok(()),
                Some(p) => (p.dir.clone(), p.dir.join(WAL_FILE), p.fault.clone()),
            }
        };
        // The sealed log never changes once sealed (it may be deleted
        // under us, which replays as empty); a tear in it is corruption.
        let sealed = wal::replay(&dir.join(SEALED_WAL_FILE))
            .map_err(|e| persist_err("probe: replay sealed wal", e))?;
        if sealed.torn {
            return Err(persist_err("probe: sealed wal", "torn frame"));
        }
        let replayed = wal::replay(&wal_path).map_err(|e| persist_err("probe: replay wal", e))?;
        if replayed.torn {
            return Err(persist_err(
                "probe: wal tail",
                "torn frame past the acknowledged boundary",
            ));
        }
        let probe = dir.join("health.probe");
        let res = Self::probe_write(&probe, fault.as_ref());
        let _ = std::fs::remove_file(&probe);
        if let Err(e) = res {
            let mut inner = self.write();
            if let Some(p) = inner.persist.as_mut() {
                p.stats.io_failed("probe: test append", &e);
            }
            return Err(persist_err("probe: test append", e));
        }
        let mut inner = self.write();
        if let Some(p) = inner.persist.as_mut() {
            p.wal.heal().map_err(|e| persist_err("probe: heal wal", e))?;
        }
        Ok(())
    }

    /// The probe's scratch write: create/write/fsync `path`. Consults
    /// the fault hook at the WAL-append site first so injected storage
    /// failure and real storage failure look identical to the prober.
    fn probe_write(path: &Path, fault: Option<&FaultHook>) -> std::io::Result<()> {
        if let Some(hook) = fault {
            if let Some(induced) = hook.induce(IoSite::WalAppend, 0) {
                return Err(induced.into_error());
            }
        }
        let mut f = std::fs::File::create(path)?;
        std::io::Write::write_all(&mut f, b"laminar-health-probe")?;
        f.sync_data()
    }

    /// The backing data directory, if this registry is durable.
    pub fn data_dir(&self) -> Option<PathBuf> {
        self.read().persist.as_ref().map(|p| p.dir.clone())
    }

    // ---- users -----------------------------------------------------------

    /// Register a user; returns the new user id.
    pub fn register_user(&self, username: &str, password: &str) -> Result<u64, RegistryError> {
        let mut inner = self.write();
        if inner.users.iter().any(|u| u.username == username) {
            return Err(RegistryError::DuplicateUser(username.to_string()));
        }
        let id = inner.next_id + 1;
        let seq = inner.seq + 1;
        let row = UserRow {
            id,
            username: username.to_string(),
            password_hash: hash_password(username, password),
            created_seq: seq,
        };
        self.commit(&mut inner, &[WalRecord { seq, op: WalOp::AddUser(row) }])?;
        Ok(id)
    }

    /// Verify credentials; returns the user id.
    pub fn login(&self, username: &str, password: &str) -> Result<u64, RegistryError> {
        let inner = self.read();
        let user = inner
            .users
            .iter()
            .find(|u| u.username == username)
            .ok_or_else(|| RegistryError::UnknownUser(username.to_string()))?;
        if user.password_hash != hash_password(username, password) {
            return Err(RegistryError::InvalidCredentials);
        }
        Ok(user.id)
    }

    fn check_user(inner: &Inner, user_id: u64) -> Result<(), RegistryError> {
        if inner.users.iter().any(|u| u.id == user_id) {
            Ok(())
        } else {
            Err(RegistryError::MissingReference {
                table: "User",
                id: user_id,
            })
        }
    }

    // ---- PEs ---------------------------------------------------------------

    /// Register one PE: a unit of one, except that a name the user
    /// already owns is the caller's error rather than a reuse.
    pub fn add_pe(&self, new: NewPe) -> Result<u64, RegistryError> {
        let mut inner = self.write();
        let mut stage = Stage::new(&inner);
        let pe = stage.pe(&inner, new)?;
        if !pe.created {
            return Err(RegistryError::DuplicateName {
                table: "ProcessingElement",
                name: pe.name,
            });
        }
        self.commit(&mut inner, &stage.frame)?;
        Ok(pe.id)
    }

    /// The registration write path: stage every unit under **one**
    /// write-lock hold, commit all resulting rows as **one** WAL frame
    /// (one fsync under `EveryAppend`), then apply.
    ///
    /// Per unit: a PE name the user already owns (case-insensitive)
    /// reuses that user's existing id instead of failing; a member-PE
    /// error stops the unit (earlier members stay, the workflow is
    /// skipped); a duplicate workflow name fails the unit while its member
    /// PEs stay. Units later in the call see the rows of earlier units, so
    /// how a list of units is chunked into calls never changes the
    /// outcome. The outer `Err` is reserved for WAL failure, in which case
    /// nothing was applied.
    pub fn add_units(&self, units: Vec<RegistrationUnit>) -> Result<UnitsCommitted, RegistryError> {
        let mut inner = self.write();
        let mut stage = Stage::new(&inner);
        let outcomes = units
            .into_iter()
            .map(|unit| {
                let mut out = UnitOutcome::default();
                for new in unit.pes {
                    match stage.pe(&inner, new) {
                        Ok(pe) => out.pes.push(pe),
                        Err(e) => {
                            out.error = Some(e);
                            return out;
                        }
                    }
                }
                if let Some(wf) = unit.workflow {
                    let name = wf.name.clone();
                    let pe_ids = out.pes.iter().map(|p| p.id).collect();
                    match stage.workflow(&inner, NewWorkflow { pe_ids, ..wf }) {
                        Ok(id) => out.workflow = Some((name, id)),
                        Err(e) => out.error = Some(e),
                    }
                }
                out
            })
            .collect();
        let fsynced = self.commit(&mut inner, &stage.frame)?;
        Ok(UnitsCommitted { outcomes, fsynced })
    }

    pub fn get_pe(&self, id: u64) -> Result<PeRow, RegistryError> {
        self.pe_row(id).map(|row| owned(&row))
    }

    /// PE `id`'s row as the registry holds it, shared: for readers that
    /// need a few of its fields, not a copy of its embedding columns.
    pub fn pe_row(&self, id: u64) -> Result<Arc<PeRow>, RegistryError> {
        self.read()
            .pes
            .get(&id)
            .cloned()
            .ok_or_else(|| RegistryError::NotFound("ProcessingElement", id.to_string()))
    }

    /// Name lookup through the secondary index (case-insensitive).
    pub fn get_pe_by_name(&self, name: &str) -> Result<PeRow, RegistryError> {
        self.pe_row_by_name(name).map(|row| owned(&row))
    }

    /// [`get_pe_by_name`](Self::get_pe_by_name)'s row, shared
    /// ([`pe_row`](Self::pe_row)).
    pub fn pe_row_by_name(&self, name: &str) -> Result<Arc<PeRow>, RegistryError> {
        let inner = self.read();
        let ids = inner.pe_name_index.get(&name.to_lowercase());
        ids.and_then(|ids| ids.first())
            .and_then(|id| inner.pes.get(id))
            .cloned()
            .ok_or_else(|| RegistryError::NotFound("ProcessingElement", name.to_string()))
    }

    /// The PE `user_id` owns under `name` (case-insensitive): the row a
    /// re-registration of that name by that user resolves to.
    pub fn get_pe_by_name_for_user(&self, user_id: u64, name: &str) -> Result<PeRow, RegistryError> {
        let inner = self.read();
        inner
            .pe_owned_by(user_id, &name.to_lowercase())
            .and_then(|id| inner.pes.get(&id))
            .map(owned)
            .ok_or_else(|| RegistryError::NotFound("ProcessingElement", name.to_string()))
    }

    pub fn all_pes(&self) -> Vec<PeRow> {
        self.read().pes.values().map(owned).collect()
    }

    /// [`all_pes`](Self::all_pes)' rows, shared ([`pe_row`](Self::pe_row)).
    pub fn pe_rows(&self) -> Vec<Arc<PeRow>> {
        self.read().pes.values().cloned().collect()
    }

    pub fn update_pe_description(&self, id: u64, description: &str) -> Result<(), RegistryError> {
        let mut inner = self.write();
        if !inner.pes.contains_key(&id) {
            return Err(RegistryError::NotFound("ProcessingElement", id.to_string()));
        }
        let seq = inner.seq + 1;
        self.commit(
            &mut inner,
            &[WalRecord {
                seq,
                op: WalOp::UpdatePeDescription { id, description: description.to_string() },
            }],
        )?;
        Ok(())
    }

    /// Remove a PE. FK rule: fails while any workflow still references it.
    pub fn remove_pe(&self, id: u64) -> Result<(), RegistryError> {
        let mut inner = self.write();
        if !inner.pes.contains_key(&id) {
            return Err(RegistryError::NotFound("ProcessingElement", id.to_string()));
        }
        if inner.workflows.values().any(|w| w.pe_ids.contains(&id)) {
            return Err(RegistryError::ForeignKey {
                table: "ProcessingElement",
                id,
                referenced_by: "Workflow",
            });
        }
        let seq = inner.seq + 1;
        self.commit(&mut inner, &[WalRecord { seq, op: WalOp::RemovePe { id } }])?;
        Ok(())
    }

    // ---- workflows ---------------------------------------------------------

    /// Register one workflow over already-registered PEs — the one caller
    /// that names member ids itself, so the reference check is here (an
    /// unknown user is reported before an unknown PE).
    pub fn add_workflow(&self, new: NewWorkflow) -> Result<u64, RegistryError> {
        let mut inner = self.write();
        Self::check_user(&inner, new.user_id)?;
        if let Some(&id) = new.pe_ids.iter().find(|id| !inner.pes.contains_key(id)) {
            return Err(RegistryError::MissingReference {
                table: "ProcessingElement",
                id,
            });
        }
        let mut stage = Stage::new(&inner);
        let id = stage.workflow(&inner, new)?;
        self.commit(&mut inner, &stage.frame)?;
        Ok(id)
    }

    pub fn get_workflow(&self, id: u64) -> Result<WorkflowRow, RegistryError> {
        self.workflow_row(id).map(|row| owned(&row))
    }

    /// Workflow `id`'s row as the registry holds it, shared
    /// ([`pe_row`](Self::pe_row)).
    pub fn workflow_row(&self, id: u64) -> Result<Arc<WorkflowRow>, RegistryError> {
        self.read()
            .workflows
            .get(&id)
            .cloned()
            .ok_or_else(|| RegistryError::NotFound("Workflow", id.to_string()))
    }

    pub fn get_workflow_by_name(&self, name: &str) -> Result<WorkflowRow, RegistryError> {
        self.workflow_row_by_name(name).map(|row| owned(&row))
    }

    /// [`get_workflow_by_name`](Self::get_workflow_by_name)'s row, shared
    /// ([`pe_row`](Self::pe_row)).
    pub fn workflow_row_by_name(&self, name: &str) -> Result<Arc<WorkflowRow>, RegistryError> {
        let inner = self.read();
        let ids = inner.wf_name_index.get(&name.to_lowercase());
        ids.and_then(|ids| ids.first())
            .and_then(|id| inner.workflows.get(id))
            .cloned()
            .ok_or_else(|| RegistryError::NotFound("Workflow", name.to_string()))
    }

    pub fn all_workflows(&self) -> Vec<WorkflowRow> {
        self.read().workflows.values().map(owned).collect()
    }

    /// [`all_workflows`](Self::all_workflows)' rows, shared
    /// ([`pe_row`](Self::pe_row)).
    pub fn workflow_rows(&self) -> Vec<Arc<WorkflowRow>> {
        self.read().workflows.values().cloned().collect()
    }

    /// Hand `f` the `(id, member PE ids)` of every workflow, in place
    /// under the read lock — for callers that aggregate over membership
    /// and would otherwise clone every row for two of its fields.
    pub fn with_workflow_members<R>(
        &self,
        f: impl FnOnce(&mut dyn Iterator<Item = (u64, &[u64])>) -> R,
    ) -> R {
        let inner = self.read();
        f(&mut inner
            .workflows
            .values()
            .map(|w| (w.id, w.pe_ids.as_slice())))
    }

    /// `get_PEs_By_Workflow` (Table I).
    pub fn pes_by_workflow(&self, workflow_id: u64) -> Result<Vec<PeRow>, RegistryError> {
        let rows = self.pe_rows_by_workflow(workflow_id)?;
        Ok(rows.iter().map(owned).collect())
    }

    /// [`pes_by_workflow`](Self::pes_by_workflow)' rows, shared
    /// ([`pe_row`](Self::pe_row)).
    pub fn pe_rows_by_workflow(&self, workflow_id: u64) -> Result<Vec<Arc<PeRow>>, RegistryError> {
        let inner = self.read();
        let wf = inner
            .workflows
            .get(&workflow_id)
            .ok_or_else(|| RegistryError::NotFound("Workflow", workflow_id.to_string()))?;
        Ok(wf
            .pe_ids
            .iter()
            .filter_map(|id| inner.pes.get(id).cloned())
            .collect())
    }

    pub fn update_workflow_description(&self, id: u64, description: &str) -> Result<(), RegistryError> {
        let mut inner = self.write();
        if !inner.workflows.contains_key(&id) {
            return Err(RegistryError::NotFound("Workflow", id.to_string()));
        }
        let seq = inner.seq + 1;
        self.commit(
            &mut inner,
            &[WalRecord {
                seq,
                op: WalOp::UpdateWorkflowDescription { id, description: description.to_string() },
            }],
        )?;
        Ok(())
    }

    pub fn remove_workflow(&self, id: u64) -> Result<(), RegistryError> {
        let mut inner = self.write();
        if !inner.workflows.contains_key(&id) {
            return Err(RegistryError::NotFound("Workflow", id.to_string()));
        }
        let seq = inner.seq + 1;
        self.commit(&mut inner, &[WalRecord { seq, op: WalOp::RemoveWorkflow { id } }])?;
        Ok(())
    }

    /// `remove_All` (Table I): clears PEs and workflows, keeps users and
    /// execution history. Fallible because the tombstone must reach the
    /// WAL before the wipe is acknowledged.
    pub fn remove_all(&self) -> Result<(), RegistryError> {
        let mut inner = self.write();
        let seq = inner.seq + 1;
        self.commit(&mut inner, &[WalRecord { seq, op: WalOp::RemoveAll }])?;
        Ok(())
    }

    // ---- literal search (paper §V-A, Fig. 7) --------------------------------

    /// Case-insensitive term match over names and descriptions: every
    /// matching row of each targeted table, in id order. A row matches
    /// when `name.to_lowercase()` or `description.to_lowercase()` contains
    /// `term.to_lowercase()`.
    pub fn literal_search(&self, target: SearchTarget, term: &str) -> (Vec<PeRow>, Vec<WorkflowRow>) {
        let (pes, wfs) = self.literal_search_top(target, term, usize::MAX);
        (pes.iter().map(owned).collect(), wfs.iter().map(owned).collect())
    }

    /// [`literal_search`](Self::literal_search) cut to the first `limit`
    /// matches per table, as shared rows. The walk reads the lowercase
    /// columns and stops at `limit`, so a broad term (`""` matches
    /// everything) touches `limit` rows under the read lock, not the
    /// table, and copies none.
    pub fn literal_search_top(
        &self,
        target: SearchTarget,
        term: &str,
        limit: usize,
    ) -> (Vec<Arc<PeRow>>, Vec<Arc<WorkflowRow>>) {
        let needle = term.to_lowercase();
        let inner = self.read();
        let pes = if target != SearchTarget::Workflow {
            inner
                .pe_literal
                .matching(&needle)
                .take(limit)
                .map(|id| inner.pes[&id].clone())
                .collect()
        } else {
            Vec::new()
        };
        let wfs = if target != SearchTarget::Pe {
            inner
                .wf_literal
                .matching(&needle)
                .take(limit)
                .map(|id| inner.workflows[&id].clone())
                .collect()
        } else {
            Vec::new()
        };
        (pes, wfs)
    }

    // ---- executions / responses ---------------------------------------------

    /// Record a run as it starts: its row, already `Running`, as one
    /// single-record frame.
    pub fn add_execution(
        &self,
        workflow_id: u64,
        user_id: u64,
        mapping: &str,
        input: &str,
    ) -> Result<u64, RegistryError> {
        let mut inner = self.write();
        if !inner.workflows.contains_key(&workflow_id) {
            return Err(RegistryError::MissingReference {
                table: "Workflow",
                id: workflow_id,
            });
        }
        Self::check_user(&inner, user_id)?;
        let id = inner.next_id + 1;
        let seq = inner.seq + 1;
        let row = ExecutionRow {
            id,
            workflow_id,
            user_id,
            mapping: mapping.to_string(),
            input: input.to_string(),
            status: ExecutionStatus::Running,
            submitted_seq: seq,
        };
        self.commit(&mut inner, &[WalRecord { seq, op: WalOp::AddExecution(row) }])?;
        Ok(id)
    }

    /// Record how a run ended: its response and its final status, one
    /// frame of two records, so a crash leaves both or neither. Returns
    /// the response's id.
    pub fn finish_execution(
        &self,
        execution_id: u64,
        output: &str,
        status: ExecutionStatus,
    ) -> Result<u64, RegistryError> {
        let mut inner = self.write();
        if inner.execution_at(execution_id).is_err() {
            return Err(RegistryError::MissingReference {
                table: "Execution",
                id: execution_id,
            });
        }
        let id = inner.next_id + 1;
        let seq = inner.seq + 1;
        let row = ResponseRow {
            id,
            execution_id,
            output: output.to_string(),
            status,
        };
        self.commit(
            &mut inner,
            &[
                WalRecord { seq, op: WalOp::AddResponse(row) },
                WalRecord {
                    seq: seq + 1,
                    op: WalOp::SetExecutionStatus { id: execution_id, status },
                },
            ],
        )?;
        Ok(id)
    }

    pub fn executions_for(&self, workflow_id: u64) -> Vec<ExecutionRow> {
        self.read()
            .executions
            .iter()
            .filter(|e| e.workflow_id == workflow_id)
            .map(owned)
            .collect()
    }

    /// A workflow's executions in id order, each with the first line of
    /// its first recorded response: one read lock, one pass per table.
    pub fn execution_history(&self, workflow_id: u64) -> Vec<(ExecutionRow, Option<String>)> {
        let inner = self.read();
        let mut history: Vec<(ExecutionRow, Option<String>)> = inner
            .executions
            .iter()
            .filter(|e| e.workflow_id == workflow_id)
            .map(|e| (owned(e), None))
            .collect();
        for r in &inner.responses {
            if let Ok(at) = history.binary_search_by_key(&r.execution_id, |(e, _)| e.id) {
                let preview = &mut history[at].1;
                if preview.is_none() {
                    *preview = Some(r.output.lines().next().unwrap_or_default().to_string());
                }
            }
        }
        history
    }

    pub fn responses_for(&self, execution_id: u64) -> Vec<ResponseRow> {
        self.read()
            .responses
            .iter()
            .filter(|r| r.execution_id == execution_id)
            .map(owned)
            .collect()
    }

    // ---- persistence ---------------------------------------------------------

    pub fn snapshot(&self) -> RegistrySnapshot {
        self.read().to_snapshot()
    }

    pub fn from_snapshot(snap: RegistrySnapshot) -> Registry {
        Registry::with_inner(Inner::from_snapshot(snap))
    }

    /// Registry contents summary (the CLI's `list`): (PE count, WF count).
    pub fn counts(&self) -> (usize, usize) {
        let inner = self.read();
        (inner.pes.len(), inner.workflows.len())
    }

    /// Sorted copies of the name indexes, for tests that assert the
    /// incrementally-maintained indexes match a from-scratch rebuild.
    #[doc(hidden)]
    pub fn debug_name_indexes(&self) -> [Vec<(String, Vec<u64>)>; 2] {
        let inner = self.read();
        [&inner.pe_name_index, &inner.wf_name_index].map(|index| {
            let mut sorted: Vec<_> = index.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            sorted.sort();
            sorted
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_user() -> (Registry, u64) {
        let r = Registry::new();
        let u = r.register_user("rosa", "pw").unwrap();
        (r, u)
    }

    fn pe(user: u64, name: &str) -> NewPe {
        NewPe {
            user_id: user,
            name: name.into(),
            description: format!("{name} description"),
            code: format!("class {name}: pass"),
            description_embedding: String::new(),
            spt_embedding: String::new(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("laminar-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn user_lifecycle() {
        let (r, u) = with_user();
        assert_eq!(r.login("rosa", "pw").unwrap(), u);
        assert_eq!(r.login("rosa", "wrong").unwrap_err(), RegistryError::InvalidCredentials);
        assert!(matches!(r.login("nobody", "pw").unwrap_err(), RegistryError::UnknownUser(_)));
        assert!(matches!(
            r.register_user("rosa", "other").unwrap_err(),
            RegistryError::DuplicateUser(_)
        ));
        assert_eq!(r.read().users.len(), 1);
    }

    #[test]
    fn password_hash_depends_on_user_and_password() {
        assert_ne!(hash_password("a", "pw"), hash_password("b", "pw"));
        assert_ne!(hash_password("a", "pw"), hash_password("a", "pw2"));
        assert_eq!(hash_password("a", "pw"), hash_password("a", "pw"));
    }

    #[test]
    fn pe_crud_and_indexes() {
        let (r, u) = with_user();
        let id = r.add_pe(pe(u, "IsPrime")).unwrap();
        assert_eq!(r.get_pe(id).unwrap().name, "IsPrime");
        assert_eq!(r.get_pe_by_name("isprime").unwrap().id, id, "index is case-insensitive");
        assert!(r.get_pe(999).is_err());
        assert!(r.get_pe_by_name("nope").is_err());
        r.update_pe_description(id, "new desc").unwrap();
        assert_eq!(r.get_pe(id).unwrap().description, "new desc");
        r.remove_pe(id).unwrap();
        assert!(r.get_pe(id).is_err());
        assert!(r.get_pe_by_name("IsPrime").is_err(), "index updated on delete");
    }

    #[test]
    fn unique_name_per_user() {
        let (r, u) = with_user();
        r.add_pe(pe(u, "X")).unwrap();
        assert!(matches!(
            r.add_pe(pe(u, "X")).unwrap_err(),
            RegistryError::DuplicateName { .. }
        ));
        // A different user can reuse the name.
        let u2 = r.register_user("sam", "pw").unwrap();
        assert!(r.add_pe(pe(u2, "X")).is_ok());
    }

    #[test]
    fn duplicate_names_are_case_insensitive() {
        // Regression: duplicate detection used exact string comparison
        // while the name index is lowercase-keyed, so `IsPrime` then
        // `isprime` both registered but the second was unreachable by
        // name lookup.
        let (r, u) = with_user();
        let id = r.add_pe(pe(u, "IsPrime")).unwrap();
        assert!(matches!(
            r.add_pe(pe(u, "isprime")).unwrap_err(),
            RegistryError::DuplicateName { table: "ProcessingElement", .. }
        ));
        assert!(matches!(
            r.add_pe(pe(u, "ISPRIME")).unwrap_err(),
            RegistryError::DuplicateName { .. }
        ));
        assert_eq!(r.get_pe_by_name("IsPrime").unwrap().id, id);
        assert_eq!(r.counts().0, 1, "no shadowed row was created");

        r.add_workflow(NewWorkflow {
            user_id: u,
            name: "Pipeline".into(),
            description: String::new(),
            code: String::new(),
            pe_ids: vec![],
        })
        .unwrap();
        assert!(matches!(
            r.add_workflow(NewWorkflow {
                user_id: u,
                name: "pipeline".into(),
                description: String::new(),
                code: String::new(),
                pe_ids: vec![],
            })
            .unwrap_err(),
            RegistryError::DuplicateName { table: "Workflow", .. }
        ));
        // A different user can still reuse the name in any case.
        let u2 = r.register_user("sam", "pw").unwrap();
        assert!(r.add_pe(pe(u2, "ISPRIME")).is_ok());
    }

    #[test]
    fn name_index_does_not_grow_under_churn() {
        // Regression: remove_pe/remove_workflow retained the id out of
        // the index Vec but left the empty key behind, so the index grew
        // without bound under register/remove churn.
        let (r, u) = with_user();
        let [pe_baseline, wf_baseline] = r.debug_name_indexes();
        for i in 0..100 {
            let id = r.add_pe(pe(u, &format!("Churn{i}"))).unwrap();
            r.remove_pe(id).unwrap();
            let wid = r
                .add_workflow(NewWorkflow {
                    user_id: u,
                    name: format!("ChurnWf{i}"),
                    description: String::new(),
                    code: String::new(),
                    pe_ids: vec![],
                })
                .unwrap();
            r.remove_workflow(wid).unwrap();
        }
        let [pe_after, wf_after] = r.debug_name_indexes();
        assert_eq!(pe_after, pe_baseline, "PE index back to baseline");
        assert_eq!(wf_after, wf_baseline, "workflow index back to baseline");
    }

    #[test]
    fn every_mutation_advances_seq() {
        // Regression: add_pe/add_workflow/update_* never advanced `seq`,
        // making it unusable as a WAL ordering cursor. Every record
        // advances it by one; `finish_execution` writes two.
        let r = Registry::new();
        let last = std::cell::Cell::new(r.snapshot().seq);
        let bump_by = |r: &Registry, what: &str, records: u64| {
            let now = r.snapshot().seq;
            assert_eq!(now, last.get() + records, "{what} must advance seq by {records}");
            last.set(now);
        };
        let bump = |r: &Registry, what: &str| bump_by(r, what, 1);
        let u = r.register_user("rosa", "pw").unwrap();
        bump(&r, "register_user");
        let p = r.add_pe(pe(u, "A")).unwrap();
        bump(&r, "add_pe");
        r.update_pe_description(p, "d").unwrap();
        bump(&r, "update_pe_description");
        let wf = r
            .add_workflow(NewWorkflow {
                user_id: u,
                name: "wf".into(),
                description: String::new(),
                code: String::new(),
                pe_ids: vec![p],
            })
            .unwrap();
        bump(&r, "add_workflow");
        r.update_workflow_description(wf, "d").unwrap();
        bump(&r, "update_workflow_description");
        let ex = r.add_execution(wf, u, "simple", "1").unwrap();
        bump(&r, "add_execution");
        r.finish_execution(ex, "out", ExecutionStatus::Completed).unwrap();
        bump_by(&r, "finish_execution", 2);
        r.remove_workflow(wf).unwrap();
        bump(&r, "remove_workflow");
        r.remove_pe(p).unwrap();
        bump(&r, "remove_pe");
        r.remove_all().unwrap();
        bump(&r, "remove_all");
    }

    #[test]
    fn workflow_fk_integrity() {
        let (r, u) = with_user();
        let p1 = r.add_pe(pe(u, "A")).unwrap();
        let p2 = r.add_pe(pe(u, "B")).unwrap();
        // Insertion-side FK: unknown PE id rejected.
        let bad = NewWorkflow {
            user_id: u,
            name: "wf".into(),
            description: String::new(),
            code: String::new(),
            pe_ids: vec![p1, 999],
        };
        assert!(matches!(
            r.add_workflow(bad).unwrap_err(),
            RegistryError::MissingReference { .. }
        ));
        let wf = r
            .add_workflow(NewWorkflow {
                user_id: u,
                name: "wf".into(),
                description: String::new(),
                code: String::new(),
                pe_ids: vec![p1, p2],
            })
            .unwrap();
        // Deletion-side FK: PE referenced by workflow cannot be removed.
        assert!(matches!(
            r.remove_pe(p1).unwrap_err(),
            RegistryError::ForeignKey { .. }
        ));
        // Remove the workflow first, then the PE.
        r.remove_workflow(wf).unwrap();
        r.remove_pe(p1).unwrap();
    }

    #[test]
    fn pes_by_workflow_in_order() {
        let (r, u) = with_user();
        let p1 = r.add_pe(pe(u, "First")).unwrap();
        let p2 = r.add_pe(pe(u, "Second")).unwrap();
        let wf = r
            .add_workflow(NewWorkflow {
                user_id: u,
                name: "wf".into(),
                description: String::new(),
                code: String::new(),
                pe_ids: vec![p2, p1],
            })
            .unwrap();
        let pes = r.pes_by_workflow(wf).unwrap();
        assert_eq!(pes.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(), vec!["Second", "First"]);
    }

    #[test]
    fn literal_search_matches_names_and_descriptions() {
        let (r, u) = with_user();
        r.add_pe(NewPe {
            description: "counts words in text".into(),
            ..pe(u, "WordCounter")
        })
        .unwrap();
        r.add_pe(pe(u, "IsPrime")).unwrap();
        r.add_workflow(NewWorkflow {
            user_id: u,
            name: "words_wf".into(),
            description: "workflow about words".into(),
            code: String::new(),
            pe_ids: vec![],
        })
        .unwrap();

        // Fig. 7: search 'words' over both kinds.
        let (pes, wfs) = r.literal_search(SearchTarget::Both, "words");
        assert_eq!(pes.len(), 1);
        assert_eq!(wfs.len(), 1);
        // Case-insensitive name match.
        let (pes, wfs) = r.literal_search(SearchTarget::Pe, "isprime");
        assert_eq!(pes.len(), 1);
        assert!(wfs.is_empty());
        // Workflow-only target.
        let (pes, wfs) = r.literal_search(SearchTarget::Workflow, "words");
        assert!(pes.is_empty());
        assert_eq!(wfs.len(), 1);
        // No match.
        let (pes, wfs) = r.literal_search(SearchTarget::Both, "zzz");
        assert!(pes.is_empty() && wfs.is_empty());
    }

    #[test]
    fn literal_search_top_is_the_prefix_of_the_full_search() {
        let (r, u) = with_user();
        for i in 0..7 {
            r.add_pe(pe(u, &format!("Counter{i}"))).unwrap();
            r.add_workflow(NewWorkflow {
                user_id: u,
                name: format!("counter_wf{i}"),
                description: String::new(),
                code: String::new(),
                pe_ids: vec![],
            })
            .unwrap();
        }
        r.add_pe(pe(u, "IsPrime")).unwrap();
        let ids = |(pes, wfs): (Vec<PeRow>, Vec<WorkflowRow>)| -> (Vec<u64>, Vec<u64>) {
            (
                pes.iter().map(|p| p.id).collect(),
                wfs.iter().map(|w| w.id).collect(),
            )
        };
        for (term, matching_pes) in [("counter", 7), ("", 8), ("e", 8), ("isprime", 1)] {
            let (all_pes, all_wfs) = r.literal_search(SearchTarget::Both, term);
            let (all_pe_ids, all_wf_ids) = ids((all_pes.clone(), all_wfs.clone()));
            assert_eq!(all_pe_ids.len(), matching_pes, "{term:?}");
            for limit in [0, 1, 3, 7, 100] {
                let (pes, wfs) = r.literal_search_top(SearchTarget::Both, term, limit);
                let pes: Vec<PeRow> = pes.iter().map(|p| PeRow::clone(p)).collect();
                let wfs: Vec<WorkflowRow> = wfs.iter().map(|w| WorkflowRow::clone(w)).collect();
                let (pe_ids, wf_ids) = ids((pes.clone(), wfs.clone()));
                let (np, nw) = (limit.min(all_pes.len()), limit.min(all_wfs.len()));
                assert_eq!(pe_ids, all_pe_ids[..np], "{term:?} {limit}");
                assert_eq!(wf_ids, all_wf_ids[..nw], "{term:?} {limit}");
                // The shared rows are the rows the full search copies.
                assert_eq!(pes, all_pes[..np], "{term:?} {limit}");
                assert_eq!(wfs, all_wfs[..nw], "{term:?} {limit}");
            }
        }
    }

    #[test]
    fn executions_and_responses() {
        let (r, u) = with_user();
        let p = r.add_pe(pe(u, "A")).unwrap();
        let wf = r
            .add_workflow(NewWorkflow {
                user_id: u,
                name: "wf".into(),
                description: String::new(),
                code: String::new(),
                pe_ids: vec![p],
            })
            .unwrap();
        let ex = r.add_execution(wf, u, "multi", "10").unwrap();
        assert_eq!(r.executions_for(wf)[0].status, ExecutionStatus::Running);
        assert!(r.responses_for(ex).is_empty());
        let resp = r.finish_execution(ex, "line1\nline2", ExecutionStatus::Completed).unwrap();
        let exs = r.executions_for(wf);
        assert_eq!(exs.len(), 1);
        assert_eq!(exs[0].status, ExecutionStatus::Completed);
        let resps = r.responses_for(ex);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].id, resp);
        assert_eq!(resps[0].status, ExecutionStatus::Completed);
        // FK checks: a rejected finish writes neither record.
        let before = r.snapshot();
        assert!(r.add_execution(999, u, "simple", "1").is_err());
        assert!(r.finish_execution(999, "x", ExecutionStatus::Failed).is_err());
        assert_eq!(r.snapshot(), before);
    }

    #[test]
    fn history_of_interleaved_runs_survives_replay_and_snapshot() {
        let dir = tmp_dir("history");
        let r = Registry::open(&dir, PersistOptions::default()).unwrap();
        let u = r.register_user("rosa", "pw").unwrap();
        let p = r.add_pe(pe(u, "A")).unwrap();
        let wf = r
            .add_workflow(NewWorkflow {
                user_id: u,
                name: "wf".into(),
                description: String::new(),
                code: String::new(),
                pe_ids: vec![p],
            })
            .unwrap();
        // Two runs overlap; the second finishes first, so the responses
        // land in the opposite order to their executions.
        let first = r.add_execution(wf, u, "simple", "1").unwrap();
        let second = r.add_execution(wf, u, "dynamic", "2").unwrap();
        r.finish_execution(second, "two\nmore", ExecutionStatus::Completed).unwrap();
        r.finish_execution(first, "one", ExecutionStatus::Failed).unwrap();
        let history = |r: &Registry| -> Vec<(u64, ExecutionStatus, Option<String>)> {
            r.execution_history(wf)
                .into_iter()
                .map(|(e, preview)| (e.id, e.status, preview))
                .collect()
        };
        let expected = vec![
            (first, ExecutionStatus::Failed, Some("one".to_string())),
            (second, ExecutionStatus::Completed, Some("two".to_string())),
        ];
        assert_eq!(history(&r), expected);
        assert!(r.finish_execution(second + 100, "", ExecutionStatus::Failed).is_err());
        drop(r);

        let replayed = Registry::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(history(&replayed), expected, "after WAL replay");
        replayed.compact().unwrap().expect("persistent registry compacts");
        drop(replayed);

        let restored = Registry::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(history(&restored), expected, "after a snapshot");
        // A run recorded after the snapshot goes on from the restored ids.
        let third = restored.add_execution(wf, u, "multi", "3").unwrap();
        assert!(third > second);
        restored.finish_execution(third, "three", ExecutionStatus::Completed).unwrap();
        assert_eq!(history(&restored).last().unwrap().2.as_deref(), Some("three"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A registry with a row of every kind, two of them updated.
    fn with_every_row_kind() -> (Registry, Vec<u64>) {
        let (r, u) = with_user();
        let a = r.add_pe(pe(u, "A")).unwrap();
        let b = r.add_pe(pe(u, "Quote\"B\\")).unwrap();
        let wf = r
            .add_workflow(NewWorkflow {
                user_id: u,
                name: "wf".into(),
                description: "über".into(),
                code: "line\nbreak".into(),
                pe_ids: vec![b, a],
            })
            .unwrap();
        let ex = r.add_execution(wf, u, "simple", "5").unwrap();
        r.finish_execution(ex, "out\n", ExecutionStatus::Completed).unwrap();
        let running = r.add_execution(wf, u, "multi", "[1]").unwrap();
        r.update_pe_description(a, "changed").unwrap();
        (r, vec![a, b, wf, ex, running])
    }

    #[test]
    fn the_cut_serialises_to_the_bytes_of_the_snapshot() {
        let (r, _) = with_every_row_kind();
        let view = r.read().view();
        assert_eq!(
            serde_json::to_vec(&view).unwrap(),
            serde_json::to_vec(&r.snapshot()).unwrap()
        );
        assert_eq!(
            serde_json::to_vec(&Registry::new().read().view()).unwrap(),
            serde_json::to_vec(&RegistrySnapshot::default()).unwrap()
        );
    }

    #[test]
    fn a_cut_shares_rows_and_a_later_update_copies_only_its_own() {
        let (r, ids) = with_every_row_kind();
        let (a, running) = (ids[0], ids[4]);
        let cut = r.read().view();
        let shared = |cut: &SnapshotView, r: &Registry| {
            let inner = r.read();
            let pes: Vec<bool> = cut
                .pes
                .iter()
                .zip(inner.pes.values())
                .map(|(c, l)| Arc::ptr_eq(c, l))
                .collect();
            let executions: Vec<bool> = cut
                .executions
                .iter()
                .zip(&inner.executions)
                .map(|(c, l)| Arc::ptr_eq(c, l))
                .collect();
            let rest = cut.workflows.iter().zip(inner.workflows.values()).all(|(c, l)| Arc::ptr_eq(c, l))
                && cut.responses.iter().zip(&inner.responses).all(|(c, l)| Arc::ptr_eq(c, l));
            (pes, executions, rest)
        };
        assert_eq!(shared(&cut, &r), (vec![true, true], vec![true, true], true));

        r.update_pe_description(a, "after the cut").unwrap();
        r.finish_execution(running, "late", ExecutionStatus::Failed).unwrap();
        assert_eq!(
            shared(&cut, &r),
            (vec![false, true], vec![true, false], true),
            "only the updated PE and the finished execution were copied"
        );
        assert_eq!(cut.pes[0].description, "changed", "the cut keeps what it saw");
        assert_eq!(cut.executions[1].status, ExecutionStatus::Running);
        assert_eq!(r.get_pe(a).unwrap().description, "after the cut");
    }

    #[test]
    fn remove_all_clears_registry_but_keeps_users() {
        let (r, u) = with_user();
        r.add_pe(pe(u, "A")).unwrap();
        r.add_pe(pe(u, "B")).unwrap();
        r.remove_all().unwrap();
        assert_eq!(r.counts(), (0, 0));
        assert_eq!(r.read().users.len(), 1);
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let dir = tmp_dir("roundtrip");
        let r = Registry::open(&dir, PersistOptions::default()).unwrap();
        let u = r.register_user("rosa", "pw").unwrap();
        let p = r.add_pe(pe(u, "A")).unwrap();
        let wf = r
            .add_workflow(NewWorkflow {
                user_id: u,
                name: "wf".into(),
                description: "d".into(),
                code: "c".into(),
                pe_ids: vec![p],
            })
            .unwrap();
        let ex = r.add_execution(wf, u, "simple", "5").unwrap();
        r.finish_execution(ex, "out", ExecutionStatus::Completed).unwrap();

        r.compact().unwrap();
        drop(r);
        let r2 = Registry::open(&dir, PersistOptions::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(r2.persist_stats().unwrap().recovered_records, 0, "all from the snapshot");
        assert_eq!(r2.counts(), (1, 1));
        assert_eq!(r2.get_pe(p).unwrap().name, "A");
        assert_eq!(r2.get_workflow(wf).unwrap().code, "c");
        assert_eq!(r2.get_pe_by_name("a").unwrap().id, p, "indexes rebuilt after load");
        assert_eq!(r2.login("rosa", "pw").unwrap(), u);
        // Ids continue from where they left off.
        let next = r2.add_pe(pe(u, "B")).unwrap();
        assert!(next > ex);
    }

    #[test]
    fn durable_registry_survives_reopen() {
        let dir = tmp_dir("durable");
        let wf;
        let u;
        {
            let r = Registry::open(&dir, PersistOptions::default()).unwrap();
            u = r.register_user("rosa", "pw").unwrap();
            let p = r.add_pe(pe(u, "A")).unwrap();
            wf = r
                .add_workflow(NewWorkflow {
                    user_id: u,
                    name: "wf".into(),
                    description: "d".into(),
                    code: "c".into(),
                    pe_ids: vec![p],
                })
                .unwrap();
            let stats = r.persist_stats().unwrap();
            assert_eq!(stats.wal_appends, 3);
            assert_eq!(stats.wal_records, 3);
            assert_eq!(stats.compactions, 0);
        }
        // Reopen: snapshot absent, everything comes back via WAL replay.
        let r2 = Registry::open(&dir, PersistOptions::default()).unwrap();
        let stats = r2.persist_stats().unwrap();
        assert_eq!(stats.recovered_records, 3);
        assert_eq!(r2.login("rosa", "pw").unwrap(), u);
        assert_eq!(r2.get_workflow_by_name("WF").unwrap().id, wf, "indexes warm after recovery");
        // Mutations keep appending to the recovered WAL.
        r2.add_pe(pe(u, "B")).unwrap();
        drop(r2);
        let r3 = Registry::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r3.persist_stats().unwrap().recovered_records, 4);
        assert_eq!(r3.counts(), (2, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compaction_truncates_wal_and_survives_reopen() {
        let dir = tmp_dir("autocompact");
        {
            let r = Registry::open(
                &dir,
                PersistOptions {
                    snapshot_every: 4,
                    ..PersistOptions::default()
                },
            )
            .unwrap();
            let u = r.register_user("rosa", "pw").unwrap();
            for i in 0..7 {
                r.add_pe(pe(u, &format!("P{i}"))).unwrap();
            }
            let stats = r.persist_stats().unwrap();
            assert_eq!(stats.compactions, 2, "8 records / snapshot_every=4");
            assert_eq!(stats.wal_records, 0, "WAL truncated at the threshold");
            assert_eq!(stats.wal_appends, 8, "appends keep counting across compactions");
        }
        let r2 = Registry::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r2.counts().0, 7);
        assert_eq!(
            r2.persist_stats().unwrap().recovered_records,
            0,
            "everything came from the snapshot"
        );
        assert_eq!(r2.login("rosa", "pw").unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explicit_compact_reports_stats() {
        let dir = tmp_dir("compact");
        let r = Registry::open(&dir, PersistOptions::default()).unwrap();
        assert!(Registry::new().compact().unwrap().is_none(), "in-memory: no-op");
        let u = r.register_user("rosa", "pw").unwrap();
        r.add_pe(pe(u, "A")).unwrap();
        let stats = r.compact().unwrap().expect("persistent registry compacts");
        assert_eq!(stats.wal_records, 2);
        assert!(stats.snapshot_bytes > 0);
        assert_eq!(r.persist_stats().unwrap().wal_records, 0);
        // Compacting an empty WAL is a harmless no-op snapshot rewrite.
        let again = r.compact().unwrap().unwrap();
        assert_eq!(again.wal_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let dir = tmp_dir("torn-tail");
        {
            let r = Registry::open(&dir, PersistOptions::default()).unwrap();
            let u = r.register_user("rosa", "pw").unwrap();
            r.add_pe(pe(u, "A")).unwrap();
            r.add_pe(pe(u, "B")).unwrap();
        }
        // Tear the last frame: cut 3 bytes off the WAL.
        let wal_path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let r2 = Registry::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r2.persist_stats().unwrap().recovered_records, 2);
        assert_eq!(r2.counts().0, 1, "torn add_pe(B) was never acknowledged-durable");
        assert!(r2.get_pe_by_name("a").is_ok());
        assert!(r2.get_pe_by_name("b").is_err());
        // The torn tail was truncated in place: a further reopen is clean.
        let r3 = Registry::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r3.persist_stats().unwrap().recovered_records, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftover_tmp_snapshot_is_discarded_on_open() {
        let dir = tmp_dir("tmp-left");
        {
            let r = Registry::open(&dir, PersistOptions::default()).unwrap();
            r.register_user("rosa", "pw").unwrap();
        }
        // Simulate a compaction that died before the rename.
        std::fs::write(dir.join("snapshot.json.tmp"), "garbage{{{").unwrap();
        let r2 = Registry::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r2.read().users.len(), 1);
        assert!(!dir.join("snapshot.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn unit(user: u64, wf_name: &str, pe_names: &[&str]) -> RegistrationUnit {
        RegistrationUnit {
            pes: pe_names.iter().map(|n| pe(user, n)).collect(),
            workflow: Some(NewWorkflow {
                user_id: user,
                name: wf_name.into(),
                description: format!("{wf_name} description"),
                code: String::new(),
                pe_ids: vec![],
            }),
        }
    }

    #[test]
    fn add_units_commits_pes_and_workflows() {
        let (r, u) = with_user();
        let outcomes = r
            .add_units(vec![
                unit(u, "wf1", &["A", "B"]),
                RegistrationUnit {
                    pes: vec![pe(u, "Solo")],
                    workflow: None,
                },
            ])
            .unwrap()
            .outcomes;
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].error.is_none());
        assert_eq!(outcomes[0].pes.len(), 2);
        assert!(outcomes[0].pes.iter().all(|p| p.created));
        let (wf_name, wf_id) = outcomes[0].workflow.clone().unwrap();
        assert_eq!(wf_name, "wf1");
        // The workflow references the unit's members in order.
        let wf = r.get_workflow(wf_id).unwrap();
        assert_eq!(
            wf.pe_ids,
            outcomes[0].pes.iter().map(|p| p.id).collect::<Vec<_>>()
        );
        assert!(outcomes[1].workflow.is_none());
        assert_eq!(r.counts(), (3, 1));
        // Ids and seq advance by one per created row.
        assert_eq!(r.snapshot().seq, 1 + 4, "user + 3 PEs + 1 workflow");
    }

    #[test]
    fn add_units_reuses_duplicate_pe_ids() {
        let (r, u) = with_user();
        let a = r.add_pe(pe(u, "A")).unwrap();
        let outcomes = r
            .add_units(vec![unit(u, "wf1", &["A", "B"]), unit(u, "wf2", &["B", "C"])])
            .unwrap()
            .outcomes;
        assert!(outcomes.iter().all(|o| o.error.is_none()));
        // "A" reused the committed id; the second unit's "B" reused the
        // first unit's pending "B".
        assert_eq!(outcomes[0].pes[0], PeOutcome { name: "A".into(), id: a, created: false });
        assert!(outcomes[0].pes[1].created);
        let b = outcomes[0].pes[1].id;
        assert_eq!(outcomes[1].pes[0], PeOutcome { name: "B".into(), id: b, created: false });
        assert!(outcomes[1].pes[1].created);
        assert_eq!(r.counts(), (3, 2), "A, B, C — no duplicate rows");
    }

    #[test]
    fn duplicate_reuse_resolves_to_the_submitting_users_pe() {
        // Regression: the duplicate was detected per user but resolved to
        // the first id under the name across all users, so bob's workflow
        // linked to alice's PE.
        let r = Registry::new();
        let alice = r.register_user("alice", "pw").unwrap();
        let bob = r.register_user("bob", "pw").unwrap();
        let hers = r.add_pe(pe(alice, "IsPrime")).unwrap();
        let his = r.add_pe(pe(bob, "isprime")).unwrap();
        assert_ne!(hers, his);
        assert_eq!(r.get_pe_by_name_for_user(alice, "ISPRIME").unwrap().id, hers);
        assert_eq!(r.get_pe_by_name_for_user(bob, "IsPrime").unwrap().id, his);
        assert!(r.get_pe_by_name_for_user(bob, "Nope").is_err());

        // Committed rows: bob re-registers inside a workflow unit.
        let out = r.add_units(vec![unit(bob, "bob_wf", &["IsPrime", "Fresh"])]).unwrap().outcomes;
        assert_eq!(
            out[0].pes[0],
            PeOutcome { name: "IsPrime".into(), id: his, created: false }
        );
        let wf = r.get_workflow(out[0].workflow.clone().unwrap().1).unwrap();
        assert_eq!(wf.pe_ids[0], his, "bob's workflow links to bob's PE");
        assert!(r.pes_by_workflow(wf.id).unwrap().iter().all(|p| p.user_id == bob));

        // Staged rows: both users stage the same name in one frame, then
        // each reuses their own.
        let out = r
            .add_units(vec![
                unit(alice, "a1", &["Shared"]),
                unit(bob, "b1", &["Shared"]),
                unit(bob, "b2", &["shared"]),
                unit(alice, "a2", &["SHARED"]),
            ])
            .unwrap()
            .outcomes;
        assert!(out.iter().all(|o| o.error.is_none()));
        assert!(out[0].pes[0].created && out[1].pes[0].created);
        assert_eq!(out[2].pes[0].id, out[1].pes[0].id, "bob reuses bob's");
        assert_eq!(out[3].pes[0].id, out[0].pes[0].id, "alice reuses alice's");
        assert!(!out[2].pes[0].created && !out[3].pes[0].created);
    }

    #[test]
    fn add_units_partial_failure_keeps_the_rest() {
        let (r, u) = with_user();
        r.add_workflow(NewWorkflow {
            user_id: u,
            name: "taken".into(),
            description: String::new(),
            code: String::new(),
            pe_ids: vec![],
        })
        .unwrap();
        let outcomes = r
            .add_units(vec![
                unit(u, "ok1", &["A"]),
                unit(u, "taken", &["B"]), // workflow dup: unit fails…
                RegistrationUnit {
                    pes: vec![pe(999, "Ghost")], // unknown user: PE fails
                    workflow: None,
                },
                unit(u, "ok2", &["C"]),
            ])
            .unwrap()
            .outcomes;
        assert!(outcomes[0].error.is_none());
        assert!(matches!(
            outcomes[1].error,
            Some(RegistryError::DuplicateName { table: "Workflow", .. })
        ));
        // …but its member PEs stay committed.
        assert_eq!(outcomes[1].pes.len(), 1);
        assert!(r.get_pe_by_name("B").is_ok());
        assert!(matches!(
            outcomes[2].error,
            Some(RegistryError::MissingReference { .. })
        ));
        assert!(outcomes[2].pes.is_empty());
        assert!(outcomes[3].error.is_none(), "later units commit normally");
        assert_eq!(r.counts(), (3, 3), "A, B, C + taken, ok1, ok2");
    }

    #[test]
    fn add_units_groups_wal_records_into_one_fsync() {
        let dir = tmp_dir("units-group");
        let r = Registry::open(
            &dir,
            PersistOptions {
                snapshot_every: 0,
                sync: SyncPolicy::EveryAppend,
            },
        )
        .unwrap();
        let u = r.register_user("rosa", "pw").unwrap();
        let before = r.persist_stats().unwrap();
        r.add_units(vec![unit(u, "wf1", &["A", "B", "C"])]).unwrap();
        let after = r.persist_stats().unwrap();
        assert_eq!(after.wal_appends - before.wal_appends, 4, "3 PEs + 1 workflow");
        assert_eq!(after.fsyncs - before.fsyncs, 1, "one fsync for the whole batch");
        drop(r);
        // The batch survives reopen through the group-commit frame.
        let r2 = Registry::open(&dir, PersistOptions::default()).unwrap();
        assert_eq!(r2.counts(), (3, 1));
        assert_eq!(r2.get_workflow_by_name("wf1").unwrap().pe_ids.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn add_units_matches_sequential_registration_state() {
        // Chunking does not matter: one frame of all units == every row
        // committed as a frame of its own, bit-identical at the snapshot
        // level.
        let seq_reg = Registry::new();
        let u1 = seq_reg.register_user("rosa", "pw").unwrap();
        let batch_reg = Registry::new();
        let u2 = batch_reg.register_user("rosa", "pw").unwrap();
        assert_eq!(u1, u2);

        let items = vec![unit(u1, "wf1", &["A", "B"]), unit(u1, "wf2", &["B", "C"])];
        // Row by row: each unit through the single-row entry points.
        for it in &items {
            let mut ids = Vec::new();
            for p in &it.pes {
                match seq_reg.add_pe(p.clone()) {
                    Ok(id) => ids.push(id),
                    Err(RegistryError::DuplicateName { .. }) => ids.push(
                        seq_reg
                            .get_pe_by_name_for_user(p.user_id, &p.name)
                            .unwrap()
                            .id,
                    ),
                    Err(e) => panic!("{e}"),
                }
            }
            let wf = it.workflow.clone().unwrap();
            seq_reg
                .add_workflow(NewWorkflow {
                    pe_ids: ids,
                    ..wf
                })
                .unwrap();
        }
        let outcomes = batch_reg.add_units(items).unwrap().outcomes;
        assert!(outcomes.iter().all(|o| o.error.is_none()));
        assert_eq!(batch_reg.snapshot(), seq_reg.snapshot());
        assert_eq!(
            batch_reg.debug_name_indexes(),
            seq_reg.debug_name_indexes()
        );
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let (r, u) = with_user();
        let r = std::sync::Arc::new(r);
        std::thread::scope(|s| {
            for t in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        r.add_pe(NewPe {
                            user_id: u,
                            name: format!("PE_{t}_{i}"),
                            description: String::new(),
                            code: String::new(),
                            description_embedding: String::new(),
                            spt_embedding: String::new(),
                        })
                        .unwrap();
                        let _ = r.literal_search(SearchTarget::Both, "PE_");
                    }
                });
            }
        });
        assert_eq!(r.counts().0, 200);
    }
}
