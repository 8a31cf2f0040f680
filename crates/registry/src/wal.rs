//! The registry write-ahead log.
//!
//! An append-only file of typed mutation records. Every registry write
//! appends its record here **before** the in-memory mutation is applied,
//! so an acknowledged mutation is always recoverable after a crash.
//!
//! # On-disk format
//!
//! Each record is one frame:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE over payload] [payload: `len` bytes of JSON]
//! ```
//!
//! The payload is the serde-JSON encoding of a [`WalRecord`] (a JSON
//! object) or, for a group-commit frame, of a `Vec<WalRecord>` (a JSON
//! array) — the two are distinguished by the payload's first byte, so the
//! formats coexist in one log. Frames are written with a single
//! `write_all`, so on most filesystems a crash leaves at worst one torn
//! frame at the tail.
//!
//! # Group commit
//!
//! [`Wal::append_batch`] packs N records into **one** frame: one
//! `write_all`, one fsync under [`SyncPolicy::EveryAppend`]. Because the
//! CRC covers the whole payload, the frame is the atomicity unit — a
//! batch replays all-or-nothing under the torn-tail rule below.
//!
//! # Torn-tail contract
//!
//! [`replay`] scans frames from the start and stops at the first
//! incomplete header, over-long length, checksum mismatch, or undecodable
//! payload. Everything before that point is returned; everything from it
//! on is reported as a torn tail (`Replay::valid_bytes` marks the cut).
//! The caller truncates the file there and continues — a crash mid-append
//! therefore loses only the unacknowledged record being written, never a
//! previously acknowledged one.
//!
//! # Self-healing tail
//!
//! A *failed* append (ENOSPC mid-frame, a short write, a failed fsync)
//! can leave torn bytes after the last acknowledged frame while the
//! process keeps running. Before the fix in this module, a later
//! successful append would land **after** those torn bytes and the
//! torn-tail rule above would discard it (and everything after it) at
//! replay — a single transient IO error permanently poisoned the log.
//! [`Wal::append`]/[`Wal::append_batch`] now roll the tail back on any
//! failure: seek to the last acknowledged frame boundary and truncate
//! the file there, so a retry appends onto a clean tail. If even the
//! rollback fails the log marks itself unhealthy and refuses appends
//! until [`Wal::heal`] succeeds.
//!
//! # Fault injection
//!
//! Every IO site here consults an optional [`crate::iofault::IoFaultHook`]
//! immediately before the real syscall (see [`Wal::set_fault_hook`] and
//! [`write_atomic_hooked`]), which is how the storage chaos suite drives
//! deterministic ENOSPC/short-write/fsync failures through the exact
//! production code paths.

use crate::iofault::{FaultHook, Induced, IoSite};
use crate::rows::{ExecutionRow, ExecutionStatus, PeRow, ResponseRow, UserRow, WorkflowRow};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one record's payload (a defence against interpreting a
/// corrupt length prefix as a multi-gigabyte allocation). CLOB columns are
/// unbounded in the schema, but a single mutation beyond this is a bug.
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// One typed registry mutation. Records carry the *resulting* rows
/// (ids already assigned), so replay is a pure, validation-free apply —
/// the write path validated before appending.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalOp {
    AddUser(UserRow),
    AddPe(PeRow),
    UpdatePeDescription {
        id: u64,
        description: String,
    },
    RemovePe {
        id: u64,
    },
    AddWorkflow(WorkflowRow),
    UpdateWorkflowDescription {
        id: u64,
        description: String,
    },
    RemoveWorkflow {
        id: u64,
    },
    /// `remove_All` (Table I): clears PEs and workflows.
    RemoveAll,
    AddExecution(ExecutionRow),
    SetExecutionStatus {
        id: u64,
        status: ExecutionStatus,
    },
    AddResponse(ResponseRow),
}

/// One WAL entry: the registry's mutation sequence number plus the op.
/// `seq` is strictly increasing across the log (every mutation advances
/// it), which makes it the recovery ordering cursor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    pub seq: u64,
    pub op: WalOp,
}

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Leave flushing to the OS page cache: fastest, survives process
    /// crashes but not power loss.
    #[default]
    OsBuffered,
    /// `fsync` after every append: survives power loss at the cost of one
    /// disk round-trip per mutation.
    EveryAppend,
}

/// Outcome of replaying a WAL file.
#[derive(Debug, Default)]
pub struct Replay {
    /// Records decoded, in log order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last intact frame.
    pub valid_bytes: u64,
    /// True when bytes after `valid_bytes` had to be discarded (torn or
    /// corrupt tail).
    pub torn: bool,
}

// ---- CRC-32 (IEEE), slicing-by-8, no external dependency ----------------

/// `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold into the register with eight
/// independent lookups instead of eight dependent ones.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb88320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3) of `bytes`, eight bytes a step (slicing-by-8),
/// the tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---- atomic file replacement --------------------------------------------

/// Sibling `<name>.tmp` path used for atomic replacement.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Crash-safe file replacement: write `bytes` to `<path>.tmp`, fsync it,
/// rename over `path`, then fsync the parent directory so the rename
/// itself is durable. A crash at any point leaves either the old intact
/// file or the new intact file — never a torn one.
///
/// An optional fault hook is consulted at each of the three IO sites
/// (`SnapshotWrite`, `SnapshotFsync`, `SnapshotRename`). On an injected
/// failure the tmp file is removed (or left torn for a short write — the
/// next open discards leftover tmps either way) and the target file is
/// untouched.
pub fn write_atomic_hooked(
    path: &Path,
    bytes: &[u8],
    fault: Option<&FaultHook>,
) -> std::io::Result<()> {
    let induce = |site: IoSite, len: usize| fault.and_then(|h| h.induce(site, len));
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        match induce(IoSite::SnapshotWrite, bytes.len()) {
            None => f.write_all(bytes)?,
            Some(Induced::Short { written, error }) => {
                // The torn prefix really lands in the tmp file.
                let _ = f.write_all(&bytes[..written.min(bytes.len())]);
                return Err(error);
            }
            Some(Induced::Error(e)) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        }
        match induce(IoSite::SnapshotFsync, 0) {
            None => f.sync_all()?,
            Some(i) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(i.into_error());
            }
        }
    }
    match induce(IoSite::SnapshotRename, 0) {
        None => std::fs::rename(&tmp, path)?,
        Some(i) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(i.into_error());
        }
    }
    sync_parent(path);
    Ok(())
}

/// fsync the directory holding `path`, so a rename or create in it is
/// durable. Best-effort: not every platform/filesystem supports opening a
/// directory for sync.
pub(crate) fn sync_parent(path: &Path) {
    if let Some(d) = path.parent().and_then(|p| File::open(p).ok()) {
        let _ = d.sync_all();
    }
}

// ---- the log -------------------------------------------------------------

/// An open write-ahead log, positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    sync: SyncPolicy,
    /// Records currently in the file (replayed count + appends since).
    records: u64,
    /// Bytes currently in the file.
    bytes: u64,
    /// Optional fault hook consulted before every IO (test/chaos only).
    fault: Option<FaultHook>,
    /// Set when a failed append could not roll the tail back; appends
    /// refuse until [`Wal::heal`] succeeds.
    poisoned: bool,
}

impl Wal {
    /// Open (creating if absent) for appending, with `records`/`bytes`
    /// primed from a prior [`replay`] of the same file.
    pub fn open(
        path: &Path,
        sync: SyncPolicy,
        records: u64,
        bytes: u64,
    ) -> std::io::Result<Wal> {
        // The log is the durable state: never truncate on open.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        file.seek(SeekFrom::Start(bytes))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            sync,
            records,
            bytes,
            fault: None,
            poisoned: false,
        })
    }

    /// Install a fault hook, consulted before every append/fsync/truncate.
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault = Some(hook);
    }

    fn induce(&self, site: IoSite, len: usize) -> Option<Induced> {
        self.fault.as_ref().and_then(|h| h.induce(site, len))
    }

    /// Encode one frame: `[len][crc][payload]`.
    fn frame(payload: &[u8]) -> Vec<u8> {
        debug_assert!(payload.len() as u64 <= MAX_RECORD_BYTES as u64);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// Write one frame at the tail, rolling the tail back to the last
    /// acknowledged boundary on any failure (the self-healing tail — see
    /// the module doc). Counters advance only on full success.
    fn append_frame(&mut self, frame: &[u8], recs: u64, site: IoSite) -> std::io::Result<(u64, bool)> {
        self.heal()?;
        let written = match self.induce(site, frame.len()) {
            None => self.file.write_all(frame),
            Some(Induced::Short { written, error }) => {
                // The torn prefix really lands on disk, exactly like a
                // device error mid-write.
                let _ = self.file.write_all(&frame[..written.min(frame.len())]);
                Err(error)
            }
            Some(Induced::Error(e)) => Err(e),
        };
        if let Err(e) = written {
            self.rewind_tail();
            return Err(e);
        }
        let synced = matches!(self.sync, SyncPolicy::EveryAppend);
        if synced {
            let sync = match self.induce(IoSite::WalFsync, 0) {
                None => self.file.sync_data(),
                Some(i) => Err(i.into_error()),
            };
            if let Err(e) = sync {
                // The frame reached the page cache but durability is
                // unknown; discard it so an unacknowledged record can
                // never replay.
                self.rewind_tail();
                return Err(e);
            }
        }
        self.records += recs;
        self.bytes += frame.len() as u64;
        Ok((frame.len() as u64, synced))
    }

    /// Roll the file back to the last acknowledged frame boundary. On
    /// failure the log is poisoned until [`Wal::heal`] succeeds.
    fn rewind_tail(&mut self) {
        let ok = self.file.set_len(self.bytes).is_ok()
            && self.file.seek(SeekFrom::Start(self.bytes)).is_ok();
        self.poisoned = !ok;
    }

    /// Retry the tail rollback of a poisoned log; a no-op when healthy.
    pub fn heal(&mut self) -> std::io::Result<()> {
        if !self.poisoned {
            return Ok(());
        }
        self.file.set_len(self.bytes)?;
        self.file.seek(SeekFrom::Start(self.bytes))?;
        self.poisoned = false;
        Ok(())
    }

    /// False while a failed rollback keeps the log refusing appends.
    pub fn healthy(&self) -> bool {
        !self.poisoned
    }

    /// Append one record. Returns `(frame bytes written, fsynced)`. The
    /// record is durable (per the sync policy) when this returns; on
    /// error the file tail is rolled back to the last acknowledged frame.
    pub fn append(&mut self, rec: &WalRecord) -> std::io::Result<(u64, bool)> {
        let payload = serde_json::to_vec(rec)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let frame = Self::frame(&payload);
        self.append_frame(&frame, 1, IoSite::WalAppend)
    }

    /// Group-commit: append `recs` as **one** multi-op frame — a single
    /// `write_all` and (under [`SyncPolicy::EveryAppend`]) a single
    /// fsync, regardless of batch size. Returns `(frame bytes written,
    /// fsynced)`. The payload is a JSON array, which [`replay`] decodes
    /// back into the individual records; the CRC makes the whole batch
    /// atomic (all-or-nothing on a torn tail). Appending an empty batch
    /// is a no-op.
    pub fn append_batch(&mut self, recs: &[WalRecord]) -> std::io::Result<(u64, bool)> {
        if recs.is_empty() {
            return Ok((0, false));
        }
        let payload = serde_json::to_vec(recs)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let frame = Self::frame(&payload);
        self.append_frame(&frame, recs.len() as u64, IoSite::WalBatchAppend)
    }

    /// Records currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes currently in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Seal the log: rename it to `sealed`, start a fresh empty file at
    /// the log's path, and fsync the directory, so every append after this
    /// lands in the new file and the sealed one never changes again. A
    /// compaction seals under the registry write lock and deletes the
    /// sealed log once a snapshot that covers it is durable. On error the
    /// log stays open at its own path: a fresh file that cannot be created
    /// renames the log back.
    pub fn seal(&mut self, sealed: &Path) -> std::io::Result<()> {
        if let Some(i) = self.induce(IoSite::WalTruncate, 0) {
            return Err(i.into_error());
        }
        self.heal()?;
        std::fs::rename(&self.path, sealed)?;
        let fresh = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&self.path);
        let file = match fresh {
            Ok(f) => f,
            Err(e) => {
                let _ = std::fs::rename(sealed, &self.path);
                return Err(e);
            }
        };
        sync_parent(&self.path);
        self.file = file;
        self.records = 0;
        self.bytes = 0;
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Replay a WAL file, tolerating a torn tail (see the module doc). A
/// missing file replays as empty. The file itself is not modified; the
/// caller decides whether to truncate at `valid_bytes`.
pub fn replay(path: &Path) -> std::io::Result<Replay> {
    let buf = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
        Err(e) => return Err(e),
    };
    let mut out = Replay::default();
    let mut pos = 0usize;
    loop {
        let Some(header) = buf.get(pos..pos + 8) else {
            // Incomplete header (or clean EOF at pos == len).
            out.torn = pos < buf.len();
            break;
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len as u64 > MAX_RECORD_BYTES as u64 {
            out.torn = true;
            break;
        }
        let Some(payload) = buf.get(pos + 8..pos + 8 + len) else {
            out.torn = true; // torn payload
            break;
        };
        if crc32(payload) != crc {
            out.torn = true;
            break;
        }
        // A single-op frame is a JSON object; a group-commit frame is a
        // JSON array of records (see the module doc).
        match serde_json::from_slice::<WalRecord>(payload) {
            Ok(rec) => out.records.push(rec),
            Err(_) => {
                let Ok(batch) = serde_json::from_slice::<Vec<WalRecord>>(payload) else {
                    out.torn = true;
                    break;
                };
                out.records.extend(batch);
            }
        }
        pos += 8 + len;
        out.valid_bytes = pos as u64;
    }
    Ok(out)
}

/// Truncate `path` to `valid_bytes`, discarding a torn tail in place.
pub fn truncate_to(path: &Path, valid_bytes: u64) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(valid_bytes)?;
    f.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::AddUser(UserRow {
                id: seq,
                username: format!("user{seq}"),
                password_hash: 0xdead_beef ^ seq,
                created_seq: seq,
            }),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("laminar-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The byte-at-a-time CRC-32 the sliced one must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xcbf4_3926);
        // Every length up to 64 (every tail, every chunk count up to 8)
        // and a seeded 1 MiB buffer, at every start offset mod 8.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..(1 << 20) + 7)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for len in 0..=64 {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
        for start in 0..8 {
            let slice = &buf[start..start + (1 << 20)];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start}");
        }
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
        for s in 1..=5 {
            wal.append(&rec(s)).unwrap();
        }
        assert_eq!(wal.records(), 5);
        drop(wal);
        let rep = replay(&path).unwrap();
        assert!(!rep.torn);
        assert_eq!(rep.records.len(), 5);
        assert_eq!(rep.records[4], rec(5));
        assert_eq!(rep.valid_bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_replays_empty() {
        let rep = replay(Path::new("/nonexistent/wal.log")).unwrap();
        assert!(rep.records.is_empty());
        assert!(!rep.torn);
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
        wal.append(&rec(1)).unwrap();
        let first_len = wal.bytes();
        wal.append(&rec(2)).unwrap();
        let full_len = wal.bytes();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Cut the second frame at every byte boundary: the first record
        // must always survive, the second never partially.
        for cut in first_len..full_len {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let rep = replay(&path).unwrap();
            assert_eq!(rep.records.len(), 1, "cut at {cut}");
            assert_eq!(rep.valid_bytes, first_len);
            assert_eq!(rep.torn, cut != first_len, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_payload_byte_truncates_there() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
        wal.append(&rec(1)).unwrap();
        let first_len = wal.bytes() as usize;
        wal.append(&rec(2)).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[first_len + 12] ^= 0xff; // flip a byte inside the second payload
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert!(rep.torn);
        assert_eq!(rep.records.len(), 1);
        // Truncating at valid_bytes then reopening appends cleanly.
        truncate_to(&path, rep.valid_bytes).unwrap();
        let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 1, rep.valid_bytes).unwrap();
        wal.append(&rec(3)).unwrap();
        drop(wal);
        let rep = replay(&path).unwrap();
        assert!(!rep.torn);
        assert_eq!(
            rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 3]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absurd_length_prefix_is_rejected_not_allocated() {
        let dir = tmp_dir("length");
        let path = dir.join("wal.log");
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(b"junk");
        std::fs::write(&path, &frame).unwrap();
        let rep = replay(&path).unwrap();
        assert!(rep.torn);
        assert!(rep.records.is_empty());
        assert_eq!(rep.valid_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_sets_the_log_aside_and_continues_on_an_empty_one() {
        let dir = tmp_dir("seal");
        let path = dir.join("wal.log");
        let sealed = dir.join("wal.log.sealed");
        let mut wal = Wal::open(&path, SyncPolicy::EveryAppend, 0, 0).unwrap();
        let (_, synced) = wal.append(&rec(1)).unwrap();
        assert!(synced, "EveryAppend fsyncs");
        wal.seal(&sealed).unwrap();
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.bytes(), 0);
        wal.append(&rec(2)).unwrap();
        drop(wal);
        let seqs = |p: &Path| replay(p).unwrap().records.iter().map(|r| r.seq).collect::<Vec<_>>();
        assert_eq!(seqs(&sealed), vec![1], "the sealed log keeps what it held");
        assert_eq!(seqs(&path), vec![2], "later appends land in the fresh log");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_frame_roundtrips_with_one_fsync() {
        let dir = tmp_dir("batch");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::EveryAppend, 0, 0).unwrap();
        let recs: Vec<WalRecord> = (1..=4).map(rec).collect();
        let (bytes, synced) = wal.append_batch(&recs).unwrap();
        assert!(bytes > 0);
        assert!(synced, "one fsync for the whole batch");
        assert_eq!(wal.records(), 4);
        drop(wal);
        let rep = replay(&path).unwrap();
        assert!(!rep.torn);
        assert_eq!(rep.records, recs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let dir = tmp_dir("batch-empty");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::EveryAppend, 0, 0).unwrap();
        let (bytes, synced) = wal.append_batch(&[]).unwrap();
        assert_eq!((bytes, synced), (0, false));
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_single_and_batch_frames_replay_in_order() {
        let dir = tmp_dir("batch-mixed");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
        wal.append(&rec(1)).unwrap();
        wal.append_batch(&[rec(2), rec(3)]).unwrap();
        wal.append(&rec(4)).unwrap();
        wal.append_batch(&[rec(5)]).unwrap();
        assert_eq!(wal.records(), 5);
        drop(wal);
        let rep = replay(&path).unwrap();
        assert!(!rep.torn);
        assert_eq!(
            rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_batch_frame_is_all_or_nothing_at_every_cut() {
        let dir = tmp_dir("batch-torn");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
        wal.append(&rec(1)).unwrap();
        let first_len = wal.bytes();
        wal.append_batch(&[rec(2), rec(3), rec(4)]).unwrap();
        let full_len = wal.bytes();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Cut the batch frame at every byte boundary: the single record
        // always survives, and no batch member ever replays partially —
        // either all three or none.
        for cut in first_len..full_len {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let rep = replay(&path).unwrap();
            assert_eq!(rep.records.len(), 1, "cut at {cut}: batch must vanish whole");
            assert_eq!(rep.valid_bytes, first_len);
        }
        // The intact file replays all four.
        std::fs::write(&path, &full).unwrap();
        let rep = replay(&path).unwrap();
        assert_eq!(rep.records.len(), 4);
        assert!(!rep.torn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_batch_payload_drops_whole_batch() {
        let dir = tmp_dir("batch-corrupt");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
        wal.append(&rec(1)).unwrap();
        let first_len = wal.bytes() as usize;
        wal.append_batch(&[rec(2), rec(3)]).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[first_len + 12] ^= 0xff; // flip a byte inside the batch payload
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert!(rep.torn);
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.valid_bytes, first_len as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_and_cleans_tmp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("snapshot.json");
        std::fs::write(&path, b"old").unwrap();
        write_atomic_hooked(&path, b"new contents", None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        assert!(!tmp_path(&path).exists(), "tmp renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_heals_tail_at_every_cut_byte() {
        use crate::iofault::{FaultKind, FaultSpec, IoFaultInjector};
        // Regression for the torn-tail poisoning bug: a short write that
        // leaves N bytes of a failed frame on disk, followed by a
        // successful append, used to bury the new frame behind torn
        // bytes — replay then discarded it. With the self-healing tail
        // the retry must land on a clean boundary for EVERY cut point.
        let probe_frame_len = {
            let dir = tmp_dir("heal-probe");
            let path = dir.join("wal.log");
            let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
            wal.append(&rec(2)).unwrap();
            let len = wal.bytes();
            std::fs::remove_dir_all(&dir).ok();
            len as usize
        };
        for cut in 0..=probe_frame_len {
            let dir = tmp_dir(&format!("heal-{cut}"));
            let path = dir.join("wal.log");
            let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
            wal.append(&rec(1)).unwrap();
            let acknowledged = wal.bytes();
            let inj = IoFaultInjector::new(
                1,
                FaultSpec {
                    sites: vec![IoSite::WalAppend],
                    mode: crate::iofault::FaultMode::Nth(1),
                    kind: FaultKind::ShortWrite,
                    short_cut: Some(cut),
                },
            );
            wal.set_fault_hook(inj);
            assert!(wal.append(&rec(2)).is_err(), "cut at {cut}");
            assert!(wal.healthy(), "tail rollback must succeed: cut {cut}");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                acknowledged,
                "torn bytes truncated at cut {cut}"
            );
            // The retry (the Nth fault fired once) succeeds and replays.
            wal.append(&rec(3)).unwrap();
            drop(wal);
            let rep = replay(&path).unwrap();
            assert!(!rep.torn, "cut at {cut}");
            assert_eq!(
                rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
                vec![1, 3],
                "cut at {cut}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn failed_fsync_discards_the_unacknowledged_frame() {
        use crate::iofault::{FaultKind, FaultSpec, IoFaultInjector};
        let dir = tmp_dir("fsync-fault");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::EveryAppend, 0, 0).unwrap();
        wal.append(&rec(1)).unwrap();
        let acknowledged = wal.bytes();
        wal.set_fault_hook(IoFaultInjector::new(
            3,
            FaultSpec::nth_at(IoSite::WalFsync, 1, FaultKind::FsyncError),
        ));
        // The frame write succeeds; the fsync fails — the frame must not
        // survive, because the caller never acknowledged it.
        assert!(wal.append(&rec(2)).is_err());
        assert_eq!(wal.records(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), acknowledged);
        wal.append(&rec(3)).unwrap();
        drop(wal);
        let rep = replay(&path).unwrap();
        assert!(!rep.torn);
        assert_eq!(
            rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 3]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_append_fault_is_all_or_nothing() {
        use crate::iofault::{FaultKind, FaultSpec, IoFaultInjector};
        let dir = tmp_dir("batch-fault");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
        wal.append(&rec(1)).unwrap();
        wal.set_fault_hook(IoFaultInjector::new(
            9,
            FaultSpec::nth_at(IoSite::WalBatchAppend, 1, FaultKind::Enospc),
        ));
        assert!(wal.append_batch(&[rec(2), rec(3)]).is_err());
        assert_eq!(wal.records(), 1, "no batch member counted");
        // Retry succeeds (Nth fired) and the whole batch lands.
        wal.append_batch(&[rec(2), rec(3)]).unwrap();
        drop(wal);
        let rep = replay(&path).unwrap();
        assert!(!rep.torn);
        assert_eq!(
            rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hooked_write_atomic_fails_sites_without_corrupting_target() {
        use crate::iofault::{FaultHook, FaultKind, FaultSpec, IoFaultInjector};
        let dir = tmp_dir("atomic-fault");
        let path = dir.join("snapshot.json");
        std::fs::write(&path, b"old").unwrap();
        for (site, kind) in [
            (IoSite::SnapshotWrite, FaultKind::Enospc),
            (IoSite::SnapshotWrite, FaultKind::ShortWrite),
            (IoSite::SnapshotFsync, FaultKind::FsyncError),
            (IoSite::SnapshotRename, FaultKind::Enospc),
        ] {
            let hook: FaultHook = IoFaultInjector::new(11, FaultSpec::nth_at(site, 1, kind));
            let err = write_atomic_hooked(&path, b"new contents", Some(&hook)).unwrap_err();
            assert!(err.to_string().contains("injected"), "{site:?}: {err}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                b"old",
                "{site:?} must leave the target intact"
            );
        }
        // With the faults exhausted the same hook lets the write through.
        let hook: FaultHook = IoFaultInjector::new(
            11,
            FaultSpec::nth_at(IoSite::SnapshotWrite, 99, FaultKind::Enospc),
        );
        write_atomic_hooked(&path, b"new contents", Some(&hook)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_fault_leaves_log_intact() {
        use crate::iofault::{FaultKind, FaultSpec, IoFaultInjector};
        let dir = tmp_dir("seal-fault");
        let path = dir.join("wal.log");
        let sealed = dir.join("wal.log.sealed");
        let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
        wal.append(&rec(1)).unwrap();
        wal.set_fault_hook(IoFaultInjector::new(
            2,
            FaultSpec::nth_at(IoSite::WalTruncate, 1, FaultKind::Enospc),
        ));
        assert!(wal.seal(&sealed).is_err());
        assert_eq!(wal.records(), 1, "a failed seal keeps the log");
        assert!(!sealed.exists());
        wal.append(&rec(2)).unwrap();
        wal.seal(&sealed).unwrap();
        assert_eq!(wal.records(), 0);
        assert_eq!(replay(&sealed).unwrap().records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_ops_roundtrip_through_frames() {
        let ops = vec![
            WalOp::RemovePe { id: 3 },
            WalOp::RemoveWorkflow { id: 4 },
            WalOp::RemoveAll,
            WalOp::SetExecutionStatus {
                id: 9,
                status: ExecutionStatus::Completed,
            },
            WalOp::UpdatePeDescription {
                id: 1,
                description: "d".into(),
            },
        ];
        let dir = tmp_dir("ops");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, SyncPolicy::OsBuffered, 0, 0).unwrap();
        for (i, op) in ops.iter().enumerate() {
            wal.append(&WalRecord {
                seq: i as u64 + 1,
                op: op.clone(),
            })
            .unwrap();
        }
        drop(wal);
        let rep = replay(&path).unwrap();
        assert_eq!(rep.records.len(), ops.len());
        for (r, op) in rep.records.iter().zip(&ops) {
            assert_eq!(&r.op, op);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
