//! Deterministic IO fault injection for the durability layer.
//!
//! The enactment layer earned a seeded chaos harness in `d4py::fault`;
//! this module is its storage twin. A [`IoFaultHook`] is threaded through
//! every WAL and snapshot IO site ([`IoSite`]) — consulted immediately
//! *before* the real syscall, it can make the operation fail as if the
//! device had: `ENOSPC` before any byte lands, a short (torn) write that
//! leaves a prefix of the frame on disk, or an fsync error after the data
//! reached the page cache.
//!
//! The stock implementation, [`IoFaultInjector`], is seeded and
//! deterministic: the same seed over the same operation sequence produces
//! a bit-identical fault schedule, recorded in a journal so two runs can
//! be compared event-for-event. Faults can be scheduled at the Nth
//! matching operation, persistently from the Nth onward (a full disk that
//! stays full until [`IoFaultInjector::clear`]), or randomly at a seeded
//! percentage.
//!
//! Production servers never construct a hook — every instrumented site
//! costs one `Option` check when no injector is installed.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The instrumented IO sites of the durability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoSite {
    /// A single-record WAL frame write (`Wal::append`).
    WalAppend,
    /// A group-commit WAL frame write (`Wal::append_batch`).
    WalBatchAppend,
    /// The `sync_data` following a WAL frame under `SyncPolicy::EveryAppend`.
    WalFsync,
    /// Sealing the live WAL at a compaction's cut (`Wal::seal`): the step
    /// that replaced truncating it after the snapshot, under the same name.
    WalTruncate,
    /// Writing the bytes of `snapshot.json.tmp`.
    SnapshotWrite,
    /// The `sync_all` of the snapshot tmp file.
    SnapshotFsync,
    /// The atomic rename of the tmp file over `snapshot.json`.
    SnapshotRename,
}

impl IoSite {
    /// Every site, in a fixed order (indexes the per-site counters).
    pub const ALL: [IoSite; 7] = [
        IoSite::WalAppend,
        IoSite::WalBatchAppend,
        IoSite::WalFsync,
        IoSite::WalTruncate,
        IoSite::SnapshotWrite,
        IoSite::SnapshotFsync,
        IoSite::SnapshotRename,
    ];

    /// Stable name, used by the metrics row group and error messages.
    pub fn name(self) -> &'static str {
        match self {
            IoSite::WalAppend => "wal_append",
            IoSite::WalBatchAppend => "wal_batch_append",
            IoSite::WalFsync => "wal_fsync",
            IoSite::WalTruncate => "wal_truncate",
            IoSite::SnapshotWrite => "snapshot_write",
            IoSite::SnapshotFsync => "snapshot_fsync",
            IoSite::SnapshotRename => "snapshot_rename",
        }
    }

    fn index(self) -> usize {
        match self {
            IoSite::WalAppend => 0,
            IoSite::WalBatchAppend => 1,
            IoSite::WalFsync => 2,
            IoSite::WalTruncate => 3,
            IoSite::SnapshotWrite => 4,
            IoSite::SnapshotFsync => 5,
            IoSite::SnapshotRename => 6,
        }
    }
}

/// What the injected failure looks like to the IO site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device is full: the operation fails before any byte lands.
    Enospc,
    /// A torn write: a prefix of the buffer reaches the file, then the
    /// error surfaces (models a crash or device error mid-`write`).
    ShortWrite,
    /// The data reached the page cache but `fsync` failed — durability
    /// of the preceding write is unknown.
    FsyncError,
}

/// When the matching operations fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fail exactly the nth (1-based) matching operation, once.
    Nth(u64),
    /// Fail every matching operation from the nth (1-based) onward — a
    /// persistent fault (the disk stays full) until
    /// [`IoFaultInjector::clear`] is called.
    From(u64),
    /// Fail each matching operation with the given percent probability,
    /// drawn from the seeded generator.
    Random(u32),
}

/// One injector configuration: which sites fail, when, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Sites the fault applies to; empty means every site.
    pub sites: Vec<IoSite>,
    pub mode: FaultMode,
    pub kind: FaultKind,
    /// For [`FaultKind::ShortWrite`]: how many bytes of the buffer reach
    /// the file before the failure. `None` draws a deterministic cut
    /// (strictly inside the buffer) from the seed.
    pub short_cut: Option<usize>,
}

impl FaultSpec {
    /// Fail the nth (1-based) operation at one site, once.
    pub fn nth_at(site: IoSite, n: u64, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            sites: vec![site],
            mode: FaultMode::Nth(n),
            kind,
            short_cut: None,
        }
    }

    /// A persistent fault at every site from the first operation onward
    /// (a disk that is full and stays full until `clear()`).
    pub fn persistent(kind: FaultKind) -> FaultSpec {
        FaultSpec {
            sites: Vec::new(),
            mode: FaultMode::From(1),
            kind,
            short_cut: None,
        }
    }
}

/// What a consulted hook tells the IO site to do.
#[derive(Debug)]
pub enum Induced {
    /// Fail before any byte reaches the file.
    Error(io::Error),
    /// Write only the first `written` bytes of the buffer, then surface
    /// the error — the torn bytes really land on disk.
    Short { written: usize, error: io::Error },
}

impl Induced {
    /// The error to surface, discarding any short-write prefix length
    /// (for sites that write no buffer: fsync, rename, truncate).
    pub fn into_error(self) -> io::Error {
        match self {
            Induced::Error(e) => e,
            Induced::Short { error, .. } => error,
        }
    }
}

/// Per-site observation counters, reported by [`IoFaultHook::counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteCounter {
    pub site: IoSite,
    /// Operations that consulted the hook at this site.
    pub ops: u64,
    /// Operations the hook failed.
    pub injected: u64,
}

/// Trait-based hook threaded through the WAL and snapshot IO sites.
///
/// `induce` is consulted immediately before each instrumented operation;
/// `len` is the number of bytes about to be written (0 for
/// fsync/rename/truncate sites). Returning `Some` makes the operation
/// fail without (or, for [`Induced::Short`], after partially) touching
/// the file.
pub trait IoFaultHook: Send + Sync + std::fmt::Debug {
    fn induce(&self, site: IoSite, len: usize) -> Option<Induced>;

    /// Per-site `(ops, injected)` counters for the `storage_health`
    /// metrics row group. Hooks that do not count report nothing.
    fn counters(&self) -> Vec<SiteCounter> {
        Vec::new()
    }
}

/// Shared handle to an installed hook.
pub type FaultHook = Arc<dyn IoFaultHook>;

/// One journal entry: the decision taken for one matching operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// 1-based index among the operations matching the site filter.
    pub op: u64,
    pub site: IoSite,
    /// Whether the operation was failed.
    pub injected: bool,
}

/// The seeded, deterministic injector: same seed over the same operation
/// sequence ⇒ bit-identical fault schedule (compare [`journal`]s).
///
/// [`journal`]: IoFaultInjector::journal
#[derive(Debug)]
pub struct IoFaultInjector {
    spec: FaultSpec,
    armed: AtomicBool,
    rng: Mutex<u64>,
    /// Count of operations matching the site filter while armed.
    matched: AtomicU64,
    ops: [AtomicU64; 7],
    injected: [AtomicU64; 7],
    journal: Mutex<Vec<FaultEvent>>,
}

impl IoFaultInjector {
    pub fn new(seed: u64, spec: FaultSpec) -> Arc<IoFaultInjector> {
        Arc::new(IoFaultInjector {
            spec,
            armed: AtomicBool::new(true),
            // xorshift must not start at 0.
            rng: Mutex::new(seed | 1),
            matched: AtomicU64::new(0),
            ops: Default::default(),
            injected: Default::default(),
            journal: Mutex::new(Vec::new()),
        })
    }

    /// The fault condition clears (space freed, device back): stop
    /// injecting. Counters and journal are kept.
    pub fn clear(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Re-arm a cleared injector.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The decision journal so far (one entry per matching operation).
    pub fn journal(&self) -> Vec<FaultEvent> {
        self.journal.lock().unwrap().clone()
    }

    fn next_u64(&self) -> u64 {
        let mut s = self.rng.lock().unwrap();
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        x
    }

    fn error(&self, site: IoSite) -> io::Error {
        let msg = match self.spec.kind {
            FaultKind::Enospc => {
                format!("injected ENOSPC at {}: no space left on device", site.name())
            }
            FaultKind::ShortWrite => format!("injected short write at {}", site.name()),
            FaultKind::FsyncError => format!("injected fsync failure at {}", site.name()),
        };
        io::Error::other(msg)
    }
}

impl IoFaultHook for IoFaultInjector {
    fn induce(&self, site: IoSite, len: usize) -> Option<Induced> {
        self.ops[site.index()].fetch_add(1, Ordering::Relaxed);
        if !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        if !(self.spec.sites.is_empty() || self.spec.sites.contains(&site)) {
            return None;
        }
        let op = self.matched.fetch_add(1, Ordering::SeqCst) + 1;
        let hit = match self.spec.mode {
            FaultMode::Nth(n) => op == n,
            FaultMode::From(n) => op >= n,
            FaultMode::Random(percent) => self.next_u64() % 100 < u64::from(percent),
        };
        self.journal.lock().unwrap().push(FaultEvent { op, site, injected: hit });
        if !hit {
            return None;
        }
        self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        let error = self.error(site);
        match self.spec.kind {
            // A short write needs a buffer to tear; sites that write no
            // bytes (fsync/rename/truncate) degrade to a plain error.
            FaultKind::ShortWrite if len > 0 => {
                let written = match self.spec.short_cut {
                    Some(cut) => cut.min(len),
                    None => (self.next_u64() as usize) % len,
                };
                Some(Induced::Short { written, error })
            }
            _ => Some(Induced::Error(error)),
        }
    }

    fn counters(&self) -> Vec<SiteCounter> {
        IoSite::ALL
            .iter()
            .map(|&site| SiteCounter {
                site,
                ops: self.ops[site.index()].load(Ordering::Relaxed),
                injected: self.injected[site.index()].load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive an injector through a fixed operation sequence.
    fn drive(inj: &IoFaultInjector) -> Vec<bool> {
        let mut outcomes = Vec::new();
        for i in 0..40u64 {
            let site = IoSite::ALL[(i % 7) as usize];
            outcomes.push(inj.induce(site, 64).is_some());
        }
        outcomes
    }

    #[test]
    fn same_seed_means_bit_identical_schedule() {
        let a = IoFaultInjector::new(
            42,
            FaultSpec {
                sites: Vec::new(),
                mode: FaultMode::Random(30),
                kind: FaultKind::Enospc,
                short_cut: None,
            },
        );
        let b = IoFaultInjector::new(
            42,
            FaultSpec {
                sites: Vec::new(),
                mode: FaultMode::Random(30),
                kind: FaultKind::Enospc,
                short_cut: None,
            },
        );
        assert_eq!(drive(&a), drive(&b));
        assert_eq!(a.journal(), b.journal());
        assert!(a.injected_total() > 0, "30% over 40 ops should fire");
        // A different seed diverges (overwhelmingly likely at 40 draws).
        let c = IoFaultInjector::new(
            43,
            FaultSpec {
                sites: Vec::new(),
                mode: FaultMode::Random(30),
                kind: FaultKind::Enospc,
                short_cut: None,
            },
        );
        assert_ne!(a.journal(), c.journal());
    }

    #[test]
    fn nth_fails_exactly_once_at_the_right_operation() {
        let inj = IoFaultInjector::new(1, FaultSpec::nth_at(IoSite::WalAppend, 3, FaultKind::Enospc));
        // Non-matching sites pass and do not advance the matched count.
        assert!(inj.induce(IoSite::SnapshotWrite, 10).is_none());
        assert!(inj.induce(IoSite::WalAppend, 10).is_none());
        assert!(inj.induce(IoSite::WalAppend, 10).is_none());
        let third = inj.induce(IoSite::WalAppend, 10);
        assert!(matches!(third, Some(Induced::Error(_))), "{third:?}");
        assert!(inj.induce(IoSite::WalAppend, 10).is_none(), "Nth fires once");
        assert_eq!(inj.injected_total(), 1);
        let counters = inj.counters();
        let wal = counters.iter().find(|c| c.site == IoSite::WalAppend).unwrap();
        assert_eq!((wal.ops, wal.injected), (4, 1));
    }

    #[test]
    fn persistent_fault_fails_until_cleared() {
        let inj = IoFaultInjector::new(7, FaultSpec::persistent(FaultKind::Enospc));
        for _ in 0..3 {
            assert!(inj.induce(IoSite::WalAppend, 8).is_some());
        }
        inj.clear();
        assert!(!inj.is_armed());
        assert!(inj.induce(IoSite::WalAppend, 8).is_none());
        inj.arm();
        assert!(inj.induce(IoSite::WalAppend, 8).is_some());
    }

    #[test]
    fn short_write_cuts_inside_the_buffer() {
        let inj = IoFaultInjector::new(
            5,
            FaultSpec {
                sites: vec![IoSite::WalAppend],
                mode: FaultMode::From(1),
                kind: FaultKind::ShortWrite,
                short_cut: None,
            },
        );
        for _ in 0..10 {
            match inj.induce(IoSite::WalAppend, 32) {
                Some(Induced::Short { written, .. }) => assert!(written < 32),
                other => panic!("expected a short write: {other:?}"),
            }
        }
        // An explicit cut is honoured (clamped to the buffer).
        let pinned = IoFaultInjector::new(
            5,
            FaultSpec {
                sites: vec![IoSite::WalAppend],
                mode: FaultMode::From(1),
                kind: FaultKind::ShortWrite,
                short_cut: Some(5),
            },
        );
        match pinned.induce(IoSite::WalAppend, 32) {
            Some(Induced::Short { written, .. }) => assert_eq!(written, 5),
            other => panic!("{other:?}"),
        }
        // Zero-length sites degrade to a plain error.
        assert!(matches!(
            pinned.induce(IoSite::WalAppend, 0),
            Some(Induced::Error(_))
        ));
    }
}
