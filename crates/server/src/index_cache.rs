//! The index cache: `index.cache` in the data directory, the one persisted
//! copy of what the server analyses from each registry row — its
//! description vector, its ReACC vector and, for a PE, its SPT vector
//! ([`Analysis`]). The registry keeps only what users wrote.
//!
//! It is a cache and never the truth: the registry (snapshot + WAL) is.
//! A start reads it frame by frame and serves a row from it only while
//! that row's code and description are unchanged; every other row — and
//! every row when the file is absent, from another analyser build, or torn
//! — is re-analysed from its code and description ([`Analysis::of`], the
//! function registration runs). So deleting the file, at any time, changes
//! nothing but the time a start takes.
//!
//! # On-disk format
//!
//! A 24-byte header, then one frame per row, framed like the WAL:
//!
//! ```text
//! header: [magic: 8 bytes "LMNCACHE"] [format version: u32 LE] [DIM: u32 LE]
//!         [analyser fingerprint: u64 LE]
//! frame:  [len: u32 LE] [crc32: u32 LE over payload] [payload: `len` bytes]
//! payload: [id: u64] [kind: u8, 0 PE / 1 workflow] [content hash: u64]
//!          [description vector: DIM × f32] [ReACC vector: DIM × f32]
//!          PE only: [SPT items: u32 count] [count × (feature id: u64, count: f32)]
//! ```
//!
//! All numbers are little-endian, floats as their raw bits.
//!
//! # Validity
//!
//! * **Per row**: the content hash ([`content_hash`]) covers exactly what
//!   the three vectors are analysed from — the row's `code` and
//!   `description`, each length-prefixed. A row is served from the cache
//!   only when its id, kind and content hash all match.
//! * **Per file**: the header's magic, version, `DIM` and analyser
//!   fingerprint ([`analyser_fingerprint`]: the output bits of
//!   [`Analysis::of`] on a fixed probe) must all match this build, or the
//!   whole file is ignored. Version 1 also hashed the JSON embedding
//!   columns registry rows no longer have, so it is rejected whole.
//! * **Per frame**: a CRC mismatch, a torn tail, an over-long length or a
//!   payload that does not decode to exactly its length ends the cache at
//!   that frame; the rows after it are re-analysed.
//!
//! # Writing
//!
//! The server writes it after an explicit `Compact` and after the drain's
//! final compaction — never from the registry's background
//! auto-compaction, which runs mid-ingest — from one consistent read of
//! the index cell ([`SearchIndexes::rows`]), so a row's hash and vectors
//! come from the same publication. Rows the index holds no content hash
//! for (a row re-described since the start, a row indexed from embeddings
//! alone) are left out. It goes to `index.cache.tmp`, renamed into place;
//! a leftover temporary file is removed when the server opens the
//! directory. No fsync: a file torn by a power cut fails its CRCs and
//! costs misses, never a wrong row.

use crate::indexes::{Analysis, EntryKind, IndexedRow, SearchIndexes};
use crate::obs::WarmMetrics;
use embed::{DenseVec, DIM};
use laminar_registry::wal::{crc32, tmp_path};
use spt::FeatureVec;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// The cache's file name in the data directory.
pub const CACHE_FILE: &str = "index.cache";
/// The header's first eight bytes.
pub const MAGIC: [u8; 8] = *b"LMNCACHE";
/// The layout version; a file of another version is ignored whole.
pub const FORMAT_VERSION: u32 = 2;
/// Header bytes: magic, version, `DIM`, fingerprint.
pub const HEADER_LEN: usize = 24;
/// A frame claiming a longer payload is corrupt (a PE row of a million
/// features is 12 MB).
const MAX_PAYLOAD: usize = 1 << 26;
/// Payload bytes before the vectors: id, kind, content hash.
const ROW_HEAD: usize = 8 + 1 + 8;

/// A 64-bit content hash, eight bytes a step: each word is xored into the
/// state and folded through a 64×64→128-bit multiply. Stable across
/// builds and platforms (it is stored), not collision-resistant against
/// an adversary.
#[derive(Clone, Copy)]
struct RowHasher(u64);

const K_WORD: u64 = 0x9e37_79b9_7f4a_7c15;
const K_FINISH: u64 = 0xe703_7ed1_a0b4_28db;

#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

impl RowHasher {
    fn new() -> Self {
        RowHasher(0x8ebc_6af0_9c88_c6e3)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = fold(self.0 ^ w, K_WORD);
    }

    /// One length-prefixed field.
    fn field(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    /// Never 0: the index stores 0 for "no content hash known".
    fn finish(self) -> u64 {
        fold(self.0 ^ K_FINISH, K_WORD).max(1)
    }
}

/// The content hash of a registry row: its `code` and `description`,
/// each length-prefixed. Never 0.
pub fn content_hash(code: &str, description: &str) -> u64 {
    let mut h = RowHasher::new();
    h.field(code.as_bytes());
    h.field(description.as_bytes());
    h.finish()
}

/// What this build's [`Analysis::of`] makes of a fixed probe PE: the bits
/// of its description, ReACC and SPT vectors. A build that changes any
/// analyser writes and accepts another fingerprint, so it never serves an
/// older build's vectors.
pub fn analyser_fingerprint() -> u64 {
    static FINGERPRINT: OnceLock<u64> = OnceLock::new();
    *FINGERPRINT.get_or_init(|| {
        const CODE: &str = "class Probe(IterativePE):\n    def _process(self, data):\n        \
                            total = 0\n        for x in data:\n            if x > 0:\n                \
                            total += x * 2\n        return total\n";
        const TEXT: &str = "sums twice every positive number it reads";
        let probe = Analysis::of(EntryKind::Pe, CODE, TEXT);
        let mut h = RowHasher::new();
        for v in [probe.reacc, probe.desc] {
            h.word(v.values.len() as u64);
            for x in v.values {
                h.word(x.to_bits().into());
            }
        }
        let spt = probe.spt.expect("a PE is analysed with its SPT vector");
        h.word(spt.items.len() as u64);
        for (id, count) in spt.items {
            h.word(id);
            h.word(count.to_bits().into());
        }
        h.finish()
    })
}

fn header() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&(DIM as u32).to_le_bytes());
    h[16..24].copy_from_slice(&analyser_fingerprint().to_le_bytes());
    h
}

/// One row read back from the cache.
#[derive(Debug)]
pub struct CachedRow {
    pub id: u64,
    pub kind: EntryKind,
    pub content: u64,
    pub vectors: Analysis,
}

/// How a read ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadEnd {
    /// No cache file.
    Absent,
    /// Every frame was read.
    Complete,
    /// The header did not match this build, or a bad frame ended the
    /// cache early.
    Rejected,
}

fn encode_row(row: &IndexedRow<'_>, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&row.id.to_le_bytes());
    out.push(match row.kind {
        EntryKind::Pe => 0,
        EntryKind::Workflow => 1,
    });
    out.extend_from_slice(&row.content.to_le_bytes());
    for v in row.desc.iter().chain(&row.reacc) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    if let Some(spt) = row.spt {
        out.extend_from_slice(&(spt.items.len() as u32).to_le_bytes());
        for &(id, count) in &spt.items {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
}

/// Decode one payload; `None` unless it is exactly one row.
fn decode_row(p: &[u8]) -> Option<CachedRow> {
    let u64_at = |at: usize| Some(u64::from_le_bytes(p.get(at..at + 8)?.try_into().ok()?));
    let f32s = |at: usize| -> Option<Vec<f32>> {
        let bytes = p.get(at..at + 4 * DIM)?;
        Some(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("a 4-byte chunk")))
                .collect(),
        )
    };
    let kind = match *p.get(8)? {
        0 => EntryKind::Pe,
        1 => EntryKind::Workflow,
        _ => return None,
    };
    let vectors_end = ROW_HEAD + 8 * DIM;
    let spt = match kind {
        EntryKind::Workflow if p.len() == vectors_end => None,
        EntryKind::Workflow => return None,
        EntryKind::Pe => {
            let n = u32::from_le_bytes(p.get(vectors_end..vectors_end + 4)?.try_into().ok()?);
            let items_at = vectors_end + 4;
            if p.len() != items_at + 12 * n as usize {
                return None;
            }
            let items = p[items_at..]
                .chunks_exact(12)
                .map(|item| {
                    let id = u64::from_le_bytes(item[..8].try_into().expect("8 bytes"));
                    let count = f32::from_le_bytes(item[8..].try_into().expect("4 bytes"));
                    (id, count)
                })
                .collect();
            Some(FeatureVec { items })
        }
    };
    Some(CachedRow {
        id: u64_at(0)?,
        kind,
        content: u64_at(9)?,
        vectors: Analysis {
            desc: DenseVec {
                values: f32s(ROW_HEAD)?,
            },
            reacc: DenseVec {
                values: f32s(ROW_HEAD + 4 * DIM)?,
            },
            spt,
        },
    })
}

/// The data directory's index cache: where it lives, and one writer at a
/// time.
pub struct IndexCache {
    path: PathBuf,
    writing: Mutex<()>,
}

impl IndexCache {
    /// The cache of data directory `dir`. A leftover `index.cache.tmp` is
    /// a write that died before its rename: removed, never read.
    pub fn open(dir: &Path) -> IndexCache {
        let path = dir.join(CACHE_FILE);
        let _ = std::fs::remove_file(tmp_path(&path));
        IndexCache {
            path,
            writing: Mutex::new(()),
        }
    }

    /// Hand `each` every row up to the first bad frame, in file order,
    /// reading one frame at a time.
    pub fn read(&self, mut each: impl FnMut(CachedRow)) -> ReadEnd {
        let file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return ReadEnd::Absent,
            Err(_) => return ReadEnd::Rejected,
        };
        let mut r = BufReader::with_capacity(1 << 16, file);
        let mut head = [0u8; HEADER_LEN];
        if r.read_exact(&mut head).is_err() || head != header() {
            return ReadEnd::Rejected;
        }
        let mut payload = Vec::new();
        loop {
            match r.fill_buf() {
                Ok([]) => return ReadEnd::Complete,
                Ok(_) => {}
                Err(_) => return ReadEnd::Rejected,
            }
            let mut frame = [0u8; 8];
            if r.read_exact(&mut frame).is_err() {
                return ReadEnd::Rejected;
            }
            let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(frame[4..].try_into().expect("4 bytes"));
            if len > MAX_PAYLOAD {
                return ReadEnd::Rejected;
            }
            payload.resize(len, 0);
            if r.read_exact(&mut payload).is_err() || crc32(&payload) != crc {
                return ReadEnd::Rejected;
            }
            match decode_row(&payload) {
                Some(row) => each(row),
                None => return ReadEnd::Rejected,
            }
        }
    }

    /// Write every row of `indexes` that has a content hash, replacing the
    /// file. Counted in `warm`; a failure leaves the previous file (or
    /// none) and is never an error to the caller.
    pub fn save(&self, indexes: &SearchIndexes, warm: &WarmMetrics) {
        let _one_writer = self.writing.lock().unwrap_or_else(PoisonError::into_inner);
        let start = Instant::now();
        match self.write(indexes) {
            Ok(bytes) => {
                warm.cache_write_us.record(start.elapsed());
                warm.cache_bytes.set(bytes as i64);
            }
            Err(_) => {
                let _ = std::fs::remove_file(tmp_path(&self.path));
                warm.cache_write_failures.inc();
            }
        }
    }

    fn write(&self, indexes: &SearchIndexes) -> io::Result<u64> {
        let rows = indexes.rows();
        let tmp = tmp_path(&self.path);
        let mut out = BufWriter::with_capacity(1 << 16, File::create(&tmp)?);
        out.write_all(&header())?;
        let mut bytes = HEADER_LEN as u64;
        let mut payload = Vec::new();
        // A PE row without its engine entry cannot be written whole.
        let whole = |row: &IndexedRow<'_>| {
            row.content != 0 && (row.kind == EntryKind::Workflow || row.spt.is_some())
        };
        for row in rows.iter().filter(whole) {
            encode_row(&row, &mut payload);
            out.write_all(&(payload.len() as u32).to_le_bytes())?;
            out.write_all(&crc32(&payload).to_le_bytes())?;
            out.write_all(&payload)?;
            bytes += 8 + payload.len() as u64;
        }
        out.into_inner().map_err(|e| e.into_error())?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_separates_columns_and_is_never_zero() {
        let h = content_hash("ab", "c");
        assert_ne!(h, 0);
        assert_ne!(h, content_hash("a", "bc"), "fields are length-prefixed");
        assert_ne!(h, content_hash("ab", "c "));
        assert_eq!(h, content_hash("ab", "c"));
        // Every tail length hashes its bytes, not its padding.
        let long = "x".repeat(40);
        for n in 0..40 {
            assert_ne!(
                content_hash(&long[..n], ""),
                content_hash(&long[..n + 1], "")
            );
        }
    }

    #[test]
    fn rows_round_trip_through_a_frame_payload() {
        let desc: [f32; DIM] = std::array::from_fn(|d| d as f32 * 0.5 - 3.0);
        let reacc: [f32; DIM] = std::array::from_fn(|d| -(d as f32));
        let spt = FeatureVec {
            items: vec![(3, 1.0), (u64::MAX, 2.5)],
        };
        for (kind, spt) in [(EntryKind::Pe, Some(&spt)), (EntryKind::Workflow, None)] {
            let row = IndexedRow {
                id: 42,
                kind,
                content: 7,
                desc,
                reacc,
                spt,
            };
            let mut bytes = Vec::new();
            encode_row(&row, &mut bytes);
            let back = decode_row(&bytes).expect("decodes");
            assert_eq!((back.id, back.kind, back.content), (42, kind, 7));
            assert_eq!(back.vectors.desc.values, desc);
            assert_eq!(back.vectors.reacc.values, reacc);
            assert_eq!(back.vectors.spt.as_ref(), spt);
            // One byte more or less is not a row.
            assert!(decode_row(&bytes[..bytes.len() - 1]).is_none());
            bytes.push(0);
            assert!(decode_row(&bytes).is_none());
        }
    }
}
