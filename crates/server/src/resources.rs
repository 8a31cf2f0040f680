//! Resource management and caching (paper §IV-F).
//!
//! Laminar 1.0 serialised a `resources/` directory into every execution
//! request — "repeated transmission of potentially large files". Laminar
//! 2.0 sends *references* (name + content hash); the server answers from
//! its cache and asks for only the missing files through a multipart
//! upload endpoint. This module implements the cache with bytes-on-wire
//! accounting so experiment E9 can quantify the saving.

use crate::protocol::{content_hash, ResourceRefWire};
use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

/// Reference to a resource by name + content hash.
pub type ResourceRef = ResourceRefWire;

#[derive(Default)]
struct CacheState {
    /// content hash → bytes.
    by_hash: HashMap<u64, Vec<u8>>,
    /// name → hash of the latest upload under that name.
    by_name: HashMap<String, u64>,
    bytes_received: u64,
    uploads: u64,
    dedup_hits: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// The server-side resource cache.
#[derive(Default)]
pub struct ResourceCache {
    state: RwLock<CacheState>,
}

/// Cache statistics for E9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceStats {
    pub bytes_received: u64,
    pub uploads: u64,
    pub dedup_hits: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl ResourceCache {
    pub fn new() -> Self {
        ResourceCache::default()
    }

    /// Check a run request's resource references; returns the names that
    /// must be uploaded before execution can proceed.
    pub fn missing(&self, refs: &[ResourceRef]) -> Vec<String> {
        let mut st = self.state.write().unwrap_or_else(PoisonError::into_inner);
        let mut missing = Vec::new();
        for r in refs {
            if st.by_hash.contains_key(&r.content_hash) {
                st.cache_hits += 1;
            } else {
                st.cache_misses += 1;
                missing.push(r.name.clone());
            }
        }
        missing
    }

    /// Multipart upload of one file. Returns `true` when the content was
    /// already cached under another name (dedup).
    pub fn store(&self, name: &str, bytes: Vec<u8>) -> bool {
        let hash = content_hash(&bytes);
        let mut st = self.state.write().unwrap_or_else(PoisonError::into_inner);
        st.bytes_received += bytes.len() as u64;
        st.uploads += 1;
        let dedup = st.by_hash.contains_key(&hash);
        if dedup {
            st.dedup_hits += 1;
        } else {
            st.by_hash.insert(hash, bytes);
        }
        st.by_name.insert(name.to_string(), hash);
        dedup
    }

    /// Fetch a resource's bytes by name (the execution engine's view).
    pub fn get(&self, name: &str) -> Option<Vec<u8>> {
        let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
        let hash = st.by_name.get(name)?;
        st.by_hash.get(hash).cloned()
    }

    pub fn stats(&self) -> ResourceStats {
        let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
        ResourceStats {
            bytes_received: st.bytes_received,
            uploads: st.uploads,
            dedup_hits: st.dedup_hits,
            cache_hits: st.cache_hits,
            cache_misses: st.cache_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_ref(name: &str, bytes: &[u8]) -> ResourceRef {
        ResourceRef {
            name: name.to_string(),
            content_hash: content_hash(bytes),
        }
    }

    #[test]
    fn miss_then_upload_then_hit() {
        let cache = ResourceCache::new();
        let data = b"col1,col2\n1,2\n".to_vec();
        let r = make_ref("input.csv", &data);
        assert_eq!(cache.missing(std::slice::from_ref(&r)), vec!["input.csv"]);
        assert!(!cache.store("input.csv", data.clone()));
        assert!(cache.missing(&[r]).is_empty(), "second run hits the cache");
        assert_eq!(cache.get("input.csv").unwrap(), data);
        let s = cache.stats();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.bytes_received, 14);
    }

    #[test]
    fn content_dedup_across_names() {
        let cache = ResourceCache::new();
        let data = b"shared bytes".to_vec();
        assert!(!cache.store("a.bin", data.clone()));
        assert!(cache.store("b.bin", data.clone()), "same content → dedup");
        assert_eq!(cache.stats().dedup_hits, 1);
        assert_eq!(cache.get("a.bin").unwrap(), cache.get("b.bin").unwrap());
    }

    #[test]
    fn changed_content_is_a_miss() {
        let cache = ResourceCache::new();
        let v1 = b"version 1".to_vec();
        cache.store("f", v1.clone());
        let v2 = b"version 2".to_vec();
        let r2 = make_ref("f", &v2);
        assert_eq!(cache.missing(&[r2]), vec!["f"], "hash mismatch → re-upload");
    }

    #[test]
    fn cached_flow_transmits_once() {
        // E9's shape: E executions of a workflow needing one big resource.
        let cache = ResourceCache::new();
        let data = vec![7u8; 10_000];
        let r = make_ref("big.bin", &data);
        for run in 0..5 {
            let missing = cache.missing(std::slice::from_ref(&r));
            if run == 0 {
                assert_eq!(missing.len(), 1);
                cache.store("big.bin", data.clone());
            } else {
                assert!(missing.is_empty());
            }
        }
        assert_eq!(
            cache.stats().bytes_received,
            10_000,
            "one transmission total"
        );
    }

    #[test]
    fn get_unknown_is_none() {
        assert!(ResourceCache::new().get("nope").is_none());
    }
}
