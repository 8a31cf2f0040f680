//! The value type flowing along workflow edges.
//!
//! dispel4py streams arbitrary Python objects; the Rust equivalent is a
//! compact JSON-like enum. Strings are `Arc<str>` so cloning a record to
//! fan it out to several consumers is cheap (the multiprocessing mapping
//! clones once per target rank).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::sync::Arc;

/// A streamed value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Data {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    List(Vec<Data>),
    Map(BTreeMap<String, Data>),
}

impl Data {
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Data::Int(i) => Some(*i),
            Data::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Data::Float(f) => Some(*f),
            Data::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Data::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_map(&self) -> Option<&BTreeMap<String, Data>> {
        match self {
            Data::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Field lookup for map records (used by `Grouping::GroupBy`).
    pub fn get(&self, key: &str) -> Option<&Data> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Stable hash for grouping: FNV-1a over the display form, fed
    /// straight from the formatter (no string is built) — deterministic
    /// across processes.
    pub fn group_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        let _ = write!(h, "{self}");
        h.0
    }

    /// Build a map record from pairs.
    pub fn record<I, K>(pairs: I) -> Data
    where
        I: IntoIterator<Item = (K, Data)>,
        K: Into<String>,
    {
        Data::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// FNV-1a, the repo's stock string hash, as a `fmt::Write`: it hashes
/// whatever is formatted into it.
pub(crate) struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Data::Null => write!(f, "None"),
            Data::Bool(b) => write!(f, "{}", if *b { "True" } else { "False" }),
            Data::Int(i) => write!(f, "{i}"),
            Data::Float(x) => write!(f, "{x}"),
            Data::Str(s) => write!(f, "{s}"),
            Data::List(l) => {
                write!(f, "[")?;
                for (i, d) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, "]")
            }
            Data::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "'{k}': {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Data {
    fn from(v: i64) -> Self {
        Data::Int(v)
    }
}

impl From<i32> for Data {
    fn from(v: i32) -> Self {
        Data::Int(v as i64)
    }
}

impl From<u64> for Data {
    fn from(v: u64) -> Self {
        Data::Int(v as i64)
    }
}

impl From<f64> for Data {
    fn from(v: f64) -> Self {
        Data::Float(v)
    }
}

impl From<bool> for Data {
    fn from(v: bool) -> Self {
        Data::Bool(v)
    }
}

impl From<&str> for Data {
    fn from(v: &str) -> Self {
        Data::Str(Arc::from(v))
    }
}

impl From<String> for Data {
    fn from(v: String) -> Self {
        Data::Str(Arc::from(v.as_str()))
    }
}

impl<T: Into<Data>> From<Vec<T>> for Data {
    fn from(v: Vec<T>) -> Self {
        Data::List(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Data::from(3i64).as_int(), Some(3));
        assert_eq!(Data::from(2.5).as_float(), Some(2.5));
        assert_eq!(Data::from(7i64).as_float(), Some(7.0));
        assert_eq!(Data::from("hi").as_str(), Some("hi"));
        assert_eq!(Data::from(true).as_int(), Some(1));
        assert!(matches!(Data::from(vec![1i64, 2]), Data::List(l) if l.len() == 2));
        assert_eq!(Data::Null.as_int(), None);
    }

    #[test]
    fn record_and_get() {
        let r = Data::record([("temp", Data::from(21.5)), ("city", Data::from("lisbon"))]);
        assert_eq!(r.get("city").and_then(Data::as_str), Some("lisbon"));
        assert_eq!(r.get("missing"), None);
        assert_eq!(Data::from(1i64).get("x"), None);
    }

    #[test]
    fn display_is_pythonic() {
        assert_eq!(Data::Null.to_string(), "None");
        assert_eq!(Data::from(true).to_string(), "True");
        let r = Data::record([("input", Data::from(751i64))]);
        assert_eq!(r.to_string(), "{'input': 751}");
        assert_eq!(Data::from(vec![1i64, 2]).to_string(), "[1, 2]");
    }

    #[test]
    fn group_hash_stability_and_spread() {
        let a = Data::from("alpha");
        assert_eq!(a.group_hash(), Data::from("alpha").group_hash());
        assert_ne!(a.group_hash(), Data::from("beta").group_hash());
        // Int 1 and Str "1" share display → same hash; grouping semantics
        // treat them as the same key, which matches Python dict-key usage
        // in d4py workflows closely enough.
        assert_eq!(Data::from(1i64).group_hash(), Data::from("1").group_hash());
    }

    /// The reference: FNV-1a over the `to_string()` the hash used to build.
    fn fnv_of_string(d: &Data) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for b in d.to_string().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// A seeded nested value: maps, lists, floats, `Null`, `Bool`, and
    /// `Int` beside the `Str` of the same text.
    fn nested(x: &mut u64, depth: u32) -> Data {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let r = *x;
        match (r % 8, depth) {
            (0, _) => Data::Null,
            (1, _) => Data::from((r >> 3) & 1 == 0),
            (2, _) => Data::from((r >> 8) as i64 - (1 << 40)),
            (3, _) => Data::from((r >> 20) as i64 % 1000),
            (4, _) => Data::from(((r >> 11) as f64 / 977.0) - 3.5e6),
            (5, 0) | (6, 0) | (7, 0) => Data::from(format!("s{}", r % 97)),
            (5, _) => Data::List((0..r % 4).map(|_| nested(x, depth - 1)).collect()),
            (6, _) => Data::record((0..r % 4).map(|k| (format!("k{k}"), nested(x, depth - 1)))),
            _ => {
                let n = (r >> 9) as i64 % 1000;
                Data::from(vec![Data::from(n), Data::from(n.to_string())])
            }
        }
    }

    #[test]
    fn group_hash_streams_the_display_form_bit_for_bit() {
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            let d = nested(&mut x, 3);
            assert_eq!(d.group_hash(), fnv_of_string(&d), "{d}");
        }
        for d in [Data::Null, Data::from(true), Data::from(f64::NAN), Data::from(-0.0), Data::from(1e300)] {
            assert_eq!(d.group_hash(), fnv_of_string(&d), "{d}");
        }
    }

    #[test]
    fn cheap_clone_shares_string() {
        let s = Data::from("shared-payload");
        let t = s.clone();
        if let (Data::Str(a), Data::Str(b)) = (&s, &t) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!();
        }
    }

    #[test]
    fn serde_roundtrip() {
        let r = Data::record([
            ("xs", Data::from(vec![1i64, 2, 3])),
            ("ok", Data::from(true)),
        ]);
        let json = serde_json::to_string(&r).unwrap();
        let back: Data = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
