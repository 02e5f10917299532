//! Data-value normalization and interning.
//!
//! The DomainNet paper treats every cell of every table as a single opaque
//! string: "Every data value is treated as a single string, it is capitalized
//! and has its leading and trailing white-space removed to ensure consistent
//! comparison of data values across the lake" (§3.2). The same normalized
//! string occurring in several attributes is represented by *one* value node
//! in the bipartite graph, so the lake needs a global mapping from normalized
//! strings to dense integer identifiers. That mapping is a
//! [`crate::TextSet`] inside [`crate::MutableLake`]: a [`ValueId`] is a
//! value's position in it ([`crate::MutableLake::interner`]).

use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// A fast, non-cryptographic string hasher (the multiply-rotate scheme
/// popularized by Firefox and rustc's `FxHasher`).
///
/// It is the hash of [`crate::TextSet`], the one string set: the lake's
/// values and texts, each column's dictionary and a CSV parse's columns
/// are numbered through it on the hot path of both CSV ingestion and
/// snapshot recovery, where SipHash's keyed security buys nothing: the
/// keys are data values we already store verbatim, and the sets are
/// rebuilt from scratch on every load.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        self.add(tail ^ (bytes.len() as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A dense identifier for a distinct normalized data value in the lake.
///
/// `ValueId`s are assigned in insertion order starting from zero, which makes
/// them directly usable as node indices in the bipartite DomainNet graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for ValueId {
    fn from(raw: u32) -> Self {
        ValueId(raw)
    }
}

/// Normalize a raw cell into the lake-wide canonical form.
///
/// Normalization follows the paper: surrounding ASCII whitespace is trimmed
/// and the value is upper-cased (Unicode-aware). Interior whitespace is
/// collapsed to single spaces so that `"San  Diego"` and `"San Diego"`
/// compare equal — open-data tables are full of such formatting noise and
/// treating them as distinct values would split what is semantically one
/// value node into several.
///
/// ```
/// assert_eq!(lake::normalize("  jaguar "), "JAGUAR");
/// assert_eq!(lake::normalize("San  Diego"), "SAN DIEGO");
/// assert_eq!(lake::normalize(""), "");
/// ```
pub fn normalize(raw: &str) -> String {
    let mut out = String::new();
    normalize_into(raw, &mut out);
    out
}

/// Append the [`normalize`]d form of `raw` to `out`, so many values can be
/// normalized into one buffer without an allocation each.
///
/// ```
/// let mut out = String::from("A|");
/// lake::value::normalize_into(" b  c ", &mut out);
/// assert_eq!(out, "A|B C");
/// ```
pub fn normalize_into(raw: &str, out: &mut String) {
    let trimmed = raw.trim();
    out.reserve(trimmed.len());
    if trimmed.is_ascii() {
        // Bytewise fast path for the overwhelmingly common case: skips the
        // per-char decode and the `char::to_uppercase` iterator machinery.
        // Semantics match the general path exactly — for ASCII input,
        // `char::is_whitespace` accepts `\t \n \x0B \x0C \r ' '` and
        // uppercasing is the ASCII table. Normalization is on the critical
        // path of both CSV ingestion and snapshot recovery, so this is a
        // measured cold-start win, not speculation.
        let mut last_was_space = false;
        for &b in trimmed.as_bytes() {
            if b.is_ascii_whitespace() || b == 0x0B {
                if !last_was_space {
                    out.push(' ');
                    last_was_space = true;
                }
            } else {
                out.push(char::from(b.to_ascii_uppercase()));
                last_was_space = false;
            }
        }
        return;
    }
    let mut last_was_space = false;
    for ch in trimmed.chars() {
        if ch.is_whitespace() {
            if !last_was_space {
                out.push(' ');
                last_was_space = true;
            }
        } else {
            out.extend(ch.to_uppercase());
            last_was_space = false;
        }
    }
}

/// Returns `true` when a normalized value should be treated as missing.
///
/// Empty strings are never interned: an empty cell carries no co-occurrence
/// signal and would otherwise become an enormous artificial homograph hub.
/// Note that *textual* null markers such as `"."`, `"NA"`, or
/// `"NOT AVAILABLE"` are deliberately **kept** — the paper highlights that
/// these behave as genuine homographs in a lake and DomainNet should surface
/// them (§5.3 finds `"."` in the top-10).
#[inline]
pub fn is_missing(normalized: &str) -> bool {
    normalized.is_empty()
}

/// Classification of a value's lexical shape.
///
/// DomainNet itself is type-agnostic, but the D4 baseline only operates on
/// string attributes and the benchmark generators need to distinguish numeric
/// columns, so the substrate offers a lightweight sniffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueKind {
    /// Parses as an integer (optionally signed).
    Integer,
    /// Parses as a floating-point number (and not as an integer).
    Float,
    /// Anything else.
    Text,
}

/// Sniff the lexical kind of a (raw or normalized) value.
///
/// ```
/// use lake::value::{value_kind, ValueKind};
/// assert_eq!(value_kind("42"), ValueKind::Integer);
/// assert_eq!(value_kind("-3.25"), ValueKind::Float);
/// assert_eq!(value_kind("1.5M"), ValueKind::Text);
/// assert_eq!(value_kind("Jaguar"), ValueKind::Text);
/// ```
pub fn value_kind(value: &str) -> ValueKind {
    let v = value.trim();
    if v.is_empty() {
        return ValueKind::Text;
    }
    if v.parse::<i64>().is_ok() {
        ValueKind::Integer
    } else if v.parse::<f64>().is_ok() {
        ValueKind::Float
    } else {
        ValueKind::Text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TextSet;

    #[test]
    fn normalize_trims_and_uppercases() {
        assert_eq!(normalize("  jaguar "), "JAGUAR");
        assert_eq!(normalize("Puma"), "PUMA");
        assert_eq!(normalize("tOYOTA"), "TOYOTA");
    }

    #[test]
    fn normalize_collapses_interior_whitespace() {
        assert_eq!(normalize("San  Diego"), "SAN DIEGO");
        assert_eq!(normalize("a\tb\nc"), "A B C");
    }

    #[test]
    fn normalize_handles_unicode() {
        assert_eq!(normalize("café"), "CAFÉ");
        assert_eq!(normalize("straße"), "STRASSE");
    }

    #[test]
    fn normalize_empty_is_missing() {
        assert!(is_missing(&normalize("   ")));
        assert!(is_missing(&normalize("")));
        assert!(!is_missing(&normalize(".")));
        assert!(!is_missing(&normalize("NA")));
    }

    // The lake's values are a `TextSet`: a value's id is its position.

    #[test]
    fn intern_is_idempotent() {
        let mut values = TextSet::default();
        let (a, new) = values.insert("JAGUAR");
        assert!(new);
        assert_eq!(values.insert("JAGUAR"), (a, false));
        assert_eq!(values.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut values = TextSet::default();
        let ids: Vec<u32> = ["A", "B", "C"].iter().map(|v| values.insert(v).0).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(values.texts().get(1), Some("B"));
    }

    #[test]
    fn get_does_not_insert() {
        let mut values = TextSet::default();
        values.insert("A");
        assert!(values.get("B").is_none());
        assert_eq!(values.len(), 1);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut values = TextSet::default();
        values.insert("X");
        values.insert("Y");
        assert_eq!(values.texts().iter().collect::<Vec<_>>(), ["X", "Y"]);
    }

    #[test]
    fn value_kind_sniffing() {
        assert_eq!(value_kind("42"), ValueKind::Integer);
        assert_eq!(value_kind("-17"), ValueKind::Integer);
        assert_eq!(value_kind("3.25"), ValueKind::Float);
        assert_eq!(value_kind("-0.5"), ValueKind::Float);
        assert_eq!(value_kind("1e6"), ValueKind::Float);
        assert_eq!(value_kind("0.9M"), ValueKind::Text);
        assert_eq!(value_kind("Jaguar"), ValueKind::Text);
        assert_eq!(value_kind(""), ValueKind::Text);
    }
}
