//! Data-value normalization and interning.
//!
//! The DomainNet paper treats every cell of every table as a single opaque
//! string: "Every data value is treated as a single string, it is capitalized
//! and has its leading and trailing white-space removed to ensure consistent
//! comparison of data values across the lake" (§3.2). The same normalized
//! string occurring in several attributes is represented by *one* value node
//! in the bipartite graph, so the lake needs a global mapping from normalized
//! strings to dense integer identifiers. That mapping is the
//! [`ValueInterner`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// A fast, non-cryptographic string hasher (the multiply-rotate scheme
/// popularized by Firefox and rustc's `FxHasher`).
///
/// The interner's string→id map — and the per-column maps in
/// [`crate::column`] — sit on the hot path of both CSV ingestion and
/// snapshot recovery, where SipHash's keyed security buys nothing: the
/// keys are data values we already store verbatim, and the maps are
/// rebuilt from scratch on every load. Swapping the hasher measurably
/// shortens cold starts.
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

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`] — the lake's default for hot-path maps.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

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

/// A global mapping between normalized data values and dense [`ValueId`]s.
///
/// The interner owns one copy of every distinct normalized string in the lake
/// and hands out stable ids. Lookups by string and by id are both O(1).
#[derive(Debug, Default, Clone)]
pub struct ValueInterner {
    values: Vec<String>,
    index: FxHashMap<String, ValueId>,
}

impl ValueInterner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty interner with space for `capacity` distinct values.
    pub fn with_capacity(capacity: usize) -> Self {
        ValueInterner {
            values: Vec::with_capacity(capacity),
            index: FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
        }
    }

    /// Rebuild an interner from its value table (ids are the positions),
    /// e.g. when loading persisted state. Cheaper than re-interning one by
    /// one — the table is adopted as-is and each value is cloned once for
    /// the index instead of twice.
    ///
    /// # Errors
    /// The first duplicated value, as `(kept id, duplicate position)` —
    /// duplicates would silently alias two ids onto one string.
    pub fn from_values(values: Vec<String>) -> std::result::Result<Self, (ValueId, usize)> {
        let mut index = FxHashMap::with_capacity_and_hasher(values.len(), FxBuildHasher::default());
        for (i, v) in values.iter().enumerate() {
            if let Some(&prev) = index.get(v) {
                return Err((prev, i));
            }
            index.insert(v.clone(), ValueId(i as u32));
        }
        Ok(ValueInterner { values, index })
    }

    /// Intern an **already normalized** value ([`normalize`]), returning its
    /// id. Calling this with a non-normalized string would create a distinct
    /// entry.
    pub fn intern(&mut self, normalized: &str) -> ValueId {
        if let Some(&id) = self.index.get(normalized) {
            return id;
        }
        let id = ValueId(self.values.len() as u32);
        self.values.push(normalized.to_owned());
        self.index.insert(normalized.to_owned(), id);
        id
    }

    /// Look up the id of a normalized value without inserting it.
    pub fn get(&self, normalized: &str) -> Option<ValueId> {
        self.index.get(normalized).copied()
    }

    /// The normalized string behind an id, if it exists.
    pub fn try_resolve(&self, id: ValueId) -> Option<&str> {
        self.values.get(id.index()).map(String::as_str)
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate over `(ValueId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ValueId(i as u32), v.as_str()))
    }
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

    #[test]
    fn intern_is_idempotent() {
        let mut interner = ValueInterner::new();
        let a = interner.intern("JAGUAR");
        let b = interner.intern("JAGUAR");
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut interner = ValueInterner::new();
        let ids: Vec<ValueId> = ["A", "B", "C"].iter().map(|v| interner.intern(v)).collect();
        assert_eq!(ids, vec![ValueId(0), ValueId(1), ValueId(2)]);
        assert_eq!(interner.try_resolve(ValueId(1)), Some("B"));
    }

    #[test]
    fn get_does_not_insert() {
        let mut interner = ValueInterner::new();
        interner.intern("A");
        assert!(interner.get("B").is_none());
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut interner = ValueInterner::new();
        interner.intern("X");
        interner.intern("Y");
        let collected: Vec<(ValueId, &str)> = interner.iter().collect();
        assert_eq!(collected, vec![(ValueId(0), "X"), (ValueId(1), "Y")]);
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
