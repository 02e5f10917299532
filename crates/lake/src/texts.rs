//! The lake's one store of raw cell texts.
//!
//! A [`crate::delta::MutableLake`] keeps each distinct raw cell text once,
//! with the [`ValueId`] of its normalized form beside it, and a column
//! inside the lake is its name plus one [`TextId`] per cell. Repeats of a
//! text across columns and tables cost four bytes a cell, not a copy of
//! the text in every column's dictionary. The store is append-only, like
//! the lake's values: a text no live cell uses any more keeps its id.
//!
//! The store's open-addressing set, [`TextSet`], is the one structure
//! that numbers distinct strings in the order first seen: the lake's
//! values (a [`ValueId`] is a position in it), each column's dictionary
//! ([`crate::Column::new`], a CSV parse in `crate::loader`), the ingest
//! differ's per-column classes and a served snapshot's label index.

use std::hash::BuildHasher;

use crate::column::StringList;
use crate::value::{FxBuildHasher, ValueId};

/// The position of a raw text in the lake's one text store
/// ([`crate::delta::MutableLake::text`]).
pub type TextId = u32;

/// A slot of a [`TextSet`]'s table: a text id and the top 32 bits of its
/// text's hash, compared before the text is read.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: TextId,
    tag: u32,
}

/// An empty slot.
const EMPTY: Slot = Slot {
    id: TextId::MAX,
    tag: 0,
};

/// [`TextSet::clear`] empties its table in place while the table has at
/// most this many slots per text it forgets (and per [`MIN_TEXTS`]), and
/// releases it otherwise. A table grown for `n` texts has fewer than
/// `4 n` slots (or 16), so one sized for the texts it holds is kept.
const SLACK: usize = 8;
/// The text count [`SLACK`] is taken of when fewer texts were stored, so
/// the smallest table (16 slots) is always kept.
const MIN_TEXTS: usize = 2;

/// Distinct texts, each once, numbered in the order first stored.
///
/// Open addressing over text ids, probed linearly from the hash's top bits
/// (which the multiply mixes best); an empty slot ends a probe. The table's
/// length is a power of two at least twice the text count, or zero. Each
/// text is held once, in the set's one [`StringList`]; the table holds
/// only ids and hash tags.
///
/// ```
/// let mut set = lake::TextSet::default();
/// assert_eq!(set.insert("JAGUAR"), (0, true));
/// assert_eq!(set.insert("PUMA"), (1, true));
/// assert_eq!(set.insert("JAGUAR"), (0, false));
/// assert_eq!(set.get("PUMA"), Some(1));
/// assert_eq!(set.get("LYNX"), None);
/// assert_eq!(set.texts().iter().collect::<Vec<_>>(), ["JAGUAR", "PUMA"]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TextSet {
    texts: StringList,
    slots: Vec<Slot>,
}

impl TextSet {
    /// Number of texts stored.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Whether no text is stored.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// The texts, in the order first stored: text `id` is entry `id`.
    pub fn texts(&self) -> &StringList {
        &self.texts
    }

    /// The texts, in the order first stored, without the table.
    pub fn into_texts(self) -> StringList {
        self.texts
    }

    /// The id of `text`, if it is stored.
    pub fn get(&self, text: &str) -> Option<TextId> {
        self.probe(text, hash(text)).ok()
    }

    /// The id of `text`, and whether this call stored it (`false`: the id
    /// is the one it was first stored under).
    pub fn insert(&mut self, text: &str) -> (TextId, bool) {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = hash(text);
        let slot = match self.probe(text, hash) {
            Ok(id) => return (id, false),
            Err(slot) => slot,
        };
        let id = self.len() as TextId;
        self.texts.push(text);
        self.slots[slot] = Slot {
            id,
            tag: (hash >> 32) as u32,
        };
        (id, true)
    }

    /// Forget every text and keep the buffers, at a cost of O(texts
    /// forgotten): a table more than 8 times (`SLACK`) the size they needed
    /// is released rather than emptied, so a set that once held a huge
    /// column does not make every later clear pay for it.
    pub fn clear(&mut self) {
        if self.slots.len() > SLACK * self.len().max(MIN_TEXTS) {
            self.slots = Vec::new();
        } else {
            self.slots.fill(EMPTY);
        }
        self.texts.clear();
    }

    /// Number of slots in the table.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The id of `text` (`Ok`), or the empty slot it would take (`Err`).
    fn probe(&self, text: &str, hash: u64) -> Result<TextId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let tag = (hash >> 32) as u32;
        let mut at = home(hash, self.slots.len());
        loop {
            let slot = self.slots[at];
            if slot.id == EMPTY.id {
                return Err(at);
            }
            if slot.tag == tag && &self.texts[slot.id as usize] == text {
                return Ok(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Double the table (at least 16 slots) and re-place every id.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        for slot in old.into_iter().filter(|slot| slot.id != EMPTY.id) {
            // The tag is the hash's top half, all `home` reads.
            let mut at = home(u64::from(slot.tag) << 32, len);
            while self.slots[at].id != EMPTY.id {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = slot;
        }
    }
}

/// Each distinct raw text once, in the order first stored, with the value
/// id of its normalized form (`None`: it normalizes to the empty, missing
/// value).
#[derive(Debug, Default, Clone)]
pub(crate) struct TextStore {
    texts: TextSet,
    values: Vec<Option<ValueId>>,
}

impl TextStore {
    /// Number of texts stored.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// The text behind an id.
    pub(crate) fn text(&self, id: TextId) -> &str {
        &self.texts.texts()[id as usize]
    }

    /// The value id of a text's normalized form (`None` when it is empty).
    pub(crate) fn value(&self, id: TextId) -> Option<ValueId> {
        self.values[id as usize]
    }

    /// The id of `text`, if it is stored.
    pub(crate) fn get(&self, text: &str) -> Option<TextId> {
        self.texts.get(text)
    }

    /// The id of `text`, stored with the value id `value` of its
    /// normalized form if it is new.
    pub(crate) fn get_or_insert(&mut self, text: &str, value: Option<ValueId>) -> TextId {
        let (id, new) = self.texts.insert(text);
        if new {
            self.values.push(value);
        }
        id
    }
}

fn hash(text: &str) -> u64 {
    FxBuildHasher::default().hash_one(text)
}

/// The slot a probe for `hash` starts at in a table of `len` slots (a power
/// of two, at most 2^32): the hash's top bits.
fn home(hash: u64, len: usize) -> usize {
    (hash >> (u64::BITS - len.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn texts_are_stored_once_and_found_across_growth() {
        let mut store = TextStore::default();
        assert_eq!(store.get("x"), None);
        let ids: Vec<TextId> = (0..1_000)
            .map(|i| store.get_or_insert(&format!("t{i}"), (i % 3 != 0).then_some(ValueId(i))))
            .collect();
        assert_eq!(ids, (0..1_000).collect::<Vec<_>>());
        for i in 0..1_000u32 {
            let id = store.get(&format!("t{i}")).unwrap();
            assert_eq!(store.text(id), format!("t{i}"));
            assert_eq!(store.value(id), (i % 3 != 0).then_some(ValueId(i)));
        }
        assert_eq!(store.get("t1000"), None);
        assert_eq!(store.get(""), None);
        let empty = store.get_or_insert("", None);
        assert_eq!(store.get(""), Some(empty));
        assert_eq!(
            store.get_or_insert("t7", None),
            7,
            "a stored text keeps its id"
        );
        assert_eq!(store.value(7), Some(ValueId(7)));
        assert_eq!(store.len(), 1_001);
    }
}
