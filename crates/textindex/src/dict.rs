//! Term interning: a bidirectional `String` ↔ [`TermId`] dictionary.
//!
//! Every testbed shares one `TermDict`. Documents, posting lists, content
//! summaries, and the shrinkage EM all operate on dense `u32` term ids,
//! which keeps a multi-hundred-thousand-document corpus in a few hundred
//! megabytes and makes the hot loops integer-keyed. Strings appear only at
//! the edges (text analysis and result display).

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Dense identifier of an interned term.
pub type TermId = u32;

/// An append-only string interner.
///
/// Each term is stored once: the text of every term lies in one `String`,
/// term `id` between `ends[id - 1]` and `ends[id]`, and an open-addressing
/// table of ids finds a term by its text. The table is keyed with a random
/// per-process hash key ([`RandomState`]): refresh rounds intern words from
/// sampled documents, which a hostile database controls.
#[derive(Debug, Clone, Default)]
pub struct TermDict {
    /// Every term's text, in id order.
    text: String,
    /// Where each term's text ends in `text`.
    ends: Vec<u32>,
    /// Term ids by hash, linear probing; [`EMPTY`] marks a free slot. Its
    /// length is zero or a power of two at least twice the term count.
    table: Vec<TermId>,
    hasher: RandomState,
}

/// A free slot of [`TermDict::table`].
const EMPTY: TermId = TermId::MAX;

impl TermDict {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table slot holding `term`, or the free slot where it would go.
    /// The table must have a free slot.
    fn slot(&self, term: &str) -> usize {
        let mask = self.table.len() - 1;
        let mut at = self.hasher.hash_one(term) as usize & mask;
        loop {
            let id = self.table[at];
            if id == EMPTY || self.term(id) == term {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Intern `term`, returning its id (existing or fresh).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(id) = self.lookup(term) {
            return id;
        }
        let id = TermId::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("term dictionary overflow");
        self.text.push_str(term);
        let end = u32::try_from(self.text.len()).expect("term dictionary text overflow");
        self.ends.push(end);
        if self.table.len() < 2 * self.ends.len() {
            self.rehash((2 * self.ends.len()).next_power_of_two().max(16));
        } else {
            let at = self.slot(term);
            self.table[at] = id;
        }
        id
    }

    /// Rebuild the table with `slots` slots.
    fn rehash(&mut self, slots: usize) {
        self.table.clear();
        self.table.resize(slots, EMPTY);
        for id in 0..self.ends.len() as TermId {
            let at = self.slot(self.term(id));
            self.table[at] = id;
        }
    }

    /// Look up an already-interned term.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        if self.table.is_empty() {
            return None;
        }
        let id = self.table[self.slot(term)];
        (id != EMPTY).then_some(id)
    }

    /// The string for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn term(&self, id: TermId) -> &str {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start as usize..self.ends[id] as usize]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Release the slack the buffers grew while interning.
    pub fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Intern every token of an analyzed text.
    pub fn intern_all(&mut self, tokens: &[String]) -> Vec<TermId> {
        tokens.iter().map(|t| self.intern(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = TermDict::new();
        let a = d.intern("heart");
        let b = d.intern("heart");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_reversible() {
        let mut d = TermDict::new();
        let a = d.intern("alpha");
        let b = d.intern("beta");
        assert_eq!((a, b), (0, 1));
        assert_eq!(d.term(a), "alpha");
        assert_eq!(d.term(b), "beta");
    }

    #[test]
    fn lookup_misses_return_none() {
        let mut d = TermDict::new();
        d.intern("x");
        assert_eq!(d.lookup("x"), Some(0));
        assert_eq!(d.lookup("y"), None);
    }

    #[test]
    fn many_terms_survive_rehashing_in_id_order() {
        let mut d = TermDict::new();
        let words: Vec<String> = (0..5000).map(|i| format!("w{i}")).collect();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(d.intern(w), i as TermId);
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(d.lookup(w), Some(i as TermId));
            assert_eq!(d.term(i as TermId), w);
        }
        assert_eq!(d.lookup("w5000"), None);
        assert_eq!(d.intern(""), 5000);
        assert_eq!((d.lookup(""), d.term(5000)), (Some(5000), ""));
        let copy = d.clone();
        assert_eq!(copy.lookup("w4999"), Some(4999));
    }

    /// Each term is held once: a 14 020-term dictionary (a benchmark
    /// catalog's) of seven-letter words fits in well under half a megabyte
    /// — its text, its ends and a table at most three-quarters empty.
    #[test]
    fn a_dictionary_stores_each_term_once() {
        let mut d = TermDict::new();
        for i in 0..14_020 {
            d.intern(&format!("t{i:06}"));
        }
        d.shrink_to_fit();
        let bytes = d.text.capacity() + (d.ends.capacity() + d.table.capacity()) * 4;
        assert!(bytes <= 300_000, "{bytes} bytes");
    }

    #[test]
    fn intern_all_maps_token_vectors() {
        let mut d = TermDict::new();
        let ids = d.intern_all(&["a".into(), "b".into(), "a".into()]);
        assert_eq!(ids, vec![0, 1, 0]);
        assert!(!d.is_empty());
    }
}
