//! Membership sets over dense ids (term and document ids). The samplers
//! only ask "seen?", so a bit per id, grown to the largest id inserted,
//! replaces a hashed set.

/// A set of `u32` ids stored as bits.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// Add `id`; true when it was not in the set yet.
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Is `id` in the set?
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.words
            .get(id as usize / 64)
            .is_some_and(|&w| w & (1u64 << (id % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_new_ids_and_contains_agrees() {
        let mut set = IdSet::default();
        assert!(!set.contains(0));
        assert!(set.insert(70));
        assert!(!set.insert(70));
        assert!(set.contains(70));
        assert!(!set.contains(69) && !set.contains(71) && !set.contains(10_000));
        assert!(set.insert(0));
        assert!(set.contains(0) && set.contains(70));
    }
}
