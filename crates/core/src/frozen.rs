//! Columnar, immutable summary views for the serving hot path.
//!
//! [`ContentSummary`] and [`ShrunkSummary`] answer `p̂(w|D)` lookups from a
//! hash map and per-component searches — the right shape while summaries
//! are being *built* (sampling inserts words in arbitrary order, the lazy
//! mixture spans shared category components), but the wrong shape for
//! *serving*, where summaries are frozen and every query walks thousands
//! of probability lookups. A
//! [`FrozenSummary`] stores the same numbers as term-sorted parallel arrays
//! (term ids, `p_df`, `p_tf`, `sample_df`) and answers lookups by binary
//! search over contiguous memory, so scoring chases no hash buckets and the
//! whole summary serializes as a straight array dump.
//!
//! Freezing is **bit-preserving**: a content summary's values come from
//! its own lookup path, a shrunk summary's from a [`ShrunkMixer`] that
//! performs, per word, exactly the floating-point operations of
//! `ShrunkSummary::mix` in exactly its order. Absent terms fall back to a
//! precomputed default — `0.0` for a content summary, `λ_0 · uniform_p`
//! for a shrunk mixture (the exact value the lazy mixture produces when no
//! component knows the word, because λ-weighted additions of absent keys
//! are skipped, not added as zeros). Rankings computed over frozen views
//! are therefore identical, `f64::to_bits` for `f64::to_bits`, to rankings
//! over the originals.

use std::sync::Arc;

use textindex::TermId;

use crate::category_summary::SummaryComponent;
use crate::shrinkage::ProbabilityModel::{self, DocumentFrequency, TermFrequency};
use crate::shrinkage::ShrunkSummary;
use crate::summary::{ContentSummary, SummaryView};

/// A summary frozen into term-sorted parallel arrays.
///
/// The term column sits behind an `Arc` so summaries over one vocabulary
/// can hold it once ([`Self::share_terms`]): after shrinkage every `R̂(D)`
/// under one hierarchy root stores exactly the same key set, and a catalog
/// of them would otherwise repeat it per database.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenSummary {
    db_size: f64,
    sample_size: u32,
    word_count: f64,
    /// `p̂(w|D)` for words absent from `terms` (0 for content summaries,
    /// `λ_0 · uniform_p` for shrunk mixtures).
    default_p_df: f64,
    /// Token-level default, same convention.
    default_p_tf: f64,
    /// Strictly ascending term ids; the index into the value columns.
    terms: Arc<[TermId]>,
    p_df: Vec<f64>,
    p_tf: Vec<f64>,
    /// Parallel to `terms`, or empty when every value is zero (every
    /// shrunk summary): [`Self::assemble`] normalises, so equality never
    /// sees which shape the column arrived in.
    sample_df: Vec<u32>,
}

impl FrozenSummary {
    /// The one constructor: every summary passes through here, which is
    /// what keeps the elided `sample_df` column a single representation.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        db_size: f64,
        sample_size: u32,
        word_count: f64,
        default_p_df: f64,
        default_p_tf: f64,
        terms: Arc<[TermId]>,
        p_df: Vec<f64>,
        p_tf: Vec<f64>,
        mut sample_df: Vec<u32>,
    ) -> FrozenSummary {
        if sample_df.iter().all(|&d| d == 0) {
            sample_df = Vec::new();
        }
        FrozenSummary {
            db_size,
            sample_size,
            word_count,
            default_p_df,
            default_p_tf,
            terms,
            p_df,
            p_tf,
            sample_df,
        }
    }

    /// Freeze a database content summary.
    pub fn from_unshrunk(s: &ContentSummary) -> FrozenSummary {
        let mut terms: Vec<TermId> = s.iter().map(|(t, _)| t).collect();
        terms.sort_unstable();
        let p_df = terms.iter().map(|&t| ContentSummary::p_df(s, t)).collect();
        let p_tf = terms.iter().map(|&t| ContentSummary::p_tf(s, t)).collect();
        let sample_df = terms
            .iter()
            .map(|&t| s.word(t).expect("term from iter").sample_df)
            .collect();
        FrozenSummary::assemble(
            s.db_size(),
            s.sample_size(),
            s.total_tf(),
            0.0,
            0.0,
            terms.into(),
            p_df,
            p_tf,
            sample_df,
        )
    }

    /// Freeze a shrunk summary by materializing the mixture over its full
    /// vocabulary (see [`ShrunkMixer`]).
    pub fn from_shrunk(s: &ShrunkSummary) -> FrozenSummary {
        let (lambdas_df, lambdas_tf) = (s.lambdas(), s.lambdas_tf());
        let mut mixer = ShrunkMixer::default();
        mixer.start(&s.components, lambdas_df, lambdas_tf, s.uniform_p());
        mixer.add(
            s.db_p_df.iter(),
            DocumentFrequency,
            lambdas_df.last().copied(),
        );
        mixer.add(s.db_p_tf.iter(), TermFrequency, lambdas_tf.last().copied());
        mixer.finish(s.db_size(), s.word_count())
    }

    /// Reassemble a frozen summary from decoded columns — the snapshot
    /// load path. Validates the structural invariants a codec cannot
    /// express (strictly ascending terms, equal column lengths, no word in
    /// more sample documents than the sample holds) so corrupt input is
    /// rejected instead of silently mis-searching. `sample_df` is checked
    /// as decoded, before an all-zero column is dropped.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        db_size: f64,
        sample_size: u32,
        word_count: f64,
        default_p_df: f64,
        default_p_tf: f64,
        terms: Vec<TermId>,
        p_df: Vec<f64>,
        p_tf: Vec<f64>,
        sample_df: Vec<u32>,
    ) -> Result<FrozenSummary, &'static str> {
        if p_df.len() != terms.len() || p_tf.len() != terms.len() || sample_df.len() != terms.len()
        {
            return Err("frozen summary columns disagree on length");
        }
        if terms.windows(2).any(|w| w[0] >= w[1]) {
            return Err("frozen summary terms not strictly ascending");
        }
        if sample_df.iter().any(|&s| s > sample_size) {
            return Err("frozen summary sample_df exceeds sample_size");
        }
        Ok(FrozenSummary::assemble(
            db_size,
            sample_size,
            word_count,
            default_p_df,
            default_p_tf,
            terms.into(),
            p_df,
            p_tf,
            sample_df,
        ))
    }

    /// Hold `other`'s term column in place of this summary's own when the
    /// two are equal; `false` (and no change) when the vocabularies differ.
    pub fn share_terms(&mut self, other: &FrozenSummary) -> bool {
        let same = Arc::ptr_eq(&self.terms, &other.terms) || self.terms == other.terms;
        if same {
            self.terms = Arc::clone(&other.terms);
        }
        same
    }

    /// Bytes of column data this summary holds, the term column apart
    /// (it may be shared; see [`Self::share_terms`]).
    pub fn value_bytes(&self) -> usize {
        (self.p_df.len() + self.p_tf.len()) * size_of::<f64>()
            + self.sample_df.len() * size_of::<u32>()
    }

    /// The index of `term` in the columns, if stored.
    pub fn position(&self, term: TermId) -> Option<usize> {
        self.terms.binary_search(&term).ok()
    }

    /// `p̂(w|D)` of the word at `position` (the default when `None`).
    pub fn p_df_at(&self, position: Option<usize>) -> f64 {
        position.map_or(self.default_p_df, |i| self.p_df[i])
    }

    /// Token probability of the word at `position` (the default when `None`).
    pub fn p_tf_at(&self, position: Option<usize>) -> f64 {
        position.map_or(self.default_p_tf, |i| self.p_tf[i])
    }

    /// Estimated database size `|D̂|`.
    pub fn db_size(&self) -> f64 {
        self.db_size
    }

    /// Number of sample documents the summary was built from.
    pub fn sample_size(&self) -> u32 {
        self.sample_size
    }

    /// Estimated total token count (CORI's `cw(D)`).
    pub fn word_count(&self) -> f64 {
        self.word_count
    }

    /// `p̂(w|D)` under the document-frequency model.
    pub fn p_df(&self, term: TermId) -> f64 {
        self.p_df_at(self.position(term))
    }

    /// `p̂(w|D)` under the term-frequency model.
    pub fn p_tf(&self, term: TermId) -> f64 {
        self.p_tf_at(self.position(term))
    }

    /// Number of *sample* documents containing `term` (0 when absent).
    pub fn sample_df(&self, term: TermId) -> u32 {
        self.position(term).map_or(0, |i| self.sample_df_at(i))
    }

    /// `sample_df` of the `i`-th stored term (`i < len()`); 0 throughout
    /// when the column is elided.
    pub fn sample_df_at(&self, i: usize) -> u32 {
        debug_assert!(i < self.len());
        self.sample_df.get(i).copied().unwrap_or(0)
    }

    /// Number of explicitly stored terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no term is explicitly stored.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The sorted term-id column.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// The `p_df` value column, parallel to [`Self::terms`].
    pub fn p_df_column(&self) -> &[f64] {
        &self.p_df
    }

    /// The `p_tf` value column, parallel to [`Self::terms`].
    pub fn p_tf_column(&self) -> &[f64] {
        &self.p_tf
    }

    /// The stored default `p_df` for absent terms.
    pub fn default_p_df(&self) -> f64 {
        self.default_p_df
    }

    /// The stored default `p_tf` for absent terms.
    pub fn default_p_tf(&self) -> f64 {
        self.default_p_tf
    }
}

/// One word's slot in a [`ShrunkMixer`]'s scratch.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    p_df: f64,
    p_tf: f64,
    /// The word is in the summary being mixed.
    present: bool,
}

/// Freezes shrunk summaries `R̂(D)` (Eq. 2) over a dense scratch indexed
/// by term id, reusable across databases.
///
/// Every word the database or any of its components knows, under either
/// model, starts at `λ_0 · uniform_p`; the components then add `λ_i·p̂(w|C_i)`
/// one after another, root first, to the words they know (a component
/// whose `λ_i` is 0 adds nothing, though its words still join the
/// vocabulary), and the database adds `λ_{m+1}·p̂(w|D)` last. That is the
/// lazy mixture's sequence of operations for every word, so each frozen
/// value is its value bit for bit — at the price of one pass over each
/// column instead of a search per (model, column, word). The scratch grows
/// to the largest term id it meets, so ids interned after a dictionary was
/// sized are covered.
#[derive(Debug, Default)]
pub struct ShrunkMixer {
    slots: Vec<Slot>,
    /// One past the largest term id of the summary being mixed.
    end: usize,
    /// Number of words of the summary being mixed.
    len: usize,
    /// `λ_0 · uniform_p` per model: every word's starting value, and the
    /// frozen defaults.
    base_df: f64,
    base_tf: f64,
}

impl ShrunkMixer {
    /// Freeze the shrunk summary of the database summarised by `db` under
    /// its category `components` (root first) and fitted λ vectors: bit
    /// for bit `FrozenSummary::from_shrunk(&ShrunkSummary::from_parts(db,
    /// components, lambdas_df, lambdas_tf, uniform_p))`, without building
    /// that summary's maps.
    pub fn freeze(
        &mut self,
        db: &ContentSummary,
        components: &[Arc<SummaryComponent>],
        lambdas_df: &[f64],
        lambdas_tf: &[f64],
        uniform_p: f64,
    ) -> FrozenSummary {
        self.start(components, lambdas_df, lambdas_tf, uniform_p);
        let own = db.probabilities();
        self.add(
            own.map(|(t, p, _)| (t, p)),
            DocumentFrequency,
            lambdas_df.last().copied(),
        );
        let own = db.probabilities();
        self.add(
            own.map(|(t, _, p)| (t, p)),
            TermFrequency,
            lambdas_tf.last().copied(),
        );
        self.finish(db.db_size(), db.total_tf())
    }

    /// Set the starting values and mix in the category components.
    fn start(
        &mut self,
        components: &[Arc<SummaryComponent>],
        lambdas_df: &[f64],
        lambdas_tf: &[f64],
        uniform_p: f64,
    ) {
        assert_eq!(
            lambdas_df.len(),
            components.len() + 2,
            "λ vector must cover uniform + components + database"
        );
        assert_eq!(lambdas_df.len(), lambdas_tf.len());
        self.base_df = lambdas_df[0] * uniform_p;
        self.base_tf = lambdas_tf[0] * uniform_p;
        for (i, c) in components.iter().enumerate() {
            let weight = |l: f64| (l != 0.0).then_some(l);
            self.add(c.p_df.iter(), DocumentFrequency, weight(lambdas_df[i + 1]));
            self.add(c.p_tf.iter(), TermFrequency, weight(lambdas_tf[i + 1]));
        }
    }

    /// Add `λ · p` to `model`'s value of every word in `probabilities`;
    /// with no weight the words only join the vocabulary.
    fn add(
        &mut self,
        probabilities: impl Iterator<Item = (TermId, f64)>,
        model: ProbabilityModel,
        lambda: Option<f64>,
    ) {
        for (term, p) in probabilities {
            let slot = self.touch(term);
            match (lambda, model) {
                (None, _) => {}
                (Some(l), DocumentFrequency) => slot.p_df += l * p,
                (Some(l), TermFrequency) => slot.p_tf += l * p,
            }
        }
    }

    /// `term`'s slot, entering the word at the starting values on first
    /// sight.
    fn touch(&mut self, term: TermId) -> &mut Slot {
        let i = term as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::default());
        }
        let slot = &mut self.slots[i];
        if !slot.present {
            *slot = Slot {
                p_df: self.base_df,
                p_tf: self.base_tf,
                present: true,
            };
            self.len += 1;
            self.end = self.end.max(i + 1);
        }
        slot
    }

    /// Read the mixed words out in ascending term order, leaving the
    /// scratch empty for the next summary.
    fn finish(&mut self, db_size: f64, word_count: f64) -> FrozenSummary {
        let mut terms = Vec::with_capacity(self.len);
        let mut p_df = Vec::with_capacity(self.len);
        let mut p_tf = Vec::with_capacity(self.len);
        for (term, slot) in self.slots[..self.end].iter_mut().enumerate() {
            if std::mem::take(&mut slot.present) {
                terms.push(term as TermId);
                p_df.push(slot.p_df);
                p_tf.push(slot.p_tf);
            }
        }
        self.end = 0;
        self.len = 0;
        FrozenSummary::assemble(
            db_size,
            0,
            word_count,
            self.base_df,
            self.base_tf,
            terms.into(),
            p_df,
            p_tf,
            Vec::new(),
        )
    }
}

impl SummaryView for FrozenSummary {
    fn db_size(&self) -> f64 {
        self.db_size
    }

    fn p_df(&self, term: TermId) -> f64 {
        FrozenSummary::p_df(self, term)
    }

    fn p_tf(&self, term: TermId) -> f64 {
        FrozenSummary::p_tf(self, term)
    }

    fn word_count(&self) -> f64 {
        self.word_count
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;

    use super::*;
    use crate::category_summary::SummaryComponent;
    use crate::shrinkage::{shrink, ShrinkageConfig};
    use crate::summary::WordStats;
    use textindex::Document;

    fn sample_summary(docs: &[Vec<TermId>], db_size: f64) -> ContentSummary {
        let docs: Vec<Document> = docs
            .iter()
            .enumerate()
            .map(|(i, t)| Document::from_tokens(i as u32, t.clone()))
            .collect();
        ContentSummary::from_sample(docs.iter(), db_size)
    }

    #[test]
    fn frozen_unshrunk_is_bit_identical() {
        let s = sample_summary(&[vec![3, 1, 1], vec![7, 3], vec![9]], 120.0);
        let f = FrozenSummary::from_unshrunk(&s);
        for t in [0u32, 1, 3, 7, 9, 100] {
            assert_eq!(f.p_df(t).to_bits(), s.p_df(t).to_bits());
            assert_eq!(f.p_tf(t).to_bits(), s.p_tf(t).to_bits());
            assert_eq!(f.sample_df(t), s.word(t).map_or(0, |w| w.sample_df));
            assert_eq!(f.effectively_contains(t), s.effectively_contains(t));
        }
        assert_eq!(f.db_size().to_bits(), s.db_size().to_bits());
        assert_eq!(f.word_count().to_bits(), s.total_tf().to_bits());
        assert_eq!(f.sample_size(), s.sample_size());
        assert!(f.terms().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn frozen_shrunk_is_bit_identical_including_defaults() {
        let db = sample_summary(&[vec![1, 2], vec![1, 3]], 100.0);
        let comp = Arc::new(SummaryComponent {
            p_df: [(1u32, 0.5f64), (4, 0.2)].into_iter().collect(),
            p_tf: [(1u32, 0.4f64), (4, 0.3)].into_iter().collect(),
        });
        let shrunk = shrink(&db, &[comp], &ShrinkageConfig::default());
        let f = FrozenSummary::from_shrunk(&shrunk);
        for t in [0u32, 1, 2, 3, 4, 42, 99_999] {
            assert_eq!(f.p_df(t).to_bits(), SummaryView::p_df(&shrunk, t).to_bits());
            assert_eq!(f.p_tf(t).to_bits(), SummaryView::p_tf(&shrunk, t).to_bits());
            assert_eq!(f.effectively_contains(t), shrunk.effectively_contains(t));
        }
        assert_eq!(f.db_size().to_bits(), shrunk.db_size().to_bits());
        assert_eq!(f.word_count().to_bits(), shrunk.word_count().to_bits());
    }

    #[test]
    fn frozen_shrunk_captures_tf_only_component_keys() {
        // A component with a key only in its tf map (the df denominator
        // degenerated): the frozen vocabulary must include it so the frozen
        // view stores its non-default p_tf.
        let db = sample_summary(&[vec![1]], 10.0);
        let comp = Arc::new(SummaryComponent {
            p_df: Default::default(),
            p_tf: [(8u32, 0.25f64)].into_iter().collect(),
        });
        let shrunk = shrink(&db, &[comp], &ShrinkageConfig::default());
        let f = FrozenSummary::from_shrunk(&shrunk);
        assert!(f.terms().contains(&8));
        assert_eq!(f.p_tf(8).to_bits(), SummaryView::p_tf(&shrunk, 8).to_bits());
        assert_eq!(f.p_df(8).to_bits(), SummaryView::p_df(&shrunk, 8).to_bits());
    }

    #[test]
    fn empty_summary_freezes_safely() {
        let s = sample_summary(&[], 0.0);
        let f = FrozenSummary::from_unshrunk(&s);
        assert!(f.is_empty());
        assert_eq!(f.p_df(0), 0.0);
        assert_eq!(f.p_tf(0), 0.0);
        assert_eq!(f.sample_df(0), 0);
    }

    #[test]
    fn zero_db_size_matches_source_zeroing() {
        // db_size == 0 makes ContentSummary::p_df return 0 even for
        // present words; the frozen copy must store those zeros.
        let mut words = HashMap::new();
        words.insert(
            5u32,
            WordStats {
                sample_df: 2,
                df: 3.0,
                tf: 4.0,
            },
        );
        let s = ContentSummary::new(0.0, 2, words);
        let f = FrozenSummary::from_unshrunk(&s);
        assert_eq!(f.p_df(5).to_bits(), s.p_df(5).to_bits());
        assert_eq!(f.p_df(5), 0.0);
        assert_eq!(f.sample_df(5), 2);
    }

    #[test]
    fn from_raw_parts_validates_structure() {
        assert!(FrozenSummary::from_raw_parts(
            1.0,
            1,
            1.0,
            0.0,
            0.0,
            vec![1, 2, 3],
            vec![0.1, 0.2, 0.3],
            vec![0.1, 0.2, 0.3],
            vec![1, 1, 1],
        )
        .is_ok());
        // Unsorted terms.
        assert!(FrozenSummary::from_raw_parts(
            1.0,
            1,
            1.0,
            0.0,
            0.0,
            vec![2, 1],
            vec![0.1, 0.2],
            vec![0.1, 0.2],
            vec![1, 1],
        )
        .is_err());
        // Duplicate terms.
        assert!(FrozenSummary::from_raw_parts(
            1.0,
            1,
            1.0,
            0.0,
            0.0,
            vec![1, 1],
            vec![0.1, 0.2],
            vec![0.1, 0.2],
            vec![1, 1],
        )
        .is_err());
        // A word in more sample documents than were sampled.
        assert!(FrozenSummary::from_raw_parts(
            1.0,
            1,
            1.0,
            0.0,
            0.0,
            vec![1, 2],
            vec![0.1, 0.2],
            vec![0.1, 0.2],
            vec![1, 2],
        )
        .is_err());
        // Ragged columns.
        assert!(FrozenSummary::from_raw_parts(
            1.0,
            1,
            1.0,
            0.0,
            0.0,
            vec![1, 2],
            vec![0.1],
            vec![0.1, 0.2],
            vec![1, 1],
        )
        .is_err());
    }

    #[test]
    fn raw_parts_round_trip_preserves_bits() {
        let s = sample_summary(&[vec![1, 2, 2], vec![4]], 50.0);
        let f = FrozenSummary::from_unshrunk(&s);
        let rebuilt = FrozenSummary::from_raw_parts(
            f.db_size(),
            f.sample_size(),
            f.word_count(),
            f.default_p_df(),
            f.default_p_tf(),
            f.terms().to_vec(),
            f.p_df_column().to_vec(),
            f.p_tf_column().to_vec(),
            (0..f.len()).map(|i| f.sample_df_at(i)).collect(),
        )
        .unwrap();
        assert_eq!(f, rebuilt);
    }

    /// What a snapshot writer emits for `f` and a reader hands back: the
    /// `sample_df` column spelled out, zeros included.
    fn reloaded(f: &FrozenSummary) -> FrozenSummary {
        FrozenSummary::from_raw_parts(
            f.db_size(),
            f.sample_size(),
            f.word_count(),
            f.default_p_df(),
            f.default_p_tf(),
            f.terms().to_vec(),
            f.p_df_column().to_vec(),
            f.p_tf_column().to_vec(),
            (0..f.len()).map(|i| f.sample_df_at(i)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn equality_does_not_see_the_elided_column() {
        // A shrunk summary never carries sample counts; an unshrunk one
        // whose counts all happen to be zero must behave the same way.
        let db = sample_summary(&[vec![1, 2], vec![1, 3]], 100.0);
        let comp = Arc::new(SummaryComponent {
            p_df: [(1u32, 0.5f64), (4, 0.2)].into_iter().collect(),
            p_tf: [(1u32, 0.4f64), (4, 0.3)].into_iter().collect(),
        });
        let shrunk = FrozenSummary::from_shrunk(&shrink(&db, &[comp], &ShrinkageConfig::default()));
        let zero = WordStats {
            sample_df: 0,
            df: 3.0,
            tf: 4.0,
        };
        let words = [(5u32, zero), (9, zero)].into_iter().collect();
        let unshrunk = FrozenSummary::from_unshrunk(&ContentSummary::new(50.0, 2, words));
        for f in [&shrunk, &unshrunk] {
            assert_eq!(f, &reloaded(f));
            assert_eq!(f.value_bytes(), f.len() * 16, "no sample_df bytes held");
            assert!(f.terms().iter().all(|&t| f.sample_df(t) == 0));
        }
        // A column with any non-zero count is kept whole.
        let counted = FrozenSummary::from_unshrunk(&db);
        assert_eq!(counted.value_bytes(), counted.len() * 20);
        assert_eq!(counted, reloaded(&counted));
        assert_eq!(counted.sample_df(1), 2);
    }

    #[test]
    fn term_columns_are_shared_only_when_equal() {
        let a = FrozenSummary::from_unshrunk(&sample_summary(&[vec![1, 2]], 10.0));
        let mut same = FrozenSummary::from_unshrunk(&sample_summary(&[vec![2, 1, 1]], 99.0));
        let mut other = FrozenSummary::from_unshrunk(&sample_summary(&[vec![1, 3]], 10.0));
        assert!(same.share_terms(&a));
        assert!(std::ptr::eq(same.terms(), a.terms()));
        assert!(!other.share_terms(&a));
        assert_eq!(other.terms(), &[1, 3]);
        // Sharing changes where the column lives, never what it says.
        assert_eq!(
            same,
            FrozenSummary::from_unshrunk(&sample_summary(&[vec![2, 1, 1]], 99.0))
        );
    }
}
