//! Database content summaries (Definitions 1 and 2 of the paper).
//!
//! A content summary `S(D)` holds the number of documents `|D|` and, for
//! every word `w`, the fraction `p(w|D)` of documents containing `w`.
//! Approximate summaries `Ŝ(D)` estimate both from a document sample.
//!
//! This reproduction additionally tracks term-frequency statistics, because
//! the LM selection algorithm and the KL metric define `p(w|D)` over token
//! occurrences (`tf(w,D) / Σ tf`) rather than document counts (Section 5.3).

use std::collections::HashMap;

use textindex::{Document, IndexedDatabase, TermId};

use crate::frozen::FrozenSummary;

/// Per-word statistics of a content summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordStats {
    /// Number of *sample* documents containing the word (exact count; equals
    /// the database document frequency for perfect summaries). This drives
    /// the score-uncertainty estimation of Section 4.
    pub sample_df: u32,
    /// Estimated number of documents in `D` containing the word.
    pub df: f64,
    /// Estimated total occurrences of the word in `D`.
    pub tf: f64,
}

/// A (possibly approximate) content summary of one database.
#[derive(Debug, Clone)]
pub struct ContentSummary {
    /// Estimated database size `|D̂|` (number of documents).
    db_size: f64,
    /// Number of documents the summary was computed from (`|S|`).
    sample_size: u32,
    /// Cached `Σ_w tf(w)` over the summary's estimates.
    total_tf: f64,
    /// Power-law exponent `γ` of the word document-frequency distribution,
    /// available once frequency estimation (Appendix A) has run.
    gamma: Option<f64>,
    words: HashMap<TermId, WordStats>,
}

impl ContentSummary {
    /// Assemble a summary from per-word statistics.
    pub fn new(db_size: f64, sample_size: u32, words: HashMap<TermId, WordStats>) -> Self {
        // Sum in key order so the cached total is independent of the map's
        // iteration order (bit-for-bit reproducibility).
        let mut tfs: Vec<(TermId, f64)> = words.iter().map(|(&t, w)| (t, w.tf)).collect();
        tfs.sort_unstable_by_key(|&(t, _)| t);
        let total_tf = tfs.iter().map(|&(_, tf)| tf).sum();
        ContentSummary {
            db_size,
            sample_size,
            total_tf,
            gamma: None,
            words,
        }
    }

    /// Thaw a frozen sample summary without re-summing: its `word_count`
    /// is the `Σ tf` every stored `p_tf` was divided by, so it is carried
    /// as the total (a re-sum may differ in the last bits). No γ.
    pub fn from_frozen(frozen: &FrozenSummary) -> Self {
        let words = frozen.terms().iter().zip(frozen.raw_column());
        let words = words.enumerate().map(|(i, (&t, &(df, tf)))| {
            let sample_df = frozen.sample_df_at(i);
            (t, WordStats { sample_df, df, tf })
        });
        ContentSummary {
            db_size: frozen.db_size(),
            sample_size: frozen.sample_size(),
            total_tf: frozen.word_count(),
            gamma: None,
            words: words.collect(),
        }
    }

    /// Build an approximate summary from a document sample (Definition 2),
    /// scaling document and term frequencies by `db_size / |S|` so that `df`
    /// estimates absolute counts in `D`.
    pub fn from_sample<'a>(docs: impl IntoIterator<Item = &'a Document>, db_size: f64) -> Self {
        let mut words: HashMap<TermId, WordStats> = HashMap::new();
        let mut sample_size = 0u32;
        for doc in docs {
            sample_size += 1;
            for term in doc.distinct_terms() {
                words
                    .entry(term)
                    .or_insert(WordStats {
                        sample_df: 0,
                        df: 0.0,
                        tf: 0.0,
                    })
                    .sample_df += 1;
            }
            for &term in &doc.tokens {
                words.get_mut(&term).expect("distinct term present").tf += 1.0;
            }
        }
        let scale = if sample_size == 0 {
            0.0
        } else {
            db_size / f64::from(sample_size)
        };
        for stats in words.values_mut() {
            stats.df = f64::from(stats.sample_df) * scale;
            stats.tf *= scale;
        }
        ContentSummary::new(db_size, sample_size, words)
    }

    /// Build the *perfect* summary of a database by examining every document
    /// (Definition 1) — the evaluation gold standard.
    pub fn perfect(db: &IndexedDatabase) -> Self {
        let index = db.index();
        let n = index.num_docs();
        let words = index
            .terms()
            .map(|(term, list)| {
                let df = list.document_frequency() as u32;
                (
                    term,
                    WordStats {
                        sample_df: df,
                        df: f64::from(df),
                        tf: list.collection_frequency as f64,
                    },
                )
            })
            .collect();
        ContentSummary::new(n as f64, n as u32, words)
    }

    /// Estimated number of documents `|D̂|`.
    pub fn db_size(&self) -> f64 {
        self.db_size
    }

    /// Replace the database-size estimate, rescaling `df`/`tf` estimates
    /// that were derived by sample scaling.
    pub fn set_db_size(&mut self, db_size: f64) {
        if self.db_size > 0.0 {
            let rescale = db_size / self.db_size;
            for stats in self.words.values_mut() {
                stats.df *= rescale;
                stats.tf *= rescale;
            }
            self.total_tf *= rescale;
        }
        self.db_size = db_size;
    }

    /// Number of sample documents the summary was built from.
    pub fn sample_size(&self) -> u32 {
        self.sample_size
    }

    /// `Σ_w tf(w)`: the estimated token count of the database (CORI's
    /// `cw(D)`).
    pub fn total_tf(&self) -> f64 {
        self.total_tf
    }

    /// Power-law exponent `γ`, if frequency estimation has run.
    pub fn gamma(&self) -> Option<f64> {
        self.gamma
    }

    /// Record the power-law exponent `γ` (Appendix B).
    pub fn set_gamma(&mut self, gamma: f64) {
        self.gamma = Some(gamma);
    }

    /// Statistics for `term`, if present in the summary.
    pub fn word(&self, term: TermId) -> Option<&WordStats> {
        self.words.get(&term)
    }

    /// Overwrite the statistics for `term` (used by frequency estimation).
    pub fn set_word(&mut self, term: TermId, stats: WordStats) {
        let old_tf = self.words.get(&term).map_or(0.0, |w| w.tf);
        self.total_tf += stats.tf - old_tf;
        self.words.insert(term, stats);
    }

    /// Number of distinct words in the summary.
    pub fn vocabulary_size(&self) -> usize {
        self.words.len()
    }

    /// Iterate over `(term, stats)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &WordStats)> {
        self.words.iter().map(|(&t, s)| (t, s))
    }

    /// The estimated fraction of documents containing `term`:
    /// `p̂(w|D) = df / |D̂|` (0 for absent words).
    pub fn p_df(&self, term: TermId) -> f64 {
        self.words
            .get(&term)
            .map_or(0.0, |w| ratio(w.df, self.db_size))
    }

    /// The estimated token-level probability `tf(w) / Σ tf` used by the LM
    /// algorithm (0 for absent words).
    pub fn p_tf(&self, term: TermId) -> f64 {
        self.words
            .get(&term)
            .map_or(0.0, |w| ratio(w.tf, self.total_tf))
    }

    /// `(term, p_df, p_tf)` for every word, in arbitrary order: the values
    /// [`Self::p_df`] and [`Self::p_tf`] return, without a lookup per word.
    pub fn probabilities(&self) -> impl Iterator<Item = (TermId, f64, f64)> + '_ {
        self.words_with_probabilities()
            .map(|(t, _, p_df, p_tf)| (t, p_df, p_tf))
    }

    /// [`Self::probabilities`] with each word's statistics beside them.
    pub(crate) fn words_with_probabilities(
        &self,
    ) -> impl Iterator<Item = (TermId, &WordStats, f64, f64)> + '_ {
        self.words.iter().map(|(&t, w)| {
            let (p_df, p_tf) = (ratio(w.df, self.db_size), ratio(w.tf, self.total_tf));
            (t, w, p_df, p_tf)
        })
    }
}

/// `count / total`, or 0 when the total is: a degenerate summary has no
/// probability mass to hand out.
pub(crate) fn ratio(count: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        count / total
    }
}

/// Read-only view shared by approximate, perfect, and shrunk summaries:
/// everything a database selection algorithm needs.
pub trait SummaryView {
    /// Estimated database size `|D̂|`.
    fn db_size(&self) -> f64;
    /// Estimated fraction of documents containing `term`.
    fn p_df(&self, term: TermId) -> f64;
    /// Estimated token-level probability of `term`.
    fn p_tf(&self, term: TermId) -> f64;
    /// Estimated total token count (CORI's `cw(D)`).
    fn word_count(&self) -> f64;

    /// Does the summary "effectively" contain `term`, i.e.
    /// `round(|D̂| · p̂(w|D)) ≥ 1`? The paper uses this rule both when
    /// computing CORI's `cf(w)` over shrunk summaries (Section 5.3) and when
    /// evaluating recall/precision (Section 6.1).
    fn effectively_contains(&self, term: TermId) -> bool {
        // `x >= 0.5` is `x.round() >= 1.0` for every f64: `round` rounds
        // half away from zero.
        self.db_size() * self.p_df(term) >= 0.5
    }
}

impl SummaryView for ContentSummary {
    fn db_size(&self) -> f64 {
        self.db_size
    }

    fn p_df(&self, term: TermId) -> f64 {
        ContentSummary::p_df(self, term)
    }

    fn p_tf(&self, term: TermId) -> f64 {
        ContentSummary::p_tf(self, term)
    }

    fn word_count(&self) -> f64 {
        self.total_tf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u32, terms: &[TermId]) -> Document {
        Document::from_tokens(id, terms.to_vec())
    }

    #[test]
    fn from_sample_counts_document_frequencies() {
        // Sample of 2 docs standing in for a database of 10.
        let docs = [doc(0, &[1, 1, 2]), doc(1, &[1, 3])];
        let s = ContentSummary::from_sample(docs.iter(), 10.0);
        assert_eq!(s.sample_size(), 2);
        assert_eq!(s.db_size(), 10.0);
        // Term 1 in 2/2 sample docs → df estimate 10, p_df = 1.0.
        assert_eq!(s.word(1).unwrap().sample_df, 2);
        assert!((s.p_df(1) - 1.0).abs() < 1e-12);
        // Term 2 in 1/2 sample docs → p_df = 0.5.
        assert!((s.p_df(2) - 0.5).abs() < 1e-12);
        // tf: term 1 occurs 3 times in sample of 5 tokens → scaled tf 15.
        assert!((s.word(1).unwrap().tf - 15.0).abs() < 1e-12);
        assert!((s.p_tf(1) - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_summary_matches_index_stats() {
        let db = IndexedDatabase::new("d", vec![doc(0, &[1, 2]), doc(1, &[1]), doc(2, &[3])]);
        let s = ContentSummary::perfect(&db);
        assert_eq!(s.db_size(), 3.0);
        assert_eq!(s.sample_size(), 3);
        assert!((s.p_df(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.p_df(3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.p_df(99), 0.0);
        assert_eq!(s.vocabulary_size(), 3);
    }

    #[test]
    fn set_db_size_rescales_estimates() {
        let docs = [doc(0, &[1]), doc(1, &[1, 2])];
        let mut s = ContentSummary::from_sample(docs.iter(), 2.0);
        assert!((s.word(1).unwrap().df - 2.0).abs() < 1e-12);
        s.set_db_size(20.0);
        assert!((s.word(1).unwrap().df - 20.0).abs() < 1e-12);
        // p_df is invariant under size re-estimation.
        assert!((s.p_df(2) - 0.5).abs() < 1e-12);
        assert!((s.total_tf() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn effectively_contains_uses_rounding_rule() {
        let mut words = HashMap::new();
        words.insert(
            1,
            WordStats {
                sample_df: 1,
                df: 0.4,
                tf: 0.4,
            },
        );
        words.insert(
            2,
            WordStats {
                sample_df: 1,
                df: 0.6,
                tf: 0.6,
            },
        );
        let s = ContentSummary::new(100.0, 10, words);
        assert!(!s.effectively_contains(1), "round(0.4) < 1");
        assert!(s.effectively_contains(2), "round(0.6) >= 1");
        assert!(!s.effectively_contains(42));
    }

    #[test]
    fn set_word_updates_total_tf() {
        let docs = [doc(0, &[1, 2])];
        let mut s = ContentSummary::from_sample(docs.iter(), 1.0);
        let before = s.total_tf();
        s.set_word(
            1,
            WordStats {
                sample_df: 1,
                df: 5.0,
                tf: 7.0,
            },
        );
        assert!((s.total_tf() - (before - 1.0 + 7.0)).abs() < 1e-12);
    }

    #[test]
    fn from_frozen_carries_the_total_every_p_tf_was_divided_by() {
        let stats = |sample_df, tf| WordStats {
            sample_df,
            df: 2.0,
            tf,
        };
        let mut s = ContentSummary::new(10.0, 3, [(1, stats(1, 0.1)), (2, stats(2, 0.2))].into());
        s.set_word(1, stats(3, 0.7));
        let resummed = ContentSummary::new(10.0, 3, s.iter().map(|(t, w)| (t, *w)).collect());
        assert_ne!(resummed.total_tf().to_bits(), s.total_tf().to_bits());
        let frozen = FrozenSummary::from_unshrunk(&s);
        let thawed = ContentSummary::from_frozen(&frozen);
        assert_eq!(thawed.total_tf().to_bits(), s.total_tf().to_bits());
        assert_eq!(FrozenSummary::from_unshrunk(&thawed), frozen);
        for t in [1, 2, 3] {
            assert_eq!(thawed.word(t), s.word(t));
            assert_eq!(thawed.p_tf(t).to_bits(), s.p_tf(t).to_bits());
        }
        assert_eq!(thawed.gamma(), None);
    }

    #[test]
    fn empty_sample_is_safe() {
        let s = ContentSummary::from_sample(std::iter::empty(), 0.0);
        assert_eq!(s.vocabulary_size(), 0);
        assert_eq!(s.p_df(0), 0.0);
        assert_eq!(s.p_tf(0), 0.0);
    }
}
