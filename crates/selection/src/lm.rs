//! The language-modelling (LM) database selection algorithm (Si, Jin,
//! Callan & Ogilvie, CIKM 2002), as specified in Section 5.3:
//!
//! ```text
//! s(q, D) = Π_{w ∈ q} ( λ·p̂(w|D) + (1 − λ)·p̂(w|G) )
//! ```
//!
//! where `p(w|D) = tf(w,D) / Σ tf` (term-frequency based, unlike
//! Definition 1) and `G` is a "global" category — the Root category summary
//! in the paper's experiments, with `λ = 0.5`. LM is equivalent to the
//! KL-divergence based selection of Xu & Croft. Its built-in linear
//! smoothing already covers missing words, which is why the paper finds it
//! benefits from shrinkage more selectively than bGlOSS.

use std::collections::HashMap;

use dbselect_core::summary::{ContentSummary, SummaryView};
use dbselect_core::uncertainty::{Combine, TermBasis, TermCoefficients};
use textindex::TermId;

use crate::context::{CollectionContext, IndependentTerms, SelectionAlgorithm};

/// The LM scorer, carrying the global ("Root") language model.
#[derive(Debug, Clone)]
pub struct Lm {
    /// Interpolation weight of the database model (0.5 in the paper).
    pub lambda: f64,
    global: HashMap<TermId, f64>,
}

impl Lm {
    /// Build from the Root category summary (or any summary standing in for
    /// the global language model `G`).
    pub fn new(lambda: f64, global_summary: &ContentSummary) -> Self {
        let global = global_summary
            .iter()
            .map(|(t, _)| (t, global_summary.p_tf(t)))
            .collect();
        Lm { lambda, global }
    }

    /// Build with an explicit global model (mostly for tests).
    pub fn from_global_map(lambda: f64, global: HashMap<TermId, f64>) -> Self {
        Lm { lambda, global }
    }

    /// `p̂(w|G)`.
    pub fn global_p(&self, word: TermId) -> f64 {
        self.global.get(&word).copied().unwrap_or(0.0)
    }
}

/// The per-word conversion from document-frequency fractions to LM's
/// token-probability space: the summary's own `p_tf/p_df` ratio for the
/// word, falling back to `1/avg_doc_len` (one occurrence per containing
/// document) for words the summary lacks. Bounded by 1, so a converted
/// fraction `p·ratio` is always a probability.
fn df_to_tf_ratio(p_df: f64, p_tf: f64, summary: &dyn SummaryView) -> f64 {
    let ratio = if p_df > 0.0 && p_tf > 0.0 {
        p_tf / p_df
    } else if summary.word_count() > 0.0 {
        summary.db_size() / summary.word_count()
    } else {
        1.0
    };
    ratio.min(1.0)
}

/// LM is a product of independent affine terms
/// `λ·ratio_k·p_k + (1−λ)·p̂(w_k|G)`.
impl IndependentTerms for Lm {
    fn combine(&self, _summary: &dyn SummaryView) -> Combine {
        Combine::Product { scale: 1.0 }
    }

    fn basis(&self, _summary: &dyn SummaryView, _ctx: &CollectionContext) -> TermBasis {
        TermBasis::Fraction
    }

    fn query_term(&self, query: &[TermId], k: usize, _ctx: &CollectionContext) -> TermCoefficients {
        TermCoefficients {
            intercept: (1.0 - self.lambda) * self.global_p(query[k]),
            presence: 0.0,
            slope: self.lambda,
        }
    }

    fn slope_scale(&self, p_df: f64, p_tf: f64, summary: &dyn SummaryView) -> f64 {
        df_to_tf_ratio(p_df, p_tf, summary)
    }
}

impl SelectionAlgorithm for Lm {
    fn name(&self) -> &'static str {
        "LM"
    }

    /// LM reads the term-frequency based probability.
    fn word_probability(&self, summary: &dyn SummaryView, word: TermId) -> f64 {
        summary.p_tf(word)
    }

    fn score_with_p(
        &self,
        query: &[TermId],
        p: &[f64],
        _summary: &dyn SummaryView,
        _ctx: &CollectionContext,
    ) -> f64 {
        if query.is_empty() {
            return 0.0;
        }
        query
            .iter()
            .zip(p)
            .map(|(&w, &pw)| self.lambda * pw + (1.0 - self.lambda) * self.global_p(w))
            .product()
    }

    /// The uncertainty machinery substitutes *document*-frequency fractions
    /// `d_k/|D|`, but LM probabilities live in token space (`tf / Σtf`,
    /// roughly two orders of magnitude smaller); convert each with
    /// [`df_to_tf_ratio`].
    fn score_with_df_fractions(
        &self,
        query: &[TermId],
        p_df: &[f64],
        summary: &dyn SummaryView,
        ctx: &CollectionContext,
    ) -> f64 {
        let converted: Vec<f64> = query
            .iter()
            .zip(p_df)
            .map(|(&w, &p)| p * df_to_tf_ratio(summary.p_df(w), summary.p_tf(w), summary))
            .collect();
        self.score_with_p(query, &converted, summary, ctx)
    }

    fn independent_terms(&self) -> Option<&dyn IndependentTerms> {
        Some(self)
    }

    /// LM has a batch kernel (see [`crate::topk`]), unlocking the pruned
    /// top-k serving path.
    fn score_kernel(&self) -> Option<&dyn crate::topk::ScoreKernel> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::rank_databases;
    use crate::context::test_support::summary;

    fn lm() -> Lm {
        Lm::from_global_map(0.5, HashMap::from([(1, 0.01), (2, 0.001), (99, 0.0001)]))
    }

    #[test]
    fn smoothing_keeps_score_positive_for_missing_words() {
        let s = summary(1000.0, &[(1, 100.0)]);
        let views: Vec<&dyn SummaryView> = vec![&s];
        let ctx = CollectionContext::build(&[1, 99], &views);
        let score = lm().score_db(&[1, 99], &s, &ctx);
        assert!(score > 0.0, "global model smooths the missing word");
    }

    #[test]
    fn default_score_is_global_only_product() {
        let s = summary(1000.0, &[]);
        let views: Vec<&dyn SummaryView> = vec![&s];
        let ctx = CollectionContext::build(&[1, 2], &views);
        let d = lm().default_score(&[1, 2], &s, &ctx);
        assert!((d - 0.5 * 0.01 * 0.5 * 0.001).abs() < 1e-15);
    }

    #[test]
    fn database_evidence_beats_default() {
        let with_word = summary(1000.0, &[(1, 200.0)]);
        let without = summary(1000.0, &[]);
        let views: Vec<&dyn SummaryView> = vec![&without, &with_word];
        let ranking = rank_databases(&lm(), &[1], &views);
        // The database lacking the word sits at default score → dropped.
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].index, 1);
    }

    #[test]
    fn uses_tf_based_probability() {
        let s = summary(1000.0, &[(1, 100.0), (2, 300.0)]);
        // test_support sets tf = 2·df → p_tf(1) = 200/800.
        assert!((lm().word_probability(&s, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_query_scores_zero() {
        let s = summary(1000.0, &[(1, 100.0)]);
        let views: Vec<&dyn SummaryView> = vec![&s];
        let ctx = CollectionContext::build(&[], &views);
        assert_eq!(lm().score_db(&[], &s, &ctx), 0.0);
    }
}
