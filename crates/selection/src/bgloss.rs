//! The bGlOSS database selection algorithm (Gravano, García-Molina &
//! Tomasic, ACM TODS 1999), as specified in Section 5.3:
//!
//! ```text
//! s(q, D) = |D| · Π_{w ∈ q} p̂(w|D)
//! ```
//!
//! bGlOSS estimates the number of documents in `D` matching *all* query
//! words under a word-independence assumption. It has no smoothing: a
//! single query word missing from the content summary zeroes the score —
//! which is why, of the three base algorithms, bGlOSS benefits most from
//! shrinkage (Section 6.2, "Adaptive vs. Universal").

use dbselect_core::summary::SummaryView;
use dbselect_core::uncertainty::{Combine, TermBasis, TermCoefficients};
use textindex::TermId;

use crate::context::{CollectionContext, IndependentTerms, SelectionAlgorithm};

/// The bGlOSS scorer (stateless).
#[derive(Debug, Clone, Copy, Default)]
pub struct BGloss;

impl SelectionAlgorithm for BGloss {
    fn name(&self) -> &'static str {
        "bGlOSS"
    }

    fn score_with_p(
        &self,
        _query: &[TermId],
        p: &[f64],
        summary: &dyn SummaryView,
        _ctx: &CollectionContext,
    ) -> f64 {
        if p.is_empty() {
            return 0.0;
        }
        summary.db_size() * p.iter().product::<f64>()
    }

    fn default_score(
        &self,
        _query: &[TermId],
        _summary: &dyn SummaryView,
        _ctx: &CollectionContext,
    ) -> f64 {
        // Any zero probability collapses the product, so "no evidence" is
        // exactly a zero score.
        0.0
    }

    fn independent_terms(&self) -> Option<&dyn IndependentTerms> {
        Some(self)
    }

    /// bGlOSS has a batch kernel (see [`crate::topk`]), unlocking the
    /// pruned top-k serving path.
    fn score_kernel(&self) -> Option<&dyn crate::topk::ScoreKernel> {
        Some(self)
    }
}

/// bGlOSS is the canonical product of independent terms: `|D| · Π p_k`.
impl IndependentTerms for BGloss {
    fn combine(&self, summary: &dyn SummaryView) -> Combine {
        Combine::Product {
            scale: summary.db_size(),
        }
    }

    fn basis(&self, _summary: &dyn SummaryView, _ctx: &CollectionContext) -> TermBasis {
        TermBasis::Fraction
    }

    fn query_term(
        &self,
        _query: &[TermId],
        _k: usize,
        _ctx: &CollectionContext,
    ) -> TermCoefficients {
        TermCoefficients {
            intercept: 0.0,
            presence: 0.0,
            slope: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::rank_databases;
    use crate::context::test_support::summary;

    #[test]
    fn score_is_expected_match_count() {
        let s = summary(1000.0, &[(1, 100.0), (2, 50.0)]);
        let views: Vec<&dyn SummaryView> = vec![&s];
        let ctx = CollectionContext::build(&[1, 2], &views);
        let score = BGloss.score_db(&[1, 2], &s, &ctx);
        // 1000 · 0.1 · 0.05 = 5 expected matching documents.
        assert!((score - 5.0).abs() < 1e-9);
    }

    #[test]
    fn missing_word_zeroes_the_score() {
        let s = summary(1000.0, &[(1, 100.0)]);
        let views: Vec<&dyn SummaryView> = vec![&s];
        let ctx = CollectionContext::build(&[1, 99], &views);
        assert_eq!(BGloss.score_db(&[1, 99], &s, &ctx), 0.0);
    }

    #[test]
    fn larger_database_wins_at_equal_probabilities() {
        let big = summary(10_000.0, &[(1, 1000.0)]);
        let small = summary(100.0, &[(1, 10.0)]);
        let views: Vec<&dyn SummaryView> = vec![&small, &big];
        let ranking = rank_databases(&BGloss, &[1], &views);
        assert_eq!(ranking[0].index, 1, "same p̂ but more documents");
    }

    #[test]
    fn empty_query_scores_zero() {
        let s = summary(1000.0, &[(1, 100.0)]);
        let views: Vec<&dyn SummaryView> = vec![&s];
        let ctx = CollectionContext::build(&[], &views);
        assert_eq!(BGloss.score_db(&[], &s, &ctx), 0.0);
    }
}
