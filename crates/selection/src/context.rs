//! The scoring interface shared by all database selection algorithms, plus
//! the collection-level statistics (CORI's `cf`, `mcw`) and the common
//! ranking routine.

use dbselect_core::summary::SummaryView;
use dbselect_core::uncertainty::{Combine, TermBasis, TermCoefficients};
use textindex::TermId;

/// Collection-level statistics a selection algorithm may need.
#[derive(Debug, Clone, Default)]
pub struct CollectionContext {
    /// Number of databases being ranked (`m` in CORI).
    pub m: usize,
    /// `cf[k]` is the number of databases that "effectively" contain the
    /// `k`-th query word — dense, indexed by query position rather than
    /// keyed by term, so the scoring hot loop does no hashing. Following
    /// Section 5.3, a word counts as present in `D` only when
    /// `round(|D̂|·p̂(w|D)) ≥ 1` — crucial under shrinkage, where every word
    /// has non-zero probability everywhere. Duplicate query words get equal
    /// entries.
    pub cf: Vec<u32>,
    /// Mean database word count (`mcw` in CORI).
    pub mcw: f64,
}

impl CollectionContext {
    /// Compute the context for `query` over the summary views actually
    /// chosen for scoring.
    pub fn build(query: &[TermId], views: &[&dyn SummaryView]) -> Self {
        let mut cf = vec![0u32; query.len()];
        for view in views {
            for (count, &w) in cf.iter_mut().zip(query) {
                if view.effectively_contains(w) {
                    *count += 1;
                }
            }
        }
        let mcw = if views.is_empty() {
            0.0
        } else {
            views.iter().map(|v| v.word_count()).sum::<f64>() / views.len() as f64
        };
        CollectionContext {
            m: views.len(),
            cf,
            mcw,
        }
    }
}

/// A "base" database selection algorithm (Section 5.3): given a query and a
/// database's content summary, produce a relevance score.
pub trait SelectionAlgorithm {
    /// Short display name ("bGlOSS", "CORI", "LM").
    fn name(&self) -> &'static str;

    /// The word probability this algorithm reads from a summary:
    /// document-frequency based by default, term-frequency based for LM.
    fn word_probability(&self, summary: &dyn SummaryView, word: TermId) -> f64 {
        summary.p_df(word)
    }

    /// Score a database assuming `p[k]` is the probability of query word
    /// `k`, expressed in the algorithm's *native* probability space (see
    /// [`Self::word_probability`]).
    fn score_with_p(
        &self,
        query: &[TermId],
        p: &[f64],
        summary: &dyn SummaryView,
        ctx: &CollectionContext,
    ) -> f64;

    /// Score a database assuming query word `k` appears in a `p_df[k]`
    /// fraction of its documents. This is the entry point for the
    /// score-uncertainty machinery (Section 4), which substitutes
    /// hypothetical `d_k/|D|` values — *document*-frequency fractions.
    /// Algorithms whose native probabilities live in a different space
    /// (LM's token probabilities) override this to convert first.
    fn score_with_df_fractions(
        &self,
        query: &[TermId],
        p_df: &[f64],
        summary: &dyn SummaryView,
        ctx: &CollectionContext,
    ) -> f64 {
        self.score_with_p(query, p_df, summary, ctx)
    }

    /// Score a database from its content summary.
    fn score_db(
        &self,
        query: &[TermId],
        summary: &dyn SummaryView,
        ctx: &CollectionContext,
    ) -> f64 {
        let p: Vec<f64> = query
            .iter()
            .map(|&w| self.word_probability(summary, w))
            .collect();
        self.score_with_p(query, &p, summary, ctx)
    }

    /// The adaptive-shrinkage decision (Section 4): given the mean and
    /// standard deviation of the score distribution over plausible word
    /// frequencies, should the shrunk summary be used?
    ///
    /// The default is the paper's literal `std > mean`, which reproduces
    /// Table 10's regime for product-form scores with a zero default
    /// (bGlOSS). The smoothed algorithms override this with a
    /// **query-length-normalized** coefficient of variation — a product of
    /// `n` independent factors has `CV² ≈ Π(1+cv_w²) − 1` and a mean of `n`
    /// terms has `CV ≈ cv_w/√n`, so a fixed threshold on the raw CV would
    /// fire almost always for long queries (products) or almost never for
    /// short ones (sums), contradicting the roughly length-stable rates of
    /// the paper's Table 10. See DESIGN.md §6.
    fn score_is_uncertain(&self, mean: f64, std_dev: f64, query_len: usize) -> bool {
        let _ = query_len;
        std_dev > mean
    }

    /// The algorithm's score as a product or mean of independent per-word
    /// terms, if it has that shape (see [`IndependentTerms`]). Declaring it
    /// makes the adaptive test closed-form (the Section-4 independence
    /// shortcut); algorithms without it (the default) are tested by
    /// Monte-Carlo sampling.
    fn independent_terms(&self) -> Option<&dyn IndependentTerms> {
        None
    }

    /// The *default score*: what the database would get if it matched no
    /// query word at all (equivalently, the score of an empty query).
    /// Databases at their default score are considered "not selected"
    /// (Section 6.2's Rk discussion).
    fn default_score(
        &self,
        query: &[TermId],
        summary: &dyn SummaryView,
        ctx: &CollectionContext,
    ) -> f64 {
        self.score_with_p(query, &vec![0.0; query.len()], summary, ctx)
    }

    /// The algorithm's batch scoring kernel (see [`crate::topk`]), if it
    /// has one. A kernel unlocks the pruned top-k serving path; algorithms
    /// without one (the default) are served through the full per-entry
    /// scan. A returned kernel's `score_rows` MUST be bit-identical to
    /// [`Self::score_with_p`] row by row.
    fn score_kernel(&self) -> Option<&dyn crate::topk::ScoreKernel> {
        None
    }
}

/// A score that factors over independent query words (Section 4): with
/// `p_k = d_k/|D|` the true document-frequency fraction of word `k`,
///
/// ```text
/// s(q, D) = combine_k ( intercept_k + presence_k·u(p_k) + slope_k·g(p_k) )
/// ```
///
/// where `(u, g)` is the database's [`TermBasis`] and `combine` a product
/// or a mean. The description must agree with
/// [`SelectionAlgorithm::score_with_df_fractions`] for every `p`, and its
/// value at `p = 0` with [`SelectionAlgorithm::default_score`].
pub trait IndependentTerms {
    /// How the per-word terms combine for `summary`'s database.
    fn combine(&self, summary: &dyn SummaryView) -> Combine;

    /// The per-word basis for `summary`'s database. May read `ctx.m` and
    /// `ctx.mcw` but not `ctx.cf`: the basis is a property of the
    /// (database, collection) pair, so its posterior moments can be
    /// tabulated once per catalog.
    fn basis(&self, summary: &dyn SummaryView, ctx: &CollectionContext) -> TermBasis;

    /// The coefficients of query word `k`, as far as they do not depend on
    /// the database.
    fn query_term(&self, query: &[TermId], k: usize, ctx: &CollectionContext) -> TermCoefficients;

    /// The database-dependent factor of a word's slope, given the
    /// probabilities `summary` itself reports for the word (`p_df`, `p_tf`).
    fn slope_scale(&self, p_df: f64, p_tf: f64, summary: &dyn SummaryView) -> f64 {
        let _ = (p_df, p_tf, summary);
        1.0
    }
}

/// One entry of a database ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedDatabase {
    /// Index into the view slice passed to [`rank_databases`].
    pub index: usize,
    /// The selection score.
    pub score: f64,
}

/// Score and rank databases for a query. Databases whose score does not
/// exceed their default score are dropped (they have no evidence for the
/// query), which may return fewer databases than were given — exactly the
/// behavior the paper's Rk evaluation assumes.
pub fn rank_databases(
    algorithm: &dyn SelectionAlgorithm,
    query: &[TermId],
    views: &[&dyn SummaryView],
) -> Vec<RankedDatabase> {
    let ctx = CollectionContext::build(query, views);
    rank_databases_with_context(algorithm, query, views.iter().map(|v| (*v).into()), &ctx)
}

/// An item for [`rank_databases_with_context`]: a view tagged with the index
/// the ranking should report for it.
pub struct IndexedView<'a> {
    /// The index reported in [`RankedDatabase::index`].
    pub index: usize,
    /// The summary view to score.
    pub view: &'a dyn SummaryView,
}

impl<'a> From<&'a dyn SummaryView> for IndexedView<'a> {
    fn from(view: &'a dyn SummaryView) -> Self {
        IndexedView {
            index: usize::MAX,
            view,
        }
    }
}

/// The ranking order every selection ranking obeys: descending score,
/// ties broken by ascending database index. This is *the* total order of
/// [`rank_databases`] and [`rank_databases_with_context`]; anything that
/// reassembles rankings from pieces (the broker's shard scatter-gather via
/// [`crate::merge::merge_rankings`]) must use this exact comparator to stay
/// bit-identical to a monolithic sort.
///
/// Panics on NaN scores, exactly like the sort it factors out of — a NaN
/// score is a scoring bug, not an ordering question.
pub fn ranking_order(a: &RankedDatabase, b: &RankedDatabase) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .expect("ranking scores are never NaN")
        .then(a.index.cmp(&b.index))
}

/// The scoring core behind [`rank_databases`], with the collection context
/// supplied by the caller. This lets a serving layer compute `m`, `cf`, and
/// `mcw` from a precomputed index (posting lists) and score only candidate
/// databases, while sharing the exact float operations — and hence
/// bit-identical scores — with the full scan.
///
/// Items whose [`IndexedView::index`] is `usize::MAX` (the `From`
/// conversion's placeholder) are renumbered by position.
pub fn rank_databases_with_context<'a>(
    algorithm: &dyn SelectionAlgorithm,
    query: &[TermId],
    items: impl IntoIterator<Item = IndexedView<'a>>,
    ctx: &CollectionContext,
) -> Vec<RankedDatabase> {
    let mut ranked: Vec<RankedDatabase> = items
        .into_iter()
        .enumerate()
        .filter_map(|(position, item)| {
            let index = if item.index == usize::MAX {
                position
            } else {
                item.index
            };
            let score = algorithm.score_db(query, item.view, ctx);
            let default = algorithm.default_score(query, item.view, ctx);
            // Relative threshold: any evidence above the default counts,
            // however small (product scores over shrunk summaries can be
            // astronomically tiny yet meaningful).
            let threshold = default + default.abs() * 1e-9 + 1e-300;
            (score > threshold).then_some(RankedDatabase { index, score })
        })
        .collect();
    ranked.sort_by(ranking_order);
    ranked
}

#[cfg(test)]
pub(crate) mod test_support {
    use dbselect_core::summary::{ContentSummary, WordStats};
    use std::collections::HashMap;
    use textindex::TermId;

    /// Build a summary with explicit absolute document frequencies.
    pub fn summary(db_size: f64, dfs: &[(TermId, f64)]) -> ContentSummary {
        let words: HashMap<TermId, WordStats> = dfs
            .iter()
            .map(|&(t, df)| {
                (
                    t,
                    WordStats {
                        sample_df: df as u32,
                        df,
                        tf: df * 2.0,
                    },
                )
            })
            .collect();
        ContentSummary::new(db_size, db_size as u32, words)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::summary;
    use super::*;

    struct SumOfP;
    impl SelectionAlgorithm for SumOfP {
        fn name(&self) -> &'static str {
            "sum"
        }
        fn score_with_p(
            &self,
            _query: &[TermId],
            p: &[f64],
            _summary: &dyn SummaryView,
            _ctx: &CollectionContext,
        ) -> f64 {
            p.iter().sum()
        }
    }

    #[test]
    fn context_counts_effective_presence() {
        let a = summary(100.0, &[(1, 50.0), (2, 0.2)]); // word 2 rounds to 0
        let b = summary(10.0, &[(1, 1.0)]);
        let views: Vec<&dyn SummaryView> = vec![&a, &b];
        let ctx = CollectionContext::build(&[1, 2, 3], &views);
        assert_eq!(ctx.cf[0], 2);
        assert_eq!(ctx.cf[1], 0, "round(0.2) < 1 means not present");
        assert_eq!(ctx.cf[2], 0);
        assert_eq!(ctx.m, 2);
    }

    #[test]
    fn rank_orders_by_score_and_drops_defaults() {
        let strong = summary(100.0, &[(1, 80.0)]);
        let weak = summary(100.0, &[(1, 10.0)]);
        let empty = summary(100.0, &[]);
        let views: Vec<&dyn SummaryView> = vec![&weak, &strong, &empty];
        let ranking = rank_databases(&SumOfP, &[1], &views);
        assert_eq!(ranking.len(), 2, "default-score database dropped");
        assert_eq!(ranking[0].index, 1);
        assert_eq!(ranking[1].index, 0);
    }

    #[test]
    fn ties_broken_by_index() {
        let a = summary(100.0, &[(1, 50.0)]);
        let b = summary(100.0, &[(1, 50.0)]);
        let views: Vec<&dyn SummaryView> = vec![&a, &b];
        let ranking = rank_databases(&SumOfP, &[1], &views);
        assert_eq!(ranking[0].index, 0);
        assert_eq!(ranking[1].index, 1);
    }

    #[test]
    fn mcw_is_mean_word_count() {
        let a = summary(10.0, &[(1, 5.0)]); // tf = 10
        let b = summary(10.0, &[(1, 10.0)]); // tf = 20
        let views: Vec<&dyn SummaryView> = vec![&a, &b];
        let ctx = CollectionContext::build(&[1], &views);
        assert!((ctx.mcw - 15.0).abs() < 1e-12);
    }
}
