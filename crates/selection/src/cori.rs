//! The CORI database selection algorithm (Callan et al.; evaluated by
//! French et al., SIGIR 1999), as specified in Section 5.3:
//!
//! ```text
//! s(q, D) = Σ_{w ∈ q} (0.4 + 0.6·T·I) / |q|
//! T = df / (df + 50 + 150·cw(D)/mcw)        df = p̂(w|D)·|D|
//! I = log((m + 0.5)/cf(w)) / log(m + 1.0)
//! ```
//!
//! where `cf(w)` is the number of databases containing `w`, `m` the number
//! of databases being ranked, `cw(D)` the word count of `D`, and `mcw` the
//! mean word count. Under shrinkage every word has non-zero probability in
//! every summary, so `cf` counts a word as present only when
//! `round(|D̂|·p̂_R(w|D)) ≥ 1` (handled by
//! [`CollectionContext::build`]).

use dbselect_core::summary::SummaryView;
use dbselect_core::uncertainty::{Combine, TermBasis, TermCoefficients};
use textindex::TermId;

use crate::context::{CollectionContext, IndependentTerms, SelectionAlgorithm};

/// The CORI scorer with its classic constants.
#[derive(Debug, Clone, Copy)]
pub struct Cori {
    /// The default-belief constant (0.4 in the literature).
    pub default_belief: f64,
    /// The `df` saturation constant (50).
    pub df_base: f64,
    /// The collection-length scaling constant (150).
    pub df_scale: f64,
}

impl Default for Cori {
    fn default() -> Self {
        Cori {
            default_belief: 0.4,
            df_base: 50.0,
            df_scale: 150.0,
        }
    }
}

impl Cori {
    /// The `50 + 150·cw(D)/mcw` part of `T`'s denominator.
    fn denom_extra(&self, summary: &dyn SummaryView, ctx: &CollectionContext) -> f64 {
        let cw_ratio = if ctx.mcw > 0.0 {
            summary.word_count() / ctx.mcw
        } else {
            1.0
        };
        self.df_base + self.df_scale * cw_ratio
    }

    /// `I` of query word `k`. With `cf = 0` no database effectively
    /// contains the word; `I = 0` avoids `log(∞)` (T-weighted, so the term
    /// vanishes).
    fn idf(k: usize, ctx: &CollectionContext) -> f64 {
        let m = ctx.m as f64;
        match ctx.cf.get(k).copied().unwrap_or(0) {
            0 => 0.0,
            cf => ((m + 0.5) / f64::from(cf)).ln() / (m + 1.0).ln(),
        }
    }
}

/// CORI is a *mean* of independent per-word beliefs
/// `1[round(df) ≥ 1]·(0.4 + 0.6·T(df)·I_k)`.
impl IndependentTerms for Cori {
    fn combine(&self, _summary: &dyn SummaryView) -> Combine {
        Combine::Mean
    }

    fn basis(&self, summary: &dyn SummaryView, ctx: &CollectionContext) -> TermBasis {
        TermBasis::Saturating {
            db_size: summary.db_size(),
            pivot: self.denom_extra(summary, ctx),
        }
    }

    fn query_term(&self, _query: &[TermId], k: usize, ctx: &CollectionContext) -> TermCoefficients {
        TermCoefficients {
            intercept: 0.0,
            presence: self.default_belief,
            slope: (1.0 - self.default_belief) * Self::idf(k, ctx),
        }
    }
}

impl SelectionAlgorithm for Cori {
    fn name(&self) -> &'static str {
        "CORI"
    }

    /// CORI's score is a bounded *average* of per-word beliefs, so its raw
    /// coefficient of variation shrinks like `1/√n` with query length.
    /// The decision therefore tests the per-word dispersion `CV·√n`, with a
    /// threshold calibrated so the adaptive test fires in the
    /// low-double-digit percentage regime of the paper's Table 10 on both
    /// long and short queries (see DESIGN.md §6).
    fn score_is_uncertain(&self, mean: f64, std_dev: f64, query_len: usize) -> bool {
        if mean <= 0.0 {
            return std_dev > 0.0;
        }
        let per_word_cv = std_dev / mean * (query_len.max(1) as f64).sqrt();
        per_word_cv > 0.8
    }

    fn score_with_p(
        &self,
        query: &[TermId],
        p: &[f64],
        summary: &dyn SummaryView,
        ctx: &CollectionContext,
    ) -> f64 {
        if query.is_empty() {
            return 0.0;
        }
        let denom_extra = self.denom_extra(summary, ctx);
        let mut score = 0.0;
        for (k, &pw) in p.iter().enumerate().take(query.len()) {
            let df = pw * summary.db_size();
            // `df < 0.5` is `df.round() < 1.0` for every f64 (NaN and ±∞
            // included), without a libm call.
            if df < 0.5 {
                // A query term the database does not effectively contain
                // (`round(|D̂|·p̂) < 1`, the Section-5.3 rule — crucial under
                // shrinkage, where every word has non-zero probability)
                // contributes no belief at all, INQUERY-style. Keeping the
                // 0.4 default-belief floor for absent terms would make the
                // Section-4 uncertainty test `std > mean` unsatisfiable for
                // CORI, contradicting the paper's Table 10 — and would let
                // the sheer breadth of a shrunk summary outscore genuine
                // sampled evidence.
                continue;
            }
            let t = df / (df + denom_extra);
            score += self.default_belief + (1.0 - self.default_belief) * t * Self::idf(k, ctx);
        }
        score / query.len() as f64
    }

    fn independent_terms(&self) -> Option<&dyn IndependentTerms> {
        Some(self)
    }

    /// CORI has a batch kernel (see [`crate::topk`]), unlocking the pruned
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

    /// The Section-5.3 rule is written `df < 0.5` (and `x >= 0.5`) at every
    /// site — CORI, its kernel, the catalog's `cf` count, the closed form —
    /// because `round` rounds half away from zero: the forms agree on every
    /// `f64`, the edges included, without a libm call per cell.
    #[test]
    fn the_half_threshold_is_the_rounded_one() {
        let edges = [
            0.499_999_999_999_999_94,
            0.5,
            1.5,
            2.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -0.5,
            0.5 + f64::EPSILON / 2.0,
        ];
        for x in edges {
            assert_eq!(x < 0.5, x.round() < 1.0, "{x:e}");
            assert_eq!(x >= 0.5, x.round() >= 1.0, "{x:e}");
        }
    }

    #[test]
    fn default_score_is_zero_under_inquery_semantics() {
        // Absent query terms contribute no belief, so a database matching
        // nothing scores 0 (and is "not selected" by the ranker).
        let s = summary(1000.0, &[]);
        let views: Vec<&dyn SummaryView> = vec![&s];
        let ctx = CollectionContext::build(&[1, 2], &views);
        let d = Cori::default().default_score(&[1, 2], &s, &ctx);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn present_words_carry_at_least_the_default_belief() {
        let s = summary(1000.0, &[(1, 100.0)]);
        let views: Vec<&dyn SummaryView> = vec![&s];
        let ctx = CollectionContext::build(&[1], &views);
        let score = Cori::default().score_db(&[1], &s, &ctx);
        assert!(score >= 0.4, "score {score}");
    }

    #[test]
    fn higher_df_scores_higher() {
        let rich = summary(1000.0, &[(1, 500.0)]);
        let poor = summary(1000.0, &[(1, 5.0)]);
        let views: Vec<&dyn SummaryView> = vec![&poor, &rich];
        let ranking = rank_databases(&Cori::default(), &[1], &views);
        assert_eq!(ranking[0].index, 1);
        assert!(ranking[0].score > ranking[1].score);
    }

    #[test]
    fn rare_words_weigh_more_via_idf_component() {
        // Word 1 in both databases, word 2 only in database b: for b, the
        // word-2 contribution has higher I than word 1's.
        let a = summary(1000.0, &[(1, 100.0)]);
        let b = summary(1000.0, &[(1, 100.0), (2, 100.0)]);
        let views: Vec<&dyn SummaryView> = vec![&a, &b];
        let algo = Cori::default();
        let s_common = algo.score_db(&[1], &b, &CollectionContext::build(&[1], &views));
        let s_rare = algo.score_db(&[2], &b, &CollectionContext::build(&[2], &views));
        assert!(s_rare > s_common, "{s_rare} vs {s_common}");
    }

    #[test]
    fn scores_are_bounded_by_one() {
        let s = summary(1000.0, &[(1, 1000.0)]);
        let views: Vec<&dyn SummaryView> = vec![&s];
        let ctx = CollectionContext::build(&[1], &views);
        let score = Cori::default().score_db(&[1], &s, &ctx);
        assert!(score > 0.4 && score <= 1.0, "score {score}");
    }

    #[test]
    fn longer_databases_need_more_evidence() {
        // Same df, but database b has a much larger word count → lower T.
        let a = summary(1000.0, &[(1, 100.0)]);
        let mut b = summary(1000.0, &[(1, 100.0)]);
        b.set_word(
            999,
            dbselect_core::summary::WordStats {
                sample_df: 1,
                df: 1.0,
                tf: 50_000.0,
            },
        );
        let views: Vec<&dyn SummaryView> = vec![&a, &b];
        let ctx = CollectionContext::build(&[1], &views);
        let algo = Cori::default();
        let s_a = algo.score_db(&[1], &a, &ctx);
        let s_b = algo.score_db(&[1], &b, &ctx);
        assert!(s_a > s_b, "{s_a} vs {s_b}");
    }
}
