//! Adaptive shrinkage-based database selection — the algorithm of Figure 3.
//!
//! For each query and database the selector first decides *which* content
//! summary to trust:
//!
//! 1. **Content Summary Selection** — compute the distribution of the
//!    score the base algorithm would assign under the posterior over true
//!    word frequencies (Section 4, Appendix B, implemented in
//!    [`dbselect_core::uncertainty`]): in closed form when the algorithm
//!    declares its score a product or mean of independent per-word terms
//!    ([`IndependentTerms`] — bGlOSS, CORI, LM, ReDDE's fallback), by
//!    Monte-Carlo sampling otherwise. If the standard deviation of that
//!    distribution exceeds its mean, the sample-based summary is unreliable
//!    → use the shrunk summary `R̂(D)`; otherwise keep `Ŝ(D)`
//!    ([`shrinkage_decision`]).
//! 2. **Scoring** — score every database with its chosen summary.
//! 3. **Ranking** — order databases by score (databases at their default
//!    score are not selected).

use std::sync::Arc;

use rand::Rng;

use dbselect_core::shrinkage::ShrunkSummary;
use dbselect_core::summary::{ContentSummary, SummaryView};
use dbselect_core::uncertainty::{
    score_distribution, IndependentScore, ScoreDistribution, TermCoefficients, UncertaintyConfig,
    WordMoments, WordPosterior,
};
use textindex::TermId;

use crate::context::{
    rank_databases, CollectionContext, IndependentTerms, RankedDatabase, SelectionAlgorithm,
};

/// When to use the shrunk summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShrinkageMode {
    /// The paper's method: per (query, database) uncertainty test.
    #[default]
    Adaptive,
    /// Always use the shrunk summaries (the "universal" ablation of
    /// Section 6.2 — helps bGlOSS, hurts CORI and LM).
    Always,
    /// Never use shrinkage (the "Plain" baselines).
    Never,
}

/// Configuration of the adaptive selector.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveConfig {
    /// Shrinkage application policy.
    pub mode: ShrinkageMode,
    /// Posterior grid resolution, plus the Monte-Carlo parameters used
    /// for algorithms without a closed form.
    pub uncertainty: UncertaintyConfig,
}

/// The two summaries of one database the selector chooses between.
#[derive(Clone, Copy)]
pub struct SummaryPair<'a> {
    /// The sample-derived summary `Ŝ(D)`.
    pub unshrunk: &'a ContentSummary,
    /// The shrinkage-based summary `R̂(D)`.
    pub shrunk: &'a ShrunkSummary,
}

/// Outcome of one adaptive ranking.
pub struct AdaptiveOutcome {
    /// The final database ranking.
    pub ranking: Vec<RankedDatabase>,
    /// Per database: whether the shrunk summary was used.
    pub used_shrinkage: Vec<bool>,
}

/// Rank databases for `query` with adaptive shrinkage (Figure 3).
pub fn adaptive_rank<R: Rng + ?Sized>(
    algorithm: &dyn SelectionAlgorithm,
    query: &[TermId],
    databases: &[SummaryPair<'_>],
    config: &AdaptiveConfig,
    rng: &mut R,
) -> AdaptiveOutcome {
    // Content Summary Selection step.
    let used_shrinkage: Vec<bool> = match config.mode {
        ShrinkageMode::Always => vec![true; databases.len()],
        ShrinkageMode::Never => vec![false; databases.len()],
        ShrinkageMode::Adaptive => {
            // The uncertainty test scores against the *unshrunk* context:
            // it asks how trustworthy the sample-based score is.
            let unshrunk_views: Vec<&dyn SummaryView> = databases
                .iter()
                .map(|d| d.unshrunk as &dyn SummaryView)
                .collect();
            let ctx = CollectionContext::build(query, &unshrunk_views);
            databases
                .iter()
                .map(|pair| score_is_uncertain(algorithm, query, pair.unshrunk, &ctx, config, rng))
                .collect()
        }
    };

    // Scoring + Ranking steps, over the per-database chosen summaries.
    let chosen_views: Vec<&dyn SummaryView> = databases
        .iter()
        .zip(&used_shrinkage)
        .map(|(pair, &shrunk)| {
            if shrunk {
                pair.shrunk as &dyn SummaryView
            } else {
                pair.unshrunk as &dyn SummaryView
            }
        })
        .collect();
    let ranking = rank_databases(algorithm, query, &chosen_views);
    AdaptiveOutcome {
        ranking,
        used_shrinkage,
    }
}

/// The Content Summary Selection test for one database: compute the score
/// distribution over plausible true word frequencies and apply
/// [`shrinkage_decision`]. `rng` is only drawn from when `algorithm`
/// declares no [`IndependentTerms`].
pub fn score_is_uncertain<R: Rng + ?Sized>(
    algorithm: &dyn SelectionAlgorithm,
    query: &[TermId],
    summary: &ContentSummary,
    ctx: &CollectionContext,
    config: &AdaptiveConfig,
    rng: &mut R,
) -> bool {
    // γ from the Appendix-A fit when available; a generic Zipf-like
    // exponent otherwise.
    let sample = (summary.sample_size(), summary.gamma().unwrap_or(-2.0));
    let sample_df = |w| summary.word(w).map_or(0, |s| s.sample_df);
    score_is_uncertain_for_sample(
        algorithm, query, summary, sample, sample_df, ctx, config, rng,
    )
}

/// [`score_is_uncertain`] for any summary representation: builds each query
/// word's posterior grid from `sample_df(word)` and the database's
/// `(sample size |S|, resolved exponent γ)`.
#[allow(clippy::too_many_arguments)]
pub fn score_is_uncertain_for_sample<R: Rng + ?Sized>(
    algorithm: &dyn SelectionAlgorithm,
    query: &[TermId],
    summary: &dyn SummaryView,
    (sample_size, gamma): (u32, f64),
    sample_df: impl Fn(TermId) -> u32,
    ctx: &CollectionContext,
    config: &AdaptiveConfig,
    rng: &mut R,
) -> bool {
    let grid = |&w: &TermId| {
        let points = config.uncertainty.grid_points;
        WordPosterior::new(sample_df(w), sample_size, summary.db_size(), gamma, points)
    };
    let posteriors: Vec<WordPosterior> = query.iter().map(grid).collect();
    score_is_uncertain_with_posteriors(algorithm, query, summary, &posteriors, ctx, config, rng)
}

/// [`score_is_uncertain`] with the word posteriors supplied by the caller.
///
/// The posterior grid of a word depends only on `(sample_df, |S|, |D̂|, γ,
/// grid_points)` — all properties of the (database, word) pair, none of the
/// query — so a serving layer can fold each grid once
/// ([`WordPosterior::moments`]) and feed the moments straight to
/// [`closed_form_distribution`]; given the same grids, both routes decide
/// bit-identically.
pub fn score_is_uncertain_with_posteriors<R, P>(
    algorithm: &dyn SelectionAlgorithm,
    query: &[TermId],
    summary: &dyn SummaryView,
    posteriors: &[P],
    ctx: &CollectionContext,
    config: &AdaptiveConfig,
    rng: &mut R,
) -> bool
where
    R: Rng + ?Sized,
    P: std::borrow::Borrow<WordPosterior>,
{
    if query.is_empty() {
        return false;
    }
    let evidence = evidence_distribution(algorithm, query, summary, posteriors, ctx, config, rng);
    shrinkage_decision(algorithm, &evidence, query.len())
}

/// The distribution [`score_is_uncertain_with_posteriors`] decides on:
/// moments of the evidence `s(q, D)` carries above the default score —
/// closed-form from the grids' moments, or sampled from the grids when
/// `algorithm` declares no [`IndependentTerms`].
pub fn evidence_distribution<R, P>(
    algorithm: &dyn SelectionAlgorithm,
    query: &[TermId],
    summary: &dyn SummaryView,
    posteriors: &[P],
    ctx: &CollectionContext,
    config: &AdaptiveConfig,
    rng: &mut R,
) -> ScoreDistribution
where
    R: Rng + ?Sized,
    P: std::borrow::Borrow<WordPosterior>,
{
    let db_size = summary.db_size();
    let Some(terms) = algorithm.independent_terms() else {
        let default = algorithm.default_score(query, summary, ctx);
        let evidence =
            |p: &[f64]| algorithm.score_with_df_fractions(query, p, summary, ctx) - default;
        return score_distribution(posteriors, db_size, evidence, rng, &config.uncertainty);
    };
    let basis = terms.basis(summary, ctx);
    let words = query.iter().zip(posteriors).enumerate();
    closed_form_distribution(
        terms,
        summary,
        words.map(|(k, (&w, posterior))| WordTerm {
            query_term: terms.query_term(query, k, ctx),
            moments: posterior.borrow().moments(db_size, basis),
            p_df: summary.p_df(w),
            p_tf: summary.p_tf(w),
        }),
    )
}

/// One query word as the closed form sees it in one database.
#[derive(Debug, Clone, Copy)]
pub struct WordTerm {
    /// The word's [`IndependentTerms::query_term`].
    pub query_term: TermCoefficients,
    /// Moments of the database's basis over the word's posterior.
    pub moments: WordMoments,
    /// The summary's own `p̂(w|D)` for the word.
    pub p_df: f64,
    /// The summary's own token probability for the word.
    pub p_tf: f64,
}

/// The closed-form distribution of the *evidence* `s(q, D)` carries above
/// the database's default (empty-query) score, for an algorithm with
/// [`IndependentTerms`] — the one fold behind both
/// [`score_is_uncertain_with_posteriors`] and the serving engine's
/// tabulated path. For bGlOSS the default is 0 and this is exactly the
/// paper's test; for LM the default-belief floor (the global-model
/// product) would otherwise dominate the mean and make `std > mean`
/// unreachable, contradicting the non-zero application rates of the
/// paper's Table 10.
pub fn closed_form_distribution(
    terms: &dyn IndependentTerms,
    summary: &dyn SummaryView,
    words: impl IntoIterator<Item = WordTerm>,
) -> ScoreDistribution {
    let mut score = IndependentScore::new(terms.combine(summary));
    for word in words {
        let mut term = word.query_term;
        term.slope *= terms.slope_scale(word.p_df, word.p_tf, summary);
        score.push(term, &word.moments);
    }
    score.finish()
}

/// The Content Summary Selection rule of Figure 3 on the evidence's
/// moments: `true` means "use the shrunk summary `R̂(D)`". The threshold is
/// the algorithm's ([`SelectionAlgorithm::score_is_uncertain`], the paper's
/// `std > mean` by default). Non-finite moments — a NaN or infinite `γ`,
/// `|D̂|` or word count reached the posterior — carry no evidence either
/// way and decide "keep `Ŝ(D)`".
#[inline]
pub fn shrinkage_decision(
    algorithm: &dyn SelectionAlgorithm,
    evidence: &ScoreDistribution,
    query_len: usize,
) -> bool {
    evidence.mean.is_finite()
        && evidence.std_dev.is_finite()
        && algorithm.score_is_uncertain(evidence.mean, evidence.std_dev, query_len)
}

/// `algorithm` with its [`IndependentTerms`] hidden, so the adaptive test
/// falls back to Monte-Carlo sampling: the reference the closed form is
/// measured against (tests, `repro table10`). Scores are untouched.
pub struct Sampled(pub Arc<dyn SelectionAlgorithm + Send + Sync>);

impl SelectionAlgorithm for Sampled {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn word_probability(&self, summary: &dyn SummaryView, word: TermId) -> f64 {
        self.0.word_probability(summary, word)
    }

    fn score_with_p(
        &self,
        query: &[TermId],
        p: &[f64],
        summary: &dyn SummaryView,
        ctx: &CollectionContext,
    ) -> f64 {
        self.0.score_with_p(query, p, summary, ctx)
    }

    fn score_with_df_fractions(
        &self,
        query: &[TermId],
        p_df: &[f64],
        summary: &dyn SummaryView,
        ctx: &CollectionContext,
    ) -> f64 {
        self.0.score_with_df_fractions(query, p_df, summary, ctx)
    }

    fn score_is_uncertain(&self, mean: f64, std_dev: f64, query_len: usize) -> bool {
        self.0.score_is_uncertain(mean, std_dev, query_len)
    }

    fn default_score(
        &self,
        query: &[TermId],
        summary: &dyn SummaryView,
        ctx: &CollectionContext,
    ) -> f64 {
        self.0.default_score(query, summary, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgloss::BGloss;
    use dbselect_core::category_summary::SummaryComponent;
    use dbselect_core::shrinkage::{shrink, ShrinkageConfig};
    use dbselect_core::summary::WordStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    /// A sample-based summary: `present` terms occur in half the sample.
    fn sampled_summary(db_size: f64, sample_size: u32, present: &[TermId]) -> ContentSummary {
        let mut words = HashMap::new();
        for &t in present {
            let sample_df = sample_size / 2;
            let df = f64::from(sample_df) / f64::from(sample_size) * db_size;
            words.insert(
                t,
                WordStats {
                    sample_df,
                    df,
                    tf: df * 2.0,
                },
            );
        }
        ContentSummary::new(db_size, sample_size, words)
    }

    fn shrunk_for(summary: &ContentSummary, extra: &[(TermId, f64)]) -> ShrunkSummary {
        let comp = SummaryComponent {
            p_df: extra.iter().copied().collect(),
            p_tf: extra.iter().copied().collect(),
        };
        shrink(
            summary,
            &[std::sync::Arc::new(comp)],
            &ShrinkageConfig::default(),
        )
    }

    #[test]
    fn always_and_never_modes_force_the_choice() {
        let s = sampled_summary(1000.0, 100, &[1]);
        let r = shrunk_for(&s, &[(1, 0.3)]);
        let dbs = [SummaryPair {
            unshrunk: &s,
            shrunk: &r,
        }];
        for (mode, expected) in [(ShrinkageMode::Always, true), (ShrinkageMode::Never, false)] {
            let config = AdaptiveConfig {
                mode,
                ..Default::default()
            };
            let out = adaptive_rank(&BGloss, &[1], &dbs, &config, &mut rng());
            assert_eq!(out.used_shrinkage, vec![expected]);
        }
    }

    #[test]
    fn missing_rare_word_triggers_shrinkage_for_bgloss() {
        // Query word 42 absent from the sample of a big database: bGlOSS's
        // product score is wildly uncertain → shrink.
        let s = sampled_summary(100_000.0, 300, &[1]);
        let r = shrunk_for(&s, &[(42, 0.01)]);
        let dbs = [SummaryPair {
            unshrunk: &s,
            shrunk: &r,
        }];
        let config = AdaptiveConfig::default();
        let out = adaptive_rank(&BGloss, &[1, 42], &dbs, &config, &mut rng());
        assert_eq!(out.used_shrinkage, vec![true]);
        // And thanks to shrinkage the database is actually selected.
        assert_eq!(out.ranking.len(), 1);
    }

    #[test]
    fn well_sampled_small_database_keeps_unshrunk_summary() {
        // Sample of 300 from a database of 320: nearly complete → the
        // sample-based score is trustworthy.
        let s = sampled_summary(320.0, 300, &[1, 2]);
        let r = shrunk_for(&s, &[(1, 0.2)]);
        let dbs = [SummaryPair {
            unshrunk: &s,
            shrunk: &r,
        }];
        let config = AdaptiveConfig::default();
        let out = adaptive_rank(&BGloss, &[1, 2], &dbs, &config, &mut rng());
        assert_eq!(out.used_shrinkage, vec![false]);
    }

    #[test]
    fn never_mode_reproduces_plain_ranking() {
        let s1 = sampled_summary(1000.0, 100, &[1]);
        let s2 = sampled_summary(1000.0, 100, &[]);
        let r1 = shrunk_for(&s1, &[(1, 0.1)]);
        let r2 = shrunk_for(&s2, &[(1, 0.1)]);
        let dbs = [
            SummaryPair {
                unshrunk: &s1,
                shrunk: &r1,
            },
            SummaryPair {
                unshrunk: &s2,
                shrunk: &r2,
            },
        ];
        let config = AdaptiveConfig {
            mode: ShrinkageMode::Never,
            ..Default::default()
        };
        let out = adaptive_rank(&BGloss, &[1], &dbs, &config, &mut rng());
        assert_eq!(
            out.ranking.len(),
            1,
            "db without the word is at default score"
        );
        assert_eq!(out.ranking[0].index, 0);
    }

    #[test]
    fn always_mode_recovers_databases_missing_query_words() {
        let s1 = sampled_summary(1000.0, 100, &[1]);
        let s2 = sampled_summary(1000.0, 100, &[]);
        let r1 = shrunk_for(&s1, &[(1, 0.1)]);
        let r2 = shrunk_for(&s2, &[(1, 0.1)]);
        let dbs = [
            SummaryPair {
                unshrunk: &s1,
                shrunk: &r1,
            },
            SummaryPair {
                unshrunk: &s2,
                shrunk: &r2,
            },
        ];
        let config = AdaptiveConfig {
            mode: ShrinkageMode::Always,
            ..Default::default()
        };
        let out = adaptive_rank(&BGloss, &[1], &dbs, &config, &mut rng());
        assert_eq!(
            out.ranking.len(),
            2,
            "shrinkage gives db 2 a non-zero score"
        );
        assert_eq!(out.ranking[0].index, 0, "direct evidence still wins");
    }

    #[test]
    fn short_unambiguous_queries_apply_less_shrinkage_than_long_ones() {
        // Matches the Table-10 observation: longer queries touch more
        // poorly-sampled words, triggering shrinkage more often.
        let s = sampled_summary(50_000.0, 300, &[1, 2]);
        let r = shrunk_for(&s, &[(1, 0.2)]);
        let ctx = CollectionContext::build(&[1], &[&s as &dyn SummaryView]);
        let config = AdaptiveConfig::default();
        let short = score_is_uncertain(&BGloss, &[1], &s, &ctx, &config, &mut rng());
        let long_query: Vec<TermId> = vec![1, 2, 60, 61, 62, 63];
        let ctx_long = CollectionContext::build(&long_query, &[&s as &dyn SummaryView]);
        let long = score_is_uncertain(&BGloss, &long_query, &s, &ctx_long, &config, &mut rng());
        let _ = r;
        assert!(!short, "well-sampled single word is certain");
        assert!(long, "many unseen words make the score uncertain");
    }
}

#[cfg(test)]
mod closed_form_tests {
    use super::*;
    use crate::bgloss::BGloss;
    use crate::cori::Cori;
    use crate::lm::Lm;
    use dbselect_core::shrinkage::{shrink, ShrinkageConfig};
    use dbselect_core::summary::WordStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// A summary with explicit `(term, sample_df, tf)` statistics.
    fn sampled(db_size: f64, sample_size: u32, words: &[(TermId, u32, f64)]) -> ContentSummary {
        let words: HashMap<TermId, WordStats> = words
            .iter()
            .map(|&(t, sample_df, tf)| {
                let df = f64::from(sample_df) / f64::from(sample_size.max(1)) * db_size;
                (t, WordStats { sample_df, df, tf })
            })
            .collect();
        ContentSummary::new(db_size, sample_size, words)
    }

    fn algorithms() -> Vec<Arc<dyn SelectionAlgorithm + Send + Sync>> {
        let global = HashMap::from([(1, 0.01), (2, 0.004), (3, 0.0005)]);
        vec![
            Arc::new(BGloss),
            Arc::new(Cori::default()),
            Arc::new(Lm::from_global_map(0.5, global)),
        ]
    }

    fn posteriors(query: &[TermId], summary: &ContentSummary, grid: usize) -> Vec<WordPosterior> {
        query
            .iter()
            .map(|&w| {
                WordPosterior::new(
                    summary.word(w).map_or(0, |s| s.sample_df),
                    summary.sample_size(),
                    summary.db_size(),
                    summary.gamma().unwrap_or(-2.0),
                    grid,
                )
            })
            .collect()
    }

    /// The closed-form evidence distribution, as the decision computes it.
    fn closed_form(
        algorithm: &dyn SelectionAlgorithm,
        query: &[TermId],
        summary: &ContentSummary,
        ctx: &CollectionContext,
    ) -> ScoreDistribution {
        let grids = posteriors(query, summary, 160);
        let (config, mut rng) = (AdaptiveConfig::default(), StdRng::seed_from_u64(0));
        evidence_distribution(algorithm, query, summary, &grids, ctx, &config, &mut rng)
    }

    /// Mean and standard deviation of the evidence by exhaustive
    /// enumeration of every `d₁ … dₙ` combination of the grids.
    fn enumerated(
        algorithm: &dyn SelectionAlgorithm,
        query: &[TermId],
        summary: &ContentSummary,
        ctx: &CollectionContext,
    ) -> (f64, f64) {
        let grids: Vec<Vec<(f64, f64)>> = posteriors(query, summary, 160)
            .iter()
            .map(|p| p.points().collect())
            .collect();
        let d_max = summary.db_size().max(1.0);
        let default = algorithm.default_score(query, summary, ctx);
        let (mut m1, mut m2) = (0.0, 0.0);
        let mut at = vec![0usize; query.len()];
        let mut p = vec![0.0; query.len()];
        'combinations: loop {
            let mut mass = 1.0;
            for (k, grid) in grids.iter().enumerate() {
                p[k] = grid[at[k]].0 / d_max;
                mass *= grid[at[k]].1;
            }
            let evidence = algorithm.score_with_df_fractions(query, &p, summary, ctx) - default;
            m1 += mass * evidence;
            m2 += mass * evidence * evidence;
            for k in 0..query.len() {
                at[k] += 1;
                if at[k] < grids[k].len() {
                    continue 'combinations;
                }
                at[k] = 0;
            }
            break;
        }
        (m1, (m2 - m1 * m1).max(0.0).sqrt())
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12),
            "{what}: closed form {a} vs enumeration {b}"
        );
    }

    /// Satellite (a): on a database small enough that the grid is the exact
    /// integer support, the closed form equals exhaustive enumeration for
    /// every algorithm and 1–3-word queries — present, rare, absent and
    /// duplicated words included.
    #[test]
    fn closed_form_equals_exhaustive_enumeration_on_exact_support() {
        let db = sampled(40.0, 20, &[(1, 9, 30.0), (2, 1, 2.0)]);
        let other = sampled(90.0, 30, &[(1, 3, 8.0), (3, 12, 40.0)]);
        let views: Vec<&dyn SummaryView> = vec![&db, &other];
        let queries: [&[TermId]; 6] = [&[1], &[3], &[1, 2], &[2, 3], &[1, 2, 3], &[2, 2, 1]];
        for algorithm in algorithms() {
            for query in queries {
                let ctx = CollectionContext::build(query, &views);
                let exact = closed_form(algorithm.as_ref(), query, &db, &ctx);
                let (mean, std_dev) = enumerated(algorithm.as_ref(), query, &db, &ctx);
                let what = format!("{} {query:?}", algorithm.name());
                assert_close(exact.mean, mean, &format!("{what} mean"));
                assert_close(exact.std_dev, std_dev, &format!("{what} std"));
            }
        }
    }

    /// Satellite bugfix: a summary whose `p_tf/p_df` ratio exceeds 1 used
    /// to be clamped per draw by the sampled rule and not at all by the
    /// closed form. The ratio is bounded once, so both agree and a
    /// converted fraction never exceeds a probability.
    #[test]
    fn lm_conversion_ratio_is_bounded_once_for_both_rules() {
        // Word 1: p_df = 2/20 = 0.1, p_tf = 50/52 — ratio ≈ 9.6.
        let db = sampled(40.0, 20, &[(1, 2, 50.0), (2, 10, 2.0)]);
        assert!(db.p_tf(1) / db.p_df(1) > 1.0);
        let lm = Lm::from_global_map(0.5, HashMap::from([(1, 0.01), (2, 0.004)]));
        let views: Vec<&dyn SummaryView> = vec![&db];
        for query in [&[1][..], &[1, 2][..]] {
            let ctx = CollectionContext::build(query, &views);
            let exact = closed_form(&lm, query, &db, &ctx);
            let (mean, std_dev) = enumerated(&lm, query, &db, &ctx);
            assert_close(exact.mean, mean, "mean");
            assert_close(exact.std_dev, std_dev, "std");
        }
        let ctx = CollectionContext::build(&[1], &views);
        let certain = lm.score_with_df_fractions(&[1], &[1.0], &db, &ctx);
        assert!(
            certain <= 0.5 + 0.5 * 0.01 + 1e-15,
            "λ·1 + (1−λ)·G, got {certain}"
        );
    }

    /// Satellite (d), library half: the closed form never draws.
    #[test]
    fn closed_form_leaves_the_rng_untouched() {
        let db = sampled(10_000.0, 300, &[(1, 3, 9.0)]);
        let views: Vec<&dyn SummaryView> = vec![&db];
        let ctx = CollectionContext::build(&[1, 9], &views);
        for algorithm in algorithms() {
            let mut rng = StdRng::seed_from_u64(11);
            score_is_uncertain(
                algorithm.as_ref(),
                &[1, 9],
                &db,
                &ctx,
                &AdaptiveConfig::default(),
                &mut rng,
            );
            assert_eq!(rng, StdRng::seed_from_u64(11), "{}", algorithm.name());
            // The form-hiding adapter is what does draw.
            let sampled_rule = Sampled(Arc::clone(&algorithm));
            score_is_uncertain(
                &sampled_rule,
                &[1, 9],
                &db,
                &ctx,
                &AdaptiveConfig::default(),
                &mut rng,
            );
            assert_ne!(rng, StdRng::seed_from_u64(11));
        }
    }

    /// Clear-cut cases decide the same under both rules.
    #[test]
    fn closed_form_and_monte_carlo_agree_on_clear_cut_cases() {
        let cases: [(ContentSummary, &[TermId]); 3] = [
            (
                sampled(320.0, 300, &[(1, 150, 300.0), (2, 140, 280.0)]),
                &[1, 2],
            ),
            (sampled(100_000.0, 300, &[(1, 150, 300.0)]), &[1, 42]),
            (
                sampled(50_000.0, 300, &[(1, 290, 600.0), (2, 280, 500.0)]),
                &[1, 2],
            ),
        ];
        for (db, query) in &cases {
            let views: Vec<&dyn SummaryView> = vec![db];
            let ctx = CollectionContext::build(query, &views);
            let config = AdaptiveConfig::default();
            let mut rng = StdRng::seed_from_u64(123);
            let exact = score_is_uncertain(&BGloss, query, db, &ctx, &config, &mut rng);
            let mc = score_is_uncertain(
                &Sampled(Arc::new(BGloss)),
                query,
                db,
                &ctx,
                &config,
                &mut rng,
            );
            assert_eq!(exact, mc, "db_size {}, query {query:?}", db.db_size());
        }
    }

    /// Satellite: degenerate inputs have defined answers — no panic, and
    /// non-finite moments keep `Ŝ(D)`.
    #[test]
    fn degenerate_inputs_get_defined_answers() {
        let config = AdaptiveConfig::default();
        let decide = |algorithm: &dyn SelectionAlgorithm, query: &[TermId], db: &ContentSummary| {
            let views: Vec<&dyn SummaryView> = vec![db];
            let ctx = CollectionContext::build(query, &views);
            let mut rng = StdRng::seed_from_u64(1);
            let decision = score_is_uncertain(algorithm, query, db, &ctx, &config, &mut rng);
            assert_eq!(rng, StdRng::seed_from_u64(1));
            decision
        };
        let mut nan_gamma = sampled(500.0, 50, &[(1, 5, 9.0)]);
        nan_gamma.set_gamma(f64::NAN);
        let mut inf_gamma = sampled(500.0, 50, &[(1, 5, 9.0)]);
        inf_gamma.set_gamma(f64::INFINITY);
        let non_finite = [
            nan_gamma,
            inf_gamma,
            sampled(f64::NAN, 50, &[(1, 5, 9.0)]),
            sampled(f64::INFINITY, 50, &[(1, 5, 9.0)]),
            sampled(500.0, 50, &[(1, 5, f64::NAN)]),
            sampled(500.0, 50, &[(1, 5, f64::INFINITY)]),
        ];
        for algorithm in algorithms() {
            let a = algorithm.as_ref();
            // Empty and all-unknown queries, an unsampled database, and
            // databases of zero or one document: decided, never a panic.
            assert!(!decide(a, &[], &sampled(500.0, 50, &[(1, 5, 9.0)])));
            decide(a, &[77, 78], &sampled(500.0, 50, &[(1, 5, 9.0)]));
            decide(a, &[1, 2], &sampled(500.0, 0, &[]));
            decide(a, &[1], &sampled(0.0, 0, &[]));
            decide(a, &[1, 1], &sampled(0.0, 5, &[(1, 5, 9.0)]));
            decide(a, &[1, 2], &sampled(1.0, 1, &[(1, 1, 3.0)]));
            // mcw = 0 (every word count zero) and cf = 0 (no database
            // effectively contains any query word).
            decide(a, &[1], &sampled(500.0, 50, &[(1, 5, 0.0)]));
            decide(
                a,
                &[1, 2],
                &sampled(5_000.0, 50, &[(1, 0, 0.0), (2, 0, 0.0)]),
            );
            // Duplicate query words are independent positions, as in the
            // sampled rule.
            decide(a, &[1, 1, 1], &sampled(5_000.0, 50, &[(1, 2, 4.0)]));
            for db in &non_finite {
                for query in [&[1][..], &[1, 9][..]] {
                    let decision = decide(a, query, db);
                    let views: Vec<&dyn SummaryView> = vec![db];
                    let ctx = CollectionContext::build(query, &views);
                    let evidence = closed_form(a, query, db, &ctx);
                    if !(evidence.mean.is_finite() && evidence.std_dev.is_finite()) {
                        assert!(!decision, "{}: non-finite moments keep Ŝ(D)", a.name());
                    }
                }
            }
            // An empty catalog ranks nothing.
            let out = adaptive_rank(a, &[1], &[], &config, &mut StdRng::seed_from_u64(1));
            assert!(out.ranking.is_empty() && out.used_shrinkage.is_empty());
        }
        // A non-finite database in a ranking neither panics the choice
        // phase nor is switched to its shrunk summary.
        let bad = sampled(f64::NAN, 50, &[(1, 5, 9.0)]);
        let shrunk = shrink(&bad, &[], &ShrinkageConfig::default());
        let out = adaptive_rank(
            &BGloss,
            &[1],
            &[SummaryPair {
                unshrunk: &bad,
                shrunk: &shrunk,
            }],
            &config,
            &mut StdRng::seed_from_u64(1),
        );
        assert_eq!(out.used_shrinkage, vec![false]);
    }
}
