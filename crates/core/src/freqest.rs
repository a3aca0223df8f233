//! Word-frequency estimation (Appendix A of the paper).
//!
//! A sample-derived summary knows the *sample* document frequency of each
//! word, but database selection algorithms like CORI want absolute document
//! frequencies in the full database. Appendix A estimates them via a
//! simplified Mandelbrot law `f = β·rᵅ` (`r` = frequency rank, `f` =
//! document frequency):
//!
//! 1. at several points during sampling, fit `(α, log β)` to the sample's
//!    rank-frequency curve (log-log least squares);
//! 2. regress `α = A₁·log|S| + A₂` and `log β = B₁·log|S| + B₂` over those
//!    checkpoints;
//! 3. estimate the database size `|D̂|` (sample-resample, in the `sampling`
//!    crate) and substitute it for `|S|` to get database-level `(α, β)`;
//! 4. a word at sample rank `r` then has estimated frequency `β·rᵅ`
//!    (Equation 5).
//!
//! Words that were issued as single-word query probes have *exact* document
//! frequencies (the reported match counts), so estimation is only applied to
//! the rest. The power-law exponent `γ = 1/α − 1` of the word-frequency
//! distribution (Appendix B) is also derived here for the score-uncertainty
//! machinery.

use std::collections::HashMap;

use textindex::TermId;

use crate::summary::{ContentSummary, WordStats};

/// Ordinary least squares fit `y = slope·x + intercept`.
///
/// Returns `None` when fewer than two distinct x values are given.
pub fn linear_regression(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let n = points.len() as f64;
    if points.len() < 2 {
        return None;
    }
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    if sxx <= 0.0 {
        return None;
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let slope = sxy / sxx;
    Some((slope, mean_y - slope * mean_x))
}

/// Fit the simplified Mandelbrot law `f = β·rᵅ` to a rank/frequency curve
/// by least squares on `log f = α·log r + log β`.
///
/// `rank_freq` holds `(rank, frequency)` pairs with `rank ≥ 1` and
/// `frequency ≥ 1`. Returns `(α, log β)`, or `None` for degenerate input.
pub fn fit_mandelbrot(rank_freq: &[(f64, f64)]) -> Option<(f64, f64)> {
    let logs: Vec<(f64, f64)> = rank_freq
        .iter()
        .filter(|&&(r, f)| r >= 1.0 && f > 0.0)
        .map(|&(r, f)| (r.ln(), f.ln()))
        .collect();
    linear_regression(&logs)
}

/// One observation of the sample's Mandelbrot parameters at a given sample
/// size, collected while sampling is in progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MandelbrotCheckpoint {
    /// Sample size `|S|` at which the fit was taken.
    pub sample_size: u32,
    /// Fitted exponent `α` (negative: frequency falls with rank).
    pub alpha: f64,
    /// Fitted `log β`.
    pub log_beta: f64,
}

/// The rank/frequency curve of sample document frequencies given in any
/// order: sorted descending, rank starting at 1.
fn rank_frequency(sample_dfs: impl IntoIterator<Item = u32>) -> Vec<(f64, f64)> {
    let mut dfs: Vec<u32> = sample_dfs.into_iter().collect();
    dfs.sort_unstable_by(|a, b| b.cmp(a));
    dfs.iter()
        .enumerate()
        .map(|(i, &df)| ((i + 1) as f64, f64::from(df)))
        .collect()
}

/// Take a checkpoint: fit the Mandelbrot law to `summary`'s current sample.
pub fn checkpoint(summary: &ContentSummary) -> Option<MandelbrotCheckpoint> {
    checkpoint_from_sample_dfs(
        summary.sample_size(),
        summary.iter().map(|(_, s)| s.sample_df),
    )
}

/// [`checkpoint`] without a summary: the fit for a sample of `sample_size`
/// documents whose words have the sample document frequencies
/// `sample_dfs`, in any order (the curve sorts them, so it is the same fit).
pub fn checkpoint_from_sample_dfs(
    sample_size: u32,
    sample_dfs: impl IntoIterator<Item = u32>,
) -> Option<MandelbrotCheckpoint> {
    let (alpha, log_beta) = fit_mandelbrot(&rank_frequency(sample_dfs))?;
    Some(MandelbrotCheckpoint {
        sample_size,
        alpha,
        log_beta,
    })
}

/// The database-level frequency estimator: the regressions of Equations
/// 4a/4b, ready to be evaluated at the estimated database size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyEstimator {
    /// `α = a1·log|S| + a2`.
    pub a1: f64,
    /// Intercept of the `α` regression.
    pub a2: f64,
    /// `log β = b1·log|S| + b2`.
    pub b1: f64,
    /// Intercept of the `log β` regression.
    pub b2: f64,
}

impl FrequencyEstimator {
    /// Regress the checkpoints. Needs at least two checkpoints at distinct
    /// sample sizes.
    pub fn from_checkpoints(checkpoints: &[MandelbrotCheckpoint]) -> Option<Self> {
        let alpha_pts: Vec<(f64, f64)> = checkpoints
            .iter()
            .map(|c| (f64::from(c.sample_size).ln(), c.alpha))
            .collect();
        let beta_pts: Vec<(f64, f64)> = checkpoints
            .iter()
            .map(|c| (f64::from(c.sample_size).ln(), c.log_beta))
            .collect();
        let (a1, a2) = linear_regression(&alpha_pts)?;
        let (b1, b2) = linear_regression(&beta_pts)?;
        Some(FrequencyEstimator { a1, a2, b1, b2 })
    }

    /// The Mandelbrot parameters `(α, β)` extrapolated to a collection of
    /// `size` documents (Equations 4a/4b with `|D̂|` substituted for `|S|`).
    ///
    /// `α` is clamped below zero: a rank-frequency curve is decreasing by
    /// construction, but the linear extrapolation of Equation 4a can
    /// overshoot for database sizes far beyond the checkpoints.
    pub fn params_for_size(&self, size: f64) -> (f64, f64) {
        let log_size = size.max(1.0).ln();
        let alpha = (self.a1 * log_size + self.a2).min(-0.05);
        let beta = (self.b1 * log_size + self.b2).exp();
        (alpha, beta)
    }

    /// Estimated document frequency of the word at sample rank `r`
    /// (1-based) in a database of `size` documents (Equation 5).
    pub fn estimate_df(&self, rank: usize, size: f64) -> f64 {
        let (alpha, beta) = self.params_for_size(size);
        (beta * (rank as f64).powf(alpha)).clamp(0.0, size)
    }

    /// The power-law exponent `γ = 1/α − 1` of the document-frequency
    /// distribution (Appendix B), evaluated at database size `size`.
    pub fn gamma(&self, size: f64) -> f64 {
        let (alpha, _) = self.params_for_size(size);
        if alpha == 0.0 {
            return -2.0; // sensible default for a Zipf-like collection
        }
        1.0 / alpha - 1.0
    }
}

/// Apply frequency estimation to a sample summary (Appendix A):
///
/// * words in `exact_df` (single-word probes with observed match counts)
///   get their exact database frequency;
/// * all others get the Mandelbrot estimate for their sample rank, never
///   dropping below the raw sample-scaled estimate's sample count and never
///   exceeding the database size.
///
/// `db_size` is the (estimated) database size; the summary is rescaled to it
/// first. Also records `γ` on the summary for the uncertainty machinery.
pub fn apply_frequency_estimation(
    summary: &mut ContentSummary,
    estimator: &FrequencyEstimator,
    exact_df: &HashMap<TermId, u32>,
    db_size: f64,
) {
    summary.set_db_size(db_size);
    summary.set_gamma(estimator.gamma(db_size));
    // Rank words by sample df descending; ties broken by term id so the
    // assignment is deterministic.
    let mut by_df: Vec<(TermId, WordStats)> = summary.iter().map(|(t, s)| (t, *s)).collect();
    by_df.sort_unstable_by(|a, b| b.1.sample_df.cmp(&a.1.sample_df).then(a.0.cmp(&b.0)));
    for (rank0, (term, stats)) in by_df.into_iter().enumerate() {
        let df = match exact_df.get(&term) {
            Some(&observed) => f64::from(observed),
            None => {
                let est = estimator.estimate_df(rank0 + 1, db_size);
                // The word occurred in the sample, so its database frequency
                // is at least its sample frequency.
                est.max(f64::from(stats.sample_df)).min(db_size)
            }
        };
        // Keep the tf/df ratio of the raw estimate (occurrences per
        // containing document) when rescaling tf.
        let per_doc_tf = if stats.df > 0.0 {
            stats.tf / stats.df
        } else {
            1.0
        };
        summary.set_word(
            term,
            WordStats {
                sample_df: stats.sample_df,
                df,
                tf: df * per_doc_tf,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textindex::Document;

    #[test]
    fn linear_regression_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let (slope, intercept) = linear_regression(&pts).unwrap();
        assert!((slope - 3.0).abs() < 1e-9);
        assert!((intercept + 2.0).abs() < 1e-9);
    }

    #[test]
    fn linear_regression_rejects_degenerate_input() {
        assert!(linear_regression(&[]).is_none());
        assert!(linear_regression(&[(1.0, 2.0)]).is_none());
        assert!(linear_regression(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn fit_mandelbrot_recovers_power_law() {
        // f = 100 · r^-1.2
        let curve: Vec<(f64, f64)> = (1..=50)
            .map(|r| (r as f64, 100.0 * (r as f64).powf(-1.2)))
            .collect();
        let (alpha, log_beta) = fit_mandelbrot(&curve).unwrap();
        assert!((alpha + 1.2).abs() < 1e-6, "alpha = {alpha}");
        assert!((log_beta - 100.0f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn estimator_extrapolates_with_sample_size() {
        // Construct checkpoints from a family α(|S|) = 0.1·ln|S| − 1.5,
        // log β(|S|) = 0.9·ln|S| + 0.2.
        let checkpoints: Vec<MandelbrotCheckpoint> = [50u32, 100, 200, 300]
            .iter()
            .map(|&s| {
                let ls = f64::from(s).ln();
                MandelbrotCheckpoint {
                    sample_size: s,
                    alpha: 0.1 * ls - 1.5,
                    log_beta: 0.9 * ls + 0.2,
                }
            })
            .collect();
        let est = FrequencyEstimator::from_checkpoints(&checkpoints).unwrap();
        assert!((est.a1 - 0.1).abs() < 1e-9);
        assert!((est.b1 - 0.9).abs() < 1e-9);
        let (alpha, beta) = est.params_for_size(10_000.0);
        let expected_alpha = 0.1 * 10_000.0f64.ln() - 1.5;
        assert!((alpha - expected_alpha).abs() < 1e-9);
        assert!(beta > 0.0);
    }

    #[test]
    fn estimate_df_is_monotone_in_rank() {
        let est = FrequencyEstimator {
            a1: 0.0,
            a2: -1.0,
            b1: 1.0,
            b2: 0.0,
        };
        let d1 = est.estimate_df(1, 1000.0);
        let d10 = est.estimate_df(10, 1000.0);
        assert!(d1 > d10, "rank-1 word more frequent than rank-10");
        assert!(d10 > 0.0);
    }

    #[test]
    fn estimate_df_clamped_to_db_size() {
        // Huge β forces clamping.
        let est = FrequencyEstimator {
            a1: 0.0,
            a2: -0.5,
            b1: 0.0,
            b2: 20.0,
        };
        assert_eq!(est.estimate_df(1, 500.0), 500.0);
    }

    #[test]
    fn gamma_matches_appendix_b() {
        let est = FrequencyEstimator {
            a1: 0.0,
            a2: -0.8,
            b1: 0.0,
            b2: 0.0,
        };
        let gamma = est.gamma(1000.0);
        assert!((gamma - (1.0 / -0.8 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn apply_frequency_estimation_uses_exact_counts_for_probes() {
        // Sample: word 1 in 3 docs, word 2 in 1 doc, of 3 sample docs.
        let docs = [
            Document::from_tokens(0, vec![1, 2]),
            Document::from_tokens(1, vec![1]),
            Document::from_tokens(2, vec![1]),
        ];
        let mut summary = ContentSummary::from_sample(docs.iter(), 3.0);
        let est = FrequencyEstimator {
            a1: 0.0,
            a2: -1.0,
            b1: 1.0,
            b2: 0.0,
        };
        let mut exact = HashMap::new();
        exact.insert(1u32, 800u32); // probe reported 800 matches
        apply_frequency_estimation(&mut summary, &est, &exact, 1000.0);
        assert_eq!(summary.word(1).unwrap().df, 800.0);
        // Word 2 estimated from its rank (2): β=1000 ⇒ df = 1000·2^-1 = 500.
        assert!((summary.word(2).unwrap().df - 500.0).abs() < 1e-9);
        assert_eq!(summary.db_size(), 1000.0);
        assert!(summary.gamma().is_some());
    }

    #[test]
    fn sample_rank_frequency_sorts_descending() {
        let docs = [
            Document::from_tokens(0, vec![1, 2]),
            Document::from_tokens(1, vec![1]),
        ];
        let summary = ContentSummary::from_sample(docs.iter(), 2.0);
        let curve = rank_frequency(summary.iter().map(|(_, s)| s.sample_df));
        assert_eq!(curve, vec![(1.0, 2.0), (2.0, 1.0)]);
    }
}
