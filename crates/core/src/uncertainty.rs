//! Score-uncertainty estimation for adaptive shrinkage (Section 4 and
//! Appendix B of the paper).
//!
//! Given a query `q = [w₁ … wₙ]` and a database `D` sampled by `S`, where
//! word `w_k` appeared in `s_k` of the `|S|` sample documents, the paper
//! asks: *how uncertain is the selection score `s(q, D)` implied by the
//! sample?* For every possible document-frequency combination `d₁ … dₙ` it
//! weighs
//!
//! * the likelihood `p(s_k | d_k)` — binomial with `|S|` trials and success
//!   probability `d_k / |D|`, and
//! * the prior `p(d_k) ∝ d_k^γ` — the power law of word frequencies, with
//!   `γ = 1/α − 1` from the Mandelbrot fit (Appendix A),
//!
//! and examines the mean and variance of the scores the selection algorithm
//! would assign across random `d₁ … dₙ` combinations. When the standard
//! deviation exceeds the mean, the sample-based score is deemed unreliable
//! and the shrunk content summary is used instead (Figure 3).
//!
//! Exhaustive enumeration over all `|D|ⁿ` combinations is infeasible, but
//! Section 4 also gives the way out: for "a large class of database
//! selection algorithms that assume independence between the query words
//! ... we can calculate the variance for each query word separately, and
//! then combine them into the final score variance." Each word's posterior
//! is discretized on a log-spaced grid ([`WordPosterior`]); a score that is
//! a product or a mean of independent per-word terms then has its mean and
//! variance in closed form from three numbers per word ([`WordMoments`],
//! folded by [`IndependentScore`]) — deterministic, no sampling.
//!
//! Every algorithm the system serves (bGlOSS, CORI, LM) has that form, and
//! the serving engine decides by it alone. [`score_distribution`] —
//! Monte-Carlo sampling of combinations until the running moments
//! stabilize — remains as the reference the closed form is tested against:
//! `selection::adaptive_rank` takes it for an algorithm that declares no
//! form (`selection::Sampled`, the Monte-Carlo column of Table 10).

use rand::Rng;

/// Tuning knobs for the score-distribution estimation. Only
/// `grid_points` matters to the closed form; the rest steer the
/// Monte-Carlo estimator.
#[derive(Debug, Clone, Copy)]
pub struct UncertaintyConfig {
    /// Hard cap on sampled `d₁ … dₙ` combinations.
    pub max_draws: usize,
    /// How often (in draws) convergence is checked.
    pub check_every: usize,
    /// Stop when mean and standard deviation both move less than this
    /// relative amount between checks.
    pub rel_tolerance: f64,
    /// Number of grid points for each word's posterior support.
    pub grid_points: usize,
}

impl Default for UncertaintyConfig {
    fn default() -> Self {
        UncertaintyConfig {
            max_draws: 2000,
            check_every: 100,
            rel_tolerance: 0.02,
            grid_points: 160,
        }
    }
}

/// Discretized posterior `p(d | s)` over the true document frequency of one
/// query word.
#[derive(Debug, Clone)]
pub struct WordPosterior {
    /// Candidate document frequencies.
    support: Vec<f64>,
    /// Cumulative probabilities aligned with `support` (last entry = 1).
    cumulative: Vec<f64>,
}

impl WordPosterior {
    /// Build the posterior for a word observed in `sample_df` of
    /// `sample_size` sample documents, for a database of `db_size` documents
    /// whose word-frequency power-law exponent is `gamma`.
    ///
    /// The prior follows Appendix B: `p(d) ∝ d^γ` for `d ≥ 1`. A word absent
    /// from the sample (`sample_df = 0`) may also be absent from the
    /// database; `d = 0` is given the same prior mass as `d = 1`, a choice
    /// the paper leaves open (its sums start at the smallest frequency).
    pub fn new(
        sample_df: u32,
        sample_size: u32,
        db_size: f64,
        gamma: f64,
        grid_points: usize,
    ) -> Self {
        let d_max = db_size.max(1.0);
        let s = f64::from(sample_df);
        let n = f64::from(sample_size);
        let supports = grid(sample_df == 0, d_max, grid_points.max(8));
        let mut log_weights = Vec::with_capacity(supports.len());
        for &d in &supports {
            log_weights.push(log_posterior(d, s, n, d_max, gamma));
        }
        // Bucket widths: the grid is non-uniform, so each point stands for a
        // band of integer frequencies.
        let weights: Vec<f64> = normalize(&supports, &log_weights);
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        // Guard against an all-zero posterior (degenerate input): fall back
        // to a point mass at the scaled sample estimate.
        if acc <= 0.0 {
            let point = if n > 0.0 {
                (s / n * d_max).max(0.0)
            } else {
                0.0
            };
            return WordPosterior {
                support: vec![point],
                cumulative: vec![1.0],
            };
        }
        for c in &mut cumulative {
            *c /= acc;
        }
        WordPosterior {
            support: supports,
            cumulative,
        }
    }

    /// Draw one candidate document frequency.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        // First grid point whose cumulative mass reaches `u` (NaN masses
        // from degenerate input compare false and fall through to the end).
        let i = self.cumulative.partition_point(|&c| c < u);
        self.support[i.min(self.support.len() - 1)]
    }

    /// The discretized posterior itself: `(d, P(d))` per grid point.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let mut prev = 0.0;
        self.support
            .iter()
            .zip(&self.cumulative)
            .map(move |(&d, &c)| {
                let mass = c - prev;
                prev = c;
                (d, mass)
            })
    }

    /// Posterior mean (used in tests and diagnostics).
    pub fn mean(&self) -> f64 {
        self.points().map(|(d, mass)| d * mass).sum()
    }

    /// Moments of `basis` over this posterior, for a database of `db_size`
    /// documents — exact over the discretized support.
    pub fn moments(&self, db_size: f64, basis: TermBasis) -> WordMoments {
        let d_max = db_size.max(1.0);
        let mut moments = WordMoments::default();
        for (d, mass) in self.points() {
            let (u, g) = basis.eval(d / d_max);
            moments.present += u * mass;
            moments.mean += g * mass;
            moments.second += g * g * mass;
        }
        moments
    }
}

/// Log of `p(s|d)·p(d)` up to constants. `d`, `s`, `n` (=|S|), `d_max`
/// (=|D|) are all in documents.
fn log_posterior(d: f64, s: f64, n: f64, d_max: f64, gamma: f64) -> f64 {
    if d <= 0.0 {
        // Only reachable for s = 0: likelihood 1, prior mass as at d = 1.
        return if s == 0.0 { 0.0 } else { f64::NEG_INFINITY };
    }
    let p = (d / d_max).min(1.0);
    let mut ll = 0.0;
    if s > 0.0 {
        ll += s * p.ln();
    }
    if n - s > 0.0 {
        if p >= 1.0 {
            return f64::NEG_INFINITY; // d = |D| but some sample docs lack w
        }
        ll += (n - s) * (1.0 - p).ln();
    }
    ll + gamma * d.ln()
}

/// Log-spaced integer grid over `[1, d_max]`, optionally including 0.
fn grid(include_zero: bool, d_max: f64, points: usize) -> Vec<f64> {
    let mut support = Vec::with_capacity(points + 1);
    if include_zero {
        support.push(0.0);
    }
    if d_max <= points as f64 {
        support.extend((1..=d_max as u64).map(|d| d as f64));
        return support;
    }
    let log_max = d_max.ln();
    let mut last = 0.0f64;
    for i in 0..points {
        let d = (log_max * i as f64 / (points - 1) as f64).exp().round();
        if d > last {
            support.push(d);
            last = d;
        }
    }
    support
}

/// Convert log weights to probabilities, weighting each grid point by the
/// width of the frequency band it represents (trapezoidal).
fn normalize(support: &[f64], log_weights: &[f64]) -> Vec<f64> {
    let max_lw = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    if !max_lw.is_finite() {
        return vec![0.0; support.len()];
    }
    let mut weights = Vec::with_capacity(support.len());
    for (i, lw) in log_weights.iter().enumerate() {
        let lo = if i == 0 { support[0] } else { support[i - 1] };
        let hi = if i + 1 == support.len() {
            support[i]
        } else {
            support[i + 1]
        };
        let width = ((hi - lo) / 2.0).max(1.0);
        weights.push((lw - max_lw).exp() * width);
    }
    weights
}

/// Estimated moments of the score distribution for one (query, database)
/// pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreDistribution {
    /// Mean of the scores over sampled frequency combinations.
    pub mean: f64,
    /// Standard deviation of those scores.
    pub std_dev: f64,
    /// Number of combinations actually examined.
    pub draws: usize,
}

impl ScoreDistribution {
    /// The Content Summary Selection rule of Figure 3: use the shrunk
    /// summary when the score's standard deviation exceeds its mean.
    pub fn should_use_shrinkage(&self) -> bool {
        self.std_dev > self.mean
    }
}

/// Monte-Carlo estimate of the score distribution.
///
/// `score_fn` receives one `p_k = d_k/|D|` per query word and returns the
/// selection score the base algorithm would assign under those frequencies.
/// Posteriors are accepted through [`std::borrow::Borrow`] so callers may
/// pass owned or borrowed grids interchangeably.
pub fn score_distribution<R: Rng + ?Sized, P: std::borrow::Borrow<WordPosterior>>(
    posteriors: &[P],
    db_size: f64,
    mut score_fn: impl FnMut(&[f64]) -> f64,
    rng: &mut R,
    config: &UncertaintyConfig,
) -> ScoreDistribution {
    let d_max = db_size.max(1.0);
    let mut ps = vec![0.0f64; posteriors.len()];
    // Welford running moments.
    let mut count = 0usize;
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    let mut last_mean = f64::INFINITY;
    let mut last_std = f64::INFINITY;
    while count < config.max_draws {
        for (p, posterior) in ps.iter_mut().zip(posteriors) {
            *p = posterior.borrow().sample(rng) / d_max;
        }
        let score = score_fn(&ps);
        count += 1;
        let delta = score - mean;
        mean += delta / count as f64;
        m2 += delta * (score - mean);
        if count.is_multiple_of(config.check_every) && count >= 2 * config.check_every {
            let std = (m2 / count as f64).sqrt();
            let mean_stable =
                (mean - last_mean).abs() <= config.rel_tolerance * mean.abs().max(1e-12);
            let std_stable = (std - last_std).abs() <= config.rel_tolerance * std.abs().max(1e-12);
            if mean_stable && std_stable {
                return ScoreDistribution {
                    mean,
                    std_dev: std,
                    draws: count,
                };
            }
            last_mean = mean;
            last_std = std;
        }
    }
    let std = if count > 0 {
        (m2 / count as f64).sqrt()
    } else {
        0.0
    };
    ScoreDistribution {
        mean,
        std_dev: std,
        draws: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn posterior_concentrates_near_scaled_sample_frequency() {
        // Word in 50 of 100 sample docs, database of 1000 docs → true df
        // near 500.
        let post = WordPosterior::new(50, 100, 1000.0, -2.0, 160);
        let mean = post.mean();
        assert!(
            (300.0..700.0).contains(&mean),
            "posterior mean {mean} near 500"
        );
    }

    #[test]
    fn rare_word_posterior_skews_low() {
        // Word absent from a 100-doc sample of a 10_000-doc database: with a
        // decreasing power-law prior the posterior must sit at small d.
        let post = WordPosterior::new(0, 100, 10_000.0, -2.0, 160);
        assert!(post.mean() < 200.0, "mean {} should be small", post.mean());
    }

    #[test]
    fn absent_word_can_draw_zero() {
        let post = WordPosterior::new(0, 100, 1000.0, -2.0, 160);
        let mut rng = rng();
        let zeros = (0..500).filter(|_| post.sample(&mut rng) == 0.0).count();
        assert!(zeros > 0, "d = 0 must be reachable for s = 0");
    }

    #[test]
    fn present_word_never_draws_zero() {
        let post = WordPosterior::new(3, 100, 1000.0, -2.0, 160);
        let mut rng = rng();
        for _ in 0..500 {
            assert!(post.sample(&mut rng) >= 1.0);
        }
    }

    #[test]
    fn small_database_uses_exact_support() {
        let post = WordPosterior::new(2, 10, 50.0, -2.0, 160);
        // Support is all integers 1..=50.
        assert_eq!(post.support.len(), 50);
        assert_eq!(post.support[0], 1.0);
        assert_eq!(*post.support.last().unwrap(), 50.0);
    }

    #[test]
    fn score_distribution_zero_variance_for_constant_score() {
        let posteriors = vec![WordPosterior::new(10, 100, 1000.0, -2.0, 64)];
        let dist = score_distribution(
            &posteriors,
            1000.0,
            |_| 7.5,
            &mut rng(),
            &UncertaintyConfig::default(),
        );
        assert!((dist.mean - 7.5).abs() < 1e-12);
        assert!(dist.std_dev < 1e-12);
        assert!(!dist.should_use_shrinkage());
        assert!(dist.draws < 2000, "constant score converges early");
    }

    #[test]
    fn uncertain_word_triggers_shrinkage_for_product_scores() {
        // bGlOSS-like score: |D| · Π p_k. A word with s = 0 makes the score
        // wildly uncertain (often 0, sometimes large).
        let posteriors = vec![WordPosterior::new(0, 100, 100_000.0, -1.8, 160)];
        let dist = score_distribution(
            &posteriors,
            100_000.0,
            |ps| 100_000.0 * ps.iter().product::<f64>(),
            &mut rng(),
            &UncertaintyConfig::default(),
        );
        assert!(
            dist.should_use_shrinkage(),
            "std {} vs mean {}",
            dist.std_dev,
            dist.mean
        );
    }

    #[test]
    fn well_sampled_word_does_not_trigger_shrinkage() {
        // Word in 80 of 100 sample docs of a 200-doc database: p is pinned
        // near 0.8, so a p-proportional score is stable.
        let posteriors = vec![WordPosterior::new(80, 100, 200.0, -2.0, 160)];
        let dist = score_distribution(
            &posteriors,
            200.0,
            |ps| ps[0],
            &mut rng(),
            &UncertaintyConfig::default(),
        );
        assert!(
            !dist.should_use_shrinkage(),
            "std {} vs mean {}",
            dist.std_dev,
            dist.mean
        );
    }

    #[test]
    fn moments_are_reproducible_with_seeded_rng() {
        let posteriors = vec![WordPosterior::new(5, 100, 5000.0, -2.0, 160)];
        let score = |ps: &[f64]| ps[0] * 100.0;
        let a = score_distribution(
            &posteriors,
            5000.0,
            score,
            &mut rng(),
            &UncertaintyConfig::default(),
        );
        let b = score_distribution(
            &posteriors,
            5000.0,
            score,
            &mut rng(),
            &UncertaintyConfig::default(),
        );
        assert_eq!(a, b);
    }
}

/// What a closed-form score reads off one word's true frequency fraction
/// `p = d/|D|`: a presence indicator `u(p) ∈ {0, 1}` and a magnitude `g(p)`
/// with `g(p) = 0` wherever `u(p) = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TermBasis {
    /// `g(p) = p`, present when `p > 0` (bGlOSS, LM).
    Fraction,
    /// A saturating document frequency `df/(df + pivot)` with
    /// `df = p·db_size`, present when `round(df) ≥ 1` (CORI's `T`).
    Saturating {
        /// The database size `|D̂|` that turns `p` back into a frequency.
        db_size: f64,
        /// The saturation constant (CORI's `50 + 150·cw/mcw`).
        pivot: f64,
    },
}

impl TermBasis {
    /// `(u(p), g(p))`.
    pub fn eval(self, p: f64) -> (f64, f64) {
        match self {
            TermBasis::Fraction => (f64::from(p > 0.0), p),
            TermBasis::Saturating { db_size, pivot } => {
                let df = p * db_size;
                if df.round() < 1.0 {
                    (0.0, 0.0)
                } else {
                    (1.0, df / (df + pivot))
                }
            }
        }
    }
}

/// The three numbers a closed-form score needs per word: moments of a
/// [`TermBasis`] over the word's posterior. They depend only on
/// `(sample_df, |S|, |D̂|, γ)` and the basis — never on the query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WordMoments {
    /// `P(u = 1)`.
    pub present: f64,
    /// `E[g]`.
    pub mean: f64,
    /// `E[g²]`.
    pub second: f64,
}

/// One query word's term `f(p) = intercept + presence·u(p) + slope·g(p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermCoefficients {
    /// The constant part (LM's `(1−λ)·p̂(w|G)`).
    pub intercept: f64,
    /// Weight of the presence indicator (CORI's default belief).
    pub presence: f64,
    /// Weight of the magnitude.
    pub slope: f64,
}

impl TermCoefficients {
    /// `(E[f], E[f²])`, using `u² = u` and `u·g = g`.
    #[inline]
    pub fn moments(&self, word: &WordMoments) -> (f64, f64) {
        let (b, c, a) = (self.intercept, self.presence, self.slope);
        let first = b + c * word.present + a * word.mean;
        let second = b * b
            + (c * c + 2.0 * b * c) * word.present
            + 2.0 * a * (b + c) * word.mean
            + a * a * word.second;
        (first, second)
    }
}

/// How independent per-word terms combine into a score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Combine {
    /// `scale · Π_k f_k` (bGlOSS: `scale = |D|`; LM: `scale = 1`).
    Product {
        /// The constant factor in front of the product.
        scale: f64,
    },
    /// `(1/n) · Σ_k f_k` (CORI).
    Mean,
}

impl Combine {
    /// The empty fold: every accumulator at the combination's identity.
    pub fn empty(self) -> Fold {
        let unit = match self {
            Combine::Product { .. } => 1.0,
            Combine::Mean => 0.0,
        };
        Fold {
            first: unit,
            second: unit,
            default: unit,
        }
    }
}

/// The running accumulators of a closed-form score over independent
/// words. By independence `E[Π f_k] = Π E[f_k]` and
/// `E[(Π f_k)²] = Π E[f_k²]`; for a mean, expectations and variances add.
///
/// The one copy of the fold's arithmetic: [`IndependentScore`] applies it
/// to one database, and a serving layer may apply the same steps to many
/// databases side by side — each database still sees the same operations
/// in the same order, hence the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fold {
    /// Product: `Π E[f_k]`. Mean: `Σ E[f_k]`.
    pub first: f64,
    /// Product: `Π E[f_k²]`. Mean: `Σ Var[f_k]`.
    pub second: f64,
    /// The same fold over `f_k(0)`: the score of a database matching no
    /// query word.
    pub default: f64,
}

impl Fold {
    /// Fold one word into a product.
    #[inline]
    pub fn product(self, term: TermCoefficients, word: &WordMoments) -> Fold {
        let (first, second) = term.moments(word);
        Fold {
            first: self.first * first,
            second: self.second * second,
            default: self.default * term.intercept,
        }
    }

    /// Fold one word into a mean.
    #[inline]
    pub fn mean(self, term: TermCoefficients, word: &WordMoments) -> Fold {
        let (first, second) = term.moments(word);
        Fold {
            first: self.first + first,
            second: self.second + (second - first * first),
            default: self.default + term.intercept,
        }
    }

    /// Fold one word the way `combine` combines.
    #[inline]
    pub fn push(self, combine: Combine, term: TermCoefficients, word: &WordMoments) -> Fold {
        match combine {
            Combine::Product { .. } => self.product(term, word),
            Combine::Mean => self.mean(term, word),
        }
    }

    /// Moments of the *evidence* of `words` folded words: the score above
    /// its default. Subtracting the constant default shifts the mean and
    /// leaves the variance alone.
    #[inline]
    pub fn finish(self, combine: Combine, words: usize) -> ScoreDistribution {
        let (mean, variance, default) = match combine {
            Combine::Product { scale } => {
                let mean = scale * self.first;
                let variance = scale * scale * self.second - mean * mean;
                (mean, variance, scale * self.default)
            }
            Combine::Mean => {
                let n = words.max(1) as f64;
                (self.first / n, self.second / (n * n), self.default / n)
            }
        };
        ScoreDistribution {
            mean: mean - default,
            std_dev: variance.max(0.0).sqrt(),
            draws: 0,
        }
    }
}

/// Running closed-form moments of one database's score over independent
/// words: a [`Fold`] with its combination and word count.
#[derive(Debug, Clone, Copy)]
pub struct IndependentScore {
    combine: Combine,
    fold: Fold,
    words: usize,
}

impl IndependentScore {
    /// An empty fold.
    pub fn new(combine: Combine) -> Self {
        IndependentScore {
            combine,
            fold: combine.empty(),
            words: 0,
        }
    }

    /// Fold in one query word.
    pub fn push(&mut self, term: TermCoefficients, word: &WordMoments) {
        self.fold = self.fold.push(self.combine, term, word);
        self.words += 1;
    }

    /// Moments of the *evidence*: the score above its default.
    pub fn finish(self) -> ScoreDistribution {
        self.fold.finish(self.combine, self.words)
    }
}

#[cfg(test)]
mod closed_form_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BARE: TermCoefficients = TermCoefficients {
        intercept: 0.0,
        presence: 0.0,
        slope: 1.0,
    };

    fn product(posteriors: &[WordPosterior], db_size: f64, scale: f64) -> ScoreDistribution {
        let mut score = IndependentScore::new(Combine::Product { scale });
        for p in posteriors {
            score.push(BARE, &p.moments(db_size, TermBasis::Fraction));
        }
        score.finish()
    }

    #[test]
    fn points_sum_to_one_and_moments_obey_jensen() {
        let post = WordPosterior::new(2, 10, 20.0, -1.5, 64);
        let total: f64 = post.points().map(|(_, mass)| mass).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let m = post.moments(20.0, TermBasis::Fraction);
        assert!(m.mean > 0.0 && m.second + 1e-12 >= m.mean * m.mean);
        assert!((m.present - 1.0).abs() < 1e-12, "a sampled word is present");
        assert!((m.mean * 20.0 - post.mean()).abs() < 1e-9);
    }

    #[test]
    fn saturating_basis_vanishes_for_absent_words() {
        let basis = TermBasis::Saturating {
            db_size: 100.0,
            pivot: 200.0,
        };
        assert_eq!(basis.eval(0.0), (0.0, 0.0));
        assert_eq!(basis.eval(0.004), (0.0, 0.0), "round(0.4) < 1");
        assert_eq!(basis.eval(0.5), (1.0, 50.0 / 250.0));
        let absent = WordPosterior::new(0, 50, 100.0, -2.0, 160).moments(100.0, basis);
        assert!(absent.present > 0.0 && absent.present < 1.0);
        assert!(absent.mean < absent.present, "T < 1 wherever present");
    }

    #[test]
    fn closed_form_agrees_with_monte_carlo_for_a_product() {
        let posteriors = vec![
            WordPosterior::new(5, 100, 2000.0, -2.0, 160),
            WordPosterior::new(0, 100, 2000.0, -2.0, 160),
        ];
        let exact = product(&posteriors, 2000.0, 2000.0);
        let config = UncertaintyConfig {
            max_draws: 60_000,
            check_every: 60_000,
            ..Default::default()
        };
        let mc = score_distribution(
            &posteriors,
            2000.0,
            |p| 2000.0 * p.iter().product::<f64>(),
            &mut StdRng::seed_from_u64(5),
            &config,
        );
        let mean_err = (exact.mean - mc.mean).abs() / exact.mean.max(1e-12);
        assert!(mean_err < 0.1, "exact {} vs MC {}", exact.mean, mc.mean);
        let std_err = (exact.std_dev - mc.std_dev).abs() / exact.std_dev.max(1e-12);
        assert!(
            std_err < 0.15,
            "exact σ {} vs MC σ {}",
            exact.std_dev,
            mc.std_dev
        );
        assert_eq!(exact.draws, 0, "no sampling involved");
    }

    #[test]
    fn intercepts_shift_the_default_not_the_evidence() {
        let word =
            WordPosterior::new(10, 100, 1000.0, -2.0, 160).moments(1000.0, TermBasis::Fraction);
        let smoothed = TermCoefficients {
            intercept: 0.2,
            presence: 0.0,
            slope: 0.5,
        };
        for combine in [Combine::Product { scale: 1.0 }, Combine::Mean] {
            let mut bare = IndependentScore::new(combine);
            bare.push(BARE, &word);
            let mut shifted = IndependentScore::new(combine);
            shifted.push(smoothed, &word);
            let (bare, shifted) = (bare.finish(), shifted.finish());
            assert!((shifted.mean - 0.5 * bare.mean).abs() < 1e-12);
            assert!((shifted.std_dev - 0.5 * bare.std_dev).abs() < 1e-12);
        }
    }

    #[test]
    fn a_mean_of_words_averages_means_and_shrinks_dispersion() {
        let word =
            WordPosterior::new(3, 100, 5000.0, -1.8, 160).moments(5000.0, TermBasis::Fraction);
        let mut one = IndependentScore::new(Combine::Mean);
        one.push(BARE, &word);
        let mut four = IndependentScore::new(Combine::Mean);
        for _ in 0..4 {
            four.push(BARE, &word);
        }
        let (one, four) = (one.finish(), four.finish());
        assert!((one.mean - four.mean).abs() < 1e-15);
        assert!((four.std_dev - one.std_dev / 2.0).abs() < 1e-15, "σ/√n");
    }
}
