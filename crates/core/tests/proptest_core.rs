//! Property-based tests for the core shrinkage machinery: summaries,
//! category aggregation, the EM mixture weights, frequency estimation, and
//! the uncertainty posteriors.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dbselect_core::category_summary::{CategorySummaries, CategoryWeighting, SummaryComponent};
use dbselect_core::freqest::{fit_mandelbrot, linear_regression, FrequencyEstimator};
use dbselect_core::frozen::{CategoryColumns, FrozenSummary, MixScratch, OwnWord, ShrunkSummaries};
use dbselect_core::hierarchy::Hierarchy;
use dbselect_core::shrinkage::{shrink, ShrinkageConfig, ShrunkSummary};
use dbselect_core::summary::{ContentSummary, SummaryView, WordStats};
use dbselect_core::uncertainty::WordPosterior;
use textindex::{Document, TermId};

fn sample_docs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..40, 1..25), 1..15)
}

fn component_entries() -> impl Strategy<Value = Vec<(u32, f64)>> {
    prop::collection::vec((0u32..60, 1e-6..0.9f64), 0..30)
}

/// A summary over words `(term, df kind, tf kind)`: zero sizes, zero
/// frequencies and empty word lists all occur, so category components get
/// clamped-to-zero keys and (when every database under a category has
/// size 0 but tokens) tf-only keys.
fn degenerate_summary(size: u8, words: &[(u32, u8, u8)]) -> ContentSummary {
    let words = words
        .iter()
        .map(|&(t, df, tf)| {
            let stats = WordStats {
                sample_df: 1,
                df: [0.0, 1.0, 2.5, 40.0][df as usize],
                tf: [0.0, 1.0, 3.0, 90.0][tf as usize],
            };
            (t, stats)
        })
        .collect();
    ContentSummary::new([0.0, 7.0, 120.0, 3000.0][size as usize], 3, words)
}

fn words(terms: std::ops::Range<u32>) -> impl Strategy<Value = Vec<(u32, u8, u8)>> {
    prop::collection::vec((terms, 0u8..4, 0u8..4), 0..12)
}

proptest! {
    /// p̂(w|D) of a sample summary is always a valid fraction, and the
    /// tf-based probabilities sum to 1 over the vocabulary.
    #[test]
    fn summary_probabilities_are_valid(docs in sample_docs(), scale in 1.0..100.0f64) {
        let documents: Vec<Document> = docs
            .iter()
            .enumerate()
            .map(|(i, t)| Document::from_tokens(i as u32, t.clone()))
            .collect();
        let db_size = documents.len() as f64 * scale;
        let summary = ContentSummary::from_sample(documents.iter(), db_size);
        let mut p_tf_total = 0.0;
        for (term, stats) in summary.iter() {
            let p = summary.p_df(term);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "p_df {p}");
            prop_assert!(stats.df <= db_size + 1e-9);
            p_tf_total += summary.p_tf(term);
        }
        prop_assert!((p_tf_total - 1.0).abs() < 1e-9);
    }

    /// Shrinkage mixture weights always form a probability simplex, and the
    /// shrunk probability of any word stays within [0, 1].
    #[test]
    fn shrinkage_lambdas_form_simplex(
        docs in sample_docs(),
        comp_a in component_entries(),
        comp_b in component_entries(),
        probe in 0u32..80,
    ) {
        let documents: Vec<Document> = docs
            .iter()
            .enumerate()
            .map(|(i, t)| Document::from_tokens(i as u32, t.clone()))
            .collect();
        let summary = ContentSummary::from_sample(documents.iter(), 500.0);
        let mk = |entries: &[(u32, f64)]| {
            Arc::new(SummaryComponent {
                p_df: entries.iter().copied().collect(),
                p_tf: entries.iter().copied().collect(),
            })
        };
        let comps = vec![mk(&comp_a), mk(&comp_b)];
        let shrunk = shrink(&summary, &comps, &ShrinkageConfig::default());
        let sum: f64 = shrunk.lambdas().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "λ sum {sum}");
        prop_assert!(shrunk.lambdas().iter().all(|&l| (0.0..=1.0).contains(&l)));
        let sum_tf: f64 = shrunk.lambdas_tf().iter().sum();
        prop_assert!((sum_tf - 1.0).abs() < 1e-6);
        let p = shrunk.p_df(probe);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "shrunk p {p}");
    }

    /// Category aggregation preserves total probability mass: the category
    /// p̂(w|C) lies between the member databases' minimum and maximum p̂.
    #[test]
    fn category_p_is_between_member_ps(
        df_a in 0u32..50, size_a in 50u32..200,
        df_b in 0u32..50, size_b in 50u32..200,
    ) {
        let mk = |df: u32, size: u32| {
            let docs: Vec<Document> = (0..size)
                .map(|i| Document::from_tokens(i, if i < df { vec![7] } else { vec![8] }))
                .collect();
            ContentSummary::from_sample(docs.iter(), f64::from(size))
        };
        let a = mk(df_a, size_a);
        let b = mk(df_b, size_b);
        let mut h = Hierarchy::new("Root");
        let cat = h.add_child(Hierarchy::ROOT, "C");
        let cats = CategorySummaries::build(&h, &[(cat, &a), (cat, &b)], CategoryWeighting::BySize);
        let summary = cats.category_summary(cat);
        let p = summary.p_df(7);
        let (lo, hi) = (a.p_df(7).min(b.p_df(7)), a.p_df(7).max(b.p_df(7)));
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{lo} <= {p} <= {hi}");
    }

    /// Linear regression residuals are orthogonal to x (normal equations).
    #[test]
    fn regression_satisfies_normal_equations(
        pts in prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 3..40)
    ) {
        if let Some((slope, intercept)) = linear_regression(&pts) {
            let dot: f64 = pts.iter().map(|&(x, y)| (y - slope * x - intercept) * x).sum();
            let scale: f64 = pts.iter().map(|&(x, _)| x * x).sum::<f64>().max(1.0);
            prop_assert!(dot.abs() / scale < 1e-6, "residual·x = {dot}");
        }
    }

    /// Mandelbrot fitting on an exact power law recovers its parameters.
    #[test]
    fn mandelbrot_fit_recovers_parameters(alpha in -2.0..-0.2f64, log_beta in 0.0..8.0f64) {
        let curve: Vec<(f64, f64)> = (1..=40)
            .map(|r| (r as f64, (log_beta + alpha * (r as f64).ln()).exp()))
            .collect();
        let (a, lb) = fit_mandelbrot(&curve).unwrap();
        prop_assert!((a - alpha).abs() < 1e-6);
        prop_assert!((lb - log_beta).abs() < 1e-6);
    }

    /// Frequency estimates are always within [0, |D|] and decrease with
    /// rank.
    #[test]
    fn frequency_estimates_bounded_and_monotone(
        a1 in -0.2..0.2f64, a2 in -2.0..-0.3f64,
        b1 in 0.0..1.5f64, b2 in -2.0..4.0f64,
        size in 100.0..100_000.0f64,
    ) {
        let est = FrequencyEstimator { a1, a2, b1, b2 };
        let mut prev = f64::INFINITY;
        for rank in [1usize, 2, 5, 10, 100, 1000] {
            let df = est.estimate_df(rank, size);
            prop_assert!((0.0..=size).contains(&df));
            prop_assert!(df <= prev + 1e-9, "df not decreasing at rank {rank}");
            prev = df;
        }
    }

    /// Word posteriors only produce frequencies within [0, |D|], and a word
    /// observed in the sample never draws zero.
    #[test]
    fn posterior_draws_in_range(
        sample_df in 0u32..100,
        db_size in 100.0..50_000.0f64,
        gamma in -3.0..-0.5f64,
        seed in 0u64..1000,
    ) {
        let sample_size = 100u32.max(sample_df);
        let posterior = WordPosterior::new(sample_df, sample_size, db_size, gamma, 80);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let d = posterior.sample(&mut rng);
            prop_assert!((0.0..=db_size).contains(&d));
            if sample_df > 0 {
                prop_assert!(d >= 1.0, "observed word drew zero frequency");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// The factored shrunk summaries against the lazy Eq. 2 mixture: on
    /// a random hierarchy under either weighting, every database's
    /// on-demand `p̂_R(w|D)` and `p_tf` — for every word of a vocabulary
    /// that re-probes extend beyond every base id, and for a word no
    /// column has (the defaults) — equal [`ShrunkSummary`]'s bits.
    /// λs include `±0`; zero-size and token-free samples make empty and
    /// tf-only component columns. Some databases are refreshed: their
    /// sample is replaced by a re-probe while their leaf remainder keeps
    /// subtracting the base sample (the pinned basis), which the oracle
    /// mixes as the refresh session does.
    #[test]
    fn factored_values_equal_the_lazy_mixture_bit_for_bit(
        parents in prop::collection::vec(0usize..1000, 0..7),
        dbs in prop::collection::vec(
            (0usize..1000, 0u8..4, words(0..40), prop::option::of((0u8..4, words(0..400)))),
            1..7,
        ),
        lambdas in prop::collection::vec((0u8..6, 0.0f64..1.0), 16),
        weighting in 0u8..2,
    ) {
        let mut hierarchy = Hierarchy::new("Root");
        for (i, &p) in parents.iter().enumerate() {
            hierarchy.add_child(p % (i + 1), format!("C{i}"));
        }
        let bases: Vec<(usize, ContentSummary)> = dbs
            .iter()
            .map(|(c, size, w, _)| (c % hierarchy.len(), degenerate_summary(*size, w)))
            .collect();
        let refs: Vec<_> = bases.iter().map(|(c, s)| (*c, s)).collect();
        let weighting = [CategoryWeighting::BySize, CategoryWeighting::Uniform][weighting as usize];
        let categories = CategorySummaries::build(&hierarchy, &refs, weighting);
        let lambda = |i: usize| match lambdas[i % lambdas.len()] {
            (0, _) => 0.0,
            (1, _) => -0.0,
            (_, l) => l,
        };
        let uniform_p = 1.0 / 97.0;
        let columns = CategoryColumns::new(&hierarchy, categories.aggregates(), weighting);
        let mut factored = ShrunkSummaries::new(uniform_p, Arc::new(columns));
        let (mut own, mut oracles) = (Vec::new(), Vec::new());
        for (db, ((category, base), (_, _, _, probe))) in bases.iter().zip(&dbs).enumerate() {
            let components = categories.components_for(&hierarchy, *category, base, true);
            let df: Vec<f64> = (0..components.len() + 2).map(|i| lambda(db + i)).collect();
            let tf: Vec<f64> = (0..components.len() + 2).map(|i| lambda(db + 2 * i + 1)).collect();
            let mut sample = FrozenSummary::from_unshrunk(base);
            factored.push(*category, (df.clone(), tf.clone()), &sample, None).unwrap();
            if let Some((size, words)) = probe {
                // A refresh: new sample, λs swapped, components as pinned.
                let current = degenerate_summary(*size, words);
                factored.refit(db, (tf.clone(), df.clone()), &sample).unwrap();
                sample = FrozenSummary::from_unshrunk(&current);
                let lazy = ShrunkSummary::from_parts(&current, &components, tf, df, uniform_p);
                oracles.push(lazy);
            } else {
                oracles.push(ShrunkSummary::from_parts(base, &components, df, tf, uniform_p));
            }
            own.push(sample);
        }
        // One request over the whole vocabulary (and a word no column
        // has), prepared once: every database mixed, then the odd
        // databases alone.
        let query: Vec<TermId> = (0..400).chain([TermId::MAX - 1]).collect();
        let q = query.len();
        let all: Vec<u32> = (0..oracles.len() as u32).collect();
        let words: Vec<OwnWord> = all
            .iter()
            .flat_map(|&db| query.iter().map(|&t| OwnWord::of(&own[db as usize], t)).collect::<Vec<_>>())
            .collect();
        let mut scratch = MixScratch::default();
        factored.prepare(&query, &mut scratch);
        let (mut p_df, mut p_tf) = (vec![0.0; all.len() * q], vec![0.0; all.len() * q]);
        factored.mix_rows(&all, &words, &scratch, &mut p_df, &mut p_tf);
        let odd: Vec<u32> = all.iter().copied().filter(|db| db % 2 == 1).collect();
        let odd_words: Vec<OwnWord> = odd
            .iter()
            .flat_map(|&db| words[db as usize * q..][..q].to_vec())
            .collect();
        let (mut odd_df, mut odd_tf) = (vec![0.0; odd.len() * q], vec![0.0; odd.len() * q]);
        factored.mix_rows(&odd, &odd_words, &scratch, &mut odd_df, &mut odd_tf);
        for (db, oracle) in oracles.iter().enumerate() {
            let view = factored.view(db, &own[db]);
            prop_assert_eq!(view.db_size().to_bits(), oracle.db_size().to_bits());
            prop_assert_eq!(view.word_count().to_bits(), oracle.word_count().to_bits());
            for (k, &t) in query.iter().enumerate() {
                let at = db * q + k;
                prop_assert_eq!(p_df[at].to_bits(), oracle.p_df(t).to_bits(), "db {} p_df({})", db, t);
                prop_assert_eq!(p_tf[at].to_bits(), oracle.p_tf(t).to_bits(), "db {} p_tf({})", db, t);
                if k % 37 == 0 {
                    prop_assert_eq!(view.p_df(t).to_bits(), p_df[at].to_bits());
                    prop_assert_eq!(view.p_tf(t).to_bits(), p_tf[at].to_bits());
                }
            }
        }
        for (i, &db) in odd.iter().enumerate() {
            for k in 0..q {
                prop_assert_eq!(odd_df[i * q + k].to_bits(), p_df[db as usize * q + k].to_bits());
                prop_assert_eq!(odd_tf[i * q + k].to_bits(), p_tf[db as usize * q + k].to_bits());
            }
        }
    }
}

#[test]
fn shrunk_summary_view_is_consistent_with_iteration() {
    let docs = [
        Document::from_tokens(0, vec![1, 2]),
        Document::from_tokens(1, vec![2, 3]),
    ];
    let summary = ContentSummary::from_sample(docs.iter(), 100.0);
    let comp = Arc::new(SummaryComponent {
        p_df: [(2, 0.4), (9, 0.2)].into_iter().collect(),
        p_tf: [(2, 0.4), (9, 0.2)].into_iter().collect(),
    });
    let shrunk = shrink(&summary, &[comp], &ShrinkageConfig::default());
    for (term, p) in shrunk.iter_df() {
        assert!((shrunk.p_df(term) - p).abs() < 1e-15);
    }
}
