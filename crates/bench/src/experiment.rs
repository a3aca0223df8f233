//! The end-to-end experiment harness: sample every database of a test bed,
//! build (optionally frequency-estimated) summaries, classify, aggregate
//! category summaries, shrink, and run the database selection strategies of
//! the paper's evaluation.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use broker::{Catalog, CatalogEntry, SelectionEngine};
use corpus::TestBed;
use dbselect_core::category_summary::{CategorySummaries, CategoryWeighting};
use dbselect_core::hierarchy::{CategoryId, Hierarchy};
use dbselect_core::shrinkage::{shrink, ShrinkageConfig, ShrunkSummary};
use dbselect_core::summary::ContentSummary;
use eval::rk::rk_for_ranking;
use sampling::scheduler::{db_rng, fan_out_chunks};
use sampling::{
    profile_fps, profile_qbs, FpsConfig, PipelineConfig, ProbeClassifier, ProbeSource,
    RuleClassifier, RuleLearnerConfig, SamplerKind,
};
use selection::{
    adaptive_rank, AdaptiveConfig, BGloss, Cori, HierarchicalSelector, Lm, RankedDatabase, Sampled,
    SelectionAlgorithm, ShrinkageMode, SummaryPair,
};
use textindex::{Document, TermId};

/// Which classifier supplies Focused Probing's probe queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassifierKind {
    /// Top discriminative single words per category (fast).
    #[default]
    Words,
    /// RIPPER-style learned rules (QProber's multi-word boolean queries).
    Rules,
}

/// Harness configuration for one experimental condition.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Which sampler builds the summaries.
    pub sampler: SamplerKind,
    /// Apply Appendix-A frequency estimation + sample-resample sizing.
    pub frequency_estimation: bool,
    /// RNG seed for sampling (vary to average over QBS runs).
    pub seed: u64,
    /// Training documents per leaf for the FPS probe classifier.
    pub classifier_train_per_leaf: usize,
    /// Probe words per category for the FPS classifier.
    pub classifier_probes: usize,
    /// Which probe classifier FPS uses.
    pub classifier_kind: ClassifierKind,
    /// Focused Probing parameters (thresholds, probe depth).
    pub fps: FpsConfig,
    /// Category aggregation weighting (Eq. 1 vs footnote 5).
    pub weighting: CategoryWeighting,
    /// Subtract child overlap when building shrinkage components
    /// (Section 3.2; disable only for the ablation).
    pub subtract_overlap: bool,
}

impl HarnessConfig {
    /// The paper's default condition for a given sampler.
    pub fn new(sampler: SamplerKind, frequency_estimation: bool, seed: u64) -> Self {
        HarnessConfig {
            sampler,
            frequency_estimation,
            seed,
            classifier_train_per_leaf: 16,
            classifier_probes: 10,
            classifier_kind: ClassifierKind::Words,
            fps: FpsConfig::default(),
            weighting: CategoryWeighting::BySize,
            subtract_overlap: true,
        }
    }
}

/// Everything derived from sampling one test bed under one condition.
pub struct ProfiledCollection {
    /// Approximate summary `Ŝ(D)` per database.
    pub summaries: Vec<ContentSummary>,
    /// The raw document samples (consumed by ReDDE's centralized index).
    pub samples: Vec<Vec<Document>>,
    /// Classification used for shrinkage: the "directory" (true) category
    /// for QBS, the automatically derived one for FPS (Section 5.2).
    pub classifications: Vec<CategoryId>,
    /// Shrunk summary `R̂(D)` per database.
    pub shrunk: Vec<ShrunkSummary>,
    /// Category aggregates (for the hierarchical baseline).
    pub category_summaries: CategorySummaries,
    /// The Root category summary (the LM algorithm's global model `G`).
    pub root_summary: ContentSummary,
    /// The uniform word probability used for `C_0`.
    pub uniform_p: f64,
}

impl ProfiledCollection {
    /// Freeze into a broker [`Catalog`] (names supplied by the caller —
    /// typically the test bed's database names).
    pub fn catalog(&self, names: &[String]) -> Catalog {
        assert_eq!(names.len(), self.summaries.len());
        let entries = names
            .iter()
            .zip(self.summaries.iter().zip(&self.shrunk))
            .map(|(name, (unshrunk, shrunk))| CatalogEntry {
                name: name.clone(),
                unshrunk: unshrunk.clone(),
                shrunk: shrunk.clone(),
            })
            .collect::<Vec<_>>();
        Catalog::build(entries)
    }
}

/// Sample and summarize every database of `bed`, then shrink.
pub fn profile_collection(bed: &mut TestBed, config: &HarnessConfig) -> ProfiledCollection {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pipeline = PipelineConfig {
        frequency_estimation: config.frequency_estimation,
        fps: config.fps,
        ..Default::default()
    };

    // FPS needs a trained probe classifier.
    let classifier: Option<Box<dyn ProbeSource>> = match config.sampler {
        SamplerKind::Fps => {
            let examples = bed.training_documents(config.classifier_train_per_leaf, &mut rng);
            Some(match config.classifier_kind {
                ClassifierKind::Words => Box::new(ProbeClassifier::train(
                    &bed.hierarchy,
                    &examples,
                    config.classifier_probes,
                )),
                ClassifierKind::Rules => Box::new(RuleClassifier::train(
                    &bed.hierarchy,
                    &examples,
                    &RuleLearnerConfig {
                        max_rules: config.classifier_probes,
                        ..Default::default()
                    },
                )),
            })
        }
        SamplerKind::Qbs => None,
    };

    let mut summaries = Vec::with_capacity(bed.databases.len());
    let mut samples = Vec::with_capacity(bed.databases.len());
    let mut classifications = Vec::with_capacity(bed.databases.len());
    for tdb in &bed.databases {
        match config.sampler {
            SamplerKind::Qbs => {
                let profile = profile_qbs(&tdb.db, &bed.seed_lexicon, &pipeline, &mut rng);
                summaries.push(profile.summary);
                samples.push(profile.sample.docs);
                // QBS has no classification of its own: use the directory
                // (true) category, like the paper's Google-Directory setup.
                classifications.push(tdb.category);
            }
            SamplerKind::Fps => {
                let profile = profile_fps(
                    &tdb.db,
                    &bed.hierarchy,
                    classifier.as_deref().expect("classifier trained for FPS"),
                    &pipeline,
                    &mut rng,
                );
                summaries.push(profile.summary);
                samples.push(profile.sample.docs);
                classifications.push(profile.classification.expect("FPS always classifies"));
            }
        }
    }

    let mut profiled = shrink_collection(
        &bed.hierarchy,
        bed.dict.len(),
        summaries,
        classifications,
        config,
    );
    profiled.samples = samples;
    profiled
}

/// Aggregate category summaries and shrink every database summary.
pub fn shrink_collection(
    hierarchy: &Hierarchy,
    vocabulary_size: usize,
    summaries: Vec<ContentSummary>,
    classifications: Vec<CategoryId>,
    config: &HarnessConfig,
) -> ProfiledCollection {
    let refs: Vec<(CategoryId, &ContentSummary)> = classifications
        .iter()
        .copied()
        .zip(summaries.iter())
        .collect();
    let category_summaries = CategorySummaries::build(hierarchy, &refs, config.weighting);
    let uniform_p = 1.0 / vocabulary_size.max(1) as f64;
    let shrink_config = ShrinkageConfig {
        uniform_p,
        ..Default::default()
    };
    let shrunk: Vec<ShrunkSummary> = summaries
        .iter()
        .zip(&classifications)
        .map(|(summary, &category)| {
            let components = category_summaries.components_for(
                hierarchy,
                category,
                summary,
                config.subtract_overlap,
            );
            shrink(summary, &components, &shrink_config)
        })
        .collect();
    let root_summary = category_summaries.category_summary(Hierarchy::ROOT);
    ProfiledCollection {
        summaries,
        samples: Vec::new(),
        classifications,
        shrunk,
        category_summaries,
        root_summary,
        uniform_p,
    }
}

/// The base selection algorithms of Section 5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// bGlOSS (no built-in smoothing).
    BGloss,
    /// CORI.
    Cori,
    /// Language modelling (λ = 0.5, `G` = Root summary).
    Lm,
}

impl AlgoKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoKind::BGloss => "bGlOSS",
            AlgoKind::Cori => "CORI",
            AlgoKind::Lm => "LM",
        }
    }

    /// Instantiate the scorer (LM needs the Root summary).
    pub fn build(
        &self,
        profiled: &ProfiledCollection,
    ) -> Arc<dyn SelectionAlgorithm + Send + Sync> {
        match self {
            AlgoKind::BGloss => Arc::new(BGloss),
            AlgoKind::Cori => Arc::new(Cori::default()),
            AlgoKind::Lm => Arc::new(Lm::new(0.5, &profiled.root_summary)),
        }
    }

    /// All three algorithms.
    pub fn all() -> [AlgoKind; 3] {
        [AlgoKind::BGloss, AlgoKind::Cori, AlgoKind::Lm]
    }
}

/// The selection strategies compared in Figures 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Unshrunk summaries, flat ranking.
    Plain,
    /// Adaptive shrinkage (the paper's method, Figure 3).
    Shrinkage,
    /// The hierarchical baseline of \[17\].
    Hierarchical,
    /// Shrinkage applied to every (query, database) pair (ablation).
    Universal,
    /// Adaptive shrinkage decided by the Monte-Carlo rule the closed form
    /// replaced: [`selection::adaptive_rank`] with the algorithm behind the
    /// form-hiding [`selection::Sampled`] adapter. The reference column of
    /// Table 10.
    ShrinkageSampled,
}

impl Strategy {
    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Plain => "Plain",
            Strategy::Shrinkage => "Shrinkage",
            Strategy::Hierarchical => "Hierarchical",
            Strategy::Universal => "Universal",
            Strategy::ShrinkageSampled => "Shrinkage (Monte-Carlo)",
        }
    }
}

/// Result of a selection-accuracy run.
pub struct SelectionRun {
    /// `mean_rk[i]` = mean `R_k` over queries for `k = ks[i]`.
    pub mean_rk: Vec<f64>,
    /// Per-query `R_k` values (outer: k, inner: query), for t-tests.
    pub per_query_rk: Vec<Vec<f64>>,
    /// Fraction of (query, database) pairs where shrinkage was applied
    /// (zero for strategies that never choose).
    pub shrinkage_rate: f64,
    /// The same fraction per query (empty for the hierarchical baseline),
    /// for paired tests between decision rules.
    pub per_query_shrinkage: Vec<f64>,
}

/// Run one (algorithm, strategy) condition over every query of the bed.
///
/// The closed-form strategies route through the broker's
/// [`SelectionEngine`]: the profiled collection is frozen into a
/// [`Catalog`] and the whole query batch is evaluated in parallel.
/// [`Strategy::ShrinkageSampled`] runs the library's
/// [`selection::adaptive_rank`] per query, in parallel too, query `i`
/// drawing from `db_rng(seed, i)`; either way the output is deterministic
/// and independent of the worker-thread count.
pub fn run_selection(
    bed: &TestBed,
    profiled: &ProfiledCollection,
    algo_kind: AlgoKind,
    strategy: Strategy,
    ks: &[usize],
    seed: u64,
) -> SelectionRun {
    let algorithm = algo_kind.build(profiled);
    let k_max = ks.iter().copied().max().unwrap_or(1);

    let mut per_query_shrinkage = Vec::new();
    let rankings: Vec<Vec<RankedDatabase>> = match strategy {
        Strategy::Hierarchical => {
            let hierarchical = HierarchicalSelector::new(
                &bed.hierarchy,
                &profiled.summaries,
                &profiled.classifications,
                &profiled.category_summaries,
            );
            bed.queries
                .iter()
                .map(|query| hierarchical.rank(algorithm.as_ref(), &query.terms, k_max))
                .collect()
        }
        Strategy::Plain
        | Strategy::Shrinkage
        | Strategy::Universal
        | Strategy::ShrinkageSampled => {
            let mode = match strategy {
                Strategy::Plain => ShrinkageMode::Never,
                Strategy::Shrinkage | Strategy::ShrinkageSampled => ShrinkageMode::Adaptive,
                Strategy::Universal => ShrinkageMode::Always,
                Strategy::Hierarchical => unreachable!("handled above"),
            };
            let config = AdaptiveConfig {
                mode,
                ..Default::default()
            };
            let queries: Vec<Vec<TermId>> = bed.queries.iter().map(|q| q.terms.clone()).collect();
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            let outcomes = if strategy == Strategy::ShrinkageSampled {
                let sampled = Sampled(Arc::clone(&algorithm));
                let pairs: Vec<SummaryPair<'_>> = (profiled.summaries.iter())
                    .zip(&profiled.shrunk)
                    .map(|(unshrunk, shrunk)| SummaryPair { unshrunk, shrunk })
                    .collect();
                fan_out_chunks(queries.len(), threads, |qi| {
                    let rng = &mut db_rng(seed, qi);
                    adaptive_rank(&sampled, &queries[qi], &pairs, &config, rng)
                })
            } else {
                let names: Vec<String> = bed.databases.iter().map(|d| d.name.clone()).collect();
                let catalog = Arc::new(profiled.catalog(&names));
                SelectionEngine::new(catalog, Arc::clone(&algorithm), config)
                    .route_batch(&queries, threads)
            };
            outcomes
                .into_iter()
                .map(|outcome| {
                    let applied = outcome.used_shrinkage.iter().filter(|&&b| b).count();
                    per_query_shrinkage
                        .push(applied as f64 / outcome.used_shrinkage.len().max(1) as f64);
                    outcome.ranking
                })
                .collect()
        }
    };

    let mut per_query_rk: Vec<Vec<f64>> = vec![Vec::new(); ks.len()];
    for (qi, ranking) in rankings.iter().enumerate() {
        let relevant = &bed.relevance[qi];
        for (ki, &k) in ks.iter().enumerate() {
            if let Some(value) = rk_for_ranking(ranking, relevant, k) {
                per_query_rk[ki].push(value);
            }
        }
    }

    let mean_rk = per_query_rk
        .iter()
        .map(|v| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        })
        .collect();
    // Every query faces the same databases, so the mean of the per-query
    // fractions is the pooled fraction.
    let shrinkage_rate =
        per_query_shrinkage.iter().sum::<f64>() / per_query_shrinkage.len().max(1) as f64;
    SelectionRun {
        mean_rk,
        per_query_rk,
        shrinkage_rate,
        per_query_shrinkage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::TestBedConfig;

    fn tiny_profiled(sampler: SamplerKind) -> (TestBed, ProfiledCollection) {
        let mut bed = TestBedConfig::tiny(55).build();
        let config = HarnessConfig::new(sampler, true, 5500);
        let profiled = profile_collection(&mut bed, &config);
        (bed, profiled)
    }

    #[test]
    fn qbs_profiling_covers_all_databases() {
        let (bed, profiled) = tiny_profiled(SamplerKind::Qbs);
        assert_eq!(profiled.summaries.len(), bed.databases.len());
        assert_eq!(profiled.shrunk.len(), bed.databases.len());
        assert_eq!(profiled.classifications, bed.true_categories());
        for s in &profiled.summaries {
            assert!(s.vocabulary_size() > 0, "every sample found words");
        }
    }

    #[test]
    fn fps_profiling_classifies_databases() {
        let (bed, profiled) = tiny_profiled(SamplerKind::Fps);
        // FPS classifications are automatic — they exist and are valid ids.
        for &c in &profiled.classifications {
            assert!(c < bed.hierarchy.len());
        }
    }

    #[test]
    fn selection_run_produces_rk_curves() {
        let (bed, profiled) = tiny_profiled(SamplerKind::Qbs);
        let ks = [1, 3, 5];
        for strategy in [
            Strategy::Plain,
            Strategy::Shrinkage,
            Strategy::Hierarchical,
            Strategy::Universal,
        ] {
            let run = run_selection(&bed, &profiled, AlgoKind::Cori, strategy, &ks, 1);
            assert_eq!(run.mean_rk.len(), 3);
            for &v in &run.mean_rk {
                assert!((0.0..=1.0).contains(&v), "{strategy:?} rk {v}");
            }
        }
    }

    #[test]
    fn universal_strategy_reports_full_shrinkage_rate() {
        let (bed, profiled) = tiny_profiled(SamplerKind::Qbs);
        let run = run_selection(
            &bed,
            &profiled,
            AlgoKind::BGloss,
            Strategy::Universal,
            &[3],
            1,
        );
        assert!((run.shrinkage_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rk_is_monotone_in_k_for_ideal_relevance_mass() {
        // Not a strict invariant of Rk, but mean R_k at k = all databases
        // must be 1 for any ranking that includes all databases.
        let (bed, profiled) = tiny_profiled(SamplerKind::Qbs);
        let n = bed.databases.len();
        let run = run_selection(&bed, &profiled, AlgoKind::Lm, Strategy::Universal, &[n], 2);
        // Universal shrinkage gives every database a positive score, so all
        // databases are ranked and R_n = 1 for every defined query.
        assert!(
            (run.mean_rk[0] - 1.0).abs() < 1e-9,
            "R_n = {}",
            run.mean_rk[0]
        );
    }
}
