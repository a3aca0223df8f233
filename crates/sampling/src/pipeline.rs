//! End-to-end summary construction: sampler → size estimation → frequency
//! estimation → [`ContentSummary`].
//!
//! Section 5.2 of the paper evaluates each sampler (QBS, FPS) both **with
//! and without** frequency estimation; this module packages those four
//! pipelines behind one call.

use rand::Rng;
use textindex::{RemoteDatabase, TermId};

use dbselect_core::freqest::{apply_frequency_estimation, FrequencyEstimator};
use dbselect_core::hierarchy::{CategoryId, Hierarchy};
use dbselect_core::summary::ContentSummary;

use crate::fps::{fps_sample, FpsConfig};
use crate::probes::ProbeSource;
use crate::qbs::{qbs_sample, QbsConfig};
use crate::sample::DocumentSample;
use crate::size::{sample_resample, SizeEstimationConfig};

/// Which sampling algorithm a profile came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Query-Based Sampling (random single-word probes).
    Qbs,
    /// Focused Probing (classifier-derived probes + classification).
    Fps,
}

/// Everything learned about one remote database.
#[derive(Debug, Clone)]
pub struct DatabaseProfile {
    /// The approximate content summary `Ŝ(D)`.
    pub summary: ContentSummary,
    /// The automatically derived classification (FPS only).
    pub classification: Option<CategoryId>,
    /// The raw sample (kept for diagnostics and re-processing).
    pub sample: DocumentSample,
    /// Which sampler produced this profile.
    pub sampler: SamplerKind,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineConfig {
    /// QBS parameters.
    pub qbs: QbsConfig,
    /// FPS parameters.
    pub fps: FpsConfig,
    /// Sample-resample parameters.
    pub size: SizeEstimationConfig,
    /// Apply Appendix-A frequency estimation (with sample-resample database
    /// size estimation). Without it the summary treats the sample itself as
    /// the collection.
    pub frequency_estimation: bool,
}

/// Profile a database with QBS.
pub fn profile_qbs<R: Rng + ?Sized>(
    db: &dyn RemoteDatabase,
    seed_lexicon: &[TermId],
    config: &PipelineConfig,
    rng: &mut R,
) -> DatabaseProfile {
    let sample = qbs_sample(db, seed_lexicon, &config.qbs, rng);
    let summary = summarize(db, &sample, config, rng);
    DatabaseProfile {
        summary,
        classification: None,
        sample,
        sampler: SamplerKind::Qbs,
    }
}

/// Profile a database with FPS (which also classifies it).
pub fn profile_fps<R: Rng + ?Sized>(
    db: &dyn RemoteDatabase,
    hierarchy: &Hierarchy,
    classifier: &dyn ProbeSource,
    config: &PipelineConfig,
    rng: &mut R,
) -> DatabaseProfile {
    let outcome = fps_sample(db, hierarchy, classifier, &config.fps);
    let summary = summarize(db, &outcome.sample, config, rng);
    DatabaseProfile {
        summary,
        classification: Some(outcome.classification),
        sample: outcome.sample,
        sampler: SamplerKind::Fps,
    }
}

/// Build the content summary from a sample per the pipeline configuration:
/// the raw summary once, from the sample's running counts, then (with
/// frequency estimation) the size and frequency estimates.
pub fn summarize<R: Rng + ?Sized>(
    db: &dyn RemoteDatabase,
    sample: &DocumentSample,
    config: &PipelineConfig,
    rng: &mut R,
) -> ContentSummary {
    let mut summary = sample.raw_summary();
    if !config.frequency_estimation {
        return summary;
    }
    let db_size = sample_resample(db, sample, &config.size, rng);
    match FrequencyEstimator::from_checkpoints(&sample.checkpoints) {
        Some(estimator) => {
            apply_frequency_estimation(&mut summary, &estimator, &sample.exact_df, db_size);
        }
        None => {
            // Too few checkpoints for the regression (tiny sample): fall
            // back to plain size scaling.
            summary.set_db_size(db_size);
        }
    }
    summary
}

#[cfg(test)]
#[path = "pipeline_tests.rs"]
mod pipeline_tests;
