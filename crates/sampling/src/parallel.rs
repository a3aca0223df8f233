//! Parallel database profiling.
//!
//! Profiling a large collection is embarrassingly parallel — each database
//! is sampled independently. These helpers fan the work out over scoped
//! threads while keeping the result **independent of the thread count**:
//! every database gets its own RNG seeded from `base_seed` and its index,
//! so `threads = 1` and `threads = 32` produce identical profiles.

use textindex::{RemoteDatabase, TermId};

use dbselect_core::hierarchy::Hierarchy;

use crate::pipeline::{profile_fps, profile_qbs, DatabaseProfile, PipelineConfig};
use crate::probes::ProbeSource;
use crate::scheduler::{db_rng, fan_out};

/// Profile every database with QBS in parallel. Deterministic in
/// `base_seed` regardless of `threads`.
pub fn profile_qbs_many<D: RemoteDatabase + Sync>(
    databases: &[D],
    seed_lexicon: &[TermId],
    config: &PipelineConfig,
    base_seed: u64,
    threads: usize,
) -> Vec<DatabaseProfile> {
    fan_out(databases.len(), threads, |i| {
        let mut rng = db_rng(base_seed, i);
        profile_qbs(&databases[i], seed_lexicon, config, &mut rng)
    })
}

/// Profile every database with FPS in parallel. Deterministic in
/// `base_seed` regardless of `threads`.
pub fn profile_fps_many<D: RemoteDatabase + Sync, P: ProbeSource + Sync>(
    databases: &[D],
    hierarchy: &Hierarchy,
    classifier: &P,
    config: &PipelineConfig,
    base_seed: u64,
    threads: usize,
) -> Vec<DatabaseProfile> {
    fan_out(databases.len(), threads, |i| {
        let mut rng = db_rng(base_seed, i);
        profile_fps(&databases[i], hierarchy, classifier, config, &mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ProbeClassifier;
    use corpus::TestBedConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textindex::IndexedDatabase;

    fn fixture() -> (corpus::TestBed, Vec<IndexedDatabase>) {
        let bed = TestBedConfig::tiny(61).build();
        let dbs = bed.databases.iter().map(|d| d.db.clone()).collect();
        (bed, dbs)
    }

    /// Every statistic of two lists of profiles agrees, floats bit for bit.
    fn assert_same_profiles(a: &[DatabaseProfile], b: &[DatabaseProfile]) {
        assert_eq!(a.len(), b.len());
        let words = |p: &DatabaseProfile| {
            let mut words: Vec<(TermId, u32, u64, u64)> = p
                .summary
                .iter()
                .map(|(t, s)| (t, s.sample_df, s.df.to_bits(), s.tf.to_bits()))
                .collect();
            words.sort_unstable();
            words
        };
        let checkpoints = |p: &DatabaseProfile| {
            p.sample
                .checkpoints
                .iter()
                .map(|c| (c.sample_size, c.alpha.to_bits(), c.log_beta.to_bits()))
                .collect::<Vec<_>>()
        };
        for (x, y) in a.iter().zip(b) {
            assert_eq!(words(x), words(y));
            assert_eq!(x.summary.db_size().to_bits(), y.summary.db_size().to_bits());
            assert_eq!(
                x.summary.gamma().map(f64::to_bits),
                y.summary.gamma().map(f64::to_bits)
            );
            assert_eq!(x.sample.exact_df, y.sample.exact_df);
            assert_eq!(checkpoints(x), checkpoints(y));
            assert_eq!(x.sample.queries_sent, y.sample.queries_sent);
            assert_eq!(x.sample.docs, y.sample.docs);
            assert_eq!(x.classification, y.classification);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (mut bed, dbs) = fixture();
        let config = PipelineConfig {
            frequency_estimation: true,
            ..Default::default()
        };
        assert_same_profiles(
            &profile_qbs_many(&dbs, &bed.seed_lexicon, &config, 99, 1),
            &profile_qbs_many(&dbs, &bed.seed_lexicon, &config, 99, 4),
        );
        let mut rng = StdRng::seed_from_u64(61);
        let examples = bed.training_documents(5, &mut rng);
        let classifier = ProbeClassifier::train(&bed.hierarchy, &examples, 6);
        assert_same_profiles(
            &profile_fps_many(&dbs, &bed.hierarchy, &classifier, &config, 99, 1),
            &profile_fps_many(&dbs, &bed.hierarchy, &classifier, &config, 99, 4),
        );
    }

    #[test]
    fn different_seeds_give_different_samples() {
        let (bed, dbs) = fixture();
        let config = PipelineConfig::default();
        let a = profile_qbs_many(&dbs, &bed.seed_lexicon, &config, 1, 2);
        let b = profile_qbs_many(&dbs, &bed.seed_lexicon, &config, 2, 2);
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.sample.docs != y.sample.docs),
            "independent seeds should sample differently"
        );
    }

    #[test]
    fn results_are_in_database_order() {
        let (bed, dbs) = fixture();
        let config = PipelineConfig::default();
        let profiles = profile_qbs_many(&dbs, &bed.seed_lexicon, &config, 5, 3);
        // Each profile's sample documents must come from its own database:
        // spot-check by verifying sampled doc ids exist in that database.
        for (profile, db) in profiles.iter().zip(&dbs) {
            for doc in &profile.sample.docs {
                assert!(db.fetch(doc.id).is_some());
            }
        }
    }

    #[test]
    fn fps_parallel_classifies_every_database() {
        let (mut bed, dbs) = fixture();
        let mut rng = StdRng::seed_from_u64(61);
        let examples = bed.training_documents(5, &mut rng);
        let classifier = ProbeClassifier::train(&bed.hierarchy, &examples, 6);
        let config = PipelineConfig::default();
        let profiles = profile_fps_many(&dbs, &bed.hierarchy, &classifier, &config, 7, 4);
        assert_eq!(profiles.len(), dbs.len());
        for p in &profiles {
            assert!(p.classification.is_some());
        }
    }

    #[test]
    fn zero_databases_is_fine() {
        let (bed, _) = fixture();
        let dbs: Vec<IndexedDatabase> = Vec::new();
        let config = PipelineConfig::default();
        assert!(profile_qbs_many(&dbs, &bed.seed_lexicon, &config, 1, 8).is_empty());
    }
}
