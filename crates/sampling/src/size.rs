//! Database size estimation via *sample-resample* (Si & Callan, SIGIR
//! 2003), as used in Section 5.2 of the paper.
//!
//! The idea: pick words from the document sample, query the database with
//! each, and compare the reported match count `df_D(w)` with the word's
//! sample document frequency `df_S(w)`. If the sample is representative,
//! `df_D(w) / |D| ≈ df_S(w) / |S|`, so each probe yields the estimate
//! `|D̂| = df_D(w) · |S| / df_S(w)`; the estimates are averaged.

use rand::Rng;
use textindex::RemoteDatabase;

use crate::sample::DocumentSample;

/// Configuration for sample-resample.
#[derive(Debug, Clone, Copy)]
pub struct SizeEstimationConfig {
    /// Number of probe words to resample.
    pub probes: usize,
    /// Minimum sample document frequency for a word to be eligible — very
    /// rare sample words give unstable ratios.
    pub min_sample_df: u32,
}

impl Default for SizeEstimationConfig {
    fn default() -> Self {
        SizeEstimationConfig {
            probes: 5,
            min_sample_df: 3,
        }
    }
}

/// Estimate `|D|` by sample-resample. Reuses match counts already observed
/// for probe words when available (no extra query cost), otherwise issues
/// one query per probe. Returns the sample size itself when the sample is
/// too small to probe.
pub fn sample_resample<R: Rng + ?Sized>(
    db: &dyn RemoteDatabase,
    sample: &DocumentSample,
    config: &SizeEstimationConfig,
    rng: &mut R,
) -> f64 {
    let sample_size = sample.len() as f64;
    if sample.is_empty() {
        return 0.0;
    }
    // Eligible words: frequent enough in the sample.
    let mut eligible: Vec<(u32, u32)> = sample // (term, sample_df)
        .sample_dfs()
        .filter(|&(_, df)| df >= config.min_sample_df)
        .collect();
    if eligible.is_empty() {
        return sample_size;
    }
    // Deterministic order before random selection.
    eligible.sort_unstable();
    let mut estimates = Vec::with_capacity(config.probes);
    for _ in 0..config.probes.min(eligible.len()) {
        let idx = rng.gen_range(0..eligible.len());
        let (term, sample_df) = eligible.swap_remove(idx);
        let df_db = match sample.exact_df.get(&term) {
            Some(&df) => f64::from(df),
            None => db.query(&[term], 0).total_matches as f64,
        };
        estimates.push(df_db * sample_size / f64::from(sample_df));
        if eligible.is_empty() {
            break;
        }
    }
    let estimate = estimates.iter().sum::<f64>() / estimates.len() as f64;
    // A database cannot be smaller than the distinct documents sampled
    // from it.
    estimate.max(sample_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qbs::{qbs_sample, QbsConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textindex::{Document, IndexedDatabase, TermId};

    /// 400 docs; term t in docs where i % (t+1) == 0 (Zipf-ish df curve).
    fn fixture_db() -> IndexedDatabase {
        let docs: Vec<Document> = (0..400u32)
            .map(|i| {
                let terms: Vec<TermId> = (0..60).filter(|&t| i % (t + 1) == 0).collect();
                Document::from_tokens(i, terms)
            })
            .collect();
        IndexedDatabase::new("fixture", docs)
    }

    #[test]
    fn estimates_are_in_the_right_ballpark() {
        let db = fixture_db();
        let mut rng = StdRng::seed_from_u64(17);
        let qbs = QbsConfig {
            target_sample_size: 100,
            ..Default::default()
        };
        let sample = qbs_sample(&db, &[0, 1, 2], &qbs, &mut rng);
        let est = sample_resample(&db, &sample, &SizeEstimationConfig::default(), &mut rng);
        // True size 400; accept a generous band — the method's accuracy
        // depends on sample representativeness.
        assert!((100.0..=1600.0).contains(&est), "estimate {est}");
    }

    #[test]
    fn estimate_never_below_sample_size() {
        let db = fixture_db();
        let mut rng = StdRng::seed_from_u64(18);
        let qbs = QbsConfig {
            target_sample_size: 50,
            ..Default::default()
        };
        let sample = qbs_sample(&db, &[0, 1], &qbs, &mut rng);
        let est = sample_resample(&db, &sample, &SizeEstimationConfig::default(), &mut rng);
        assert!(est >= sample.len() as f64);
    }

    #[test]
    fn empty_sample_yields_zero() {
        let db = fixture_db();
        let mut rng = StdRng::seed_from_u64(19);
        let est = sample_resample(
            &db,
            &DocumentSample::default(),
            &SizeEstimationConfig::default(),
            &mut rng,
        );
        assert_eq!(est, 0.0);
    }

    #[test]
    fn reuses_exact_df_without_new_queries() {
        // All eligible words already have exact counts: the estimator must
        // not panic and must produce a finite value.
        let db = fixture_db();
        let mut rng = StdRng::seed_from_u64(20);
        let qbs = QbsConfig {
            target_sample_size: 60,
            ..Default::default()
        };
        let sample = qbs_sample(&db, &[0, 1, 2, 3], &qbs, &mut rng);
        let est = sample_resample(&db, &sample, &SizeEstimationConfig::default(), &mut rng);
        assert!(est.is_finite() && est > 0.0);
    }
}
