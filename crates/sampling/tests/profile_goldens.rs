//! Golden digests of whole database profiles, recorded before the samplers
//! kept running sample counts, searched without a score map and dropped
//! hashed membership sets. A profile is everything profiling hands on:
//! the summary (every word's statistics, the size estimate, `γ`), the raw
//! sample summary, the exact match counts, the Mandelbrot checkpoints, the
//! query count and the sampled document ids. Any change to a probe, a
//! ranking, an RNG draw or a floating-point operation moves a digest.

use corpus::TestBedConfig;
use dbselect_core::summary::ContentSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{
    profile_fps, profile_qbs, DatabaseProfile, PipelineConfig, ProbeClassifier, ProbeSource,
    RuleClassifier, RuleLearnerConfig,
};

/// FNV-1a over little-endian `u64`s.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn summary(&mut self, summary: &ContentSummary) {
        let mut words: Vec<_> = summary.iter().map(|(t, s)| (t, *s)).collect();
        words.sort_unstable_by_key(|&(t, _)| t);
        self.u64(words.len() as u64);
        for (term, stats) in words {
            self.u64(u64::from(term));
            self.u64(u64::from(stats.sample_df));
            self.u64(stats.df.to_bits());
            self.u64(stats.tf.to_bits());
        }
        self.u64(summary.db_size().to_bits());
        self.u64(u64::from(summary.sample_size()));
        self.u64(summary.total_tf().to_bits());
        self.u64(summary.gamma().map_or(u64::MAX, f64::to_bits));
    }

    fn profile(&mut self, profile: &DatabaseProfile) {
        self.summary(&profile.summary);
        let sample = &profile.sample;
        self.summary(&sample.raw_summary());
        let mut exact: Vec<(u32, u32)> = sample.exact_df.iter().map(|(&t, &d)| (t, d)).collect();
        exact.sort_unstable();
        self.u64(exact.len() as u64);
        for (term, df) in exact {
            self.u64(u64::from(term));
            self.u64(u64::from(df));
        }
        self.u64(sample.checkpoints.len() as u64);
        for cp in &sample.checkpoints {
            self.u64(u64::from(cp.sample_size));
            self.u64(cp.alpha.to_bits());
            self.u64(cp.log_beta.to_bits());
        }
        self.u64(sample.queries_sent as u64);
        self.u64(sample.docs.len() as u64);
        for doc in &sample.docs {
            self.u64(u64::from(doc.id));
        }
        self.u64(profile.classification.map_or(u64::MAX, |c| c as u64));
    }
}

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        frequency_estimation: true,
        ..Default::default()
    }
}

/// QBS over databases of 150–900 documents: the 300-document stop and the
/// top-20 truncation of common-word probes both run.
#[test]
fn qbs_profiles_of_a_scaled_trec4_bed_match_their_recorded_digest() {
    let bed = TestBedConfig::trec4_like().scaled_down(10).build();
    let mut rng = StdRng::seed_from_u64(28);
    let mut digest = Digest::new();
    let mut stopped_at_target = 0;
    for tdb in &bed.databases {
        let profile = profile_qbs(&tdb.db, &bed.seed_lexicon, &pipeline(), &mut rng);
        stopped_at_target += usize::from(profile.sample.len() == 300);
        digest.profile(&profile);
    }
    assert_eq!(bed.databases.len(), 10);
    assert!(
        stopped_at_target > 0,
        "no database reached the sample target"
    );
    assert_eq!(digest.0, 0x7e5a_cdfa_0b70_5079, "{:#x}", digest.0);
}

/// FPS over one tiny test bed with both probe sources: the single-word
/// classifier and the rule learner (whose rules may be conjunctions).
#[test]
fn fps_profiles_of_a_tiny_bed_match_their_recorded_digests() {
    let mut bed = TestBedConfig::tiny(61).build();
    let mut rng = StdRng::seed_from_u64(61);
    let examples = bed.training_documents(5, &mut rng);
    let words = ProbeClassifier::train(&bed.hierarchy, &examples, 6);
    let rules = RuleClassifier::train(&bed.hierarchy, &examples, &RuleLearnerConfig::default());
    let sources: [&dyn ProbeSource; 2] = [&words, &rules];
    let digests: Vec<u64> = sources
        .iter()
        .map(|&source| {
            let mut digest = Digest::new();
            for tdb in &bed.databases {
                let profile = profile_fps(&tdb.db, &bed.hierarchy, source, &pipeline(), &mut rng);
                digest.profile(&profile);
            }
            digest.0
        })
        .collect();
    assert_eq!(bed.databases.len(), 12);
    assert_eq!(
        digests,
        [0x58be_5131_e8c3_09a5, 0xd2e3_7e3b_3f88_ddd7],
        "{digests:#x?}"
    );
}
