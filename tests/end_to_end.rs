//! Cross-crate integration tests: the full pipeline (corpus generation →
//! sampling → summaries → shrinkage → selection → evaluation) on small
//! test beds, asserting the paper's qualitative claims hold end to end.

use corpus::TestBedConfig;
use dbselect_core::category_summary::{CategorySummaries, CategoryWeighting};
use dbselect_core::hierarchy::CategoryId;
use dbselect_core::shrinkage::{shrink, ShrinkageConfig};
use dbselect_core::summary::{ContentSummary, SummaryView};
use eval::metrics::{summary_quality, EvaluatedSummary};
use eval::rk::rk_for_ranking;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{profile_qbs, PipelineConfig, SamplerKind};
use selection::{
    adaptive_rank, rank_databases, AdaptiveConfig, BGloss, ShrinkageMode, SummaryPair,
};

struct Profiled {
    bed: corpus::TestBed,
    summaries: Vec<ContentSummary>,
    shrunk: Vec<dbselect_core::shrinkage::ShrunkSummary>,
}

/// Profile a small test bed with QBS + frequency estimation and shrink.
fn profile(seed: u64) -> Profiled {
    let mut config = TestBedConfig::tiny(seed);
    // Databases several times larger than the sample target, so summaries
    // are genuinely incomplete.
    config.sizes = corpus::SizeModel::Uniform(300, 700);
    config.num_databases = 16;
    let bed = config.build();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let pipeline = PipelineConfig {
        frequency_estimation: true,
        ..Default::default()
    };
    let mut qbs = pipeline;
    qbs.qbs.target_sample_size = 100; // small samples: incompleteness guaranteed

    let summaries: Vec<ContentSummary> = bed
        .databases
        .iter()
        .map(|tdb| profile_qbs(&tdb.db, &bed.seed_lexicon, &qbs, &mut rng).summary)
        .collect();
    let classifications: Vec<CategoryId> = bed.true_categories();
    let refs: Vec<(CategoryId, &ContentSummary)> = classifications
        .iter()
        .copied()
        .zip(summaries.iter())
        .collect();
    let cats = CategorySummaries::build(&bed.hierarchy, &refs, CategoryWeighting::BySize);
    let shrink_config = ShrinkageConfig {
        uniform_p: 1.0 / bed.dict.len() as f64,
        ..Default::default()
    };
    let shrunk = summaries
        .iter()
        .zip(&classifications)
        .map(|(s, &c)| {
            let comps = cats.components_for(&bed.hierarchy, c, s, true);
            shrink(s, &comps, &shrink_config)
        })
        .collect();
    Profiled {
        bed,
        summaries,
        shrunk,
    }
}

#[test]
fn shrinkage_improves_mean_recall() {
    let p = profile(11);
    let mut wr_gain = 0.0;
    let mut ur_gain = 0.0;
    for (i, tdb) in p.bed.databases.iter().enumerate() {
        let perfect = EvaluatedSummary::from_content_summary(&ContentSummary::perfect(&tdb.db));
        let unshrunk = EvaluatedSummary::from_content_summary(&p.summaries[i]);
        let shrunk = EvaluatedSummary::from_shrunk_summary(&p.shrunk[i]);
        let qu = summary_quality(&unshrunk, &perfect);
        let qs = summary_quality(&shrunk, &perfect);
        wr_gain += qs.weighted_recall - qu.weighted_recall;
        ur_gain += qs.unweighted_recall - qu.unweighted_recall;
    }
    let n = p.bed.databases.len() as f64;
    assert!(
        wr_gain / n > 0.0,
        "mean weighted-recall gain {}",
        wr_gain / n
    );
    assert!(
        ur_gain / n > 0.0,
        "mean unweighted-recall gain {}",
        ur_gain / n
    );
}

#[test]
fn shrinkage_precision_loss_is_bounded() {
    let p = profile(12);
    for (i, tdb) in p.bed.databases.iter().enumerate() {
        let perfect = EvaluatedSummary::from_content_summary(&ContentSummary::perfect(&tdb.db));
        let shrunk = EvaluatedSummary::from_shrunk_summary(&p.shrunk[i]);
        let q = summary_quality(&shrunk, &perfect);
        // The paper's weighted precision stays above 0.9; give slack for
        // the miniature test bed.
        assert!(
            q.weighted_precision > 0.6,
            "db {i}: wp {}",
            q.weighted_precision
        );
    }
}

#[test]
fn universal_shrinkage_lets_bgloss_rank_every_database() {
    let p = profile(13);
    let pairs: Vec<SummaryPair<'_>> = p
        .summaries
        .iter()
        .zip(&p.shrunk)
        .map(|(unshrunk, shrunk)| SummaryPair { unshrunk, shrunk })
        .collect();
    let mut rng = StdRng::seed_from_u64(99);
    let config = AdaptiveConfig {
        mode: ShrinkageMode::Always,
        ..Default::default()
    };
    let query = &p.bed.queries[0];
    let outcome = adaptive_rank(&BGloss, &query.terms, &pairs, &config, &mut rng);
    // Every shrunk summary gives every word non-zero probability, so no
    // database collapses to a zero bGlOSS score.
    assert_eq!(outcome.ranking.len(), p.bed.databases.len());
}

#[test]
fn plain_bgloss_drops_databases_missing_query_words() {
    let p = profile(14);
    let views: Vec<&dyn SummaryView> = p.summaries.iter().map(|s| s as &dyn SummaryView).collect();
    let mut dropped_any = false;
    for query in &p.bed.queries {
        let ranking = rank_databases(&BGloss, &query.terms, &views);
        if ranking.len() < p.bed.databases.len() {
            dropped_any = true;
        }
    }
    assert!(
        dropped_any,
        "incomplete summaries must zero out some bGlOSS scores"
    );
}

#[test]
fn adaptive_shrinkage_beats_plain_for_bgloss() {
    // Averaged over several seeds to keep the assertion robust; this is the
    // paper's central claim in its sharpest setting (bGlOSS, short queries).
    let mut shr_total = 0.0;
    let mut plain_total = 0.0;
    let mut n = 0usize;
    for seed in [21u64, 22, 23] {
        let p = profile(seed);
        let pairs: Vec<SummaryPair<'_>> = p
            .summaries
            .iter()
            .zip(&p.shrunk)
            .map(|(unshrunk, shrunk)| SummaryPair { unshrunk, shrunk })
            .collect();
        let views: Vec<&dyn SummaryView> =
            p.summaries.iter().map(|s| s as &dyn SummaryView).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for (qi, query) in p.bed.queries.iter().enumerate() {
            let config = AdaptiveConfig::default();
            let adaptive = adaptive_rank(&BGloss, &query.terms, &pairs, &config, &mut rng);
            let plain = rank_databases(&BGloss, &query.terms, &views);
            let k = 3;
            if let (Some(s), Some(pl)) = (
                rk_for_ranking(&adaptive.ranking, &p.bed.relevance[qi], k),
                rk_for_ranking(&plain, &p.bed.relevance[qi], k),
            ) {
                shr_total += s;
                plain_total += pl;
                n += 1;
            }
        }
    }
    assert!(n > 0);
    assert!(
        shr_total >= plain_total,
        "adaptive shrinkage mean R3 {} vs plain {}",
        shr_total / n as f64,
        plain_total / n as f64
    );
}

#[test]
fn pipeline_is_deterministic_given_seeds() {
    let a = profile(31);
    let b = profile(31);
    for (sa, sb) in a.summaries.iter().zip(&b.summaries) {
        assert_eq!(sa.vocabulary_size(), sb.vocabulary_size());
        assert_eq!(sa.db_size(), sb.db_size());
    }
    for (ra, rb) in a.shrunk.iter().zip(&b.shrunk) {
        assert_eq!(ra.lambdas(), rb.lambdas());
    }
}

/// The 24-database generated test bed of seed 30.
fn generated_testbed() -> corpus::TestBed {
    let mut config = TestBedConfig::tiny(30);
    config.num_databases = 24;
    config.build()
}

/// The 24-database generated test bed, QBS-profiled with frequency
/// estimation under seed 30.
fn generated_testbed_store() -> store::CollectionStore {
    use store::{CollectionStore, StoredDatabase};

    let bed = generated_testbed();
    let mut rng = StdRng::seed_from_u64(30);
    let pipeline = PipelineConfig {
        frequency_estimation: true,
        ..Default::default()
    };
    let databases: Vec<StoredDatabase> = bed
        .databases
        .iter()
        .map(|tdb| {
            let profile = profile_qbs(&tdb.db, &bed.seed_lexicon, &pipeline, &mut rng);
            StoredDatabase {
                name: tdb.name.clone(),
                classification: tdb.category,
                summary: profile.summary,
                sample_docs: Vec::new(),
            }
        })
        .collect();
    CollectionStore {
        dict: bed.dict.clone(),
        hierarchy: bed.hierarchy.clone(),
        databases,
    }
}

/// Golden bytes on a generated test bed: the digest of a frozen v1
/// catalog (its λ vectors included), recorded before category aggregates
/// became term-sorted columns and EM ran over a flat row slab. The
/// fixture's databases share category paths and their summaries have
/// over a thousand words on average, so the category sums run over many
/// databases in catalog order (visiting them in any other order moves
/// this digest) and EM runs over long rows; the hand-built store fixtures
/// have a handful of words. What the snapshot frozen from it serves is
/// pinned value by value below.
#[test]
fn generated_testbed_catalog_and_snapshot_bytes_match_their_recorded_digests() {
    use store::catalog::StoredCatalog;
    use store::codec::ChecksumWriter;

    let store = generated_testbed_store();
    let digests: Vec<u64> = [CategoryWeighting::BySize, CategoryWeighting::Uniform]
        .into_iter()
        .map(|weighting| {
            let frozen = StoredCatalog::freeze(store.clone(), weighting);
            let mut catalog = ChecksumWriter::new(std::io::sink());
            frozen.write_to(&mut catalog).unwrap();
            catalog.digest()
        })
        .collect();
    assert_eq!(
        digests,
        [0x32ce_ba65_7717_a982, 0xe398_4222_5df1_3b74],
        "{digests:#x?}"
    );
}

/// Golden values on the generated test bed: the bits of every value the
/// frozen snapshot serves (see `ServingSnapshot::value_digest`), recorded
/// from the v3 freeze before shrunk summaries were served in factored
/// form.
#[test]
fn generated_testbed_served_values_match_their_recorded_digests() {
    use store::catalog::StoredCatalog;
    use store::snapshot::ServingSnapshot;

    let store = generated_testbed_store();
    let digests: Vec<u64> = [CategoryWeighting::BySize, CategoryWeighting::Uniform]
        .into_iter()
        .map(|weighting| {
            let frozen = StoredCatalog::freeze(store.clone(), weighting);
            ServingSnapshot::from_stored(&frozen).value_digest()
        })
        .collect();
    assert_eq!(
        digests,
        [0x2fed_e2df_515a_277f, 0x36a1_59e5_f705_3a2c],
        "{digests:#x?}"
    );
}

/// Golden decisions on the generated test bed: for every query and each
/// served algorithm, the Adaptive engine's full ranking over the frozen
/// snapshot — its `used_shrinkage` vector and every `(index, score bits)`
/// entry — recorded before the uncertainty test read its moments in
/// word-major column passes. Any change to the closed-form fold's
/// operations or order moves a decision or a score bit and this digest.
#[test]
fn generated_testbed_adaptive_decisions_match_their_recorded_digests() {
    use broker::SelectionEngine;
    use selection::{Cori, Lm, SelectionAlgorithm};
    use std::io::Write;
    use std::sync::Arc;
    use store::catalog::StoredCatalog;
    use store::codec::ChecksumWriter;
    use store::snapshot::ServingSnapshot;

    let queries: Vec<Vec<u32>> = generated_testbed()
        .queries
        .iter()
        .map(|q| q.terms.clone())
        .collect();
    let frozen = StoredCatalog::freeze(generated_testbed_store(), CategoryWeighting::BySize);
    let snapshot = ServingSnapshot::from_stored(&frozen);
    let global = snapshot.lm_global.iter().copied().collect();
    let catalog = Arc::new(snapshot.catalog);
    let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
        Arc::new(BGloss),
        Arc::new(Cori::default()),
        Arc::new(Lm::from_global_map(0.5, global)),
    ];
    let (mut shrunk, mut decisions) = (0, 0);
    let digests: Vec<u64> = algorithms
        .into_iter()
        .map(|algorithm| {
            let engine =
                SelectionEngine::new(Arc::clone(&catalog), algorithm, AdaptiveConfig::default());
            let mut digest = ChecksumWriter::new(std::io::sink());
            for query in &queries {
                let outcome = engine.route(query);
                let used: Vec<u8> = outcome
                    .used_shrinkage
                    .iter()
                    .map(|&u| u8::from(u))
                    .collect();
                digest.write_all(&used).unwrap();
                digest
                    .write_all(&(outcome.ranking.len() as u64).to_le_bytes())
                    .unwrap();
                for entry in &outcome.ranking {
                    digest
                        .write_all(&(entry.index as u64).to_le_bytes())
                        .unwrap();
                    digest
                        .write_all(&entry.score.to_bits().to_le_bytes())
                        .unwrap();
                }
                shrunk += outcome.used_shrinkage.iter().filter(|&&u| u).count();
                decisions += outcome.used_shrinkage.len();
            }
            digest.digest()
        })
        .collect();
    // The test decides both ways on this bed, so the digests pin real
    // decisions, not a constant.
    assert!(0 < shrunk && shrunk < decisions, "{shrunk} of {decisions}");
    assert_eq!(
        digests,
        [
            0x65fd_e602_36a8_a379,
            0xd7ae_995f_b29d_d1a5,
            0x7ae6_8937_9562_7a02
        ],
        "{digests:#x?}"
    );
}

#[test]
fn fps_pipeline_runs_end_to_end() {
    let mut bed = TestBedConfig::tiny(41).build();
    let mut rng = StdRng::seed_from_u64(41);
    let examples = bed.training_documents(5, &mut rng);
    let classifier = sampling::ProbeClassifier::train(&bed.hierarchy, &examples, 6);
    let pipeline = PipelineConfig {
        frequency_estimation: true,
        ..Default::default()
    };
    for tdb in bed.databases.iter().take(4) {
        let profile =
            sampling::profile_fps(&tdb.db, &bed.hierarchy, &classifier, &pipeline, &mut rng);
        assert!(profile.classification.is_some());
        assert_eq!(profile.sampler, SamplerKind::Fps);
        assert!(profile.summary.vocabulary_size() > 0);
        assert!(profile.summary.db_size() > 0.0);
    }
}
