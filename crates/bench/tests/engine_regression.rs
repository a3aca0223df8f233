//! Regression guard for the broker refactor: the batched
//! [`SelectionEngine`] must reproduce the per-query `adaptive_rank` path
//! bit for bit — same ranked indices, same `f64` score bits, same
//! shrinkage decisions — for every (algorithm, shrinkage mode) pair on a
//! seeded testbed, regardless of worker-thread count.

use bench::{profile_collection, AlgoKind, HarnessConfig};
use broker::SelectionEngine;
use corpus::TestBedConfig;
use sampling::scheduler::db_rng;
use sampling::SamplerKind;
use selection::{adaptive_rank, AdaptiveConfig, AdaptiveOutcome, ShrinkageMode, SummaryPair};
use textindex::TermId;

fn assert_outcomes_match(reference: &AdaptiveOutcome, engine: &AdaptiveOutcome, label: &str) {
    assert_eq!(
        reference.used_shrinkage, engine.used_shrinkage,
        "{label}: shrinkage decisions diverged"
    );
    assert_eq!(
        reference.ranking.len(),
        engine.ranking.len(),
        "{label}: ranking lengths diverged"
    );
    for (r, e) in reference.ranking.iter().zip(&engine.ranking) {
        assert_eq!(r.index, e.index, "{label}: ranked database order diverged");
        assert_eq!(
            r.score.to_bits(),
            e.score.to_bits(),
            "{label}: score bits diverged at db {} ({} vs {})",
            r.index,
            r.score,
            e.score
        );
    }
}

#[test]
fn engine_is_bit_identical_to_adaptive_rank_for_all_algorithms_and_modes() {
    let mut bed = TestBedConfig::tiny(55).build();
    let config = HarnessConfig::new(SamplerKind::Qbs, true, 5500);
    let profiled = profile_collection(&mut bed, &config);

    let names: Vec<String> = bed.databases.iter().map(|d| d.name.clone()).collect();
    let catalog = std::sync::Arc::new(profiled.catalog(&names));
    let pairs: Vec<SummaryPair<'_>> = profiled
        .summaries
        .iter()
        .zip(&profiled.shrunk)
        .map(|(unshrunk, shrunk)| SummaryPair { unshrunk, shrunk })
        .collect();
    let queries: Vec<Vec<TermId>> = bed.queries.iter().map(|q| q.terms.clone()).collect();
    assert!(!queries.is_empty(), "testbed must supply queries");

    let seed = 9_001u64;
    for algo_kind in AlgoKind::all() {
        let algorithm = algo_kind.build(&profiled);
        for mode in [
            ShrinkageMode::Adaptive,
            ShrinkageMode::Always,
            ShrinkageMode::Never,
        ] {
            let adaptive_config = AdaptiveConfig {
                mode,
                ..Default::default()
            };

            // Reference: the pre-refactor path, one full-scan ranking per
            // query with the same per-query RNG derivation the engine uses.
            let reference: Vec<AdaptiveOutcome> = queries
                .iter()
                .enumerate()
                .map(|(qi, query)| {
                    let mut rng = db_rng(seed, qi);
                    adaptive_rank(
                        algorithm.as_ref(),
                        query,
                        &pairs,
                        &adaptive_config,
                        &mut rng,
                    )
                })
                .collect();

            let engine = SelectionEngine::new(
                std::sync::Arc::clone(&catalog),
                std::sync::Arc::clone(&algorithm),
                adaptive_config,
            );
            for threads in [1, 8] {
                let batched = engine.route_batch(&queries, seed, threads);
                assert_eq!(batched.len(), reference.len());
                for (qi, (r, e)) in reference.iter().zip(&batched).enumerate() {
                    let label = format!(
                        "{} / {mode:?} / {threads} threads / query {qi}",
                        algo_kind.name()
                    );
                    assert_outcomes_match(r, e, &label);
                }
            }
        }
    }
}
