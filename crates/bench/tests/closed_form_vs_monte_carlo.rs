//! The closed-form uncertainty test against the Monte-Carlo rule it
//! replaced, on a generated testbed: for each served algorithm, at least
//! 10 000 (query, database) decisions, taken once by the serving engine's
//! tabulated closed form and once by the library oracle,
//! [`adaptive_rank`], with the form hidden ([`Sampled`]) so it samples.
//! The two rules estimate the same moments, so they may only disagree near
//! the threshold: per-decision disagreement stays within 5 % and the
//! shrinkage-application rate (the paper's Table 10) within 2 percentage
//! points.

use std::sync::Arc;

use bench::{profile_collection, AlgoKind, HarnessConfig};
use broker::SelectionEngine;
use corpus::TestBedConfig;
use sampling::scheduler::{db_rng, fan_out_chunks};
use sampling::SamplerKind;
use selection::{adaptive_rank, AdaptiveConfig, Sampled, SummaryPair};
use textindex::TermId;

#[test]
fn closed_form_decisions_track_the_monte_carlo_rule() {
    let mut bed_config = TestBedConfig::tiny(30);
    bed_config.num_databases = 50;
    bed_config.num_queries = 200;
    let mut bed = bed_config.build();
    let profiled = profile_collection(&mut bed, &HarnessConfig::new(SamplerKind::Qbs, true, 30));
    let names: Vec<String> = bed.databases.iter().map(|d| d.name.clone()).collect();
    let catalog = Arc::new(profiled.catalog(&names));
    let queries: Vec<Vec<TermId>> = bed.queries.iter().map(|q| q.terms.clone()).collect();
    let pairs: Vec<SummaryPair<'_>> = (profiled.summaries.iter())
        .zip(&profiled.shrunk)
        .map(|(unshrunk, shrunk)| SummaryPair { unshrunk, shrunk })
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = AdaptiveConfig::default();

    for algo_kind in AlgoKind::all() {
        let algorithm = algo_kind.build(&profiled);
        let closed: Vec<bool> =
            SelectionEngine::new(Arc::clone(&catalog), Arc::clone(&algorithm), config)
                .route_batch(&queries, threads)
                .into_iter()
                .flat_map(|outcome| outcome.used_shrinkage)
                .collect();
        let sampled_rule = Sampled(algorithm);
        let sampled: Vec<bool> = fan_out_chunks(queries.len(), threads, |qi| {
            let rng = &mut db_rng(9_001, qi);
            adaptive_rank(&sampled_rule, &queries[qi], &pairs, &config, rng).used_shrinkage
        })
        .concat();
        assert_eq!(closed.len(), sampled.len());
        assert!(closed.len() >= 10_000, "{} decisions", closed.len());

        let total = closed.len() as f64;
        let disagree = closed.iter().zip(&sampled).filter(|(a, b)| a != b).count() as f64 / total;
        let rate = |d: &[bool]| d.iter().filter(|&&used| used).count() as f64 / total;
        let (closed_rate, sampled_rate) = (rate(&closed), rate(&sampled));
        println!(
            "{:7} closed form {closed_rate:.4}  Monte-Carlo {sampled_rate:.4}  disagree {disagree:.4}",
            algo_kind.name()
        );
        assert!(
            disagree <= 0.05,
            "{}: {disagree:.4} of decisions differ",
            algo_kind.name()
        );
        assert!(
            (closed_rate - sampled_rate).abs() <= 0.02,
            "{}: application rate {closed_rate:.4} vs {sampled_rate:.4}",
            algo_kind.name()
        );
    }
}
