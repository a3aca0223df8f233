//! The catalog the experiment harness routes over serves the summaries
//! profiling produced: for QBS and FPS collections of the generated tiny
//! bed, under both category weightings, every database's frozen `Ŝ(D)` and
//! `R̂(D)` answer `p̂(w|D)` and `p_tf(w|D)` with the bits of the lazy
//! summaries (`ContentSummary`, `ShrunkSummary`) — for every word of the
//! bed's vocabulary and for a word no database has. `repro` computes every
//! routed number of the paper's tables over this catalog.

use bench::{profile_collection, shrink_collection, HarnessConfig};
use corpus::TestBedConfig;
use dbselect_core::category_summary::CategoryWeighting;
use dbselect_core::summary::SummaryView;
use sampling::SamplerKind;
use textindex::TermId;

#[test]
fn harness_catalogs_serve_the_lazy_summaries_bit_for_bit() {
    for sampler in [SamplerKind::Qbs, SamplerKind::Fps] {
        let mut bed = TestBedConfig::tiny(55).build();
        let names: Vec<String> = bed.databases.iter().map(|d| d.name.clone()).collect();
        let config = HarnessConfig::new(sampler, true, 5500);
        let profiled = profile_collection(&mut bed, &config);
        let words: Vec<TermId> = (0..bed.dict.len() as TermId)
            .chain([TermId::MAX - 1])
            .collect();
        for weighting in [CategoryWeighting::BySize, CategoryWeighting::Uniform] {
            let profiled = shrink_collection(
                &bed.hierarchy,
                bed.dict.len(),
                profiled.summaries.clone(),
                profiled.classifications.clone(),
                &HarnessConfig {
                    weighting,
                    ..config
                },
            );
            let catalog = profiled.catalog(&names);
            assert_eq!(catalog.len(), names.len());
            for db in 0..catalog.len() {
                let label = format!("{sampler:?} {weighting:?} db {db}");
                let (lazy, frozen) = (&profiled.shrunk[db], catalog.shrunk(db));
                let (sample, unshrunk) = (&profiled.summaries[db], catalog.unshrunk(db));
                for &w in &words {
                    assert_eq!(
                        frozen.p_df(w).to_bits(),
                        lazy.p_df(w).to_bits(),
                        "{label}: shrunk p_df({w})"
                    );
                    assert_eq!(
                        frozen.p_tf(w).to_bits(),
                        lazy.p_tf(w).to_bits(),
                        "{label}: shrunk p_tf({w})"
                    );
                    assert_eq!(
                        unshrunk.p_df(w).to_bits(),
                        sample.p_df(w).to_bits(),
                        "{label}: sample p_df({w})"
                    );
                    assert_eq!(
                        unshrunk.p_tf(w).to_bits(),
                        sample.p_tf(w).to_bits(),
                        "{label}: sample p_tf({w})"
                    );
                }
            }
        }
    }
}
