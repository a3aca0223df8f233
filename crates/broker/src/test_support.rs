//! Shared constructors for broker unit tests.

use std::collections::HashMap;
use std::sync::Arc;

use dbselect_core::category_summary::{CategorySummaries, CategoryWeighting, SummaryComponent};
use dbselect_core::frozen::{CategoryColumns, FrozenSummary, ShrunkSummaries};
use dbselect_core::hierarchy::Hierarchy;
use dbselect_core::shrinkage::{shrink, ShrinkageConfig, ShrunkSummary};
use dbselect_core::summary::{ContentSummary, WordStats};
use textindex::TermId;

use crate::catalog::{Catalog, CatalogEntry};

/// A sample-based summary with explicit per-word sample document
/// frequencies; `df` is the usual sample-scaled estimate.
pub fn sampled_summary(db_size: f64, sample_size: u32, words: &[(TermId, u32)]) -> ContentSummary {
    let words: HashMap<TermId, WordStats> = words
        .iter()
        .map(|&(t, sample_df)| {
            let df = f64::from(sample_df) / f64::from(sample_size.max(1)) * db_size;
            (
                t,
                WordStats {
                    sample_df,
                    df,
                    tf: df * 2.0,
                },
            )
        })
        .collect();
    ContentSummary::new(db_size, sample_size, words)
}

/// Shrink `summary` against a single synthetic category component.
pub fn shrunk_for(summary: &ContentSummary, component: &[(TermId, f64)]) -> ShrunkSummary {
    let comp = SummaryComponent {
        p_df: component.iter().copied().collect(),
        p_tf: component.iter().copied().collect(),
    };
    shrink(summary, &[Arc::new(comp)], &ShrinkageConfig::default())
}

/// A catalog entry whose shrunk summary mixes in a fixed category model
/// covering words 1, 2 and 7.
pub fn entry(name: &str, unshrunk: ContentSummary) -> CatalogEntry {
    let shrunk = shrunk_for(&unshrunk, &[(1, 0.05), (2, 0.02), (7, 0.01)]);
    CatalogEntry {
        name: name.to_string(),
        unshrunk,
        shrunk,
    }
}

/// The catalog serving freezes for `summaries` classified round-robin
/// under three leaves of a two-level hierarchy — category columns, λs
/// fitted by EM, every shrunk summary factored over its category path —
/// and the entries whose lazy mixtures over the same components are what
/// `adaptive_rank` scores.
pub fn hierarchical(summaries: Vec<ContentSummary>) -> (Vec<CatalogEntry>, Catalog) {
    let mut hierarchy = Hierarchy::new("Root");
    let leaves = [
        hierarchy.ensure_path("Health/Heart"),
        hierarchy.ensure_path("Health/Lung"),
        hierarchy.ensure_path("Sports/Soccer"),
    ];
    let classified: Vec<_> = (0..summaries.len())
        .map(|i| leaves[i % leaves.len()])
        .collect();
    let refs: Vec<_> = classified.iter().copied().zip(&summaries).collect();
    let weighting = CategoryWeighting::BySize;
    let categories = CategorySummaries::build(&hierarchy, &refs, weighting);
    let columns = CategoryColumns::new(&hierarchy, categories.aggregates(), weighting);
    let config = ShrinkageConfig::default();
    let mut factored = ShrunkSummaries::new(config.uniform_p, Arc::new(columns));
    let (mut entries, mut frozen, mut gammas) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (category, unshrunk)) in classified.into_iter().zip(summaries).enumerate() {
        let components = categories.components_for(&hierarchy, category, &unshrunk, true);
        let shrunk = shrink(&unshrunk, &components, &config);
        let lambdas = (shrunk.lambdas().to_vec(), shrunk.lambdas_tf().to_vec());
        let own = FrozenSummary::from_unshrunk(&unshrunk);
        factored
            .push(category, lambdas, &own, None)
            .expect("λs cover the path");
        frozen.push(own);
        gammas.push(unshrunk.gamma().unwrap_or(-2.0));
        entries.push(CatalogEntry {
            name: format!("db{i}"),
            unshrunk,
            shrunk,
        });
    }
    let names = entries.iter().map(|e| e.name.clone()).collect();
    let catalog = Catalog::from_parts(names, frozen, factored, gammas);
    (entries, catalog)
}
