//! Shared constructors for broker unit tests.

use std::sync::Arc;

use dbselect_core::category_summary::{CategorySummaries, CategoryWeighting};
use dbselect_core::frozen::{Basis, CategoryColumns, FrozenSummary};
use dbselect_core::hierarchy::Hierarchy;
use dbselect_core::shrinkage::{LambdaFitter, ShrinkageConfig, ShrunkSummary};
use dbselect_core::summary::{ContentSummary, WordStats};
use selection::SummaryPair;
use textindex::TermId;

use crate::catalog::{Catalog, ProfiledDb};

/// A sample-based summary with explicit per-word sample document
/// frequencies; `df` is the usual sample-scaled estimate.
pub fn sampled_summary(db_size: f64, sample_size: u32, words: &[(TermId, u32)]) -> ContentSummary {
    let stats = |&(t, sample_df): &(TermId, u32)| {
        let df = f64::from(sample_df) / f64::from(sample_size.max(1)) * db_size;
        let tf = df * 2.0;
        (t, WordStats { sample_df, df, tf })
    };
    ContentSummary::new(db_size, sample_size, words.iter().map(stats).collect())
}

/// A database as `adaptive_rank` scores it: its sample summary and the
/// lazy mixture its catalog's `R̂(D)` must equal bit for bit.
pub type Oracle = (ContentSummary, ShrunkSummary);

/// The pairs `adaptive_rank` ranks.
pub fn pairs(oracles: &[Oracle]) -> Vec<SummaryPair<'_>> {
    let pairs = oracles.iter();
    pairs
        .map(|(unshrunk, shrunk)| SummaryPair { unshrunk, shrunk })
        .collect()
}

/// The catalog serving freezes for `summaries` classified round-robin
/// under three leaves of a two-level hierarchy (two subtrees), with the
/// oracles over the same components and λs.
pub fn hierarchical(summaries: Vec<ContentSummary>) -> (Vec<Oracle>, Catalog) {
    let leaves = ["Health/Heart", "Health/Lung", "Sports/Soccer"];
    let dbs = (summaries.into_iter().enumerate())
        .map(|(i, s)| (leaves[i % leaves.len()], s))
        .collect();
    classified(CategoryWeighting::BySize, dbs, Vec::new())
}

/// The catalog serving freezes for summaries each classified under the
/// category path given with it (`""` is the root): category columns
/// under `weighting`, λs fitted by EM, every shrunk summary factored over
/// its category path. Databases are named `db{i}`. Each `(db, sample)` of
/// `reprobed` is a sample a refresh put in place after the fit: the
/// database serves it, mixed under the λs and components fitted on the
/// sample it replaced, which its leaf remainder keeps subtracting.
pub fn classified(
    weighting: CategoryWeighting,
    dbs: Vec<(&str, ContentSummary)>,
    mut reprobed: Vec<(usize, ContentSummary)>,
) -> (Vec<Oracle>, Catalog) {
    let mut hierarchy = Hierarchy::new("Root");
    let paths = dbs.iter().map(|db| db.0);
    let categories: Vec<_> = paths.map(|path| hierarchy.ensure_path(path)).collect();
    let refs: Vec<_> = categories
        .iter()
        .copied()
        .zip(dbs.iter().map(|d| &d.1))
        .collect();
    let aggregates = CategorySummaries::build(&hierarchy, &refs, weighting);
    let columns = CategoryColumns::new(&hierarchy, aggregates.aggregates(), weighting);
    let config = ShrinkageConfig::default();
    let (mut oracles, mut bases) = (Vec::new(), Vec::new());
    for (db, (&category, (_, base))) in categories.iter().zip(dbs).enumerate() {
        let components = aggregates.components_for(&hierarchy, category, &base, true);
        let (df, tf) = LambdaFitter::default().fit(&base, &components, &config);
        let probe = reprobed.iter().position(|p| p.0 == db);
        bases.push(probe.map(|_| Arc::new(Basis::of(&FrozenSummary::from_unshrunk(&base)))));
        let unshrunk = probe.map_or(base, |at| reprobed.swap_remove(at).1);
        let shrunk = ShrunkSummary::from_parts(&unshrunk, &components, df, tf, config.uniform_p);
        oracles.push((unshrunk, shrunk));
    }
    let profiled = (oracles.iter().zip(categories).zip(bases).enumerate()).map(
        |(i, (((summary, shrunk), category), basis))| ProfiledDb {
            name: format!("db{i}"),
            summary,
            category,
            lambdas: (shrunk.lambdas().to_vec(), shrunk.lambdas_tf().to_vec()),
            basis,
        },
    );
    let catalog =
        Catalog::freeze(Arc::new(columns), config.uniform_p, profiled).expect("λs cover the path");
    (oracles, catalog)
}
