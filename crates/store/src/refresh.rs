//! Incremental refresh of a frozen collection: re-probe a few databases,
//! re-fit **their** shrinkage mixtures, and emit per-round delta patches
//! — without perturbing a single bit of any untouched database.
//!
//! ## The pinned epoch
//!
//! Shrinkage ties every database to the category hierarchy: components
//! are aggregates over *all* databases, so naively re-running
//! [`CollectionStore::shrink_all`] after one database changes would move
//! every database's shrunk summary (the touched database's new sample
//! leaks into every shared aggregate). That would make "delta" snapshots
//! as large as full ones and refresh cost proportional to the catalog.
//!
//! A [`RefreshSession`] instead **pins the epoch model** at session
//! start:
//!
//! * the category aggregates, from which every database's components
//!   (path-edge remainders plus the leaf remainder, exactly as
//!   [`CategorySummaries::components_for`] computes them from the base
//!   store) are derived — a refreshed database's leaf remainder keeps
//!   subtracting its **base** sample, its pinned leaf basis,
//! * the uniform-model probability `1/|V|` of the base dictionary, and
//! * LM's global model (the Root summary).
//!
//! A refresh round then re-fits the EM mixture **only for the re-probed
//! database**, against its pinned components — the "restricted EM refit".
//! Untouched databases keep their components, λs, and summaries
//! literally unchanged, so a delta records only the touched databases
//! and replaying it is bit-identical to [`RefreshSession::freeze_full`],
//! a full freeze of the same post-refresh state under the same pinned
//! epoch. Re-basing the epoch (folding refreshed samples back into the
//! shared aggregates) is a full `dbselect freeze`, which starts a new
//! chain.
//!
//! [`CategorySummaries::components_for`]: dbselect_core::category_summary::CategorySummaries::components_for

use std::sync::Arc;

use dbselect_core::category_summary::{path_components, CategoryWeighting, SummaryComponent};
use dbselect_core::frozen::{Basis, CategoryColumns, FrozenSummary};
use dbselect_core::hierarchy::Hierarchy;
use dbselect_core::shrinkage::{LambdaFitter, ShrinkageConfig};
use dbselect_core::summary::ContentSummary;
use textindex::{TermDict, TermId};

use broker::{Catalog, ProfiledDb};

use crate::catalog::StoredCatalog;
use crate::delta::DbPatch;
use crate::snapshot::ServingSnapshot;

/// The model a freeze pins from a stored catalog, built from **one**
/// category aggregation: the category columns (Eq. 1's aggregates,
/// shared by every catalog frozen under the epoch), the EM configuration
/// (`uniform_p` = `1/|V|` of the stored dictionary), LM's global model and
/// the category paths. [`ServingSnapshot::from_stored`] pins one and
/// freezes through it once; a [`RefreshSession`] keeps it.
#[derive(Debug)]
pub(crate) struct Epoch {
    /// The category aggregates, term-major.
    categories: Arc<CategoryColumns>,
    /// The EM configuration of every fit under this epoch.
    pub(crate) config: ShrinkageConfig,
    /// `(term, p̂(w|G))` of the Root summary under `BySize` weighting,
    /// ascending — whatever weighting the λs were fitted under.
    lm_global: Vec<(TermId, f64)>,
    /// Full category path per database.
    paths: Vec<String>,
}

impl Epoch {
    /// Pin the epoch of `stored` as it is now.
    pub(crate) fn pin(stored: &StoredCatalog) -> Epoch {
        let store = &stored.store;
        let summaries = store.categories(stored.weighting);
        let root = match stored.weighting {
            CategoryWeighting::BySize => summaries.category_summary(Hierarchy::ROOT),
            CategoryWeighting::Uniform => store.root_summary(CategoryWeighting::BySize),
        };
        let mut lm_global: Vec<(TermId, f64)> =
            root.probabilities().map(|(t, _, p_tf)| (t, p_tf)).collect();
        lm_global.sort_unstable_by_key(|&(t, _)| t);
        let categories =
            CategoryColumns::new(&store.hierarchy, summaries.aggregates(), stored.weighting);
        let paths = store
            .databases
            .iter()
            .map(|db| store.hierarchy.full_name(db.classification))
            .collect();
        Epoch {
            categories: Arc::new(categories),
            config: store.shrinkage_config(),
            lm_global,
            paths,
        }
    }

    /// The components `db`'s λs are fitted against: its path-edge
    /// remainders plus its leaf remainder of `basis`, exactly as
    /// `CategorySummaries::components_for` computes them.
    fn components(&self, category: usize, basis: &ContentSummary) -> Vec<Arc<SummaryComponent>> {
        let path = self.categories.path_from_root(category);
        let aggregates = self.categories.aggregates_of(&path);
        let path: Vec<_> = aggregates.iter().collect();
        path_components(&path, basis, self.categories.weighting())
    }

    /// The serving catalog of `stored` under this epoch: sample summaries
    /// frozen, shrunk summaries factored over the pinned category columns
    /// (nothing is mixed), each leaf remainder subtracting `bases[db]`
    /// where a refresh replaced the sample it was pinned with.
    pub(crate) fn catalog(&self, stored: &StoredCatalog, bases: &[Option<Arc<Basis>>]) -> Catalog {
        let databases = stored.store.databases.iter().enumerate();
        let dbs = databases.map(|(i, db)| ProfiledDb {
            name: db.name.clone(),
            summary: &db.summary,
            category: db.classification,
            lambdas: (stored.lambdas_df[i].clone(), stored.lambdas_tf[i].clone()),
            basis: bases.get(i).cloned().flatten(),
        });
        Catalog::freeze(Arc::clone(&self.categories), self.config.uniform_p, dbs)
            .expect("a stored catalog's λs fit its category paths")
    }

    /// The full serving snapshot of `stored` under this epoch.
    pub(crate) fn snapshot(
        &self,
        stored: &StoredCatalog,
        bases: &[Option<Arc<Basis>>],
    ) -> ServingSnapshot {
        ServingSnapshot {
            dict: stored.store.dict.clone(),
            categories: self.paths.clone(),
            lm_global: self.lm_global.clone(),
            catalog: self.catalog(stored, bases),
        }
    }
}

/// A refresh epoch over a frozen v1 catalog: applies re-probe results
/// one database at a time and can freeze the full current state for
/// reference (or as a chain base).
#[derive(Debug)]
pub struct RefreshSession {
    stored: StoredCatalog,
    /// Pinned at session start. `uniform_p` stays `1/|V|` of the *base*
    /// dictionary even after probes grow the dictionary.
    epoch: Epoch,
    /// Per database, once a probe replaced it: the sample its leaf
    /// remainder was pinned with (the base sample), which every later fit
    /// and freeze keeps subtracting.
    bases: Vec<Option<ContentSummary>>,
}

impl RefreshSession {
    /// Pin the epoch model of `stored` and start a session. The session
    /// works on summaries only: the databases' sample documents are
    /// dropped here (no freeze reads them, and a probe would leave them
    /// stale).
    pub fn new(mut stored: StoredCatalog) -> RefreshSession {
        for db in &mut stored.store.databases {
            db.sample_docs = Vec::new();
        }
        let epoch = Epoch::pin(&stored);
        let bases = vec![None; stored.store.databases.len()];
        RefreshSession {
            stored,
            epoch,
            bases,
        }
    }

    /// Number of databases under refresh.
    pub fn len(&self) -> usize {
        self.stored.store.databases.len()
    }

    /// True when the session manages no databases.
    pub fn is_empty(&self) -> bool {
        self.stored.store.databases.is_empty()
    }

    /// Database names, index order.
    pub fn names(&self) -> Vec<&str> {
        self.stored
            .store
            .databases
            .iter()
            .map(|db| db.name.as_str())
            .collect()
    }

    /// The shared term dictionary (probes intern new terms into it).
    pub fn dict(&self) -> &TermDict {
        &self.stored.store.dict
    }

    /// Mutable dictionary access for re-probe document ingestion.
    pub fn dict_mut(&mut self) -> &mut TermDict {
        &mut self.stored.store.dict
    }

    /// The current content summary of `db` (base, or last probe applied).
    pub fn summary(&self, db: usize) -> &ContentSummary {
        &self.stored.store.databases[db].summary
    }

    /// Sample coverage of `db` — `sample_size / |D̂|`, the uncertainty
    /// signal the refresh scheduler prioritizes on (0 when the size
    /// estimate is degenerate).
    pub fn coverage(&self, db: usize) -> f64 {
        let s = self.summary(db);
        if s.db_size() > 0.0 {
            f64::from(s.sample_size()) / s.db_size()
        } else {
            1.0
        }
    }

    /// Apply one re-probe result: re-fit the database's EM mixture
    /// against its **pinned** components (the restricted refit — no other
    /// database's λs move), store the new summary and λs, and return the
    /// delta patch that takes a serving catalog from the previous state
    /// to this one.
    pub fn apply_probe(&mut self, db: usize, summary: ContentSummary) -> DbPatch {
        let current = &self.stored.store.databases[db];
        let basis = self.bases[db].as_ref().unwrap_or(&current.summary);
        let components = self.epoch.components(current.classification, basis);
        let (lambdas_df, lambdas_tf) =
            LambdaFitter::default().fit(&summary, &components, &self.epoch.config);
        let patch = DbPatch {
            db: db as u32,
            gamma: summary.gamma().unwrap_or(-2.0),
            lambdas: (lambdas_df.clone(), lambdas_tf.clone()),
            unshrunk: FrozenSummary::from_unshrunk(&summary),
        };
        self.stored.lambdas_df[db] = lambdas_df;
        self.stored.lambdas_tf[db] = lambdas_tf;
        let old = std::mem::replace(&mut self.stored.store.databases[db].summary, summary);
        self.bases[db].get_or_insert(old);
        patch
    }

    /// Freeze the session's **entire current state** under the pinned
    /// epoch — the reference a replayed delta chain must match bit for
    /// bit. At generation 0 (no probes applied) this equals
    /// [`ServingSnapshot::from_stored`], so a `dbselect freeze` output
    /// can serve as a chain base.
    pub fn freeze_full(&self) -> ServingSnapshot {
        let bases: Vec<Option<Arc<Basis>>> = self
            .bases
            .iter()
            .map(|b| {
                let basis = |s| Arc::new(Basis::of(&FrozenSummary::from_unshrunk(s)));
                b.as_ref().map(basis)
            })
            .collect();
        self.epoch.snapshot(&self.stored, &bases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectionStore, StoredDatabase};
    use textindex::Document;

    #[test]
    fn a_session_holds_summaries_not_sample_documents() {
        let mut dict = TermDict::new();
        let (a, b) = (dict.intern("heart"), dict.intern("goal"));
        let mut hierarchy = Hierarchy::new("Root");
        let leaves = [
            hierarchy.ensure_path("Health/Heart"),
            hierarchy.ensure_path("Sports/Soccer"),
        ];
        let docs = [vec![a, b], vec![a], vec![b, b]];
        let databases = leaves
            .iter()
            .enumerate()
            .map(|(i, &classification)| {
                let sample: Vec<Document> = (docs[i..].iter().enumerate())
                    .map(|(id, tokens)| Document::from_tokens(id as u32, tokens.clone()))
                    .collect();
                StoredDatabase {
                    name: format!("db{i}"),
                    classification,
                    summary: ContentSummary::from_sample(sample.iter(), 400.0),
                    sample_docs: docs[i..].to_vec(),
                }
            })
            .collect();
        let store = CollectionStore {
            dict,
            hierarchy,
            databases,
        };
        let stored = StoredCatalog::freeze(store, CategoryWeighting::BySize);
        let reference = ServingSnapshot::from_stored(&stored).value_digest();
        let session = RefreshSession::new(stored);
        let dbs = &session.stored.store.databases;
        assert!(dbs.iter().all(|db| db.sample_docs.is_empty()));
        assert_eq!(session.freeze_full().value_digest(), reference);
    }
}
