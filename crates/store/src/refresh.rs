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
//! * the per-database category components (path-edge remainders plus the
//!   leaf remainder, exactly as [`CategorySummaries::components_for`]
//!   computed them from the base store),
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

use dbselect_core::category_summary::{CategoryWeighting, SummaryComponent};
use dbselect_core::frozen::{FrozenSummary, ShrunkMixer};
use dbselect_core::hierarchy::Hierarchy;
use dbselect_core::shrinkage::{LambdaFitter, ShrinkageConfig};
use dbselect_core::summary::ContentSummary;
use textindex::{TermDict, TermId};

use broker::Catalog;

use crate::catalog::StoredCatalog;
use crate::delta::DbPatch;
use crate::snapshot::ServingSnapshot;

/// The model a freeze pins from a stored catalog, built from **one**
/// category aggregation: each database's category components, the EM
/// configuration (`uniform_p` = `1/|V|` of the stored dictionary), LM's
/// global model and the category paths. [`ServingSnapshot::from_stored`]
/// pins one and freezes through it once; a [`RefreshSession`] keeps it.
#[derive(Debug)]
pub(crate) struct Epoch {
    /// Per database: the path-edge remainders plus its leaf remainder,
    /// exactly as `CategorySummaries::components_for` computes them.
    pub(crate) components: Vec<Vec<Arc<SummaryComponent>>>,
    /// The EM configuration of every fit under this epoch.
    pub(crate) config: ShrinkageConfig,
    /// `(term, p̂(w|G))` of the Root summary under `BySize` weighting,
    /// ascending — whatever weighting the λs were fitted under.
    lm_global: Vec<(TermId, f64)>,
    /// Full category path per database.
    categories: Vec<String>,
}

impl Epoch {
    /// Pin the epoch of `stored` as it is now.
    pub(crate) fn pin(stored: &StoredCatalog) -> Epoch {
        let store = &stored.store;
        let categories = store.categories(stored.weighting);
        let components = store
            .databases
            .iter()
            .map(|db| store.components(&categories, db))
            .collect();
        let root = match stored.weighting {
            CategoryWeighting::BySize => categories.category_summary(Hierarchy::ROOT),
            CategoryWeighting::Uniform => store.root_summary(CategoryWeighting::BySize),
        };
        let mut lm_global: Vec<(TermId, f64)> =
            root.probabilities().map(|(t, _, p_tf)| (t, p_tf)).collect();
        lm_global.sort_unstable_by_key(|&(t, _)| t);
        let categories = store
            .databases
            .iter()
            .map(|db| store.hierarchy.full_name(db.classification))
            .collect();
        Epoch {
            components,
            config: store.shrinkage_config(),
            lm_global,
            categories,
        }
    }

    /// Freeze one database under this epoch: its sample summary, and its
    /// shrunk summary mixed from the pinned components and `lambdas`.
    fn freeze_db(
        &self,
        mixer: &mut ShrunkMixer,
        db: usize,
        summary: &ContentSummary,
        lambdas: (&[f64], &[f64]),
    ) -> DbPatch {
        DbPatch {
            db: db as u32,
            gamma: summary.gamma().unwrap_or(-2.0),
            unshrunk: FrozenSummary::from_unshrunk(summary),
            shrunk: mixer.freeze(
                summary,
                &self.components[db],
                lambdas.0,
                lambdas.1,
                self.config.uniform_p,
            ),
        }
    }

    /// The serving catalog of `stored` under this epoch, every shrunk
    /// summary mixed through one scratch.
    pub(crate) fn catalog(&self, stored: &StoredCatalog) -> Catalog {
        let mut mixer = ShrunkMixer::default();
        let n = stored.store.databases.len();
        let (mut names, mut gammas) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut unshrunk, mut shrunk) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (i, db) in stored.store.databases.iter().enumerate() {
            let lambdas = (&stored.lambdas_df[i][..], &stored.lambdas_tf[i][..]);
            let patch = self.freeze_db(&mut mixer, i, &db.summary, lambdas);
            names.push(db.name.clone());
            gammas.push(patch.gamma);
            unshrunk.push(patch.unshrunk);
            shrunk.push(patch.shrunk);
        }
        Catalog::from_frozen(names, unshrunk, shrunk, gammas)
    }

    /// The full serving snapshot of `stored` under this epoch.
    pub(crate) fn snapshot(&self, stored: &StoredCatalog) -> ServingSnapshot {
        ServingSnapshot {
            dict: stored.store.dict.clone(),
            categories: self.categories.clone(),
            lm_global: self.lm_global.clone(),
            catalog: self.catalog(stored),
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
}

impl RefreshSession {
    /// Pin the epoch model of `stored` and start a session.
    pub fn new(stored: StoredCatalog) -> RefreshSession {
        let epoch = Epoch::pin(&stored);
        RefreshSession { stored, epoch }
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
        let (lambdas_df, lambdas_tf) =
            LambdaFitter::default().fit(&summary, &self.epoch.components[db], &self.epoch.config);
        let lambdas = (&lambdas_df[..], &lambdas_tf[..]);
        let patch = self
            .epoch
            .freeze_db(&mut ShrunkMixer::default(), db, &summary, lambdas);
        self.stored.lambdas_df[db] = lambdas_df;
        self.stored.lambdas_tf[db] = lambdas_tf;
        self.stored.store.databases[db].summary = summary;
        patch
    }

    /// Freeze the session's **entire current state** under the pinned
    /// epoch — the reference a replayed delta chain must match bit for
    /// bit. At generation 0 (no probes applied) this equals
    /// [`ServingSnapshot::from_stored`], so a `dbselect freeze` output
    /// can serve as a chain base.
    pub fn freeze_full(&self) -> ServingSnapshot {
        self.epoch.snapshot(&self.stored)
    }
}
