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
//! A [`RefreshSession`] instead **pins the epoch model** when its chain
//! starts:
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
//! ## The chain is the state
//!
//! A chain's base stores the whole epoch (category columns, `uniform_p`,
//! LM's global model, category paths) and, per database, its sample
//! column, γ, λ pair and pinned basis; every delta replaces those of the
//! databases it touched. So [`RefreshSession::resume`] rebuilds a session
//! from the replayed tip alone — no v1 catalog, no EM over the store —
//! and a session resumed after `k` rounds appends the very bytes one
//! session of `k + 1` rounds would have. [`RefreshSession::new`] is the
//! fresh-fit entry that writes a chain's base in process.
//!
//! [`CategorySummaries::components_for`]: dbselect_core::category_summary::CategorySummaries::components_for

use std::sync::Arc;

use dbselect_core::category_summary::{path_components, CategoryWeighting, SummaryComponent};
use dbselect_core::frozen::{Basis, CategoryColumns, FrozenSummary};
use dbselect_core::hierarchy::{CategoryId, Hierarchy};
use dbselect_core::shrinkage::{LambdaFitter, ShrinkageConfig};
use dbselect_core::summary::ContentSummary;
use textindex::{TermDict, TermId};

use broker::{Catalog, ProfiledDb};

use crate::catalog::StoredCatalog;
use crate::delta::{ChainLoad, DbPatch};
use crate::snapshot::ServingSnapshot;

/// The model a freeze pins, built from **one** category aggregation: the
/// category columns (Eq. 1's aggregates, shared by every catalog frozen
/// under the epoch), the EM configuration (`uniform_p` = `1/|V|` of the
/// dictionary the λs were first fitted under), LM's global model and the
/// category paths. [`ServingSnapshot::from_stored`] pins one and freezes
/// through it once; a [`RefreshSession`] keeps it, pinned from a stored
/// catalog or read back from a chain's snapshot.
#[derive(Debug)]
pub(crate) struct Epoch {
    /// The category aggregates, term-major.
    categories: Arc<CategoryColumns>,
    /// The EM configuration of every fit under this epoch.
    config: ShrinkageConfig,
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

    /// The components `category`'s databases fit their λs against: the
    /// path-edge remainders plus the leaf remainder of `basis`, exactly
    /// as `CategorySummaries::components_for` computes them.
    fn components(&self, category: CategoryId, basis: &Basis) -> Vec<Arc<SummaryComponent>> {
        let path = self.categories.path_from_root(category);
        let aggregates = self.categories.aggregates_of(&path);
        let path: Vec<_> = aggregates.iter().collect();
        path_components(&path, basis, self.categories.weighting())
    }

    /// The serving snapshot of `dbs` under this epoch: sample summaries
    /// frozen, shrunk summaries factored over the pinned category columns
    /// (nothing is mixed).
    pub(crate) fn snapshot<'a>(
        &self,
        dict: TermDict,
        dbs: impl IntoIterator<Item = ProfiledDb<'a>>,
    ) -> ServingSnapshot {
        let catalog = Catalog::freeze(Arc::clone(&self.categories), self.config.uniform_p, dbs)
            .expect("every database's λs fit its category path");
        ServingSnapshot {
            dict,
            categories: self.paths.clone(),
            lm_global: self.lm_global.clone(),
            catalog,
        }
    }
}

/// One database under refresh: what a fit and a freeze read of it.
#[derive(Debug)]
struct SessionDb {
    name: String,
    category: CategoryId,
    /// The base sample, or the last probe applied.
    summary: ContentSummary,
    lambdas: (Vec<f64>, Vec<f64>),
    /// The sample its leaf remainder subtracts, once that is no longer
    /// `summary`: the one the epoch pinned, which every later fit and
    /// freeze keeps subtracting.
    basis: Option<Arc<Basis>>,
}

/// A refresh epoch: applies re-probe results one database at a time and
/// can freeze the full current state for reference (or as a chain base).
/// It starts from a fresh fit ([`new`](Self::new)) or from a chain's tip
/// ([`resume`](Self::resume)); either way it holds summaries, λs and
/// pinned bases, never sample documents.
#[derive(Debug)]
pub struct RefreshSession {
    /// The shared dictionary; probes intern new terms into it.
    dict: TermDict,
    /// Pinned at the chain's start. `uniform_p` stays `1/|V|` of the
    /// *base* dictionary even after probes grow the dictionary.
    epoch: Epoch,
    dbs: Vec<SessionDb>,
}

impl RefreshSession {
    /// Pin the epoch model of a freshly fitted `stored` and start a
    /// session at generation 0. The databases' sample documents are
    /// dropped here (no freeze reads them, and a probe would leave them
    /// stale), before the epoch's category aggregation allocates, so its
    /// peak memory does not stack on theirs.
    pub fn new(mut stored: StoredCatalog) -> RefreshSession {
        for db in &mut stored.store.databases {
            db.sample_docs = Vec::new();
        }
        let epoch = Epoch::pin(&stored);
        let StoredCatalog {
            store,
            lambdas_df,
            lambdas_tf,
            ..
        } = stored;
        let lambdas = lambdas_df.into_iter().zip(lambdas_tf);
        let dbs = store.databases.into_iter().zip(lambdas);
        let dbs = dbs.map(|(db, lambdas)| SessionDb {
            name: db.name,
            category: db.classification,
            summary: db.summary,
            lambdas,
            basis: None,
        });
        RefreshSession {
            dict: store.dict,
            epoch,
            dbs: dbs.collect(),
        }
    }

    /// Continue the chain `chain` was replayed from, at its tip. The epoch
    /// is the one the chain's base pinned (its category columns,
    /// `uniform_p`, LM global model and category paths, read back, never
    /// re-aggregated from the refreshed samples); per database the
    /// session takes the tip's sample column (its `word_count` carried as
    /// `Σ tf`), γ, λ pair and pinned basis; the dictionary is the
    /// replayed one, so probes keep growing it in chain order.
    pub fn resume(chain: ChainLoad) -> RefreshSession {
        let ServingSnapshot {
            dict,
            categories,
            lm_global,
            catalog,
        } = chain.snapshot;
        let shrunk = catalog.shrunk_summaries();
        let epoch = Epoch {
            categories: Arc::clone(shrunk.categories()),
            config: ShrinkageConfig {
                uniform_p: shrunk.uniform_p(),
                ..Default::default()
            },
            lm_global,
            paths: categories,
        };
        let dbs = catalog.names().iter().enumerate().map(|(db, name)| {
            let mut summary = ContentSummary::from_frozen(catalog.unshrunk(db));
            summary.set_gamma(catalog.gamma(db));
            SessionDb {
                name: name.clone(),
                category: shrunk.category(db),
                summary,
                lambdas: shrunk.lambdas(db),
                basis: shrunk.basis(db).cloned(),
            }
        });
        RefreshSession {
            dbs: dbs.collect(),
            dict,
            epoch,
        }
    }

    /// Number of databases under refresh.
    pub fn len(&self) -> usize {
        self.dbs.len()
    }

    /// True when the session manages no databases.
    pub fn is_empty(&self) -> bool {
        self.dbs.is_empty()
    }

    /// Database names, index order.
    pub fn names(&self) -> Vec<&str> {
        self.dbs.iter().map(|db| db.name.as_str()).collect()
    }

    /// The shared term dictionary (probes intern new terms into it).
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Mutable dictionary access for re-probe document ingestion.
    pub fn dict_mut(&mut self) -> &mut TermDict {
        &mut self.dict
    }

    /// The current content summary of `db` (base, or last probe applied).
    pub fn summary(&self, db: usize) -> &ContentSummary {
        &self.dbs[db].summary
    }

    /// Sample coverage of `db` — `sample_size / |D̂|`, the uncertainty
    /// signal `sampling::refresh::pick_round` prioritizes on (1, no
    /// uncertainty bonus, when the size estimate is degenerate).
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
        let entry = &mut self.dbs[db];
        let basis = entry.basis.get_or_insert_with(|| {
            Arc::new(Basis::of(&FrozenSummary::from_unshrunk(&entry.summary)))
        });
        let components = self.epoch.components(entry.category, basis);
        let lambdas = LambdaFitter::default().fit(&summary, &components, &self.epoch.config);
        let patch = DbPatch {
            db: db as u32,
            gamma: summary.gamma().unwrap_or(-2.0),
            lambdas: lambdas.clone(),
            unshrunk: FrozenSummary::from_unshrunk(&summary),
        };
        entry.lambdas = lambdas;
        entry.summary = summary;
        patch
    }

    /// Freeze the session's **entire current state** under the pinned
    /// epoch — the reference a replayed delta chain must match bit for
    /// bit. At generation 0 (no probes applied) this equals
    /// [`ServingSnapshot::from_stored`], so a `dbselect freeze` output
    /// can serve as a chain base.
    pub fn freeze_full(&self) -> ServingSnapshot {
        let dbs = self.dbs.iter().map(|db| ProfiledDb {
            name: db.name.clone(),
            summary: &db.summary,
            category: db.category,
            lambdas: db.lambdas.clone(),
            basis: db.basis.clone(),
        });
        self.epoch.snapshot(self.dict.clone(), dbs)
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
        // A session database has no field for sample documents: the
        // session freezes the same values from summaries alone.
        let session = RefreshSession::new(stored);
        assert_eq!(session.freeze_full().value_digest(), reference);
    }
}
