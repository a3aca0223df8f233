//! Category content summaries (Definition 3, Equation 1).
//!
//! The content summary of a category `C` aggregates the summaries of the
//! databases classified under `C` (i.e., in `C`'s subtree). Two aggregation
//! weightings are supported:
//!
//! * [`CategoryWeighting::BySize`] — Equation 1 of the paper:
//!   `p̂(w|C) = Σ_D p̂(w|D)·|D̂| / Σ_D |D̂|`, and
//! * [`CategoryWeighting::Uniform`] — the footnote-5 alternative that
//!   weights every database equally regardless of size (the paper found the
//!   two "virtually identical"; the ablation bench checks this).
//!
//! When a database `D`'s summary is shrunk, the category summaries along its
//! path are first made disjoint: `Ŝ(C_i)` has all the data used to construct
//! `Ŝ(C_{i+1})` subtracted, and the leaf category has `D`'s own data
//! subtracted (Section 3.2, "to avoid this overlap ...").

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use textindex::TermId;

use crate::hierarchy::{CategoryId, Hierarchy};
use crate::summary::{ContentSummary, WordStats};

/// How database summaries are combined into a category summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CategoryWeighting {
    /// Equation 1: weight each database by its (estimated) size.
    #[default]
    BySize,
    /// Footnote 5: weight each database equally.
    Uniform,
}

/// Additive per-category accumulator. For `BySize`, `acc_df(w)` sums
/// absolute `df` estimates and `denom_df` sums database sizes; for
/// `Uniform`, `acc_df(w)` sums `p̂(w|D)` values and `denom_df` counts
/// databases. Either way `p̂(w|C) = acc_df(w) / denom_df`, and aggregates
/// stay additive so overlap subtraction is exact.
#[derive(Debug, Clone, Default)]
struct Aggregate {
    acc_df: HashMap<TermId, f64>,
    acc_tf: HashMap<TermId, f64>,
    denom_df: f64,
    denom_tf: f64,
    /// Total estimated documents under the category (for the hierarchical
    /// selection baseline, which treats a category as one big database).
    size: f64,
    n_dbs: usize,
}

impl Aggregate {
    fn add(&mut self, summary: &ContentSummary, weighting: CategoryWeighting) {
        let (denom_df, denom_tf) = contributions(summary, weighting, |term, df, tf| {
            *self.acc_df.entry(term).or_insert(0.0) += df;
            *self.acc_tf.entry(term).or_insert(0.0) += tf;
        });
        self.denom_df += denom_df;
        self.denom_tf += denom_tf;
        self.size += summary.db_size();
        self.n_dbs += 1;
    }

    /// The component of `self − other` (the raw component when `other` is
    /// empty).
    fn minus(&self, other: &Aggregate) -> SummaryComponent {
        let (mut p_df, mut p_tf) = (self.acc_df.clone(), self.acc_tf.clone());
        for (&term, &v) in &other.acc_df {
            take(&mut p_df, term, v);
        }
        for (&term, &v) in &other.acc_tf {
            take(&mut p_tf, term, v);
        }
        SummaryComponent {
            p_df: scaled(p_df, self.denom_df - other.denom_df),
            p_tf: scaled(p_tf, self.denom_tf - other.denom_tf),
        }
    }

    /// The component of `self` minus one member database's contribution
    /// — what `minus` of a one-database aggregate gives, without building
    /// that aggregate.
    fn minus_database(
        &self,
        summary: &ContentSummary,
        weighting: CategoryWeighting,
    ) -> SummaryComponent {
        let (mut p_df, mut p_tf) = (self.acc_df.clone(), self.acc_tf.clone());
        let (denom_df, denom_tf) = contributions(summary, weighting, |term, df, tf| {
            take(&mut p_df, term, df);
            take(&mut p_tf, term, tf);
        });
        SummaryComponent {
            p_df: scaled(p_df, self.denom_df - denom_df),
            p_tf: scaled(p_tf, self.denom_tf - denom_tf),
        }
    }
}

/// Feed `visit` what `summary` adds to a category aggregate per word —
/// `(word, df, tf)` estimates under `BySize`, `(word, p_df, p_tf)` under
/// `Uniform` — and return what it adds to the `(df, tf)` denominators.
fn contributions(
    summary: &ContentSummary,
    weighting: CategoryWeighting,
    mut visit: impl FnMut(TermId, f64, f64),
) -> (f64, f64) {
    match weighting {
        CategoryWeighting::BySize => {
            for (term, stats) in summary.iter() {
                visit(term, stats.df, stats.tf);
            }
            (summary.db_size(), summary.total_tf())
        }
        CategoryWeighting::Uniform => {
            for (term, p_df, p_tf) in summary.probabilities() {
                visit(term, p_df, p_tf);
            }
            (1.0, 1.0)
        }
    }
}

/// Subtract `v` from `term`'s accumulated value (0 when absent), clamping
/// tiny negative residue from float error. Aggregated values are sums
/// from `+0.0`, never `-0.0`, so this is the same difference whether `v`
/// was itself accumulated or not.
fn take(acc: &mut HashMap<TermId, f64>, term: TermId, v: f64) {
    let left = acc.entry(term).or_insert(0.0);
    *left = (*left - v).max(0.0);
}

/// `acc / denom` per word, the denominator clamped at 0 like the values;
/// empty when it is not positive. Takes `acc` by value: a component is
/// made from a copy of an aggregate's map (one memcpy of the table, no
/// word hashed again), adjusted in place.
fn scaled(mut acc: HashMap<TermId, f64>, denom: f64) -> HashMap<TermId, f64> {
    let denom = denom.max(0.0);
    if denom <= 0.0 {
        return HashMap::new();
    }
    for v in acc.values_mut() {
        *v /= denom;
    }
    acc
}

/// One mixture component for shrinkage: the word distributions of a category
/// (or category remainder, after overlap subtraction).
#[derive(Debug, Clone, Default)]
pub struct SummaryComponent {
    /// `p̂(w|C)` under the document-frequency model.
    pub p_df: HashMap<TermId, f64>,
    /// `p̂(w|C)` under the term-frequency (LM) model.
    pub p_tf: HashMap<TermId, f64>,
}

/// Category summaries for an entire classified database collection.
///
/// Shrinkage components that do not depend on a particular database — the
/// "category remainder" of each (parent, child) edge — are cached and shared
/// (`Arc`) across all databases below that edge, so the per-database cost of
/// shrinking a large collection stays proportional to the database's own
/// vocabulary rather than the global one.
#[derive(Debug, Clone)]
pub struct CategorySummaries {
    aggregates: Vec<Aggregate>,
    weighting: CategoryWeighting,
    /// Cache of edge components: key `(node, child)` is `agg(node) −
    /// agg(child)`; key `(node, node)` is the raw (unsubtracted) component.
    edge_cache: RefCell<HashMap<(CategoryId, CategoryId), Arc<SummaryComponent>>>,
}

impl CategorySummaries {
    /// Aggregate `databases` (a classification plus a summary per database)
    /// over `hierarchy`. Each database contributes to its own category and
    /// every ancestor up to the root.
    pub fn build(
        hierarchy: &Hierarchy,
        databases: &[(CategoryId, &ContentSummary)],
        weighting: CategoryWeighting,
    ) -> Self {
        let mut aggregates = vec![Aggregate::default(); hierarchy.len()];
        for &(category, summary) in databases {
            for node in hierarchy.path_from_root(category) {
                aggregates[node].add(summary, weighting);
            }
        }
        CategorySummaries {
            aggregates,
            weighting,
            edge_cache: RefCell::new(HashMap::new()),
        }
    }

    /// The aggregation weighting in use.
    pub fn weighting(&self) -> CategoryWeighting {
        self.weighting
    }

    /// Number of databases classified under `category`'s subtree.
    pub fn database_count(&self, category: CategoryId) -> usize {
        self.aggregates[category].n_dbs
    }

    /// Materialize the category summary as a [`ContentSummary`] so the
    /// hierarchical selection baseline can score categories exactly like
    /// databases. Always uses Equation-1 semantics (`df` sums, size sums),
    /// which is how \[17\] defines category summaries.
    pub fn category_summary(&self, category: CategoryId) -> ContentSummary {
        let agg = &self.aggregates[category];
        let words = agg
            .acc_df
            .iter()
            .map(|(&term, &df)| {
                let tf = agg.acc_tf.get(&term).copied().unwrap_or(0.0);
                (
                    term,
                    WordStats {
                        sample_df: 0,
                        df,
                        tf,
                    },
                )
            })
            .collect();
        ContentSummary::new(agg.size, 0, words)
    }

    /// The shrinkage components for a database classified under
    /// `db_category`: one [`SummaryComponent`] per category on the path
    /// `root = C_1, …, C_m = db_category`, in root-first order.
    ///
    /// With `subtract_overlap` (the paper's method), `C_i`'s component
    /// excludes everything counted under `C_{i+1}`, and the leaf component
    /// excludes `db_summary` itself. Without it (ablation), raw category
    /// summaries are used.
    pub fn components_for(
        &self,
        hierarchy: &Hierarchy,
        db_category: CategoryId,
        db_summary: &ContentSummary,
        subtract_overlap: bool,
    ) -> Vec<Arc<SummaryComponent>> {
        let path = hierarchy.path_from_root(db_category);
        if !subtract_overlap {
            return path.iter().map(|&c| self.cached_edge(c, c)).collect();
        }
        let mut components = Vec::with_capacity(path.len());
        for (i, &c) in path.iter().enumerate() {
            if i + 1 < path.len() {
                // Category minus its on-path child: shared by every
                // database below that child.
                components.push(self.cached_edge(c, path[i + 1]));
            } else {
                // The database's own category minus the database itself —
                // necessarily computed per database.
                components.push(Arc::new(
                    self.aggregates[c].minus_database(db_summary, self.weighting),
                ));
            }
        }
        components
    }

    /// The cached component for `node − child` (or the raw component when
    /// `node == child`).
    fn cached_edge(&self, node: CategoryId, child: CategoryId) -> Arc<SummaryComponent> {
        if let Some(cached) = self.edge_cache.borrow().get(&(node, child)) {
            return Arc::clone(cached);
        }
        let minus = if node == child {
            &Aggregate::default()
        } else {
            &self.aggregates[child]
        };
        let component = Arc::new(self.aggregates[node].minus(minus));
        self.edge_cache
            .borrow_mut()
            .insert((node, child), Arc::clone(&component));
        component
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textindex::Document;

    fn summary(terms: &[(TermId, u32)], n_docs: u32) -> ContentSummary {
        // Build n_docs docs where term t appears in the first `count` docs.
        let mut docs: Vec<Vec<TermId>> = vec![Vec::new(); n_docs as usize];
        for &(t, count) in terms {
            for d in docs.iter_mut().take(count as usize) {
                d.push(t);
            }
        }
        let docs: Vec<Document> = docs
            .into_iter()
            .enumerate()
            .map(|(i, t)| Document::from_tokens(i as u32, t))
            .collect();
        ContentSummary::from_sample(docs.iter(), f64::from(n_docs))
    }

    fn two_level_hierarchy() -> (Hierarchy, CategoryId, CategoryId) {
        let mut h = Hierarchy::new("Root");
        let health = h.add_child(Hierarchy::ROOT, "Health");
        let heart = h.add_child(health, "Heart");
        (h, health, heart)
    }

    #[test]
    fn by_size_matches_equation_1() {
        let (h, health, heart) = two_level_hierarchy();
        // D1 under Heart: term 7 in 5 of 10 docs. D2 under Health: term 7 in
        // 2 of 30 docs.
        let d1 = summary(&[(7, 5)], 10);
        let d2 = summary(&[(7, 2)], 30);
        let cs = CategorySummaries::build(
            &h,
            &[(heart, &d1), (health, &d2)],
            CategoryWeighting::BySize,
        );
        let health_summary = cs.category_summary(health);
        // Eq 1: (0.5*10 + 2/30*30) / (10+30) = 7/40.
        assert!((health_summary.p_df(7) - 7.0 / 40.0).abs() < 1e-12);
        assert_eq!(health_summary.db_size(), 40.0);
        assert_eq!(cs.database_count(health), 2);
        assert_eq!(cs.database_count(heart), 1);
        assert_eq!(cs.database_count(Hierarchy::ROOT), 2);
    }

    #[test]
    fn uniform_weighting_averages_probabilities() {
        let (h, health, heart) = two_level_hierarchy();
        let d1 = summary(&[(7, 5)], 10); // p = 0.5
        let d2 = summary(&[(7, 2)], 30); // p = 1/15
        let cs = CategorySummaries::build(
            &h,
            &[(heart, &d1), (health, &d2)],
            CategoryWeighting::Uniform,
        );
        let comps = cs.components_for(&h, health, &d2, false);
        // Health component (index 1 on path Root→Health) averages the ps.
        let p = comps[1].p_df[&7];
        assert!((p - (0.5 + 1.0 / 15.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn components_subtract_child_overlap() {
        let (h, health, heart) = two_level_hierarchy();
        let d1 = summary(&[(7, 5)], 10);
        let d2 = summary(&[(7, 2), (9, 3)], 30);
        let cs = CategorySummaries::build(
            &h,
            &[(heart, &d1), (health, &d2)],
            CategoryWeighting::BySize,
        );
        // Components for D1 (path Root, Health, Heart).
        let comps = cs.components_for(&h, heart, &d1, true);
        assert_eq!(comps.len(), 3);
        // Heart minus D1 itself: empty (D1 is the only Heart database).
        assert!(comps[2].p_df.values().all(|&v| v == 0.0));
        // Health minus Heart: only D2's data → p(7) = 2/30, p(9) = 3/30.
        assert!((comps[1].p_df[&7] - 2.0 / 30.0).abs() < 1e-12);
        assert!((comps[1].p_df[&9] - 0.1).abs() < 1e-12);
        // Root minus Health: nothing left.
        assert!(comps[0].p_df.values().all(|&v| v == 0.0));
    }

    #[test]
    fn components_without_subtraction_include_everything() {
        let (h, _, heart) = two_level_hierarchy();
        let d1 = summary(&[(7, 5)], 10);
        let cs = CategorySummaries::build(&h, &[(heart, &d1)], CategoryWeighting::BySize);
        let comps = cs.components_for(&h, heart, &d1, false);
        // Every level sees D1's data.
        for c in &comps {
            assert!((c.p_df[&7] - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn tf_model_aggregates_too() {
        let (h, health, _) = two_level_hierarchy();
        let d2 = summary(&[(7, 2), (9, 3)], 30);
        let cs = CategorySummaries::build(&h, &[(health, &d2)], CategoryWeighting::BySize);
        let comps = cs.components_for(&h, health, &d2, false);
        // p_tf(7) = 2 occurrences / 5 tokens.
        assert!((comps[1].p_tf[&7] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_category_yields_empty_component() {
        let (h, _, heart) = two_level_hierarchy();
        let d1 = summary(&[(7, 5)], 10);
        let cs = CategorySummaries::build(&h, &[(heart, &d1)], CategoryWeighting::BySize);
        let sports = cs.category_summary(1_usize.min(h.len() - 1));
        // `Heart` aggregates exist, but a fresh empty aggregate is safe.
        let _ = sports;
        let empty = Aggregate::default().minus(&Aggregate::default());
        assert!(empty.p_df.is_empty());
    }
}
