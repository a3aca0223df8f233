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
//!
//! Every aggregate and component is a term-sorted column. An aggregate is
//! summed in a dense scratch over term ids, one member database after
//! another in the order given, so each word's sums are the same
//! floating-point sequence whatever the layout; subtraction is a sorted
//! merge.

use std::sync::{Arc, OnceLock};

use textindex::TermId;

use crate::frozen::Basis;
use crate::hierarchy::{CategoryId, Hierarchy};
use crate::summary::{ratio, ContentSummary, WordStats};

/// How database summaries are combined into a category summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CategoryWeighting {
    /// Equation 1: weight each database by its (estimated) size.
    #[default]
    BySize,
    /// Footnote 5: weight each database equally.
    Uniform,
}

/// Additive per-category accumulator, as term-sorted columns. For
/// `BySize`, `acc_df(w)` sums absolute `df` estimates and `denom_df` sums
/// database sizes; for `Uniform`, `acc_df(w)` sums `p̂(w|D)` values and
/// `denom_df` counts databases. Either way `p̂(w|C) = acc_df(w) / denom_df`,
/// and aggregates stay additive so overlap subtraction is exact. Every
/// word a member database knows has a row, even when its sums are 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    /// Strictly ascending; `acc_df` and `acc_tf` are parallel to it.
    terms: Vec<TermId>,
    acc_df: Vec<f64>,
    acc_tf: Vec<f64>,
    denom_df: f64,
    denom_tf: f64,
    /// Total estimated documents under the category (for the hierarchical
    /// selection baseline, which treats a category as one big database).
    size: f64,
    n_dbs: usize,
}

impl Aggregate {
    /// Reassemble an aggregate from its parts — the snapshot load path.
    /// Rejects ragged columns and terms that are not strictly ascending.
    pub fn from_raw_parts(
        n_dbs: usize,
        denoms: (f64, f64),
        size: f64,
        terms: Vec<TermId>,
        acc_df: Vec<f64>,
        acc_tf: Vec<f64>,
    ) -> Result<Aggregate, &'static str> {
        if acc_df.len() != terms.len() || acc_tf.len() != terms.len() {
            return Err("category aggregate columns disagree on length");
        }
        if terms.windows(2).any(|w| w[0] >= w[1]) {
            return Err("category aggregate terms not strictly ascending");
        }
        Ok(Aggregate {
            terms,
            acc_df,
            acc_tf,
            denom_df: denoms.0,
            denom_tf: denoms.1,
            size,
            n_dbs,
        })
    }

    /// Number of databases aggregated.
    pub fn n_dbs(&self) -> usize {
        self.n_dbs
    }

    /// The `(df, tf)` denominators: summed sizes and token counts under
    /// `BySize`, the database count under `Uniform`.
    pub fn denoms(&self) -> (f64, f64) {
        (self.denom_df, self.denom_tf)
    }

    /// Total estimated documents under the category.
    pub fn size(&self) -> f64 {
        self.size
    }

    /// The aggregated words, strictly ascending.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Per word (parallel to [`Self::terms`]): the summed `df` estimates
    /// (`BySize`) or `p̂(w|D)`s (`Uniform`).
    pub fn acc_df(&self) -> &[f64] {
        &self.acc_df
    }

    /// Per word: the summed `tf` estimates or token probabilities.
    pub fn acc_tf(&self) -> &[f64] {
        &self.acc_tf
    }

    /// The component of `self − other` (the raw component when `other` is
    /// empty).
    fn minus(&self, other: &Aggregate) -> SummaryComponent {
        let rows = other.terms.iter().zip(&other.acc_df).zip(&other.acc_tf);
        self.subtract(
            rows.map(|((&t, &df), &tf)| (t, df, tf)),
            (other.denom_df, other.denom_tf),
        )
    }

    /// The component of `self` minus one member database's contribution
    /// — what `minus` of a one-database aggregate gives, without building
    /// that aggregate.
    fn minus_database(
        &self,
        summary: &ContentSummary,
        weighting: CategoryWeighting,
    ) -> SummaryComponent {
        let mut rows = Vec::with_capacity(summary.vocabulary_size());
        let denoms = contributions(summary, weighting, |t, df, tf| rows.push((t, df, tf)));
        rows.sort_unstable_by_key(|&(t, _, _)| t);
        self.subtract(rows.into_iter(), denoms)
    }

    /// [`Self::minus_database`] of the sample `basis` holds the raw
    /// columns of: the same rows (already term-sorted) and denominators.
    fn minus_basis(&self, basis: &Basis, weighting: CategoryWeighting) -> SummaryComponent {
        let (db_size, word_count) = (basis.db_size(), basis.word_count());
        let words = basis.terms().iter().zip(basis.raw());
        match weighting {
            CategoryWeighting::BySize => self.subtract(
                words.map(|(&t, &(df, tf))| (t, df, tf)),
                (db_size, word_count),
            ),
            CategoryWeighting::Uniform => self.subtract(
                words.map(|(&t, &(df, tf))| (t, ratio(df, db_size), ratio(tf, word_count))),
                (1.0, 1.0),
            ),
        }
    }

    /// `self` less `(word, df, tf)` rows (ascending, each word once) and
    /// their denominators, scaled into a component: a sorted merge over
    /// the union of the two key sets. A word only `self` has keeps its
    /// sums; every other word takes `(left − v).max(0)`, `left` being 0
    /// when `self` lacks it.
    fn subtract(
        &self,
        rows: impl Iterator<Item = (TermId, f64, f64)>,
        denoms: (f64, f64),
    ) -> SummaryComponent {
        let len = self.terms.len();
        let (mut terms, mut df, mut tf) = (
            Vec::with_capacity(len),
            Vec::with_capacity(len),
            Vec::with_capacity(len),
        );
        let mut i = 0;
        for (term, v_df, v_tf) in rows {
            while i < len && self.terms[i] < term {
                terms.push(self.terms[i]);
                df.push(self.acc_df[i]);
                tf.push(self.acc_tf[i]);
                i += 1;
            }
            let (left_df, left_tf) = if i < len && self.terms[i] == term {
                i += 1;
                (self.acc_df[i - 1], self.acc_tf[i - 1])
            } else {
                (0.0, 0.0)
            };
            terms.push(term);
            df.push(take(left_df, v_df));
            tf.push(take(left_tf, v_tf));
        }
        terms.extend_from_slice(&self.terms[i..]);
        df.extend_from_slice(&self.acc_df[i..]);
        tf.extend_from_slice(&self.acc_tf[i..]);
        SummaryComponent {
            p_df: Column::scaled(terms.clone(), df, self.denom_df - denoms.0),
            p_tf: Column::scaled(terms, tf, self.denom_tf - denoms.1),
        }
    }

    /// The aggregate as a [`ContentSummary`] with Equation-1 semantics.
    fn summary(&self) -> ContentSummary {
        let words = self
            .terms
            .iter()
            .zip(self.acc_df.iter().zip(&self.acc_tf))
            .map(|(&term, (&df, &tf))| {
                let stats = WordStats {
                    sample_df: 0,
                    df,
                    tf,
                };
                (term, stats)
            })
            .collect();
        ContentSummary::new(self.size, 0, words)
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

/// `left − v`, clamping tiny negative residue from float error. Aggregated
/// values are sums from `+0.0`, never `-0.0`, so this is the same
/// difference whether `left` was itself accumulated or is an absent
/// word's 0.
pub(crate) fn take(left: f64, v: f64) -> f64 {
    (left - v).max(0.0)
}

/// One word's slot in an [`Accumulator`].
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    df: f64,
    tf: f64,
    /// The word has been visited in the aggregate being built.
    present: bool,
}

/// Builds [`Aggregate`]s over a dense scratch indexed by term id, reused
/// across categories. Member databases are added in the order given, so
/// every word's sums see the `+=` sequence a per-word map would; the
/// touched words are read out ascending and the scratch is left empty.
#[derive(Debug, Default)]
struct Accumulator {
    slots: Vec<Slot>,
    touched: Vec<TermId>,
}

impl Accumulator {
    fn aggregate<'a>(
        &mut self,
        members: impl IntoIterator<Item = &'a ContentSummary>,
        weighting: CategoryWeighting,
    ) -> Aggregate {
        let mut agg = Aggregate::default();
        for summary in members {
            let (slots, touched) = (&mut self.slots, &mut self.touched);
            let (denom_df, denom_tf) = contributions(summary, weighting, |term, df, tf| {
                let i = term as usize;
                if i >= slots.len() {
                    slots.resize(i + 1, Slot::default());
                }
                let slot = &mut slots[i];
                if !slot.present {
                    *slot = Slot {
                        df: 0.0,
                        tf: 0.0,
                        present: true,
                    };
                    touched.push(term);
                }
                slot.df += df;
                slot.tf += tf;
            });
            agg.denom_df += denom_df;
            agg.denom_tf += denom_tf;
            agg.size += summary.db_size();
            agg.n_dbs += 1;
        }
        self.touched.sort_unstable();
        agg.acc_df.reserve_exact(self.touched.len());
        agg.acc_tf.reserve_exact(self.touched.len());
        for &term in &self.touched {
            let slot = &mut self.slots[term as usize];
            slot.present = false;
            agg.acc_df.push(slot.df);
            agg.acc_tf.push(slot.tf);
        }
        agg.terms = std::mem::take(&mut self.touched);
        agg
    }
}

/// One probability model's column of a [`SummaryComponent`]: strictly
/// ascending term ids with a parallel `p̂(w|C)` column. Only words in the
/// column have a probability (an absent word is not a stored 0).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Column {
    pub(crate) terms: Vec<TermId>,
    pub(crate) values: Vec<f64>,
}

impl Column {
    /// `acc / denom` per word, the denominator clamped at 0 like the
    /// values; empty when it is not positive.
    fn scaled(terms: Vec<TermId>, mut acc: Vec<f64>, denom: f64) -> Column {
        let denom = denom.max(0.0);
        if denom <= 0.0 {
            return Column::default();
        }
        for v in &mut acc {
            *v /= denom;
        }
        Column { terms, values: acc }
    }

    /// The probability of `term`, if the column has it.
    pub fn get(&self, term: TermId) -> Option<f64> {
        let i = self.terms.binary_search(&term).ok()?;
        Some(self.values[i])
    }

    /// The column's words, ascending.
    pub fn keys(&self) -> std::slice::Iter<'_, TermId> {
        self.terms.iter()
    }

    /// `(word, probability)`, ascending by word.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, f64)> + '_ {
        self.terms.iter().copied().zip(self.values.iter().copied())
    }

    /// True when the column has no word.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Collects `(word, probability)` pairs in any order; a repeated word
/// keeps its last probability, as a map insert would.
impl FromIterator<(TermId, f64)> for Column {
    fn from_iter<I: IntoIterator<Item = (TermId, f64)>>(pairs: I) -> Column {
        let mut pairs: Vec<(TermId, f64)> = pairs.into_iter().collect();
        pairs.sort_by_key(|&(t, _)| t);
        let mut column = Column::default();
        for (term, p) in pairs {
            if column.terms.last() == Some(&term) {
                *column.values.last_mut().expect("parallel to terms") = p;
            } else {
                column.terms.push(term);
                column.values.push(p);
            }
        }
        column
    }
}

/// One mixture component for shrinkage: the word distributions of a category
/// (or category remainder, after overlap subtraction).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SummaryComponent {
    /// `p̂(w|C)` under the document-frequency model.
    pub p_df: Column,
    /// `p̂(w|C)` under the term-frequency (LM) model.
    pub p_tf: Column,
}

/// Category summaries for an entire classified database collection.
///
/// Shrinkage components that do not depend on a particular database — the
/// "category remainder" of each (parent, child) edge — are made on first
/// use and shared (`Arc`) across all databases below that edge, so the
/// per-database cost of shrinking a large collection stays proportional
/// to its leaf category's vocabulary rather than the global one.
#[derive(Debug, Clone)]
pub struct CategorySummaries {
    aggregates: Vec<Aggregate>,
    weighting: CategoryWeighting,
    /// Indexed by category: `agg(parent) − agg(category)`, made on first
    /// use (never for the root).
    edges: Vec<OnceLock<Arc<SummaryComponent>>>,
    /// Indexed by category: its raw component, made on first use (only the
    /// overlap ablation asks for one) and then shared like the edges.
    raw: Vec<OnceLock<Arc<SummaryComponent>>>,
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
        let mut members: Vec<Vec<&ContentSummary>> = vec![Vec::new(); hierarchy.len()];
        for &(category, summary) in databases {
            for node in hierarchy.path_from_root(category) {
                members[node].push(summary);
            }
        }
        let mut scratch = Accumulator::default();
        let aggregates: Vec<Aggregate> = members
            .into_iter()
            .map(|m| scratch.aggregate(m, weighting))
            .collect();
        CategorySummaries {
            edges: vec![OnceLock::new(); aggregates.len()],
            raw: vec![OnceLock::new(); aggregates.len()],
            aggregates,
            weighting,
        }
    }

    /// Every category's aggregate, indexed by category id.
    pub fn aggregates(&self) -> &[Aggregate] {
        &self.aggregates
    }

    /// The Root category summary of `databases` — what
    /// `build(..).category_summary(Hierarchy::ROOT)` returns (every
    /// database is under the root), without aggregating any other
    /// category.
    pub fn root_summary<'a>(
        databases: impl IntoIterator<Item = &'a ContentSummary>,
        weighting: CategoryWeighting,
    ) -> ContentSummary {
        Accumulator::default()
            .aggregate(databases, weighting)
            .summary()
    }

    /// The aggregation weighting in use.
    pub fn weighting(&self) -> CategoryWeighting {
        self.weighting
    }

    /// Materialize the category summary as a [`ContentSummary`] so the
    /// hierarchical selection baseline can score categories exactly like
    /// databases. Always uses Equation-1 semantics (`df` sums, size sums),
    /// which is how \[17\] defines category summaries.
    pub fn category_summary(&self, category: CategoryId) -> ContentSummary {
        self.aggregates[category].summary()
    }

    /// The shrinkage components for a database classified under
    /// `db_category`: one [`SummaryComponent`] per category on the path
    /// `root = C_1, …, C_m = db_category`, in root-first order.
    ///
    /// With `subtract_overlap` (the paper's method), `C_i`'s component
    /// excludes everything counted under `C_{i+1}` (a shared edge
    /// component), and the leaf component excludes `db_summary` itself.
    /// Without it (ablation), raw category summaries are used.
    pub fn components_for(
        &self,
        hierarchy: &Hierarchy,
        db_category: CategoryId,
        db_summary: &ContentSummary,
        subtract_overlap: bool,
    ) -> Vec<Arc<SummaryComponent>> {
        let path = hierarchy.path_from_root(db_category);
        if !subtract_overlap {
            let raw = |c: CategoryId| {
                let component = || Arc::new(self.aggregates[c].minus(&Aggregate::default()));
                Arc::clone(self.raw[c].get_or_init(component))
            };
            return path.into_iter().map(raw).collect();
        }
        let leaf = self.aggregates[db_category].minus_database(db_summary, self.weighting);
        let edge = |pair: &[CategoryId]| {
            let (parent, child) = (pair[0], pair[1]);
            let component = || Arc::new(self.aggregates[parent].minus(&self.aggregates[child]));
            Arc::clone(self.edges[child].get_or_init(component))
        };
        path.windows(2).map(edge).chain([Arc::new(leaf)]).collect()
    }
}

/// The shrinkage components of a database whose category path (root
/// first) has the aggregates `path`, its leaf remainder subtracting
/// `basis`: what [`CategorySummaries::components_for`] returns with
/// overlap subtraction, from the path's aggregates alone.
pub fn path_components(
    path: &[&Aggregate],
    basis: &Basis,
    weighting: CategoryWeighting,
) -> Vec<Arc<SummaryComponent>> {
    let leaf = path.last().expect("a category path has a leaf");
    path.windows(2)
        .map(|pair| Arc::new(pair[0].minus(pair[1])))
        .chain([Arc::new(leaf.minus_basis(basis, weighting))])
        .collect()
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
        assert_eq!(cs.aggregates[health].n_dbs(), 2);
        assert_eq!(cs.aggregates[heart].n_dbs(), 1);
        assert_eq!(cs.aggregates[Hierarchy::ROOT].n_dbs(), 2);
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
        let p = comps[1].p_df.get(7).unwrap();
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
        assert!(comps[2].p_df.iter().all(|(_, v)| v == 0.0));
        // Health minus Heart: only D2's data → p(7) = 2/30, p(9) = 3/30.
        assert!((comps[1].p_df.get(7).unwrap() - 2.0 / 30.0).abs() < 1e-12);
        assert!((comps[1].p_df.get(9).unwrap() - 0.1).abs() < 1e-12);
        // Root minus Health: nothing left.
        assert!(comps[0].p_df.iter().all(|(_, v)| v == 0.0));
    }

    #[test]
    fn components_without_subtraction_include_everything() {
        let (h, _, heart) = two_level_hierarchy();
        let d1 = summary(&[(7, 5)], 10);
        let cs = CategorySummaries::build(&h, &[(heart, &d1)], CategoryWeighting::BySize);
        let comps = cs.components_for(&h, heart, &d1, false);
        // Every level sees D1's data.
        for c in &comps {
            assert!((c.p_df.get(7).unwrap() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn edge_and_raw_components_are_shared_across_databases() {
        let (h, _, heart) = two_level_hierarchy();
        let d1 = summary(&[(7, 5)], 10);
        let d2 = summary(&[(7, 2), (9, 3)], 30);
        let cs =
            CategorySummaries::build(&h, &[(heart, &d1), (heart, &d2)], CategoryWeighting::BySize);
        for subtract in [true, false] {
            let (a, b) = (
                cs.components_for(&h, heart, &d1, subtract),
                cs.components_for(&h, heart, &d2, subtract),
            );
            // Root and Health are shared; the leaf is shared only raw.
            assert!(Arc::ptr_eq(&a[0], &b[0]) && Arc::ptr_eq(&a[1], &b[1]));
            assert_eq!(Arc::ptr_eq(&a[2], &b[2]), !subtract);
        }
    }

    #[test]
    fn tf_model_aggregates_too() {
        let (h, health, _) = two_level_hierarchy();
        let d2 = summary(&[(7, 2), (9, 3)], 30);
        let cs = CategorySummaries::build(&h, &[(health, &d2)], CategoryWeighting::BySize);
        let comps = cs.components_for(&h, health, &d2, false);
        // p_tf(7) = 2 occurrences / 5 tokens.
        assert!((comps[1].p_tf.get(7).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_category_yields_empty_component() {
        let (mut h, _, heart) = two_level_hierarchy();
        let sports = h.add_child(Hierarchy::ROOT, "Sports");
        let d1 = summary(&[(7, 5)], 10);
        let cs = CategorySummaries::build(&h, &[(heart, &d1)], CategoryWeighting::BySize);
        assert_eq!(cs.aggregates[sports].n_dbs(), 0);
        assert_eq!(cs.category_summary(sports).vocabulary_size(), 0);
        assert_eq!(cs.category_summary(sports).db_size(), 0.0);
        // Raw: Root, then the empty Sports summary.
        let raw = cs.components_for(&h, sports, &d1, false);
        assert_eq!(raw.len(), 2);
        assert!(raw[0].p_df.get(7).is_some());
        assert!(raw[1].p_df.is_empty() && raw[1].p_tf.is_empty());
        // Subtracted: Root minus (empty) Sports is all of Root; Sports
        // minus any database has nothing left — its denominator is not
        // positive, so both columns are empty.
        let subtracted = cs.components_for(&h, sports, &d1, true);
        assert_eq!(subtracted[0].p_df, raw[0].p_df);
        assert_eq!(subtracted[0].p_tf, raw[0].p_tf);
        assert!(subtracted[1].p_df.is_empty() && subtracted[1].p_tf.is_empty());
    }

    #[test]
    fn zero_token_database_has_an_empty_tf_column_only() {
        let (h, health, _) = two_level_hierarchy();
        let stats = WordStats {
            sample_df: 1,
            df: 5.0,
            tf: 0.0,
        };
        let d = ContentSummary::new(10.0, 2, [(7, stats)].into_iter().collect());
        assert_eq!(d.total_tf(), 0.0);
        let cs = CategorySummaries::build(&h, &[(health, &d)], CategoryWeighting::BySize);
        let health_raw = &cs.components_for(&h, health, &d, false)[1];
        assert_eq!(health_raw.p_df.iter().collect::<Vec<_>>(), [(7, 0.5)]);
        assert!(health_raw.p_tf.is_empty());
    }

    #[test]
    fn root_summary_is_the_built_root_category() {
        let (h, health, heart) = two_level_hierarchy();
        let d1 = summary(&[(7, 5), (3, 1)], 10);
        let d2 = summary(&[(7, 2), (9, 3)], 30);
        for weighting in [CategoryWeighting::BySize, CategoryWeighting::Uniform] {
            let built = CategorySummaries::build(&h, &[(heart, &d1), (health, &d2)], weighting)
                .category_summary(Hierarchy::ROOT);
            let root = CategorySummaries::root_summary([&d1, &d2], weighting);
            assert_eq!(root.db_size().to_bits(), built.db_size().to_bits());
            assert_eq!(root.total_tf().to_bits(), built.total_tf().to_bits());
            assert_eq!(root.vocabulary_size(), built.vocabulary_size());
            for (term, stats) in built.iter() {
                assert_eq!(root.word(term), Some(stats));
            }
        }
    }

    #[test]
    fn path_components_of_a_basis_are_components_for_bit_for_bit() {
        let (h, health, heart) = two_level_hierarchy();
        let mut d1 = summary(&[(7, 5), (3, 1)], 10);
        d1.set_word(
            9,
            WordStats {
                sample_df: 1,
                df: 0.7,
                tf: 1.3,
            },
        );
        let d2 = summary(&[(7, 2), (9, 3)], 30);
        let basis = Basis::of(&crate::frozen::FrozenSummary::from_unshrunk(&d1));
        for weighting in [CategoryWeighting::BySize, CategoryWeighting::Uniform] {
            let cs = CategorySummaries::build(&h, &[(heart, &d1), (health, &d2)], weighting);
            let path: Vec<&Aggregate> = h
                .path_from_root(heart)
                .into_iter()
                .map(|c| &cs.aggregates()[c])
                .collect();
            let ours = path_components(&path, &basis, weighting);
            let theirs = cs.components_for(&h, heart, &d1, true);
            assert_eq!(ours.len(), theirs.len());
            let bits = |c: &Column| c.iter().map(|(t, p)| (t, p.to_bits())).collect::<Vec<_>>();
            for (a, b) in ours.iter().zip(&theirs) {
                assert_eq!(bits(&a.p_df), bits(&b.p_df), "{weighting:?}");
                assert_eq!(bits(&a.p_tf), bits(&b.p_tf), "{weighting:?}");
            }
        }
    }

    #[test]
    fn columns_collect_like_a_map() {
        let column: Column = [(9, 0.1), (2, 0.5), (9, 0.3)].into_iter().collect();
        assert_eq!(column.keys().copied().collect::<Vec<_>>(), [2, 9]);
        assert_eq!(column.get(9), Some(0.3));
        assert_eq!(column.get(4), None);
    }
}
