//! The per-generation table of word-posterior moments behind the
//! closed-form uncertainty test.
//!
//! A word's posterior grid depends only on `(sample_df, |S|, |D̂|, γ)`, so
//! within one database every word with the same sample document frequency
//! shares one grid — and the closed form needs only three moments of it
//! ([`WordMoments`]). A [`MomentTable`] therefore holds, per database, one
//! row per *distinct `sample_df` value occurring in its postings* (plus 0,
//! the row of every word the sample never saw): at most
//! `min(|S| + 1, terms)` rows, sized by what occurs, never by `|S|`. Rows
//! fold one [`TermBasis`] per database, so algorithms whose bases differ
//! (CORI's depends on `cw(D)` and `mcw`) get rows of their own; algorithms
//! whose bases agree on every database (bGlOSS and LM) share them.
//!
//! Beside the rows, a table keeps what the engine's column kernel reads
//! per database without looking at the query: the unsampled row as three
//! columns, the form's [`Combine`] and the slope factor of an unsampled
//! word. Where each database's rows lie, and which row a `sample_df`
//! reads, is a property of the postings alone, held once for every table
//! built over the same catalog.
//!
//! Derived, never persisted: `mcw` moves with every refresh, and a build
//! costs a few milliseconds per fifty databases, off the request path.

use std::mem::discriminant;
use std::sync::Arc;

use dbselect_core::uncertainty::{Combine, TermBasis, WordMoments, WordPosterior};
use selection::IndependentTerms;

use crate::catalog::Catalog;

/// Largest `sample_df` the direct index resolves; the index then fits
/// `u16` (a key's row within its database never exceeds the key).
const DIRECT_KEYS: usize = 1 << 16;

/// Where each database's rows lie and which row a `sample_df` reads.
#[derive(Debug)]
struct RowLayout {
    /// `offsets[db]..offsets[db + 1]` is database `db`'s range of rows and
    /// of `keys`.
    offsets: Vec<u32>,
    /// Each database's distinct `sample_df` values, ascending from 0.
    keys: Vec<u32>,
    /// `direct[db]..direct[db + 1]` is database `db`'s range of `index`.
    direct: Vec<u32>,
    /// Per database, for every `sample_df` from 0 to its largest key
    /// (below [`DIRECT_KEYS`]): the row, counted from the database's
    /// first, of the largest key at or below it.
    index: Vec<u16>,
}

impl RowLayout {
    fn new(catalog: &Catalog) -> RowLayout {
        let postings = catalog.posting_index();
        let mut values: Vec<Vec<u32>> = vec![vec![0]; catalog.len()];
        for (&db, &sample_df) in postings.dbs().iter().zip(postings.sample_df()) {
            values[db as usize].push(sample_df);
        }
        let mut layout = RowLayout {
            offsets: vec![0],
            keys: Vec::new(),
            direct: vec![0],
            index: Vec::new(),
        };
        for values in &mut values {
            values.sort_unstable();
            values.dedup();
            let direct = (*values.last().expect("key 0") as usize + 1).min(DIRECT_KEYS);
            let mut local = 0;
            for sample_df in 0..direct as u32 {
                while values.get(local + 1).is_some_and(|&key| key <= sample_df) {
                    local += 1;
                }
                layout.index.push(local as u16);
            }
            layout.keys.extend_from_slice(values);
            layout.offsets.push(layout.keys.len() as u32);
            layout.direct.push(layout.index.len() as u32);
        }
        layout
    }

    /// The row of a word seen in `sample_df` sample documents of `db`:
    /// the row of its largest key at or below `sample_df`.
    #[inline]
    fn row(&self, db: usize, sample_df: u32) -> usize {
        let lo = self.offsets[db] as usize;
        let index = &self.index[self.direct[db] as usize..self.direct[db + 1] as usize];
        match index.get(sample_df as usize) {
            Some(&local) => lo + usize::from(local),
            // Above the direct range: search the keys. Key 0 leads every
            // database's slice, so the partition is never empty.
            None => {
                let hi = self.offsets[db + 1] as usize;
                lo + self.keys[lo..hi].partition_point(|&key| key <= sample_df) - 1
            }
        }
    }
}

/// The moments of one set of per-database bases: one row per
/// (database, key), and each database's unsampled row as columns.
#[derive(Debug)]
struct Rows {
    rows: Vec<WordMoments>,
    present: Vec<f64>,
    mean: Vec<f64>,
    second: Vec<f64>,
}

/// Posterior moments per (database, distinct `sample_df`), for one
/// [`IndependentTerms`] form, plus the form's per-database constants.
#[derive(Debug)]
pub struct MomentTable {
    layout: Arc<RowLayout>,
    moments: Arc<Rows>,
    /// Per database: how its words combine (bGlOSS scales by `|D|`).
    combine: Vec<Combine>,
    /// Per database: the slope factor of a word its sample never saw,
    /// `slope_scale(0, 0, Ŝ(D))` (LM's `min(|D|/cw, 1)`).
    unsampled_slope: Vec<f64>,
    /// `combine`'s variant, when every database has the same one: the
    /// step the engine's column kernel folds every database with.
    uniform: Option<Combine>,
}

impl MomentTable {
    /// One table per entry of `forms` over `catalog`, building every
    /// posterior grid once and folding it once per distinct set of bases.
    pub fn build(
        catalog: &Catalog,
        forms: &[&dyn IndependentTerms],
        grid_points: usize,
    ) -> Vec<MomentTable> {
        let ctx = catalog.unshrunk_context(&[]);
        let layout = Arc::new(RowLayout::new(catalog));
        let n = catalog.len();
        let bases: Vec<Vec<TermBasis>> = forms
            .iter()
            .map(|f| {
                (0..n)
                    .map(|db| f.basis(catalog.unshrunk(db), &ctx))
                    .collect()
            })
            .collect();
        // Forms whose bases agree on every database fold one set of rows:
        // `distinct` holds the first form of each set, `set[f]` the set of
        // form `f`. (A NaN basis equals nothing and keeps rows of its own.)
        let mut distinct: Vec<usize> = Vec::new();
        let set: Vec<usize> = (0..forms.len())
            .map(|f| {
                let same = distinct.iter().position(|&g| bases[g] == bases[f]);
                same.unwrap_or_else(|| {
                    distinct.push(f);
                    distinct.len() - 1
                })
            })
            .collect();

        let mut rows: Vec<Vec<WordMoments>> = vec![Vec::new(); distinct.len()];
        for (db, &gamma) in catalog.gammas().iter().enumerate() {
            let summary = catalog.unshrunk(db);
            let (sample_size, db_size) = (summary.sample_size(), summary.db_size());
            let keys = &layout.keys[layout.offsets[db] as usize..layout.offsets[db + 1] as usize];
            for &sample_df in keys {
                let grid = WordPosterior::new(sample_df, sample_size, db_size, gamma, grid_points);
                for (rows, &f) in rows.iter_mut().zip(&distinct) {
                    rows.push(grid.moments(db_size, bases[f][db]));
                }
            }
        }
        let moments: Vec<Arc<Rows>> = rows
            .into_iter()
            .map(|rows| {
                let unsampled = |db: usize| rows[layout.offsets[db] as usize];
                Arc::new(Rows {
                    present: (0..n).map(|db| unsampled(db).present).collect(),
                    mean: (0..n).map(|db| unsampled(db).mean).collect(),
                    second: (0..n).map(|db| unsampled(db).second).collect(),
                    rows,
                })
            })
            .collect();

        forms
            .iter()
            .enumerate()
            .map(|(f, form)| {
                let summaries = (0..n).map(|db| catalog.unshrunk(db));
                let combine: Vec<Combine> = summaries.clone().map(|s| form.combine(s)).collect();
                let uniform = combine.first().copied().filter(|first| {
                    combine
                        .iter()
                        .all(|c| discriminant(c) == discriminant(first))
                });
                MomentTable {
                    layout: Arc::clone(&layout),
                    moments: Arc::clone(&moments[set[f]]),
                    unsampled_slope: summaries.map(|s| form.slope_scale(0.0, 0.0, s)).collect(),
                    combine,
                    uniform,
                }
            })
            .collect()
    }

    /// Total rows (distinct `(database, sample_df)` pairs).
    pub fn rows(&self) -> usize {
        self.moments.rows.len()
    }

    /// The moments of a word seen in `sample_df` sample documents of
    /// database `db`. Every value in the catalog's posting slabs has its
    /// own row; any other value reads the nearest row below it.
    #[inline]
    pub fn moments(&self, db: usize, sample_df: u32) -> WordMoments {
        self.moments.rows[self.layout.row(db, sample_df)]
    }

    /// Each database's unsampled row, as `(present, mean, second)`
    /// columns.
    pub(crate) fn unsampled(&self) -> (&[f64], &[f64], &[f64]) {
        let m = &*self.moments;
        (&m.present, &m.mean, &m.second)
    }

    /// Each database's slope factor for a word its sample never saw.
    pub(crate) fn unsampled_slope(&self) -> &[f64] {
        &self.unsampled_slope
    }

    /// How database `db`'s words combine.
    #[inline]
    pub(crate) fn combine(&self, db: usize) -> Combine {
        self.combine[db]
    }

    /// The combination every database shares (its `Product` scale is
    /// database 0's): the served forms' case, and what an engine requires
    /// of a non-empty catalog. `None` for an empty catalog, or a form
    /// mixing combinations.
    pub(crate) fn uniform(&self) -> Option<Combine> {
        self.uniform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{entry, sampled_summary};
    use selection::{BGloss, Cori, Lm, SelectionAlgorithm};
    use std::collections::HashMap;

    fn catalog() -> Catalog {
        Catalog::build(vec![
            entry(
                "a",
                sampled_summary(1000.0, 100, &[(1, 50), (2, 3), (3, 3)]),
            ),
            entry("b", sampled_summary(500.0, 80, &[(1, 10)])),
            entry("c", sampled_summary(200.0, 50, &[])),
        ])
    }

    #[test]
    fn rows_are_the_distinct_sample_dfs_and_fold_the_same_grid() {
        let c = catalog();
        let cori = Cori::default();
        let forms = [
            BGloss.independent_terms().unwrap(),
            cori.independent_terms().unwrap(),
        ];
        let tables = MomentTable::build(&c, &forms, 160);
        // a: {0, 3, 50}; b: {0, 10}; c: {0}.
        assert_eq!(tables[0].rows(), 6);
        let ctx = c.unshrunk_context(&[]);
        for (form, table) in forms.iter().zip(&tables) {
            for (db, sample_df) in [(0, 0), (0, 3), (0, 50), (1, 0), (1, 10), (2, 0)] {
                let s = c.unshrunk(db);
                let grid =
                    WordPosterior::new(sample_df, s.sample_size(), s.db_size(), c.gamma(db), 160);
                let want = grid.moments(s.db_size(), form.basis(s, &ctx));
                assert_eq!(table.moments(db, sample_df), want, "db {db} df {sample_df}");
            }
        }
        // A value no posting carries reads the row below it.
        assert_eq!(tables[0].moments(1, 9), tables[0].moments(1, 0));
        assert_eq!(tables[0].moments(1, u32::MAX), tables[0].moments(1, 10));
    }

    #[test]
    fn per_database_columns_are_the_forms_own_values() {
        let c = catalog();
        let lm = Lm::from_global_map(0.5, HashMap::from([(1, 0.01)]));
        let cori = Cori::default();
        let forms = [
            BGloss.independent_terms().unwrap(),
            cori.independent_terms().unwrap(),
            lm.independent_terms().unwrap(),
        ];
        let tables = MomentTable::build(&c, &forms, 160);
        for (form, table) in forms.iter().zip(&tables) {
            let (present, mean, second) = table.unsampled();
            for db in 0..c.len() {
                let s = c.unshrunk(db);
                let row = table.moments(db, 0);
                assert_eq!(
                    (present[db], mean[db], second[db]),
                    (row.present, row.mean, row.second)
                );
                assert_eq!(table.combine(db), form.combine(s));
                let slope = form.slope_scale(0.0, 0.0, s);
                assert_eq!(table.unsampled_slope()[db].to_bits(), slope.to_bits());
            }
            assert!(table.uniform().is_some());
        }
        // bGlOSS and LM fold the same basis and share their rows; CORI's
        // basis differs.
        assert!(Arc::ptr_eq(&tables[0].moments, &tables[2].moments));
        assert!(!Arc::ptr_eq(&tables[0].moments, &tables[1].moments));
        assert!(tables
            .iter()
            .all(|t| Arc::ptr_eq(&t.layout, &tables[0].layout)));
    }

    /// Keys above the direct index's range resolve by search, to the same
    /// rows.
    #[test]
    fn keys_beyond_the_direct_index_read_their_own_rows() {
        let big = 200_000;
        let c = Catalog::build(vec![entry(
            "huge-sample",
            sampled_summary(1e7, big, &[(1, 3), (2, 70_000), (3, 150_000)]),
        )]);
        let tables = MomentTable::build(&c, &[BGloss.independent_terms().unwrap()], 32);
        let s = c.unshrunk(0);
        let row = |sample_df| {
            WordPosterior::new(sample_df, big, s.db_size(), c.gamma(0), 32)
                .moments(s.db_size(), TermBasis::Fraction)
        };
        for sample_df in [0, 3, 70_000, 150_000] {
            assert_eq!(
                tables[0].moments(0, sample_df),
                row(sample_df),
                "{sample_df}"
            );
        }
        assert_eq!(tables[0].moments(0, 69_999), row(3));
        assert_eq!(tables[0].moments(0, u32::MAX), row(150_000));
    }

    #[test]
    fn empty_catalog_builds_an_empty_table() {
        let tables = MomentTable::build(
            &Catalog::build(Vec::new()),
            &[BGloss.independent_terms().unwrap()],
            160,
        );
        assert_eq!(tables[0].rows(), 0);
        assert_eq!(tables[0].uniform(), None);
    }
}
