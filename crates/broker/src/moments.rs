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
//! (CORI's depends on `cw(D)` and `mcw`) get tables of their own.
//!
//! Derived, never persisted: `mcw` moves with every refresh, and a build
//! costs a few milliseconds per fifty databases, off the request path.

use dbselect_core::uncertainty::{TermBasis, WordMoments, WordPosterior};
use selection::IndependentTerms;

use crate::catalog::Catalog;

/// Posterior moments per (database, distinct `sample_df`), for one
/// [`TermBasis`] per database.
#[derive(Debug)]
pub struct MomentTable {
    /// `offsets[db]..offsets[db + 1]` is database `db`'s slice of `keys`
    /// and `rows`.
    offsets: Vec<u32>,
    /// Each database's distinct `sample_df` values, ascending from 0.
    keys: Vec<u32>,
    rows: Vec<WordMoments>,
}

impl MomentTable {
    /// One table per entry of `forms` over `catalog`, building every
    /// posterior grid once and folding it for each form's basis.
    pub fn build(
        catalog: &Catalog,
        forms: &[&dyn IndependentTerms],
        grid_points: usize,
    ) -> Vec<MomentTable> {
        let ctx = catalog.unshrunk_context(&[]);
        let index = catalog.posting_index();
        let mut values: Vec<Vec<u32>> = vec![vec![0]; catalog.len()];
        for (&db, &sample_df) in index.dbs().iter().zip(index.sample_df()) {
            values[db as usize].push(sample_df);
        }

        let mut offsets = vec![0u32];
        let mut keys = Vec::new();
        let mut rows: Vec<Vec<WordMoments>> = vec![Vec::new(); forms.len()];
        for (db, values) in values.iter_mut().enumerate() {
            values.sort_unstable();
            values.dedup();
            let summary = catalog.unshrunk(db);
            let (sample_size, db_size) = (summary.sample_size(), summary.db_size());
            let bases: Vec<TermBasis> = forms.iter().map(|f| f.basis(summary, &ctx)).collect();
            for &sample_df in values.iter() {
                let grid = WordPosterior::new(
                    sample_df,
                    sample_size,
                    db_size,
                    catalog.gamma(db),
                    grid_points,
                );
                for (rows, &basis) in rows.iter_mut().zip(&bases) {
                    rows.push(grid.moments(db_size, basis));
                }
            }
            keys.extend_from_slice(values);
            offsets.push(keys.len() as u32);
        }
        let table = |rows| MomentTable {
            offsets: offsets.clone(),
            keys: keys.clone(),
            rows,
        };
        rows.into_iter().map(table).collect()
    }

    /// Total rows (distinct `(database, sample_df)` pairs).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// The moments of a word seen in `sample_df` sample documents of
    /// database `db`. Every value in the catalog's posting slabs has its
    /// own row; any other value reads the nearest row below it.
    pub fn moments(&self, db: usize, sample_df: u32) -> WordMoments {
        let (lo, hi) = (self.offsets[db] as usize, self.offsets[db + 1] as usize);
        // Key 0 leads every database's slice: the row of unsampled words,
        // and the reason the partition below is never empty.
        if sample_df == 0 {
            return self.rows[lo];
        }
        let at = self.keys[lo..hi].partition_point(|&key| key <= sample_df) - 1;
        self.rows[lo + at]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{entry, sampled_summary};
    use selection::{BGloss, Cori, SelectionAlgorithm};

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
    fn empty_catalog_builds_an_empty_table() {
        let tables = MomentTable::build(
            &Catalog::build(Vec::new()),
            &[BGloss.independent_terms().unwrap()],
            160,
        );
        assert_eq!(tables[0].rows(), 0);
    }
}
