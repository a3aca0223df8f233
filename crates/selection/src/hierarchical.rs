//! The hierarchical database selection baseline of Ipeirotis & Gravano
//! (VLDB 2002) — the "\[17\]" the paper compares shrinkage against
//! (QBS-Hierarchical / FPS-Hierarchical in Figures 4 and 5).
//!
//! Instead of modifying database summaries, this algorithm aggregates them
//! into *category* summaries and selects hierarchically: at each node it
//! scores the child categories (and any databases classified directly at
//! the node) with the base algorithm, then descends into the best-scoring
//! child first, committing to that choice before considering its siblings.
//! These **irreversible per-level choices** are exactly the weakness the
//! paper's flat shrinkage-based ranking fixes: when a query cuts across
//! categories, a hierarchical descent cannot interleave databases from
//! different branches.

use dbselect_core::category_summary::CategorySummaries;
use dbselect_core::hierarchy::{CategoryId, Hierarchy};
use dbselect_core::summary::{ContentSummary, SummaryView};
use textindex::TermId;

use crate::context::{rank_databases, RankedDatabase, SelectionAlgorithm};

/// Hierarchical selector over a classified database collection.
pub struct HierarchicalSelector<'a> {
    hierarchy: &'a Hierarchy,
    db_summaries: &'a [ContentSummary],
    /// Direct databases per category (indices into `db_summaries`).
    direct_dbs: Vec<Vec<usize>>,
    /// Number of databases in each category's subtree.
    subtree_counts: Vec<usize>,
    /// Materialized category summary per category.
    category_summaries: Vec<ContentSummary>,
}

enum Entry {
    Category(CategoryId),
    Database(usize),
}

impl<'a> HierarchicalSelector<'a> {
    /// Build the selector: `classifications[i]` is the category of
    /// `db_summaries[i]`.
    pub fn new(
        hierarchy: &'a Hierarchy,
        db_summaries: &'a [ContentSummary],
        classifications: &[CategoryId],
        category_summaries: &CategorySummaries,
    ) -> Self {
        assert_eq!(db_summaries.len(), classifications.len());
        let mut direct_dbs = vec![Vec::new(); hierarchy.len()];
        let mut subtree_counts = vec![0usize; hierarchy.len()];
        for (i, &c) in classifications.iter().enumerate() {
            direct_dbs[c].push(i);
            for node in hierarchy.path_from_root(c) {
                subtree_counts[node] += 1;
            }
        }
        let materialized = hierarchy
            .ids()
            .map(|c| category_summaries.category_summary(c))
            .collect();
        HierarchicalSelector {
            hierarchy,
            db_summaries,
            direct_dbs,
            subtree_counts,
            category_summaries: materialized,
        }
    }

    /// Rank up to `k` databases for `query`. Returned scores are synthetic
    /// rank positions (higher = better): scores from different branches are
    /// not comparable, only the order matters.
    pub fn rank(
        &self,
        algorithm: &dyn SelectionAlgorithm,
        query: &[TermId],
        k: usize,
    ) -> Vec<RankedDatabase> {
        let mut out = Vec::with_capacity(k);
        self.explore(algorithm, query, Hierarchy::ROOT, k, &mut out);
        out.into_iter()
            .enumerate()
            .map(|(pos, index)| RankedDatabase {
                index,
                score: (k - pos) as f64,
            })
            .collect()
    }

    fn explore(
        &self,
        algorithm: &dyn SelectionAlgorithm,
        query: &[TermId],
        node: CategoryId,
        k: usize,
        out: &mut Vec<usize>,
    ) {
        if out.len() >= k {
            return;
        }
        // Candidate entries at this level: child categories with databases
        // below them, plus databases classified directly here.
        let mut entries: Vec<(Entry, &dyn SummaryView)> = Vec::new();
        for &child in self.hierarchy.children(node) {
            if self.subtree_counts[child] > 0 {
                entries.push((Entry::Category(child), &self.category_summaries[child]));
            }
        }
        for &db in &self.direct_dbs[node] {
            entries.push((Entry::Database(db), &self.db_summaries[db]));
        }
        if entries.is_empty() {
            return;
        }
        let views: Vec<&dyn SummaryView> = entries.iter().map(|(_, v)| *v).collect();
        // Rank the level with the base algorithm. Categories with no query
        // evidence are never entered, but *databases* of an entered
        // (relevant) category are selected even at their default score —
        // this is the defining behavior of [17] the paper criticizes:
        // "the hierarchical algorithm continues to select (irrelevant)
        // databases from the (relevant) category".
        let ranked = rank_databases(algorithm, query, &views);
        for r in ranked {
            if out.len() >= k {
                return;
            }
            match entries[r.index].0 {
                Entry::Database(db) => out.push(db),
                Entry::Category(child) => self.explore(algorithm, query, child, k, out),
            }
        }
        // Fill remaining slots with the unevidenced databases of this
        // (relevant, already-entered) category's subtree, largest first.
        // The root is the starting point, not a *chosen* category, so it
        // never back-fills: with no evidence anywhere, nothing is selected.
        if node == Hierarchy::ROOT {
            return;
        }
        let mut leftovers: Vec<usize> = self
            .hierarchy
            .subtree(node)
            .into_iter()
            .flat_map(|c| self.direct_dbs[c].iter().copied())
            .filter(|db| !out.contains(db))
            .collect();
        leftovers.sort_by(|&a, &b| {
            self.db_summaries[b]
                .db_size()
                .partial_cmp(&self.db_summaries[a].db_size())
                .unwrap()
                .then(a.cmp(&b))
        });
        for db in leftovers {
            if out.len() >= k {
                return;
            }
            out.push(db);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgloss::BGloss;
    use dbselect_core::category_summary::CategoryWeighting;
    use dbselect_core::summary::WordStats;
    use std::collections::HashMap;

    fn summary(db_size: f64, dfs: &[(TermId, f64)]) -> ContentSummary {
        let words: HashMap<TermId, WordStats> = dfs
            .iter()
            .map(|&(t, df)| {
                (
                    t,
                    WordStats {
                        sample_df: df as u32,
                        df,
                        tf: df * 2.0,
                    },
                )
            })
            .collect();
        ContentSummary::new(db_size, db_size as u32, words)
    }

    /// Root → {Health → {Heart}, Sports}; term 1 = "hypertension" lives in
    /// Heart databases, term 9 = "soccer" in the Sports database.
    fn fixture() -> (Hierarchy, Vec<ContentSummary>, Vec<CategoryId>) {
        let mut h = Hierarchy::new("Root");
        let health = h.add_child(Hierarchy::ROOT, "Health");
        let heart = h.add_child(health, "Heart");
        let sports = h.add_child(Hierarchy::ROOT, "Sports");
        let summaries = vec![
            summary(100.0, &[(1, 60.0)]), // strong heart db
            summary(100.0, &[(1, 10.0)]), // weaker heart db
            summary(100.0, &[(9, 80.0)]), // sports db
        ];
        let classifications = vec![heart, heart, sports];
        (h, summaries, classifications)
    }

    fn selector<'a>(
        h: &'a Hierarchy,
        summaries: &'a [ContentSummary],
        classifications: &'a [CategoryId],
    ) -> HierarchicalSelector<'a> {
        let refs: Vec<(CategoryId, &ContentSummary)> = classifications
            .iter()
            .copied()
            .zip(summaries.iter())
            .collect();
        let cats = CategorySummaries::build(h, &refs, CategoryWeighting::BySize);
        HierarchicalSelector::new(h, summaries, classifications, &cats)
    }

    #[test]
    fn descends_into_matching_branch() {
        let (h, summaries, classifications) = fixture();
        let sel = selector(&h, &summaries, &classifications);
        let ranked = sel.rank(&BGloss, &[1], 2);
        let indices: Vec<usize> = ranked.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1], "both heart databases, strongest first");
    }

    #[test]
    fn other_branch_selected_for_other_topic() {
        let (h, summaries, classifications) = fixture();
        let sel = selector(&h, &summaries, &classifications);
        let ranked = sel.rank(&BGloss, &[9], 2);
        assert_eq!(ranked[0].index, 2);
        // bGlOSS gives zero (default) scores to the heart databases, so
        // only the sports database is returned.
        assert_eq!(ranked.len(), 1);
    }

    #[test]
    fn k_limits_results() {
        let (h, summaries, classifications) = fixture();
        let sel = selector(&h, &summaries, &classifications);
        let ranked = sel.rank(&BGloss, &[1], 1);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].index, 0);
    }

    #[test]
    fn scores_decrease_with_rank_position() {
        let (h, summaries, classifications) = fixture();
        let sel = selector(&h, &summaries, &classifications);
        let ranked = sel.rank(&BGloss, &[1], 3);
        assert!(ranked.windows(2).all(|w| w[0].score > w[1].score));
    }

    #[test]
    fn irreversible_choice_cannot_interleave_branches() {
        // A query matching both branches: term 5 appears in a weak heart db
        // and strongly in the sports db. The hierarchical algorithm first
        // commits to whichever *category* scores higher and exhausts it.
        let mut h = Hierarchy::new("Root");
        let health = h.add_child(Hierarchy::ROOT, "Health");
        let sports = h.add_child(Hierarchy::ROOT, "Sports");
        let summaries = vec![
            summary(1000.0, &[(5, 100.0), (1, 500.0)]), // health db 0
            summary(1000.0, &[(5, 90.0)]),              // health db 1
            summary(100.0, &[(5, 60.0)]),               // sports db (highest p̂!)
        ];
        let classifications = vec![health, health, sports];
        let refs: Vec<(CategoryId, &ContentSummary)> = classifications
            .iter()
            .copied()
            .zip(summaries.iter())
            .collect();
        let cats = CategorySummaries::build(&h, &refs, CategoryWeighting::BySize);
        let sel = HierarchicalSelector::new(&h, &summaries, &classifications, &cats);
        let ranked = sel.rank(&BGloss, &[5], 2);
        let indices: Vec<usize> = ranked.iter().map(|r| r.index).collect();
        // Health (2000 docs · p ≈ 0.095 → 190 expected matches) beats Sports
        // (100 · 0.6 = 60), so both health databases are taken before the
        // sports database even though db 2 has the highest p̂(5|D).
        assert_eq!(indices, vec![0, 1]);
    }
}
