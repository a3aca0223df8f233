//! Results merging — step (3) of the metasearching loop the paper's
//! introduction defines: *"obtains the query results from each database and
//! merges them into a unified answer."*
//!
//! Three classic strategies are provided:
//!
//! * [`MergeStrategy::RoundRobin`] — interleave the per-database rankings
//!   in database-score order (no document scores required);
//! * [`MergeStrategy::RawScore`] — trust the databases' own document
//!   scores as globally comparable (only sound for homogeneous engines);
//! * [`MergeStrategy::CoriWeighted`] — the CORI merging heuristic (Callan
//!   et al.): min–max normalize both the database scores `C` and each
//!   database's document scores `D`, then rank by
//!   `D″ = (D′ + 0.4·D′·C′) / 1.4`, so documents from high-scoring
//!   databases are promoted without letting database scores dominate.

use textindex::{DocId, SearchOutcome};

use crate::context::{ranking_order, RankedDatabase};

/// A document in the merged result list.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedResult {
    /// Index of the source database (position in the input slice).
    pub database: usize,
    /// The document's id within its source database.
    pub doc: DocId,
    /// The merged score (comparable within one merged list only).
    pub score: f64,
}

/// How per-database result lists are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// Take one document from each database in turn, best database first.
    RoundRobin,
    /// Sort by the databases' raw document scores.
    RawScore,
    /// CORI-weighted normalization (the default).
    #[default]
    CoriWeighted,
}

/// Merge per-database results into one ranked list.
///
/// `inputs[i] = (database_index, database_score, outcome)` — the selection
/// score the metasearcher assigned to the database and the results it
/// returned. Ties are broken by (database, doc) for determinism.
pub fn merge_results(
    inputs: &[(usize, f64, SearchOutcome)],
    strategy: MergeStrategy,
    limit: usize,
) -> Vec<MergedResult> {
    match strategy {
        MergeStrategy::RoundRobin => round_robin(inputs, limit),
        MergeStrategy::RawScore => by_score(inputs, limit, |doc_score, _| doc_score),
        MergeStrategy::CoriWeighted => cori_weighted(inputs, limit),
    }
}

/// Merge per-shard *database rankings* into one global ranking.
///
/// Each input list must already be sorted by [`ranking_order`] — which every
/// list produced by [`crate::rank_databases_with_context`] is — and the
/// lists must not share database indices (a shard partition). The output is
/// then exactly what sorting the concatenation with [`ranking_order`] would
/// give: the comparator is a total order over (score, index) pairs with
/// distinct indices, so the k-way merge reconstructs the monolithic ranking
/// bit for bit, `f64::to_bits` scores included.
///
/// This is the gather half of the broker's shard scatter-gather: shards
/// rank their databases independently (same float operations, global
/// collection context) and the merged ranking is indistinguishable from a
/// single-catalog run.
pub fn merge_rankings(shards: &[Vec<RankedDatabase>]) -> Vec<RankedDatabase> {
    match shards.len() {
        0 => return Vec::new(),
        1 => return shards[0].clone(),
        _ => {}
    }
    let total = shards.iter().map(Vec::len).sum();
    let mut cursors = vec![0usize; shards.len()];
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut best: Option<(usize, &RankedDatabase)> = None;
        for (s, shard) in shards.iter().enumerate() {
            let Some(candidate) = shard.get(cursors[s]) else {
                continue;
            };
            best = match best {
                Some((_, leader)) if ranking_order(leader, candidate).is_le() => best,
                _ => Some((s, candidate)),
            };
        }
        let (s, winner) = best.expect("cursors exhausted before total reached");
        out.push(*winner);
        cursors[s] += 1;
    }
    out
}

fn round_robin(inputs: &[(usize, f64, SearchOutcome)], limit: usize) -> Vec<MergedResult> {
    // Databases in descending selection-score order.
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    order.sort_by(|&a, &b| {
        inputs[b]
            .1
            .partial_cmp(&inputs[a].1)
            .unwrap()
            .then(inputs[a].0.cmp(&inputs[b].0))
    });
    let mut out = Vec::with_capacity(limit);
    let mut depth = 0usize;
    loop {
        let mut any = false;
        for &i in &order {
            let (db, db_score, outcome) = &inputs[i];
            if let Some(&doc) = outcome.doc_ids.get(depth) {
                any = true;
                // Synthetic decreasing score preserves the interleaved order.
                let score = -((out.len()) as f64);
                let _ = db_score;
                out.push(MergedResult {
                    database: *db,
                    doc,
                    score,
                });
                if out.len() >= limit {
                    return out;
                }
            }
        }
        if !any {
            return out;
        }
        depth += 1;
    }
}

fn by_score(
    inputs: &[(usize, f64, SearchOutcome)],
    limit: usize,
    score_fn: impl Fn(f64, f64) -> f64,
) -> Vec<MergedResult> {
    let score_fn = &score_fn;
    let mut out: Vec<MergedResult> = inputs
        .iter()
        .flat_map(|(db, db_score, outcome)| {
            outcome
                .doc_ids
                .iter()
                .zip(&outcome.scores)
                .map(move |(&doc, &s)| MergedResult {
                    database: *db,
                    doc,
                    score: score_fn(s, *db_score),
                })
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(a.database.cmp(&b.database))
            .then(a.doc.cmp(&b.doc))
    });
    out.truncate(limit);
    out
}

fn cori_weighted(inputs: &[(usize, f64, SearchOutcome)], limit: usize) -> Vec<MergedResult> {
    // Min–max normalize database scores.
    let (c_min, c_max) = min_max(inputs.iter().map(|(_, c, _)| *c));
    let c_range = (c_max - c_min).max(f64::MIN_POSITIVE);
    let mut out = Vec::new();
    for (db, c, outcome) in inputs {
        let c_norm = (c - c_min) / c_range;
        // Min–max normalize this database's document scores.
        let (d_min, d_max) = min_max(outcome.scores.iter().copied());
        let d_range = (d_max - d_min).max(f64::MIN_POSITIVE);
        for (&doc, &d) in outcome.doc_ids.iter().zip(&outcome.scores) {
            // Degenerate single-score lists normalize to 1, not 0, so a
            // lone result still carries its database's weight.
            let d_norm = if d_max == d_min {
                1.0
            } else {
                (d - d_min) / d_range
            };
            let merged = (d_norm + 0.4 * d_norm * c_norm) / 1.4;
            out.push(MergedResult {
                database: *db,
                doc,
                score: merged,
            });
        }
    }
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(a.database.cmp(&b.database))
            .then(a.doc.cmp(&b.doc))
    });
    out.truncate(limit);
    out
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for v in values {
        min = min.min(v);
        max = max.max(v);
    }
    if min > max {
        (0.0, 0.0)
    } else {
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(docs: &[(DocId, f64)]) -> SearchOutcome {
        SearchOutcome {
            total_matches: docs.len(),
            doc_ids: docs.iter().map(|&(d, _)| d).collect(),
            scores: docs.iter().map(|&(_, s)| s).collect(),
        }
    }

    fn fixture() -> Vec<(usize, f64, SearchOutcome)> {
        vec![
            (0, 0.9, outcome(&[(10, 5.0), (11, 3.0)])),
            (1, 0.2, outcome(&[(20, 9.0), (21, 1.0)])),
        ]
    }

    #[test]
    fn round_robin_interleaves_best_database_first() {
        let merged = merge_results(&fixture(), MergeStrategy::RoundRobin, 10);
        let order: Vec<(usize, DocId)> = merged.iter().map(|m| (m.database, m.doc)).collect();
        assert_eq!(order, vec![(0, 10), (1, 20), (0, 11), (1, 21)]);
    }

    #[test]
    fn raw_score_ignores_database_scores() {
        let merged = merge_results(&fixture(), MergeStrategy::RawScore, 10);
        // Doc 20 has the highest raw score (9.0) despite its weak database.
        assert_eq!((merged[0].database, merged[0].doc), (1, 20));
    }

    #[test]
    fn cori_weighted_promotes_strong_databases() {
        let merged = merge_results(&fixture(), MergeStrategy::CoriWeighted, 10);
        // Both top docs normalize to D' = 1.0 within their databases, but
        // database 0's C' = 1.0 vs database 1's C' = 0.0 breaks the tie.
        assert_eq!((merged[0].database, merged[0].doc), (0, 10));
        assert_eq!((merged[1].database, merged[1].doc), (1, 20));
    }

    #[test]
    fn limit_truncates_output() {
        for strategy in [
            MergeStrategy::RoundRobin,
            MergeStrategy::RawScore,
            MergeStrategy::CoriWeighted,
        ] {
            let merged = merge_results(&fixture(), strategy, 3);
            assert_eq!(merged.len(), 3, "{strategy:?}");
        }
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        for strategy in [
            MergeStrategy::RoundRobin,
            MergeStrategy::RawScore,
            MergeStrategy::CoriWeighted,
        ] {
            assert!(merge_results(&[], strategy, 5).is_empty());
        }
    }

    #[test]
    fn single_database_preserves_its_order() {
        let inputs = vec![(3usize, 0.7, outcome(&[(1, 9.0), (2, 5.0), (3, 2.0)]))];
        for strategy in [
            MergeStrategy::RoundRobin,
            MergeStrategy::RawScore,
            MergeStrategy::CoriWeighted,
        ] {
            let merged = merge_results(&inputs, strategy, 10);
            let docs: Vec<DocId> = merged.iter().map(|m| m.doc).collect();
            assert_eq!(docs, vec![1, 2, 3], "{strategy:?}");
            assert!(merged.iter().all(|m| m.database == 3));
        }
    }

    #[test]
    fn merge_rankings_reconstructs_the_monolithic_sort() {
        let rank = |pairs: &[(usize, f64)]| -> Vec<RankedDatabase> {
            pairs
                .iter()
                .map(|&(index, score)| RankedDatabase { index, score })
                .collect()
        };
        // Disjoint indices, a cross-shard tie (dbs 2 and 5 at 0.7), and an
        // empty shard.
        let shards = vec![
            rank(&[(0, 0.9), (2, 0.7), (4, 0.1)]),
            rank(&[(5, 0.7), (1, 0.3)]),
            rank(&[]),
        ];
        let merged = merge_rankings(&shards);
        let mut expected: Vec<RankedDatabase> = shards.iter().flatten().copied().collect();
        expected.sort_by(ranking_order);
        assert_eq!(merged.len(), expected.len());
        for (m, e) in merged.iter().zip(&expected) {
            assert_eq!(m.index, e.index);
            assert_eq!(m.score.to_bits(), e.score.to_bits());
        }
        // The tie resolved by ascending index, not shard order.
        let tied: Vec<usize> = merged
            .iter()
            .filter(|r| r.score == 0.7)
            .map(|r| r.index)
            .collect();
        assert_eq!(tied, vec![2, 5]);
    }

    #[test]
    fn merge_rankings_handles_degenerate_shapes() {
        assert!(merge_rankings(&[]).is_empty());
        assert!(merge_rankings(&[vec![], vec![]]).is_empty());
        let single = vec![vec![
            RankedDatabase {
                index: 3,
                score: 1.5,
            },
            RankedDatabase {
                index: 0,
                score: 0.5,
            },
        ]];
        assert_eq!(merge_rankings(&single), single[0]);
    }

    #[test]
    fn cori_weighted_scores_are_in_unit_range() {
        let merged = merge_results(&fixture(), MergeStrategy::CoriWeighted, 10);
        for m in &merged {
            assert!((0.0..=1.0 + 1e-12).contains(&m.score), "score {}", m.score);
        }
    }
}
