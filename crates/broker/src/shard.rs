//! Shard scatter-gather: score one frozen [`Catalog`] as several member
//! lists without changing a single ranking bit.
//!
//! Scoring is embarrassingly parallel *per database* — every score is a
//! pure function of `(algorithm, query, summary view, CollectionContext)`
//! — so a shard can score its databases on its own core (or, federated,
//! behind its own daemon) and the merged ranking is exactly the monolithic
//! one. A shard is a *view*: an ascending list of database indices into
//! the one catalog. Nothing is copied per shard, and the two things that
//! must describe the whole collection do so by construction — there is one
//! [`CollectionContext`] (`m`, `cf(w)`, `mcw`) and one summary choice per
//! query, both made by the full engine before the scatter
//! ([`SelectionEngine::choose_with_context`]); the shards only read them.
//!
//! Each shard's ranking is sorted by [`selection::ranking_order`] over
//! catalog indices, shards partition the index space, and
//! [`selection::merge::merge_rankings`] reconstructs the monolithic sort
//! bit for bit (`f64::to_bits` scores included) — asserted by the proptest
//! below across all three algorithms and all three shrinkage modes.
//!
//! Shards are contiguous blocks of catalog order, cut by
//! [`contiguous_block`]. A federated backend is handed its block in the
//! request and routes it with [`SelectionEngine::route_partition_topk`];
//! the daemon builds no plan. [`ShardPlan`] and [`ShardedEngine`], the
//! in-process scatter over every block, remain because the benchmark's
//! `broker.shard.*` rows measure that scatter against one engine (see
//! `benchmark/README.md`).
//!
//! [`CollectionContext`]: selection::CollectionContext

use std::ops::Range;
use std::sync::Arc;

use rand::Rng;
use sampling::scheduler::fan_out;
use selection::merge::merge_rankings;
use selection::AdaptiveOutcome;
use textindex::TermId;

use crate::engine::{with_scratch, RouteScratch, SelectionEngine};

/// Block `shard` of `len` databases cut into `shards` contiguous blocks of
/// `⌈len/shards⌉` (at least 1): `[shard·b, min(len, (shard+1)·b))`, empty
/// past the end. The arithmetic saturates, so any `shard < shards` the
/// caller is handed — however large — yields a range inside `0..len`.
pub fn contiguous_block(len: usize, shard: usize, shards: usize) -> Range<usize> {
    let block = len.div_ceil(shards.max(1)).max(1);
    let start = shard.saturating_mul(block).min(len);
    let end = shard.saturating_add(1).saturating_mul(block).min(len);
    start..end
}

/// Each shard's member list, for a contiguous cut of the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `members[s]` = the databases of shard `s`, ascending — every
    /// shard's order is a subsequence of catalog order.
    members: Vec<Vec<u32>>,
}

impl ShardPlan {
    /// `n_dbs` databases in `shards` (at least 1) [`contiguous_block`]s.
    pub fn contiguous(n_dbs: usize, shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let block = |s| contiguous_block(n_dbs, s, shards).map(|db| db as u32);
        ShardPlan {
            members: (0..shards).map(|s| block(s).collect()).collect(),
        }
    }

    /// Number of shards (some may be empty).
    pub fn shard_count(&self) -> usize {
        self.members.len()
    }

    /// Per-shard member lists, each ascending in catalog index.
    pub fn members(&self) -> &[Vec<u32>] {
        &self.members
    }
}

/// The in-process scatter-gather engine: summary choice, shrunk-row gather
/// and collection context once on the full catalog, scoring fanned out
/// over the plan's member lists, rankings gathered through
/// [`merge_rankings`]. Rankings are bit-identical to the wrapped
/// [`SelectionEngine`]'s for every query, algorithm, and shrinkage mode.
/// Kept for the benchmark's `broker.shard.*` rows; no serving path uses it.
pub struct ShardedEngine {
    full: Arc<SelectionEngine>,
    plan: Arc<ShardPlan>,
    /// Worker threads for the per-query scatter (clamped to shard count).
    threads: usize,
}

impl ShardedEngine {
    /// Wrap `full` with scatter-gather scoring over `plan`'s shards, which
    /// must cover exactly the databases of `full`'s catalog.
    pub fn new(
        full: Arc<SelectionEngine>,
        plan: Arc<ShardPlan>,
        threads: usize,
    ) -> Result<ShardedEngine, &'static str> {
        if plan.members.iter().map(Vec::len).sum::<usize>() != full.catalog().len() {
            return Err("shard plan covers a different database count");
        }
        let threads = threads.clamp(1, plan.shard_count());
        Ok(ShardedEngine {
            full,
            plan,
            threads,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    /// Rank the top `k` databases (`usize::MAX` for the full ranking);
    /// bit-identical to [`SelectionEngine::route_topk`] on the full catalog.
    ///
    /// Each shard computes its *local* top `k` through the pruned kernel
    /// path ([`SelectionEngine::score_planned`] over its member list), the
    /// partial lists merge through [`merge_rankings`], and the merge is
    /// truncated to `k`. Correct because every entry of the global top `k`
    /// is, a fortiori, within its own shard's top `k` — so no survivor is
    /// ever pruned on the shard that owns it, and [`merge_rankings`] of the
    /// truncated per-shard lists agrees with the truncated full merge on
    /// the first `k` entries.
    ///
    /// The scatter's threads ([`fan_out`] spawns them; none is the caller)
    /// share the caller's plan and shrunk rows and score on buffers of
    /// their own.
    ///
    /// `_rng` is never read; it stays until the benchmark, which calls
    /// this (`benchmark/src/layers.rs`), drops it (ROADMAP item 1b).
    pub fn route_topk<R: Rng + ?Sized>(
        &self,
        query: &[TermId],
        k: usize,
        _rng: &mut R,
    ) -> AdaptiveOutcome {
        with_scratch(|RouteScratch { planned, .. }| {
            let used_shrinkage = self.full.choose_with_context(query, planned);
            let (planned, ctx) = (&*planned, &planned.ctx);
            let per_shard = fan_out(self.shard_count(), self.threads, |s| {
                let members = Some(self.plan.members[s].as_slice());
                with_scratch(|RouteScratch { buffers, .. }| {
                    self.full.score_planned(
                        query,
                        k,
                        ctx,
                        &used_shrinkage,
                        members,
                        planned,
                        buffers,
                    )
                })
            });
            let mut ranking = merge_rankings(&per_shard);
            ranking.truncate(k);
            AdaptiveOutcome {
                ranking,
                used_shrinkage,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::test_support::{hierarchical, sampled_summary};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selection::{
        AdaptiveConfig, BGloss, Cori, Lm, RankedDatabase, SelectionAlgorithm, ShrinkageMode,
    };

    fn catalog(n: usize) -> Catalog {
        let summaries = (0..n)
            .map(|i| {
                let words: Vec<(TermId, u32)> = (0..5)
                    .map(|w| (w + 1, ((i as u32 + 1) * (w + 3)) % 70))
                    .filter(|&(_, sdf)| sdf > 0)
                    .collect();
                sampled_summary(500.0 + 9_000.0 * i as f64, 120, &words)
            })
            .collect();
        hierarchical(summaries).1
    }

    fn queries() -> Vec<Vec<TermId>> {
        vec![vec![1, 2], vec![3, 4, 9], vec![5], vec![], vec![2, 2, 1]]
    }

    fn assert_same_outcome(a: &AdaptiveOutcome, b: &AdaptiveOutcome) {
        assert_eq!(a.used_shrinkage, b.used_shrinkage);
        assert_eq!(a.ranking.len(), b.ranking.len());
        for (x, y) in a.ranking.iter().zip(&b.ranking) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "db {}", x.index);
        }
    }

    #[test]
    fn contiguous_plan_covers_every_database() {
        let plan = ShardPlan::contiguous(7, 3);
        assert_eq!(plan.shard_count(), 3);
        assert_eq!(plan.members(), &[vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
        for (s, members) in plan.members().iter().enumerate() {
            let block = contiguous_block(7, s, 3);
            assert!(members.iter().map(|&db| db as usize).eq(block));
        }
    }

    #[test]
    fn degenerate_plans_are_sane() {
        assert_eq!(
            ShardPlan::contiguous(0, 4).members(),
            vec![Vec::<u32>::new(); 4]
        );
        assert_eq!(
            ShardPlan::contiguous(3, 0).shard_count(),
            1,
            "0 clamps to 1"
        );
        assert_eq!(ShardPlan::contiguous(2, 8).members()[0], vec![0]);
        // Blocks past the end are empty, however far past.
        assert_eq!(contiguous_block(6, 3, 4), 6..6);
        assert_eq!(contiguous_block(6, 2, 4), 4..6);
        assert_eq!(contiguous_block(6, 5, 1_000_000), 5..6);
        assert_eq!(contiguous_block(6, 6, 1_000_000), 6..6);
        assert_eq!(contiguous_block(6, usize::MAX - 1, usize::MAX), 6..6);
        assert_eq!(
            contiguous_block(usize::MAX, usize::MAX - 1, 2).end,
            usize::MAX
        );
        let catalog = Arc::new(catalog(3));
        let full = Arc::new(SelectionEngine::new(
            Arc::clone(&catalog),
            Arc::new(BGloss) as Arc<dyn SelectionAlgorithm + Send + Sync>,
            AdaptiveConfig::default(),
        ));
        let short = Arc::new(ShardPlan::contiguous(catalog.len() - 1, 2));
        assert!(ShardedEngine::new(full, short, 2).is_err());
    }

    #[test]
    fn sharded_routing_matches_monolithic_bit_for_bit() {
        let catalog = Arc::new(catalog(9));
        let global = sampled_summary(
            120_000.0,
            900,
            &[(1, 300), (2, 250), (3, 80), (4, 60), (5, 40)],
        );
        let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
            Arc::new(BGloss),
            Arc::new(Cori::default()),
            Arc::new(Lm::new(0.5, &global)),
        ];
        for algorithm in algorithms {
            for mode in [
                ShrinkageMode::Adaptive,
                ShrinkageMode::Always,
                ShrinkageMode::Never,
            ] {
                let config = AdaptiveConfig {
                    mode,
                    ..Default::default()
                };
                let full = Arc::new(SelectionEngine::new(
                    Arc::clone(&catalog),
                    Arc::clone(&algorithm),
                    config,
                ));
                for shards in [1usize, 2, 4, 9, 16] {
                    let plan = Arc::new(ShardPlan::contiguous(catalog.len(), shards));
                    let sharded = ShardedEngine::new(Arc::clone(&full), plan, 4).unwrap();
                    for query in queries().iter() {
                        let mono = full.route(query);
                        let scat =
                            sharded.route_topk(query, usize::MAX, &mut StdRng::seed_from_u64(11));
                        assert_same_outcome(&mono, &scat);
                    }
                }
            }
        }
    }

    #[test]
    fn per_shard_partial_routes_merge_into_the_monolithic_ranking() {
        let catalog = Arc::new(catalog(9));
        let global = sampled_summary(120_000.0, 900, &[(1, 300), (2, 250), (3, 80), (4, 60)]);
        let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
            Arc::new(BGloss),
            Arc::new(Cori::default()),
            Arc::new(Lm::new(0.5, &global)),
        ];
        for algorithm in algorithms {
            for mode in [
                ShrinkageMode::Adaptive,
                ShrinkageMode::Always,
                ShrinkageMode::Never,
            ] {
                let config = AdaptiveConfig {
                    mode,
                    ..Default::default()
                };
                let full = Arc::new(SelectionEngine::new(
                    Arc::clone(&catalog),
                    Arc::clone(&algorithm),
                    config,
                ));
                let plan = ShardPlan::contiguous(catalog.len(), 3);
                for query in queries().iter() {
                    let mono = full.route(query);
                    // Each shard routed independently — exactly what N
                    // remote backends would do.
                    let per_shard: Vec<Vec<RankedDatabase>> = plan
                        .members()
                        .iter()
                        .map(|members| {
                            let partial =
                                full.route_partition_topk(query, usize::MAX, Some(members));
                            assert_eq!(
                                partial.used_shrinkage, mono.used_shrinkage,
                                "choose phase must be shard-invariant"
                            );
                            partial.ranking
                        })
                        .collect();
                    let gathered = AdaptiveOutcome {
                        ranking: merge_rankings(&per_shard),
                        used_shrinkage: mono.used_shrinkage.clone(),
                    };
                    assert_same_outcome(&mono, &gathered);
                }
            }
        }
    }

    #[test]
    fn sharded_batch_matches_monolithic_batch() {
        let catalog = Arc::new(catalog(6));
        let full = Arc::new(SelectionEngine::new(
            Arc::clone(&catalog),
            Arc::new(BGloss) as Arc<dyn SelectionAlgorithm + Send + Sync>,
            AdaptiveConfig::default(),
        ));
        // What a backend's batch handler does with a shard in the request:
        // parallel across queries, each routed over the one block; the
        // blocks' batches merge query by query into the monolithic batch.
        let queries = queries();
        let mono = full.route_batch(&queries, 4);
        let plan = ShardPlan::contiguous(catalog.len(), 4);
        let per_shard: Vec<Vec<AdaptiveOutcome>> = plan
            .members()
            .iter()
            .map(|members| {
                sampling::scheduler::fan_out_chunks(queries.len(), 4, |qi| {
                    full.route_partition_topk(&queries[qi], usize::MAX, Some(members))
                })
            })
            .collect();
        assert_eq!(mono.len(), queries.len());
        for (qi, a) in mono.iter().enumerate() {
            let partials: Vec<Vec<RankedDatabase>> = per_shard
                .iter()
                .map(|batch| batch[qi].ranking.clone())
                .collect();
            let gathered = AdaptiveOutcome {
                ranking: merge_rankings(&partials),
                used_shrinkage: per_shard[0][qi].used_shrinkage.clone(),
            };
            assert_same_outcome(a, &gathered);
        }
    }

    proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// For any catalog and any partition of it into member lists,
            /// routing each list on its own and merging equals the monolithic
            /// ranking at `f64::to_bits`, across all 3 algorithms × 3
            /// shrinkage modes — the argument every scatter rests on,
            /// contiguous or not.
            #[test]
            fn any_partitioning_is_bit_identical(
                db_sizes in proptest::collection::vec(100.0f64..60_000.0, 1..8),
                assignments in proptest::collection::vec(0usize..5, 8),
            ) {
                let summaries = db_sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &db_size)| {
                        let words: Vec<(TermId, u32)> = (0..4)
                            .map(|w| (w + 1, ((i as u32 + 2) * (w + 5)) % 80))
                            .filter(|&(_, sdf)| sdf > 0)
                            .collect();
                        sampled_summary(db_size, 100, &words)
                    })
                    .collect();
                let catalog = Arc::new(hierarchical(summaries).1);
                let mut members = vec![Vec::new(); 5];
                for db in 0..catalog.len() {
                    members[assignments[db]].push(db as u32);
                }
                let global = sampled_summary(
                    130_000.0,
                    900,
                    &[(1, 280), (2, 230), (3, 90), (4, 50)],
                );
                let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
                    Arc::new(BGloss),
                    Arc::new(Cori::default()),
                    Arc::new(Lm::new(0.5, &global)),
                ];
                let queries: Vec<Vec<TermId>> = vec![vec![1, 3], vec![2, 4, 9], vec![1], vec![]];
                for algorithm in algorithms {
                    for mode in [
                        ShrinkageMode::Adaptive,
                        ShrinkageMode::Always,
                        ShrinkageMode::Never,
                    ] {
                        let config = AdaptiveConfig { mode, ..Default::default() };
                        let full = Arc::new(SelectionEngine::new(
                            Arc::clone(&catalog),
                            Arc::clone(&algorithm),
                            config,
    ));
                        for query in queries.iter() {
                            let mono = full.route(query);
                            let mut partials = Vec::new();
                            for list in &members {
                                let partial =
                                    full.route_partition_topk(query, usize::MAX, Some(list));
                                prop_assert_eq!(&mono.used_shrinkage, &partial.used_shrinkage);
                                partials.push(partial.ranking);
                            }
                            let scat = merge_rankings(&partials);
                            prop_assert_eq!(mono.ranking.len(), scat.len());
                            for (x, y) in mono.ranking.iter().zip(&scat) {
                                prop_assert_eq!(x.index, y.index);
                                prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                            }
                        }
                    }
                }
            }

            /// Tentpole guardrail, sharded variant: per-shard pruned top-k,
            /// merged and truncated, equals the truncated monolithic ranking at
            /// `f64::to_bits` for shard counts 1/2/4 across all 3 algorithms ×
            /// 3 shrinkage modes × every k. Both the in-process scatter
            /// (`route_topk`) and the federated composition
            /// (`route_partition_topk` per block + merge) are checked.
            #[test]
            fn sharded_topk_matches_monolithic_truncation(
                seed in 0u64..1_000_000,
                db_sizes in proptest::collection::vec(100.0f64..60_000.0, 1..8),
            ) {
                let summaries = db_sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &db_size)| {
                        let words: Vec<(TermId, u32)> = (0..4)
                            .map(|w| (w + 1, ((i as u32 + 2) * (w + 5)) % 80))
                            .filter(|&(_, sdf)| sdf > 0)
                            .collect();
                        sampled_summary(db_size, 100, &words)
                    })
                    .collect();
                let catalog = Arc::new(hierarchical(summaries).1);
                let global = sampled_summary(
                    130_000.0,
                    900,
                    &[(1, 280), (2, 230), (3, 90), (4, 50)],
                );
                let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
                    Arc::new(BGloss),
                    Arc::new(Cori::default()),
                    Arc::new(Lm::new(0.5, &global)),
                ];
                let queries: Vec<Vec<TermId>> = vec![vec![1, 3], vec![2, 4, 9], vec![1], vec![]];
                for algorithm in algorithms {
                    for mode in [
                        ShrinkageMode::Adaptive,
                        ShrinkageMode::Always,
                        ShrinkageMode::Never,
                    ] {
                        let config = AdaptiveConfig { mode, ..Default::default() };
                        let full = Arc::new(SelectionEngine::new(
                            Arc::clone(&catalog),
                            Arc::clone(&algorithm),
                            config,
    ));
                        for shards in [1usize, 2, 4] {
                            let plan = Arc::new(ShardPlan::contiguous(catalog.len(), shards));
                            let sharded = ShardedEngine::new(Arc::clone(&full), plan, 2).unwrap();
                            for query in queries.iter() {
                                let mono = full.route(query);
                                for k in 1..=catalog.len() + 1 {
                                    let want = &mono.ranking[..k.min(mono.ranking.len())];
                                    let scat = sharded.route_topk(query, k, &mut StdRng::seed_from_u64(seed));
                                    prop_assert_eq!(&scat.used_shrinkage, &mono.used_shrinkage);
                                    prop_assert_eq!(scat.ranking.len(), want.len());
                                    for (x, y) in scat.ranking.iter().zip(want) {
                                        prop_assert_eq!(x.index, y.index);
                                        prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                                    }
                                    // Federated composition: backends each
                                    // return their shard-local top k.
                                    let partials: Vec<Vec<RankedDatabase>> = (0..shards)
                                        .map(|s| {
                                            let block = contiguous_block(catalog.len(), s, shards);
                                            let members: Vec<u32> =
                                                block.map(|db| db as u32).collect();
                                            full.route_partition_topk(query, k, Some(&members))
                                                .ranking
                                        })
                                        .collect();
                                    let mut merged = merge_rankings(&partials);
                                    merged.truncate(k);
                                    prop_assert_eq!(merged.len(), want.len());
                                    for (x, y) in merged.iter().zip(want) {
                                        prop_assert_eq!(x.index, y.index);
                                        prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
}
