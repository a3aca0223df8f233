//! Shard scatter-gather: score one frozen [`Catalog`] as several member
//! lists in parallel without changing a single ranking bit.
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
//! (What in-process sharding costs and buys is measured by `benchmark/`,
//! rows `broker.shard.*` — see `benchmark/README.md`.)
//!
//! Each shard's ranking is sorted by [`selection::ranking_order`] over
//! catalog indices, shards partition the index space, and
//! [`selection::merge::merge_rankings`] reconstructs the monolithic sort
//! bit for bit (`f64::to_bits` scores included) — asserted by the proptest
//! below across all three algorithms and all three shrinkage modes.
//!
//! [`ShardPlan`] decides who lives where: contiguous blocks (the default —
//! preserves locality of catalog order), name-hash (stable under
//! reordering), or topic-subtree (databases sharing a top-level topic of
//! the classification hierarchy stay on one shard, the layout a federated
//! deployment over "Automatic Classification of Text Databases through
//! Query Probing" hierarchies would pick).

use std::sync::Arc;

use rand::Rng;
use sampling::scheduler::fan_out;
use selection::merge::merge_rankings;
use selection::{AdaptiveOutcome, RankedDatabase};
use textindex::TermId;

use crate::engine::{with_scratch, RouteScratch, SelectionEngine};

/// How databases are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partitioning {
    /// Contiguous blocks of catalog order (`ceil(n/shards)` each).
    #[default]
    Contiguous,
    /// FNV-1a hash of the database name, modulo the shard count.
    Hash,
    /// Group by top-level topic segment of each database's classification
    /// path ("Health/Heart" → "Health"); topics are assigned to shards
    /// round-robin in sorted topic order, so databases of one subtree
    /// co-locate.
    Topic,
}

/// FNV-1a, the workspace's stable non-cryptographic hash (same constants
/// as the snapshot checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// A validated database → shard assignment, with each shard's member list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `assignments[db] = shard`, each `< members.len()`.
    assignments: Vec<u32>,
    /// `members[s]` = the databases of shard `s`, ascending — every
    /// shard's order is a subsequence of catalog order.
    members: Vec<Vec<u32>>,
}

impl ShardPlan {
    /// `assignments` (each `< shards`) with the member lists they imply.
    fn new(assignments: Vec<u32>, shards: usize) -> ShardPlan {
        let mut members = vec![Vec::new(); shards];
        for (db, &s) in assignments.iter().enumerate() {
            members[s as usize].push(db as u32);
        }
        ShardPlan {
            assignments,
            members,
        }
    }

    /// Contiguous block partitioning of `n_dbs` databases.
    pub fn contiguous(n_dbs: usize, shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let block = n_dbs.div_ceil(shards).max(1);
        ShardPlan::new((0..n_dbs).map(|db| (db / block) as u32).collect(), shards)
    }

    /// Name-hash partitioning: stable under catalog reordering.
    pub fn hash(names: &[String], shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let shard_of = |n: &String| (fnv1a(n.as_bytes()) % shards as u64) as u32;
        ShardPlan::new(names.iter().map(shard_of).collect(), shards)
    }

    /// Topic-subtree partitioning over classification paths (one per
    /// database, e.g. `"Health/Heart"`). Databases sharing a top-level
    /// topic always land on the same shard.
    pub fn topic(categories: &[String], shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let top = |c: &str| c.split('/').next().unwrap_or("").to_string();
        let mut topics: Vec<String> = categories.iter().map(|c| top(c)).collect();
        let mut distinct = topics.clone();
        distinct.sort();
        distinct.dedup();
        let shard_of = |t: &String| {
            let pos = distinct.binary_search(t).expect("topic collected above");
            (pos % shards) as u32
        };
        ShardPlan::new(topics.drain(..).map(|t| shard_of(&t)).collect(), shards)
    }

    /// An explicit assignment, validated.
    pub fn from_assignments(
        assignments: Vec<u32>,
        shards: usize,
    ) -> Result<ShardPlan, &'static str> {
        if shards == 0 {
            return Err("shard count must be at least 1");
        }
        if assignments.iter().any(|&s| s as usize >= shards) {
            return Err("shard assignment out of range");
        }
        Ok(ShardPlan::new(assignments, shards))
    }

    /// Number of shards (some may be empty).
    pub fn shard_count(&self) -> usize {
        self.members.len()
    }

    /// The raw assignment column.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Per-shard member lists, each ascending in catalog index.
    pub fn members(&self) -> &[Vec<u32>] {
        &self.members
    }
}

/// The scatter-gather engine: summary choice, shrunk-row gather and
/// collection context once on the full catalog, scoring fanned out over
/// the plan's member lists, rankings gathered through [`merge_rankings`].
/// Rankings are bit-identical to the wrapped [`SelectionEngine`]'s for
/// every query, algorithm, and shrinkage mode.
pub struct ShardedEngine {
    full: Arc<SelectionEngine>,
    plan: Arc<ShardPlan>,
    /// Worker threads for the per-query scatter (clamped to shard count).
    threads: usize,
}

impl ShardedEngine {
    /// Wrap `full` with scatter-gather scoring over `plan`'s shards, which
    /// must assign exactly the databases of `full`'s catalog.
    pub fn new(
        full: Arc<SelectionEngine>,
        plan: Arc<ShardPlan>,
        threads: usize,
    ) -> Result<ShardedEngine, &'static str> {
        if plan.assignments.len() != full.catalog().len() {
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
    pub fn route_topk<R: Rng + ?Sized>(
        &self,
        query: &[TermId],
        k: usize,
        rng: &mut R,
    ) -> AdaptiveOutcome {
        with_scratch(|RouteScratch { planned, .. }| {
            let (used_shrinkage, ctx) = self.full.choose_with_context(query, rng, planned);
            let planned = &*planned;
            let per_shard = fan_out(self.shard_count(), self.threads, |s| {
                let members = Some(self.plan.members[s].as_slice());
                with_scratch(|RouteScratch { buffers, .. }| {
                    self.full.score_planned(
                        query,
                        k,
                        &ctx,
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

    /// [`route_topk`](Self::route_topk) with the shard scatter run
    /// sequentially on the calling thread — for callers that already
    /// parallelize across queries (the batch handler's per-query workers)
    /// and must not nest a per-query scatter inside their own fan-out.
    pub fn route_sequential_topk<R: Rng + ?Sized>(
        &self,
        query: &[TermId],
        k: usize,
        rng: &mut R,
    ) -> AdaptiveOutcome {
        let mut outcome = self.route_shards_topk(query, k, rng, 0..self.shard_count());
        outcome.ranking.truncate(k);
        outcome
    }

    /// Score **one** shard to its local top `k` — the backend half of a
    /// *federated* deployment, where each shard lives behind a remote
    /// daemon and a proxy gathers the partial rankings (`k = usize::MAX`
    /// for the full partial ranking).
    ///
    /// Every backend holds the full catalog and runs the identical choose
    /// phase plus the global collection context, then scores only
    /// `shard`'s members through the pruned kernel path. Merging every
    /// shard's partial list through [`merge_rankings`] and truncating to
    /// `k` is therefore bit-identical to [`route_topk`](Self::route_topk)
    /// — the same argument as the in-process scatter, just with the
    /// scatter on the other side of a socket.
    ///
    /// The returned outcome's `ranking` holds only `shard`'s databases
    /// (sorted by `ranking_order`); `used_shrinkage` still covers the full
    /// catalog.
    pub fn route_shard_topk<R: Rng + ?Sized>(
        &self,
        query: &[TermId],
        k: usize,
        rng: &mut R,
        shard: usize,
    ) -> AdaptiveOutcome {
        self.route_shards_topk(query, k, rng, shard..shard + 1)
    }

    /// Choose on the full catalog, then score `shards` one after another
    /// on this thread's scratch and merge their local top-`k` lists.
    fn route_shards_topk<R: Rng + ?Sized>(
        &self,
        query: &[TermId],
        k: usize,
        rng: &mut R,
        shards: std::ops::Range<usize>,
    ) -> AdaptiveOutcome {
        with_scratch(|RouteScratch { planned, buffers }| {
            let (used_shrinkage, ctx) = self.full.choose_with_context(query, rng, planned);
            let per_shard: Vec<Vec<RankedDatabase>> = self.plan.members[shards]
                .iter()
                .map(|members| {
                    let members = Some(members.as_slice());
                    self.full.score_planned(
                        query,
                        k,
                        &ctx,
                        &used_shrinkage,
                        members,
                        planned,
                        buffers,
                    )
                })
                .collect();
            AdaptiveOutcome {
                ranking: merge_rankings(&per_shard),
                used_shrinkage,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, CatalogEntry};
    use crate::test_support::{sampled_summary, shrunk_for};
    use proptest::prelude::*;
    use sampling::scheduler::db_rng;
    use selection::{AdaptiveConfig, BGloss, Cori, Lm, SelectionAlgorithm, ShrinkageMode};

    fn entries(n: usize) -> Vec<CatalogEntry> {
        (0..n)
            .map(|i| {
                let words: Vec<(TermId, u32)> = (0..5)
                    .map(|w| (w + 1, ((i as u32 + 1) * (w + 3)) % 70))
                    .filter(|&(_, sdf)| sdf > 0)
                    .collect();
                let unshrunk = sampled_summary(500.0 + 9_000.0 * i as f64, 120, &words);
                let shrunk = shrunk_for(&unshrunk, &[(1, 0.04), (4, 0.01)]);
                CatalogEntry {
                    name: format!("db{i}"),
                    unshrunk,
                    shrunk,
                }
            })
            .collect()
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
        assert_eq!(plan.assignments(), &[0, 0, 0, 1, 1, 1, 2]);
        let members = plan.members();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 7);
        assert!(members.iter().all(|m| m.windows(2).all(|w| w[0] < w[1])));
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
        assert!(ShardPlan::from_assignments(vec![0, 2], 2).is_err());
        assert!(ShardPlan::from_assignments(vec![], 0).is_err());
        assert!(ShardPlan::from_assignments(vec![0, 1], 2).is_ok());
    }

    #[test]
    fn hash_plan_is_name_stable() {
        let names: Vec<String> = (0..6).map(|i| format!("db{i}")).collect();
        let a = ShardPlan::hash(&names, 3);
        let mut reversed = names.clone();
        reversed.reverse();
        let b = ShardPlan::hash(&reversed, 3);
        for (i, name) in names.iter().enumerate() {
            let j = reversed.iter().position(|n| n == name).unwrap();
            assert_eq!(a.assignments()[i], b.assignments()[j], "{name}");
        }
    }

    #[test]
    fn topic_plan_colocates_subtrees() {
        let categories: Vec<String> = [
            "Health/Heart",
            "Sports/Soccer",
            "Health/Immunology",
            "Finance",
            "Sports",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let plan = ShardPlan::topic(&categories, 2);
        assert_eq!(
            plan.assignments()[0],
            plan.assignments()[2],
            "Health together"
        );
        assert_eq!(
            plan.assignments()[1],
            plan.assignments()[4],
            "Sports together"
        );
    }

    #[test]
    fn sharded_routing_matches_monolithic_bit_for_bit() {
        let catalog = Arc::new(Catalog::build(entries(9)));
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
                    for (qi, query) in queries().iter().enumerate() {
                        let mono = full.route(query, &mut db_rng(11, qi));
                        let scat = sharded.route_topk(query, usize::MAX, &mut db_rng(11, qi));
                        assert_same_outcome(&mono, &scat);
                    }
                }
            }
        }
    }

    #[test]
    fn per_shard_partial_routes_merge_into_the_monolithic_ranking() {
        let catalog = Arc::new(Catalog::build(entries(9)));
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
                let plan = Arc::new(ShardPlan::contiguous(catalog.len(), 3));
                let sharded = ShardedEngine::new(Arc::clone(&full), plan, 2).unwrap();
                for (qi, query) in queries().iter().enumerate() {
                    let mono = full.route(query, &mut db_rng(5, qi));
                    // Each shard routed independently, each with its own
                    // fresh RNG — exactly what N remote backends would do.
                    let per_shard: Vec<Vec<RankedDatabase>> = (0..sharded.shard_count())
                        .map(|s| {
                            let partial =
                                sharded.route_shard_topk(query, usize::MAX, &mut db_rng(5, qi), s);
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
        let catalog = Arc::new(Catalog::build(entries(6)));
        let full = Arc::new(SelectionEngine::new(
            Arc::clone(&catalog),
            Arc::new(BGloss) as Arc<dyn SelectionAlgorithm + Send + Sync>,
            AdaptiveConfig::default(),
        ));
        let plan = Arc::new(ShardPlan::hash(catalog.names(), 3));
        let sharded = ShardedEngine::new(Arc::clone(&full), plan, 2).unwrap();
        let short = Arc::new(ShardPlan::contiguous(catalog.len() - 1, 3));
        assert!(ShardedEngine::new(Arc::clone(&full), short, 2).is_err());
        // What the daemon's batch handler does: parallel across queries,
        // shards scored sequentially inside each (full rankings here).
        let queries = queries();
        let mono = full.route_batch(&queries, 77, 4);
        let scat = sampling::scheduler::fan_out_chunks(queries.len(), 4, |qi| {
            sharded.route_sequential_topk(&queries[qi], usize::MAX, &mut db_rng(77, qi))
        });
        assert_eq!(mono.len(), scat.len());
        for (a, b) in mono.iter().zip(&scat) {
            assert_same_outcome(a, b);
        }
    }

    proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Satellite invariant: for any catalog, any shard count, and any
            /// partitioning, the scatter-gathered merged ranking equals the
            /// monolithic ranking at `f64::to_bits`, across all 3 algorithms ×
            /// 3 shrinkage modes.
            #[test]
            fn any_partitioning_is_bit_identical(
                seed in 0u64..1_000_000,
                db_sizes in proptest::collection::vec(100.0f64..60_000.0, 1..8),
                shards in 1usize..6,
                scheme in 0usize..3,
            ) {
                let entries: Vec<CatalogEntry> = db_sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &db_size)| {
                        let words: Vec<(TermId, u32)> = (0..4)
                            .map(|w| (w + 1, ((i as u32 + 2) * (w + 5)) % 80))
                            .filter(|&(_, sdf)| sdf > 0)
                            .collect();
                        let unshrunk = sampled_summary(db_size, 100, &words);
                        let shrunk = shrunk_for(&unshrunk, &[(2, 0.05), (3, 0.02)]);
                        CatalogEntry { name: format!("db{i}"), unshrunk, shrunk }
                    })
                    .collect();
                let catalog = Arc::new(Catalog::build(entries));
                let topics: Vec<String> = (0..catalog.len())
                    .map(|i| format!("T{}/sub{}", i % 3, i))
                    .collect();
                let plan = match scheme {
                    0 => ShardPlan::contiguous(catalog.len(), shards),
                    1 => ShardPlan::hash(catalog.names(), shards),
                    _ => ShardPlan::topic(&topics, shards),
                };
                let plan = Arc::new(plan);
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
                        let sharded =
                            ShardedEngine::new(Arc::clone(&full), Arc::clone(&plan), 3).unwrap();
                        for (qi, query) in queries.iter().enumerate() {
                            let mono = full.route(query, &mut db_rng(seed, qi));
                            let scat = sharded.route_topk(query, usize::MAX, &mut db_rng(seed, qi));
                            prop_assert_eq!(&mono.used_shrinkage, &scat.used_shrinkage);
                            prop_assert_eq!(mono.ranking.len(), scat.ranking.len());
                            for (x, y) in mono.ranking.iter().zip(&scat.ranking) {
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
            /// (`route_shard_topk` per shard + merge) are checked.
            #[test]
            fn sharded_topk_matches_monolithic_truncation(
                seed in 0u64..1_000_000,
                db_sizes in proptest::collection::vec(100.0f64..60_000.0, 1..8),
            ) {
                let entries: Vec<CatalogEntry> = db_sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &db_size)| {
                        let words: Vec<(TermId, u32)> = (0..4)
                            .map(|w| (w + 1, ((i as u32 + 2) * (w + 5)) % 80))
                            .filter(|&(_, sdf)| sdf > 0)
                            .collect();
                        let unshrunk = sampled_summary(db_size, 100, &words);
                        let shrunk = shrunk_for(&unshrunk, &[(2, 0.05), (3, 0.02)]);
                        CatalogEntry { name: format!("db{i}"), unshrunk, shrunk }
                    })
                    .collect();
                let catalog = Arc::new(Catalog::build(entries));
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
                            for (qi, query) in queries.iter().enumerate() {
                                let mono = full.route(query, &mut db_rng(seed, qi));
                                for k in 1..=catalog.len() + 1 {
                                    let want = &mono.ranking[..k.min(mono.ranking.len())];
                                    let scat = sharded.route_topk(query, k, &mut db_rng(seed, qi));
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
                                            sharded
                                                .route_shard_topk(
                                                    query,
                                                    k,
                                                    &mut db_rng(seed, qi),
                                                    s,
                                                )
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
