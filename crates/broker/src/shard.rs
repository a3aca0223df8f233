//! Shard scatter-gather: partition a frozen [`Catalog`] into sub-catalogs
//! and score them in parallel without changing a single ranking bit.
//!
//! BENCH_server.json run 5 showed `/route` throughput is scoring-bound:
//! with connection lifecycle off the hot path, one core saturates on
//! posterior math and per-candidate scoring. Scoring is also embarrassingly
//! parallel *per database* — every score is a pure function of
//! `(algorithm, query, summary view, CollectionContext)` — so a shard of
//! the catalog can score its databases on its own core and the merged
//! ranking is exactly the monolithic one, provided two things never become
//! shard-local:
//!
//! 1. **The collection context.** `m`, `cf(w)`, and `mcw` are statistics
//!    of the *whole* collection. [`ShardedEngine`] computes them once from
//!    the full catalog and hands the same `CollectionContext` to every
//!    shard scorer; sub-catalogs even carry the global `mcw` constant so
//!    no path can accidentally reach a shard-local mean.
//! 2. **The summary choice.** `ShrinkageMode::Adaptive` tests every
//!    database against the *full* catalog's unshrunk context (and, for
//!    algorithms without a closed form, in catalog order against one
//!    shared RNG). The scatter therefore covers only the scoring phase;
//!    summary choice runs on the full engine first, exactly as the
//!    unsharded path would. (Shard-local choice for closed-form
//!    algorithms is a follow-up.)
//!
//! With those pinned, each shard's ranking is sorted by
//! [`selection::ranking_order`] over globally-indexed databases, shards
//! partition the index space, and [`selection::merge::merge_rankings`]
//! reconstructs the monolithic sort bit for bit (`f64::to_bits` scores
//! included) — asserted by the proptest below across all three algorithms
//! and all three shrinkage modes.
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
use selection::{AdaptiveOutcome, CollectionContext, RankedDatabase};
use textindex::TermId;

use crate::catalog::{Catalog, PostingIndex};
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

/// A validated database → shard assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `assignments[db] = shard`, each `< shards`.
    assignments: Vec<u32>,
    shards: usize,
}

impl ShardPlan {
    /// Contiguous block partitioning of `n_dbs` databases.
    pub fn contiguous(n_dbs: usize, shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let block = n_dbs.div_ceil(shards).max(1);
        ShardPlan {
            assignments: (0..n_dbs).map(|db| (db / block) as u32).collect(),
            shards,
        }
    }

    /// Name-hash partitioning: stable under catalog reordering.
    pub fn hash(names: &[String], shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        ShardPlan {
            assignments: names
                .iter()
                .map(|n| (fnv1a(n.as_bytes()) % shards as u64) as u32)
                .collect(),
            shards,
        }
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
        ShardPlan {
            assignments: topics.drain(..).map(|t| shard_of(&t)).collect(),
            shards,
        }
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
        Ok(ShardPlan {
            assignments,
            shards,
        })
    }

    /// Number of shards (some may be empty).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The raw assignment column.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Per-shard member lists, each ascending in global database index —
    /// the order sub-catalogs are built in, which keeps every shard's local
    /// order a subsequence of catalog order.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut members = vec![Vec::new(); self.shards];
        for (db, &s) in self.assignments.iter().enumerate() {
            members[s as usize].push(db as u32);
        }
        members
    }
}

/// A catalog partitioned into per-shard sub-catalogs. Algorithm-agnostic
/// and cheap to share: each serving mode's [`ShardedEngine`] borrows the
/// same `ShardSet` behind an `Arc` instead of re-slicing the columns nine
/// times.
#[derive(Debug, Clone)]
pub struct ShardSet {
    plan: ShardPlan,
    /// `members[s]` = global database indices of shard `s`, ascending.
    members: Vec<Vec<u32>>,
    /// The sub-catalog of each shard. Carries the **global** `mcw`: a
    /// shard must never observe a shard-local collection constant.
    catalogs: Vec<Arc<Catalog>>,
}

impl ShardSet {
    /// Slice `catalog` according to `plan`.
    pub fn build(catalog: &Catalog, plan: ShardPlan) -> Result<ShardSet, &'static str> {
        if plan.assignments.len() != catalog.len() {
            return Err("shard plan covers a different database count");
        }
        let members = plan.members();
        let catalogs = members
            .iter()
            .map(|dbs| {
                let names = dbs
                    .iter()
                    .map(|&g| catalog.names()[g as usize].clone())
                    .collect();
                let unshrunk: Vec<_> = dbs
                    .iter()
                    .map(|&g| catalog.unshrunk(g as usize).clone())
                    .collect();
                let shrunk = dbs
                    .iter()
                    .map(|&g| catalog.shrunk(g as usize).clone())
                    .collect();
                let gammas = dbs.iter().map(|&g| catalog.gamma(g as usize)).collect();
                let index = PostingIndex::build(&unshrunk);
                Catalog::from_raw_parts(names, unshrunk, shrunk, gammas, catalog.mcw(), index)
                    .map(Arc::new)
                    .map_err(|_| "shard columns failed catalog validation")
            })
            .collect::<Result<_, _>>()?;
        Ok(ShardSet {
            plan,
            members,
            catalogs,
        })
    }

    /// The plan this set was sliced by.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.catalogs.len()
    }

    /// Global database indices of shard `s`, ascending.
    pub fn members_of(&self, s: usize) -> &[u32] {
        &self.members[s]
    }

    /// The sub-catalog of shard `s`.
    pub fn catalog_of(&self, s: usize) -> &Arc<Catalog> {
        &self.catalogs[s]
    }
}

/// The scatter-gather engine: summary choice on the full catalog, scoring
/// fanned out over shard scorers, rankings gathered through
/// [`merge_rankings`]. Rankings are bit-identical to the wrapped
/// [`SelectionEngine`]'s for every query, seed, algorithm, and shrinkage
/// mode.
pub struct ShardedEngine {
    full: Arc<SelectionEngine>,
    set: Arc<ShardSet>,
    /// One scorer per shard, sharing the full engine's algorithm `Arc` and
    /// config. The uncertainty test runs on `full`.
    scorers: Vec<SelectionEngine>,
    /// Worker threads for the per-query scatter (clamped to shard count).
    threads: usize,
}

impl ShardedEngine {
    /// Wrap `full` with scatter-gather scoring over `set`.
    pub fn new(full: Arc<SelectionEngine>, set: Arc<ShardSet>, threads: usize) -> ShardedEngine {
        let scorers = (0..set.shard_count())
            .map(|s| {
                // Scorers never choose summaries: no moment table.
                let (catalog, config) = (Arc::clone(set.catalog_of(s)), *full.config());
                SelectionEngine::with_table(catalog, full.algorithm(), config, None)
            })
            .collect();
        let threads = threads.clamp(1, set.shard_count().max(1));
        ShardedEngine {
            full,
            set,
            scorers,
            threads,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.scorers.len()
    }

    /// Rank the top `k` databases (`usize::MAX` for the full ranking);
    /// bit-identical to [`SelectionEngine::route_topk`] on the full catalog.
    ///
    /// Each shard computes its *local* top `k` through the pruned kernel
    /// path ([`SelectionEngine::score_partition_topk`]), the partial lists
    /// merge through [`merge_rankings`], and the merge is truncated to `k`.
    /// Correct because every entry of the global top `k` is, a fortiori,
    /// within its own shard's top `k` — so no survivor is ever pruned on
    /// the shard that owns it, and [`merge_rankings`] of the truncated
    /// per-shard lists agrees with the truncated full merge on the first
    /// `k` entries.
    pub fn route_topk<R: Rng + ?Sized>(
        &self,
        query: &[TermId],
        k: usize,
        rng: &mut R,
    ) -> AdaptiveOutcome {
        let (used_shrinkage, ctx) =
            with_scratch(|scratch| self.full.choose_with_context(query, rng, scratch));
        let per_shard = fan_out(self.scorers.len(), self.threads, |s| {
            with_scratch(|scratch| {
                self.score_shard_topk(s, query, k, &ctx, &used_shrinkage, scratch)
            })
        });
        let mut ranking = merge_rankings(&per_shard);
        ranking.truncate(k);
        AdaptiveOutcome {
            ranking,
            used_shrinkage,
        }
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
        let mut outcome = self.route_shards_topk(query, k, rng, 0..self.scorers.len());
        outcome.ranking.truncate(k);
        outcome
    }

    /// Score **one** shard to its local top `k`, reporting global database
    /// indices — the backend half of a *federated* deployment, where each
    /// shard lives behind a remote daemon and a proxy gathers the partial
    /// rankings (`k = usize::MAX` for the full partial ranking).
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
    /// (sorted by `ranking_order`, global indices); `used_shrinkage`
    /// still covers the full catalog.
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
        with_scratch(|scratch| {
            let (used_shrinkage, ctx) = self.full.choose_with_context(query, rng, scratch);
            let per_shard: Vec<Vec<RankedDatabase>> = shards
                .map(|s| self.score_shard_topk(s, query, k, &ctx, &used_shrinkage, scratch))
                .collect();
            AdaptiveOutcome {
                ranking: merge_rankings(&per_shard),
                used_shrinkage,
            }
        })
    }

    /// Shard `s`'s local top `k` against the global context, global
    /// database indices.
    fn score_shard_topk(
        &self,
        s: usize,
        query: &[TermId],
        k: usize,
        ctx: &CollectionContext,
        used_shrinkage: &[bool],
        scratch: &mut RouteScratch,
    ) -> Vec<RankedDatabase> {
        let members = self.set.members_of(s);
        let local_used: Vec<bool> = members
            .iter()
            .map(|&g| used_shrinkage[g as usize])
            .collect();
        self.scorers[s].score_partition_topk(query, k, ctx, &local_used, Some(members), scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogEntry;
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
                    let set = Arc::new(
                        ShardSet::build(&catalog, ShardPlan::contiguous(catalog.len(), shards))
                            .unwrap(),
                    );
                    let sharded = ShardedEngine::new(Arc::clone(&full), set, 4);
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
                let set = Arc::new(
                    ShardSet::build(&catalog, ShardPlan::contiguous(catalog.len(), 3)).unwrap(),
                );
                let sharded = ShardedEngine::new(Arc::clone(&full), set, 2);
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
        let set = Arc::new(ShardSet::build(&catalog, ShardPlan::hash(catalog.names(), 3)).unwrap());
        let sharded = ShardedEngine::new(Arc::clone(&full), set, 2);
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
                let set = Arc::new(ShardSet::build(&catalog, plan).unwrap());
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
                        let sharded = ShardedEngine::new(Arc::clone(&full), Arc::clone(&set), 3);
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
                            let set = Arc::new(
                                ShardSet::build(
                                    &catalog,
                                    ShardPlan::contiguous(catalog.len(), shards),
                                )
                                .unwrap(),
                            );
                            let sharded =
                                ShardedEngine::new(Arc::clone(&full), Arc::clone(&set), 2);
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
