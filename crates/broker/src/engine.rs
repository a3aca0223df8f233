//! The batched selection engine.
//!
//! [`SelectionEngine`] serves queries against a frozen [`Catalog`] with any
//! [`SelectionAlgorithm`] under any [`ShrinkageMode`], reproducing
//! [`selection::adaptive_rank`] bit for bit while doing strictly less work
//! per query:
//!
//! * collection statistics (`m`, `mcw`, `cf`) come from the catalog instead
//!   of per-query scans over every summary map;
//! * the Section-4 uncertainty test reads word-posterior moments — which
//!   depend only on `(sample_df, |S|, |D̂|, γ)`, never on the query — from
//!   an immutable [`MomentTable`], so the summary-choice phase is a scatter
//!   from the posting slabs plus a few multiplies per (query word,
//!   database): the same fold `adaptive_rank` applies to fresh grids;
//! * databases whose unshrunk summary mentions no query word are skipped in
//!   the scoring phase: their score provably equals the algorithm's default
//!   score, which the ranker drops. (Databases routed to their shrunk
//!   summary are always scored.)
//!
//! A request resolves each fact once (`catalog::QueryPlan`): one
//! posting-index search per query word, one search per word per *distinct*
//! shrunk term column, and one gather of the shrunk databases' rows that
//! feeds both the scoring context and the kernels. [`route_topk`]
//! recycles every buffer of that per thread.
//!
//! [`route_topk`]: SelectionEngine::route_topk
//!
//! The engine owns its catalog and algorithm behind `Arc`s, so a long-lived
//! serving process (the `dbselectd` daemon) can share one engine across
//! worker threads and atomically swap catalogs by replacing the engine.
//!
//! An engine serves only algorithms with the Section-4 closed form
//! ([`IndependentTerms`], folding one way over every database) and a
//! batch [`ScoreKernel`] — bGlOSS, CORI and LM — and refuses anything else
//! at construction. It decides only by the tabulated closed form, scores
//! only through kernels, and never draws a random number. The Monte-Carlo
//! rule and the per-view scorer remain in [`selection::adaptive_rank`],
//! the oracle the tests compare the engine with.
//!
//! Batches fan out over queries in contiguous per-worker chunks
//! ([`sampling::scheduler::fan_out_chunks`]).

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use dbselect_core::uncertainty::{Combine, Fold, ScoreDistribution, TermCoefficients, WordMoments};
use rand::Rng;
use sampling::scheduler::fan_out_chunks;
use selection::{
    shrinkage_decision, AdaptiveConfig, AdaptiveOutcome, CollectionContext, IndependentTerms,
    PreparedKernel, ProbabilitySpace, RankedDatabase, ScoreKernel, SelectionAlgorithm,
    ShrinkageMode, TermBound, TopK,
};
use textindex::TermId;

use crate::catalog::{Catalog, QueryPlan, ShrunkRows};
use crate::moments::MomentTable;

/// Reusable buffers for routing. Allocating them fresh per query dominates
/// the allocator traffic of serving, so the engines route on one scratch
/// per thread. A scratch never influences results — every buffer is
/// cleared and refilled before use — it only recycles capacity.
#[derive(Default)]
pub struct RouteScratch {
    pub(crate) planned: Planned,
    pub(crate) buffers: ScoreBuffers,
}

/// What a request resolves before scoring, once, on the full catalog: the
/// query's plan, the scoring context, the rows of the databases scored
/// with `R̂(D)`, and the candidate mask. Scoring only reads it, so every
/// shard view of a scattered query shares the one copy. The choice's
/// column kernel works in `columns`.
#[derive(Default)]
pub(crate) struct Planned {
    plan: QueryPlan,
    pub(crate) ctx: CollectionContext,
    shrunk: ShrunkRows,
    candidates: Vec<bool>,
    columns: ChooseColumns,
}

/// The closed-form test's columns, one entry per database: the current
/// query word's moment row and slope factor, and the fold's running
/// accumulators.
#[derive(Default)]
pub(crate) struct ChooseColumns {
    present: Vec<f64>,
    mean: Vec<f64>,
    second: Vec<f64>,
    slope: Vec<f64>,
    first_acc: Vec<f64>,
    second_acc: Vec<f64>,
    default_acc: Vec<f64>,
}

impl ChooseColumns {
    /// Start every database's fold empty.
    fn reset(&mut self, table: &MomentTable, n: usize) {
        for column in [
            &mut self.first_acc,
            &mut self.second_acc,
            &mut self.default_acc,
        ] {
            column.clear();
        }
        for db in 0..n {
            let empty = table.combine(db).empty();
            self.first_acc.push(empty.first);
            self.second_acc.push(empty.second);
            self.default_acc.push(empty.default);
        }
    }

    /// Give every database the row and slope factor of a word its sample
    /// never saw.
    fn seed(&mut self, table: &MomentTable) {
        let (present, mean, second) = table.unsampled();
        let columns = [
            (&mut self.present, present),
            (&mut self.mean, mean),
            (&mut self.second, second),
            (&mut self.slope, table.unsampled_slope()),
        ];
        for (column, unsampled) in columns {
            column.clear();
            column.extend_from_slice(unsampled);
        }
    }

    /// Fold the current word, with database-independent coefficients
    /// `term`, into every database's accumulators: `step` is
    /// [`Fold::product`] or [`Fold::mean`], the step `IndependentScore::push`
    /// takes for every database, so each sees exactly its operations.
    #[inline]
    fn fold(
        &mut self,
        term: TermCoefficients,
        step: impl Fn(Fold, TermCoefficients, &WordMoments) -> Fold,
    ) {
        let n = self.first_acc.len();
        let (present, mean, second) = (&self.present[..n], &self.mean[..n], &self.second[..n]);
        let slope = &self.slope[..n];
        let first_acc = &mut self.first_acc[..n];
        let second_acc = &mut self.second_acc[..n];
        let default_acc = &mut self.default_acc[..n];
        for db in 0..n {
            let word = WordMoments {
                present: present[db],
                mean: mean[db],
                second: second[db],
            };
            let term = TermCoefficients {
                slope: term.slope * slope[db],
                ..term
            };
            let acc = Fold {
                first: first_acc[db],
                second: second_acc[db],
                default: default_acc[db],
            };
            let acc = step(acc, term, &word);
            first_acc[db] = acc.first;
            second_acc[db] = acc.second;
            default_acc[db] = acc.default;
        }
    }

    /// Database `db`'s evidence distribution, once `words` words are
    /// folded.
    #[inline]
    fn evidence(&self, table: &MomentTable, db: usize, words: usize) -> ScoreDistribution {
        let fold = Fold {
            first: self.first_acc[db],
            second: self.second_acc[db],
            default: self.default_acc[db],
        };
        fold.finish(table.combine(db), words)
    }
}

/// What scoring writes — one per scoring thread: the query words' score
/// bounds and the kernel's query constants, the db→row map, per-row
/// metadata, the row-major probability matrix and presence masks of the
/// unshrunk candidates, and the rows picked for a batch.
#[derive(Default)]
pub(crate) struct ScoreBuffers {
    bounds: Vec<TermBound>,
    prep: PreparedKernel,
    row_of: Vec<u32>,
    row_dbs: Vec<u32>,
    row_sizes: Vec<f64>,
    row_wcs: Vec<f64>,
    matrix: Vec<f64>,
    masks: Vec<u64>,
    picked: Vec<u32>,
    batch: Batch,
}

/// Row-major probabilities beside their rows' sizes, word counts and
/// database indices — the shape of both the gathered shrunk rows and the
/// scattered unshrunk candidates.
struct Rows<'a> {
    p: &'a [f64],
    sizes: &'a [f64],
    word_counts: &'a [f64],
    dbs: &'a [u32],
}

/// Picked rows copied side by side for one `score_rows` call, and its
/// output.
#[derive(Default)]
struct Batch {
    p: Vec<f64>,
    sizes: Vec<f64>,
    word_counts: Vec<f64>,
    scores: Vec<f64>,
}

impl Rows<'_> {
    /// Batch-score `span` of these rows where they lie and offer every
    /// score the ranker would keep to `heap`.
    fn score_span(
        &self,
        kernel: &dyn ScoreKernel,
        prep: &PreparedKernel,
        span: Range<usize>,
        scores: &mut Vec<f64>,
        heap: &mut TopK,
    ) {
        let qlen = prep.query_len();
        scores.clear();
        scores.resize(span.len(), 0.0);
        kernel.score_rows(
            prep,
            &self.p[span.start * qlen..span.end * qlen],
            &self.sizes[span.clone()],
            &self.word_counts[span.clone()],
            scores,
        );
        for (&db, &score) in self.dbs[span].iter().zip(scores.iter()) {
            if score > prep.drop_threshold {
                let index = db as usize;
                heap.push(RankedDatabase { index, score });
            }
        }
    }
}

impl Batch {
    /// Batch-score the `picked` rows of `rows` and offer every score the
    /// ranker would keep to `heap`.
    fn score_picked(
        &mut self,
        kernel: &dyn ScoreKernel,
        prep: &PreparedKernel,
        rows: &Rows<'_>,
        picked: &[u32],
        heap: &mut TopK,
    ) {
        let qlen = prep.query_len();
        self.p.clear();
        self.sizes.clear();
        self.word_counts.clear();
        for &row in picked {
            let row = row as usize;
            self.p
                .extend_from_slice(&rows.p[row * qlen..row * qlen + qlen]);
            self.sizes.push(rows.sizes[row]);
            self.word_counts.push(rows.word_counts[row]);
        }
        self.scores.clear();
        self.scores.resize(picked.len(), 0.0);
        kernel.score_rows(
            prep,
            &self.p,
            &self.sizes,
            &self.word_counts,
            &mut self.scores,
        );
        for (&row, &score) in picked.iter().zip(&self.scores) {
            if score > prep.drop_threshold {
                let index = rows.dbs[row as usize] as usize;
                heap.push(RankedDatabase { index, score });
            }
        }
    }
}

thread_local! {
    static ROUTE_SCRATCH: RefCell<RouteScratch> = RefCell::default();
}

/// Run `f` on this thread's scratch: a serving worker (or a batch worker,
/// for its whole chunk) allocates its buffers once, not once per request.
/// `f` must not route through another engine on the same thread.
pub(crate) fn with_scratch<T>(f: impl FnOnce(&mut RouteScratch) -> T) -> T {
    ROUTE_SCRATCH.with_borrow_mut(f)
}

/// The closed form and the batch kernel of a served algorithm.
///
/// # Panics
///
/// When `algorithm` lacks either: the engine serves nothing else.
fn served(algorithm: &dyn SelectionAlgorithm) -> (&dyn IndependentTerms, &dyn ScoreKernel) {
    match (algorithm.independent_terms(), algorithm.score_kernel()) {
        (Some(form), Some(kernel)) => (form, kernel),
        _ => panic!(
            "{} is not served: an engine needs a closed form and a score kernel",
            algorithm.name()
        ),
    }
}

/// A query-serving engine over a frozen catalog.
pub struct SelectionEngine {
    catalog: Arc<Catalog>,
    algorithm: Arc<dyn SelectionAlgorithm + Send + Sync>,
    config: AdaptiveConfig,
    /// Tabulated posterior moments of `algorithm` over `catalog`.
    moments: Arc<MomentTable>,
}

impl SelectionEngine {
    /// Build an engine for `algorithm` under `config` over `catalog`,
    /// tabulating its posterior moments here, once (≈ 0.16 ms per
    /// database); to share a table between engines, use
    /// [`with_table`](Self::with_table).
    ///
    /// # Panics
    ///
    /// As [`with_table`](Self::with_table).
    pub fn new(
        catalog: Arc<Catalog>,
        algorithm: Arc<dyn SelectionAlgorithm + Send + Sync>,
        config: AdaptiveConfig,
    ) -> Self {
        let (form, _) = served(algorithm.as_ref());
        let grid_points = config.uncertainty.grid_points;
        let table = MomentTable::build(&catalog, &[form], grid_points).remove(0);
        SelectionEngine::with_table(catalog, algorithm, config, Arc::new(table))
    }

    /// [`new`](Self::new) with the moment table supplied:
    /// [`MomentTable::build`] for this catalog, algorithm and grid
    /// resolution.
    ///
    /// # Panics
    ///
    /// When `algorithm` has no closed form or no score kernel, or when its
    /// databases do not all fold one way (no `MomentTable::uniform`
    /// combination over a non-empty catalog).
    pub fn with_table(
        catalog: Arc<Catalog>,
        algorithm: Arc<dyn SelectionAlgorithm + Send + Sync>,
        config: AdaptiveConfig,
        moments: Arc<MomentTable>,
    ) -> Self {
        served(algorithm.as_ref());
        assert!(
            catalog.is_empty() || moments.uniform().is_some(),
            "{}'s databases do not fold one way",
            algorithm.name()
        );
        SelectionEngine {
            catalog,
            algorithm,
            config,
            moments,
        }
    }

    /// The catalog this engine serves.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine's selection algorithm (shared).
    pub fn algorithm(&self) -> Arc<dyn SelectionAlgorithm + Send + Sync> {
        Arc::clone(&self.algorithm)
    }

    /// The engine's adaptive-selection configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Rank databases for one query — [`route_topk`](Self::route_topk)
    /// with no cut-off. Bit-identical to [`selection::adaptive_rank`] over
    /// the catalog's summary pairs.
    pub fn route(&self, query: &[TermId]) -> AdaptiveOutcome {
        self.route_partition_topk(query, usize::MAX, None)
    }

    /// Plan `query`, choose the summaries, gather the shrunk rows and
    /// count the scoring context — everything before scoring, each lookup
    /// made once, all of it on the full catalog. Leaves `planned` ready for
    /// [`Self::score_planned`], over the whole catalog or any part of it.
    ///
    /// The context, left in `planned.ctx`, counts `cf` over the chosen
    /// summaries only when the algorithm's kernel reads `cf`
    /// ([`ScoreKernel::reads_cf`]); otherwise it is the unshrunk context
    /// the choice read, which the scores cannot tell apart.
    pub(crate) fn choose_with_context(&self, query: &[TermId], planned: &mut Planned) -> Vec<bool> {
        self.catalog.plan(query, &mut planned.plan);
        (self.catalog).planned_unshrunk_context(&planned.plan, &mut planned.ctx);
        let used_shrinkage = self.untested_choice(query).unwrap_or_else(|| {
            self.choose_tested(query, &planned.plan, &planned.ctx, &mut planned.columns)
        });
        self.gather_planned(query, &used_shrinkage, planned);
        let (_, kernel) = served(self.algorithm.as_ref());
        if kernel.reads_cf() {
            let Planned {
                plan, ctx, shrunk, ..
            } = planned;
            (self.catalog).planned_scoring_context(plan, &used_shrinkage, shrunk, ctx);
        }
        used_shrinkage
    }

    /// What scoring reads besides the plan: the shrunk rows
    /// ([`Catalog::gather_shrunk`]) and the candidate mask.
    fn gather_planned(&self, query: &[TermId], used_shrinkage: &[bool], planned: &mut Planned) {
        (self.catalog).gather_shrunk(&planned.plan, query, used_shrinkage, &mut planned.shrunk);
        self.catalog
            .planned_candidates(&planned.plan, &mut planned.candidates);
    }

    /// The Content Summary Selection phase alone: decide, per database,
    /// whether scoring uses the shrunk summary, against the catalog's
    /// unshrunk context.
    ///
    /// `_rng` is never read; it stays until the benchmark, which calls
    /// this (`benchmark/src/layers.rs`), drops it (ROADMAP item 1b).
    pub fn choose_summaries<R: Rng + ?Sized>(
        &self,
        query: &[TermId],
        _rng: &mut R,
        scratch: &mut RouteScratch,
    ) -> Vec<bool> {
        let Planned {
            plan, ctx, columns, ..
        } = &mut scratch.planned;
        self.catalog.plan(query, plan);
        self.untested_choice(query).unwrap_or_else(|| {
            self.catalog.planned_unshrunk_context(plan, ctx);
            self.choose_tested(query, plan, ctx, columns)
        })
    }

    /// The choice the mode makes without a test: every database shrunk or
    /// none, and none for an empty query. `None` when each database needs
    /// the test.
    ///
    /// (`used_shrinkage` is handed to the caller inside the outcome, so it
    /// is the one per-query allocation that cannot come from scratch.)
    fn untested_choice(&self, query: &[TermId]) -> Option<Vec<bool>> {
        let n = self.catalog.len();
        match self.config.mode {
            ShrinkageMode::Always => Some(vec![true; n]),
            ShrinkageMode::Never => Some(vec![false; n]),
            ShrinkageMode::Adaptive if query.is_empty() => Some(vec![false; n]),
            ShrinkageMode::Adaptive => None,
        }
    }

    /// The Fig. 3 test for every database, against the unshrunk context
    /// `ctx`: [`Self::fold_tabulated`], then the algorithm's threshold per
    /// database. An empty catalog decides nothing.
    fn choose_tested(
        &self,
        query: &[TermId],
        plan: &QueryPlan,
        ctx: &CollectionContext,
        columns: &mut ChooseColumns,
    ) -> Vec<bool> {
        let Some(combine) = self.moments.uniform() else {
            return Vec::new();
        };
        let table = &*self.moments;
        self.fold_tabulated(query, plan, ctx, combine, columns);
        let algorithm = self.algorithm.as_ref();
        (0..self.catalog.len())
            .map(|db| {
                let evidence = columns.evidence(table, db, query.len());
                shrinkage_decision(algorithm, &evidence, query.len())
            })
            .collect()
    }

    /// Every database's closed-form fold, as a column kernel: for each
    /// query word in query order, every database's row starts as its
    /// unsampled one, the databases on the word's posting list read their
    /// sampled rows instead, and one loop over all databases folds the
    /// word in the way `combine` — the table's one variant — combines.
    /// Each database sees the operations
    /// [`selection::closed_form_distribution`] applies to it, in the same
    /// order, so every evidence distribution is the library's, bit for bit.
    fn fold_tabulated(
        &self,
        query: &[TermId],
        plan: &QueryPlan,
        ctx: &CollectionContext,
        combine: Combine,
        columns: &mut ChooseColumns,
    ) {
        let (form, _) = served(self.algorithm.as_ref());
        let table = &*self.moments;
        columns.reset(table, self.catalog.len());
        for k in 0..query.len() {
            columns.seed(table);
            if let Some(p) = self.catalog.planned_postings(plan, k) {
                for (i, &db) in p.dbs.iter().enumerate() {
                    let (db, own) = (db as usize, self.catalog.unshrunk(db as usize));
                    let row = table.moments(db, p.sample_df[i]);
                    columns.present[db] = row.present;
                    columns.mean[db] = row.mean;
                    columns.second[db] = row.second;
                    columns.slope[db] = form.slope_scale(p.p_df[i], p.p_tf[i], own);
                }
            }
            let term = form.query_term(query, k, ctx);
            match combine {
                Combine::Product { .. } => columns.fold(term, Fold::product),
                Combine::Mean => columns.fold(term, Fold::mean),
            }
        }
    }

    /// Rank only the top `k` databases for one query. **Bit-identical**
    /// (`f64::to_bits`) to the first `k` entries of
    /// [`selection::adaptive_rank`]'s ranking, for every served algorithm,
    /// shrinkage mode and `k` — the non-negotiable guardrail of the pruned
    /// path.
    ///
    /// Scoring runs through the batch kernels with maxscore-style early
    /// termination: a bounded heap tracks the best `k` scores seen, and any
    /// database whose per-term score upper bound falls strictly below the
    /// heap's worst kept score is skipped without being scored. Skipping is
    /// provably invisible: bounds dominate realized scores, and a database
    /// strictly below the k-th score can never enter the top k.
    ///
    /// The summary-choice phase is the full path's, unpruned; only the
    /// scoring phase prunes, and databases routed to their shrunk summary
    /// are batch-scored without pruning (shrinkage gives every word
    /// non-zero probability, so posting-slab bounds do not cover them).
    ///
    /// Buffers come from this thread's recycled scratch: after a thread's
    /// first request the only allocations are the ones returned (the
    /// choices, the ranking) and a handful of query-length vectors.
    ///
    /// `_rng` is never read; it stays until the benchmark, which calls
    /// this (`benchmark/src/layers.rs`), drops it (ROADMAP item 1b).
    pub fn route_topk<R: Rng + ?Sized>(
        &self,
        query: &[TermId],
        k: usize,
        _rng: &mut R,
    ) -> AdaptiveOutcome {
        self.route_partition_topk(query, k, None)
    }

    /// [`route_topk`](Self::route_topk) scoring only `members` (ascending
    /// catalog indices; every database when `None`) — the half of a
    /// scattered query a federated backend answers. The summary choice and
    /// the collection context are still made on the full catalog, so the
    /// ranking is the first `min(k, len)` of those databases' entries in
    /// the full ranking, bit for bit, and `used_shrinkage` covers every
    /// database: partial rankings of disjoint member lists merge
    /// ([`selection::merge::merge_rankings`]) into the full ranking.
    pub fn route_partition_topk(
        &self,
        query: &[TermId],
        k: usize,
        members: Option<&[u32]>,
    ) -> AdaptiveOutcome {
        with_scratch(|RouteScratch { planned, buffers }| {
            let used_shrinkage = self.choose_with_context(query, planned);
            let (planned, ctx) = (&*planned, &planned.ctx);
            let ranking =
                self.score_planned(query, k, ctx, &used_shrinkage, members, planned, buffers);
            AdaptiveOutcome {
                ranking,
                used_shrinkage,
            }
        })
    }

    /// The scoring phase alone, to the top `k`, of the databases listed in
    /// `members` (ascending catalog indices; every database when `None`):
    /// exactly the first `min(k, len)` entries a full ranking of those
    /// databases would have, bit for bit. Plans the query and gathers the
    /// shrunk rows itself, then runs the code
    /// [`route_topk`](Self::route_topk) runs.
    ///
    /// `ctx` and `used_shrinkage` describe the whole catalog whatever
    /// `members` is: a score is a pure function of `(algorithm, query,
    /// view, ctx)`, so rankings of disjoint member lists merge
    /// ([`selection::merge::merge_rankings`]) into the full ranking.
    pub fn score_partition_topk(
        &self,
        query: &[TermId],
        k: usize,
        ctx: &CollectionContext,
        used_shrinkage: &[bool],
        members: Option<&[u32]>,
        scratch: &mut RouteScratch,
    ) -> Vec<RankedDatabase> {
        let RouteScratch { planned, buffers } = scratch;
        self.catalog.plan(query, &mut planned.plan);
        self.gather_planned(query, used_shrinkage, planned);
        self.score_planned(query, k, ctx, used_shrinkage, members, planned, buffers)
    }

    /// Score `members` (every database when `None`) against what
    /// [`Self::choose_with_context`] left in `planned`.
    ///
    /// An empty query ranks nothing: every served algorithm scores it at
    /// its default, which the ranker drops. Otherwise:
    ///
    /// 1. the gathered rows of the databases scored with their *shrunk*
    ///    summary are batch-scored — no pruning, but no per-entry
    ///    allocation or virtual dispatch either;
    /// 2. unshrunk candidates are scattered from the posting slabs into a
    ///    zeroed row matrix plus per-row presence masks, their sizes and
    ///    word counts read off the catalog's dense columns;
    /// 3. while the heap holds fewer than `k` entries, candidate rows are
    ///    batch-scored where they lie, in order, with no bound computed: a
    ///    bound can only prune against a full heap, and a Never-mode query
    ///    has no shrunk rows to fill it first;
    /// 4. the rest are upper-bound filtered a block at a time — against the
    ///    ranker's drop threshold, which is what prunes bGlOSS rows, and
    ///    strictly against the heap's k-th score — and only the survivors
    ///    are batch-scored.
    ///
    /// The bounds and the kernel's query constants come from `buf`, so a
    /// warm thread allocates only the ranking it returns.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn score_planned(
        &self,
        query: &[TermId],
        k: usize,
        ctx: &CollectionContext,
        used_shrinkage: &[bool],
        members: Option<&[u32]>,
        planned: &Planned,
        buf: &mut ScoreBuffers,
    ) -> Vec<RankedDatabase> {
        let n = self.catalog.len();
        debug_assert_eq!(used_shrinkage.len(), n);
        let listed = members.map_or(n, <[u32]>::len);
        if k == 0 || listed == 0 || query.is_empty() {
            return Vec::new();
        }
        let Planned {
            plan,
            shrunk,
            candidates,
            ..
        } = planned;
        let (_, kernel) = served(self.algorithm.as_ref());
        let qlen = query.len();
        let space = kernel.space();
        let bound = |k| {
            let postings = self.catalog.planned_postings(plan, k);
            postings.map_or_else(TermBound::absent, |p| p.bound)
        };
        buf.bounds.clear();
        buf.bounds.extend((0..qlen).map(bound));
        let min_word_count = self.catalog.min_word_count();
        kernel.prepare_into(query, ctx, &buf.bounds, min_word_count, &mut buf.prep);
        let prep = &buf.prep;
        let mut heap = TopK::new(k.min(listed));

        // Phase A: shrunk-scored databases, gathered already (shrunk
        // probabilities are not in the posting slabs) and batch-scored
        // without pruning, so Always mode gets the kernel win only.
        let shrunk_rows = Rows {
            p: match space {
                ProbabilitySpace::DocumentFrequency => &shrunk.p_df,
                ProbabilitySpace::TokenFrequency => &shrunk.p_tf,
            },
            sizes: &shrunk.sizes,
            word_counts: &shrunk.word_counts,
            dbs: &shrunk.dbs,
        };
        debug_assert_eq!(shrunk_rows.p.len(), shrunk.dbs.len() * qlen);
        match members {
            // Every gathered row, scored where it lies.
            None => {
                let every = 0..shrunk.dbs.len();
                shrunk_rows.score_span(kernel, prep, every, &mut buf.batch.scores, &mut heap);
            }
            // The members' rows: both lists ascend, so one cursor finds them.
            Some(members) => {
                buf.picked.clear();
                let mut row = 0;
                for &db in members.iter().filter(|&&db| used_shrinkage[db as usize]) {
                    let ahead = shrunk.dbs[row..].iter().position(|&d| d == db);
                    row += ahead.expect("every shrunk database was gathered");
                    buf.picked.push(row as u32);
                }
                buf.batch
                    .score_picked(kernel, prep, &shrunk_rows, &buf.picked, &mut heap);
            }
        }

        // Phase B: unshrunk candidates. One pass over each query word's
        // posting slices scatters the native-space probabilities into a
        // zeroed matrix; absent (row, word) cells stay 0.0, which is
        // exactly the unshrunk summaries' default.
        buf.row_of.clear();
        buf.row_of.resize(n, u32::MAX);
        buf.row_dbs.clear();
        buf.row_sizes.clear();
        buf.row_wcs.clear();
        let (sizes, word_counts) = (self.catalog.db_sizes(), self.catalog.word_counts());
        let mut add_row = |db: usize| {
            if used_shrinkage[db] || !candidates[db] {
                return;
            }
            buf.row_of[db] = buf.row_dbs.len() as u32;
            buf.row_dbs.push(db as u32);
            buf.row_sizes.push(sizes[db]);
            buf.row_wcs.push(word_counts[db]);
        };
        match members {
            None => (0..n).for_each(add_row),
            Some(members) => members.iter().for_each(|&db| add_row(db as usize)),
        }
        let rows = buf.row_dbs.len();
        buf.matrix.clear();
        buf.matrix.resize(rows * qlen, 0.0);
        buf.masks.clear();
        buf.masks.resize(rows, 0);
        for kpos in 0..qlen {
            if let Some(p) = self.catalog.planned_postings(plan, kpos) {
                let slab = match space {
                    ProbabilitySpace::DocumentFrequency => p.p_df,
                    ProbabilitySpace::TokenFrequency => p.p_tf,
                };
                // Postings ascend by database: none outside the members'
                // span can belong to a member.
                let span = match members {
                    None => 0..p.dbs.len(),
                    Some(members) => {
                        let (first, last) = (members[0], members[listed - 1]);
                        p.dbs.partition_point(|&db| db < first)
                            ..p.dbs.partition_point(|&db| db <= last)
                    }
                };
                for (&db, &value) in p.dbs[span.clone()].iter().zip(&slab[span]) {
                    let row = buf.row_of[db as usize];
                    if row != u32::MAX {
                        buf.matrix[row as usize * qlen + kpos] = value;
                        if kpos < 64 {
                            buf.masks[row as usize] |= 1 << kpos;
                        }
                    }
                }
            }
        }
        let candidate_rows = Rows {
            p: &buf.matrix,
            sizes: &buf.row_sizes,
            word_counts: &buf.row_wcs,
            dbs: &buf.row_dbs,
        };

        // Fill: until the heap holds `k`, nothing can be pruned, so the
        // next rows it has room for are scored in place. (A row the
        // ranker drops takes no room, so this may take several turns.)
        let mut next = 0;
        while next < rows && !heap.is_full() {
            let span = next..(next + heap.room()).min(rows);
            next = span.end;
            candidate_rows.score_span(kernel, prep, span, &mut buf.batch.scores, &mut heap);
        }

        // Prune: filter a block of the remaining rows against the
        // current k-th score, batch-score the survivors. Skipping requires
        // *strictly* `ub < worst` — a bound equal to the k-th score can
        // still displace it on the index tiebreak.
        const BLOCK: usize = 128;
        for start in (next..rows).step_by(BLOCK) {
            buf.picked.clear();
            for row in start..(start + BLOCK).min(rows) {
                let ub = kernel.upper_bound(prep, buf.masks[row], buf.row_sizes[row]);
                if ub <= prep.drop_threshold {
                    // The row cannot clear the ranker's drop filter.
                    continue;
                }
                if heap.worst_score().is_some_and(|worst| ub < worst) {
                    continue;
                }
                buf.picked.push(row as u32);
            }
            if !buf.picked.is_empty() {
                buf.batch
                    .score_picked(kernel, prep, &candidate_rows, &buf.picked, &mut heap);
            }
        }
        heap.into_sorted()
    }

    /// Route a batch of queries over `threads` worker threads; the output
    /// is independent of `threads` and of how queries are distributed over
    /// workers. Workers take contiguous chunks of the batch (one dispatch
    /// per worker, not per query), which keeps scheduling overhead off the
    /// per-query path.
    pub fn route_batch(&self, queries: &[Vec<TermId>], threads: usize) -> Vec<AdaptiveOutcome> {
        self.route_batch_observed(queries, threads, |_, _| {})
    }

    /// [`route_batch`](Self::route_batch) with a per-query observer:
    /// `observe(query_index, wall_time)` is called from the worker thread
    /// that routed the query. Observation never changes results — it exists
    /// so callers (the CLI summary, the daemon's metrics) can collect
    /// latency histograms without a second pass.
    pub fn route_batch_observed(
        &self,
        queries: &[Vec<TermId>],
        threads: usize,
        observe: impl Fn(usize, std::time::Duration) + Sync,
    ) -> Vec<AdaptiveOutcome> {
        fan_out_chunks(queries.len(), threads, |qi| {
            let started = Instant::now();
            let outcome = self.route(&queries[qi]);
            observe(qi, started.elapsed());
            outcome
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::test_support::{classified, hierarchical, pairs, sampled_summary, Oracle};
    use dbselect_core::category_summary::CategoryWeighting;
    use dbselect_core::summary::{ContentSummary, SummaryView, WordStats};
    use dbselect_core::uncertainty::WordPosterior;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selection::{adaptive_rank, evidence_distribution, rank_databases, BGloss, Cori, Lm};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn bgloss() -> Arc<dyn SelectionAlgorithm + Send + Sync> {
        Arc::new(BGloss)
    }

    /// An RNG for `adaptive_rank`, which served algorithms never draw from.
    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// A small mixed testbed: well-sampled small databases, poorly sampled
    /// large ones, and a database with no query-word overlap at all.
    fn testbed() -> (Vec<Oracle>, Catalog) {
        hierarchical(vec![
            sampled_summary(320.0, 300, &[(1, 150), (2, 140)]),
            sampled_summary(100_000.0, 300, &[(1, 3), (5, 1)]),
            sampled_summary(5_000.0, 200, &[(2, 80), (5, 40)]),
            sampled_summary(2_000.0, 100, &[(9, 60)]),
        ])
    }

    fn queries() -> Vec<Vec<TermId>> {
        vec![vec![1, 2], vec![2, 5, 42], vec![9], vec![], vec![1, 1, 2]]
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
    fn engine_matches_adaptive_rank_bit_for_bit() {
        let (oracles, catalog) = testbed();
        let (pairs, catalog) = (pairs(&oracles), Arc::new(catalog));
        let global = sampled_summary(110_000.0, 900, &[(1, 300), (2, 250), (5, 80), (9, 60)]);
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
                let engine =
                    SelectionEngine::new(Arc::clone(&catalog), Arc::clone(&algorithm), config);
                for query in queries() {
                    let reference =
                        adaptive_rank(algorithm.as_ref(), &query, &pairs, &config, &mut rng(7));
                    assert_same_outcome(&reference, &engine.route(&query));
                }
            }
        }
    }

    /// A catalog whose databases lie in two subtrees of one hierarchy,
    /// each with its own vocabulary, and arrive interleaved: each
    /// database's mixture reads its own path's columns, and every route
    /// still equals `adaptive_rank` bit for bit.
    #[test]
    fn two_shrunk_vocabularies_route_like_adaptive_rank_over_two_columns() {
        type Spec<'a> = (&'a str, f64, &'a [(TermId, u32)]);
        let specs: [Spec<'_>; 5] = [
            ("Health/Heart", 320.0, &[(1, 150), (2, 140), (7, 20)]),
            ("Sports/Soccer", 90_000.0, &[(1, 3), (9, 1)]),
            ("Health/Lung", 5_000.0, &[(2, 80), (5, 40)]),
            ("Sports/Soccer", 2_000.0, &[(3, 60), (9, 30)]),
            ("Health/Heart", 700.0, &[]),
        ];
        let dbs = specs
            .iter()
            .map(|&(path, db_size, words)| (path, sampled_summary(db_size, 300, words)))
            .collect();
        let (oracles, catalog) = classified(CategoryWeighting::BySize, dbs, Vec::new());
        let (pairs, catalog) = (pairs(&oracles), Arc::new(catalog));

        let global = sampled_summary(110_000.0, 900, &[(1, 300), (2, 250), (5, 80), (9, 60)]);
        let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
            Arc::new(BGloss),
            Arc::new(Cori::default()),
            Arc::new(Lm::new(0.5, &global)),
        ];
        // Words of one vocabulary only, of both, of neither, and repeated.
        let queries: [&[TermId]; 5] = [&[1, 2], &[3, 9, 5], &[7], &[42, 1], &[9, 9, 2]];
        for algorithm in &algorithms {
            for mode in [
                ShrinkageMode::Adaptive,
                ShrinkageMode::Always,
                ShrinkageMode::Never,
            ] {
                let config = AdaptiveConfig {
                    mode,
                    ..Default::default()
                };
                let engine =
                    SelectionEngine::new(Arc::clone(&catalog), Arc::clone(algorithm), config);
                for query in queries.iter() {
                    let mut reference =
                        adaptive_rank(algorithm.as_ref(), query, &pairs, &config, &mut rng(7));
                    let full = reference.ranking.clone();
                    for k in 1..=catalog.len() + 1 {
                        reference.ranking = full[..k.min(full.len())].to_vec();
                        let routed = engine.route_topk(query, k, &mut rng(7));
                        assert_same_outcome(&reference, &routed);
                    }
                }
            }
        }
    }

    /// The served algorithms decide without drawing — an RNG handed to the
    /// engine comes back in its initial state.
    #[test]
    fn served_algorithms_leave_the_rng_untouched() {
        let catalog = Arc::new(testbed().1);
        let global = sampled_summary(110_000.0, 900, &[(1, 300), (2, 250), (5, 80), (9, 60)]);
        let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
            Arc::new(BGloss),
            Arc::new(Cori::default()),
            Arc::new(Lm::new(0.5, &global)),
        ];
        for algorithm in algorithms {
            let config = AdaptiveConfig::default();
            let engine = SelectionEngine::new(Arc::clone(&catalog), Arc::clone(&algorithm), config);
            let mut rng = StdRng::seed_from_u64(5);
            for query in queries() {
                engine.route_topk(&query, 2, &mut rng);
                engine.choose_summaries(&query, &mut rng, &mut RouteScratch::default());
            }
            assert_eq!(rng, StdRng::seed_from_u64(5), "{}", algorithm.name());
        }
    }

    /// Degenerate catalogs route to defined answers — identical to
    /// `adaptive_rank` in every mode and at every `k`, choices and ranking
    /// bits alike, never a panic — and non-finite statistics keep `Ŝ(D)`.
    /// A non-finite size would make its categories' aggregates non-finite,
    /// which no catalog holds, so those samples arrive by re-probe.
    #[test]
    fn degenerate_catalogs_route_like_adaptive_rank() {
        let mut nan_gamma = sampled_summary(700.0, 40, &[(1, 4)]);
        nan_gamma.set_gamma(f64::NAN);
        // Unsampled, no documents, one document, NaN size and infinite
        // size (both re-probed below), NaN γ, ordinary.
        let dbs = vec![
            ("Health/Heart", sampled_summary(900.0, 0, &[])),
            ("Health/Lung", sampled_summary(0.0, 0, &[])),
            ("Sports", sampled_summary(1.0, 1, &[(1, 1)])),
            (
                "Health/Heart",
                sampled_summary(300.0, 30, &[(1, 3), (2, 9)]),
            ),
            ("Sports/Soccer", sampled_summary(300.0, 30, &[(2, 3)])),
            ("Health/Lung", nan_gamma),
            ("", sampled_summary(4_000.0, 100, &[(1, 30), (2, 1)])),
        ];
        let reprobed = vec![
            (3, sampled_summary(f64::NAN, 30, &[(1, 3), (2, 9)])),
            (4, sampled_summary(f64::INFINITY, 30, &[(2, 3)])),
        ];
        let global = sampled_summary(9_000.0, 300, &[(1, 30), (2, 20)]);
        let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
            Arc::new(BGloss),
            Arc::new(Cori::default()),
            Arc::new(Lm::new(0.5, &global)),
        ];
        // Known, unknown-to-every-database, duplicated and empty queries.
        let queries: [&[TermId]; 5] = [&[1, 2], &[77, 78], &[1, 1, 2], &[], &[2]];
        for (dbs, reprobed) in [(dbs, reprobed), (Vec::new(), Vec::new())] {
            let (oracles, catalog) = classified(CategoryWeighting::BySize, dbs, reprobed);
            let (pairs, catalog) = (pairs(&oracles), Arc::new(catalog));
            for algorithm in &algorithms {
                for mode in [
                    ShrinkageMode::Adaptive,
                    ShrinkageMode::Always,
                    ShrinkageMode::Never,
                ] {
                    let config = AdaptiveConfig {
                        mode,
                        ..Default::default()
                    };
                    let engine =
                        SelectionEngine::new(Arc::clone(&catalog), Arc::clone(algorithm), config);
                    for query in queries {
                        let mut rng = StdRng::seed_from_u64(3);
                        let mut reference =
                            adaptive_rank(algorithm.as_ref(), query, &pairs, &config, &mut rng);
                        let chosen =
                            engine.choose_summaries(query, &mut rng, &mut RouteScratch::default());
                        assert_eq!(chosen, reference.used_shrinkage, "{query:?}");
                        // NaN sizes poison every moment: those databases keep Ŝ(D).
                        if mode == ShrinkageMode::Adaptive {
                            if let Some(&nan_size) = chosen.get(3) {
                                assert!(!nan_size, "{} {query:?}", algorithm.name());
                            }
                        }
                        if mode == ShrinkageMode::Always {
                            // Word 2 of the infinite-size sample has
                            // `p̂(w|D) = ∞/∞`: the `ShrunkSummary` mixture is
                            // NaN, the catalog's `R̂(D)` reads the NaN as an
                            // absent word and stays finite, so `Always` ranks
                            // the catalog's own shrunk summaries, as
                            // `adaptive_rank` ranks its pairs.
                            let views: Vec<_> =
                                (0..catalog.len()).map(|db| catalog.shrunk(db)).collect();
                            let views: Vec<&dyn SummaryView> =
                                views.iter().map(|v| v as &dyn SummaryView).collect();
                            reference.ranking = rank_databases(algorithm.as_ref(), query, &views);
                        }
                        let full = reference.ranking.clone();
                        for k in [1, catalog.len(), usize::MAX] {
                            reference.ranking = full[..k.min(full.len())].to_vec();
                            let routed = engine.route_topk(query, k, &mut rng);
                            assert_same_outcome(&reference, &routed);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_results_match_sequential_routing() {
        let catalog = Arc::new(testbed().1);
        let engine = SelectionEngine::new(catalog, bgloss(), AdaptiveConfig::default());
        let queries = queries();
        let batched = engine.route_batch(&queries, 4);
        assert_eq!(batched.len(), queries.len());
        for (query, out) in queries.iter().zip(&batched) {
            assert_same_outcome(&engine.route(query), out);
        }
    }

    #[test]
    fn batch_observer_sees_every_query() {
        let catalog = Arc::new(testbed().1);
        let engine = SelectionEngine::new(catalog, bgloss(), AdaptiveConfig::default());
        let queries = queries();
        let seen: Vec<AtomicBool> = queries.iter().map(|_| AtomicBool::new(false)).collect();
        engine.route_batch_observed(&queries, 3, |qi, _elapsed| {
            seen[qi].store(true, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Satellite invariant: the engine's batched output is independent
        /// of the worker-thread count.
        #[test]
        fn thread_count_never_changes_engine_output(
            db_sizes in proptest::collection::vec(100.0f64..50_000.0, 1..5),
        ) {
            let summaries = db_sizes
                .iter()
                .enumerate()
                .map(|(i, &db_size)| {
                    let words: Vec<(TermId, u32)> = (0..4)
                        .map(|w| (w + 1, ((i as u32 + 1) * (w + 7)) % 90))
                        .filter(|&(_, sdf)| sdf > 0)
                        .collect();
                    sampled_summary(db_size, 100, &words)
                })
                .collect();
            let catalog = Arc::new(hierarchical(summaries).1);
            let engine = SelectionEngine::new(catalog, bgloss(), AdaptiveConfig::default());
            let queries: Vec<Vec<TermId>> =
                vec![vec![1, 3], vec![2, 4, 9], vec![1], vec![4, 4, 2]];
            let single = engine.route_batch(&queries, 1);
            let parallel = engine.route_batch(&queries, 8);
            prop_assert_eq!(single.len(), parallel.len());
            for (a, b) in single.iter().zip(&parallel) {
                prop_assert_eq!(&a.used_shrinkage, &b.used_shrinkage);
                prop_assert_eq!(a.ranking.len(), b.ranking.len());
                for (x, y) in a.ranking.iter().zip(&b.ranking) {
                    prop_assert_eq!(x.index, y.index);
                    prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                }
            }
        }

        /// The same guardrail on the catalog form serving loads: shrunk
        /// summaries factored over a category hierarchy (edge and leaf
        /// remainders computed per request), against `adaptive_rank` over
        /// the lazy mixtures of the same components and λs.
        #[test]
        fn route_topk_matches_full_ranking_on_a_hierarchical_catalog(
            seed in 0u64..1_000_000,
            db_sizes in proptest::collection::vec(0.0f64..80_000.0, 1..8),
        ) {
            let summaries = db_sizes
                .iter()
                .enumerate()
                .map(|(i, &db_size)| {
                    let words: Vec<(TermId, u32)> = (0..6)
                        .map(|w| (w + 1 + i as u32 % 3, ((i as u32 + 2) * (w + 3) * 13) % 95))
                        .filter(|&(_, sdf)| sdf > 0)
                        .collect();
                    sampled_summary(db_size, 100, &words)
                })
                .collect();
            let (oracles, catalog) = hierarchical(summaries);
            let (pairs, catalog) = (pairs(&oracles), Arc::new(catalog));
            let global = sampled_summary(200_000.0, 500, &[(1, 40), (2, 30), (3, 20), (8, 5)]);
            let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
                Arc::new(BGloss),
                Arc::new(Cori::default()),
                Arc::new(Lm::new(0.5, &global)),
            ];
            let queries: Vec<Vec<TermId>> =
                vec![vec![1, 3], vec![2, 4, 9], vec![8], vec![], vec![4, 4, 2, 1, 7]];
            for algorithm in &algorithms {
                for mode in [ShrinkageMode::Adaptive, ShrinkageMode::Always] {
                    let config = AdaptiveConfig { mode, ..Default::default() };
                    let engine =
                        SelectionEngine::new(Arc::clone(&catalog), Arc::clone(algorithm), config);
                    for query in queries.iter() {
                        let full =
                            adaptive_rank(algorithm.as_ref(), query, &pairs, &config, &mut rng(seed));
                        for k in [1, 3, usize::MAX] {
                            let pruned = engine.route_topk(query, k, &mut rng(seed));
                            prop_assert_eq!(&pruned.used_shrinkage, &full.used_shrinkage);
                            let want = &full.ranking[..k.min(full.ranking.len())];
                            prop_assert_eq!(pruned.ranking.len(), want.len());
                            for (x, y) in pruned.ranking.iter().zip(want) {
                                prop_assert_eq!(x.index, y.index);
                                prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                            }
                        }
                    }
                }
            }
        }

        /// The column kernel against `adaptive_rank` on the queries that
        /// stress its word-major order: duplicated words, words no
        /// database sampled, words LM's global model lacks, and the empty
        /// catalog. Every word's `p_tf/p_df` ratio differs from its
        /// database's unsampled `|D|/cw`, so LM's slope factors are
        /// visible.
        #[test]
        fn column_kernel_decides_like_adaptive_rank_on_edge_queries(
            seed in 0u64..1_000_000,
            db_sizes in proptest::collection::vec(50.0f64..80_000.0, 0..7),
        ) {
            let summaries = db_sizes
                .iter()
                .enumerate()
                .map(|(i, &db_size)| {
                    let i = i as u32;
                    let words: HashMap<TermId, WordStats> = (1..=5)
                        .map(|w| (w, ((i + 2) * (w + 3) * 13 + seed as u32) % 95))
                        .filter(|&(_, sample_df)| sample_df > 0)
                        .map(|(w, sample_df)| {
                            let df = f64::from(sample_df) / 100.0 * db_size;
                            let tf = df * f64::from(1 + (w * (i + 1)) % 7);
                            (w, WordStats { sample_df, df, tf })
                        })
                        .collect();
                    ContentSummary::new(db_size, 100, words)
                })
                .collect();
            let (oracles, catalog) = hierarchical(summaries);
            let (pairs, catalog) = (pairs(&oracles), Arc::new(catalog));
            // The global model lacks words 3 and 5; no database samples 9.
            let global = HashMap::from([(1, 0.02), (2, 0.01), (4, 0.003), (9, 0.0004)]);
            let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
                Arc::new(BGloss),
                Arc::new(Cori::default()),
                Arc::new(Lm::from_global_map(0.5, global)),
            ];
            let queries: [&[TermId]; 6] =
                [&[1, 1, 2], &[9, 1], &[3, 3, 3], &[5, 2, 9, 5], &[9], &[4, 1, 2, 3, 5]];
            for algorithm in &algorithms {
                let config = AdaptiveConfig::default();
                let engine = SelectionEngine::new(Arc::clone(&catalog), Arc::clone(algorithm), config);
                let table = &*engine.moments;
                for query in queries.iter() {
                    // The kernel's evidence is the library fold's on fresh
                    // grids, bit for bit, decided or not.
                    let mut planned = Planned::default();
                    catalog.plan(query, &mut planned.plan);
                    let mut ctx = CollectionContext::default();
                    catalog.planned_unshrunk_context(&planned.plan, &mut ctx);
                    let combine = table.uniform().unwrap();
                    engine.fold_tabulated(query, &planned.plan, &ctx, combine, &mut planned.columns);
                    for db in 0..catalog.len() {
                        let s = catalog.unshrunk(db);
                        let grid = |&w: &TermId| {
                            let sample_df = s.sample_df(w);
                            WordPosterior::new(sample_df, s.sample_size(), s.db_size(), catalog.gamma(db), 160)
                        };
                        let grids: Vec<WordPosterior> = query.iter().map(grid).collect();
                        let want = evidence_distribution(
                            algorithm.as_ref(), query, s, &grids, &ctx, &config, &mut rng(seed),
                        );
                        let got = planned.columns.evidence(table, db, query.len());
                        prop_assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "db {} {:?}", db, query);
                        prop_assert_eq!(got.std_dev.to_bits(), want.std_dev.to_bits(), "db {} {:?}", db, query);
                    }

                    let full =
                        adaptive_rank(algorithm.as_ref(), query, &pairs, &config, &mut rng(seed));
                    let mut scratch = RouteScratch::default();
                    let chosen = engine.choose_summaries(query, &mut rng(seed), &mut scratch);
                    prop_assert_eq!(&chosen, &full.used_shrinkage);
                    let routed = engine.route(query);
                    prop_assert_eq!(&routed.used_shrinkage, &full.used_shrinkage);
                    prop_assert_eq!(routed.ranking.len(), full.ranking.len());
                    for (x, y) in routed.ranking.iter().zip(&full.ranking) {
                        prop_assert_eq!(x.index, y.index);
                        prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                    }
                }
            }
        }

        /// Tentpole guardrail: `route_topk` is **bit-identical** to
        /// truncating the reference `adaptive_rank` ranking, for every
        /// algorithm × shrinkage mode × k (including k > n), on random
        /// catalogs.
        #[test]
        fn route_topk_matches_truncated_full_ranking(
            seed in 0u64..1_000_000,
            db_sizes in proptest::collection::vec(50.0f64..80_000.0, 1..7),
        ) {
            let summaries = db_sizes
                .iter()
                .enumerate()
                .map(|(i, &db_size)| {
                    let words: Vec<(TermId, u32)> = (0..5)
                        .map(|w| (w + 1, ((i as u32 + 2) * (w + 3) * 13) % 95))
                        .filter(|&(_, sdf)| sdf > 0)
                        .collect();
                    sampled_summary(db_size, 100, &words)
                })
                .collect();
            let (oracles, catalog) = hierarchical(summaries);
            let (pairs, catalog) = (pairs(&oracles), Arc::new(catalog));
            let global = sampled_summary(
                200_000.0,
                500,
                &[(1, 40), (2, 30), (3, 20), (4, 10), (9, 5)],
            );
            let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
                Arc::new(BGloss),
                Arc::new(Cori::default()),
                Arc::new(Lm::new(0.5, &global)),
            ];
            let queries: Vec<Vec<TermId>> =
                vec![vec![1, 3], vec![2, 4, 9], vec![1], vec![], vec![4, 4, 2, 1]];
            for algorithm in &algorithms {
                for mode in [
                    ShrinkageMode::Adaptive,
                    ShrinkageMode::Always,
                    ShrinkageMode::Never,
                ] {
                    let config = AdaptiveConfig { mode, ..Default::default() };
                    let engine = SelectionEngine::new(Arc::clone(&catalog), Arc::clone(algorithm), config);
                    for query in queries.iter() {
                        let full = adaptive_rank(
                            algorithm.as_ref(),
                            query,
                            &pairs,
                            &config,
                            &mut rng(seed),
                        );
                        prop_assert!(
                            engine.route_topk(query, 0, &mut rng(seed)).ranking.is_empty()
                        );
                        for k in 1..=engine.catalog().len() + 1 {
                            let pruned = engine.route_topk(query, k, &mut rng(seed));
                            prop_assert_eq!(&pruned.used_shrinkage, &full.used_shrinkage);
                            let want = &full.ranking[..k.min(full.ranking.len())];
                            prop_assert_eq!(pruned.ranking.len(), want.len());
                            for (x, y) in pruned.ranking.iter().zip(want) {
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
