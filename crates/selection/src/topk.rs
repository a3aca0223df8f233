//! Top-k pruned, batch-friendly scoring kernels.
//!
//! The per-entry scoring path ([`SelectionAlgorithm::score_db`]) walks one
//! database at a time: it allocates a per-database `Vec<f64>` of word
//! probabilities, binary-searches the summary per query word, and calls
//! through a virtual `score_with_p` per database. For a serving engine that
//! only needs the *top k* databases, that is both too much memory traffic
//! and too much work: most databases provably cannot enter the top k.
//!
//! This module provides the two pieces the broker's `route_topk` path
//! composes:
//!
//! * [`ScoreKernel`] — a batch scoring interface: flat row-major probability
//!   slices in, flat score slices out, no per-database allocation and no
//!   virtual dispatch inside the loop. Each kernel's `score_rows` is
//!   **bit-identical** (`f64::to_bits`) to calling `score_with_p` row by
//!   row: the float operations are replicated op for op, in the same order,
//!   with per-query constants hoisted only where hoisting provably preserves
//!   bits (a precomputed subexpression of deterministic inputs evaluates to
//!   the same `f64` as the inline form).
//! * [`TopK`] — a bounded heap over [`RankedDatabase`] under the global
//!   [`ranking_order`], whose final sorted content equals truncating the
//!   full ranking, independent of insertion order (scores are exact and
//!   `(score, index)` pairs are distinct per database).
//!
//! Pruning soundness rests on per-term *upper bounds* ([`TermBound`],
//! persisted per posting-list term by the broker catalog). `upper_bound`
//! returns a value `≥` any score the kernel can emit for a row consistent
//! with the given presence mask. Where the bound relies on real-arithmetic
//! monotonicity (CORI's `df/(df+denom)` saturation), the float result is
//! inflated by a relative `1e-9` plus an absolute `1e-300` — many orders of
//! magnitude above the accumulated rounding error of a query-length chain
//! of operations — so a bound can only be *loose*, never unsound. A loose
//! bound costs a wasted scoring of one row; it never changes the ranking.

use textindex::TermId;

use crate::bgloss::BGloss;
use crate::context::{ranking_order, CollectionContext, RankedDatabase};
use crate::cori::Cori;
use crate::lm::Lm;

/// Which probability column a kernel consumes (mirrors
/// [`SelectionAlgorithm::word_probability`]): document-frequency fractions
/// for CORI and bGlOSS, token-frequency probabilities for LM.
///
/// [`SelectionAlgorithm::word_probability`]: crate::context::SelectionAlgorithm::word_probability
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbabilitySpace {
    /// `p̂(w|D)` — fraction of documents containing `w`.
    DocumentFrequency,
    /// `p_tf(w|D)` — fraction of tokens equal to `w`.
    TokenFrequency,
}

/// Per-term maxima over a catalog's unshrunk postings, the raw material of
/// score upper bounds. Raw maxima (rather than per-algorithm bounds) are
/// persisted so custom algorithm constants never invalidate a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TermBound {
    /// `max_D fl(p̂(w|D) · |D|)` — the exact float products the CORI kernel
    /// computes, so `df ≤ max_df` holds bit-exactly per posting.
    pub max_df: f64,
    /// `max_D p̂(w|D)`.
    pub max_p_df: f64,
    /// `max_D p_tf(w|D)`.
    pub max_p_tf: f64,
}

impl TermBound {
    /// The bound of a term no database mentions.
    pub fn absent() -> TermBound {
        TermBound::default()
    }
}

/// Query-constant state a kernel computes once per `(query, context)` and
/// reuses across every row: the default score and drop threshold the ranker
/// applies, per-position constants, and per-position upper-bound factors.
/// A serving thread keeps one and refills it per query
/// ([`ScoreKernel::prepare_into`]), so its vectors keep their capacity.
#[derive(Debug, Clone, Default)]
pub struct PreparedKernel {
    query_len: usize,
    /// The algorithm's database-independent default score for this query
    /// (all three kernel algorithms have one — CORI and bGlOSS score 0 with
    /// no evidence, LM scores the global-model-only product).
    pub default_score: f64,
    /// The ranker's drop threshold: rows must score strictly above it to
    /// enter a ranking, exactly as in `rank_databases_with_context`.
    pub drop_threshold: f64,
    /// Per-position constants: CORI's `I_k`, LM's `(1−λ)·p̂(w_k|G)`;
    /// unused (empty) for bGlOSS.
    term_const: Vec<f64>,
    /// Per-position upper-bound factors: CORI's bounded per-word belief,
    /// LM's present-word factor bound, bGlOSS's `max_p_df`.
    term_ub: Vec<f64>,
    /// CORI's `mcw` (needed per row for the `cw/mcw` denominator).
    mcw: f64,
    /// Whether `upper_bound` may prune at all. False when algorithm
    /// constants leave the bound derivation unsound (negative λ, negative
    /// belief constants); pruning then degrades to batch scoring only.
    prunable: bool,
}

impl PreparedKernel {
    /// Number of query positions each row must carry.
    pub fn query_len(&self) -> usize {
        self.query_len
    }
}

/// Relative-plus-absolute slack making a real-arithmetic upper bound sound
/// under float rounding: a chain of `O(query_len)` monotone operations
/// accumulates relative error ≪ 1e-9, and 1e-300 absorbs subnormal edges.
#[inline]
fn inflate(ub: f64) -> f64 {
    ub * (1.0 + 1e-9) + 1e-300
}

/// Presence of query position `k` in a row's 64-bit mask. Positions beyond
/// 64 are conservatively treated as present — sound, because every kernel's
/// present-position bound factor dominates its absent-position factor.
#[inline]
fn present(mask: u64, k: usize) -> bool {
    k >= 64 || mask & (1u64 << k) != 0
}

/// A batch scoring kernel for one [`SelectionAlgorithm`].
///
/// Contract: for every row `r`, `out[r]` must equal — bit for bit — what
/// `score_with_p(query, row_r, summary_r, ctx)` returns for a summary with
/// the row's `db_size`/`word_count`, and `upper_bound(prep, mask, db_size)`
/// must be `≥ out[r]` for every row consistent with `mask` (bit `k` clear ⇒
/// `p[k] == 0.0`; bits at positions `≥ 64` carry no information).
///
/// [`SelectionAlgorithm`]: crate::context::SelectionAlgorithm
pub trait ScoreKernel {
    /// The probability column rows are gathered from.
    fn space(&self) -> ProbabilitySpace;

    /// Hoist the query-constant state. `bounds[k]` are the per-term maxima
    /// of query position `k`; `min_word_count` is the smallest unshrunk
    /// `cw(D)` any scored row can carry.
    fn prepare(
        &self,
        query: &[TermId],
        ctx: &CollectionContext,
        bounds: &[TermBound],
        min_word_count: f64,
    ) -> PreparedKernel {
        let mut prep = PreparedKernel::default();
        self.prepare_into(query, ctx, bounds, min_word_count, &mut prep);
        prep
    }

    /// [`Self::prepare`] into `prep`, overwriting every field and reusing
    /// its vectors' capacity.
    fn prepare_into(
        &self,
        query: &[TermId],
        ctx: &CollectionContext,
        bounds: &[TermBound],
        min_word_count: f64,
        prep: &mut PreparedKernel,
    );

    /// Score `db_size.len()` rows. `p` is row-major,
    /// `db_size.len() * prep.query_len()` long; `out` receives one score
    /// per row.
    fn score_rows(
        &self,
        prep: &PreparedKernel,
        p: &[f64],
        db_size: &[f64],
        word_count: &[f64],
        out: &mut [f64],
    );

    /// An upper bound on the score of any row consistent with `mask`.
    fn upper_bound(&self, prep: &PreparedKernel, mask: u64, db_size: f64) -> f64;

    /// Whether [`Self::prepare`] reads `ctx.cf`. A kernel that does not
    /// scores the same whatever `cf` holds — and so does its algorithm,
    /// whose `score_with_p` it equals — so a caller may skip counting `cf`
    /// over the summaries chosen for scoring.
    fn reads_cf(&self) -> bool {
        true
    }
}

impl ScoreKernel for Cori {
    fn space(&self) -> ProbabilitySpace {
        ProbabilitySpace::DocumentFrequency
    }

    fn prepare_into(
        &self,
        query: &[TermId],
        ctx: &CollectionContext,
        bounds: &[TermBound],
        min_word_count: f64,
        prep: &mut PreparedKernel,
    ) {
        let m = ctx.m as f64;
        // I_k is a pure function of (m, cf[k]); hoisting it evaluates the
        // identical expression on identical inputs — same bits as inline.
        prep.term_const.clear();
        prep.term_const.extend((0..query.len()).map(|k| {
            let cf = ctx.cf.get(k).copied().unwrap_or(0);
            if cf > 0 {
                ((m + 0.5) / f64::from(cf)).ln() / (m + 1.0).ln()
            } else {
                0.0
            }
        }));
        // With all-zero probabilities every term is skipped by the
        // `df < 0.5` rule, so the default score is exactly +0.0.
        let default_score = 0.0f64;
        let drop_threshold = default_score + default_score.abs() * 1e-9 + 1e-300;
        // T = df/(df+denom) grows with df and shrinks with denom, so the
        // per-word belief is bounded by substituting the term's max df and
        // the smallest denominator any row can have.
        let cw_ratio_min = if ctx.mcw > 0.0 {
            min_word_count / ctx.mcw
        } else {
            1.0
        };
        let denom_min = self.df_base + self.df_scale * cw_ratio_min;
        let prunable = denom_min > 0.0
            && self.default_belief >= 0.0
            && (1.0 - self.default_belief) >= 0.0
            && min_word_count >= 0.0;
        prep.term_ub.clear();
        if prunable {
            let term_ub = bounds.iter().zip(&prep.term_const).map(|(bound, &c)| {
                let max_df = bound.max_df.max(0.0);
                let t_ub = max_df / (max_df + denom_min);
                (self.default_belief + (1.0 - self.default_belief) * t_ub * c).max(0.0)
            });
            prep.term_ub.extend(term_ub);
        } else {
            prep.term_ub.resize(query.len(), f64::INFINITY);
        }
        prep.query_len = query.len();
        prep.default_score = default_score;
        prep.drop_threshold = drop_threshold;
        prep.mcw = ctx.mcw;
        prep.prunable = prunable;
    }

    fn score_rows(
        &self,
        prep: &PreparedKernel,
        p: &[f64],
        db_size: &[f64],
        word_count: &[f64],
        out: &mut [f64],
    ) {
        let qlen = prep.query_len;
        for (r, o) in out.iter_mut().enumerate().take(db_size.len()) {
            if qlen == 0 {
                *o = 0.0;
                continue;
            }
            let ds = db_size[r];
            let cw_ratio = if prep.mcw > 0.0 {
                word_count[r] / prep.mcw
            } else {
                1.0
            };
            let denom_extra = self.df_base + self.df_scale * cw_ratio;
            let row = &p[r * qlen..r * qlen + qlen];
            let mut score = 0.0;
            for (&p_k, &term_const) in row.iter().zip(&prep.term_const) {
                let df = p_k * ds;
                // A select, not a branch: the skipped arm contributes +0.0,
                // which cannot perturb a non-negative accumulator.
                score += if df < 0.5 {
                    0.0
                } else {
                    let t = df / (df + denom_extra);
                    self.default_belief + (1.0 - self.default_belief) * t * term_const
                };
            }
            *o = score / qlen as f64;
        }
    }

    fn upper_bound(&self, prep: &PreparedKernel, mask: u64, _db_size: f64) -> f64 {
        if !prep.prunable {
            return f64::INFINITY;
        }
        let mut sum = 0.0;
        for (k, &ub) in prep.term_ub.iter().enumerate() {
            if present(mask, k) {
                sum += ub;
            }
        }
        inflate(sum / prep.query_len as f64)
    }
}

impl ScoreKernel for BGloss {
    fn space(&self) -> ProbabilitySpace {
        ProbabilitySpace::DocumentFrequency
    }

    fn prepare_into(
        &self,
        query: &[TermId],
        _ctx: &CollectionContext,
        bounds: &[TermBound],
        _min_word_count: f64,
        prep: &mut PreparedKernel,
    ) {
        // bGlOSS overrides default_score to a literal 0.0.
        let default_score = 0.0f64;
        prep.query_len = query.len();
        prep.default_score = default_score;
        prep.drop_threshold = default_score + default_score.abs() * 1e-9 + 1e-300;
        prep.term_const.clear();
        prep.term_ub.clear();
        prep.term_ub.extend(bounds.iter().map(|b| b.max_p_df));
        prep.mcw = 0.0;
        // Float multiplication is monotone, so per-factor maxima bound the
        // product exactly — provided every factor is non-negative.
        prep.prunable = prep.term_ub.iter().all(|&x| x >= 0.0);
    }

    fn score_rows(
        &self,
        prep: &PreparedKernel,
        p: &[f64],
        db_size: &[f64],
        _word_count: &[f64],
        out: &mut [f64],
    ) {
        let qlen = prep.query_len;
        for (r, o) in out.iter_mut().enumerate().take(db_size.len()) {
            if qlen == 0 {
                *o = 0.0;
                continue;
            }
            let row = &p[r * qlen..r * qlen + qlen];
            // `p.iter().product::<f64>()` is a left fold from 1.0.
            let mut acc = 1.0;
            for &pw in row {
                acc *= pw;
            }
            *o = db_size[r] * acc;
        }
    }

    fn upper_bound(&self, prep: &PreparedKernel, mask: u64, db_size: f64) -> f64 {
        if !prep.prunable {
            return f64::INFINITY;
        }
        // Any provably-absent word zeroes the product: the row scores an
        // exact 0.0 and the ranker drops it, so the bound is 0.
        let low = prep.query_len.min(64);
        let full_low = if low == 64 {
            u64::MAX
        } else {
            (1u64 << low) - 1
        };
        if mask & full_low != full_low {
            return 0.0;
        }
        let mut acc = 1.0;
        for &ub in &prep.term_ub {
            acc *= ub;
        }
        inflate(db_size * acc)
    }

    /// bGlOSS's product reads no collection statistic.
    fn reads_cf(&self) -> bool {
        false
    }
}

impl ScoreKernel for Lm {
    fn space(&self) -> ProbabilitySpace {
        ProbabilitySpace::TokenFrequency
    }

    fn prepare_into(
        &self,
        query: &[TermId],
        _ctx: &CollectionContext,
        bounds: &[TermBound],
        _min_word_count: f64,
        prep: &mut PreparedKernel,
    ) {
        // (1−λ)·p̂(w|G) is query-constant; hoisted, it is the identical
        // expression on identical inputs — same bits as inline.
        let (term_const, term_ub) = (&mut prep.term_const, &mut prep.term_ub);
        term_const.clear();
        term_const.extend(
            query
                .iter()
                .map(|&w| (1.0 - self.lambda) * self.global_p(w)),
        );
        // The default score replicates score_with_p over all-zero
        // probabilities, factor by factor, fold from 1.0.
        let mut default_score = 1.0;
        for &g in term_const.iter() {
            default_score *= self.lambda * 0.0 + g;
        }
        term_ub.clear();
        term_ub.extend(
            bounds
                .iter()
                .zip(term_const.iter())
                .map(|(b, &g)| self.lambda * b.max_p_tf + g),
        );
        // Monotone float products need every factor non-negative; a
        // negative λ or global probability disables pruning.
        prep.prunable = self.lambda >= 0.0
            && term_const.iter().all(|&g| g >= 0.0)
            && term_ub.iter().all(|&u| u.is_finite() && u >= 0.0);
        prep.query_len = query.len();
        prep.default_score = default_score;
        prep.drop_threshold = default_score + default_score.abs() * 1e-9 + 1e-300;
        prep.mcw = 0.0;
    }

    fn score_rows(
        &self,
        prep: &PreparedKernel,
        p: &[f64],
        db_size: &[f64],
        _word_count: &[f64],
        out: &mut [f64],
    ) {
        let qlen = prep.query_len;
        for (r, o) in out.iter_mut().enumerate().take(db_size.len()) {
            if qlen == 0 {
                *o = 0.0;
                continue;
            }
            let row = &p[r * qlen..r * qlen + qlen];
            let mut acc = 1.0;
            for (&p_k, &term_const) in row.iter().zip(&prep.term_const) {
                acc *= self.lambda * p_k + term_const;
            }
            *o = acc;
        }
    }

    fn upper_bound(&self, prep: &PreparedKernel, mask: u64, _db_size: f64) -> f64 {
        if !prep.prunable {
            return f64::INFINITY;
        }
        let mut acc = 1.0;
        for k in 0..prep.query_len {
            // An absent word's factor is exactly the global-model constant;
            // a present word's is at most λ·max_p_tf + that constant.
            acc *= if present(mask, k) {
                prep.term_ub[k]
            } else {
                prep.term_const[k]
            };
        }
        inflate(acc)
    }

    /// LM smooths with the global model, not with `cf`.
    fn reads_cf(&self) -> bool {
        false
    }
}

/// A bounded "worst-out" heap over [`RankedDatabase`] under
/// [`ranking_order`]: keeps the best `cap` entries seen so far; the root is
/// the worst kept entry, so a capacity-full heap rejects in O(1) and
/// replaces in O(log cap).
///
/// Because every pushed entry carries its exact score and a distinct
/// database index, [`ranking_order`] is a total order over them and the
/// final sorted content is *the* top-`cap` prefix of the full ranking,
/// whatever order entries arrive in.
#[derive(Debug, Clone)]
pub struct TopK {
    cap: usize,
    heap: Vec<RankedDatabase>,
}

/// `a` ranks strictly worse than `b`.
#[inline]
fn worse(a: &RankedDatabase, b: &RankedDatabase) -> bool {
    ranking_order(a, b) == std::cmp::Ordering::Greater
}

impl TopK {
    /// A heap keeping the best `cap` entries.
    pub fn new(cap: usize) -> TopK {
        TopK {
            cap,
            heap: Vec::with_capacity(cap.min(1024)),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True once `cap` entries are held (always true for `cap == 0`).
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.cap
    }

    /// Entries the heap still takes before it is full.
    pub fn room(&self) -> usize {
        self.cap - self.heap.len()
    }

    /// The score of the worst kept entry, available only once the heap is
    /// full — the pruning threshold θ. A candidate with an upper bound
    /// strictly below θ can never displace a kept entry; a bound *equal* to
    /// θ still can (a tied score with a lower index wins), so callers must
    /// skip only on strict `ub < worst_score()`.
    pub fn worst_score(&self) -> Option<f64> {
        (self.cap > 0 && self.is_full()).then(|| self.heap[0].score)
    }

    /// Offer an entry; kept only if the heap has room or the entry beats
    /// the current worst.
    pub fn push(&mut self, entry: RankedDatabase) {
        if self.cap == 0 {
            return;
        }
        if self.heap.len() < self.cap {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else if worse(&self.heap[0], &entry) {
            self.heap[0] = entry;
            self.sift_down(0);
        }
    }

    /// The kept entries, sorted by [`ranking_order`] — the exact top-`cap`
    /// prefix of the full ranking over everything pushed.
    pub fn into_sorted(mut self) -> Vec<RankedDatabase> {
        self.heap.sort_by(ranking_order);
        self.heap
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if worse(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < self.heap.len() && worse(&self.heap[l], &self.heap[worst]) {
                worst = l;
            }
            if r < self.heap.len() && worse(&self.heap[r], &self.heap[worst]) {
                worst = r;
            }
            if worst == i {
                break;
            }
            self.heap.swap(i, worst);
            i = worst;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_support::summary;
    use crate::context::SelectionAlgorithm;
    use dbselect_core::summary::SummaryView;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn lm() -> Lm {
        Lm::from_global_map(
            0.5,
            HashMap::from([(1, 0.01), (2, 0.003), (3, 0.0004), (9, 0.02)]),
        )
    }

    /// Score a summary through the kernel (one-row batch) and through the
    /// reference `score_with_p`, asserting bit equality.
    fn assert_kernel_matches<A: SelectionAlgorithm + ScoreKernel>(
        algo: &A,
        query: &[TermId],
        dbs: &[(f64, Vec<(TermId, f64)>)],
    ) {
        let summaries: Vec<_> = dbs.iter().map(|(n, dfs)| summary(*n, dfs)).collect();
        let views: Vec<&dyn SummaryView> = summaries.iter().map(|s| s as _).collect();
        let ctx = CollectionContext::build(query, &views);
        let min_wc = views
            .iter()
            .map(|v| v.word_count())
            .fold(f64::INFINITY, f64::min);
        let min_wc = if min_wc.is_finite() { min_wc } else { 0.0 };
        // Per-term maxima over the same probability values the rows carry.
        let bounds: Vec<TermBound> = query
            .iter()
            .map(|&w| {
                let mut b = TermBound::absent();
                for v in &views {
                    b.max_df = b.max_df.max(v.p_df(w) * v.db_size());
                    b.max_p_df = b.max_p_df.max(v.p_df(w));
                    b.max_p_tf = b.max_p_tf.max(v.p_tf(w));
                }
                b
            })
            .collect();
        let prep = algo.prepare(query, &ctx, &bounds, min_wc);
        // Gather rows exactly as the engine does: native-space probability
        // per query position.
        let mut rows = Vec::new();
        let mut sizes = Vec::new();
        let mut wcs = Vec::new();
        let mut masks = Vec::new();
        for v in &views {
            let mut mask = 0u64;
            for (k, &w) in query.iter().enumerate() {
                let pw = match algo.space() {
                    ProbabilitySpace::DocumentFrequency => v.p_df(w),
                    ProbabilitySpace::TokenFrequency => v.p_tf(w),
                };
                rows.push(pw);
                if pw != 0.0 && k < 64 {
                    mask |= 1 << k;
                }
            }
            sizes.push(v.db_size());
            wcs.push(v.word_count());
            masks.push(mask);
        }
        let mut out = vec![0.0; views.len()];
        algo.score_rows(&prep, &rows, &sizes, &wcs, &mut out);
        for (i, v) in views.iter().enumerate() {
            let p: Vec<f64> = query
                .iter()
                .map(|&w| match algo.space() {
                    ProbabilitySpace::DocumentFrequency => v.p_df(w),
                    ProbabilitySpace::TokenFrequency => v.p_tf(w),
                })
                .collect();
            let want = algo.score_with_p(query, &p, *v, &ctx);
            assert_eq!(
                out[i].to_bits(),
                want.to_bits(),
                "{} row {i}: kernel {} vs reference {}",
                algo.name(),
                out[i],
                want
            );
            let ub = ScoreKernel::upper_bound(algo, &prep, masks[i], sizes[i]);
            assert!(
                ub >= want,
                "{} row {i}: upper bound {ub} below score {want}",
                algo.name()
            );
        }
        // The kernel's default score and threshold replicate the ranker's.
        let zeros = vec![0.0; query.len()];
        let want_default = algo.score_with_p(query, &zeros, views[0], &ctx);
        assert_eq!(prep.default_score.to_bits(), want_default.to_bits());
        let want_threshold = want_default + want_default.abs() * 1e-9 + 1e-300;
        assert_eq!(prep.drop_threshold.to_bits(), want_threshold.to_bits());
    }

    fn testbed() -> Vec<(f64, Vec<(TermId, f64)>)> {
        vec![
            (1000.0, vec![(1, 100.0), (2, 50.0)]),
            (320.0, vec![(1, 150.0), (3, 12.0)]),
            (100_000.0, vec![(2, 3.0), (3, 1.0)]),
            (2_000.0, vec![(9, 60.0)]),
            (50.0, vec![]),
        ]
    }

    #[test]
    fn cori_kernel_is_bit_identical() {
        for q in [vec![1u32, 2], vec![1, 2, 3, 9], vec![7], vec![1, 1, 2]] {
            assert_kernel_matches(&Cori::default(), &q, &testbed());
        }
    }

    #[test]
    fn bgloss_kernel_is_bit_identical() {
        for q in [vec![1u32, 2], vec![1, 2, 3, 9], vec![7], vec![1, 1, 2]] {
            assert_kernel_matches(&BGloss, &q, &testbed());
        }
    }

    #[test]
    fn lm_kernel_is_bit_identical() {
        for q in [vec![1u32, 2], vec![1, 2, 3, 9], vec![7], vec![1, 1, 2]] {
            assert_kernel_matches(&lm(), &q, &testbed());
        }
    }

    #[test]
    fn bgloss_bound_is_zero_for_incomplete_masks() {
        let query = [1u32, 2];
        let ctx = CollectionContext {
            m: 1,
            cf: vec![1, 1],
            mcw: 100.0,
        };
        let bounds = [TermBound {
            max_df: 10.0,
            max_p_df: 0.5,
            max_p_tf: 0.2,
        }; 2];
        let prep = ScoreKernel::prepare(&BGloss, &query, &ctx, &bounds, 10.0);
        assert_eq!(ScoreKernel::upper_bound(&BGloss, &prep, 0b01, 1000.0), 0.0);
        assert!(ScoreKernel::upper_bound(&BGloss, &prep, 0b11, 1000.0) > 0.0);
    }

    #[test]
    fn top_k_heap_keeps_the_best_entries() {
        let entries: Vec<RankedDatabase> =
            [(0, 0.5), (1, 0.9), (2, 0.1), (3, 0.9), (4, 0.7), (5, 0.3)]
                .iter()
                .map(|&(index, score)| RankedDatabase { index, score })
                .collect();
        let mut heap = TopK::new(3);
        assert!(heap.worst_score().is_none(), "no θ before the heap fills");
        for &e in &entries {
            heap.push(e);
        }
        assert_eq!(heap.worst_score(), Some(0.7));
        let top = heap.into_sorted();
        let mut full = entries.clone();
        full.sort_by(ranking_order);
        full.truncate(3);
        assert_eq!(top, full);
        // Ties: equal scores ordered by index.
        assert_eq!(top[0].index, 1);
        assert_eq!(top[1].index, 3);
    }

    #[test]
    fn zero_capacity_heap_stays_empty() {
        let mut heap = TopK::new(0);
        heap.push(RankedDatabase {
            index: 0,
            score: 1.0,
        });
        assert!(heap.is_empty());
        assert!(heap.is_full());
        assert!(heap.worst_score().is_none());
        assert!(heap.into_sorted().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any insertion order and capacity, the heap's sorted content
        /// equals truncating the fully sorted input.
        #[test]
        fn heap_equals_truncated_sort(
            scores in proptest::collection::vec(0.0f64..1.0, 0..40),
            cap in 0usize..12,
        ) {
            // Quantize so score ties actually occur.
            let entries: Vec<RankedDatabase> = scores
                .iter()
                .enumerate()
                .map(|(index, &s)| RankedDatabase { index, score: (s * 8.0).round() / 8.0 })
                .collect();
            let mut heap = TopK::new(cap);
            for &e in &entries {
                heap.push(e);
            }
            let mut want = entries.clone();
            want.sort_by(ranking_order);
            want.truncate(cap);
            prop_assert_eq!(heap.into_sorted(), want);
        }

        /// Kernels stay bit-identical to the reference on random testbeds,
        /// and upper bounds dominate the realized scores.
        #[test]
        fn kernels_bit_identical_on_random_testbeds(
            dbs in proptest::collection::vec(
                (10.0f64..100_000.0, proptest::collection::vec((1u32..6, 0.0f64..1000.0), 0..5)),
                1..6,
            ),
            query in proptest::collection::vec(1u32..7, 1..5),
        ) {
            let dbs: Vec<(f64, Vec<(TermId, f64)>)> = dbs
                .into_iter()
                .map(|(n, words)| {
                    let mut dedup: Vec<(TermId, f64)> = Vec::new();
                    for (t, df) in words {
                        if !dedup.iter().any(|&(u, _)| u == t) {
                            dedup.push((t, df.min(n).floor()));
                        }
                    }
                    (n, dedup)
                })
                .collect();
            assert_kernel_matches(&Cori::default(), &query, &dbs);
            assert_kernel_matches(&BGloss, &query, &dbs);
            assert_kernel_matches(&lm(), &query, &dbs);
        }
    }
}
