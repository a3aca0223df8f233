//! The frozen routing catalog, in columnar serving form.
//!
//! Profiling and shrinkage produce, per database, a sample-based summary
//! `Ŝ(D)`, a category, the λs of its shrunk summary `R̂(D)` and a fitted
//! power-law exponent γ. [`Catalog::freeze`] — the one constructor, for
//! serving, refresh and the experiment harness alike — freezes those into
//! an immutable, query-serving form:
//!
//! * every sample summary becomes a [`FrozenSummary`] — term-sorted
//!   parallel arrays answering `p̂(w|D)` by binary search over contiguous
//!   memory instead of hash-bucket chasing;
//! * every shrunk summary is factored over its category path
//!   ([`ShrunkSummaries`]): the category aggregates once per catalog, per
//!   database its category and λ pair, and a value `p̂_R(w|D)` computed
//!   only when a request reads it;
//! * the **summary-level inverted index** is stored CSR-style: one sorted
//!   term-id array, an offsets array, and flat parallel slabs holding, for
//!   every `(term, database)` pair whose unshrunk summary mentions the
//!   term, the database index, the `p̂(w|D)` estimate, the sample document
//!   frequency the uncertainty machinery needs, and the Section-5.3
//!   "effective containment" flag.
//!
//! Collection-level statistics that a per-query scan used to recompute —
//! `m`, `mcw`, and the effective `cf(w)` counts of Section 5.3 — become
//! catalog constants or single index lookups, and a request makes each
//! lookup once (`QueryPlan`, `ShrunkRows`): the public per-query
//! methods are wrappers over that plan code. The columnar form is also
//! what the v4 snapshot serializes: `store::snapshot` dumps and reloads
//! these arrays, so a daemon start or `/admin/reload` rebuilds nothing.
//!
//! Freezing is bit-preserving (see [`dbselect_core::frozen`]): rankings
//! over the columnar catalog equal rankings over the source summaries,
//! `f64::to_bits` for `f64::to_bits`.

use std::sync::Arc;

use dbselect_core::frozen::{
    Basis, CategoryColumns, FrozenSummary, MixScratch, OwnWord, ShrunkSummaries, ShrunkView,
};
use dbselect_core::hierarchy::CategoryId;
use dbselect_core::summary::{ContentSummary, SummaryView};
use selection::{CollectionContext, TermBound};
use textindex::TermId;

/// One profiled database, as [`Catalog::freeze`] takes it.
#[derive(Debug, Clone)]
pub struct ProfiledDb<'a> {
    /// Database name (for reports).
    pub name: String,
    /// The sample-based summary `Ŝ(D)`; its γ, or the generic −2, is
    /// the database's.
    pub summary: &'a ContentSummary,
    /// The category the database is classified under: the leaf of the
    /// path its `R̂(D)` mixes.
    pub category: CategoryId,
    /// `(λ_df, λ_tf)`: uniform first, the path's categories root first,
    /// the database's own weight last.
    pub lambdas: (Vec<f64>, Vec<f64>),
    /// The sample the leaf remainder subtracts, when it is not `summary`
    /// (a refreshed database keeps the one its λs were fitted against).
    pub basis: Option<Arc<Basis>>,
}

/// An in-place replacement of one database's catalog columns — what a
/// refresh round produces per re-probed database. Applied in a batch by
/// [`Catalog::apply_updates`].
#[derive(Debug, Clone)]
pub struct DbUpdate {
    /// Index of the database being replaced.
    pub db: usize,
    /// The re-resolved power-law exponent (Appendix-A fit or −2 fallback).
    pub gamma: f64,
    /// The re-probed sample summary `Ŝ(D)`, frozen.
    pub unshrunk: FrozenSummary,
    /// The λ pair re-fitted against the database's pinned components.
    pub lambdas: (Vec<f64>, Vec<f64>),
}

/// The CSR posting index over the unshrunk summaries: for every term, the
/// databases that mention it, in ascending database order, as slices of
/// flat parallel slabs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PostingIndex {
    /// Distinct indexed terms, strictly ascending.
    terms: Vec<TermId>,
    /// `offsets[i]..offsets[i + 1]` is `terms[i]`'s slice of every slab;
    /// `len() == terms.len() + 1`, first 0, last the slab length.
    offsets: Vec<u32>,
    /// Database index per posting.
    dbs: Vec<u32>,
    /// The unshrunk summary's `p̂(w|D)` per posting.
    p_df: Vec<f64>,
    /// Sample document frequency per posting (drives the word-posterior
    /// grid of Section 4).
    sample_df: Vec<u32>,
    /// The posting's index in its database's sample summary columns.
    positions: Vec<u32>,
    /// Whether the database "effectively" contains the word under the
    /// Section-5.3 rounding rule `round(|D̂|·p̂(w|D)) ≥ 1`.
    effective: Vec<bool>,
    /// Number of `effective` postings per term — the unshrunk `cf(w)`.
    effective_counts: Vec<u32>,
    /// The unshrunk summary's token probability `p_tf(w|D)` per posting —
    /// LM's native probability space, gathered by the top-k kernels.
    p_tf: Vec<f64>,
    /// Per-term `max_D fl(p̂(w|D)·|D|)` — score-bound material (see
    /// [`selection::TermBound`]). Recomputable from the summaries
    /// ([`Self::recompute_aux`]), persisted by snapshots.
    max_df: Vec<f64>,
    /// Per-term `max_D p̂(w|D)`.
    max_p_df: Vec<f64>,
    /// Per-term `max_D p_tf(w|D)`.
    max_p_tf: Vec<f64>,
}

/// One term's postings: parallel slices into the index slabs.
#[derive(Debug, Clone, Copy)]
pub struct Postings<'a> {
    /// Database indices, ascending.
    pub dbs: &'a [u32],
    /// `p̂(w|D)` per database.
    pub p_df: &'a [f64],
    /// Sample document frequency per database.
    pub sample_df: &'a [u32],
    /// The word's index in each database's sample summary columns.
    pub positions: &'a [u32],
    /// Effective-containment flag per database.
    pub effective: &'a [bool],
    /// Number of effective entries — the unshrunk `cf(w)`.
    pub effective_count: u32,
    /// Token probability `p_tf(w|D)` per database.
    pub p_tf: &'a [f64],
    /// The term's score-bound maxima.
    pub bound: TermBound,
}

impl PostingIndex {
    /// Build the index from frozen unshrunk summaries. Iterating databases
    /// in ascending order keeps every term's postings sorted by database
    /// index without an explicit sort.
    fn build(unshrunk: &[FrozenSummary]) -> PostingIndex {
        let mut terms: Vec<TermId> = unshrunk.iter().flat_map(|s| s.terms()).copied().collect();
        terms.sort_unstable();
        terms.dedup();
        let mut counts = vec![0u32; terms.len()];
        for s in unshrunk {
            for t in s.terms() {
                counts[terms.binary_search(t).expect("term collected above")] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(terms.len() + 1);
        offsets.push(0u32);
        for &c in &counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let total = *offsets.last().unwrap() as usize;
        let mut cursors: Vec<u32> = offsets[..terms.len()].to_vec();
        let mut dbs = vec![0u32; total];
        let mut p_df = vec![0f64; total];
        let mut sample_df = vec![0u32; total];
        let mut positions = vec![0u32; total];
        let mut effective = vec![false; total];
        let mut effective_counts = vec![0u32; terms.len()];
        for (db, s) in unshrunk.iter().enumerate() {
            for (i, t) in s.terms().iter().enumerate() {
                let pos = terms.binary_search(t).expect("term collected above");
                let at = cursors[pos] as usize;
                cursors[pos] += 1;
                dbs[at] = db as u32;
                p_df[at] = s.p_at(i).0;
                sample_df[at] = s.sample_df_at(i);
                positions[at] = i as u32;
                let eff = s.effectively_contains(*t);
                effective[at] = eff;
                effective_counts[pos] += u32::from(eff);
            }
        }
        let mut index = PostingIndex {
            terms,
            offsets,
            dbs,
            p_df,
            sample_df,
            positions,
            effective,
            effective_counts,
            p_tf: Vec::new(),
            max_df: Vec::new(),
            max_p_df: Vec::new(),
            max_p_tf: Vec::new(),
        };
        index.recompute_aux(unshrunk);
        index
    }

    /// Compute the auxiliary columns (`p_tf` slab, per-term maxima) from
    /// the frozen unshrunk summaries — [`Self::build`]'s last step, and the
    /// fold [`Self::update_dbs`] repeats per affected row.
    pub(crate) fn recompute_aux(&mut self, unshrunk: &[FrozenSummary]) {
        let total = self.dbs.len();
        let mut p_tf = vec![0f64; total];
        let mut max_df = vec![0f64; self.terms.len()];
        let mut max_p_df = vec![0f64; self.terms.len()];
        let mut max_p_tf = vec![0f64; self.terms.len()];
        for (pos, w) in self.offsets.windows(2).enumerate() {
            let term = self.terms[pos];
            for at in w[0] as usize..w[1] as usize {
                let s = &unshrunk[self.dbs[at] as usize];
                let ptf = s.p_tf(term);
                let pdf = self.p_df[at];
                p_tf[at] = ptf;
                // The exact float product the CORI kernel forms per row, so
                // the maximum dominates every row's `df` bit-exactly.
                max_df[pos] = max_df[pos].max(pdf * s.db_size());
                max_p_df[pos] = max_p_df[pos].max(pdf);
                max_p_tf[pos] = max_p_tf[pos].max(ptf);
            }
        }
        self.p_tf = p_tf;
        self.max_df = max_df;
        self.max_p_df = max_p_df;
        self.max_p_tf = max_p_tf;
    }

    /// Reassemble an index from decoded columns, auxiliary ones included —
    /// the snapshot load path. Validates every invariant binary search and
    /// slicing rely on, so corrupt input is rejected instead of causing
    /// panics or garbage lookups. `effective_counts` is recomputed rather
    /// than trusted. (That the term maxima dominate their postings is
    /// checked against the summaries by [`Catalog::from_raw_parts`].)
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        n_dbs: usize,
        terms: Vec<TermId>,
        offsets: Vec<u32>,
        dbs: Vec<u32>,
        p_df: Vec<f64>,
        sample_df: Vec<u32>,
        positions: Vec<u32>,
        effective: Vec<bool>,
        p_tf: Vec<f64>,
        max_df: Vec<f64>,
        max_p_df: Vec<f64>,
        max_p_tf: Vec<f64>,
    ) -> Result<PostingIndex, &'static str> {
        if terms.windows(2).any(|w| w[0] >= w[1]) {
            return Err("posting terms not strictly ascending");
        }
        if offsets.len() != terms.len() + 1 {
            return Err("posting offsets length mismatch");
        }
        if offsets.first() != Some(&0) {
            return Err("posting offsets must start at 0");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("posting offsets not monotone");
        }
        let total = *offsets.last().unwrap() as usize;
        if dbs.len() != total
            || p_df.len() != total
            || sample_df.len() != total
            || positions.len() != total
            || effective.len() != total
        {
            return Err("posting slabs disagree with offsets");
        }
        if p_tf.len() != total {
            return Err("p_tf slab disagrees with postings");
        }
        if max_df.len() != terms.len()
            || max_p_df.len() != terms.len()
            || max_p_tf.len() != terms.len()
        {
            return Err("term maxima disagree with term count");
        }
        if dbs.iter().any(|&db| db as usize >= n_dbs) {
            return Err("posting database index out of range");
        }
        for w in offsets.windows(2) {
            let range = &dbs[w[0] as usize..w[1] as usize];
            if range.windows(2).any(|p| p[0] >= p[1]) {
                return Err("postings not strictly ascending by database");
            }
        }
        let mut effective_counts = vec![0u32; terms.len()];
        for (pos, w) in offsets.windows(2).enumerate() {
            effective_counts[pos] = effective[w[0] as usize..w[1] as usize]
                .iter()
                .map(|&e| u32::from(e))
                .sum();
        }
        Ok(PostingIndex {
            terms,
            offsets,
            dbs,
            p_df,
            sample_df,
            positions,
            effective,
            effective_counts,
            p_tf,
            max_df,
            max_p_df,
            max_p_tf,
        })
    }

    /// Rebuild only the posting rows touched by replacing the summaries
    /// of `touched` databases (ascending, deduped; `old` holds their
    /// pre-update summaries, `unshrunk` is the full post-update array).
    ///
    /// A term's row can only change if a touched database mentioned the
    /// term before or mentions it now, so every other row — and its
    /// auxiliary maxima — is copied verbatim as a slab slice. Affected
    /// rows are re-merged in ascending database order and their maxima
    /// re-folded exactly as [`Self::recompute_aux`] folds them, which is
    /// what keeps the incremental result bit-identical to a full
    /// [`Self::build`] over the updated summaries.
    pub(crate) fn update_dbs(
        &self,
        touched: &[u32],
        old: &[&FrozenSummary],
        unshrunk: &[FrozenSummary],
    ) -> PostingIndex {
        debug_assert_eq!(touched.len(), old.len());
        let mut is_touched = vec![false; unshrunk.len()];
        for &db in touched {
            is_touched[db as usize] = true;
        }

        // Terms whose rows may change: old ∪ new vocabulary of the
        // touched databases.
        let mut affected: Vec<TermId> = Vec::new();
        for s in old {
            affected.extend_from_slice(s.terms());
        }
        for &db in touched {
            affected.extend_from_slice(unshrunk[db as usize].terms());
        }
        affected.sort_unstable();
        affected.dedup();

        // Fresh postings per affected term, ascending by database because
        // `touched` is ascending.
        // A touched database's fresh posting: database, `p_df`,
        // `sample_df`, position, effective flag.
        type Fresh = (u32, f64, u32, u32, bool);
        let mut contribs: std::collections::BTreeMap<TermId, Vec<Fresh>> =
            std::collections::BTreeMap::new();
        for &db in touched {
            let s = &unshrunk[db as usize];
            for (i, &t) in s.terms().iter().enumerate() {
                contribs.entry(t).or_default().push((
                    db,
                    s.p_at(i).0,
                    s.sample_df_at(i),
                    i as u32,
                    s.effectively_contains(t),
                ));
            }
        }

        let mut terms = Vec::with_capacity(self.terms.len() + affected.len());
        let mut offsets = vec![0u32];
        let mut dbs = Vec::with_capacity(self.dbs.len());
        let mut p_df = Vec::with_capacity(self.p_df.len());
        let mut sample_df = Vec::with_capacity(self.sample_df.len());
        let mut positions = Vec::with_capacity(self.positions.len());
        let mut effective = Vec::with_capacity(self.effective.len());
        let mut effective_counts = Vec::with_capacity(self.effective_counts.len());
        let mut p_tf = Vec::with_capacity(self.p_tf.len());
        let mut max_df = Vec::with_capacity(self.max_df.len());
        let mut max_p_df = Vec::with_capacity(self.max_p_df.len());
        let mut max_p_tf = Vec::with_capacity(self.max_p_tf.len());

        let (mut oi, mut ai) = (0usize, 0usize);
        loop {
            let next_old = self.terms.get(oi).copied();
            let next_aff = affected.get(ai).copied();
            let term = match (next_old, next_aff) {
                (None, None) => break,
                (Some(t), None) | (None, Some(t)) => t,
                (Some(a), Some(b)) => a.min(b),
            };
            let in_old = next_old == Some(term);
            let is_affected = next_aff == Some(term);
            if in_old && !is_affected {
                // Untouched row: verbatim slab copy, maxima included.
                let (lo, hi) = (self.offsets[oi] as usize, self.offsets[oi + 1] as usize);
                terms.push(term);
                dbs.extend_from_slice(&self.dbs[lo..hi]);
                p_df.extend_from_slice(&self.p_df[lo..hi]);
                sample_df.extend_from_slice(&self.sample_df[lo..hi]);
                positions.extend_from_slice(&self.positions[lo..hi]);
                effective.extend_from_slice(&self.effective[lo..hi]);
                p_tf.extend_from_slice(&self.p_tf[lo..hi]);
                effective_counts.push(self.effective_counts[oi]);
                max_df.push(self.max_df[oi]);
                max_p_df.push(self.max_p_df[oi]);
                max_p_tf.push(self.max_p_tf[oi]);
                offsets.push(dbs.len() as u32);
            } else {
                // Affected row: survivors (old postings of untouched
                // databases) merged with fresh postings, both ascending.
                let (lo, hi) = if in_old {
                    (self.offsets[oi] as usize, self.offsets[oi + 1] as usize)
                } else {
                    (0, 0)
                };
                let fresh: &[Fresh] = contribs.get(&term).map_or(&[], Vec::as_slice);
                let row_start = dbs.len();
                let mut si = lo;
                let mut fi = 0usize;
                loop {
                    while si < hi && is_touched[self.dbs[si] as usize] {
                        si += 1;
                    }
                    let s_db = (si < hi).then(|| self.dbs[si]);
                    let f_db = (fi < fresh.len()).then(|| fresh[fi].0);
                    match (s_db, f_db) {
                        (None, None) => break,
                        (Some(sd), fd) if fd.is_none_or(|fd| sd < fd) => {
                            dbs.push(self.dbs[si]);
                            p_df.push(self.p_df[si]);
                            sample_df.push(self.sample_df[si]);
                            positions.push(self.positions[si]);
                            effective.push(self.effective[si]);
                            p_tf.push(self.p_tf[si]);
                            si += 1;
                        }
                        _ => {
                            let (db, pd, sd, position, eff) = fresh[fi];
                            dbs.push(db);
                            p_df.push(pd);
                            sample_df.push(sd);
                            positions.push(position);
                            effective.push(eff);
                            p_tf.push(unshrunk[db as usize].p_tf(term));
                            fi += 1;
                        }
                    }
                }
                if dbs.len() > row_start {
                    terms.push(term);
                    let (mut ec, mut mdf, mut mpdf, mut mptf) = (0u32, 0f64, 0f64, 0f64);
                    // Same fold, same row order as `recompute_aux`.
                    for at in row_start..dbs.len() {
                        let s = &unshrunk[dbs[at] as usize];
                        ec += u32::from(effective[at]);
                        mdf = mdf.max(p_df[at] * s.db_size());
                        mpdf = mpdf.max(p_df[at]);
                        mptf = mptf.max(p_tf[at]);
                    }
                    effective_counts.push(ec);
                    max_df.push(mdf);
                    max_p_df.push(mpdf);
                    max_p_tf.push(mptf);
                    offsets.push(dbs.len() as u32);
                }
                // An emptied row drops its term entirely, matching a full
                // build (which only indexes terms some summary mentions).
            }
            oi += usize::from(in_old);
            ai += usize::from(is_affected);
        }
        // A served index keeps no growth slack: a row the touched
        // databases grew pushed its columns past their reserved lengths.
        let u32_columns = [
            &mut terms,
            &mut offsets,
            &mut dbs,
            &mut sample_df,
            &mut positions,
            &mut effective_counts,
        ];
        for column in u32_columns {
            column.shrink_to_fit();
        }
        for column in [
            &mut p_df,
            &mut p_tf,
            &mut max_df,
            &mut max_p_df,
            &mut max_p_tf,
        ] {
            column.shrink_to_fit();
        }
        effective.shrink_to_fit();
        PostingIndex {
            terms,
            offsets,
            dbs,
            p_df,
            sample_df,
            positions,
            effective,
            effective_counts,
            p_tf,
            max_df,
            max_p_df,
            max_p_tf,
        }
    }

    /// The row of `term` in the index, if any database mentions it — the
    /// one binary search a request pays per query word (`QueryPlan`).
    pub(crate) fn row(&self, term: TermId) -> Option<usize> {
        self.terms.binary_search(&term).ok()
    }

    /// The postings of row `pos` (see [`Self::row`]).
    pub(crate) fn postings_at(&self, pos: usize) -> Postings<'_> {
        let (lo, hi) = (self.offsets[pos] as usize, self.offsets[pos + 1] as usize);
        Postings {
            dbs: &self.dbs[lo..hi],
            p_df: &self.p_df[lo..hi],
            sample_df: &self.sample_df[lo..hi],
            positions: &self.positions[lo..hi],
            effective: &self.effective[lo..hi],
            effective_count: self.effective_counts[pos],
            p_tf: &self.p_tf[lo..hi],
            bound: TermBound {
                max_df: self.max_df[pos],
                max_p_df: self.max_p_df[pos],
                max_p_tf: self.max_p_tf[pos],
            },
        }
    }

    /// The postings of `term`, if any database mentions it.
    pub fn get(&self, term: TermId) -> Option<Postings<'_>> {
        self.row(term).map(|pos| self.postings_at(pos))
    }

    /// Number of distinct indexed terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no term is indexed.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The sorted term-id column.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// The offsets column (`terms().len() + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The database-index slab.
    pub fn dbs(&self) -> &[u32] {
        &self.dbs
    }

    /// The `p̂(w|D)` slab.
    pub fn p_df(&self) -> &[f64] {
        &self.p_df
    }

    /// The sample-document-frequency slab.
    pub fn sample_df(&self) -> &[u32] {
        &self.sample_df
    }

    /// The slab of each posting's index in its database's sample summary.
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// The effective-containment slab.
    pub fn effective(&self) -> &[bool] {
        &self.effective
    }

    /// The `p_tf(w|D)` slab (empty until the auxiliary columns exist).
    pub fn p_tf(&self) -> &[f64] {
        &self.p_tf
    }

    /// Per-term `max fl(p̂·|D|)` column (empty until the auxiliary columns
    /// exist).
    pub fn max_df(&self) -> &[f64] {
        &self.max_df
    }

    /// Per-term `max p̂(w|D)` column.
    pub fn max_p_df(&self) -> &[f64] {
        &self.max_p_df
    }

    /// Per-term `max p_tf(w|D)` column.
    pub fn max_p_tf(&self) -> &[f64] {
        &self.max_p_tf
    }
}

/// What one request resolves about its query words, once: each word's row
/// in the posting index, which choose → context → score all read
/// (`effective_count`, the posting slices, the [`TermBound`]). Plain
/// indices into one catalog's index, so the buffer is recyclable across
/// requests and generations.
#[derive(Debug, Default)]
pub(crate) struct QueryPlan {
    /// Posting-index row per query word ([`ABSENT`] when no database
    /// mentions it).
    rows: Vec<u32>,
}

/// "Not stored" in a [`QueryPlan`] row.
const ABSENT: u32 = u32::MAX;

/// The databases a request scores with `R̂(D)`, gathered once: per
/// database a row of the query words' probabilities, each computed from
/// the factored mixture with the words resolved once per request. Feeds
/// both the scoring context's `cf` and the kernels' row matrix.
#[derive(Debug, Default)]
pub(crate) struct ShrunkRows {
    pub(crate) dbs: Vec<u32>,
    pub(crate) sizes: Vec<f64>,
    pub(crate) word_counts: Vec<f64>,
    /// Row-major `p̂(w|D)`, `dbs.len() × query.len()`.
    pub(crate) p_df: Vec<f64>,
    /// Row-major `p_tf(w|D)`.
    pub(crate) p_tf: Vec<f64>,
    /// The query words, resolved against the category columns.
    mix: MixScratch,
    /// Per catalog database: its row in `dbs`, or [`ABSENT`].
    slots: Vec<u32>,
    /// Row-major, `dbs.len() × query.len()`: each query word as the
    /// database's sample has it, read off the word's postings.
    words: Vec<OwnWord>,
}

/// A profiled collection frozen for serving.
#[derive(Debug, Clone)]
pub struct Catalog {
    names: Vec<String>,
    unshrunk: Vec<FrozenSummary>,
    /// Every `R̂(D)`, factored: category columns once, λs per database.
    shrunk: ShrunkSummaries,
    /// γ per database (the Appendix-A fit, or the generic −2 fallback),
    /// resolved once so the hot path never re-inspects the summary.
    gammas: Vec<f64>,
    /// `|D̂|` and `cw(D)` per database, as dense columns: scoring reads
    /// them for every candidate row.
    sizes: Vec<f64>,
    word_counts: Vec<f64>,
    /// Mean database word count over the whole collection. Constant across
    /// queries *and* summary choices: a shrunk summary inherits its
    /// database's word count, so `mcw` is invariant under the adaptive
    /// per-database choice.
    mcw: f64,
    /// Smallest unshrunk `cw(D)` — the CORI upper bound's denominator
    /// floor. Always recomputed (O(n), cheap), never persisted.
    min_word_count: f64,
    index: PostingIndex,
}

impl Catalog {
    /// Freeze a profiled collection: each database's sample summary, and
    /// its `R̂(D)` factored over `categories` — the uniform model
    /// `uniform_p`, the edges of its category path, its leaf remainder and
    /// its sample under its λs — then the posting index over the samples.
    /// Fails when a category lies outside `categories` or λs do not cover
    /// their path.
    pub fn freeze<'a>(
        categories: Arc<CategoryColumns>,
        uniform_p: f64,
        dbs: impl IntoIterator<Item = ProfiledDb<'a>>,
    ) -> Result<Catalog, &'static str> {
        let mut shrunk = ShrunkSummaries::new(uniform_p, categories);
        let (mut names, mut unshrunk, mut gammas) = (Vec::new(), Vec::new(), Vec::new());
        for db in dbs {
            let own = FrozenSummary::from_unshrunk(db.summary);
            shrunk.push(db.category, db.lambdas, &own, db.basis)?;
            names.push(db.name);
            gammas.push(db.summary.gamma().unwrap_or(-2.0));
            unshrunk.push(own);
        }
        let index = PostingIndex::build(&unshrunk);
        Ok(Catalog::assemble(names, unshrunk, shrunk, gammas, index))
    }

    /// The one place a catalog is put together: folds the derived
    /// constants.
    fn assemble(
        names: Vec<String>,
        unshrunk: Vec<FrozenSummary>,
        shrunk: ShrunkSummaries,
        gammas: Vec<f64>,
        index: PostingIndex,
    ) -> Catalog {
        // Same summation order as `CollectionContext::build` over views in
        // database order, so the constant is bit-identical to the scan.
        let mcw = if unshrunk.is_empty() {
            0.0
        } else {
            unshrunk.iter().map(|s| s.word_count()).sum::<f64>() / unshrunk.len() as f64
        };
        let min_word_count = unshrunk
            .iter()
            .map(|s| s.word_count())
            .fold(f64::INFINITY, f64::min);
        Catalog {
            sizes: unshrunk.iter().map(FrozenSummary::db_size).collect(),
            word_counts: unshrunk.iter().map(FrozenSummary::word_count).collect(),
            names,
            unshrunk,
            shrunk,
            gammas,
            mcw,
            min_word_count: if min_word_count.is_finite() {
                min_word_count
            } else {
                0.0
            },
            index,
        }
    }

    /// Apply a batch of per-database refresh updates, rebuilding **only**
    /// the touched columns: replaced sample summaries slot into the
    /// per-db array, the λ pairs into the factored shrunk summaries (whose
    /// components stay as pinned: a database keeps subtracting the sample
    /// its leaf remainder was built from), the posting index re-merges
    /// only rows a touched database participates in
    /// ([`PostingIndex::update_dbs`]), and the catalog constants (`mcw`,
    /// `min_word_count`) are re-folded with the exact summation
    /// [`Self::freeze`] uses. The result is bit-identical to a full freeze
    /// of the updated state (each touched database's leaf remainder
    /// subtracting the sample it replaced), at a cost proportional to the
    /// touched vocabulary instead of the catalog; the category columns are
    /// shared.
    pub fn apply_updates(&self, updates: &[DbUpdate]) -> Result<Catalog, &'static str> {
        if updates.iter().any(|u| u.db >= self.len()) {
            return Err("update database index out of range");
        }
        let mut order: Vec<usize> = (0..updates.len()).collect();
        order.sort_by_key(|&i| updates[i].db);
        if order
            .windows(2)
            .any(|w| updates[w[0]].db == updates[w[1]].db)
        {
            return Err("duplicate database in update batch");
        }
        let mut unshrunk = self.unshrunk.clone();
        let mut shrunk = self.shrunk.clone();
        let mut gammas = self.gammas.clone();
        let touched: Vec<u32> = order.iter().map(|&i| updates[i].db as u32).collect();
        let old: Vec<&FrozenSummary> = order
            .iter()
            .map(|&i| &self.unshrunk[updates[i].db])
            .collect();
        for u in updates {
            shrunk.refit(u.db, u.lambdas.clone(), &self.unshrunk[u.db])?;
            unshrunk[u.db] = u.unshrunk.clone();
            gammas[u.db] = u.gamma;
        }
        let index = self.index.update_dbs(&touched, &old, &unshrunk);
        Ok(Catalog::assemble(
            self.names.clone(),
            unshrunk,
            shrunk,
            gammas,
            index,
        ))
    }

    /// Reassemble a catalog from already-frozen columns — the snapshot
    /// load path. The caller (the v4 codec) has validated each summary,
    /// the mixtures and the posting index individually; this checks only
    /// cross-field consistency, including that the postings and the
    /// sample words correspond one to one, that no posting's `sample_df`
    /// (which keys the uncertainty test's moment table) exceeds its
    /// database's sample size and that the term maxima dominate their
    /// postings (they are pruning bounds).
    pub fn from_raw_parts(
        names: Vec<String>,
        unshrunk: Vec<FrozenSummary>,
        shrunk: ShrunkSummaries,
        gammas: Vec<f64>,
        index: PostingIndex,
    ) -> Result<Catalog, String> {
        if unshrunk.len() != names.len()
            || shrunk.len() != names.len()
            || gammas.len() != names.len()
        {
            return Err("catalog columns disagree on database count".to_string());
        }
        // Each posting must match a distinct word of its database's sample
        // (checked below; a row holds a database once), and the counts must
        // agree: serving decides from the postings alone whether a
        // database has a word, so every sampled word needs its posting.
        let words: usize = unshrunk.iter().map(FrozenSummary::len).sum();
        if index.dbs.len() != words {
            return Err("posting index disagrees with the sample summaries on word count".into());
        }
        for (pos, window) in index.offsets.windows(2).enumerate() {
            for at in window[0] as usize..window[1] as usize {
                let db = index.dbs[at] as usize;
                let (name, summary) = names
                    .get(db)
                    .zip(unshrunk.get(db))
                    .ok_or("posting database index out of range")?;
                if index.sample_df[at] > summary.sample_size() {
                    return Err(format!(
                        "database `{name}`: posting sample_df exceeds sample_size"
                    ));
                }
                // Serving reads a sampled word's probabilities off its
                // posting: they must be the sample summary's own.
                let position = index.positions[at] as usize;
                let same = summary.terms().get(position) == Some(&index.terms[pos]) && {
                    let (p_df, p_tf) = summary.p_at(position);
                    summary.sample_df_at(position) == index.sample_df[at]
                        && p_df.to_bits() == index.p_df[at].to_bits()
                        && p_tf.to_bits() == index.p_tf[at].to_bits()
                };
                if !same {
                    return Err(format!(
                        "database `{name}`: posting disagrees with the sample summary"
                    ));
                }
                let p_df = index.p_df[at];
                if index.max_p_df[pos] < p_df
                    || index.max_p_tf[pos] < index.p_tf[at]
                    || index.max_df[pos] < p_df * summary.db_size()
                {
                    return Err("term maxima do not dominate postings".to_string());
                }
            }
        }
        Ok(Catalog::assemble(names, unshrunk, shrunk, gammas, index))
    }

    /// Number of databases.
    pub fn len(&self) -> usize {
        self.unshrunk.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.unshrunk.is_empty()
    }

    /// Database names, in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The frozen unshrunk summary `Ŝ(D)` of database `db`.
    pub fn unshrunk(&self, db: usize) -> &FrozenSummary {
        &self.unshrunk[db]
    }

    /// The shrunk summary `R̂(D)` of database `db`, evaluated on demand.
    pub fn shrunk(&self, db: usize) -> ShrunkView<'_> {
        self.shrunk.view(db, &self.unshrunk[db])
    }

    /// Every database's `R̂(D)`, factored.
    pub fn shrunk_summaries(&self) -> &ShrunkSummaries {
        &self.shrunk
    }

    /// Bytes of column data the catalog holds: sample summaries, the
    /// factored shrunk summaries (category columns included) and the
    /// posting index.
    pub fn resident_bytes(&self) -> usize {
        let i = &self.index;
        let per_term = i.terms.len() + i.offsets.len() + i.effective_counts.len();
        let per_term_f64 = i.max_df.len() + i.max_p_df.len() + i.max_p_tf.len();
        self.unshrunk
            .iter()
            .map(FrozenSummary::resident_bytes)
            .sum::<usize>()
            + (self.sizes.len() + self.word_counts.len()) * size_of::<f64>()
            + self.shrunk.resident_bytes()
            + (per_term + i.dbs.len() + i.sample_df.len() + i.positions.len()) * size_of::<u32>()
            + (per_term_f64 + i.p_df.len() + i.p_tf.len()) * size_of::<f64>()
            + i.effective.len()
    }

    /// The resolved power-law exponent γ of database `db`.
    pub fn gamma(&self, db: usize) -> f64 {
        self.gammas[db]
    }

    /// All resolved γ exponents, in database order.
    pub fn gammas(&self) -> &[f64] {
        &self.gammas
    }

    /// Every database's `|D̂|`, in database order.
    pub(crate) fn db_sizes(&self) -> &[f64] {
        &self.sizes
    }

    /// Every database's `cw(D)`, in database order.
    pub(crate) fn word_counts(&self) -> &[f64] {
        &self.word_counts
    }

    /// Mean database word count (CORI's `mcw`), a catalog constant.
    pub fn mcw(&self) -> f64 {
        self.mcw
    }

    /// Smallest unshrunk word count `cw(D)` over the catalog (0 when
    /// empty) — floor for score-bound denominators.
    pub fn min_word_count(&self) -> f64 {
        self.min_word_count
    }

    /// The CSR posting index.
    pub fn posting_index(&self) -> &PostingIndex {
        &self.index
    }

    /// The postings of `term`, if any database mentions it.
    pub fn postings(&self, term: TermId) -> Option<Postings<'_>> {
        self.index.get(term)
    }

    /// Look every word of `query` up in the posting index — the only
    /// search a request makes there; everything below reads `plan`.
    pub(crate) fn plan(&self, query: &[TermId], plan: &mut QueryPlan) {
        plan.rows.clear();
        plan.rows.extend(
            query
                .iter()
                .map(|&w| self.index.row(w).map_or(ABSENT, |row| row as u32)),
        );
    }

    /// The postings of the plan's `k`-th word, if any database mentions it.
    pub(crate) fn planned_postings(&self, plan: &QueryPlan, k: usize) -> Option<Postings<'_>> {
        let row = plan.rows[k];
        (row != ABSENT).then(|| self.index.postings_at(row as usize))
    }

    /// The score-bound maxima of `term` ([`TermBound::absent`] when no
    /// database mentions it) — what a `QueryPlan` of the one word reads
    /// off its postings.
    pub fn term_bound(&self, term: TermId) -> TermBound {
        self.index
            .get(term)
            .map_or_else(TermBound::absent, |p| p.bound)
    }

    /// The collection context a full scan would compute over every
    /// *unshrunk* view — what the Section-4 uncertainty test scores against.
    /// `cf` is read off per-term effective counts; `m` and `mcw` are
    /// catalog constants.
    pub fn unshrunk_context(&self, query: &[TermId]) -> CollectionContext {
        let (mut plan, mut ctx) = (QueryPlan::default(), CollectionContext::default());
        self.plan(query, &mut plan);
        self.planned_unshrunk_context(&plan, &mut ctx);
        ctx
    }

    /// [`Self::unshrunk_context`] of a planned query, into `ctx` (its `cf`
    /// cleared and refilled).
    pub(crate) fn planned_unshrunk_context(&self, plan: &QueryPlan, ctx: &mut CollectionContext) {
        ctx.m = self.len();
        ctx.mcw = self.mcw;
        ctx.cf.clear();
        ctx.cf.extend((0..plan.rows.len()).map(|k| {
            self.planned_postings(plan, k)
                .map_or(0, |p| p.effective_count)
        }));
    }

    /// Gather the query words' probabilities, under both models, for
    /// every database with `used_shrinkage[db]` into `rows`. The words are
    /// resolved against the category columns once per request (the
    /// posting rows come from `plan`); every (database, word) value is
    /// then mixed from the database's λs, the request's component cells
    /// and the word's posting, if the database has one. Both models cost
    /// one vector operation, so the token row is always filled.
    pub(crate) fn gather_shrunk(
        &self,
        plan: &QueryPlan,
        query: &[TermId],
        used_shrinkage: &[bool],
        rows: &mut ShrunkRows,
    ) {
        debug_assert_eq!(used_shrinkage.len(), self.len());
        let q = query.len();
        rows.dbs.clear();
        rows.sizes.clear();
        rows.word_counts.clear();
        rows.p_df.clear();
        rows.p_tf.clear();
        rows.slots.clear();
        rows.slots.resize(self.len(), ABSENT);
        for (db, _) in used_shrinkage.iter().enumerate().filter(|(_, &used)| used) {
            rows.slots[db] = rows.dbs.len() as u32;
            rows.dbs.push(db as u32);
            rows.sizes.push(self.sizes[db]);
            rows.word_counts.push(self.word_counts[db]);
        }
        if rows.dbs.is_empty() {
            return;
        }
        // Each word's postings scattered into the rows of the databases
        // being mixed: a database the postings skip lacks the word.
        rows.words.clear();
        rows.words.resize(rows.dbs.len() * q, OwnWord::ABSENT);
        for k in 0..q {
            let Some(postings) = self.planned_postings(plan, k) else {
                continue;
            };
            for (i, &db) in postings.dbs.iter().enumerate() {
                let slot = rows.slots[db as usize];
                if slot != ABSENT {
                    let own = &self.unshrunk[db as usize];
                    let (df, tf) = own.raw_column()[postings.positions[i] as usize];
                    rows.words[slot as usize * q + k] = OwnWord {
                        p: [postings.p_df[i], postings.p_tf[i]],
                        raw: [df, tf],
                    };
                }
            }
        }
        self.shrunk.prepare(query, &mut rows.mix);
        rows.p_df.resize(rows.dbs.len() * q, 0.0);
        rows.p_tf.resize(rows.dbs.len() * q, 0.0);
        let (words, scratch) = (&rows.words, &rows.mix);
        (self.shrunk).mix_rows(&rows.dbs, words, scratch, &mut rows.p_df, &mut rows.p_tf);
    }

    /// The collection context over the per-database *chosen* views: for
    /// databases keeping `Ŝ(D)` the effective flag comes from the posting
    /// index; databases switched to `R̂(D)` are probed directly (a shrunk
    /// summary may effectively contain words its sample never saw).
    /// Wraps the plan code the engine runs: a `QueryPlan`, the
    /// `ShrunkRows` gather, then the count over both.
    pub fn scoring_context(&self, query: &[TermId], used_shrinkage: &[bool]) -> CollectionContext {
        let (mut plan, mut rows) = (QueryPlan::default(), ShrunkRows::default());
        let mut ctx = CollectionContext::default();
        self.plan(query, &mut plan);
        self.gather_shrunk(&plan, query, used_shrinkage, &mut rows);
        self.planned_unshrunk_context(&plan, &mut ctx);
        self.planned_scoring_context(&plan, used_shrinkage, &rows, &mut ctx);
        ctx
    }

    /// Turn the plan's unshrunk context `ctx` into the scoring context. When
    /// any database uses shrinkage, each query word costs one pass over
    /// its flat posting slices (subtracting the shrunk databases'
    /// effective entries from the precomputed count) plus one pass over the
    /// gathered shrunk rows — all `u32` arithmetic, so the counts are
    /// exactly those of a from-scratch scan.
    pub(crate) fn planned_scoring_context(
        &self,
        plan: &QueryPlan,
        used_shrinkage: &[bool],
        rows: &ShrunkRows,
        ctx: &mut CollectionContext,
    ) {
        let qlen = plan.rows.len();
        if rows.dbs.is_empty() || qlen == 0 {
            return;
        }
        for (k, count) in ctx.cf.iter_mut().enumerate() {
            if let Some(p) = self.planned_postings(plan, k) {
                for (&db, &eff) in p.dbs.iter().zip(p.effective) {
                    *count -= u32::from(eff && used_shrinkage[db as usize]);
                }
            }
            // `SummaryView::effectively_contains`, on the gathered values.
            for (row, &size) in rows.p_df.chunks_exact(qlen).zip(&rows.sizes) {
                *count += u32::from(size * row[k] >= 0.5);
            }
        }
    }

    /// Candidate mask: `true` for databases whose unshrunk summary mentions
    /// at least one query word. A database outside the mask that scores with
    /// its unshrunk summary provably lands exactly on its default score
    /// (every query word has `p̂ = 0`) and would be dropped by the ranker, so
    /// the engine skips scoring it. Databases scoring with shrunk summaries
    /// are never skipped — shrinkage gives every word non-zero probability.
    /// Wraps a `QueryPlan` and the mask the engine fills from it.
    pub fn candidates(&self, query: &[TermId]) -> Vec<bool> {
        let (mut plan, mut mask) = (QueryPlan::default(), Vec::new());
        self.plan(query, &mut plan);
        self.planned_candidates(&plan, &mut mask);
        mask
    }

    /// [`Self::candidates`] into a reusable buffer (cleared and refilled).
    pub(crate) fn planned_candidates(&self, plan: &QueryPlan, mask: &mut Vec<bool>) {
        mask.clear();
        mask.resize(self.len(), false);
        for k in 0..plan.rows.len() {
            if let Some(p) = self.planned_postings(plan, k) {
                for &db in p.dbs {
                    mask[db as usize] = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{classified, hierarchical, sampled_summary};
    use dbselect_core::category_summary::CategoryWeighting;

    /// db 0: words 1, 2; db 1: word 1 only; db 2: empty sample.
    fn summaries() -> Vec<ContentSummary> {
        vec![
            sampled_summary(1000.0, 100, &[(1, 50), (2, 3)]),
            sampled_summary(500.0, 80, &[(1, 10)]),
            sampled_summary(200.0, 50, &[]),
        ]
    }

    fn catalog() -> Catalog {
        hierarchical(summaries()).1
    }

    #[test]
    fn postings_are_per_term_and_db_ordered() {
        let c = catalog();
        let p = c.postings(1).unwrap();
        assert_eq!(p.dbs, &[0, 1]);
        assert_eq!(p.effective_count, 2);
        assert!(c.postings(99).is_none());
        let index = c.posting_index();
        assert_eq!(index.terms(), &[1, 2]);
        assert_eq!(index.offsets(), &[0, 2, 3]);
    }

    #[test]
    fn posting_statistics_match_the_summary() {
        let c = catalog();
        let p = c.postings(2).unwrap();
        assert_eq!(p.sample_df[0], 3);
        assert_eq!(p.p_df[0].to_bits(), c.unshrunk(0).p_df(2).to_bits());
        assert_eq!(p.effective[0], c.unshrunk(0).effectively_contains(2));
    }

    #[test]
    fn unshrunk_context_matches_full_scan() {
        let c = catalog();
        let query = [1u32, 2, 77];
        let views: Vec<&dyn SummaryView> = (0..c.len())
            .map(|i| c.unshrunk(i) as &dyn SummaryView)
            .collect();
        let scanned = CollectionContext::build(&query, &views);
        let indexed = c.unshrunk_context(&query);
        assert_eq!(indexed.m, scanned.m);
        assert_eq!(indexed.cf, scanned.cf);
        assert_eq!(indexed.mcw.to_bits(), scanned.mcw.to_bits());
    }

    #[test]
    fn scoring_context_matches_per_entry_rescan() {
        let c = catalog();
        let query = [1u32, 2, 77];
        for used in [
            vec![false, false, false],
            vec![true, false, false],
            vec![false, true, true],
            vec![true, true, true],
        ] {
            let got = c.scoring_context(&query, &used);
            // Reference: count per word from scratch over the chosen views.
            let want: Vec<u32> = query
                .iter()
                .map(|&w| {
                    (0..c.len())
                        .filter(|&i| {
                            if used[i] {
                                c.shrunk(i).effectively_contains(w)
                            } else {
                                c.unshrunk(i).effectively_contains(w)
                            }
                        })
                        .count() as u32
                })
                .collect();
            assert_eq!(got.cf, want, "used_shrinkage={used:?}");
        }
    }

    #[test]
    fn candidates_require_a_query_word() {
        let c = catalog();
        assert_eq!(c.candidates(&[1]), vec![true, true, false]);
        assert_eq!(c.candidates(&[2]), vec![true, false, false]);
        assert_eq!(c.candidates(&[]), vec![false, false, false]);
        assert_eq!(c.candidates(&[99]), vec![false, false, false]);
        // The reusable-buffer form clears whatever the buffer held.
        let (mut plan, mut mask) = (QueryPlan::default(), vec![true; 7]);
        c.plan(&[1], &mut plan);
        c.planned_candidates(&plan, &mut mask);
        assert_eq!(mask, vec![true, true, false]);
    }

    #[test]
    fn gamma_falls_back_to_generic_exponent() {
        let mut s = sampled_summary(100.0, 10, &[(1, 5)]);
        s.set_gamma(-1.7);
        let c = hierarchical(vec![s, sampled_summary(100.0, 10, &[(1, 5)])]).1;
        assert_eq!(c.gamma(0), -1.7);
        assert_eq!(c.gamma(1), -2.0);
        assert_eq!(c.gammas(), &[-1.7, -2.0]);
    }

    #[test]
    fn empty_catalog_is_consistent() {
        let c = hierarchical(Vec::new()).1;
        assert!(c.is_empty());
        assert_eq!(c.mcw(), 0.0);
        let ctx = c.unshrunk_context(&[1]);
        assert_eq!(ctx.m, 0);
        assert_eq!(ctx.cf, vec![0]);
        assert!(c.posting_index().is_empty());
    }

    #[test]
    fn raw_parts_round_trip_reproduces_the_index() {
        let c = catalog();
        let index = c.posting_index();
        let (postings, terms) = (index.dbs().len(), index.terms().len());
        let mut rebuilt = PostingIndex::from_raw_parts(
            c.len(),
            index.terms().to_vec(),
            index.offsets().to_vec(),
            index.dbs().to_vec(),
            index.p_df().to_vec(),
            index.sample_df().to_vec(),
            index.positions().to_vec(),
            index.effective().to_vec(),
            vec![0.0; postings],
            vec![0.0; terms],
            vec![0.0; terms],
            vec![0.0; terms],
        )
        .unwrap();
        // Recomputing the aux columns over zeroed ones from the same
        // summaries must land on bit-identical slabs.
        let summaries: Vec<_> = (0..c.len()).map(|db| c.unshrunk(db).clone()).collect();
        rebuilt.recompute_aux(&summaries);
        assert_eq!(&rebuilt, index);
    }

    #[test]
    fn raw_parts_reject_structural_corruption() {
        let c = catalog();
        let i = c.posting_index();
        type Mutator<'a> = &'a dyn Fn(&mut Vec<TermId>, &mut Vec<u32>, &mut Vec<u32>);
        let parts = |f: Mutator| {
            let mut terms = i.terms().to_vec();
            let mut offsets = i.offsets().to_vec();
            let mut dbs = i.dbs().to_vec();
            f(&mut terms, &mut offsets, &mut dbs);
            PostingIndex::from_raw_parts(
                c.len(),
                terms,
                offsets,
                dbs,
                i.p_df().to_vec(),
                i.sample_df().to_vec(),
                i.positions().to_vec(),
                i.effective().to_vec(),
                i.p_tf().to_vec(),
                i.max_df().to_vec(),
                i.max_p_df().to_vec(),
                i.max_p_tf().to_vec(),
            )
        };
        assert!(parts(&|_, _, _| {}).is_ok());
        assert!(
            parts(&|terms, _, _| terms.reverse()).is_err(),
            "unsorted terms"
        );
        assert!(
            parts(&|_, offsets, _| offsets[1] = 9).is_err(),
            "bad offsets"
        );
        assert!(parts(&|_, offsets, _| {
            offsets.pop();
        })
        .is_err());
        assert!(parts(&|_, _, dbs| dbs[0] = 99).is_err(), "db out of range");
        assert!(parts(&|_, _, dbs| dbs.swap(0, 1)).is_err(), "unsorted dbs");
    }

    #[test]
    fn aux_columns_mirror_the_summaries() {
        let c = catalog();
        let index = c.posting_index();
        assert_eq!(index.p_tf().len(), index.dbs().len());
        assert_eq!(index.max_df().len(), index.terms().len());
        for (pos, &term) in index.terms().iter().enumerate() {
            let p = c.postings(term).unwrap();
            assert_eq!(p.p_tf.len(), p.dbs.len());
            for (j, &db) in p.dbs.iter().enumerate() {
                let s = c.unshrunk(db as usize);
                // The slab stores the exact per-summary probabilities...
                assert_eq!(p.p_tf[j].to_bits(), s.p_tf(term).to_bits());
                // ...and the maxima dominate every posting, with max_df
                // holding the exact float product the CORI kernel forms.
                assert!(p.bound.max_p_df >= p.p_df[j]);
                assert!(p.bound.max_p_tf >= p.p_tf[j]);
                assert!(p.bound.max_df >= p.p_df[j] * s.db_size());
            }
            assert_eq!(index.max_df()[pos].to_bits(), p.bound.max_df.to_bits());
        }
        // Terms outside the index get the absent bound.
        assert_eq!(c.term_bound(99), TermBound::absent());
    }

    #[test]
    fn raw_parts_validate_aux_column_lengths() {
        let c = catalog();
        let i = c.posting_index();
        let postings = i.dbs().len();
        let terms = i.terms().len();
        let with_aux = |p_tf: Vec<f64>, max_df: Vec<f64>, max_p_df: Vec<f64>, max_p_tf| {
            PostingIndex::from_raw_parts(
                c.len(),
                i.terms().to_vec(),
                i.offsets().to_vec(),
                i.dbs().to_vec(),
                i.p_df().to_vec(),
                i.sample_df().to_vec(),
                i.positions().to_vec(),
                i.effective().to_vec(),
                p_tf,
                max_df,
                max_p_df,
                max_p_tf,
            )
        };
        assert!(with_aux(
            vec![0.0; postings + 1],
            vec![0.0; terms],
            vec![0.0; terms],
            vec![0.0; terms],
        )
        .is_err());
        assert!(with_aux(
            vec![0.0; postings],
            vec![0.0; terms - 1],
            vec![0.0; terms],
            vec![0.0; terms],
        )
        .is_err());
        let rebuilt = with_aux(
            i.p_tf().to_vec(),
            i.max_df().to_vec(),
            i.max_p_df().to_vec(),
            i.max_p_tf().to_vec(),
        )
        .unwrap();
        assert_eq!(&rebuilt, i, "the freeze-time aux round-trips to equality");
    }

    /// `catalog` (frozen from `base`) after re-probing the databases of
    /// `patches`: the batch that refits each with new λs, and the full
    /// freeze of the same state — the category columns as pinned, each
    /// patched database's leaf remainder subtracting the sample it
    /// replaced.
    fn refreshed(
        catalog: &Catalog,
        base: &[ContentSummary],
        patches: &[(usize, ContentSummary)],
    ) -> (Vec<DbUpdate>, Catalog) {
        let shrunk = catalog.shrunk_summaries();
        let patch = |db: usize| patches.iter().find(|(at, _)| *at == db).map(|(_, s)| s);
        // New λs of the right length: the fitted ones, models swapped.
        let refit = |db: usize| {
            let (df, tf) = shrunk.lambdas(db);
            (tf, df)
        };
        let updates = patches
            .iter()
            .map(|(db, s)| DbUpdate {
                db: *db,
                gamma: s.gamma().unwrap_or(-2.0),
                unshrunk: FrozenSummary::from_unshrunk(s),
                lambdas: refit(*db),
            })
            .collect();
        let dbs = (0..catalog.len()).map(|db| ProfiledDb {
            name: catalog.names()[db].clone(),
            summary: patch(db).unwrap_or(&base[db]),
            category: shrunk.category(db),
            lambdas: patch(db).map_or_else(|| shrunk.lambdas(db), |_| refit(db)),
            basis: patch(db).map(|_| Arc::new(Basis::of(catalog.unshrunk(db)))),
        });
        let categories = Arc::clone(shrunk.categories());
        let full = Catalog::freeze(categories, shrunk.uniform_p(), dbs).unwrap();
        (updates, full)
    }

    fn assert_catalogs_identical(a: &Catalog, b: &Catalog) {
        assert_eq!(a.names(), b.names());
        assert_eq!(a.mcw().to_bits(), b.mcw().to_bits());
        assert_eq!(a.min_word_count().to_bits(), b.min_word_count().to_bits());
        for db in 0..a.len() {
            assert_eq!(a.gamma(db).to_bits(), b.gamma(db).to_bits(), "gamma {db}");
            assert_eq!(a.unshrunk(db), b.unshrunk(db), "unshrunk {db}");
            let (x, y) = (a.shrunk(db), b.shrunk(db));
            for t in (0..12).chain([u32::MAX - 1]) {
                assert_eq!(x.p_df(t).to_bits(), y.p_df(t).to_bits(), "shrunk {db}");
                assert_eq!(x.p_tf(t).to_bits(), y.p_tf(t).to_bits(), "shrunk {db}");
            }
        }
        assert_eq!(a.shrunk_summaries(), b.shrunk_summaries());
        assert_eq!(a.posting_index(), b.posting_index());
        assert_eq!(a.resident_bytes(), b.resident_bytes());
    }

    #[test]
    fn resident_bytes_count_every_column_once() {
        // However many databases share a category path, the catalog holds
        // its columns once: a database over the same vocabulary adds its
        // sample summary, its λs and its path, never a column of the
        // categories' size.
        let vocabulary: Vec<(TermId, u32)> = (0..500).map(|t| (t, 1)).collect();
        let sample = |i: u32| sampled_summary(100.0 * f64::from(i + 1), 50, &vocabulary);
        let shrunk_bytes = |n: u32| {
            let dbs = (0..n).map(|i| ("Health/Heart", sample(i))).collect();
            let c = classified(CategoryWeighting::BySize, dbs, Vec::new()).1;
            let i = c.posting_index();
            let index_bytes = (i.terms().len() * 2 + i.offsets().len()) * 4
                + i.terms().len() * 3 * 8
                + i.dbs().len() * (4 + 8 + 4 + 4 + 1 + 8);
            let unshrunk_bytes: usize =
                (0..c.len()).map(|db| c.unshrunk(db).resident_bytes()).sum();
            let shrunk = c.shrunk_summaries().resident_bytes();
            // The dense `|D̂|` and `cw(D)` columns.
            let size_columns = c.len() * 2 * 8;
            assert_eq!(
                c.resident_bytes(),
                unshrunk_bytes + shrunk + index_bytes + size_columns
            );
            shrunk
        };
        let (one, two, four) = (shrunk_bytes(1), shrunk_bytes(2), shrunk_bytes(4));
        assert!(one > 500 * 3 * 20, "the columns are counted: {one}");
        assert_eq!(four - two, 2 * (two - one), "a constant per database");
        // λs, path, mixture record: a few hundred bytes, where a column
        // of the vocabulary's size is 10 000.
        assert!(two - one < 1_000, "no per-database column: {}", two - one);
    }

    #[test]
    fn apply_updates_keeps_untouched_columns_shared() {
        let base = summaries();
        let catalog = hierarchical(base.clone()).1;
        // b re-probed, with a word (9) no column has: only its sample and
        // λs change; the category columns are the ones every database
        // already shared.
        let patch = sampled_summary(640.0, 90, &[(2, 7), (9, 4)]);
        let (updates, full) = refreshed(&catalog, &base, &[(1, patch)]);
        let updated = catalog.apply_updates(&updates).unwrap();
        assert!(Arc::ptr_eq(
            updated.shrunk_summaries().categories(),
            catalog.shrunk_summaries().categories()
        ));
        assert_catalogs_identical(&updated, &full);
    }

    #[test]
    fn apply_updates_is_bit_identical_to_full_rebuild() {
        let base = summaries();
        let catalog = hierarchical(base.clone()).1;
        // b gains a brand-new term (9) and drops term 1; c's empty sample
        // fills in; a is untouched. Together these exercise term
        // insertion, row shrink, and whole-term removal (term 1 keeps
        // only a's posting).
        let mut refreshed_b = sampled_summary(640.0, 90, &[(2, 7), (9, 4)]);
        refreshed_b.set_gamma(-1.8);
        let patches = [
            (1, refreshed_b),
            (2, sampled_summary(250.0, 60, &[(1, 2), (7, 9)])),
        ];
        let (updates, full) = refreshed(&catalog, &base, &patches);
        let incremental = catalog.apply_updates(&updates).unwrap();
        assert_catalogs_identical(&incremental, &full);
    }

    #[test]
    fn apply_updates_drops_terms_nobody_mentions_anymore() {
        let base = summaries()[..2].to_vec();
        let catalog = hierarchical(base.clone()).1;
        // a empties out: term 2 loses its only posting and must vanish
        // from the index, exactly as a full rebuild would drop it.
        let patches = [(0, sampled_summary(900.0, 70, &[]))];
        let (updates, full) = refreshed(&catalog, &base, &patches);
        let incremental = catalog.apply_updates(&updates).unwrap();
        assert_catalogs_identical(&incremental, &full);
        assert!(incremental.postings(2).is_none());
    }

    #[test]
    fn apply_updates_rejects_bad_batches() {
        let base = vec![
            sampled_summary(1000.0, 100, &[(1, 50)]),
            sampled_summary(500.0, 80, &[(1, 10)]),
        ];
        let catalog = hierarchical(base.clone()).1;
        let patch = sampled_summary(100.0, 10, &[(1, 5)]);
        let good = refreshed(&catalog, &base, &[(0, patch)]).0.remove(0);
        let mut oob = good.clone();
        oob.db = 7;
        assert!(catalog.apply_updates(&[oob]).is_err());
        assert!(catalog.apply_updates(&[good.clone(), good]).is_err());
        assert!(catalog.apply_updates(&[]).is_ok(), "empty batch is a no-op");
    }

    proptest::proptest! {
        /// Randomized equivalence: patching any subset of databases with
        /// arbitrary replacement summaries lands on the same catalog —
        /// bit for bit, aux maxima included — as freezing the updated
        /// state from scratch.
        #[test]
        fn random_update_batches_match_full_rebuild(
            base in proptest::collection::vec(
                (10.0f64..5_000.0, 5u32..100,
                 proptest::collection::vec((0u32..8, 1u32..40), 0..6)),
                1..6),
            patch in proptest::collection::vec(
                (10.0f64..5_000.0, 5u32..100,
                 proptest::collection::vec((0u32..8, 1u32..40), 0..6)),
                1..6),
            mask in proptest::collection::vec(proptest::arbitrary::any::<bool>(), 6),
        ) {
            let summary = |&(size, n, ref words): &(f64, u32, Vec<(u32, u32)>)| {
                let mut dedup: Vec<(u32, u32)> = Vec::new();
                for &(t, df) in words {
                    if !dedup.iter().any(|&(seen, _)| seen == t) {
                        dedup.push((t, df.min(n)));
                    }
                }
                sampled_summary(size, n, &dedup)
            };
            let base: Vec<ContentSummary> = base.iter().map(summary).collect();
            let catalog = hierarchical(base.clone()).1;
            let patches: Vec<(usize, ContentSummary)> = patch
                .iter()
                .enumerate()
                .take(base.len())
                .filter(|&(db, _)| mask[db])
                .map(|(db, spec)| (db, summary(spec)))
                .collect();
            let (updates, full) = refreshed(&catalog, &base, &patches);
            let incremental = catalog.apply_updates(&updates).unwrap();
            assert_catalogs_identical(&incremental, &full);
        }
    }
}
