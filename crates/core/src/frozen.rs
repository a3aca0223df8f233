//! Columnar, immutable summary views for the serving hot path.
//!
//! [`ContentSummary`] and [`ShrunkSummary`] answer `p̂(w|D)` lookups from a
//! hash map and per-component searches — the right shape while summaries
//! are being *built*, but the wrong shape for *serving*, where summaries
//! are frozen and every query walks thousands of probability lookups.
//!
//! * A database's sample summary `Ŝ(D)` freezes into a [`FrozenSummary`]:
//!   term-sorted parallel arrays (term ids, the raw `df` / `tf`
//!   estimates, `sample_df`) answering lookups by binary search over
//!   contiguous memory; `p̂(w|D)` is the ratio, computed when looked up.
//! * The shrunk summaries `R̂(D)` of a catalog are held in one form,
//!   **factored** as Eq. 2 defines them: a mixture over the components of
//!   the database's category path. A [`ShrunkSummaries`] keeps the
//!   category aggregates of Eq. 1 once per catalog ([`CategoryColumns`],
//!   term-major), and per database only its category, its λ pair and the
//!   sample column its leaf remainder subtracts. A value `p̂_R(w|D)` is
//!   computed when a request asks for it — both models at once, lane by
//!   lane — and no database × vocabulary matrix exists.
//!
//! Both are **bit-preserving**. A sample summary's values come from its
//! own lookup path. A shrunk value is computed with exactly the
//! floating-point operations of `ShrunkSummary::mix` in exactly its order:
//! `λ_0 · uniform_p`, then `+ λ_i · p̂(w|C_i)` per component, root first,
//! skipping `λ_i == 0` and components that lack the word, then
//! `+ λ_{m+1} · p̂(w|D)`; each component value is the quotient
//! [`category_summary`](crate::category_summary)'s sorted merge stores,
//! evaluated for the one word (same `take`, same denominator). The lazy
//! [`ShrunkSummary`] — the mixture of the components
//! `CategorySummaries::components_for` subtracts the overlap from — is
//! the reference the factored values are tested against.
//!
//! [`ShrunkSummary`]: crate::shrinkage::ShrunkSummary

use std::sync::Arc;

use textindex::TermId;

use crate::category_summary::{take, Aggregate, CategoryWeighting};
use crate::hierarchy::{CategoryId, Hierarchy};
use crate::summary::{ratio, ContentSummary, SummaryView};

/// A database's sample summary frozen into term-sorted parallel arrays:
/// term ids, the raw `(df, tf)` estimates and `sample_df`. Its columns
/// are boxed slices: the struct stays one cache line, which every
/// request's summary choice reads per database.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenSummary {
    db_size: f64,
    sample_size: u32,
    word_count: f64,
    /// Strictly ascending term ids; the index into the value columns.
    terms: Box<[TermId]>,
    /// The raw `(df, tf)` estimates, parallel to `terms`: `p̂(w|D)` and
    /// the token probability are their [`ratio`]s over `db_size` and
    /// `word_count`, computed when looked up.
    raw: Box<[(f64, f64)]>,
    /// Parallel to `terms`, or empty when every value is zero:
    /// [`Self::sample`] normalises, so equality never sees which shape
    /// the column arrived in.
    sample_df: Box<[u32]>,
}

impl FrozenSummary {
    /// Freeze a database content summary.
    pub fn from_unshrunk(s: &ContentSummary) -> FrozenSummary {
        let mut words: Vec<(TermId, u32, f64, f64)> = s
            .iter()
            .map(|(t, w)| (t, w.sample_df, w.df, w.tf))
            .collect();
        words.sort_unstable_by_key(|&(t, ..)| t);
        let (mut terms, mut sample_df) = (Vec::with_capacity(words.len()), Vec::new());
        let mut raw = Vec::with_capacity(words.len());
        sample_df.reserve_exact(words.len());
        for (t, s_df, w_df, w_tf) in words {
            terms.push(t);
            sample_df.push(s_df);
            raw.push((w_df, w_tf));
        }
        FrozenSummary::sample(
            (s.db_size(), s.sample_size(), s.total_tf()),
            terms,
            sample_df,
            raw,
        )
    }

    /// The one constructor: every summary passes through here, which is
    /// what keeps the elided `sample_df` column a single representation.
    fn sample(
        (db_size, sample_size, word_count): (f64, u32, f64),
        terms: Vec<TermId>,
        mut sample_df: Vec<u32>,
        raw: Vec<(f64, f64)>,
    ) -> FrozenSummary {
        if sample_df.iter().all(|&d| d == 0) {
            sample_df = Vec::new();
        }
        FrozenSummary {
            db_size,
            sample_size,
            word_count,
            terms: terms.into(),
            raw: raw.into(),
            sample_df: sample_df.into(),
        }
    }

    /// Assemble a sample summary from its raw columns — the snapshot load
    /// path; the probabilities are the ratios [`Self::from_unshrunk`]'s
    /// are. Validates the structural invariants a codec cannot express
    /// (strictly ascending terms, equal column lengths, no word in more
    /// sample documents than the sample holds, finite estimates), so
    /// corrupt input is rejected instead of silently mis-searching.
    pub fn from_raw_parts(
        db_size: f64,
        sample_size: u32,
        word_count: f64,
        terms: Vec<TermId>,
        sample_df: Vec<u32>,
        df: Vec<f64>,
        tf: Vec<f64>,
    ) -> Result<FrozenSummary, &'static str> {
        if sample_df.len() != terms.len() || df.len() != terms.len() || tf.len() != terms.len() {
            return Err("frozen summary columns disagree on length");
        }
        if terms.windows(2).any(|w| w[0] >= w[1]) {
            return Err("frozen summary terms not strictly ascending");
        }
        if sample_df.iter().any(|&s| s > sample_size) {
            return Err("frozen summary sample_df exceeds sample_size");
        }
        if !all_finite([db_size, word_count].iter().chain(&df).chain(&tf)) {
            return Err("frozen summary estimates must be finite");
        }
        let totals = (db_size, sample_size, word_count);
        Ok(FrozenSummary::sample(
            totals,
            terms,
            sample_df,
            df.into_iter().zip(tf).collect(),
        ))
    }

    /// Bytes of column data this summary holds, its term column included.
    pub fn resident_bytes(&self) -> usize {
        self.raw.len() * size_of::<(f64, f64)>()
            + (self.sample_df.len() + self.terms.len()) * size_of::<u32>()
    }

    /// The index of `term` in the columns, if stored.
    pub fn position(&self, term: TermId) -> Option<usize> {
        self.terms.binary_search(&term).ok()
    }

    /// `p̂(w|D)` and the token probability of the `i`-th stored word.
    pub fn p_at(&self, i: usize) -> (f64, f64) {
        let (df, tf) = self.raw[i];
        (ratio(df, self.db_size), ratio(tf, self.word_count))
    }

    /// Estimated database size `|D̂|`.
    pub fn db_size(&self) -> f64 {
        self.db_size
    }

    /// Number of sample documents the summary was built from.
    pub fn sample_size(&self) -> u32 {
        self.sample_size
    }

    /// Estimated total token count (CORI's `cw(D)`).
    pub fn word_count(&self) -> f64 {
        self.word_count
    }

    /// `p̂(w|D)` under the document-frequency model (0 when absent).
    pub fn p_df(&self, term: TermId) -> f64 {
        self.position(term).map_or(0.0, |i| self.p_at(i).0)
    }

    /// `p̂(w|D)` under the term-frequency model (0 when absent).
    pub fn p_tf(&self, term: TermId) -> f64 {
        self.position(term).map_or(0.0, |i| self.p_at(i).1)
    }

    /// Number of *sample* documents containing `term` (0 when absent).
    pub fn sample_df(&self, term: TermId) -> u32 {
        self.position(term).map_or(0, |i| self.sample_df_at(i))
    }

    /// `sample_df` of the `i`-th stored term (`i < len()`); 0 throughout
    /// when the column is elided.
    pub fn sample_df_at(&self, i: usize) -> u32 {
        debug_assert!(i < self.len());
        self.sample_df.get(i).copied().unwrap_or(0)
    }

    /// Number of explicitly stored terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no term is explicitly stored.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The sorted term-id column.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// The raw `(df, tf)` estimates, parallel to [`Self::terms`].
    pub fn raw_column(&self) -> &[(f64, f64)] {
        &self.raw
    }
}

/// True when every value is finite.
fn all_finite<'a>(values: impl IntoIterator<Item = &'a f64>) -> bool {
    values.into_iter().all(|v| v.is_finite())
}

impl SummaryView for FrozenSummary {
    fn db_size(&self) -> f64 {
        self.db_size
    }

    fn p_df(&self, term: TermId) -> f64 {
        FrozenSummary::p_df(self, term)
    }

    fn p_tf(&self, term: TermId) -> f64 {
        FrozenSummary::p_tf(self, term)
    }

    fn word_count(&self) -> f64 {
        self.word_count
    }
}

// ---------------------------------------------------------------------
// Factored shrunk summaries
// ---------------------------------------------------------------------

/// A value under each probability model, `[df, tf]`: the two models are
/// mixed in step, lane by lane, so one vector instruction serves both.
type Pair = [f64; 2];

/// A value a component column, aggregate or sample lacks. Every stored
/// estimate is finite (the loaders check) and every quotient of them is a
/// number, so NaN marks absence and nothing else.
pub const ABSENT: f64 = f64::NAN;

/// Both lanes absent.
const NONE: Pair = [ABSENT; 2];

/// Marks a root in [`CategoryColumns`]' parent column.
const NO_PARENT: u32 = u32::MAX;

/// Marks a word no aggregate has in [`CategoryColumns`]' row column.
const NO_ROW: u32 = u32::MAX;

/// One category's scalars, as its [`Aggregate`] holds them, plus the
/// denominators of the edge into it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CategoryStats {
    n_dbs: u32,
    denoms: Pair,
    size: f64,
    /// The parent's denominators less this category's, clamped at 0
    /// (zeros for a root).
    edge_denoms: Pair,
}

/// The category aggregates of Eq. 1 — once per catalog, however many
/// databases lie below a category — held **term-major** for serving: per
/// word, the categories whose aggregate has it (ascending) with the
/// accumulated `[acc_df, acc_tf]`, one CSR slab over all categories.
/// A request resolves each query word to its row once; an edge remainder
/// `agg(parent) − agg(child)` or a leaf remainder is then computed from
/// that row, never read from a column of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryColumns {
    weighting: CategoryWeighting,
    /// Category names (the hierarchy's), by id.
    names: Vec<String>,
    /// Parent per category ([`NO_PARENT`] for a root); parents precede
    /// their children.
    parents: Vec<u32>,
    stats: Vec<CategoryStats>,
    /// The slab row of each term id ([`NO_ROW`] for a word no aggregate
    /// has): a request resolves a word with one load.
    rows: Vec<u32>,
    /// `offsets[r]..offsets[r + 1]` is row `r`'s slice of the slabs; rows
    /// ascend by term.
    offsets: Vec<u32>,
    categories: Vec<u32>,
    acc: Vec<Pair>,
}

impl CategoryColumns {
    /// The aggregates of `hierarchy`'s categories (indexed by category id)
    /// under `weighting`.
    pub fn new(
        hierarchy: &Hierarchy,
        aggregates: &[Aggregate],
        weighting: CategoryWeighting,
    ) -> CategoryColumns {
        let names = hierarchy
            .ids()
            .map(|c| hierarchy.name(c).to_string())
            .collect();
        let parents = hierarchy.ids().map(|c| hierarchy.parent(c)).collect();
        CategoryColumns::from_raw_parts(weighting, names, parents, aggregates)
            .expect("a hierarchy's aggregates are consistent")
    }

    /// Assemble from a hierarchy's names and parents plus one aggregate
    /// per category — the snapshot load path. Rejects a parent that does
    /// not precede its child, a count mismatch and a non-finite sum; each
    /// aggregate has been validated by [`Aggregate::from_raw_parts`].
    pub fn from_raw_parts(
        weighting: CategoryWeighting,
        names: Vec<String>,
        parents: Vec<Option<CategoryId>>,
        aggregates: &[Aggregate],
    ) -> Result<CategoryColumns, &'static str> {
        if names.len() != parents.len() || aggregates.len() != parents.len() {
            return Err("one name, parent and aggregate per category required");
        }
        if parents.first().is_some_and(Option::is_some) {
            return Err("the first category must be a root");
        }
        if parents
            .iter()
            .enumerate()
            .any(|(c, p)| p.is_some_and(|p| p >= c))
        {
            return Err("a category's parent must precede it");
        }
        // Mixing marks a word an aggregate lacks with NaN.
        if !aggregates.iter().all(|a| {
            all_finite(
                [a.denoms().0, a.denoms().1]
                    .iter()
                    .chain(a.acc_df())
                    .chain(a.acc_tf()),
            )
        }) {
            return Err("category aggregate values must be finite");
        }
        let end = aggregates
            .iter()
            .filter_map(|a| a.terms().last())
            .max()
            .map_or(0, |&t| t as usize + 1);
        // Counting sort by term: each word's row lists its categories in
        // ascending order because categories are visited in order.
        let mut cursor = vec![0u32; end];
        for a in aggregates {
            for &t in a.terms() {
                cursor[t as usize] += 1;
            }
        }
        let (mut rows, mut offsets) = (vec![NO_ROW; end], vec![0u32]);
        let mut total = 0u32;
        for (t, count) in cursor.iter_mut().enumerate() {
            if *count > 0 {
                rows[t] = offsets.len() as u32 - 1;
                let start = total;
                total += *count;
                offsets.push(total);
                *count = start;
            }
        }
        let total = total as usize;
        let (mut categories, mut acc) = (vec![0u32; total], vec![[0f64; 2]; total]);
        for (c, a) in aggregates.iter().enumerate() {
            for (i, &t) in a.terms().iter().enumerate() {
                let at = cursor[t as usize] as usize;
                cursor[t as usize] += 1;
                categories[at] = c as u32;
                acc[at] = [a.acc_df()[i], a.acc_tf()[i]];
            }
        }
        let denoms = |a: &Aggregate| [a.denoms().0, a.denoms().1];
        let stats = aggregates
            .iter()
            .zip(&parents)
            .map(|(a, parent)| CategoryStats {
                n_dbs: a.n_dbs() as u32,
                denoms: denoms(a),
                size: a.size(),
                edge_denoms: parent.map_or([0.0; 2], |p| {
                    let (p, c) = (denoms(&aggregates[p]), denoms(a));
                    [(p[0] - c[0]).max(0.0), (p[1] - c[1]).max(0.0)]
                }),
            })
            .collect();
        Ok(CategoryColumns {
            weighting,
            names,
            parents: parents
                .into_iter()
                .map(|p| p.map_or(NO_PARENT, |p| p as u32))
                .collect(),
            stats,
            rows,
            offsets,
            categories,
            acc,
        })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True when there is no category.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// The weighting the aggregates were summed under.
    pub fn weighting(&self) -> CategoryWeighting {
        self.weighting
    }

    /// The name of `category`.
    pub fn name(&self, category: CategoryId) -> &str {
        &self.names[category]
    }

    /// The parent of `category` (`None` for a root).
    pub fn parent(&self, category: CategoryId) -> Option<CategoryId> {
        let p = self.parents[category];
        (p != NO_PARENT).then_some(p as CategoryId)
    }

    /// The categories from the root down to `category`.
    pub fn path_from_root(&self, category: CategoryId) -> Vec<CategoryId> {
        let mut path = vec![category];
        while let Some(p) = self.parent(*path.last().expect("never empty")) {
            path.push(p);
        }
        path.reverse();
        path
    }

    /// `Root/…/name` of `category`, as [`Hierarchy::full_name`] spells it.
    pub fn full_name(&self, category: CategoryId) -> String {
        let path: Vec<&str> = self
            .path_from_root(category)
            .into_iter()
            .map(|c| self.name(c))
            .collect();
        path.join("/")
    }

    /// Every category's aggregate, rebuilt category-major in one pass over
    /// the slab (what a snapshot writes).
    pub fn aggregates(&self) -> Vec<Aggregate> {
        self.aggregates_of(&(0..self.len()).collect::<Vec<_>>())
    }

    /// The aggregates of `categories` (distinct ids), in that order, in one
    /// pass over the slab (what a refresh fit of one database reads: its
    /// category path's).
    pub fn aggregates_of(&self, categories: &[CategoryId]) -> Vec<Aggregate> {
        let mut slot = vec![usize::MAX; self.len()];
        for (i, &c) in categories.iter().enumerate() {
            slot[c] = i;
        }
        let mut columns: Vec<(Vec<TermId>, Vec<f64>, Vec<f64>)> =
            vec![Default::default(); categories.len()];
        let rows = self
            .rows
            .iter()
            .enumerate()
            .filter(|&(_, &row)| row != NO_ROW);
        for (term, &row) in rows {
            let (term, row) = (term as TermId, row as usize);
            for at in self.offsets[row] as usize..self.offsets[row + 1] as usize {
                if let Some(column) = columns.get_mut(slot[self.categories[at] as usize]) {
                    column.0.push(term);
                    column.1.push(self.acc[at][0]);
                    column.2.push(self.acc[at][1]);
                }
            }
        }
        columns
            .into_iter()
            .zip(categories)
            .map(|((terms, acc_df, acc_tf), &c)| {
                let s = &self.stats[c];
                let denoms = (s.denoms[0], s.denoms[1]);
                Aggregate::from_raw_parts(s.n_dbs as usize, denoms, s.size, terms, acc_df, acc_tf)
                    .expect("rows ascend by term")
            })
            .collect()
    }

    /// The slab row of `term`, if some aggregate has it.
    #[inline]
    fn row(&self, term: TermId) -> Option<usize> {
        let row = self.rows.get(term as usize).copied().unwrap_or(NO_ROW);
        (row != NO_ROW).then_some(row as usize)
    }

    /// The sums of `category` for `term` ([`NONE`] when its aggregate
    /// lacks the word).
    fn acc(&self, term: TermId, category: usize) -> Pair {
        self.row(term)
            .and_then(|row| {
                let (lo, hi) = (self.offsets[row] as usize, self.offsets[row + 1] as usize);
                let at = self.categories[lo..hi]
                    .binary_search(&(category as u32))
                    .ok()?;
                Some(self.acc[lo + at])
            })
            .unwrap_or(NONE)
    }

    /// The remainder of the edge into `child` (not a root) for a word
    /// whose sums in its parent's and its own aggregate are `left` and
    /// `right`.
    #[inline(always)]
    fn edge(&self, child: u32, left: Pair, right: Pair) -> Pair {
        remainder(left, right, self.stats[child as usize].edge_denoms)
    }

    /// Bytes of column data held.
    pub fn resident_bytes(&self) -> usize {
        (self.rows.len() + self.offsets.len() + self.categories.len() + self.parents.len())
            * size_of::<u32>()
            + self.acc.len() * size_of::<Pair>()
            + self.stats.len() * size_of::<CategoryStats>()
            + self.names.iter().map(String::len).sum::<usize>()
    }
}

/// The sample column a database's leaf remainder subtracts, when it is no
/// longer the database's own: a refresh re-fits λ against the components
/// pinned when its chain began, so a refreshed database keeps subtracting
/// the sample it had then. Raw estimates plus the totals their ratios
/// divide by.
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    db_size: f64,
    word_count: f64,
    terms: Vec<TermId>,
    /// `(df, tf)` per word, parallel to `terms`.
    raw: Vec<(f64, f64)>,
}

impl Basis {
    /// The basis a sample summary makes: its raw columns.
    pub fn of(own: &FrozenSummary) -> Basis {
        Basis {
            db_size: own.db_size,
            word_count: own.word_count,
            terms: own.terms.to_vec(),
            raw: own.raw.to_vec(),
        }
    }

    /// Reassemble from decoded columns, validating them.
    pub fn from_raw_parts(
        db_size: f64,
        word_count: f64,
        terms: Vec<TermId>,
        df: Vec<f64>,
        tf: Vec<f64>,
    ) -> Result<Basis, &'static str> {
        if df.len() != terms.len() || tf.len() != terms.len() {
            return Err("basis columns disagree on length");
        }
        if terms.windows(2).any(|w| w[0] >= w[1]) {
            return Err("basis terms not strictly ascending");
        }
        if !all_finite([db_size, word_count].iter().chain(&df).chain(&tf)) {
            return Err("basis estimates must be finite");
        }
        Ok(Basis {
            db_size,
            word_count,
            terms,
            raw: df.into_iter().zip(tf).collect(),
        })
    }

    /// `|D̂|` of the basis sample.
    pub fn db_size(&self) -> f64 {
        self.db_size
    }

    /// Token count of the basis sample.
    pub fn word_count(&self) -> f64 {
        self.word_count
    }

    /// Its words, ascending.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Raw `(df, tf)` estimates, parallel to [`Self::terms`].
    pub fn raw(&self) -> &[(f64, f64)] {
        &self.raw
    }

    /// What the basis adds to its leaf aggregate for `term` under
    /// `weighting` ([`NONE`] when it lacks the word).
    fn contribution(&self, weighting: CategoryWeighting, term: TermId) -> Pair {
        let Ok(i) = self.terms.binary_search(&term) else {
            return NONE;
        };
        let (df, tf) = self.raw[i];
        match weighting {
            CategoryWeighting::BySize => [df, tf],
            CategoryWeighting::Uniform => [ratio(df, self.db_size), ratio(tf, self.word_count)],
        }
    }

    fn resident_bytes(&self) -> usize {
        self.terms.len() * size_of::<u32>() + self.raw.len() * size_of::<(f64, f64)>()
    }
}

/// What a sample with totals `(db_size, word_count)` adds to a category
/// aggregate's denominators under `weighting`.
fn contribution_denoms(weighting: CategoryWeighting, totals: (f64, f64)) -> (f64, f64) {
    match weighting {
        CategoryWeighting::BySize => totals,
        CategoryWeighting::Uniform => (1.0, 1.0),
    }
}

/// One edge component of a database's `R̂(D)` with its weights `λ_i`:
/// the remainder of the category edge into category `cell`,
/// `agg(parent(cell)) − agg(cell)`. A request fills every edge cell for
/// its words in [`ShrunkSummaries::prepare`], so mixing reads one value
/// per step.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    lambda: Pair,
    cell: u32,
}

/// One database's mixture as mixing reads it: where its steps (the edges
/// of its category path, root first) lie in the shared step array, `λ_0`,
/// the leaf remainder's category, weights, basis and denominators, and
/// its own `λ_{m+1}`.
#[derive(Debug, Clone, PartialEq)]
struct Head {
    start: u32,
    len: u32,
    /// The leaf category: the database's own.
    leaf: u32,
    /// `λ_0`: `λ_0 · uniform_p` starts every value and is the value of a
    /// word no column has.
    lambda0: Pair,
    /// The leaf remainder's `λ`.
    leaf_lambda: Pair,
    /// The leaf remainder's denominators, clamped at 0 (a non-positive
    /// one empties that model's column).
    leaf_denoms: Pair,
    /// `λ_{m+1}`.
    own: Pair,
    /// The leaf remainder's basis; `None` while it is the database's own
    /// sample column.
    basis: Option<Arc<Basis>>,
}

/// A query word as a database's own sample has it: its `[p̂(w|D),
/// p_tf(w|D)]` (the values the posting index holds for the pair) and its
/// raw `[df, tf]` estimates — [`ABSENT`] throughout when the sample lacks
/// the word.
#[derive(Debug, Clone, Copy)]
pub struct OwnWord {
    pub p: [f64; 2],
    pub raw: [f64; 2],
}

impl OwnWord {
    /// A word the sample lacks.
    pub const ABSENT: OwnWord = OwnWord { p: NONE, raw: NONE };

    /// `term` as `own` has it.
    pub fn of(own: &FrozenSummary, term: TermId) -> OwnWord {
        own.position(term)
            .map_or(OwnWord::ABSENT, |i| OwnWord::at(own, i))
    }

    /// The `i`-th word of `own`.
    pub fn at(own: &FrozenSummary, i: usize) -> OwnWord {
        let (p_df, p_tf) = own.p_at(i);
        let (df, tf) = own.raw[i];
        OwnWord {
            p: [p_df, p_tf],
            raw: [df, tf],
        }
    }
}

/// What mixing one request's query words across many databases shares:
/// every category's sums for the words, copied out of the slab into a
/// dense table, and every edge cell a database's step can read (see
/// [`Step`]) computed once. Both are word-major: `acc[k * categories + c]`
/// holds category `c`'s sums for word `k`, `components[k * categories +
/// c]` the remainder of the edge into `c`. Filled by
/// [`ShrunkSummaries::prepare`]; recyclable across requests. Absent values
/// are [`ABSENT`].
#[derive(Debug, Default)]
pub struct MixScratch {
    terms: Vec<TermId>,
    acc: Vec<Pair>,
    components: Vec<Pair>,
}

/// The shrunk summaries `R̂(D)` of a catalog in factored form: the
/// category columns once, and per database its λs and mixture components
/// (see the module docs). Values are computed on demand,
/// `to_bits`-identical to the materialized mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrunkSummaries {
    uniform_p: f64,
    categories: Arc<CategoryColumns>,
    heads: Vec<Head>,
    /// Every database's steps, database after database, so a request
    /// walking databases in order reads them in order.
    steps: Vec<Step>,
    /// The categories some database's path enters by an edge, ascending:
    /// the edge cells a request computes.
    edges: Vec<u32>,
}

impl ShrunkSummaries {
    /// No database yet, mixing over `categories` with the dummy category's
    /// `uniform_p`.
    pub fn new(uniform_p: f64, categories: Arc<CategoryColumns>) -> ShrunkSummaries {
        ShrunkSummaries {
            uniform_p,
            categories,
            heads: Vec::new(),
            steps: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Append a database classified under `category` with fitted λs and
    /// sample summary `own`; its leaf remainder subtracts `basis` (`own`
    /// itself when `None`). The λ vectors must cover uniform + path +
    /// database.
    pub fn push(
        &mut self,
        category: CategoryId,
        lambdas: (Vec<f64>, Vec<f64>),
        own: &FrozenSummary,
        basis: Option<Arc<Basis>>,
    ) -> Result<(), &'static str> {
        if category >= self.categories.len() {
            return Err("database category outside the hierarchy");
        }
        let path = self.categories.path_from_root(category);
        let cells: Vec<u32> = path[1..].iter().map(|&c| c as u32).collect();
        let leaf_denoms = self.leaf_denoms(category, own, basis.as_deref());
        let leaf = (category as u32, leaf_denoms, basis);
        let start = self.steps.len() as u32;
        let (head, steps) = mixture(start, &cells, leaf, &lambdas)?;
        for &c in &cells {
            if let Err(at) = self.edges.binary_search(&c) {
                self.edges.insert(at, c);
            }
        }
        self.heads.push(head);
        self.steps.extend(steps);
        Ok(())
    }

    /// `agg(leaf)`'s denominators less what the leaf remainder's basis
    /// (`own` when `None`) contributed to them, clamped at 0.
    fn leaf_denoms(&self, leaf: CategoryId, own: &FrozenSummary, basis: Option<&Basis>) -> Pair {
        let totals = basis.map_or((own.db_size, own.word_count), |b| (b.db_size, b.word_count));
        let cats = &*self.categories;
        let leaf = cats.stats[leaf].denoms;
        let basis = contribution_denoms(cats.weighting, totals);
        [(leaf[0] - basis.0).max(0.0), (leaf[1] - basis.1).max(0.0)]
    }

    /// Number of databases.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when there is no database.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The dummy category's `p̂(w|C_0)`.
    pub fn uniform_p(&self) -> f64 {
        self.uniform_p
    }

    /// The category columns.
    pub fn categories(&self) -> &Arc<CategoryColumns> {
        &self.categories
    }

    /// Database `db`'s steps, root first.
    fn steps(&self, db: usize) -> &[Step] {
        let h = &self.heads[db];
        &self.steps[h.start as usize..(h.start + h.len) as usize]
    }

    /// The category of database `db`: the leaf of its category path.
    pub fn category(&self, db: usize) -> CategoryId {
        self.heads[db].leaf as CategoryId
    }

    /// Database `db`'s `(λ_df, λ_tf)`, uniform first, its own weight last.
    pub fn lambdas(&self, db: usize) -> (Vec<f64>, Vec<f64>) {
        let h = &self.heads[db];
        std::iter::once(h.lambda0)
            .chain(self.steps(db).iter().map(|s| s.lambda))
            .chain([h.leaf_lambda, h.own])
            .map(|[df, tf]| (df, tf))
            .unzip()
    }

    /// Database `db`'s pinned leaf basis, when it is not its own sample.
    pub fn basis(&self, db: usize) -> Option<&Arc<Basis>> {
        self.heads[db].basis.as_ref()
    }

    /// Replace database `db`'s λs after its sample changed from `old`:
    /// the components stay as pinned, so a database whose leaf remainder
    /// subtracted its own sample keeps subtracting `old`.
    pub fn refit(
        &mut self,
        db: usize,
        lambdas: (Vec<f64>, Vec<f64>),
        old: &FrozenSummary,
    ) -> Result<(), &'static str> {
        let cells: Vec<u32> = self.steps(db).iter().map(|s| s.cell).collect();
        let previous = &self.heads[db];
        let basis = previous.basis.clone();
        let basis = basis.unwrap_or_else(|| Arc::new(Basis::of(old)));
        let leaf_denoms = self.leaf_denoms(self.category(db), old, Some(&basis));
        let leaf = (previous.leaf, leaf_denoms, Some(basis));
        let start = previous.start;
        let (head, steps) = mixture(start, &cells, leaf, &lambdas)?;
        self.steps[start as usize..start as usize + steps.len()].copy_from_slice(&steps);
        self.heads[db] = head;
        Ok(())
    }

    /// Resolve `query` against the category columns into `scratch`: the
    /// one lookup a request makes there per word, then every edge cell a
    /// database's step can read, computed once for all of them.
    pub fn prepare(&self, query: &[TermId], scratch: &mut MixScratch) {
        let cats = &*self.categories;
        let n = cats.len();
        scratch.terms.clear();
        scratch.terms.extend_from_slice(query);
        scratch.acc.clear();
        scratch.acc.resize(query.len() * n, NONE);
        // Every cell a step reads is written below.
        scratch.components.resize(query.len() * n, NONE);
        for (k, &term) in query.iter().enumerate() {
            let acc = &mut scratch.acc[k * n..][..n];
            let values = &mut scratch.components[k * n..][..n];
            if let Some(row) = cats.row(term) {
                for at in cats.offsets[row] as usize..cats.offsets[row + 1] as usize {
                    acc[cats.categories[at] as usize] = cats.acc[at];
                }
            }
            for &c in &self.edges {
                let parent = cats.parents[c as usize] as usize;
                values[c as usize] = cats.edge(c, acc[parent], acc[c as usize]);
            }
        }
    }

    /// Mix databases `dbs` over the query [`prepare`](Self::prepare)d into
    /// `scratch`: row `i` of `p_df` and of `p_tf` (`q` values, one per
    /// word) receives database `dbs[i]`'s `p̂_R(w|D)` and `p_tf,R(w|D)` —
    /// the materialized mixture's values bit for bit (its defaults for a
    /// word no column has). Row `i` of `words` holds the words as the
    /// database's sample has them ([`OwnWord::of`]).
    pub fn mix_rows(
        &self,
        dbs: &[u32],
        words: &[OwnWord],
        scratch: &MixScratch,
        p_df: &mut [f64],
        p_tf: &mut [f64],
    ) {
        let q = scratch.terms.len();
        let n = self.categories.len();
        let weighting = self.categories.weighting;
        for (i, &db) in dbs.iter().enumerate() {
            let head = &self.heads[db as usize];
            let words = &words[i * q..][..q];
            let component = |cell: u32, k: usize| scratch.components[k * n + cell as usize];
            let leaf_acc = |k: usize| scratch.acc[k * n + head.leaf as usize];
            let (p_df, p_tf) = (&mut p_df[i * q..][..q], &mut p_tf[i * q..][..q]);
            let mut store = |k: usize, p: Pair| {
                p_df[k] = p[0];
                p_tf[k] = p[1];
            };
            let mixture = (self.uniform_p, head, self.steps(db as usize));
            match (&head.basis, weighting) {
                (None, CategoryWeighting::BySize) => {
                    let leaf = |k: usize| (leaf_acc(k), words[k].raw);
                    mix(mixture, component, leaf, words, &mut store);
                }
                (None, CategoryWeighting::Uniform) => {
                    let leaf = |k: usize| (leaf_acc(k), words[k].p);
                    mix(mixture, component, leaf, words, &mut store);
                }
                (Some(b), weighting) => {
                    let terms = &scratch.terms;
                    let leaf = |k: usize| (leaf_acc(k), b.contribution(weighting, terms[k]));
                    mix(mixture, component, leaf, words, &mut store);
                }
            }
        }
    }

    /// Database `db`'s `R̂(D)` as a [`SummaryView`], `own` being its sample
    /// summary.
    pub fn view<'a>(&'a self, db: usize, own: &'a FrozenSummary) -> ShrunkView<'a> {
        ShrunkView {
            summaries: self,
            db,
            own,
        }
    }

    /// Bytes of data held: the category columns, and per database its λs,
    /// components and any pinned basis.
    pub fn resident_bytes(&self) -> usize {
        self.categories.resident_bytes()
            + self.steps.len() * size_of::<Step>()
            + self.edges.len() * size_of::<u32>()
            + self
                .heads
                .iter()
                .map(|h| size_of::<Head>() + h.basis.as_deref().map_or(0, Basis::resident_bytes))
                .sum::<usize>()
    }
}

/// The head and steps of a mixture of the edge `cells` (root first) and,
/// last, the leaf remainder `(category, denominators, basis)`, under
/// `lambdas`, its steps at `start`.
fn mixture(
    start: u32,
    cells: &[u32],
    (leaf, leaf_denoms, basis): (u32, Pair, Option<Arc<Basis>>),
    (lambdas_df, lambdas_tf): &(Vec<f64>, Vec<f64>),
) -> Result<(Head, Vec<Step>), &'static str> {
    let m = cells.len() + 1;
    if lambdas_df.len() != m + 2 || lambdas_tf.len() != m + 2 {
        return Err("λ vector length disagrees with the database's category path");
    }
    let lambda = |i: usize| [lambdas_df[i], lambdas_tf[i]];
    let steps = cells
        .iter()
        .enumerate()
        .map(|(i, &cell)| Step {
            lambda: lambda(i + 1),
            cell,
        })
        .collect();
    let head = Head {
        start,
        len: cells.len() as u32,
        leaf,
        lambda0: lambda(0),
        leaf_lambda: lambda(m),
        leaf_denoms,
        own: lambda(m + 1),
        basis,
    };
    Ok((head, steps))
}

/// A database's mixture `(uniform_p, head, steps)` mixed for every word
/// of a query in Eq. 2's order, both models in step, each word's pair
/// handed to `store`: `λ_0 · uniform_p`, then `+ λ_i · c_i` for each
/// step's edge value `component(cell, k)` where the column has the word
/// and `λ_i != 0`, the leaf remainder likewise — `leaf(k)` gives the
/// leaf aggregate's sums for word `k` and what the basis adds to them —
/// and `+ λ_{m+1} · p̂(w|D)` where the sample has the word. Branch-free
/// but for the count of steps.
#[inline(always)]
fn mix(
    (uniform_p, head, steps): (f64, &Head, &[Step]),
    component: impl Fn(u32, usize) -> Pair,
    leaf: impl Fn(usize) -> (Pair, Pair),
    words: &[OwnWord],
    store: &mut impl FnMut(usize, Pair),
) {
    for (k, w) in words.iter().enumerate() {
        let mut p = [head.lambda0[0] * uniform_p, head.lambda0[1] * uniform_p];
        for step in steps {
            p = add(p, step.lambda, component(step.cell, k));
        }
        let (acc, right) = leaf(k);
        p = add(p, head.leaf_lambda, remainder(acc, right, head.leaf_denoms));
        // The sample's own term is added whatever its weight.
        let own = lanes(|i| select(has(w.p[i]), head.own[i] * w.p[i], -0.0));
        store(k, lanes(|i| p[i] + own[i]));
    }
}

/// A pair computed lane by lane (the compiler keeps it one vector).
#[inline(always)]
fn lanes(f: impl Fn(usize) -> f64) -> Pair {
    [f(0), f(1)]
}

/// A component's value for one word, per model: the quotient the sorted
/// merge of `category_summary` stores — `left` alone where only the
/// aggregate has the word, `take(left, right)` where the subtracted rows
/// have it — over `denom` (already clamped at 0), or [`ABSENT`] where the
/// column lacks the word (neither side has it) or is empty (a denominator
/// that is not positive). Branch-free: which side has a word varies from
/// database to database.
#[inline(always)]
fn remainder(left: Pair, right: Pair, denom: Pair) -> Pair {
    lanes(|i| {
        let (l, r) = (left[i], right[i]);
        let v = select(has(r), take(select(has(l), l, 0.0), r), l);
        select(denom[i] > 0.0, v / denom[i], ABSENT)
    })
}

/// `p + λ · c` per model where the component's column has the word and
/// its weight is not zero (Eq. 2 skips both), `p` otherwise — as
/// `p + (−0.0)`, which is `p` bit for bit, a signed zero included, so the
/// choice stays off the chain of additions.
#[inline(always)]
fn add(p: Pair, lambda: Pair, c: Pair) -> Pair {
    lanes(|i| p[i] + select(has(c[i]) & (lambda[i] != 0.0), lambda[i] * c[i], -0.0))
}

/// Whether `v` is a value, not [`ABSENT`].
#[inline(always)]
fn has(v: f64) -> bool {
    !v.is_nan()
}

/// `if cond { a } else { b }` on the bits, without a branch: which words
/// a column has varies from database to database, and a mispredicted
/// branch costs more than the select.
#[inline(always)]
fn select(cond: bool, a: f64, b: f64) -> f64 {
    let keep = u64::from(cond).wrapping_neg();
    f64::from_bits((a.to_bits() & keep) | (b.to_bits() & !keep))
}

/// One database's shrunk summary `R̂(D)`, evaluated on demand.
#[derive(Debug, Clone, Copy)]
pub struct ShrunkView<'a> {
    summaries: &'a ShrunkSummaries,
    db: usize,
    own: &'a FrozenSummary,
}

impl ShrunkView<'_> {
    /// Estimated database size `|D̂|`.
    pub fn db_size(&self) -> f64 {
        self.own.db_size
    }

    /// Estimated total token count (CORI's `cw(D)`).
    pub fn word_count(&self) -> f64 {
        self.own.word_count
    }

    /// `p̂_R(w|D)` under the document-frequency model.
    pub fn p_df(&self, term: TermId) -> f64 {
        self.value(term)[0]
    }

    /// `p̂_R(w|D)` under the term-frequency model.
    pub fn p_tf(&self, term: TermId) -> f64 {
        self.value(term)[1]
    }

    /// One word mixed straight from the category columns: each step's
    /// edge evaluated for the word alone, no scratch.
    fn value(&self, term: TermId) -> Pair {
        let s = self.summaries;
        let (head, cats) = (&s.heads[self.db], &*s.categories);
        let word = OwnWord::of(self.own, term);
        let component = |cell: u32, _| {
            let parent = cats.parents[cell as usize] as usize;
            cats.edge(cell, cats.acc(term, parent), cats.acc(term, cell as usize))
        };
        let leaf = |_| {
            let right = match (&head.basis, cats.weighting) {
                (None, CategoryWeighting::BySize) => word.raw,
                (None, CategoryWeighting::Uniform) => word.p,
                (Some(b), weighting) => b.contribution(weighting, term),
            };
            (cats.acc(term, head.leaf as usize), right)
        };
        let mut value = NONE;
        let mixture = (s.uniform_p, head, s.steps(self.db));
        mix(mixture, component, leaf, &[word], &mut |_, p| value = p);
        value
    }
}

impl SummaryView for ShrunkView<'_> {
    fn db_size(&self) -> f64 {
        ShrunkView::db_size(self)
    }

    fn p_df(&self, term: TermId) -> f64 {
        ShrunkView::p_df(self, term)
    }

    fn p_tf(&self, term: TermId) -> f64 {
        ShrunkView::p_tf(self, term)
    }

    fn word_count(&self) -> f64 {
        ShrunkView::word_count(self)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::summary::WordStats;
    use textindex::Document;

    fn sample_summary(docs: &[Vec<TermId>], db_size: f64) -> ContentSummary {
        let docs: Vec<Document> = docs
            .iter()
            .enumerate()
            .map(|(i, t)| Document::from_tokens(i as u32, t.clone()))
            .collect();
        ContentSummary::from_sample(docs.iter(), db_size)
    }

    #[test]
    fn frozen_unshrunk_is_bit_identical() {
        let s = sample_summary(&[vec![3, 1, 1], vec![7, 3], vec![9]], 120.0);
        let f = FrozenSummary::from_unshrunk(&s);
        for t in [0u32, 1, 3, 7, 9, 100] {
            assert_eq!(f.p_df(t).to_bits(), s.p_df(t).to_bits());
            assert_eq!(f.p_tf(t).to_bits(), s.p_tf(t).to_bits());
            assert_eq!(f.sample_df(t), s.word(t).map_or(0, |w| w.sample_df));
            assert_eq!(f.effectively_contains(t), s.effectively_contains(t));
        }
        assert_eq!(f.db_size().to_bits(), s.db_size().to_bits());
        assert_eq!(f.word_count().to_bits(), s.total_tf().to_bits());
        assert_eq!(f.sample_size(), s.sample_size());
        assert!(f.terms().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_summary_freezes_safely() {
        let s = sample_summary(&[], 0.0);
        let f = FrozenSummary::from_unshrunk(&s);
        assert!(f.is_empty());
        assert_eq!(f.p_df(0), 0.0);
        assert_eq!(f.p_tf(0), 0.0);
        assert_eq!(f.sample_df(0), 0);
    }

    #[test]
    fn zero_db_size_matches_source_zeroing() {
        // db_size == 0 makes ContentSummary::p_df return 0 even for
        // present words; the frozen copy must store those zeros.
        let mut words = HashMap::new();
        words.insert(
            5u32,
            WordStats {
                sample_df: 2,
                df: 3.0,
                tf: 4.0,
            },
        );
        let s = ContentSummary::new(0.0, 2, words);
        let f = FrozenSummary::from_unshrunk(&s);
        assert_eq!(f.p_df(5).to_bits(), s.p_df(5).to_bits());
        assert_eq!(f.p_df(5), 0.0);
        assert_eq!(f.sample_df(5), 2);
    }

    /// What a snapshot writer emits for a sample summary and a reader
    /// hands back: the raw columns, `sample_df` spelled out.
    fn reloaded(f: &FrozenSummary) -> FrozenSummary {
        FrozenSummary::from_raw_parts(
            f.db_size(),
            f.sample_size(),
            f.word_count(),
            f.terms().to_vec(),
            (0..f.len()).map(|i| f.sample_df_at(i)).collect(),
            f.raw_column().iter().map(|v| v.0).collect(),
            f.raw_column().iter().map(|v| v.1).collect(),
        )
        .unwrap()
    }

    #[test]
    fn from_raw_parts_validates_structure() {
        let columns = |terms: Vec<TermId>, sample_df: Vec<u32>, df: Vec<f64>| {
            let tf = vec![1.0; df.len()];
            FrozenSummary::from_raw_parts(1.0, 1, 1.0, terms, sample_df, df, tf)
        };
        assert!(columns(vec![1, 2, 3], vec![1, 1, 1], vec![0.1, 0.2, 0.3]).is_ok());
        assert!(
            columns(vec![2, 1], vec![1, 1], vec![0.1, 0.2]).is_err(),
            "unsorted"
        );
        assert!(
            columns(vec![1, 1], vec![1, 1], vec![0.1, 0.2]).is_err(),
            "duplicate"
        );
        assert!(
            columns(vec![1, 2], vec![1, 2], vec![0.1, 0.2]).is_err(),
            "sample_df"
        );
        assert!(
            columns(vec![1, 2], vec![1, 1], vec![0.1]).is_err(),
            "ragged"
        );
    }

    #[test]
    fn raw_parts_round_trip_preserves_bits() {
        for s in [
            sample_summary(&[vec![1, 2, 2], vec![4]], 50.0),
            sample_summary(&[], 0.0),
        ] {
            let f = FrozenSummary::from_unshrunk(&s);
            assert_eq!(f, reloaded(&f));
        }
    }

    #[test]
    fn equality_does_not_see_the_elided_column() {
        // A mixture never carries sample counts; a sample summary whose
        // counts all happen to be zero must behave the same way.
        let zero = WordStats {
            sample_df: 0,
            df: 3.0,
            tf: 4.0,
        };
        let words = [(5u32, zero), (9, zero)].into_iter().collect();
        let unshrunk = FrozenSummary::from_unshrunk(&ContentSummary::new(50.0, 2, words));
        assert_eq!(unshrunk, reloaded(&unshrunk));
        assert_eq!(
            unshrunk.resident_bytes(),
            unshrunk.len() * 20,
            "no sample_df bytes"
        );
        assert!(unshrunk.terms().iter().all(|&t| unshrunk.sample_df(t) == 0));
        // A column with any non-zero count is kept whole.
        let db = sample_summary(&[vec![1, 2], vec![1, 3]], 100.0);
        let counted = FrozenSummary::from_unshrunk(&db);
        assert_eq!(counted.resident_bytes(), counted.len() * 24);
        assert_eq!(counted, reloaded(&counted));
        assert_eq!(counted.sample_df(1), 2);
    }
}
