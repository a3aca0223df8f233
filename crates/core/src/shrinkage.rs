//! Shrinkage-based content summaries (Section 3.2 of the paper).
//!
//! A database `D` classified under categories `C_1 (root), …, C_m` gets a
//! *shrunk* summary
//!
//! ```text
//! p̂_R(w|D) = λ_{m+1}·p̂(w|D) + Σ_{i=1..m} λ_i·p̂(w|C_i) + λ_0·p̂(w|C_0)
//! ```
//!
//! where `C_0` is a dummy category assigning the same probability to every
//! word, and the mixture weights `λ_i` (summing to 1) are computed by the
//! expectation-maximization procedure of Figure 2. The EM runs once per
//! probability model — document-frequency (Definitions 1/2) and
//! term-frequency (the LM variant of Section 5.3) — because the paper notes
//! the algorithms adapt to the LM model "by substituting this definition of
//! p(w|D)".
//!
//! [`ShrunkSummary`] evaluates the mixture *lazily*: it keeps the database's
//! own probabilities plus `Arc`-shared category components (whose memory is
//! amortized across all databases under the same categories) and computes
//! `p̂_R(w|D)` on lookup. Materializing every shrunk summary over the union
//! vocabulary would cost memory proportional to |databases| × |global
//! vocabulary|, which is prohibitive for web-scale collections.
//!
//! [`LambdaFitter`] runs the EM alone — the λ vectors are all a frozen
//! catalog records — and [`shrink`] is that fit plus the lazy mixture.

use std::sync::Arc;

use textindex::TermId;

use crate::category_summary::{Column, SummaryComponent};
use crate::summary::{ContentSummary, SummaryView};

/// Tuning knobs for the EM computation.
#[derive(Debug, Clone, Copy)]
pub struct ShrinkageConfig {
    /// Convergence threshold: stop when no `λ_i` moves by more than this.
    pub epsilon: f64,
    /// Hard iteration cap (EM converges in a handful of iterations here).
    pub max_iterations: usize,
    /// The probability `p̂(w|C_0)` that the dummy uniform category assigns
    /// to *every* word. A natural choice is `1 / |global vocabulary|`.
    pub uniform_p: f64,
}

impl Default for ShrinkageConfig {
    fn default() -> Self {
        ShrinkageConfig {
            epsilon: 1e-6,
            max_iterations: 500,
            uniform_p: 1e-6,
        }
    }
}

/// Which word-probability model a set of mixture weights was fit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbabilityModel {
    /// `p̂(w|D)` = fraction of documents containing `w` (Definition 2).
    DocumentFrequency,
    /// `p̂(w|D) = tf(w,D) / Σ tf` (the LM variant, Section 5.3).
    TermFrequency,
}

/// The shrunk content summary `R̂(D)` of one database (Definition 4).
#[derive(Debug, Clone)]
pub struct ShrunkSummary {
    db_size: f64,
    word_count: f64,
    uniform_p: f64,
    /// Mixture weights for the document-frequency model, ordered
    /// `[λ_0 (uniform), λ_1 (root), …, λ_m (leaf category), λ_{m+1} (D)]`.
    lambdas_df: Vec<f64>,
    /// Mixture weights fit on the term-frequency model, same order.
    lambdas_tf: Vec<f64>,
    /// The database's own probabilities under both models.
    db_p_df: Column,
    db_p_tf: Column,
    /// Category components, root first, shared across sibling databases.
    pub(crate) components: Vec<Arc<SummaryComponent>>,
}

impl ShrunkSummary {
    /// Reassemble a shrunk summary from previously fitted mixture weights —
    /// the persistence path. Only the EM output (`lambdas_df`/`lambdas_tf`)
    /// and `uniform_p` need storing; the database probability columns are
    /// recomputed from `db_summary` and the category `components` are
    /// rebuilt (or shared) by the caller. Given the same inputs [`shrink`]
    /// saw, the result is indistinguishable from the original — no EM rerun.
    pub fn from_parts(
        db_summary: &ContentSummary,
        components: &[Arc<SummaryComponent>],
        lambdas_df: Vec<f64>,
        lambdas_tf: Vec<f64>,
        uniform_p: f64,
    ) -> ShrunkSummary {
        assert_eq!(
            lambdas_df.len(),
            components.len() + 2,
            "λ vector must cover uniform + components + database"
        );
        assert_eq!(lambdas_df.len(), lambdas_tf.len());
        let mut own: Vec<(TermId, f64, f64)> = db_summary.probabilities().collect();
        own.sort_unstable_by_key(|&(t, _, _)| t);
        let terms: Vec<TermId> = own.iter().map(|&(t, _, _)| t).collect();
        let db_p_df = Column {
            terms: terms.clone(),
            values: own.iter().map(|&(_, p, _)| p).collect(),
        };
        let db_p_tf = Column {
            terms,
            values: own.iter().map(|&(_, _, p)| p).collect(),
        };
        ShrunkSummary {
            db_size: db_summary.db_size(),
            word_count: db_summary.total_tf(),
            uniform_p,
            lambdas_df,
            lambdas_tf,
            db_p_df,
            db_p_tf,
            components: components.to_vec(),
        }
    }

    /// The `p̂(w|C_0)` probability of the dummy uniform category.
    pub fn uniform_p(&self) -> f64 {
        self.uniform_p
    }

    /// Mixture weights under the document-frequency model:
    /// `[λ_0 (uniform), λ_1 (root), …, λ_m, λ_{m+1} (database)]`.
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas_df
    }

    /// Mixture weights under the term-frequency model.
    pub fn lambdas_tf(&self) -> &[f64] {
        &self.lambdas_tf
    }

    /// The union vocabulary of the database and its category components —
    /// every word with non-default probability, ascending.
    pub fn vocabulary(&self) -> Vec<TermId> {
        let components = self.components.iter().flat_map(|c| c.p_df.keys());
        let mut v: Vec<TermId> = self.db_p_df.keys().chain(components).copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Iterate over `(term, p̂_R(w|D))` for the union vocabulary.
    pub fn iter_df(&self) -> impl Iterator<Item = (TermId, f64)> + '_ {
        self.vocabulary()
            .into_iter()
            .map(move |t| (t, SummaryView::p_df(self, t)))
    }

    /// Number of words with explicit probability in the shrunk summary.
    pub fn vocabulary_size(&self) -> usize {
        self.vocabulary().len()
    }

    fn mix(&self, term: TermId, lambdas: &[f64], db_p: &Column, model_df: bool) -> f64 {
        let mut p = lambdas[0] * self.uniform_p;
        for (comp, &lambda) in self.components.iter().zip(&lambdas[1..]) {
            if lambda == 0.0 {
                continue;
            }
            let column = if model_df { &comp.p_df } else { &comp.p_tf };
            if let Some(cp) = column.get(term) {
                p += lambda * cp;
            }
        }
        if let Some(dp) = db_p.get(term) {
            p += lambdas[lambdas.len() - 1] * dp;
        }
        p
    }
}

impl SummaryView for ShrunkSummary {
    fn db_size(&self) -> f64 {
        self.db_size
    }

    fn p_df(&self, term: TermId) -> f64 {
        self.mix(term, &self.lambdas_df, &self.db_p_df, true)
    }

    fn p_tf(&self, term: TermId) -> f64 {
        self.mix(term, &self.lambdas_tf, &self.db_p_tf, false)
    }

    fn word_count(&self) -> f64 {
        self.word_count
    }
}

/// Fits the mixture weights of `R̂(D)` by the EM of Figure 2, once per
/// probability model, with *held-out* (deleted-interpolation) weighting —
/// the λ vectors [`shrink`] records, without building the shrunk summary.
/// Its buffers are reused from one database to the next.
///
/// The mixture weights exist to make `R̂(D)` generalize beyond the sample.
/// McCallum et al. \[22\] therefore fit λ on *held-out* data: the database
/// component is estimated from part of the training data and the
/// responsibilities are computed on the rest, so words the database model
/// would not have covered push weight toward the categories. Figure 2's
/// "simple version" omits this; run verbatim on the very sample that
/// defines `p̂(w|D)`, the database component dominates every word it has
/// seen and EM degenerates to `λ_{m+1} → 1`. We emulate the held-out fit in
/// expectation: under a random half split, a word observed in `s` sample
/// documents is absent from the training half with probability `2^{-s}`, so
/// each word contributes a second, `2^{-s}`-weighted responsibility row in
/// which the database probability is zeroed. Frequent words are unaffected;
/// singletons vote half of their mass as if the database had never seen
/// them — which is exactly the generalization question shrinkage answers.
///
/// The E-step sums over `w ∈ Ŝ(D)` in ascending word order. Each word's
/// row — `[p̂(w|C_0), p̂(w|C_1), …, p̂(w|C_m), p̂(w|D)]`, 0 where a component
/// lacks the word — is one merge of the database's sorted words with each
/// component column, written into a flat slab of `k = m + 2` values per
/// word.
#[derive(Debug, Default)]
pub struct LambdaFitter {
    /// The database's words, ascending.
    words: Vec<Word>,
    /// Per word, the weight `2^{-sample_df}` of its held-out row.
    heldout: Vec<f64>,
    /// One model's EM rows, `k` values per word.
    rows: Vec<f64>,
}

/// A database word as the fit reads it.
#[derive(Debug, Clone, Copy)]
struct Word {
    term: TermId,
    sample_df: u32,
    p_df: f64,
    p_tf: f64,
}

impl LambdaFitter {
    /// `(λ_df, λ_tf)` of the database summarised by `db` under its category
    /// `components` (root first), each `[λ_0, λ_1, …, λ_m, λ_{m+1}]`.
    pub fn fit(
        &mut self,
        db: &ContentSummary,
        components: &[Arc<SummaryComponent>],
        config: &ShrinkageConfig,
    ) -> (Vec<f64>, Vec<f64>) {
        self.words.clear();
        self.words.extend(
            db.words_with_probabilities()
                .map(|(term, stats, p_df, p_tf)| Word {
                    term,
                    sample_df: stats.sample_df,
                    p_df,
                    p_tf,
                }),
        );
        self.words.sort_unstable_by_key(|w| w.term);
        self.heldout.clear();
        self.heldout.extend(
            self.words
                .iter()
                .map(|w| 0.5f64.powi(w.sample_df.min(60) as i32)),
        );
        let df = self.fit_model(components.iter().map(|c| &c.p_df), |w| w.p_df, config);
        let tf = self.fit_model(components.iter().map(|c| &c.p_tf), |w| w.p_tf, config);
        (df, tf)
    }

    /// Lay out one model's rows and run its EM.
    fn fit_model<'c>(
        &mut self,
        columns: impl ExactSizeIterator<Item = &'c Column>,
        own: impl Fn(&Word) -> f64,
        config: &ShrinkageConfig,
    ) -> Vec<f64> {
        let k = columns.len() + 2;
        self.rows.clear();
        self.rows.resize(self.words.len() * k, 0.0);
        for (row, word) in self.rows.chunks_exact_mut(k).zip(&self.words) {
            row[0] = config.uniform_p;
            row[k - 1] = own(word);
        }
        for (i, column) in columns.enumerate() {
            let mut at = 0;
            for (row, word) in self.rows.chunks_exact_mut(k).zip(&self.words) {
                while at < column.terms.len() && column.terms[at] < word.term {
                    at += 1;
                }
                if column.terms.get(at) == Some(&word.term) {
                    row[1 + i] = column.values[at];
                }
            }
        }
        fit_weights(&self.rows, &self.heldout, k, config)
    }
}

/// [`em`] with λ and β in stack arrays of exactly `k` weights for paths
/// of up to six categories (every hierarchy here): with `k` a constant,
/// each word's loops unroll and the weights stay in registers across the
/// slab. Deeper paths run the same body over heap vectors.
fn fit_weights(rows: &[f64], heldout: &[f64], k: usize, config: &ShrinkageConfig) -> Vec<f64> {
    match k {
        2 => em::<[f64; 2]>(rows, heldout, k, config),
        3 => em::<[f64; 3]>(rows, heldout, k, config),
        4 => em::<[f64; 4]>(rows, heldout, k, config),
        5 => em::<[f64; 5]>(rows, heldout, k, config),
        6 => em::<[f64; 6]>(rows, heldout, k, config),
        7 => em::<[f64; 7]>(rows, heldout, k, config),
        8 => em::<[f64; 8]>(rows, heldout, k, config),
        _ => em::<Vec<f64>>(rows, heldout, k, config),
    }
}

/// Storage for `k` mixture weights; its length is `k`.
trait Weights: AsMut<[f64]> {
    fn zeroed(k: usize) -> Self;
}

impl<const K: usize> Weights for [f64; K] {
    fn zeroed(_: usize) -> Self {
        [0.0; K]
    }
}

impl Weights for Vec<f64> {
    fn zeroed(k: usize) -> Self {
        vec![0.0; k]
    }
}

/// The EM over `rows` (`k` values per word) and their held-out weights:
/// returns `[λ_0, λ_1, …, λ_m, λ_{m+1}]`. Every sum runs in the order the
/// E-step names it — the mixture over components in order, then each
/// component's full-row share, then its held-out share, word by word — so
/// the weights do not depend on how `W` stores them. `k` is read back
/// from the storage, a constant for arrays.
fn em<W: Weights>(rows: &[f64], heldout: &[f64], k: usize, config: &ShrinkageConfig) -> Vec<f64> {
    let (mut lambda_store, mut beta_store) = (W::zeroed(k), W::zeroed(k));
    let (lambdas, betas) = (lambda_store.as_mut(), beta_store.as_mut());
    let k = lambdas.len();
    lambdas.fill(1.0 / k as f64);
    if heldout.is_empty() {
        return lambdas.to_vec();
    }
    for _ in 0..config.max_iterations {
        // Expectation: β_i = Σ_w λ_i·p_i(w) / p̂_R(w), with each word also
        // contributing its held-out variant (database component deleted).
        betas.fill(0.0);
        for (row, &held) in rows.chunks_exact(k).zip(heldout) {
            let mixture: f64 = row.iter().zip(lambdas.iter()).map(|(p, l)| p * l).sum();
            if mixture > 0.0 {
                let weight = 1.0 - held;
                for ((beta, &l), &p) in betas.iter_mut().zip(lambdas.iter()).zip(row) {
                    *beta += weight * l * p / mixture;
                }
            }
            if held > 0.0 {
                // The deleted row: same categories, database term removed.
                let mixture_deleted = mixture - lambdas[k - 1] * row[k - 1];
                if mixture_deleted > 0.0 {
                    let kept = betas[..k - 1].iter_mut().zip(&lambdas[..k - 1]);
                    for ((beta, &l), &p) in kept.zip(row) {
                        *beta += held * l * p / mixture_deleted;
                    }
                }
            }
        }
        let total: f64 = betas.iter().sum();
        if total <= 0.0 {
            break;
        }
        // Maximization: λ_i = β_i / Σ_j β_j.
        let mut delta = 0.0f64;
        for (lambda, beta) in lambdas.iter_mut().zip(betas.iter()) {
            let new = beta / total;
            delta = delta.max((new - *lambda).abs());
            *lambda = new;
        }
        if delta < config.epsilon {
            break;
        }
    }
    // Zero is an absorbing state for EM mixture weights; floor them so the
    // shrunk summary keeps the paper's property that "virtually every word
    // appears with non-zero probability in every shrunk content summary".
    let floor = 1e-9;
    for l in lambdas.iter_mut() {
        *l = l.max(floor);
    }
    let total: f64 = lambdas.iter().sum();
    for l in lambdas.iter_mut() {
        *l /= total;
    }
    lambdas.to_vec()
}

/// Compute the shrunk content summary `R̂(D)` for a database.
///
/// `components` are the category summaries along `D`'s classification path
/// (root first), typically produced by
/// [`crate::category_summary::CategorySummaries::components_for`].
pub fn shrink(
    db_summary: &ContentSummary,
    components: &[Arc<SummaryComponent>],
    config: &ShrinkageConfig,
) -> ShrunkSummary {
    let (lambdas_df, lambdas_tf) = LambdaFitter::default().fit(db_summary, components, config);
    ShrunkSummary::from_parts(
        db_summary,
        components,
        lambdas_df,
        lambdas_tf,
        config.uniform_p,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::WordStats;
    use std::collections::HashMap;
    use textindex::Document;

    /// The EM as it ran over hash maps before the row slab: the reference
    /// [`LambdaFitter`] must equal bit for bit.
    ///
    /// * `db_words` — `(word, sample_df)` for every word of `Ŝ(D)`, sorted;
    /// * `db_p(w)` — the database's own estimate for `w`;
    /// * `component_p[i]` — `p̂(w|C_{i+1})` maps, root first.
    fn em_mixture_weights(
        db_words: &[(TermId, u32)],
        db_p: &HashMap<TermId, f64>,
        component_p: &[&HashMap<TermId, f64>],
        config: &ShrinkageConfig,
    ) -> Vec<f64> {
        let m = component_p.len();
        let k = m + 2; // uniform + m categories + database
        let mut lambdas = vec![1.0 / k as f64; k];
        if db_words.is_empty() {
            return lambdas;
        }
        // Precompute per-word component probabilities plus the held-out weight.
        let mut probs: Vec<(Vec<f64>, f64)> = Vec::with_capacity(db_words.len());
        for &(w, sample_df) in db_words {
            let mut row = Vec::with_capacity(k);
            row.push(config.uniform_p);
            for comp in component_p {
                row.push(comp.get(&w).copied().unwrap_or(0.0));
            }
            row.push(db_p.get(&w).copied().unwrap_or(0.0));
            let heldout_weight = 0.5f64.powi(sample_df.min(60) as i32);
            probs.push((row, heldout_weight));
        }
        let mut betas = vec![0.0f64; k];
        for _ in 0..config.max_iterations {
            betas.iter_mut().for_each(|b| *b = 0.0);
            for (row, heldout) in &probs {
                let mixture: f64 = row.iter().zip(&lambdas).map(|(p, l)| p * l).sum();
                if mixture > 0.0 {
                    let weight = 1.0 - heldout;
                    for (beta, (p, l)) in betas.iter_mut().zip(row.iter().zip(&lambdas)) {
                        *beta += weight * l * p / mixture;
                    }
                }
                if *heldout > 0.0 {
                    let db_term = lambdas[k - 1] * row[k - 1];
                    let mixture_deleted = mixture - db_term;
                    if mixture_deleted > 0.0 {
                        for (beta, (p, l)) in
                            betas.iter_mut().take(k - 1).zip(row.iter().zip(&lambdas))
                        {
                            *beta += heldout * l * p / mixture_deleted;
                        }
                    }
                }
            }
            let total: f64 = betas.iter().sum();
            if total <= 0.0 {
                break;
            }
            let mut delta = 0.0f64;
            for (lambda, beta) in lambdas.iter_mut().zip(&betas) {
                let new = beta / total;
                delta = delta.max((new - *lambda).abs());
                *lambda = new;
            }
            if delta < config.epsilon {
                break;
            }
        }
        let floor = 1e-9;
        for l in &mut lambdas {
            *l = l.max(floor);
        }
        let total: f64 = lambdas.iter().sum();
        for l in &mut lambdas {
            *l /= total;
        }
        lambdas
    }

    /// The λ pair `shrink` fitted over hash maps before the row slab.
    fn reference_lambdas(
        db: &ContentSummary,
        components: &[Arc<SummaryComponent>],
        config: &ShrinkageConfig,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut db_words: Vec<(TermId, u32)> = db.iter().map(|(t, s)| (t, s.sample_df)).collect();
        db_words.sort_unstable();
        let db_p_df: HashMap<TermId, f64> = db.iter().map(|(t, _)| (t, db.p_df(t))).collect();
        let db_p_tf: HashMap<TermId, f64> = db.iter().map(|(t, _)| (t, db.p_tf(t))).collect();
        let comp_df: Vec<HashMap<TermId, f64>> =
            components.iter().map(|c| c.p_df.iter().collect()).collect();
        let comp_tf: Vec<HashMap<TermId, f64>> =
            components.iter().map(|c| c.p_tf.iter().collect()).collect();
        let (df, tf): (Vec<_>, Vec<_>) = (comp_df.iter().collect(), comp_tf.iter().collect());
        (
            em_mixture_weights(&db_words, &db_p_df, &df, config),
            em_mixture_weights(&db_words, &db_p_tf, &tf, config),
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]
        /// The slab EM against the map EM over random rows: paths from one
        /// category to deeper than the stack holds, exact zeros, components
        /// that know no word, `sample_df` 0 (held-out weight 1, full-row
        /// weight 0) and past the 60 cap, empty databases, a tiny
        /// `uniform_p`.
        #[test]
        fn slab_em_equals_the_map_em_bit_for_bit(
            k in 2usize..=20,
            words in proptest::collection::vec(
                (0u8..7, proptest::collection::vec((0u8..4, 0.0f64..1.0), 20)),
                0..30,
            ),
            silent in proptest::collection::vec(0u8..4, 20),
            uniform in 0u8..3,
        ) {
            let config = ShrinkageConfig {
                uniform_p: [1e-6, 1.0 / 97.0, 1e-300][uniform as usize],
                ..Default::default()
            };
            let db_words: Vec<(TermId, u32)> = words
                .iter()
                .enumerate()
                .map(|(t, (df, _))| (t as TermId, [0, 0, 1, 2, 5, 60, 200][*df as usize]))
                .collect();
            // Column i of word t: a third exact zeros, and a component with
            // `silent[i] == 0` knows no word at all.
            let value = |t: usize, i: usize| match words[t].1[i] {
                _ if silent[i] == 0 => 0.0,
                (0, _) => 0.0,
                (_, p) => p,
            };
            let db_p: HashMap<TermId, f64> =
                (0..words.len()).map(|t| (t as TermId, value(t, k - 1))).collect();
            let components: Vec<HashMap<TermId, f64>> = (1..k - 1)
                .map(|i| {
                    (0..words.len())
                        .filter(|&t| value(t, i) != 0.0 || t % 2 == 0)
                        .map(|t| (t as TermId, value(t, i)))
                        .collect()
                })
                .collect();
            let refs: Vec<&HashMap<TermId, f64>> = components.iter().collect();
            let expected = em_mixture_weights(&db_words, &db_p, &refs, &config);
            let mut rows = Vec::new();
            for t in 0..words.len() {
                rows.push(config.uniform_p);
                rows.extend((1..k).map(|i| value(t, i)));
            }
            let heldout: Vec<f64> =
                db_words.iter().map(|&(_, s)| 0.5f64.powi(s.min(60) as i32)).collect();
            proptest::prop_assert_eq!(
                bits(&fit_weights(&rows, &heldout, k, &config)),
                bits(&expected)
            );
            proptest::prop_assert_eq!(
                bits(&em::<Vec<f64>>(&rows, &heldout, k, &config)),
                bits(&expected)
            );
        }

        /// The fitter's merge-joined rows against the map lookups they
        /// replace: random summaries (zero sizes and token counts included)
        /// under components whose df and tf key sets differ.
        #[test]
        fn fitter_equals_the_map_em_bit_for_bit(
            size in 0u8..3,
            words in proptest::collection::vec((0u32..60, 0u32..70, 0u8..3, 0u8..3), 0..25),
            columns in proptest::collection::vec(
                (
                    proptest::collection::vec((0u32..80, 0.0f64..1.0), 0..30),
                    proptest::collection::vec((0u32..80, 0.0f64..1.0), 0..30),
                ),
                0..9,
            ),
        ) {
            let words: HashMap<TermId, WordStats> = words
                .iter()
                .map(|&(t, sample_df, df, tf)| {
                    let stats = WordStats {
                        sample_df,
                        df: [0.0, 1.0, 30.0][df as usize],
                        tf: [0.0, 2.0, 7.0][tf as usize],
                    };
                    (t, stats)
                })
                .collect();
            let db = ContentSummary::new([0.0, 12.0, 500.0][size as usize], 70, words);
            let components: Vec<Arc<SummaryComponent>> = columns
                .iter()
                .map(|(df, tf)| {
                    Arc::new(SummaryComponent {
                        p_df: df.iter().copied().collect(),
                        p_tf: tf.iter().copied().collect(),
                    })
                })
                .collect();
            let config = ShrinkageConfig::default();
            // A fitter that already fitted another path: buffers are reused.
            let mut fitter = LambdaFitter::default();
            fitter.fit(&db, &components[..components.len() / 2], &config);
            let (df, tf) = fitter.fit(&db, &components, &config);
            let (expected_df, expected_tf) = reference_lambdas(&db, &components, &config);
            proptest::prop_assert_eq!(bits(&df), bits(&expected_df));
            proptest::prop_assert_eq!(bits(&tf), bits(&expected_tf));
        }
    }

    fn summary_from(docs: &[Vec<TermId>], db_size: f64) -> ContentSummary {
        let docs: Vec<Document> = docs
            .iter()
            .enumerate()
            .map(|(i, t)| Document::from_tokens(i as u32, t.clone()))
            .collect();
        ContentSummary::from_sample(docs.iter(), db_size)
    }

    fn component(entries: &[(TermId, f64)]) -> Arc<SummaryComponent> {
        Arc::new(SummaryComponent {
            p_df: entries.iter().copied().collect(),
            p_tf: entries.iter().copied().collect(),
        })
    }

    #[test]
    fn lambdas_sum_to_one() {
        let db = summary_from(&[vec![1, 2], vec![1, 3]], 100.0);
        let comps = vec![component(&[(1, 0.5), (4, 0.2)]), component(&[(2, 0.9)])];
        let shrunk = shrink(&db, &comps, &ShrinkageConfig::default());
        let sum: f64 = shrunk.lambdas().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "λ sums to 1, got {sum}");
        assert_eq!(shrunk.lambdas().len(), 4); // uniform + 2 categories + db
        assert!(shrunk.lambdas().iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn database_weight_dominates_matching_category() {
        // The database summary should usually receive the highest λ (the
        // paper: "the λ_{m+1} weight ... is usually highest").
        let db = summary_from(&[vec![1, 2], vec![1], vec![2], vec![1, 2]], 1000.0);
        // Category roughly agrees with the database but less sharply.
        let comps = vec![component(&[(1, 0.3), (2, 0.2), (9, 0.1)])];
        let shrunk = shrink(&db, &comps, &ShrinkageConfig::default());
        let l = shrunk.lambdas();
        assert!(l[2] > l[0], "database λ exceeds uniform λ: {l:?}");
        assert!(l[2] > 0.3, "database λ substantial: {l:?}");
    }

    #[test]
    fn shrunk_summary_covers_category_words() {
        // Word 42 is absent from the database sample but present in the
        // category — the whole point of shrinkage (the "hypertension"
        // example of the paper's Figure 1). The category must genuinely
        // resemble the database for EM to give it weight.
        let db = summary_from(&[vec![1], vec![1, 2]], 50.0);
        let comps = vec![component(&[(1, 0.9), (2, 0.9), (42, 0.25)])];
        let shrunk = shrink(&db, &comps, &ShrinkageConfig::default());
        assert!(shrunk.p_df(42) > 0.0, "category word gains probability");
        assert!(
            shrunk.p_df(42) > shrunk.p_df(777),
            "category word outranks a never-seen word"
        );
    }

    #[test]
    fn unseen_words_get_uniform_floor() {
        let db = summary_from(&[vec![1]], 10.0);
        let config = ShrinkageConfig {
            uniform_p: 1e-4,
            ..Default::default()
        };
        let shrunk = shrink(&db, &[component(&[(1, 0.5)])], &config);
        let floor = shrunk.p_df(99_999);
        assert!(floor > 0.0);
        assert!((floor - shrunk.lambdas()[0] * 1e-4).abs() < 1e-15);
    }

    #[test]
    fn empty_database_summary_returns_uniform_lambdas() {
        let db = summary_from(&[], 0.0);
        let shrunk = shrink(&db, &[component(&[(1, 0.5)])], &ShrinkageConfig::default());
        let l = shrunk.lambdas();
        assert_eq!(l.len(), 3);
        for &li in l {
            assert!((li - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn shrunk_p_is_convex_combination() {
        // p̂_R(w) must lie between min and max of the component estimates.
        let db = summary_from(&[vec![1], vec![1], vec![2]], 30.0);
        let comps = vec![component(&[(1, 0.1), (2, 0.8)])];
        let shrunk = shrink(&db, &comps, &ShrinkageConfig::default());
        let p1_db: f64 = 2.0 / 3.0;
        let p1 = shrunk.p_df(1);
        assert!(p1 <= p1_db.max(0.1) + 1e-12 && p1 >= 0.0);
        // And mixture with positive db weight keeps db words positive.
        assert!(p1 > 0.0);
    }

    #[test]
    fn em_is_deterministic() {
        let db = summary_from(&[vec![1, 2], vec![3]], 100.0);
        let comps = vec![component(&[(1, 0.5), (7, 0.3)]), component(&[(3, 0.2)])];
        let a = shrink(&db, &comps, &ShrinkageConfig::default());
        let b = shrink(&db, &comps, &ShrinkageConfig::default());
        assert_eq!(a.lambdas(), b.lambdas());
    }

    #[test]
    fn effectively_contains_applies_rounding_to_shrunk_probabilities() {
        let db = summary_from(&[vec![1]], 100.0);
        let comps = vec![component(&[(42, 0.2)])];
        let shrunk = shrink(&db, &comps, &ShrinkageConfig::default());
        // Word 42's shrunk probability times 100 docs rounds to >= 1 iff
        // p >= 0.005.
        assert_eq!(
            shrunk.effectively_contains(42),
            shrunk.p_df(42) * 100.0 >= 0.5
        );
    }

    #[test]
    fn vocabulary_is_union_of_db_and_components() {
        let db = summary_from(&[vec![5, 2]], 10.0);
        let comps = vec![component(&[(2, 0.3), (9, 0.1)])];
        let shrunk = shrink(&db, &comps, &ShrinkageConfig::default());
        assert_eq!(shrunk.vocabulary(), vec![2, 5, 9]);
        assert_eq!(shrunk.vocabulary_size(), 3);
        let from_iter: Vec<TermId> = shrunk.iter_df().map(|(t, _)| t).collect();
        assert_eq!(from_iter, vec![2, 5, 9]);
    }

    #[test]
    fn from_parts_reproduces_shrink_exactly() {
        let db = summary_from(&[vec![1, 2], vec![1, 3]], 100.0);
        let comps = vec![component(&[(1, 0.5), (4, 0.2)]), component(&[(2, 0.9)])];
        let config = ShrinkageConfig::default();
        let original = shrink(&db, &comps, &config);
        let rebuilt = ShrunkSummary::from_parts(
            &db,
            &comps,
            original.lambdas().to_vec(),
            original.lambdas_tf().to_vec(),
            config.uniform_p,
        );
        for t in [1u32, 2, 3, 4, 42] {
            assert_eq!(original.p_df(t).to_bits(), rebuilt.p_df(t).to_bits());
            assert_eq!(original.p_tf(t).to_bits(), rebuilt.p_tf(t).to_bits());
        }
        assert_eq!(original.db_size(), rebuilt.db_size());
        assert_eq!(original.word_count(), rebuilt.word_count());
        assert_eq!(original.uniform_p(), rebuilt.uniform_p());
        assert_eq!(original.vocabulary(), rebuilt.vocabulary());
    }

    #[test]
    fn components_are_shared_not_copied() {
        let db1 = summary_from(&[vec![1]], 10.0);
        let db2 = summary_from(&[vec![2]], 10.0);
        let shared = component(&[(1, 0.4), (2, 0.4)]);
        let s1 = shrink(
            &db1,
            std::slice::from_ref(&shared),
            &ShrinkageConfig::default(),
        );
        let s2 = shrink(
            &db2,
            std::slice::from_ref(&shared),
            &ShrinkageConfig::default(),
        );
        // Three holders of the same allocation: `shared`, s1, s2.
        assert_eq!(Arc::strong_count(&shared), 3);
        drop((s1, s2));
        assert_eq!(Arc::strong_count(&shared), 1);
    }
}
