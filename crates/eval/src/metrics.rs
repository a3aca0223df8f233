//! Content-summary quality metrics (Section 6.1 of the paper): weighted and
//! unweighted recall and precision, the Spearman rank-correlation
//! coefficient over word rankings, and the KL divergence of word-frequency
//! estimates.

use std::collections::HashMap;

use dbselect_core::shrinkage::ShrunkSummary;
use dbselect_core::summary::{ContentSummary, SummaryView};
use textindex::TermId;

use crate::stats::spearman;

/// A summary flattened for evaluation: its effective word set with both
/// probability models.
#[derive(Debug, Clone)]
pub struct EvaluatedSummary {
    /// `p̂(w|D)` (document-frequency model) per word.
    pub p_df: HashMap<TermId, f64>,
    /// `p̂(w|D)` (term-frequency model) per word.
    pub p_tf: HashMap<TermId, f64>,
}

impl EvaluatedSummary {
    /// Flatten an approximate or perfect [`ContentSummary`]: all words kept.
    pub fn from_content_summary(summary: &ContentSummary) -> Self {
        let p_df = summary.iter().map(|(t, _)| (t, summary.p_df(t))).collect();
        let p_tf = summary.iter().map(|(t, _)| (t, summary.p_tf(t))).collect();
        EvaluatedSummary { p_df, p_tf }
    }

    /// Flatten a shrunk summary, applying the paper's evaluation rule:
    /// *"we drop from the shrunk content summaries every word w with
    /// `round(|D|·p̂_R(w|D)) < 1`"* — i.e. words estimated to appear in less
    /// than one document do not count as present.
    pub fn from_shrunk_summary(summary: &ShrunkSummary) -> Self {
        let mut p_df = HashMap::new();
        let mut p_tf = HashMap::new();
        for (term, p) in summary.iter_df() {
            if summary.db_size() * p >= 0.5 {
                p_df.insert(term, p);
                p_tf.insert(term, summary.p_tf(term));
            }
        }
        EvaluatedSummary { p_df, p_tf }
    }

    /// Number of (effective) words.
    pub fn len(&self) -> usize {
        self.p_df.len()
    }

    /// Is the summary effectively empty?
    pub fn is_empty(&self) -> bool {
        self.p_df.is_empty()
    }
}

/// The full set of Section-6.1 metrics for one `(A(D), S(D))` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryQuality {
    /// Weighted recall `wr` (the `ctf` ratio of Callan & Connell).
    pub weighted_recall: f64,
    /// Unweighted recall `ur`: fraction of database words present.
    pub unweighted_recall: f64,
    /// Weighted precision `wp`.
    pub weighted_precision: f64,
    /// Unweighted precision `up`.
    pub unweighted_precision: f64,
    /// Spearman rank correlation of word rankings (over common words).
    pub spearman: f64,
    /// KL divergence of the term-frequency distributions (lower = better).
    pub kl_divergence: f64,
}

/// Compute all metrics of `approx` (the evaluated summary `A(D)`) against
/// `perfect` (the gold `S(D)`).
pub fn summary_quality(approx: &EvaluatedSummary, perfect: &EvaluatedSummary) -> SummaryQuality {
    // --- recall ---------------------------------------------------------
    let mut wr_num = 0.0;
    let mut wr_den = 0.0;
    let mut common = 0usize;
    for (&w, &p) in &perfect.p_df {
        wr_den += p;
        if approx.p_df.contains_key(&w) {
            wr_num += p;
            common += 1;
        }
    }
    let weighted_recall = if wr_den > 0.0 { wr_num / wr_den } else { 0.0 };
    let unweighted_recall = if perfect.p_df.is_empty() {
        0.0
    } else {
        common as f64 / perfect.p_df.len() as f64
    };

    // --- precision ------------------------------------------------------
    let mut wp_num = 0.0;
    let mut wp_den = 0.0;
    for (&w, &p_hat) in &approx.p_df {
        wp_den += p_hat;
        if perfect.p_df.contains_key(&w) {
            wp_num += p_hat;
        }
    }
    let weighted_precision = if wp_den > 0.0 { wp_num / wp_den } else { 0.0 };
    let unweighted_precision = if approx.p_df.is_empty() {
        0.0
    } else {
        common as f64 / approx.p_df.len() as f64
    };

    // --- word-ranking correlation (common words) -------------------------
    let mut xs = Vec::with_capacity(common);
    let mut ys = Vec::with_capacity(common);
    for (&w, &p_hat) in &approx.p_df {
        if let Some(&p) = perfect.p_df.get(&w) {
            xs.push(p_hat);
            ys.push(p);
        }
    }
    let spearman = spearman(&xs, &ys).unwrap_or(0.0);

    // --- KL divergence (term-frequency model, common words) --------------
    // Both distributions are renormalized over the common support so this
    // is a true KL divergence ("takes values from 0 to infinity",
    // Section 6.1); the raw truncated sum could otherwise go negative.
    let mut mass_p = 0.0;
    let mut mass_q = 0.0;
    for (&w, &p) in &perfect.p_tf {
        if let Some(&p_hat) = approx.p_tf.get(&w) {
            if p > 0.0 && p_hat > 0.0 {
                mass_p += p;
                mass_q += p_hat;
            }
        }
    }
    let mut kl = 0.0;
    if mass_p > 0.0 && mass_q > 0.0 {
        for (&w, &p) in &perfect.p_tf {
            if let Some(&p_hat) = approx.p_tf.get(&w) {
                if p > 0.0 && p_hat > 0.0 {
                    kl += (p / mass_p) * ((p / mass_p) / (p_hat / mass_q)).ln();
                }
            }
        }
        kl = kl.max(0.0); // guard float residue
    }

    SummaryQuality {
        weighted_recall,
        unweighted_recall,
        weighted_precision,
        unweighted_precision,
        spearman,
        kl_divergence: kl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbselect_core::summary::WordStats;

    fn content(db_size: f64, dfs: &[(TermId, f64)]) -> ContentSummary {
        let words: HashMap<TermId, WordStats> = dfs
            .iter()
            .map(|&(t, df)| {
                (
                    t,
                    WordStats {
                        sample_df: df as u32,
                        df,
                        tf: df,
                    },
                )
            })
            .collect();
        ContentSummary::new(db_size, db_size as u32, words)
    }

    #[test]
    fn identical_summaries_are_perfect() {
        let s = EvaluatedSummary::from_content_summary(&content(
            100.0,
            &[(1, 50.0), (2, 10.0), (3, 1.0)],
        ));
        let q = summary_quality(&s, &s);
        assert!((q.weighted_recall - 1.0).abs() < 1e-12);
        assert!((q.unweighted_recall - 1.0).abs() < 1e-12);
        assert!((q.weighted_precision - 1.0).abs() < 1e-12);
        assert!((q.unweighted_precision - 1.0).abs() < 1e-12);
        assert!((q.spearman - 1.0).abs() < 1e-12);
        assert!(q.kl_divergence.abs() < 1e-12);
    }

    #[test]
    fn recall_weights_frequent_words_more() {
        let perfect =
            EvaluatedSummary::from_content_summary(&content(100.0, &[(1, 90.0), (2, 1.0)]));
        // Approx has only the frequent word.
        let approx_frequent = EvaluatedSummary::from_content_summary(&content(100.0, &[(1, 90.0)]));
        // Or only the rare word.
        let approx_rare = EvaluatedSummary::from_content_summary(&content(100.0, &[(2, 1.0)]));
        let q_f = summary_quality(&approx_frequent, &perfect);
        let q_r = summary_quality(&approx_rare, &perfect);
        assert!(q_f.weighted_recall > 0.9);
        assert!(q_r.weighted_recall < 0.1);
        // Unweighted recall is 1/2 for both.
        assert!((q_f.unweighted_recall - 0.5).abs() < 1e-12);
        assert!((q_r.unweighted_recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spurious_words_hurt_precision_not_recall() {
        let perfect = EvaluatedSummary::from_content_summary(&content(100.0, &[(1, 50.0)]));
        let approx = EvaluatedSummary::from_content_summary(&content(
            100.0,
            &[(1, 50.0), (99, 25.0)], // word 99 not in the database
        ));
        let q = summary_quality(&approx, &perfect);
        assert!((q.weighted_recall - 1.0).abs() < 1e-12);
        assert!((q.unweighted_precision - 0.5).abs() < 1e-12);
        assert!((q.weighted_precision - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn shrunk_summary_word_dropping_rule() {
        use dbselect_core::category_summary::SummaryComponent;
        use dbselect_core::shrinkage::{shrink, ShrinkageConfig};
        use textindex::Document;

        // The sample underestimates word 5 (p̂ = 0.5) relative to the
        // category (0.9), which is what earns the category a non-trivial λ;
        // the category then contributes word 2 strongly and word 3
        // negligibly.
        let docs = [
            Document::from_tokens(0, vec![1, 5]),
            Document::from_tokens(1, vec![1]),
        ];
        let mut summary = ContentSummary::from_sample(docs.iter(), 2.0);
        summary.set_db_size(100.0);
        let entries = [(1, 0.9), (5, 0.9), (2, 0.4), (3, 0.000001)];
        let comp = SummaryComponent {
            p_df: entries.into_iter().collect(),
            p_tf: entries.into_iter().collect(),
        };
        let shrunk = shrink(
            &summary,
            &[std::sync::Arc::new(comp)],
            &ShrinkageConfig::default(),
        );
        let eval = EvaluatedSummary::from_shrunk_summary(&shrunk);
        assert!(eval.p_df.contains_key(&1));
        assert!(eval.p_df.contains_key(&2), "strongly-supported word kept");
        assert!(
            !eval.p_df.contains_key(&3),
            "sub-document-level word dropped"
        );
    }

    #[test]
    fn kl_penalizes_misestimated_frequencies() {
        let perfect =
            EvaluatedSummary::from_content_summary(&content(100.0, &[(1, 50.0), (2, 50.0)]));
        let good = EvaluatedSummary::from_content_summary(&content(100.0, &[(1, 49.0), (2, 51.0)]));
        let bad = EvaluatedSummary::from_content_summary(&content(100.0, &[(1, 95.0), (2, 5.0)]));
        let q_good = summary_quality(&good, &perfect);
        let q_bad = summary_quality(&bad, &perfect);
        assert!(q_good.kl_divergence < q_bad.kl_divergence);
    }

    #[test]
    fn empty_approx_summary_is_all_zero() {
        let perfect = EvaluatedSummary::from_content_summary(&content(100.0, &[(1, 50.0)]));
        let empty = EvaluatedSummary::from_content_summary(&content(100.0, &[]));
        let q = summary_quality(&empty, &perfect);
        assert_eq!(q.weighted_recall, 0.0);
        assert_eq!(q.unweighted_precision, 0.0);
        assert!(empty.is_empty());
        assert_eq!(perfect.len(), 1);
    }
}
