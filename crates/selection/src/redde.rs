//! The ReDDE database selection algorithm (Si & Callan, SIGIR 2003) —
//! *"Relevant Document Distribution Estimation"*.
//!
//! The paper's footnote 9 leaves this as future work: *"Experiments using
//! shrinkage together with ReDDE, a promising, recently proposed database
//! selection algorithm, remain as interesting future work."* This module
//! provides that extension.
//!
//! ReDDE works differently from summary-based scorers: it pools every
//! database's *document sample* into one centralized sample index, runs the
//! query against it, and treats each retrieved sample document as a proxy
//! for `|D̂| / |S_D|` documents of its source database (its "weight"). The
//! estimated number of relevant documents in `D` is the summed weight of
//! `D`'s documents among the top-ranked sample documents:
//!
//! ```text
//! rel(q, D) ∝ Σ_{d ∈ S_D ∩ topRanked(q)} |D̂| / |S_D|
//! ```
//!
//! where `topRanked(q)` is the prefix of the centralized ranking whose
//! cumulative weight reaches `ratio · Σ|D̂|` (Si & Callan's
//! `ratio` ≈ 0.003–0.005 of the collection).
//!
//! Because ReDDE consumes raw samples rather than content summaries, it
//! composes with shrinkage differently: shrinkage cannot add *documents*,
//! but the adaptive machinery still applies through the summary-based
//! scoring interface (`SelectionAlgorithm`), which this type implements by
//! falling back to a bGlOSS-style expected-match estimate for hypothetical
//! word frequencies.

use textindex::{Document, InvertedIndex, SearchEngine, TermId};

use dbselect_core::summary::SummaryView;

use crate::bgloss::BGloss;
use crate::context::{CollectionContext, IndependentTerms, RankedDatabase, SelectionAlgorithm};

/// Configuration for ReDDE.
#[derive(Debug, Clone, Copy)]
pub struct ReddeConfig {
    /// Fraction of the (estimated) total collection that counts as
    /// "top-ranked" when accumulating sample-document weights.
    pub ratio: f64,
    /// Cap on centralized-index results examined per query.
    pub max_results: usize,
}

impl Default for ReddeConfig {
    fn default() -> Self {
        ReddeConfig {
            ratio: 0.003,
            max_results: 2000,
        }
    }
}

/// The centralized sample index plus per-database bookkeeping.
pub struct Redde {
    index: InvertedIndex,
    /// For each centralized document: its source database.
    doc_db: Vec<usize>,
    /// Per database: `|D̂| / |S_D|` — how many real documents one sample
    /// document stands for.
    doc_weight: Vec<f64>,
    /// Estimated total collection size `Σ |D̂|`.
    total_size: f64,
    config: ReddeConfig,
    num_databases: usize,
}

impl Redde {
    /// Build the centralized sample index.
    ///
    /// `samples[i]` are the documents sampled from database `i`, and
    /// `db_sizes[i]` its estimated size `|D̂|`.
    pub fn build(samples: &[Vec<Document>], db_sizes: &[f64], config: ReddeConfig) -> Self {
        assert_eq!(samples.len(), db_sizes.len());
        let mut central: Vec<Document> = Vec::new();
        let mut doc_db = Vec::new();
        let mut doc_weight = Vec::new();
        for (db, docs) in samples.iter().enumerate() {
            let weight = if docs.is_empty() {
                0.0
            } else {
                db_sizes[db] / docs.len() as f64
            };
            for doc in docs {
                let id = central.len() as u32;
                central.push(Document::from_tokens(id, doc.tokens.clone()));
                doc_db.push(db);
                doc_weight.push(weight);
            }
        }
        let index = InvertedIndex::build(&central);
        Redde {
            index,
            doc_db,
            doc_weight,
            total_size: db_sizes.iter().sum(),
            config,
            num_databases: samples.len(),
        }
    }

    /// Rank databases for `query` by estimated relevant-document count.
    /// Databases with zero estimated relevant documents are not selected.
    pub fn rank(&self, query: &[TermId]) -> Vec<RankedDatabase> {
        let engine = SearchEngine::new(&self.index);
        // Disjunctive retrieval: score each sample document by tf·idf over
        // the query words it contains (ReDDE uses a centralized retrieval
        // run; conjunctive matching would be far too strict for long
        // queries).
        let ranked_docs = self.disjunctive_top_docs(&engine, query);
        // Accumulate weights until the cumulative estimated document count
        // reaches ratio · total collection size.
        let budget = self.config.ratio * self.total_size;
        let mut cumulative = 0.0;
        let mut rel = vec![0.0f64; self.num_databases];
        for doc in ranked_docs {
            let w = self.doc_weight[doc as usize];
            rel[self.doc_db[doc as usize]] += w;
            cumulative += w;
            if cumulative >= budget {
                break;
            }
        }
        let mut ranking: Vec<RankedDatabase> = rel
            .into_iter()
            .enumerate()
            .filter(|&(_, score)| score > 0.0)
            .map(|(index, score)| RankedDatabase { index, score })
            .collect();
        ranking.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.index.cmp(&b.index))
        });
        ranking
    }

    fn disjunctive_top_docs(&self, engine: &SearchEngine<'_>, query: &[TermId]) -> Vec<u32> {
        let n = self.index.num_docs() as f64;
        let mut scores: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for &term in query {
            let Some(list) = engine.index().posting_list(term) else {
                continue;
            };
            let idf = (1.0 + n / list.document_frequency() as f64).ln();
            for &(doc, tf) in &list.postings {
                *scores.entry(doc).or_insert(0.0) += f64::from(tf) * idf;
            }
        }
        let mut ranked: Vec<(u32, f64)> = scores.into_iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(self.config.max_results);
        ranked.into_iter().map(|(d, _)| d).collect()
    }
}

impl SelectionAlgorithm for Redde {
    fn name(&self) -> &'static str {
        "ReDDE"
    }

    /// Summary-based fallback used only by the adaptive uncertainty test:
    /// the expected number of documents containing all query words
    /// (bGlOSS-style), which tracks what ReDDE estimates from samples.
    fn score_with_p(
        &self,
        _query: &[TermId],
        p: &[f64],
        summary: &dyn SummaryView,
        _ctx: &CollectionContext,
    ) -> f64 {
        if p.is_empty() {
            return 0.0;
        }
        summary.db_size() * p.iter().product::<f64>()
    }

    fn default_score(
        &self,
        _query: &[TermId],
        _summary: &dyn SummaryView,
        _ctx: &CollectionContext,
    ) -> f64 {
        0.0
    }

    /// The fallback is bGlOSS's product, so it shares bGlOSS's closed form.
    fn independent_terms(&self) -> Option<&dyn IndependentTerms> {
        Some(&BGloss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u32, terms: &[TermId]) -> Document {
        Document::from_tokens(id, terms.to_vec())
    }

    /// Three databases: db 0's sample is rich in term 7, db 1 has a little,
    /// db 2 none.
    fn fixture() -> Redde {
        let samples = vec![
            vec![doc(0, &[7, 7, 1]), doc(1, &[7, 2]), doc(2, &[1, 2])],
            vec![doc(0, &[7, 1]), doc(1, &[3, 4]), doc(2, &[3])],
            vec![doc(0, &[5, 6]), doc(1, &[5])],
        ];
        let sizes = vec![3000.0, 3000.0, 3000.0];
        // ratio 1.0: with three-document samples every retrieved document
        // fits the budget (the default 0.003 is tuned for 300-doc samples).
        Redde::build(
            &samples,
            &sizes,
            ReddeConfig {
                ratio: 1.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn central_index_pools_all_samples() {
        let redde = fixture();
        assert_eq!(redde.doc_db.len(), 8);
        assert_eq!(redde.index.num_docs(), 8);
    }

    #[test]
    fn ranks_by_estimated_relevant_documents() {
        let redde = fixture();
        let ranking = redde.rank(&[7]);
        assert_eq!(ranking[0].index, 0, "db 0 has the most term-7 sample docs");
        assert_eq!(ranking.len(), 2, "db 2 has no term-7 docs at all");
        assert!(ranking[0].score > ranking[1].score);
    }

    #[test]
    fn bigger_databases_get_bigger_estimates() {
        let samples = vec![
            vec![doc(0, &[7]), doc(1, &[1])],
            vec![doc(0, &[7]), doc(1, &[1])],
        ];
        // Same samples, but db 1 is 10× larger: each of its sample docs
        // stands for 10× more documents.
        let redde = Redde::build(
            &samples,
            &[100.0, 1000.0],
            ReddeConfig {
                ratio: 1.0,
                ..Default::default()
            },
        );
        let ranking = redde.rank(&[7]);
        assert_eq!(ranking[0].index, 1);
        assert!((ranking[0].score / ranking[1].score - 10.0).abs() < 1e-9);
    }

    #[test]
    fn no_match_means_no_selection() {
        let redde = fixture();
        assert!(redde.rank(&[99]).is_empty());
    }

    #[test]
    fn empty_samples_are_harmless() {
        let redde = Redde::build(
            &[vec![], vec![doc(0, &[1])]],
            &[100.0, 100.0],
            ReddeConfig::default(),
        );
        let ranking = redde.rank(&[1]);
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].index, 1);
    }

    #[test]
    fn ratio_budget_limits_accumulation() {
        // With a tiny ratio, only the very top documents count.
        let samples = vec![
            vec![doc(0, &[7, 7, 7, 7]), doc(1, &[1])], // strongest match
            vec![doc(0, &[7]), doc(1, &[1])],
        ];
        let config = ReddeConfig {
            ratio: 0.0004,
            max_results: 100,
        };
        let redde = Redde::build(&samples, &[5000.0, 5000.0], config);
        let ranking = redde.rank(&[7]);
        // Budget = 0.0004 · 10000 = 4 docs < one sample doc's weight (2500),
        // so exactly one document is counted — the strongest.
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].index, 0);
    }
}
