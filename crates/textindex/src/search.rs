//! Ranked keyword search over an [`InvertedIndex`].
//!
//! Queries are conjunctive (all terms must match), mirroring the boolean
//! retrieval model the sampling algorithms in the paper assume: a query's
//! "number of matches" is the number of documents containing every query
//! word, and the engine returns the top-ranked matches.
//!
//! [`SearchEngine::search`] is the samplers' inner loop (every QBS and FPS
//! probe runs it), so it keeps no map and sorts only what it returns. The
//! index hands back the matches ascending, and each query term's posting
//! list ascends too, so a term's scores are added by one merge walk into a
//! `Vec` aligned with the matches. Terms are walked in query order, so each
//! document's score is the `+=` sequence a per-document map gave it, and a
//! term's idf is computed once: a pure function of the term, the same bits.
//! The top `k` are then picked with `select_nth_unstable_by` and only they
//! are sorted. Score descending, then document id ascending, is a strict
//! total order (ids are distinct, scores are never NaN), so picking then
//! sorting gives the list a full sort gives.

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::dict::TermId;
use crate::document::DocId;
use crate::index::{InvertedIndex, PostingList};

/// Result of one search: the total match count plus the ranked top documents.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Number of documents matching *all* query terms. This is the "matches"
    /// figure real search interfaces report and that frequency estimation
    /// (Appendix A) and sample-resample size estimation rely on.
    pub total_matches: usize,
    /// Up to `k` matching document ids, best-ranked first.
    pub doc_ids: Vec<DocId>,
    /// Retrieval scores aligned with `doc_ids` (needed by results merging).
    pub scores: Vec<f64>,
}

/// A ranked search engine over a borrowed index. A matched document
/// scores `Σ tf(w,d) · ln(1 + N/df(w))` over the query words — tf·idf,
/// simple and length-insensitive.
#[derive(Debug, Clone, Copy)]
pub struct SearchEngine<'a> {
    index: &'a InvertedIndex,
}

impl<'a> SearchEngine<'a> {
    /// Wrap `index` in a tf·idf search engine.
    pub fn new(index: &'a InvertedIndex) -> Self {
        SearchEngine { index }
    }

    /// The underlying index.
    pub fn index(&self) -> &'a InvertedIndex {
        self.index
    }

    /// Evaluate a conjunctive query and return the top-`k` matches, ties
    /// broken by ascending document id for determinism.
    pub fn search(&self, terms: &[TermId], k: usize) -> SearchResult {
        let matches = self.index.conjunctive_match(terms);
        let total_matches = matches.len();
        if matches.is_empty() || k == 0 {
            return SearchResult {
                total_matches,
                doc_ids: Vec::new(),
                scores: Vec::new(),
            };
        }
        let mut scores = vec![0.0; matches.len()];
        for &term in terms {
            let list = self
                .index
                .posting_list(term)
                .expect("a query term with matches has postings");
            let idf = self.idf(list);
            let mut postings = list.postings.iter();
            for (score, &doc) in scores.iter_mut().zip(&matches) {
                let &(_, tf) = postings
                    .find(|&&(d, _)| d == doc)
                    .expect("a match is in every query term's postings");
                *score += f64::from(tf) * idf;
            }
        }
        let mut ranked: Vec<(DocId, f64)> = matches.into_iter().zip(scores).collect();
        if k < ranked.len() {
            ranked.select_nth_unstable_by(k - 1, by_rank);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(by_rank);
        let (doc_ids, scores) = ranked.into_iter().unzip();
        SearchResult {
            total_matches,
            doc_ids,
            scores,
        }
    }

    /// The idf of the term whose postings are `list`.
    fn idf(&self, list: &PostingList) -> f64 {
        let n = self.index.num_docs() as f64;
        let df = list.document_frequency() as f64;
        (1.0 + n / df).ln()
    }

    /// Evaluate a *disjunctive* (OR) query: rank every document containing
    /// at least one query term. This is how result lists are produced when
    /// a metasearcher forwards a query — demanding all words of a long
    /// query in one document (the conjunctive `search`) would return almost
    /// nothing.
    pub fn search_disjunctive(&self, terms: &[TermId], k: usize) -> SearchResult {
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        let mut distinct_terms: Vec<TermId> = terms.to_vec();
        distinct_terms.sort_unstable();
        distinct_terms.dedup();
        for &term in &distinct_terms {
            let Some(list) = self.index.posting_list(term) else {
                continue;
            };
            let idf = self.idf(list);
            for &(doc, tf) in &list.postings {
                *scores.entry(doc).or_insert(0.0) += f64::from(tf) * idf;
            }
        }
        let total_matches = scores.len();
        let mut ranked: Vec<(DocId, f64)> = scores.into_iter().collect();
        ranked.sort_by(by_rank);
        ranked.truncate(k);
        let (doc_ids, scores) = ranked.into_iter().unzip();
        SearchResult {
            total_matches,
            doc_ids,
            scores,
        }
    }

    /// Number of documents matching the single word `term` — the cheapest
    /// query form, used heavily by the samplers.
    pub fn match_count(&self, term: TermId) -> usize {
        self.index.document_frequency(term)
    }
}

/// Rank order: score descending, then document id ascending.
fn by_rank(a: &(DocId, f64), b: &(DocId, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .expect("scores are never NaN")
        .then(a.0.cmp(&b.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;

    // Term ids: 0=heart 1=blood 2=pressure 3=soccer
    fn doc(id: DocId, terms: &[TermId]) -> Document {
        Document::from_tokens(id, terms.to_vec())
    }

    fn engine_fixture() -> InvertedIndex {
        InvertedIndex::build(&[
            doc(0, &[0, 1]),
            doc(1, &[0, 0, 0, 1]),
            doc(2, &[1, 2]),
            doc(3, &[3]),
        ])
    }

    #[test]
    fn total_matches_is_conjunctive_count() {
        let idx = engine_fixture();
        let engine = SearchEngine::new(&idx);
        let r = engine.search(&[0, 1], 10);
        assert_eq!(r.total_matches, 2);
    }

    #[test]
    fn ranking_prefers_higher_tf() {
        let idx = engine_fixture();
        let engine = SearchEngine::new(&idx);
        let r = engine.search(&[0], 10);
        // Doc 1 has tf=3 for term 0, doc 0 has tf=1.
        assert_eq!(r.doc_ids, vec![1, 0]);
    }

    #[test]
    fn k_limits_results_but_not_match_count() {
        let idx = engine_fixture();
        let engine = SearchEngine::new(&idx);
        let r = engine.search(&[1], 1);
        assert_eq!(r.total_matches, 3);
        assert_eq!(r.doc_ids.len(), 1);
    }

    #[test]
    fn no_match_returns_empty() {
        let idx = engine_fixture();
        let engine = SearchEngine::new(&idx);
        let r = engine.search(&[42], 5);
        assert_eq!(r.total_matches, 0);
        assert!(r.doc_ids.is_empty());
    }

    #[test]
    fn tie_broken_by_doc_id() {
        let idx = InvertedIndex::build(&[doc(0, &[7]), doc(1, &[7])]);
        let engine = SearchEngine::new(&idx);
        assert_eq!(engine.search(&[7], 10).doc_ids, vec![0, 1]);
    }

    #[test]
    fn match_count_shortcut() {
        let idx = engine_fixture();
        let engine = SearchEngine::new(&idx);
        assert_eq!(engine.match_count(1), 3);
        assert_eq!(engine.match_count(42), 0);
    }
}

#[cfg(test)]
mod disjunctive_tests {
    use super::*;
    use crate::document::Document;

    fn doc(id: DocId, terms: &[TermId]) -> Document {
        Document::from_tokens(id, terms.to_vec())
    }

    #[test]
    fn disjunctive_matches_any_term() {
        let idx = InvertedIndex::build(&[doc(0, &[1, 2]), doc(1, &[2, 3]), doc(2, &[4])]);
        let engine = SearchEngine::new(&idx);
        let r = engine.search_disjunctive(&[1, 3], 10);
        assert_eq!(r.total_matches, 2, "docs 0 and 1 contain at least one term");
        // Conjunctive would find nothing.
        assert_eq!(engine.search(&[1, 3], 10).total_matches, 0);
    }

    #[test]
    fn documents_matching_more_terms_rank_higher() {
        let idx = InvertedIndex::build(&[doc(0, &[1, 9]), doc(1, &[1, 2, 3])]);
        let engine = SearchEngine::new(&idx);
        let r = engine.search_disjunctive(&[1, 2, 3], 10);
        assert_eq!(r.doc_ids[0], 1);
        assert!(r.scores[0] > r.scores[1]);
    }

    #[test]
    fn duplicate_query_terms_do_not_double_count() {
        let idx = InvertedIndex::build(&[doc(0, &[1]), doc(1, &[1])]);
        let engine = SearchEngine::new(&idx);
        let once = engine.search_disjunctive(&[1], 10);
        let twice = engine.search_disjunctive(&[1, 1], 10);
        assert_eq!(once.scores, twice.scores);
    }

    #[test]
    fn empty_query_matches_nothing() {
        let idx = InvertedIndex::build(&[doc(0, &[1])]);
        let engine = SearchEngine::new(&idx);
        let r = engine.search_disjunctive(&[], 10);
        assert_eq!(r.total_matches, 0);
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::document::Document;
    use proptest::prelude::*;

    /// The search [`SearchEngine::search`] replaced: every match scored in
    /// a map, then all of them sorted. Its results are the oracle.
    fn search_with_a_map(engine: &SearchEngine<'_>, terms: &[TermId], k: usize) -> SearchResult {
        let index = engine.index;
        let matches = index.conjunctive_match(terms);
        let total_matches = matches.len();
        if matches.is_empty() || k == 0 {
            return SearchResult {
                total_matches,
                doc_ids: Vec::new(),
                scores: Vec::new(),
            };
        }
        let n = index.num_docs() as f64;
        let mut scores: HashMap<DocId, f64> = matches.iter().map(|&d| (d, 0.0)).collect();
        for &term in terms {
            let Some(list) = index.posting_list(term) else {
                continue;
            };
            let df = list.document_frequency() as f64;
            for &(doc, tf) in &list.postings {
                let Some(score) = scores.get_mut(&doc) else {
                    continue;
                };
                *score += f64::from(tf) * (1.0 + n / df).ln();
            }
        }
        let mut ranked: Vec<(DocId, f64)> = scores.into_iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        let (doc_ids, scores) = ranked.into_iter().unzip();
        SearchResult {
            total_matches,
            doc_ids,
            scores,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random indexes over six words (so many documents tie), queries
        /// with absent and repeated words, and `k` below, at and above the
        /// match count.
        #[test]
        fn search_equals_the_map_and_full_sort_it_replaced(
            docs in prop::collection::vec(prop::collection::vec(0u32..6, 0..8), 1..40),
            query in prop::collection::vec(0u32..7, 0..4),
        ) {
            let documents: Vec<Document> = docs
                .into_iter()
                .enumerate()
                .map(|(i, t)| Document::from_tokens(i as u32, t))
                .collect();
            let index = InvertedIndex::build(&documents);
            let m = index.conjunctive_match(&query).len();
            let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let engine = SearchEngine::new(&index);
            for k in [0, 1, m.saturating_sub(1), m, m + 5] {
                let got = engine.search(&query, k);
                let want = search_with_a_map(&engine, &query, k);
                prop_assert_eq!(got.total_matches, want.total_matches);
                prop_assert_eq!(&got.doc_ids, &want.doc_ids);
                prop_assert_eq!(bits(&got.scores), bits(&want.scores));
            }
        }
    }
}
