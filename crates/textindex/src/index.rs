//! The inverted index: term id → postings (document id, term frequency).

use std::collections::HashMap;

use crate::dict::TermId;
use crate::document::{DocId, Document};

/// A posting list for one term, sorted by document id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    /// `(doc_id, term_frequency)` pairs, ascending by `doc_id`.
    pub postings: Vec<(DocId, u32)>,
    /// Total number of occurrences of the term across the collection.
    pub collection_frequency: u64,
}

impl PostingList {
    /// Number of documents containing the term.
    pub fn document_frequency(&self) -> usize {
        self.postings.len()
    }
}

/// An immutable in-memory inverted index over a document collection.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    terms: HashMap<TermId, PostingList>,
    num_docs: usize,
}

impl InvertedIndex {
    /// Build an index over `docs`.
    ///
    /// Document ids must equal each document's position in the slice; this is
    /// the invariant every database in the reproduction maintains, and it
    /// lets posting lists stay sorted without a sort pass.
    ///
    /// # Panics
    /// Panics if a document's `id` differs from its position.
    pub fn build(docs: &[Document]) -> Self {
        let mut terms: HashMap<TermId, PostingList> = HashMap::new();
        let mut tf_scratch: HashMap<TermId, u32> = HashMap::new();
        for (pos, doc) in docs.iter().enumerate() {
            assert_eq!(doc.id as usize, pos, "document id must equal its position");
            tf_scratch.clear();
            for &token in &doc.tokens {
                *tf_scratch.entry(token).or_insert(0) += 1;
            }
            for (term, tf) in tf_scratch.drain() {
                let list = terms.entry(term).or_default();
                list.postings.push((doc.id, tf));
                list.collection_frequency += u64::from(tf);
            }
        }
        InvertedIndex {
            terms,
            num_docs: docs.len(),
        }
    }

    /// Number of documents in the collection.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Number of distinct terms.
    pub fn vocabulary_size(&self) -> usize {
        self.terms.len()
    }

    /// Iterate over `(term, posting_list)` pairs in arbitrary order.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, &PostingList)> {
        self.terms.iter().map(|(&t, p)| (t, p))
    }

    /// The posting list for `term`, if any document contains it.
    pub fn posting_list(&self, term: TermId) -> Option<&PostingList> {
        self.terms.get(&term)
    }

    /// Number of documents containing `term`.
    pub fn document_frequency(&self, term: TermId) -> usize {
        self.terms
            .get(&term)
            .map_or(0, PostingList::document_frequency)
    }

    /// Total occurrences of `term` in the collection.
    pub fn collection_frequency(&self, term: TermId) -> u64 {
        self.terms.get(&term).map_or(0, |p| p.collection_frequency)
    }

    /// Ids of documents containing *all* of `terms` (conjunctive match),
    /// ascending. An empty term list matches nothing.
    pub fn conjunctive_match(&self, terms: &[TermId]) -> Vec<DocId> {
        let mut lists: Vec<&PostingList> = Vec::with_capacity(terms.len());
        for &term in terms {
            match self.terms.get(&term) {
                Some(list) => lists.push(list),
                None => return Vec::new(),
            }
        }
        if lists.is_empty() {
            return Vec::new();
        }
        // Intersect starting from the rarest term.
        lists.sort_by_key(|l| l.postings.len());
        let mut result: Vec<DocId> = lists[0].postings.iter().map(|&(d, _)| d).collect();
        for list in &lists[1..] {
            let mut keep = Vec::with_capacity(result.len().min(list.postings.len()));
            let mut it = list.postings.iter().peekable();
            for &doc in &result {
                while let Some(&&(d, _)) = it.peek() {
                    if d < doc {
                        it.next();
                    } else {
                        break;
                    }
                }
                if let Some(&&(d, _)) = it.peek() {
                    if d == doc {
                        keep.push(doc);
                    }
                }
            }
            result = keep;
            if result.is_empty() {
                break;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Term ids used by the fixture: 0=heart 1=blood 2=surgery 3=pressure
    // 4=soccer 5=goal
    fn doc(id: DocId, terms: &[TermId]) -> Document {
        Document::from_tokens(id, terms.to_vec())
    }

    fn sample_index() -> InvertedIndex {
        InvertedIndex::build(&[
            doc(0, &[0, 1, 1]),
            doc(1, &[0, 2]),
            doc(2, &[1, 3, 0]),
            doc(3, &[4, 5]),
        ])
    }

    #[test]
    fn document_frequency_counts_docs_not_occurrences() {
        let idx = sample_index();
        assert_eq!(idx.document_frequency(1), 2);
        assert_eq!(idx.collection_frequency(1), 3);
        assert_eq!(idx.document_frequency(99), 0);
    }

    #[test]
    fn collection_stats() {
        let idx = sample_index();
        assert_eq!(idx.num_docs(), 4);
        assert_eq!(idx.vocabulary_size(), 6);
    }

    #[test]
    fn conjunctive_match_intersects() {
        let idx = sample_index();
        assert_eq!(idx.conjunctive_match(&[0, 1]), vec![0, 2]);
        assert_eq!(idx.conjunctive_match(&[0]), vec![0, 1, 2]);
        assert!(idx.conjunctive_match(&[0, 5]).is_empty());
        assert!(idx.conjunctive_match(&[99]).is_empty());
        assert!(idx.conjunctive_match(&[]).is_empty());
    }

    #[test]
    fn postings_are_sorted_by_doc_id() {
        let idx = sample_index();
        for (_, list) in idx.terms() {
            assert!(list.postings.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    #[should_panic(expected = "document id must equal its position")]
    fn build_rejects_misnumbered_docs() {
        InvertedIndex::build(&[doc(5, &[0])]);
    }

    #[test]
    fn empty_collection() {
        let idx = InvertedIndex::build(&[]);
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.vocabulary_size(), 0);
        assert!(idx.conjunctive_match(&[0]).is_empty());
    }
}
