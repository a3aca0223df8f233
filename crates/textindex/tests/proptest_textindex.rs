//! Property-based tests for the text-indexing substrate: the tokenizer,
//! the Porter stemmer, and the inverted index must uphold their invariants
//! for arbitrary inputs.

use proptest::prelude::*;
use textindex::{porter_stem, tokenize, Document, InvertedIndex, SearchEngine, TermId};

proptest! {
    /// The stemmer must never panic and never grow a word by more than the
    /// single `e` its step-1b cleanup can append.
    #[test]
    fn stemmer_never_panics_or_grows(word in "[a-z]{0,20}") {
        let stem = porter_stem(&word);
        prop_assert!(stem.len() <= word.len() + 1);
    }

    /// Arbitrary (even non-ASCII) input must not panic the stemmer.
    #[test]
    fn stemmer_handles_arbitrary_strings(word in "\\PC{0,24}") {
        let _ = porter_stem(&word);
    }

    /// Stemming a stem must not panic and keeps the output ASCII when the
    /// input was ASCII lowercase.
    #[test]
    fn stemmer_output_stays_ascii(word in "[a-z]{3,16}") {
        let once = porter_stem(&word);
        prop_assert!(once.bytes().all(|b| b.is_ascii_lowercase()));
        let twice = porter_stem(&once);
        prop_assert!(twice.bytes().all(|b| b.is_ascii_lowercase()));
    }

    /// Tokens are lowercase, non-empty, at least two characters, and free
    /// of separator characters.
    #[test]
    fn tokenizer_invariants(text in "\\PC{0,200}") {
        for token in tokenize(&text) {
            prop_assert!(token.chars().count() >= 2);
            prop_assert!(token.chars().all(|c| c.is_alphanumeric()));
            prop_assert_eq!(token.clone(), token.to_lowercase());
        }
    }

    /// Tokenization is insensitive to surrounding whitespace.
    #[test]
    fn tokenizer_ignores_padding(text in "[a-z ]{0,80}") {
        let padded = format!("  \t{text} \n ");
        prop_assert_eq!(tokenize(&text), tokenize(&padded));
    }
}

fn docs_strategy() -> impl Strategy<Value = Vec<Vec<TermId>>> {
    prop::collection::vec(prop::collection::vec(0u32..50, 0..30), 1..20)
}

proptest! {
    /// Document frequency of any term never exceeds the document count, and
    /// collection frequency never falls below document frequency.
    #[test]
    fn index_frequency_invariants(docs in docs_strategy()) {
        let documents: Vec<Document> = docs
            .iter()
            .enumerate()
            .map(|(i, t)| Document::from_tokens(i as u32, t.clone()))
            .collect();
        let index = InvertedIndex::build(&documents);
        prop_assert_eq!(index.num_docs(), documents.len());
        for (term, list) in index.terms() {
            let df = list.document_frequency();
            prop_assert!(df >= 1);
            prop_assert!(df <= index.num_docs());
            prop_assert!(list.collection_frequency >= df as u64);
            prop_assert_eq!(index.document_frequency(term), df);
        }
        // Every token is one occurrence of its term.
        let total: u64 = documents.iter().map(|d| d.len() as u64).sum();
        let occurrences: u64 = index.terms().map(|(_, l)| l.collection_frequency).sum();
        prop_assert_eq!(occurrences, total);
    }

    /// A conjunctive search returns exactly the documents containing every
    /// query term, and the reported match count equals that set's size.
    #[test]
    fn search_matches_are_exact(docs in docs_strategy(), query in prop::collection::vec(0u32..50, 1..4)) {
        let documents: Vec<Document> = docs
            .iter()
            .enumerate()
            .map(|(i, t)| Document::from_tokens(i as u32, t.clone()))
            .collect();
        let index = InvertedIndex::build(&documents);
        let engine = SearchEngine::new(&index);
        let mut q = query.clone();
        q.sort_unstable();
        q.dedup();
        let result = engine.search(&q, documents.len());
        let expected: Vec<u32> = documents
            .iter()
            .filter(|d| q.iter().all(|&t| d.contains_term(t)))
            .map(|d| d.id)
            .collect();
        prop_assert_eq!(result.total_matches, expected.len());
        let mut returned = result.doc_ids.clone();
        returned.sort_unstable();
        prop_assert_eq!(returned, expected);
    }
}
