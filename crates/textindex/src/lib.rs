//! `textindex` — an in-memory full-text search engine.
//!
//! This crate is the substrate that plays the role Jakarta Lucene played in
//! the SIGMOD 2004 paper *"When one Sample is not Enough: Improving Text
//! Database Selection Using Shrinkage"*: it indexes the documents of each
//! text database and answers keyword queries with a ranked result list plus
//! the **total number of matching documents** (the "matches" count that both
//! the sampling algorithms and the frequency-estimation step rely on).
//!
//! The crate deliberately exposes two views of a database:
//!
//! * [`InvertedIndex`] / [`SearchEngine`] — the full, cooperative view used
//!   to build *perfect* content summaries for evaluation, and
//! * the [`RemoteDatabase`] trait — the restricted, "uncooperative web
//!   database" interface that only supports querying and fetching returned
//!   documents, which is all the samplers in the `sampling` crate may use.
//!
//! All text is interned through a shared [`TermDict`]; documents, postings,
//! and everything downstream (content summaries, shrinkage EM) operate on
//! dense `u32` [`TermId`]s for memory efficiency and fast hashing.
//!
//! # Example
//!
//! ```
//! use textindex::{Analyzer, Document, InvertedIndex, SearchEngine, TermDict};
//!
//! let analyzer = Analyzer::english();
//! let mut dict = TermDict::new();
//! let docs = vec![
//!     Document::from_text(0, "Hypertension is a risk factor for heart disease",
//!                         &analyzer, &mut dict),
//!     Document::from_text(1, "The algorithm sorts integers in linear time",
//!                         &analyzer, &mut dict),
//! ];
//! let index = InvertedIndex::build(&docs);
//! let engine = SearchEngine::new(&index);
//! let term = dict.lookup("hypertens").unwrap();
//! let result = engine.search(&[term], 10);
//! assert_eq!(result.total_matches, 1);
//! assert_eq!(result.doc_ids, vec![0]);
//! ```

pub mod analyzer;
pub mod dict;
pub mod document;
pub mod index;
pub mod remote;
pub mod search;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

pub use analyzer::Analyzer;
pub use dict::{TermDict, TermId};
pub use document::{DocId, Document};
pub use index::InvertedIndex;
pub use remote::{IndexedDatabase, RemoteDatabase, SearchOutcome};
pub use search::{SearchEngine, SearchResult};
pub use stem::porter_stem;
pub use tokenize::tokenize;
