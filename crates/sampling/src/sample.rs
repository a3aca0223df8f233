//! The result of sampling an uncooperative database: the retrieved
//! documents plus everything observed along the way that later stages need
//! (exact match counts for probe words, Mandelbrot checkpoints for
//! frequency estimation).
//!
//! A sample counts its words as the documents arrive
//! ([`DocumentSample::push`]): per word, the sample documents holding it
//! (`sample_df`) and its occurrences (`tf`). The raw summary, every
//! Mandelbrot checkpoint and sample-resample read those counts, so a
//! document is read once, when it is pushed. Counting a token is two array
//! loads, not a hash: a dense scratch maps each term id to the word's row
//! and grows to the largest id met. The same pass yields the document's
//! distinct terms, which QBS harvests as query candidates.
//!
//! The counts give [`ContentSummary::from_sample`]'s bits. That function
//! adds 1 to a word's `sample_df` for each document holding it and `1.0` to
//! its `tf` for each occurrence, then multiplies both by `|S| / |S|`.
//! Integers below 2^53 are exact in `f64`, so the converted count is that
//! sum, and the multiply is the same one. A checkpoint sorts the
//! `sample_df` values before it fits, so the order words were met in never
//! reaches it.

use std::collections::HashMap;

use dbselect_core::freqest::{checkpoint_from_sample_dfs, MandelbrotCheckpoint};
use dbselect_core::summary::{ContentSummary, WordStats};
use textindex::{Document, TermId};

/// A document sample extracted from a remote database via querying.
#[derive(Debug, Clone, Default)]
pub struct DocumentSample {
    /// The retrieved documents (ids are the remote database's own ids).
    /// Add them with [`DocumentSample::push`]: the running counts must
    /// cover every document, and reading the counts panics when they do
    /// not.
    pub docs: Vec<Document>,
    /// Exact database document frequencies observed as match counts of
    /// *single-word* queries — "the number of matches for each of these
    /// queries corresponds to the frequency of the associated word in the
    /// database" (Appendix A).
    pub exact_df: HashMap<TermId, u32>,
    /// Mandelbrot fits taken at intervals during sampling (Appendix A).
    pub checkpoints: Vec<MandelbrotCheckpoint>,
    /// Number of queries issued (the sampling cost).
    pub queries_sent: usize,
    counts: Counts,
}

/// Per-word counts over the pushed documents.
#[derive(Debug, Clone, Default)]
struct Counts {
    /// Term id → 1 + the word's index in `words`; 0 for a word not met.
    /// Empty after [`DocumentSample::release_scratch`] until the next push.
    row: Vec<u32>,
    /// One entry per distinct word, in the order words were first met.
    words: Vec<WordCount>,
    /// Documents counted.
    docs: usize,
}

#[derive(Debug, Clone, Copy)]
struct WordCount {
    term: TermId,
    sample_df: u32,
    tf: u64,
    /// `Counts::docs` when the word was last counted, so a document adds
    /// to its `sample_df` once.
    last_doc: usize,
}

/// `row`'s entry for `term`, grown to cover the id.
fn entry(row: &mut Vec<u32>, term: TermId) -> &mut u32 {
    let t = term as usize;
    if t >= row.len() {
        row.resize(t + 1, 0);
    }
    &mut row[t]
}

impl Counts {
    /// Count one document's tokens; return its distinct terms, ascending.
    fn add(&mut self, tokens: &[TermId]) -> Vec<TermId> {
        if self.row.is_empty() {
            for (i, word) in self.words.iter().enumerate() {
                *entry(&mut self.row, word.term) = i as u32 + 1;
            }
        }
        self.docs += 1;
        let mut distinct = Vec::new();
        for &term in tokens {
            let row = entry(&mut self.row, term);
            if *row == 0 {
                self.words.push(WordCount {
                    term,
                    sample_df: 0,
                    tf: 0,
                    last_doc: 0,
                });
                *row = u32::try_from(self.words.len()).expect("fewer than 2^32 distinct words");
            }
            let word = &mut self.words[*row as usize - 1];
            if word.last_doc != self.docs {
                word.last_doc = self.docs;
                word.sample_df += 1;
                distinct.push(term);
            }
            word.tf += 1;
        }
        distinct.sort_unstable();
        distinct
    }
}

impl DocumentSample {
    /// Number of documents in the sample.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Is the sample empty?
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Add a retrieved document to the sample and count its words. Returns
    /// the document's distinct terms, ascending (what
    /// [`Document::distinct_terms`] returns), found by the same pass.
    pub fn push(&mut self, doc: Document) -> Vec<TermId> {
        let distinct = self.counts.add(&doc.tokens);
        self.docs.push(doc);
        distinct
    }

    /// Free the scratch [`Self::push`] indexes words by: it grows to the
    /// largest term id met, which a profile kept in memory need not hold.
    /// The counts stay; the next push rebuilds the scratch from them. The
    /// samplers call this before they return.
    pub fn release_scratch(&mut self) {
        self.counts.row = Vec::new();
    }

    /// The running counts, checked to cover every document.
    fn counts(&self) -> &Counts {
        assert_eq!(
            self.counts.docs,
            self.docs.len(),
            "sample documents must be added with DocumentSample::push"
        );
        &self.counts
    }

    /// `(term, sample_df)` for every word of the sample, in no set order.
    pub(crate) fn sample_dfs(&self) -> impl Iterator<Item = (TermId, u32)> + '_ {
        self.counts().words.iter().map(|w| (w.term, w.sample_df))
    }

    /// Build the sample's raw content summary with the sample itself as the
    /// collection (`|D̂| = |S|`) — the "no frequency estimation" variant of
    /// Section 5.2. Bit for bit [`ContentSummary::from_sample`] over
    /// [`Self::docs`], built from the counts.
    pub fn raw_summary(&self) -> ContentSummary {
        let counts = self.counts();
        let db_size = self.docs.len() as f64;
        let sample_size = self.docs.len() as u32;
        let scale = if sample_size == 0 {
            0.0
        } else {
            db_size / f64::from(sample_size)
        };
        let words = counts
            .words
            .iter()
            .map(|w| {
                let stats = WordStats {
                    sample_df: w.sample_df,
                    df: f64::from(w.sample_df) * scale,
                    tf: w.tf as f64 * scale,
                };
                (w.term, stats)
            })
            .collect();
        ContentSummary::new(db_size, sample_size, words)
    }

    /// Record a Mandelbrot checkpoint for the current sample state, if the
    /// fit is well-defined.
    pub fn take_checkpoint(&mut self) {
        let sample_size = self.docs.len() as u32;
        let fit = checkpoint_from_sample_dfs(sample_size, self.sample_dfs().map(|(_, df)| df));
        if let Some(cp) = fit {
            // Skip duplicate checkpoints at the same sample size (can happen
            // if no new documents arrived between triggers).
            if self.checkpoints.last().map(|c| c.sample_size) != Some(cp.sample_size) {
                self.checkpoints.push(cp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbselect_core::freqest::checkpoint;
    use proptest::prelude::*;

    fn doc(id: u32, terms: &[TermId]) -> Document {
        Document::from_tokens(id, terms.to_vec())
    }

    /// Size, sample size, `Σ tf` and every word's statistics, as bits.
    type SummaryBits = (u64, u32, u64, Vec<(TermId, u32, u64, u64)>);

    /// A summary's contents as bits, words in term order.
    fn summary_bits(s: &ContentSummary) -> SummaryBits {
        let mut words: Vec<_> = s
            .iter()
            .map(|(t, w)| (t, w.sample_df, w.df.to_bits(), w.tf.to_bits()))
            .collect();
        words.sort_unstable();
        (
            s.db_size().to_bits(),
            s.sample_size(),
            s.total_tf().to_bits(),
            words,
        )
    }

    fn checkpoint_bits(cp: &MandelbrotCheckpoint) -> (u32, u64, u64) {
        (cp.sample_size, cp.alpha.to_bits(), cp.log_beta.to_bits())
    }

    #[test]
    fn raw_summary_uses_sample_as_collection() {
        let mut sample = DocumentSample::default();
        sample.push(doc(3, &[1, 2]));
        sample.push(doc(9, &[1]));
        let s = sample.raw_summary();
        assert_eq!(s.db_size(), 2.0);
        assert!((s.p_df(1) - 1.0).abs() < 1e-12);
        assert!((s.p_df(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn checkpoints_dedupe_by_sample_size() {
        let mut sample = DocumentSample::default();
        for i in 0..10u32 {
            // Zipf-ish sample: term t appears in docs 0..(10-t).
            let terms: Vec<TermId> = (0..5).filter(|&t| i < 10 - t * 2).collect();
            sample.push(doc(i, &terms));
        }
        sample.take_checkpoint();
        sample.take_checkpoint();
        assert_eq!(sample.checkpoints.len(), 1, "same size recorded once");
        sample.push(doc(10, &[0, 1]));
        sample.take_checkpoint();
        assert_eq!(sample.checkpoints.len(), 2);
    }

    #[test]
    fn empty_sample_checkpoint_is_noop() {
        let mut sample = DocumentSample::default();
        sample.take_checkpoint();
        assert!(sample.checkpoints.is_empty());
        assert!(sample.is_empty());
        assert_eq!(sample.len(), 0);
    }

    #[test]
    #[should_panic(expected = "DocumentSample::push")]
    fn a_document_added_around_push_fails_loudly() {
        let mut sample = DocumentSample::default();
        sample.push(doc(0, &[1]));
        sample.docs.push(doc(1, &[2]));
        sample.raw_summary();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Counting documents as they arrive gives the summary and the
        /// checkpoints that reading them all again gives, bit for bit, with
        /// empty documents, repeated tokens, and checkpoints and scratch
        /// releases interleaved with the pushes.
        #[test]
        fn counts_give_the_summary_and_checkpoints_of_the_documents(
            docs in prop::collection::vec(prop::collection::vec(0u32..60, 0..15), 0..40),
            steps in prop::collection::vec(0u8..4, 40),
        ) {
            let mut sample = DocumentSample::default();
            for (i, tokens) in docs.into_iter().enumerate() {
                let doc = Document::from_tokens(i as u32, tokens);
                let distinct = doc.distinct_terms();
                prop_assert_eq!(sample.push(doc), distinct);
                match steps[i] {
                    0 => {
                        let reread =
                            ContentSummary::from_sample(&sample.docs, sample.len() as f64);
                        let expected = checkpoint(&reread);
                        let before = sample.checkpoints.len();
                        sample.take_checkpoint();
                        prop_assert_eq!(
                            sample.checkpoints[before..].first().map(checkpoint_bits),
                            expected.as_ref().map(checkpoint_bits)
                        );
                    }
                    1 => sample.release_scratch(),
                    _ => {}
                }
            }
            let reread = ContentSummary::from_sample(&sample.docs, sample.len() as f64);
            prop_assert_eq!(summary_bits(&sample.raw_summary()), summary_bits(&reread));
        }
    }
}
