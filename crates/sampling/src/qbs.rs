//! Query-Based Sampling (QBS), after Callan & Connell (ACM TOIS 2001) as
//! configured in Section 5.2 of the paper:
//!
//! > *"We send random, single-word queries to a given database until at
//! > least one document is retrieved. Then, we continue to query the
//! > database using the words in the retrieved documents. Each query
//! > retrieves at most four previously unseen documents. Sampling stops
//! > when the document sample contains 300 documents \[or\] when 500
//! > consecutive queries retrieve no new documents."*

use rand::Rng;
use textindex::{RemoteDatabase, TermId};

use crate::idset::IdSet;
use crate::sample::DocumentSample;

/// Configuration of the QBS sampler (defaults are the paper's settings).
#[derive(Debug, Clone, Copy)]
pub struct QbsConfig {
    /// Stop once the sample holds this many documents.
    pub target_sample_size: usize,
    /// Stop after this many consecutive queries yield no new documents.
    pub max_consecutive_failures: usize,
    /// Maximum previously-unseen documents kept per query.
    pub docs_per_query: usize,
    /// How many top results to request per query (the sampler keeps at most
    /// `docs_per_query` unseen ones among them).
    pub results_per_query: usize,
    /// Take a Mandelbrot checkpoint every this many new documents.
    pub checkpoint_interval: usize,
}

impl Default for QbsConfig {
    fn default() -> Self {
        QbsConfig {
            target_sample_size: 300,
            max_consecutive_failures: 500,
            docs_per_query: 4,
            results_per_query: 20,
            checkpoint_interval: 50,
        }
    }
}

/// Run QBS against `db`, bootstrapping from `seed_lexicon` (the stand-in
/// for an English dictionary).
pub fn qbs_sample<R: Rng + ?Sized>(
    db: &dyn RemoteDatabase,
    seed_lexicon: &[TermId],
    config: &QbsConfig,
    rng: &mut R,
) -> DocumentSample {
    let mut sample = DocumentSample::default();
    let mut seen_docs = IdSet::default();
    let mut queried = IdSet::default();
    // Candidate query words harvested from retrieved documents.
    let mut candidates: Vec<TermId> = Vec::new();
    let mut candidate_set = IdSet::default();
    let mut consecutive_failures = 0usize;
    let mut next_checkpoint = config.checkpoint_interval;

    while sample.len() < config.target_sample_size
        && consecutive_failures < config.max_consecutive_failures
    {
        // Pick the next query word: from harvested document words once the
        // sample is non-empty, from the seed lexicon otherwise.
        let word = if sample.is_empty() || candidates.is_empty() {
            if seed_lexicon.is_empty() {
                break;
            }
            seed_lexicon[rng.gen_range(0..seed_lexicon.len())]
        } else {
            let i = rng.gen_range(0..candidates.len());
            candidates.swap_remove(i)
        };
        if !queried.insert(word) {
            // Already sent this word; counts as a failure so sampling still
            // terminates on small vocabularies.
            consecutive_failures += 1;
            continue;
        }

        let outcome = db.query(&[word], config.results_per_query);
        sample.queries_sent += 1;
        sample.exact_df.insert(word, outcome.total_matches as u32);

        let mut new_docs = 0usize;
        for doc_id in outcome.doc_ids {
            if new_docs >= config.docs_per_query || sample.len() >= config.target_sample_size {
                break;
            }
            if !seen_docs.insert(doc_id) {
                continue;
            }
            let doc = db
                .fetch(doc_id)
                .expect("database returned an id it cannot serve");
            // Count the document, and harvest its words as future query
            // candidates.
            for term in sample.push(doc.clone()) {
                if !queried.contains(term) && candidate_set.insert(term) {
                    candidates.push(term);
                }
            }
            new_docs += 1;
        }
        if new_docs == 0 {
            consecutive_failures += 1;
        } else {
            consecutive_failures = 0;
            if sample.len() >= next_checkpoint {
                sample.take_checkpoint();
                next_checkpoint += config.checkpoint_interval;
            }
        }
    }
    // Final checkpoint at the terminal sample size.
    sample.take_checkpoint();
    sample.release_scratch();
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use textindex::{DocId, Document, IndexedDatabase};

    /// A database of 120 docs with a Zipfian-ish vocabulary: term t appears
    /// in every doc whose index is divisible by (t+1).
    fn fixture_db() -> IndexedDatabase {
        let docs: Vec<Document> = (0..120u32)
            .map(|i| {
                let terms: Vec<TermId> = (0..40).filter(|&t| i % (t + 1) == 0).collect();
                Document::from_tokens(i, terms)
            })
            .collect();
        IndexedDatabase::new("fixture", docs)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn sampling_reaches_target_or_exhausts_database() {
        let db = fixture_db();
        let config = QbsConfig {
            target_sample_size: 50,
            ..Default::default()
        };
        let sample = qbs_sample(&db, &[0, 1, 2], &config, &mut rng());
        assert_eq!(sample.len(), 50);
    }

    #[test]
    fn sample_documents_are_distinct() {
        let db = fixture_db();
        let config = QbsConfig {
            target_sample_size: 60,
            ..Default::default()
        };
        let sample = qbs_sample(&db, &[0, 1], &config, &mut rng());
        let ids: HashSet<DocId> = sample.docs.iter().map(|d| d.id).collect();
        assert_eq!(ids.len(), sample.docs.len());
    }

    #[test]
    fn exact_df_matches_database_truth() {
        let db = fixture_db();
        let config = QbsConfig {
            target_sample_size: 40,
            ..Default::default()
        };
        let sample = qbs_sample(&db, &[0, 1, 2], &config, &mut rng());
        for (&term, &df) in &sample.exact_df {
            assert_eq!(
                df as usize,
                db.index().document_frequency(term),
                "term {term}"
            );
        }
        assert!(!sample.exact_df.is_empty());
    }

    #[test]
    fn terminates_on_unproductive_database() {
        // Database whose docs never match the seed lexicon (empty lexicon
        // terms) — sampling must stop via the failure counter.
        let db = IndexedDatabase::new("empty-ish", vec![Document::from_tokens(0, vec![500])]);
        let config = QbsConfig {
            target_sample_size: 300,
            max_consecutive_failures: 20,
            ..Default::default()
        };
        let sample = qbs_sample(&db, &[1, 2, 3], &config, &mut rng());
        assert!(sample.is_empty());
        assert!(sample.queries_sent <= 60);
    }

    #[test]
    fn checkpoints_are_taken_as_sample_grows() {
        let db = fixture_db();
        let config = QbsConfig {
            target_sample_size: 100,
            checkpoint_interval: 25,
            ..Default::default()
        };
        let sample = qbs_sample(&db, &[0, 1], &config, &mut rng());
        assert!(
            sample.checkpoints.len() >= 2,
            "got {}",
            sample.checkpoints.len()
        );
        // Checkpoint sample sizes strictly increase.
        assert!(sample
            .checkpoints
            .windows(2)
            .all(|w| w[0].sample_size < w[1].sample_size));
    }

    #[test]
    fn respects_docs_per_query_limit() {
        let db = fixture_db();
        // Word 0 matches every doc, but a single query may only contribute
        // `docs_per_query` documents, so reaching 10 docs takes ≥ 3 queries.
        let config = QbsConfig {
            target_sample_size: 10,
            ..Default::default()
        };
        let sample = qbs_sample(&db, &[0], &config, &mut rng());
        assert_eq!(sample.len(), 10);
        assert!(sample.queries_sent >= 3, "sent {}", sample.queries_sent);
    }
}
