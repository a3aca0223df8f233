//! The generative model behind the synthetic corpora.
//!
//! The paper's data sets (TREC4, TREC6, 315 web databases) are proprietary;
//! what shrinkage actually relies on is a *statistical* property of such
//! collections: topically related databases draw words from related,
//! heavy-tailed (Zipfian) distributions. This module implements a
//! hierarchical topic model with exactly those properties:
//!
//! * a **global background** vocabulary shared by every document (general
//!   English);
//! * a **topic vocabulary per category node**, so a document about
//!   `Health/Diseases/AIDS` uses words from the AIDS node, the Diseases
//!   node, and the Health node — which is what makes category summaries
//!   informative about their member databases;
//! * a small **database-specific** vocabulary (site boilerplate, author
//!   names) that no amount of shrinkage can recover — keeping the precision
//!   metrics honest;
//! * Zipfian within-topic word frequencies, so document samples miss tail
//!   words exactly as the paper's Example 1 (PubMed/"hemophilia") describes.

use rand::Rng;
use textindex::{Document, TermDict, TermId};

use dbselect_core::hierarchy::{CategoryId, Hierarchy};

use crate::zipf::{sample_lognormal, zipf_over, DiscreteDist};

/// Parameters of the generative topic model.
#[derive(Debug, Clone, Copy)]
pub struct TopicModelConfig {
    /// Size of the global background vocabulary.
    pub global_vocab: usize,
    /// Zipf exponent of the background distribution.
    pub global_exponent: f64,
    /// Topic-specific vocabulary size per category node.
    pub node_vocab: usize,
    /// Zipf exponent of each topic distribution.
    pub node_exponent: f64,
    /// Database-specific vocabulary size.
    pub db_vocab: usize,
    /// Probability a token comes from the background vocabulary.
    pub p_background: f64,
    /// Probability a token comes from the database-specific vocabulary.
    pub p_db_specific: f64,
    /// Median document length in tokens (log-normal).
    pub doc_len_median: f64,
    /// Log-space standard deviation of document length.
    pub doc_len_sigma: f64,
    /// Probability a document is *off-topic* for its database: generated
    /// from a random other leaf. These documents are what make relevance
    /// spread beyond the obviously matching databases.
    pub off_topic_prob: f64,
    /// Log-normal σ of each database's private perturbation of its topic
    /// vocabularies. Zero makes same-topic databases statistically
    /// identical; realistic collections differ a lot in which *specific*
    /// topical words they feature (PubMed has "hemophilia", a fitness site
    /// does not), and it is exactly this variation database selection must
    /// resolve.
    pub db_topic_jitter_sigma: f64,
}

impl Default for TopicModelConfig {
    fn default() -> Self {
        TopicModelConfig {
            global_vocab: 12_000,
            global_exponent: 1.05,
            node_vocab: 2000,
            node_exponent: 1.0,
            db_vocab: 150,
            p_background: 0.45,
            p_db_specific: 0.05,
            doc_len_median: 110.0,
            doc_len_sigma: 0.35,
            off_topic_prob: 0.15,
            db_topic_jitter_sigma: 1.2,
        }
    }
}

/// The instantiated topic model: one word distribution per category node
/// plus the shared background.
pub struct CorpusModel {
    config: TopicModelConfig,
    hierarchy: Hierarchy,
    background: DiscreteDist<TermId>,
    /// Topic distribution per category (`None` for the root, which has no
    /// vocabulary of its own — its "topic" is the background).
    node_lms: Vec<Option<DiscreteDist<TermId>>>,
    /// Per-leaf distribution over the non-root nodes of its path, weighted
    /// toward the leaf (deeper = more specific = more probable).
    path_dists: Vec<Option<DiscreteDist<CategoryId>>>,
    leaves: Vec<CategoryId>,
}

impl CorpusModel {
    /// Instantiate the model over `hierarchy`, interning all vocabulary into
    /// `dict`.
    pub fn new(hierarchy: Hierarchy, config: TopicModelConfig, dict: &mut TermDict) -> Self {
        let background_words: Vec<TermId> = (0..config.global_vocab)
            .map(|r| dict.intern(&format!("g{r:05}")))
            .collect();
        let background = zipf_over(&background_words, config.global_exponent, 0.0);

        let mut node_lms = Vec::with_capacity(hierarchy.len());
        for node in hierarchy.ids() {
            if node == Hierarchy::ROOT {
                node_lms.push(None);
                continue;
            }
            let words: Vec<TermId> = (0..config.node_vocab)
                .map(|r| dict.intern(&format!("c{node:03}x{r:04}")))
                .collect();
            node_lms.push(Some(zipf_over(&words, config.node_exponent, 0.0)));
        }

        let mut path_dists = vec![None; hierarchy.len()];
        let leaves = hierarchy.leaves();
        for &leaf in &leaves {
            let path = hierarchy.path_from_root(leaf);
            let weighted: Vec<(CategoryId, f64)> = path
                .iter()
                .filter(|&&c| c != Hierarchy::ROOT)
                .map(|&c| (c, hierarchy.depth(c) as f64))
                .collect();
            if !weighted.is_empty() {
                path_dists[leaf] = Some(DiscreteDist::new(weighted));
            }
        }

        CorpusModel {
            config,
            hierarchy,
            background,
            node_lms,
            path_dists,
            leaves,
        }
    }

    /// The hierarchy the model was built over.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The model configuration.
    pub fn config(&self) -> &TopicModelConfig {
        &self.config
    }

    /// All leaf categories (the classification targets for databases).
    pub fn leaves(&self) -> &[CategoryId] {
        &self.leaves
    }

    /// The `n` most frequent background words — a stand-in for the English
    /// dictionary real query-based sampling bootstraps from.
    pub fn seed_lexicon(&self, n: usize) -> Vec<TermId> {
        self.background.items().iter().take(n).copied().collect()
    }

    /// Build the private vocabulary distribution of one database.
    pub fn make_db_lm(&self, db_index: usize, dict: &mut TermDict) -> DiscreteDist<TermId> {
        let words: Vec<TermId> = (0..self.config.db_vocab)
            .map(|r| dict.intern(&format!("d{db_index:03}x{r:04}")))
            .collect();
        zipf_over(&words, self.config.node_exponent, 0.0)
    }

    /// Build a database's private, jittered view of the topic vocabularies
    /// along its home path: the same words as the shared node distributions,
    /// but with per-word log-normal frequency perturbations.
    pub fn make_db_path_lms<R: Rng + ?Sized>(
        &self,
        home_leaf: CategoryId,
        rng: &mut R,
    ) -> DbPathLms {
        let sigma = self.config.db_topic_jitter_sigma;
        let mut per_node = Vec::new();
        for node in self.hierarchy.path_from_root(home_leaf) {
            if node == Hierarchy::ROOT {
                continue;
            }
            let items = self.node_lms[node]
                .as_ref()
                .expect("non-root nodes have topic vocabularies")
                .items();
            per_node.push((
                node,
                crate::zipf::zipf_jittered(items, self.config.node_exponent, sigma, rng),
            ));
        }
        DbPathLms { per_node }
    }

    /// Draw one background (general-English) token.
    pub fn sample_background_token<R: Rng + ?Sized>(&self, rng: &mut R) -> TermId {
        self.background.sample(rng)
    }

    /// Draw a topical *query* token for topic `leaf`. With probability
    /// `tail_bias`, the word is picked uniformly from the chosen node's
    /// vocabulary — landing mostly in the Zipf tail. Real information-need
    /// queries name specific, infrequent terms ("hemophilia", the paper's
    /// Example 1), and it is exactly those words that document samples miss;
    /// drawing query words only from the Zipf head would make database
    /// selection trivially easy.
    pub fn sample_topic_query_token<R: Rng + ?Sized>(
        &self,
        leaf: CategoryId,
        tail_bias: f64,
        rng: &mut R,
    ) -> TermId {
        match &self.path_dists[leaf] {
            Some(dist) => {
                let node = dist.sample(rng);
                let lm = self.node_lms[node]
                    .as_ref()
                    .expect("non-root nodes have topic vocabularies");
                if rng.gen::<f64>() < tail_bias {
                    let items = lm.items();
                    items[rng.gen_range(0..items.len())]
                } else {
                    lm.sample(rng)
                }
            }
            None => self.background.sample(rng),
        }
    }

    /// Pick the focus leaf for the next document of a database whose home
    /// category is `home_leaf`: usually the home leaf, occasionally another.
    pub fn sample_focus<R: Rng + ?Sized>(&self, home_leaf: CategoryId, rng: &mut R) -> CategoryId {
        if rng.gen::<f64>() < self.config.off_topic_prob && self.leaves.len() > 1 {
            loop {
                let other = self.leaves[rng.gen_range(0..self.leaves.len())];
                if other != home_leaf {
                    return other;
                }
            }
        } else {
            home_leaf
        }
    }

    /// Generate one document with the given id, topical focus, and
    /// database-specific vocabulary, drawing topical tokens from the
    /// *shared* node distributions (used for classifier training documents
    /// and tests).
    pub fn generate_document<R: Rng + ?Sized>(
        &self,
        id: u32,
        focus: CategoryId,
        db_lm: &DiscreteDist<TermId>,
        rng: &mut R,
    ) -> Document {
        self.generate_document_for_db(id, focus, db_lm, None, rng)
    }

    /// Generate one document for a specific database: topical tokens for
    /// nodes on the database's home path come from its jittered
    /// distributions (when `path_lms` is given); everything else falls back
    /// to the shared node distributions.
    pub fn generate_document_for_db<R: Rng + ?Sized>(
        &self,
        id: u32,
        focus: CategoryId,
        db_lm: &DiscreteDist<TermId>,
        path_lms: Option<&DbPathLms>,
        rng: &mut R,
    ) -> Document {
        let len = sample_lognormal(rng, self.config.doc_len_median, self.config.doc_len_sigma)
            .clamp(20.0, 800.0) as usize;
        let mut tokens = Vec::with_capacity(len);
        let p_bg = self.config.p_background;
        let p_db = self.config.p_db_specific;
        for _ in 0..len {
            let u: f64 = rng.gen();
            let token = if u < p_bg {
                self.background.sample(rng)
            } else if u < p_bg + p_db {
                db_lm.sample(rng)
            } else {
                self.sample_topic_token_via(focus, path_lms, rng)
            };
            tokens.push(token);
        }
        Document::from_tokens(id, tokens)
    }

    fn sample_topic_token_via<R: Rng + ?Sized>(
        &self,
        focus: CategoryId,
        path_lms: Option<&DbPathLms>,
        rng: &mut R,
    ) -> TermId {
        match &self.path_dists[focus] {
            Some(dist) => {
                let node = dist.sample(rng);
                if let Some(lm) = path_lms.and_then(|p| p.for_node(node)) {
                    return lm.sample(rng);
                }
                self.node_lms[node]
                    .as_ref()
                    .expect("non-root nodes have topic vocabularies")
                    .sample(rng)
            }
            None => self.background.sample(rng),
        }
    }
}

/// A database's private, jittered topic distributions, one per non-root
/// node of its home path.
pub struct DbPathLms {
    per_node: Vec<(CategoryId, DiscreteDist<TermId>)>,
}

impl DbPathLms {
    /// The jittered distribution for `node`, if it lies on the home path.
    pub fn for_node(&self, node: CategoryId) -> Option<&DiscreteDist<TermId>> {
        self.per_node
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, lm)| lm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_model() -> (CorpusModel, TermDict) {
        let mut dict = TermDict::new();
        let config = TopicModelConfig {
            global_vocab: 500,
            node_vocab: 50,
            db_vocab: 20,
            ..Default::default()
        };
        let model = CorpusModel::new(Hierarchy::odp_like(), config, &mut dict);
        (model, dict)
    }

    #[test]
    fn vocabularies_are_disjoint_blocks() {
        let (_model, dict) = small_model();
        // 500 global + 71 non-root nodes × 50 topic words.
        assert_eq!(dict.len(), 500 + 71 * 50);
    }

    #[test]
    fn documents_have_reasonable_lengths() {
        let (model, mut dict) = small_model();
        let db_lm = model.make_db_lm(0, &mut dict);
        let mut rng = StdRng::seed_from_u64(1);
        let leaf = model.leaves()[0];
        for i in 0..50 {
            let doc = model.generate_document(i, leaf, &db_lm, &mut rng);
            assert!((20..=800).contains(&doc.len()), "len {}", doc.len());
        }
    }

    #[test]
    fn same_leaf_docs_share_topic_vocabulary() {
        let (model, mut dict) = small_model();
        let db_lm_a = model.make_db_lm(0, &mut dict);
        let db_lm_b = model.make_db_lm(1, &mut dict);
        let mut rng = StdRng::seed_from_u64(2);
        let leaf = model.leaves()[3];
        let far_leaf = model.leaves()[40];
        let collect = |model: &CorpusModel, leaf, db_lm, rng: &mut StdRng| {
            let mut terms = std::collections::HashSet::new();
            for i in 0..30 {
                terms.extend(
                    model
                        .generate_document(i, leaf, db_lm, rng)
                        .tokens
                        .iter()
                        .copied(),
                );
            }
            terms
        };
        let a = collect(&model, leaf, &db_lm_a, &mut rng);
        let b = collect(&model, leaf, &db_lm_b, &mut rng);
        let c = collect(&model, far_leaf, &db_lm_b, &mut rng);
        let overlap_same: usize = a.intersection(&b).count();
        let overlap_diff: usize = a.intersection(&c).count();
        assert!(
            overlap_same > overlap_diff,
            "same-topic databases overlap more ({overlap_same} vs {overlap_diff})"
        );
    }

    #[test]
    fn sample_focus_is_usually_home() {
        let (model, _) = small_model();
        let mut rng = StdRng::seed_from_u64(3);
        let home = model.leaves()[0];
        let off = (0..1000)
            .filter(|_| model.sample_focus(home, &mut rng) != home)
            .count();
        let frac = off as f64 / 1000.0;
        assert!(
            (frac - model.config().off_topic_prob).abs() < 0.05,
            "off-topic frac {frac}"
        );
    }

    #[test]
    fn seed_lexicon_returns_most_common_words() {
        let (model, dict) = small_model();
        let lex = model.seed_lexicon(10);
        assert_eq!(lex.len(), 10);
        assert_eq!(dict.term(lex[0]), "g00000");
    }
}
