//! The probe classifier behind Focused Probing — a rule-based document
//! classifier in the spirit of QProber (Gravano, Ipeirotis & Sahami,
//! ACM TOIS 2003).
//!
//! For every non-root category the classifier learns a handful of
//! single-word *probes*: words that are frequent in documents of that
//! category's subtree and rare in its siblings'. Focused Probing turns each
//! probe into a query; the number of matches a category's probes generate
//! at a database measures how much of the database lies under that
//! category.

use std::collections::HashMap;

use textindex::{Document, TermId};

use dbselect_core::hierarchy::{CategoryId, Hierarchy};

/// Per-category probe words.
#[derive(Debug, Clone)]
pub struct ProbeClassifier {
    probes: Vec<Vec<TermId>>,
}

impl ProbeClassifier {
    /// Train on labeled example documents (`(leaf category, document)`).
    /// Every document counts as an example for each category on its leaf's
    /// path. For each non-root category, up to `probes_per_category` words
    /// are chosen by an odds-ratio-style score against the sibling
    /// categories.
    pub fn train(
        hierarchy: &Hierarchy,
        examples: &[(CategoryId, Document)],
        probes_per_category: usize,
    ) -> Self {
        // Document frequency of every word within each category subtree.
        let mut node_df: Vec<HashMap<TermId, u32>> = vec![HashMap::new(); hierarchy.len()];
        let mut node_docs: Vec<u32> = vec![0; hierarchy.len()];
        for (leaf, doc) in examples {
            let distinct = doc.distinct_terms();
            for node in hierarchy.path_from_root(*leaf) {
                node_docs[node] += 1;
                for &term in &distinct {
                    *node_df[node].entry(term).or_insert(0) += 1;
                }
            }
        }

        let mut probes: Vec<Vec<TermId>> = vec![Vec::new(); hierarchy.len()];
        for node in hierarchy.ids() {
            if node == Hierarchy::ROOT || node_docs[node] == 0 {
                continue;
            }
            let parent = hierarchy.parent(node).expect("non-root node has a parent");
            let sibling_docs = node_docs[parent] - node_docs[node];
            let mut scored: Vec<(f64, TermId)> = node_df[node]
                .iter()
                .filter(|&(_, &df)| df >= 2)
                .map(|(&term, &df)| {
                    let p_here = f64::from(df) / f64::from(node_docs[node]);
                    let df_sib = node_df[parent]
                        .get(&term)
                        .copied()
                        .unwrap_or(0)
                        .saturating_sub(df);
                    let p_sib = if sibling_docs > 0 {
                        f64::from(df_sib) / f64::from(sibling_docs)
                    } else {
                        0.0
                    };
                    // Frequent here, rare among siblings.
                    let score = p_here * ((p_here + 1e-6) / (p_sib + 1e-6)).ln();
                    (score, term)
                })
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            probes[node] = scored
                .into_iter()
                .take(probes_per_category)
                .filter(|&(score, _)| score > 0.0)
                .map(|(_, t)| t)
                .collect();
        }
        ProbeClassifier { probes }
    }

    /// The probe words for `category` (empty for the root and for
    /// categories without training data).
    pub fn probes(&self, category: CategoryId) -> &[TermId] {
        &self.probes[category]
    }

    /// Classify a single document: starting at the root, repeatedly descend
    /// into the child whose probes hit the document most, stopping when no
    /// child's probes match. (Used for tests and diagnostics; Focused
    /// Probing classifies whole *databases* with the same descent logic on
    /// aggregate match counts.)
    pub fn classify_document(&self, hierarchy: &Hierarchy, doc: &Document) -> CategoryId {
        let distinct = doc.distinct_terms();
        let mut node = Hierarchy::ROOT;
        loop {
            let best = hierarchy
                .children(node)
                .iter()
                .map(|&c| {
                    let hits = self.probes[c]
                        .iter()
                        .filter(|p| distinct.binary_search(p).is_ok())
                        .count();
                    (hits, c)
                })
                .max_by_key(|&(hits, _)| hits);
            match best {
                Some((hits, child)) if hits > 0 => node = child,
                _ => return node,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::TestBedConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained() -> (corpus::TestBed, ProbeClassifier) {
        let mut bed = TestBedConfig::tiny(21).build();
        let mut rng = StdRng::seed_from_u64(100);
        let examples = bed.training_documents(6, &mut rng);
        let classifier = ProbeClassifier::train(&bed.hierarchy, &examples, 8);
        (bed, classifier)
    }

    #[test]
    fn every_trained_category_gets_probes() {
        let (bed, classifier) = trained();
        for node in bed.hierarchy.ids() {
            if node == dbselect_core::hierarchy::Hierarchy::ROOT {
                assert!(classifier.probes(node).is_empty());
            } else {
                assert!(
                    !classifier.probes(node).is_empty(),
                    "category {} has no probes",
                    bed.hierarchy.full_name(node)
                );
            }
        }
    }

    #[test]
    fn probes_are_topical_not_background() {
        let (bed, classifier) = trained();
        // Topic-model words are named c{node}x{rank}; background g{rank}.
        let mut topical = 0usize;
        let mut total = 0usize;
        for node in bed.hierarchy.ids() {
            for &p in classifier.probes(node) {
                total += 1;
                if bed.dict.term(p).starts_with('c') {
                    topical += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            topical as f64 / total as f64 > 0.9,
            "{topical}/{total} probes are topic words"
        );
    }

    #[test]
    fn classify_document_finds_home_topic_mostly() {
        let (mut bed, classifier) = trained();
        let mut rng = StdRng::seed_from_u64(200);
        let fresh = bed.training_documents(3, &mut rng);
        let mut correct_top = 0usize;
        for (leaf, doc) in &fresh {
            let predicted = classifier.classify_document(&bed.hierarchy, doc);
            // Credit if the prediction lies on the true path (top-level
            // agreement is what FPS needs to descend correctly).
            let path = bed.hierarchy.path_from_root(*leaf);
            if path.contains(&predicted)
                || bed.hierarchy.path_from_root(predicted).contains(&path[1])
            {
                correct_top += 1;
            }
        }
        let acc = correct_top as f64 / fresh.len() as f64;
        assert!(acc > 0.6, "path-consistent accuracy {acc}");
    }
}
