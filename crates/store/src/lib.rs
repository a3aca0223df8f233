//! `store` — binary persistence for content-summary collections.
//!
//! In the paper's workflow, content summaries are built **offline** (the λ
//! weights too: "the λi weights are computed off-line for each database when
//! the sampling-based database content summaries are created", Section 3.2)
//! and consulted at query time. A deployed metasearcher therefore needs to
//! persist what profiling learned. [`CollectionStore`] holds everything the
//! selection stage needs — the term dictionary, the topic hierarchy, and
//! one classified [`ContentSummary`] per database — in a small, versioned
//! binary format. Shrunk summaries are *not* stored: shrinkage is
//! deterministic given the store, so [`CollectionStore::shrink_all`] can
//! always reconstruct them — by re-running the EM fit, which is the
//! expensive offline step (0.23–0.24 s per 100 databases of the
//! benchmark's test bed, measured on one core of a 2-vCPU Xeon container).
//! [`catalog::StoredCatalog`] records the fit so that everything downstream
//! of it runs no EM. [`snapshot::ServingSnapshot`] (v4) is what a daemon
//! serves from: sample columns, λ pairs and the category aggregates, with
//! every shrunk summary left in factored form — a mixture computed when a
//! request reads it, never a database × vocabulary matrix — and
//! [`delta`] chains refresh rounds onto it; a chain is all the state a
//! [`refresh::RefreshSession`] resumes from. Every `save` writes a
//! temporary sibling, syncs it and renames it into place; chain files are
//! linked into place instead, never over an existing one.
//!
//! ```
//! use store::{CollectionStore, StoredDatabase};
//! use dbselect_core::prelude::*;
//! use textindex::{Document, TermDict};
//!
//! let mut dict = TermDict::new();
//! let blood = dict.intern("blood");
//! let mut hierarchy = Hierarchy::new("Root");
//! let heart = hierarchy.ensure_path("Health/Heart");
//! let docs = [Document::from_tokens(0, vec![blood])];
//! let summary = ContentSummary::from_sample(docs.iter(), 100.0);
//!
//! let store = CollectionStore {
//!     dict,
//!     hierarchy,
//!     databases: vec![StoredDatabase {
//!         name: "heart-db".into(),
//!         classification: heart,
//!         summary,
//!         sample_docs: Vec::new(),
//!     }],
//! };
//! let mut bytes = Vec::new();
//! store.write_to(&mut bytes).unwrap();
//! let restored = CollectionStore::read_from(&mut bytes.as_slice()).unwrap();
//! assert_eq!(restored.databases[0].name, "heart-db");
//! assert_eq!(restored.dict.term(blood), "blood");
//! ```

pub mod catalog;
pub mod codec;
pub mod delta;
pub mod manifest;
pub mod refresh;
pub mod snapshot;

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

use dbselect_core::category_summary::{CategorySummaries, CategoryWeighting, SummaryComponent};
use dbselect_core::hierarchy::{CategoryId, Hierarchy};
use dbselect_core::shrinkage::{shrink, ShrinkageConfig, ShrunkSummary};
use dbselect_core::summary::{ContentSummary, WordStats};
use textindex::TermDict;

use codec::{corrupt, read_f64, read_len, read_str, read_u32, write_f64, write_str, write_u32};

/// Magic bytes + format version.
const MAGIC: &[u8; 8] = b"DBSLCT\x00\x02";

/// One profiled database as persisted.
#[derive(Debug, Clone)]
pub struct StoredDatabase {
    /// Database name.
    pub name: String,
    /// Its (directory or probe-derived) category.
    pub classification: CategoryId,
    /// The approximate content summary `Ŝ(D)`.
    pub summary: ContentSummary,
    /// The raw sample documents (token ids), kept for sample-based
    /// selection algorithms like ReDDE. May be empty (e.g. cooperative
    /// "full summary" profiling needs no sample).
    pub sample_docs: Vec<Vec<u32>>,
}

/// A persisted collection: everything the selection stage needs.
#[derive(Debug, Clone)]
pub struct CollectionStore {
    /// The shared term dictionary.
    pub dict: TermDict,
    /// The topic hierarchy databases are classified into.
    pub hierarchy: Hierarchy,
    /// The profiled databases.
    pub databases: Vec<StoredDatabase>,
}

impl CollectionStore {
    /// Serialize into `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;

        // Term dictionary: terms in id order.
        let dict_len = u32::try_from(self.dict.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "dictionary too large"))?;
        write_u32(w, dict_len)?;
        for id in 0..dict_len {
            write_str(w, self.dict.term(id))?;
        }

        // Hierarchy: (name, parent+1) per node, id order. Parents always
        // precede children, so reconstruction is a single forward pass.
        write_u32(w, self.hierarchy.len() as u32)?;
        for node in self.hierarchy.ids() {
            write_str(w, self.hierarchy.name(node))?;
            let parent = self.hierarchy.parent(node).map_or(0, |p| p as u32 + 1);
            write_u32(w, parent)?;
        }

        // Databases.
        write_u32(w, self.databases.len() as u32)?;
        for db in &self.databases {
            write_str(w, &db.name)?;
            write_u32(w, db.classification as u32)?;
            write_summary(w, &db.summary)?;
            write_u32(w, db.sample_docs.len() as u32)?;
            for doc in &db.sample_docs {
                write_u32(w, doc.len() as u32)?;
                for &t in doc {
                    write_u32(w, t)?;
                }
            }
        }
        Ok(())
    }

    /// Deserialize from `r`, validating structure as it goes.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(corrupt("bad magic or unsupported version"));
        }

        let mut dict = TermDict::new();
        let dict_len = read_len(r)?;
        for i in 0..dict_len {
            let term = read_str(r)?;
            let id = dict.intern(&term);
            if id as usize != i {
                return Err(corrupt("duplicate term in dictionary"));
            }
        }

        let node_count = read_len(r)?;
        if node_count == 0 {
            return Err(corrupt("hierarchy must contain a root"));
        }
        let root_name = read_str(r)?;
        let root_parent = read_u32(r)?;
        if root_parent != 0 {
            return Err(corrupt("root node must have no parent"));
        }
        let mut hierarchy = Hierarchy::new(root_name);
        for i in 1..node_count {
            let name = read_str(r)?;
            let parent = read_u32(r)?;
            if parent == 0 || parent as usize > i {
                return Err(corrupt("hierarchy parent out of order"));
            }
            hierarchy.add_child(parent as usize - 1, name);
        }

        let db_count = read_len(r)?;
        let mut databases = Vec::with_capacity(db_count);
        for _ in 0..db_count {
            let name = read_str(r)?;
            let classification = read_u32(r)? as usize;
            if classification >= hierarchy.len() {
                return Err(corrupt("classification refers to unknown category"));
            }
            let summary = read_summary(r, dict.len() as u32, &name)?;
            let n_docs = read_len(r)?;
            let mut sample_docs = Vec::with_capacity(n_docs);
            for _ in 0..n_docs {
                let len = read_len(r)?;
                let mut doc = Vec::with_capacity(len);
                for _ in 0..len {
                    let t = read_u32(r)?;
                    if t >= dict.len() as u32 {
                        return Err(corrupt("sample token outside dictionary"));
                    }
                    doc.push(t);
                }
                sample_docs.push(doc);
            }
            databases.push(StoredDatabase {
                name,
                classification,
                summary,
                sample_docs,
            });
        }
        Ok(CollectionStore {
            dict,
            hierarchy,
            databases,
        })
    }

    /// Save to a file through a temporary sibling and a rename, so a
    /// failed or interrupted save leaves the previous file as it was.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        delta::write_atomically(path.as_ref(), delta::Publish::Replace, |w| self.write_to(w))
    }

    /// Load from a file (buffered).
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let store = Self::read_from(&mut r)?;
        // Trailing garbage means the file is not what it claims to be.
        let mut probe = [0u8; 1];
        if r.read(&mut probe)? != 0 {
            return Err(corrupt("trailing bytes after store"));
        }
        Ok(store)
    }

    /// Reconstruct the shrunk summaries (Definition 4) for every database —
    /// deterministic given the store contents.
    pub fn shrink_all(&self, weighting: CategoryWeighting) -> Vec<ShrunkSummary> {
        let categories = self.categories(weighting);
        let config = self.shrinkage_config();
        self.databases
            .iter()
            .map(|db| shrink(&db.summary, &self.components(&categories, db), &config))
            .collect()
    }

    /// The category aggregation (Equation 1) of every stored database.
    pub(crate) fn categories(&self, weighting: CategoryWeighting) -> CategorySummaries {
        let refs: Vec<(CategoryId, &ContentSummary)> = self
            .databases
            .iter()
            .map(|db| (db.classification, &db.summary))
            .collect();
        CategorySummaries::build(&self.hierarchy, &refs, weighting)
    }

    /// The shrinkage components of `db` under `categories`: its path-edge
    /// remainders, shared with every database below each edge, and its own
    /// leaf remainder.
    pub(crate) fn components(
        &self,
        categories: &CategorySummaries,
        db: &StoredDatabase,
    ) -> Vec<Arc<SummaryComponent>> {
        categories.components_for(&self.hierarchy, db.classification, &db.summary, true)
    }

    /// The EM configuration every fit over this store uses: the dummy
    /// category's `p̂(w|C_0)` is `1/|V|` of the store's dictionary.
    pub(crate) fn shrinkage_config(&self) -> ShrinkageConfig {
        ShrinkageConfig {
            uniform_p: 1.0 / self.dict.len().max(1) as f64,
            ..Default::default()
        }
    }

    /// The Root category summary (LM's global model), rebuilt from the
    /// stored summaries; no other category is aggregated.
    pub fn root_summary(&self, weighting: CategoryWeighting) -> ContentSummary {
        CategorySummaries::root_summary(self.databases.iter().map(|db| &db.summary), weighting)
    }
}

fn write_summary<W: Write>(w: &mut W, summary: &ContentSummary) -> io::Result<()> {
    write_f64(w, summary.db_size())?;
    write_u32(w, summary.sample_size())?;
    // Option<f64> gamma: NaN is never a legal value, so encode None as NaN
    // would be tempting — but the reader rejects NaN, so use a flag byte.
    match summary.gamma() {
        Some(g) => {
            write_u32(w, 1)?;
            write_f64(w, g)?;
        }
        None => write_u32(w, 0)?,
    }
    write_u32(w, summary.vocabulary_size() as u32)?;
    // Sorted for a canonical byte representation.
    let mut words: Vec<(u32, WordStats)> = summary.iter().map(|(t, s)| (t, *s)).collect();
    words.sort_unstable_by_key(|&(t, _)| t);
    for (term, stats) in words {
        write_u32(w, term)?;
        write_u32(w, stats.sample_df)?;
        write_f64(w, stats.df)?;
        write_f64(w, stats.tf)?;
    }
    Ok(())
}

/// Read database `name`'s summary. Sizes and frequencies must be finite
/// and non-negative, γ finite: one `+∞` would load, poison every EM fit
/// over its categories (the first E-step makes each β NaN) and still
/// freeze into a loadable snapshot.
fn read_summary<R: Read>(r: &mut R, dict_len: u32, name: &str) -> io::Result<ContentSummary> {
    let statistic = |what: &str, v: f64, non_negative: bool| {
        if !v.is_finite() {
            return Err(corrupt(&format!("database {name:?}: non-finite {what}")));
        }
        if non_negative && v < 0.0 {
            return Err(corrupt(&format!("database {name:?}: negative {what}")));
        }
        Ok(v)
    };
    let db_size = statistic("database size", read_f64(r)?, true)?;
    let sample_size = read_u32(r)?;
    let gamma = match read_u32(r)? {
        0 => None,
        1 => Some(statistic("gamma", read_f64(r)?, false)?),
        _ => return Err(corrupt("invalid gamma flag")),
    };
    let vocab = read_len(r)?;
    let mut words = std::collections::HashMap::with_capacity(vocab);
    for _ in 0..vocab {
        let term = read_u32(r)?;
        if term >= dict_len {
            return Err(corrupt("summary term outside dictionary"));
        }
        let sample_df = read_u32(r)?;
        let df = statistic("frequency", read_f64(r)?, true)?;
        let tf = statistic("frequency", read_f64(r)?, true)?;
        if words
            .insert(term, WordStats { sample_df, df, tf })
            .is_some()
        {
            return Err(corrupt("duplicate term in summary"));
        }
    }
    let mut summary = ContentSummary::new(db_size, sample_size, words);
    if let Some(g) = gamma {
        summary.set_gamma(g);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use textindex::Document;

    fn sample_store() -> CollectionStore {
        let mut dict = TermDict::new();
        let a = dict.intern("alpha");
        let b = dict.intern("beta");
        let mut hierarchy = Hierarchy::new("Root");
        let heart = hierarchy.ensure_path("Health/Heart");
        let soccer = hierarchy.ensure_path("Sports/Soccer");
        let docs1 = [
            Document::from_tokens(0, vec![a, b]),
            Document::from_tokens(1, vec![a]),
        ];
        let docs2 = [Document::from_tokens(0, vec![b])];
        let mut s1 = ContentSummary::from_sample(docs1.iter(), 500.0);
        s1.set_gamma(-1.8);
        let s2 = ContentSummary::from_sample(docs2.iter(), 90.0);
        CollectionStore {
            dict,
            hierarchy,
            databases: vec![
                StoredDatabase {
                    name: "heart-db".into(),
                    classification: heart,
                    summary: s1,
                    sample_docs: vec![vec![a, b], vec![a]],
                },
                StoredDatabase {
                    name: "soccer-db".into(),
                    classification: soccer,
                    summary: s2,
                    sample_docs: Vec::new(),
                },
            ],
        }
    }

    fn round_trip(store: &CollectionStore) -> CollectionStore {
        let mut bytes = Vec::new();
        store.write_to(&mut bytes).unwrap();
        CollectionStore::read_from(&mut bytes.as_slice()).unwrap()
    }

    #[test]
    fn full_round_trip_preserves_everything() {
        let store = sample_store();
        let restored = round_trip(&store);
        assert_eq!(restored.dict.len(), store.dict.len());
        assert_eq!(restored.dict.term(0), "alpha");
        assert_eq!(restored.hierarchy.len(), store.hierarchy.len());
        assert_eq!(
            restored
                .hierarchy
                .full_name(restored.databases[0].classification),
            "Root/Health/Heart"
        );
        assert_eq!(restored.databases.len(), 2);
        let (orig, new) = (&store.databases[0].summary, &restored.databases[0].summary);
        assert_eq!(new.db_size(), orig.db_size());
        assert_eq!(new.sample_size(), orig.sample_size());
        assert_eq!(new.gamma(), orig.gamma());
        assert_eq!(new.vocabulary_size(), orig.vocabulary_size());
        for (term, stats) in orig.iter() {
            let restored_stats = new.word(term).expect("word survived");
            assert_eq!(restored_stats.sample_df, stats.sample_df);
            assert_eq!(restored_stats.df, stats.df);
            assert_eq!(restored_stats.tf, stats.tf);
        }
    }

    #[test]
    fn shrink_all_reproduces_identical_lambdas() {
        let store = sample_store();
        let restored = round_trip(&store);
        let a = store.shrink_all(CategoryWeighting::BySize);
        let b = restored.shrink_all(CategoryWeighting::BySize);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.lambdas(),
                y.lambdas(),
                "shrinkage is deterministic across save/load"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Vec::new();
        sample_store().write_to(&mut bytes).unwrap();
        bytes[0] ^= 0xFF;
        assert!(CollectionStore::read_from(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let mut bytes = Vec::new();
        sample_store().write_to(&mut bytes).unwrap();
        // Probe a spread of truncation points (every 7 bytes keeps it fast).
        for cut in (8..bytes.len()).step_by(7) {
            let mut slice = &bytes[..cut];
            assert!(
                CollectionStore::read_from(&mut slice).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn classification_out_of_range_is_rejected() {
        let mut store = sample_store();
        store.databases[0].classification = 999;
        let mut bytes = Vec::new();
        store.write_to(&mut bytes).unwrap();
        assert!(CollectionStore::read_from(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let path =
            std::env::temp_dir().join(format!("dbsel-store-test-{}.bin", std::process::id()));
        let store = sample_store();
        store.save(&path).unwrap();
        let restored = CollectionStore::load(&path).unwrap();
        assert_eq!(restored.databases[1].name, "soccer-db");
        // Trailing garbage is rejected.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"junk").unwrap();
        }
        assert!(CollectionStore::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_statistics_are_rejected_naming_the_database() {
        let infinite = |store: &mut CollectionStore, field: usize, v: f64| {
            let summary = &mut store.databases[1].summary;
            match field {
                0 => summary.set_db_size(v),
                1 => summary.set_gamma(v),
                _ => {
                    let (term, stats) = summary.iter().next().map(|(t, s)| (t, *s)).unwrap();
                    let stats = if field == 2 {
                        WordStats { df: v, ..stats }
                    } else {
                        WordStats { tf: v, ..stats }
                    };
                    summary.set_word(term, stats);
                }
            }
        };
        for field in 0..4 {
            for v in [f64::INFINITY, f64::NEG_INFINITY] {
                let mut store = sample_store();
                infinite(&mut store, field, v);
                let mut bytes = Vec::new();
                store.write_to(&mut bytes).unwrap();
                let err = CollectionStore::read_from(&mut bytes.as_slice()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "field {field}");
                assert!(err.to_string().contains("\"soccer-db\""), "{err}");
                assert!(err.to_string().contains("non-finite"), "{err}");
            }
        }
        // Finite negative statistics are still refused, by name too.
        let mut store = sample_store();
        infinite(&mut store, 2, -1.0);
        let mut bytes = Vec::new();
        store.write_to(&mut bytes).unwrap();
        let err = CollectionStore::read_from(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("soccer-db"), "{err}");
        assert!(err.to_string().contains("negative"), "{err}");
    }

    #[test]
    fn root_summary_aggregates_all_databases() {
        let store = sample_store();
        let root = store.root_summary(CategoryWeighting::BySize);
        assert_eq!(root.db_size(), 590.0);
        assert!(root.p_df(0) > 0.0);
        assert!(root.p_df(1) > 0.0);
    }
}
