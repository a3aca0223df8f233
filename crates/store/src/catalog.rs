//! Persistence for the broker's frozen [`Catalog`].
//!
//! A [`CollectionStore`] persists what profiling *measured*; this module
//! persists what the broker *serves*. The expensive part of going from one
//! to the other is the shrinkage EM (Section 3.2 of the paper — "the λi
//! weights are computed off-line for each database"). [`StoredCatalog`]
//! therefore embeds the collection store and records, per database, the
//! fitted mixture weights under both probability models plus the weighting
//! policy they were fit under. Freezing a loaded catalog aggregates the
//! categories once (deterministic, EM-free: one pass over every database's
//! vocabulary per level of its category path) and serves every shrunk
//! summary as its mixture of those aggregates under the recorded λs —
//! **no EM re-run**.
//!
//! The round trip is bit-exact: mixing with the recorded λs reproduces the
//! same probabilities `shrink` produced, so a routed query against a
//! loaded catalog ranks identically to one against the freshly built
//! catalog.

use std::io::{self, BufReader, Read, Write};
use std::path::Path;

use broker::Catalog;
use dbselect_core::category_summary::CategoryWeighting;
use dbselect_core::shrinkage::{LambdaFitter, ShrunkSummary};

use crate::codec::{corrupt, read_f64, read_u32, write_f64, write_u32};
use crate::refresh::Epoch;
use crate::CollectionStore;

/// Magic bytes + format version for catalog files.
pub(crate) const CATALOG_MAGIC: &[u8; 8] = b"DBSCAT\x00\x01";

/// A collection store frozen for serving: profiling output plus the
/// offline-fitted shrinkage weights.
#[derive(Debug, Clone)]
pub struct StoredCatalog {
    /// The underlying profiled collection.
    pub store: CollectionStore,
    /// The category-aggregation policy the λs were fitted under.
    pub weighting: CategoryWeighting,
    /// Per database: mixture weights under the document-frequency model
    /// (`[λ_uniform, λ_root, …, λ_leaf, λ_database]`).
    pub lambdas_df: Vec<Vec<f64>>,
    /// Per database: mixture weights under the term-frequency model.
    pub lambdas_tf: Vec<Vec<f64>>,
}

impl StoredCatalog {
    /// Run the shrinkage EM once over `store` and record the fitted
    /// weights — the λs [`CollectionStore::shrink_all`] fits, without its
    /// shrunk summaries. This is the offline step; everything downstream
    /// ([`save`](Self::save), [`load`](Self::load),
    /// [`to_catalog`](Self::to_catalog)) reuses the recorded fit.
    pub fn freeze(store: CollectionStore, weighting: CategoryWeighting) -> Self {
        let categories = store.categories(weighting);
        let config = store.shrinkage_config();
        let mut fitter = LambdaFitter::default();
        let (lambdas_df, lambdas_tf) = store
            .databases
            .iter()
            .map(|db| fitter.fit(&db.summary, &store.components(&categories, db), &config))
            .unzip();
        StoredCatalog {
            store,
            weighting,
            lambdas_df,
            lambdas_tf,
        }
    }

    /// Reassemble the lazy shrunk summaries from the recorded λs —
    /// component aggregation only, no EM. Bit-identical to
    /// [`CollectionStore::shrink_all`] with the frozen weighting.
    pub fn rebuild_shrunk(&self) -> Vec<ShrunkSummary> {
        let categories = self.store.categories(self.weighting);
        let uniform_p = self.store.shrinkage_config().uniform_p;
        self.store
            .databases
            .iter()
            .zip(self.lambdas_df.iter().zip(&self.lambdas_tf))
            .map(|(db, (ldf, ltf))| {
                let comps = self.store.components(&categories, db);
                ShrunkSummary::from_parts(&db.summary, &comps, ldf.clone(), ltf.clone(), uniform_p)
            })
            .collect()
    }

    /// Freeze into a serving [`Catalog`].
    pub fn to_catalog(&self) -> Catalog {
        Epoch::pin(self).catalog(self, &[])
    }

    /// Serialize into `w`: catalog magic, embedded collection store,
    /// weighting tag, then the per-database λ vectors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let n = self.store.databases.len();
        if self.lambdas_df.len() != n || self.lambdas_tf.len() != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "one λ vector pair per database required",
            ));
        }
        for (db, (ldf, ltf)) in self.lambdas_df.iter().zip(&self.lambdas_tf).enumerate() {
            if ldf.len() != ltf.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "df/tf λ vectors must have equal length",
                ));
            }
            if Some(ldf.len()) != lambda_len(&self.store, db) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "λ vector length disagrees with the database's category path",
                ));
            }
        }
        w.write_all(CATALOG_MAGIC)?;
        self.store.write_to(w)?;
        let tag = match self.weighting {
            CategoryWeighting::BySize => 0,
            CategoryWeighting::Uniform => 1,
        };
        write_u32(w, tag)?;
        for (ldf, ltf) in self.lambdas_df.iter().zip(&self.lambdas_tf) {
            write_u32(w, ldf.len() as u32)?;
            for &l in ldf {
                write_f64(w, l)?;
            }
            for &l in ltf {
                write_f64(w, l)?;
            }
        }
        Ok(())
    }

    /// Deserialize from `r`, validating structure as it goes.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != CATALOG_MAGIC {
            return Err(corrupt("bad catalog magic or unsupported version"));
        }
        let store = CollectionStore::read_from(r)?;
        let weighting = match read_u32(r)? {
            0 => CategoryWeighting::BySize,
            1 => CategoryWeighting::Uniform,
            _ => return Err(corrupt("unknown category weighting")),
        };
        let mut lambdas_df = Vec::with_capacity(store.databases.len());
        let mut lambdas_tf = Vec::with_capacity(store.databases.len());
        for db in 0..store.databases.len() {
            let len = read_u32(r)? as usize;
            if Some(len) != lambda_len(&store, db) {
                return Err(corrupt(
                    "λ vector length disagrees with the database's category path",
                ));
            }
            let mut read_vec = || -> io::Result<Vec<f64>> {
                (0..len)
                    .map(|_| {
                        let l = read_f64(r)?;
                        if !(0.0..=1.0).contains(&l) {
                            return Err(corrupt("mixture weight outside [0, 1]"));
                        }
                        Ok(l)
                    })
                    .collect()
            };
            lambdas_df.push(read_vec()?);
            lambdas_tf.push(read_vec()?);
        }
        Ok(StoredCatalog {
            store,
            weighting,
            lambdas_df,
            lambdas_tf,
        })
    }

    /// Save to a file through a temporary sibling and a rename, so a
    /// failed or interrupted save leaves the previous file as it was.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        crate::delta::write_atomically(path.as_ref(), |w| self.write_to(w))
    }

    /// Load from a file (buffered), rejecting trailing bytes.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut r = BufReader::new(std::fs::File::open(path)?);
        let catalog = Self::read_from(&mut r)?;
        let mut probe = [0u8; 1];
        if r.read(&mut probe)? != 0 {
            return Err(corrupt("trailing bytes after catalog"));
        }
        Ok(catalog)
    }
}

/// The λ-vector length database `db` of `store` needs: uniform + one per
/// category on its path + the database itself (`None` when its category
/// is not in the hierarchy).
fn lambda_len(store: &CollectionStore, db: usize) -> Option<usize> {
    let category = store.databases[db].classification;
    (category < store.hierarchy.len()).then(|| store.hierarchy.path_from_root(category).len() + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoredDatabase;
    use dbselect_core::hierarchy::Hierarchy;
    use dbselect_core::summary::{ContentSummary, SummaryView};
    use textindex::{Document, TermDict};

    fn profiled_store() -> CollectionStore {
        let mut dict = TermDict::new();
        let terms: Vec<u32> = ["alpha", "beta", "gamma", "delta"]
            .iter()
            .map(|t| dict.intern(t))
            .collect();
        let mut hierarchy = Hierarchy::new("Root");
        let heart = hierarchy.ensure_path("Health/Heart");
        let soccer = hierarchy.ensure_path("Sports/Soccer");
        let docs1 = [
            Document::from_tokens(0, vec![terms[0], terms[1]]),
            Document::from_tokens(1, vec![terms[0], terms[2]]),
            Document::from_tokens(2, vec![terms[0]]),
        ];
        let docs2 = [
            Document::from_tokens(0, vec![terms[3], terms[1]]),
            Document::from_tokens(1, vec![terms[3]]),
        ];
        let mut s1 = ContentSummary::from_sample(docs1.iter(), 800.0);
        s1.set_gamma(-1.9);
        let s2 = ContentSummary::from_sample(docs2.iter(), 120.0);
        CollectionStore {
            dict,
            hierarchy,
            databases: vec![
                StoredDatabase {
                    name: "heart-db".into(),
                    classification: heart,
                    summary: s1,
                    sample_docs: Vec::new(),
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

    #[test]
    fn freeze_records_the_em_fit() {
        let store = profiled_store();
        let shrunk = store.shrink_all(CategoryWeighting::BySize);
        let frozen = StoredCatalog::freeze(store, CategoryWeighting::BySize);
        assert_eq!(frozen.lambdas_df.len(), 2);
        for (recorded, fresh) in frozen.lambdas_df.iter().zip(&shrunk) {
            assert_eq!(recorded.as_slice(), fresh.lambdas());
        }
    }

    #[test]
    fn rebuild_shrunk_is_bit_identical_to_shrink_all() {
        let store = profiled_store();
        let fresh = store.shrink_all(CategoryWeighting::BySize);
        let frozen = StoredCatalog::freeze(store, CategoryWeighting::BySize);
        let rebuilt = frozen.rebuild_shrunk();
        assert_eq!(rebuilt.len(), fresh.len());
        for (a, b) in rebuilt.iter().zip(&fresh) {
            assert_eq!(a.db_size().to_bits(), b.db_size().to_bits());
            assert_eq!(a.word_count().to_bits(), b.word_count().to_bits());
            for t in a.vocabulary() {
                assert_eq!(a.p_df(t).to_bits(), b.p_df(t).to_bits(), "p_df({t})");
                assert_eq!(a.p_tf(t).to_bits(), b.p_tf(t).to_bits(), "p_tf({t})");
            }
        }
    }

    #[test]
    fn round_trip_preserves_catalog_routing_inputs() {
        let frozen = StoredCatalog::freeze(profiled_store(), CategoryWeighting::BySize);
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        let restored = StoredCatalog::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(restored.weighting, frozen.weighting);
        assert_eq!(restored.lambdas_df, frozen.lambdas_df);
        assert_eq!(restored.lambdas_tf, frozen.lambdas_tf);
        let original = frozen.to_catalog();
        let loaded = restored.to_catalog();
        assert_eq!(loaded.len(), original.len());
        assert_eq!(loaded.names(), original.names());
        assert_eq!(loaded.mcw().to_bits(), original.mcw().to_bits());
        for db in 0..original.len() {
            assert_eq!(loaded.gamma(db).to_bits(), original.gamma(db).to_bits());
            for t in 0..frozen.store.dict.len() as u32 {
                assert_eq!(
                    loaded.shrunk(db).p_df(t).to_bits(),
                    original.shrunk(db).p_df(t).to_bits()
                );
            }
        }
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let path =
            std::env::temp_dir().join(format!("dbsel-catalog-test-{}.bin", std::process::id()));
        let frozen = StoredCatalog::freeze(profiled_store(), CategoryWeighting::Uniform);
        frozen.save(&path).unwrap();
        let restored = StoredCatalog::load(&path).unwrap();
        assert_eq!(restored.weighting, CategoryWeighting::Uniform);
        assert_eq!(restored.store.databases[1].name, "soccer-db");
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"junk").unwrap();
        }
        assert!(StoredCatalog::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn collection_store_bytes_are_not_a_catalog() {
        let mut bytes = Vec::new();
        profiled_store().write_to(&mut bytes).unwrap();
        assert!(StoredCatalog::read_from(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn lambda_vectors_must_fit_the_category_path() {
        let mut frozen = StoredCatalog::freeze(profiled_store(), CategoryWeighting::BySize);
        // One weight too many for Root/Health/Heart, set through the public
        // fields: the writer refuses to persist it...
        frozen.lambdas_df[0].push(0.0);
        frozen.lambdas_tf[0].push(0.0);
        let err = frozen.write_to(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // ...and a file that carries it anyway (the writer's layout, encoded
        // by hand) is refused by every loader instead of panicking when the
        // shrunk summaries are mixed.
        let mut bytes = CATALOG_MAGIC.to_vec();
        frozen.store.write_to(&mut bytes).unwrap();
        write_u32(&mut bytes, 0).unwrap();
        for (ldf, ltf) in frozen.lambdas_df.iter().zip(&frozen.lambdas_tf) {
            write_u32(&mut bytes, ldf.len() as u32).unwrap();
            for &l in ldf.iter().chain(ltf) {
                write_f64(&mut bytes, l).unwrap();
            }
        }
        let path =
            std::env::temp_dir().join(format!("dbsel-lambda-len-{}.cat", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let err = StoredCatalog::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("category path"), "{err}");
        let err = crate::delta::load_served(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_weighting_and_lambdas_are_rejected() {
        let frozen = StoredCatalog::freeze(profiled_store(), CategoryWeighting::BySize);
        let mut bytes = Vec::new();
        frozen.write_to(&mut bytes).unwrap();
        // The weighting tag sits right after the embedded store; flip it to
        // an unknown value by locating it from the end: per db, 1 length u32
        // + 2·len f64s. Easier: truncate inside the λ block.
        let cut = bytes.len() - 4;
        let mut slice = &bytes[..cut];
        assert!(StoredCatalog::read_from(&mut slice).is_err());
        // Out-of-range mixture weight.
        let tail = bytes.len() - 8;
        bytes[tail..].copy_from_slice(&2.5f64.to_le_bytes());
        assert!(StoredCatalog::read_from(&mut bytes.as_slice()).is_err());
    }
}
