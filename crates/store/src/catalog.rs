//! The shrinkage fit of a profiled collection, and the v1 catalog file.
//!
//! A [`CollectionStore`] persists what profiling *measured*; the broker
//! serves what the shrinkage EM makes of it (Section 3.2 of the paper —
//! "the λi weights are computed off-line for each database"). That EM is
//! the expensive step, and [`StoredCatalog::freeze`] runs it once:
//! the collection store plus, per database, the fitted mixture weights
//! under both probability models and the weighting policy they were fit
//! under. `dbselect freeze --store`, `dbselect select` and the benchmark
//! freeze through it into a [`ServingSnapshot`](crate::snapshot::ServingSnapshot).
//!
//! The v1 catalog file (`DBSCAT`) once persisted this fit between those
//! steps. It is read-only now: [`StoredCatalog::load`] reads an existing
//! file as the input of `dbselect freeze --catalog`, the one migration
//! into a v4 snapshot, and nothing in the build writes one. The snapshot
//! it freezes to is the one `freeze --store` writes of the embedded
//! store, because the recorded λs are the ones the EM re-fits.

use std::io::{self, BufReader, Read};
use std::path::Path;

use dbselect_core::category_summary::CategoryWeighting;
use dbselect_core::shrinkage::LambdaFitter;

use crate::codec::{corrupt, read_f64, read_u32};
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
    /// shrunk summaries. This is the offline step; every freeze
    /// downstream reuses the recorded fit.
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

    /// Deserialize a v1 catalog from `r`, validating structure as it
    /// goes: catalog magic, the embedded collection store, a `u32`
    /// weighting tag (0 `BySize`, 1 `Uniform`), then per database a `u32`
    /// λ count (its category path's length + 2) and that many `λ_df`,
    /// then `λ_tf`, `f64`s, each in `[0, 1]`.
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
    use crate::snapshot::ServingSnapshot;
    use crate::StoredDatabase;
    use dbselect_core::hierarchy::Hierarchy;
    use dbselect_core::summary::ContentSummary;
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

    /// A v1 catalog of three databases (Root/Health/Heart,
    /// Root/Sports/Soccer, Root/Health/Immunology) over 25 terms, `BySize`,
    /// written by the retired v1 writer: every λ vector has 5 weights.
    const FIXTURE: &[u8] = include_bytes!("../tests/fixtures/v1-tiny.catalog");

    /// Bytes per database of the fixture's λ block: a `u32` count, then
    /// 5 `λ_df` and 5 `λ_tf`.
    const LAMBDA_BLOCK: usize = 4 + 2 * 5 * 8;

    /// Offset of the weighting tag: the λ blocks of the three databases
    /// end the file.
    const TAG: usize = FIXTURE.len() - 3 * LAMBDA_BLOCK - 4;

    fn read(bytes: &[u8]) -> io::Result<StoredCatalog> {
        StoredCatalog::read_from(&mut &bytes[..])
    }

    #[test]
    fn round_trip_preserves_catalog_routing_inputs() {
        // The recorded fit is the one the EM makes of the embedded store,
        // so the file freezes to the snapshot a fresh fit freezes to.
        let restored = read(FIXTURE).unwrap();
        assert_eq!(restored.weighting, CategoryWeighting::BySize);
        let names: Vec<&str> = (restored.store.databases.iter())
            .map(|db| db.name.as_str())
            .collect();
        assert_eq!(names, ["heart", "soccer", "virus"]);
        let refit = StoredCatalog::freeze(restored.store.clone(), restored.weighting);
        for (recorded, fresh) in [
            (&restored.lambdas_df, &refit.lambdas_df),
            (&restored.lambdas_tf, &refit.lambdas_tf),
        ] {
            let bits = |l: &Vec<Vec<f64>>| -> Vec<u64> {
                l.iter().flatten().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(recorded), bits(fresh));
        }
        let snapshot = |c: &StoredCatalog| ServingSnapshot::from_stored(c).value_digest();
        assert_eq!(snapshot(&restored), snapshot(&refit));
    }

    #[test]
    fn load_reads_the_fixture_and_rejects_trailing_bytes() {
        let path =
            std::env::temp_dir().join(format!("dbsel-catalog-test-{}.bin", std::process::id()));
        std::fs::write(&path, FIXTURE).unwrap();
        let restored = StoredCatalog::load(&path).unwrap();
        assert_eq!(restored.store.databases[1].name, "soccer");
        let mut junk = FIXTURE.to_vec();
        junk.extend_from_slice(b"junk");
        std::fs::write(&path, &junk).unwrap();
        let err = StoredCatalog::load(&path).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn collection_store_bytes_are_not_a_catalog() {
        let mut bytes = Vec::new();
        profiled_store().write_to(&mut bytes).unwrap();
        assert!(StoredCatalog::read_from(&mut bytes.as_slice()).is_err());
        let mut bytes = FIXTURE.to_vec();
        bytes[0] ^= 0x01;
        let err = read(&bytes).unwrap_err();
        assert!(err.to_string().contains("bad catalog magic"), "{err}");
    }

    #[test]
    fn lambda_vectors_must_fit_the_category_path() {
        // One weight more than Root/Health/Heart has room for, in the
        // first database's count: refused before the weights are read,
        // instead of panicking when the shrunk summaries are mixed — by
        // the v1 reader and by the serving loader alike.
        let mut bytes = FIXTURE.to_vec();
        bytes[TAG + 4..TAG + 8].copy_from_slice(&6u32.to_le_bytes());
        let err = read(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("category path"), "{err}");
        let path =
            std::env::temp_dir().join(format!("dbsel-lambda-len-{}.cat", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let err = crate::delta::load_served(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_weighting_and_lambdas_are_rejected() {
        assert!(read(FIXTURE).is_ok());
        // Truncated inside the λ block.
        assert!(read(&FIXTURE[..FIXTURE.len() - 4]).is_err());
        // An unknown weighting tag.
        let mut bytes = FIXTURE.to_vec();
        bytes[TAG..TAG + 4].copy_from_slice(&7u32.to_le_bytes());
        let err = read(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("unknown category weighting"),
            "{err}"
        );
        // Out-of-range mixture weight: the last database's last λ_tf.
        let mut bytes = FIXTURE.to_vec();
        let tail = bytes.len() - 8;
        bytes[tail..].copy_from_slice(&2.5f64.to_le_bytes());
        let err = read(&bytes).unwrap_err();
        assert!(err.to_string().contains("outside [0, 1]"), "{err}");
    }
}
