//! The v2 serving snapshot: the columnar catalog on disk, loadable with
//! zero rebuilding.
//!
//! The v1 [`StoredCatalog`] persists profiling output (the embedded sample
//! store plus the fitted λ weights); loading it still re-derives category
//! components, reassembles every shrunk summary, and rebuilds the posting
//! index — ~90% of daemon start-up and `/admin/reload` latency. A
//! [`ServingSnapshot`] instead serializes **exactly the arrays the broker
//! serves from**: the frozen per-database summaries, the CSR posting
//! index, the resolved γ exponents, plus the few sidecar tables a daemon
//! needs (term dictionary, category names, LM's global model). Loading is
//! a straight array read — no EM, no shrunk-summary rebuild, no posting
//! reconstruction — and reproduces the in-memory [`Catalog`] bit for bit.
//!
//! ## Wire format
//!
//! Everything little-endian, every length [`MAX_LEN`]-guarded, every float
//! NaN-rejected on read (the v1 codec's defensive rules). The payload
//! between the magic and the trailing checksum is covered by an FNV-1a 64
//! digest, so any single corrupted byte is detected at load time.
//!
//! ```text
//! magic  b"DBSSNP\x00\x03"               8 bytes, not checksummed
//! ── checksummed payload ──────────────────────────────────────────
//! dict        u32 count, then count length-prefixed UTF-8 terms
//! databases   u32 count, then per database:
//!               name str · category str (full path) · gamma f64
//! mcw         f64
//! unshrunk    per database: frozen summary (below)
//! shrunk      per database: frozen summary (below)
//! index       u32 term count · terms u32×n (strictly ascending)
//!             offsets u32×(n+1) · u32 slab length
//!             dbs u32×len · p_df f64×len · sample_df u32×len
//!             effective u8×len (0|1)
//!             p_tf f64×len                       (v3 kernel aux)
//!             max_df f64×n · max_p_df f64×n · max_p_tf f64×n
//! lm_global   u32 count · (term u32, p_tf f64)×count, ascending
//! ── end of payload ───────────────────────────────────────────────
//! checksum    u64 FNV-1a over the payload, not checksummed
//!
//! frozen summary :=
//!   db_size f64 · sample_size u32 · word_count f64
//!   default_p_df f64 · default_p_tf f64
//!   u32 term count · terms u32×n (strictly ascending)
//!   p_df f64×n · p_tf f64×n · sample_df u32×n
//! ```
//!
//! v2 files (`\x02` magic) lack the kernel aux columns — the token-space
//! posting slab plus the per-term score maxima that power the pruned
//! top-k serving path. They still load: [`Catalog::from_raw_parts`]
//! recomputes the aux columns from the frozen summaries at load time,
//! through the same code `dbselect freeze` runs, so a v2 load is
//! bit-identical to the v3 fast path (asserted by the backward-load test
//! below). v3 loads additionally verify that the persisted maxima
//! dominate their posting slabs, so a structurally valid file can never
//! smuggle an unsound pruning bound past the checksum.
//!
//! [`MAX_LEN`]: crate::codec::MAX_LEN

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use broker::{Catalog, PostingIndex};
use dbselect_core::frozen::FrozenSummary;
use textindex::{TermDict, TermId};

use crate::catalog::StoredCatalog;
use crate::codec::{
    corrupt, decode_f64, read_column, read_f64, read_len, read_str, read_u32, read_u64,
    write_column, write_f64, write_str, write_u32, write_u64, ChecksumReader, ChecksumWriter,
};
use crate::refresh::Epoch;

/// Magic bytes + format version for serving snapshots (the "v3" catalog
/// format with kernel aux columns; v1 is [`StoredCatalog`]'s `DBSCAT`).
const SNAPSHOT_MAGIC: &[u8; 8] = b"DBSSNP\x00\x03";

/// The previous serving-snapshot version, still accepted on read; aux
/// columns are recomputed from the summaries at load time.
const SNAPSHOT_MAGIC_V2: &[u8; 8] = b"DBSSNP\x00\x02";

/// Everything `dbselectd` and `dbselect route` serve from, in final form.
#[derive(Debug, Clone)]
pub struct ServingSnapshot {
    /// The term dictionary (query analysis).
    pub dict: TermDict,
    /// Full category path per database, catalog order (reports).
    pub categories: Vec<String>,
    /// LM's global model: `(term, p̂(w|G))` of the Root summary, ascending.
    pub lm_global: Vec<(TermId, f64)>,
    /// The columnar serving catalog.
    pub catalog: Catalog,
}

impl ServingSnapshot {
    /// Freeze a v1 [`StoredCatalog`] into serving form — the one-time
    /// migration / `dbselect freeze` path. Aggregates the categories once
    /// and mixes every shrunk summary from the recorded λs (no EM), then
    /// builds the posting index; everything downstream reads arrays.
    pub fn from_stored(stored: &StoredCatalog) -> ServingSnapshot {
        Epoch::pin(stored).snapshot(stored)
    }

    /// Serialize into `w` (magic, checksummed payload, trailing digest).
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.write_versioned(w, 3)
    }

    /// Version-dispatched serializer. `version` 2 omits the kernel aux
    /// columns — kept (privately) so the backward-load test can produce
    /// genuine v2 bytes without pinning a fixture file.
    fn write_versioned<W: Write>(&self, w: &mut W, version: u8) -> io::Result<()> {
        let n = self.catalog.len();
        if self.categories.len() != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "one category path per database required",
            ));
        }
        let index = self.catalog.posting_index();
        if version >= 3 && !index.aux_ready() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "kernel aux columns missing; cannot write a v3 snapshot",
            ));
        }
        w.write_all(if version >= 3 {
            SNAPSHOT_MAGIC
        } else {
            SNAPSHOT_MAGIC_V2
        })?;
        let mut cw = ChecksumWriter::new(&mut *w);

        let dict_len = u32::try_from(self.dict.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "dictionary too large"))?;
        write_u32(&mut cw, dict_len)?;
        for id in 0..dict_len {
            write_str(&mut cw, self.dict.term(id))?;
        }

        write_u32(&mut cw, n as u32)?;
        for db in 0..n {
            write_str(&mut cw, &self.catalog.names()[db])?;
            write_str(&mut cw, &self.categories[db])?;
            write_f64(&mut cw, self.catalog.gamma(db))?;
        }
        write_f64(&mut cw, self.catalog.mcw())?;
        let mut buf = Vec::new();
        for db in 0..n {
            write_frozen(&mut cw, &mut buf, self.catalog.unshrunk(db))?;
        }
        for db in 0..n {
            write_frozen(&mut cw, &mut buf, self.catalog.shrunk(db))?;
        }

        write_u32(&mut cw, index.len() as u32)?;
        write_u32_column(&mut cw, &mut buf, index.terms())?;
        write_u32_column(&mut cw, &mut buf, index.offsets())?;
        write_u32(&mut cw, index.dbs().len() as u32)?;
        write_u32_column(&mut cw, &mut buf, index.dbs())?;
        write_f64_column(&mut cw, &mut buf, index.p_df())?;
        write_u32_column(&mut cw, &mut buf, index.sample_df())?;
        let effective = index.effective().iter().map(|&e| [u8::from(e)]);
        write_column(&mut cw, &mut buf, effective)?;
        if version >= 3 {
            for column in [
                index.p_tf(),
                index.max_df(),
                index.max_p_df(),
                index.max_p_tf(),
            ] {
                write_f64_column(&mut cw, &mut buf, column)?;
            }
        }

        write_u32(&mut cw, self.lm_global.len() as u32)?;
        write_column(
            &mut cw,
            &mut buf,
            self.lm_global.iter().map(|&(t, p)| {
                let mut pair = [0u8; 12];
                pair[..4].copy_from_slice(&t.to_le_bytes());
                pair[4..].copy_from_slice(&p.to_le_bytes());
                pair
            }),
        )?;

        let digest = cw.digest();
        write_u64(w, digest)
    }

    /// Deserialize from `r`, validating structure as it goes and the
    /// payload checksum at the end.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        let version = if &magic == SNAPSHOT_MAGIC {
            3
        } else if &magic == SNAPSHOT_MAGIC_V2 {
            2
        } else {
            return Err(corrupt("bad snapshot magic or unsupported version"));
        };
        let mut cr = ChecksumReader::new(&mut *r);
        let snapshot = read_payload(&mut cr, version)?;
        let digest = cr.digest();
        if read_u64(r)? != digest {
            return Err(corrupt("snapshot checksum mismatch"));
        }
        Ok(snapshot)
    }

    /// Save to a file (buffered).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut w)?;
        w.flush()
    }

    /// Load from a file (buffered), rejecting trailing bytes. Errors
    /// carry the file path (kind preserved).
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        Self::load_file(path).map_err(|e| with_path_context(path, e))
    }

    /// The context-free file load `load`/`load_any` wrap; the chain
    /// loader calls it directly so a delta-chain error names the failing
    /// chain member exactly once.
    fn load_file(path: &Path) -> io::Result<Self> {
        let mut r = BufReader::new(std::fs::File::open(path)?);
        let snapshot = Self::read_from(&mut r)?;
        let mut probe = [0u8; 1];
        if r.read(&mut probe)? != 0 {
            return Err(corrupt("trailing bytes after snapshot"));
        }
        Ok(snapshot)
    }

    /// [`load`](Self::load) without path context, plus the stored payload
    /// digest (already verified against the payload) — what chain replay
    /// links parents by.
    pub(crate) fn load_with_digest(path: &Path) -> io::Result<(Self, u64)> {
        use std::io::Seek as _;
        let snapshot = Self::load_file(path)?;
        let mut f = std::fs::File::open(path)?;
        f.seek(io::SeekFrom::End(-8))?;
        let digest = read_u64(&mut f)?;
        Ok((snapshot, digest))
    }

    /// Load a serving snapshot from any format: a v2/v3 snapshot reads
    /// straight into arrays; a v1 [`StoredCatalog`] is rebuilt through the
    /// legacy path (EM-free, but category aggregation + posting
    /// construction); a **directory** is replayed as a delta chain
    /// (`base.snap` + `delta-NNNNNN.snap`, see [`crate::delta`]). This
    /// keeps every existing catalog file loadable. Errors carry the file
    /// path — and, for chains, the chain position — with the error kind
    /// preserved.
    pub fn load_any(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if path.is_dir() {
            return crate::delta::load_chain(path).map(|c| c.snapshot);
        }
        Self::load_any_file(path).map_err(|e| with_path_context(path, e))
    }

    fn load_any_file(path: &Path) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        {
            let mut f = std::fs::File::open(path)?;
            f.read_exact(&mut magic)?;
        }
        if &magic == SNAPSHOT_MAGIC || &magic == SNAPSHOT_MAGIC_V2 {
            Self::load_file(path)
        } else {
            let stored = StoredCatalog::load(path)?;
            Ok(ServingSnapshot::from_stored(&stored))
        }
    }

    /// [`load_any`](Self::load_any), additionally returning the file's
    /// content checksum — what `/readyz` reports so operators can tell at
    /// a glance whether two daemons serve the same snapshot bytes.
    ///
    /// For a v2 snapshot this is the stored trailing FNV-1a payload
    /// digest (already validated against the payload by the load). A v1
    /// catalog stores no digest, so the same FNV-1a is computed over the
    /// whole file instead — either way the value is a stable fingerprint
    /// of the bytes on disk. A chain directory reports its tip delta's
    /// digest, which by parent-linking fingerprints the whole chain.
    pub fn load_any_with_checksum(path: impl AsRef<Path>) -> io::Result<(Self, u64)> {
        use std::io::Seek as _;

        let path = path.as_ref();
        if path.is_dir() {
            return crate::delta::load_chain(path).map(|c| (c.snapshot, c.checksum));
        }
        let wrap = |e| with_path_context(path, e);
        let snapshot = Self::load_any_file(path).map_err(wrap)?;
        let mut f = std::fs::File::open(path).map_err(wrap)?;
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic).map_err(wrap)?;
        let checksum = if &magic == SNAPSHOT_MAGIC || &magic == SNAPSHOT_MAGIC_V2 {
            f.seek(io::SeekFrom::End(-8)).map_err(wrap)?;
            read_u64(&mut f).map_err(wrap)?
        } else {
            let mut w = ChecksumWriter::new(io::sink());
            w.write_all(&magic)?;
            io::copy(&mut f, &mut w).map_err(wrap)?;
            w.digest()
        };
        Ok((snapshot, checksum))
    }
}

/// Prefix an I/O error with the file it came from, preserving the kind
/// (the daemon's 404-vs-400 mapping keys off it).
pub(crate) fn with_path_context(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

pub(crate) fn write_frozen<W: Write>(
    w: &mut W,
    buf: &mut Vec<u8>,
    s: &FrozenSummary,
) -> io::Result<()> {
    write_f64(w, s.db_size())?;
    write_u32(w, s.sample_size())?;
    write_f64(w, s.word_count())?;
    write_f64(w, s.default_p_df())?;
    write_f64(w, s.default_p_tf())?;
    write_u32(w, s.len() as u32)?;
    write_u32_column(w, buf, s.terms())?;
    write_f64_column(w, buf, s.p_df_column())?;
    write_f64_column(w, buf, s.p_tf_column())?;
    // An elided (all-zero) column is written out in full: the format
    // does not know about the in-memory elision.
    let sample_df = (0..s.len()).map(|i| s.sample_df_at(i).to_le_bytes());
    write_column(w, buf, sample_df)
}

fn write_u32_column<W: Write>(w: &mut W, buf: &mut Vec<u8>, values: &[u32]) -> io::Result<()> {
    write_column(w, buf, values.iter().map(|v| v.to_le_bytes()))
}

fn write_f64_column<W: Write>(w: &mut W, buf: &mut Vec<u8>, values: &[f64]) -> io::Result<()> {
    write_column(w, buf, values.iter().map(|v| v.to_le_bytes()))
}

fn read_u32_column<R: Read>(r: &mut R, len: usize) -> io::Result<Vec<u32>> {
    read_column(r, len, |b| Ok(u32::from_le_bytes(b)))
}

fn read_f64_column<R: Read>(r: &mut R, len: usize) -> io::Result<Vec<f64>> {
    read_column(r, len, decode_f64)
}

pub(crate) fn read_frozen<R: Read>(r: &mut R) -> io::Result<FrozenSummary> {
    let db_size = read_f64(r)?;
    let sample_size = read_u32(r)?;
    let word_count = read_f64(r)?;
    let default_p_df = read_f64(r)?;
    let default_p_tf = read_f64(r)?;
    let len = read_len(r)?;
    let terms = read_u32_column(r, len)?;
    let p_df = read_f64_column(r, len)?;
    let p_tf = read_f64_column(r, len)?;
    let sample_df = read_u32_column(r, len)?;
    FrozenSummary::from_raw_parts(
        db_size,
        sample_size,
        word_count,
        default_p_df,
        default_p_tf,
        terms,
        p_df,
        p_tf,
        sample_df,
    )
    .map_err(corrupt)
}

fn read_payload<R: Read>(r: &mut R, version: u8) -> io::Result<ServingSnapshot> {
    let mut dict = TermDict::new();
    let dict_len = read_len(r)?;
    for i in 0..dict_len {
        let term = read_str(r)?;
        let id = dict.intern(&term);
        if id as usize != i {
            return Err(corrupt("duplicate term in snapshot dictionary"));
        }
    }

    let n = read_len(r)?;
    let mut names = Vec::new();
    let mut categories = Vec::new();
    let mut gammas = Vec::new();
    for _ in 0..n {
        names.push(read_str(r)?);
        categories.push(read_str(r)?);
        gammas.push(read_f64(r)?);
    }
    let mcw = read_f64(r)?;
    // A summary that fails validation is reported with its database.
    let named =
        |name: &String, e: io::Error| io::Error::new(e.kind(), format!("database `{name}`: {e}"));
    let mut unshrunk = Vec::new();
    for name in &names {
        unshrunk.push(read_frozen(r).map_err(|e| named(name, e))?);
    }
    let mut shrunk = Vec::new();
    for name in &names {
        shrunk.push(read_frozen(r).map_err(|e| named(name, e))?);
    }

    let term_count = read_len(r)?;
    let terms = read_u32_column(r, term_count)?;
    let offsets = read_u32_column(r, term_count + 1)?;
    let slab_len = read_len(r)?;
    let dbs = read_u32_column(r, slab_len)?;
    let p_df = read_f64_column(r, slab_len)?;
    let sample_df = read_u32_column(r, slab_len)?;
    let effective = read_column(r, slab_len, |[b]| match b {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(corrupt("effective flag must be 0 or 1")),
    })?;
    let mut index =
        PostingIndex::from_raw_parts(n, terms, offsets, dbs, p_df, sample_df, effective)
            .map_err(corrupt)?;
    if version >= 3 {
        let p_tf = read_f64_column(r, slab_len)?;
        let max_df = read_f64_column(r, term_count)?;
        let max_p_df = read_f64_column(r, term_count)?;
        let max_p_tf = read_f64_column(r, term_count)?;
        // Soundness gate: the maxima are pruning upper bounds, so a stored
        // maximum below any posting it covers would let the pruned top-k
        // path silently drop a true top-k entry. Reject such files.
        for (pos, window) in index.offsets().windows(2).enumerate() {
            // `at` walks three parallel slabs, two of them behind accessors.
            #[allow(clippy::needless_range_loop)]
            for at in window[0] as usize..window[1] as usize {
                let db = index.dbs()[at] as usize;
                let size = unshrunk[db].db_size();
                if max_p_df[pos] < index.p_df()[at]
                    || max_p_tf[pos] < p_tf[at]
                    || max_df[pos] < index.p_df()[at] * size
                {
                    return Err(corrupt("term maxima do not dominate postings"));
                }
            }
        }
        index
            .set_aux(p_tf, max_df, max_p_df, max_p_tf)
            .map_err(corrupt)?;
    }

    let lm_len = read_len(r)?;
    let mut prev: Option<TermId> = None;
    let lm_global = read_column(r, lm_len, |pair: [u8; 12]| {
        let (t, p) = pair.split_at(4);
        let t = TermId::from_le_bytes(t.try_into().expect("4-byte term"));
        if prev.is_some_and(|prev| t <= prev) {
            return Err(corrupt("global model terms not strictly ascending"));
        }
        prev = Some(t);
        let p = decode_f64(p.try_into().expect("8-byte probability"))?;
        if p < 0.0 {
            return Err(corrupt("negative global model probability"));
        }
        Ok((t, p))
    })?;

    let catalog = Catalog::from_raw_parts(names, unshrunk, shrunk, gammas, mcw, index)
        .map_err(|e| corrupt(&e))?;
    Ok(ServingSnapshot {
        dict,
        categories,
        lm_global,
        catalog,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectionStore, StoredDatabase};
    use dbselect_core::category_summary::CategoryWeighting;
    use dbselect_core::hierarchy::Hierarchy;
    use dbselect_core::summary::ContentSummary;
    use proptest::prelude::*;
    use textindex::Document;

    /// A small mixed store: a γ-fitted database, a γ-fallback one, and an
    /// empty-sample one (exercising every encoding edge the codec has).
    fn fixture_store() -> CollectionStore {
        let mut dict = TermDict::new();
        let terms: Vec<u32> = ["alpha", "beta", "gamma", "delta", "epsilon"]
            .iter()
            .map(|t| dict.intern(t))
            .collect();
        let mut hierarchy = Hierarchy::new("Root");
        let heart = hierarchy.ensure_path("Health/Heart");
        let soccer = hierarchy.ensure_path("Sports/Soccer");
        let docs1 = [
            Document::from_tokens(0, vec![terms[0], terms[1], terms[1]]),
            Document::from_tokens(1, vec![terms[0], terms[2]]),
        ];
        let docs2 = [Document::from_tokens(0, vec![terms[3], terms[1]])];
        let mut s1 = ContentSummary::from_sample(docs1.iter(), 800.0);
        s1.set_gamma(-1.9);
        let s2 = ContentSummary::from_sample(docs2.iter(), 120.0);
        let empty = ContentSummary::from_sample(std::iter::empty(), 0.0);
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
                StoredDatabase {
                    name: "empty-db".into(),
                    classification: heart,
                    summary: empty,
                    sample_docs: Vec::new(),
                },
            ],
        }
    }

    fn fixture_snapshot() -> ServingSnapshot {
        let frozen = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
        ServingSnapshot::from_stored(&frozen)
    }

    fn assert_catalogs_bit_identical(a: &Catalog, b: &Catalog) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.names(), b.names());
        assert_eq!(a.mcw().to_bits(), b.mcw().to_bits());
        for db in 0..a.len() {
            assert_eq!(a.gamma(db).to_bits(), b.gamma(db).to_bits());
            assert_eq!(a.unshrunk(db), b.unshrunk(db));
            assert_eq!(a.shrunk(db), b.shrunk(db));
        }
        assert_eq!(a.posting_index(), b.posting_index());
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let snapshot = fixture_snapshot();
        let mut bytes = Vec::new();
        snapshot.write_to(&mut bytes).unwrap();
        let restored = ServingSnapshot::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(restored.dict.len(), snapshot.dict.len());
        for id in 0..snapshot.dict.len() as u32 {
            assert_eq!(restored.dict.term(id), snapshot.dict.term(id));
        }
        assert_eq!(restored.categories, snapshot.categories);
        assert_eq!(restored.lm_global.len(), snapshot.lm_global.len());
        for (a, b) in restored.lm_global.iter().zip(&snapshot.lm_global) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert_catalogs_bit_identical(&restored.catalog, &snapshot.catalog);
    }

    /// Golden bytes: payload digests recorded before the dense-scratch
    /// mixer replaced the per-term freeze. The `Uniform` catalog still
    /// freezes LM's global model under `BySize` weighting.
    #[test]
    fn from_stored_bytes_match_their_recorded_digests() {
        let digests: Vec<u64> = [CategoryWeighting::BySize, CategoryWeighting::Uniform]
            .into_iter()
            .map(|weighting| {
                let frozen = StoredCatalog::freeze(fixture_store(), weighting);
                let mut bytes = Vec::new();
                ServingSnapshot::from_stored(&frozen)
                    .write_to(&mut bytes)
                    .unwrap();
                u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap())
            })
            .collect();
        assert_eq!(digests, [0x2aed_6381_49c6_2753, 0xcf62_dc65_6319_28d9]);
    }

    #[test]
    fn snapshot_catalog_matches_v1_rebuild() {
        // The frozen catalog inside the snapshot must be the same catalog
        // the v1 path builds — same arrays, same bits.
        let frozen = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
        let snapshot = ServingSnapshot::from_stored(&frozen);
        assert_catalogs_bit_identical(&snapshot.catalog, &frozen.to_catalog());
    }

    #[test]
    fn save_load_and_format_sniffing() {
        let dir = std::env::temp_dir();
        let v2 = dir.join(format!("dbsel-snap-test-{}.v2", std::process::id()));
        let v1 = dir.join(format!("dbsel-snap-test-{}.v1", std::process::id()));
        let frozen = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
        let snapshot = ServingSnapshot::from_stored(&frozen);
        snapshot.save(&v2).unwrap();
        frozen.save(&v1).unwrap();
        // load_any takes both formats to the same serving catalog.
        let from_v2 = ServingSnapshot::load_any(&v2).unwrap();
        let from_v1 = ServingSnapshot::load_any(&v1).unwrap();
        assert_catalogs_bit_identical(&from_v2.catalog, &from_v1.catalog);
        assert_eq!(from_v2.categories, from_v1.categories);
        // Trailing garbage is rejected on the v2 path.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&v2).unwrap();
            f.write_all(b"junk").unwrap();
        }
        assert!(ServingSnapshot::load(&v2).is_err());
        std::fs::remove_file(&v2).ok();
        std::fs::remove_file(&v1).ok();
    }

    #[test]
    fn checksum_is_stable_and_format_independent() {
        let dir = std::env::temp_dir();
        let v2 = dir.join(format!("dbsel-snap-cksum-{}.v2", std::process::id()));
        let v1 = dir.join(format!("dbsel-snap-cksum-{}.v1", std::process::id()));
        let frozen = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
        let snapshot = ServingSnapshot::from_stored(&frozen);
        snapshot.save(&v2).unwrap();
        frozen.save(&v1).unwrap();

        let (_, a) = ServingSnapshot::load_any_with_checksum(&v2).unwrap();
        let (_, b) = ServingSnapshot::load_any_with_checksum(&v2).unwrap();
        assert_eq!(a, b, "same bytes, same checksum");
        assert_ne!(a, 0);

        // The v2 checksum is the stored trailing payload digest.
        let bytes = std::fs::read(&v2).unwrap();
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(a, stored);

        // v1 files expose a fingerprint too, and a different one (the
        // bytes differ).
        let (_, c) = ServingSnapshot::load_any_with_checksum(&v1).unwrap();
        assert_ne!(c, 0);
        assert_ne!(a, c);

        std::fs::remove_file(&v2).ok();
        std::fs::remove_file(&v1).ok();
    }

    #[test]
    fn v2_snapshots_backward_load_bit_identically() {
        // Older snapshots lack the kernel aux columns; loading one must
        // recompute them and land on the exact catalog a v3 file carries —
        // including the persisted-vs-recomputed aux slabs, which the
        // posting-index equality covers bit for bit.
        let snapshot = fixture_snapshot();
        let mut v3 = Vec::new();
        snapshot.write_to(&mut v3).unwrap();
        let mut v2 = Vec::new();
        snapshot.write_versioned(&mut v2, 2).unwrap();
        assert!(v2.len() < v3.len(), "v2 must omit the aux columns");
        assert_eq!(&v2[..8], SNAPSHOT_MAGIC_V2);
        let from_v3 = ServingSnapshot::read_from(&mut v3.as_slice()).unwrap();
        let from_v2 = ServingSnapshot::read_from(&mut v2.as_slice()).unwrap();
        assert!(from_v2.catalog.kernel_ready(), "v2 load recomputes aux");
        assert_catalogs_bit_identical(&from_v2.catalog, &from_v3.catalog);
        assert_eq!(from_v2.categories, from_v3.categories);
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let mut bytes = Vec::new();
        fixture_snapshot().write_to(&mut bytes).unwrap();
        for cut in (0..bytes.len()).step_by(13) {
            let mut slice = &bytes[..cut];
            assert!(
                ServingSnapshot::read_from(&mut slice).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn checksum_detects_payload_corruption_the_structure_misses() {
        let mut bytes = Vec::new();
        fixture_snapshot().write_to(&mut bytes).unwrap();
        // Flip one bit in a stored probability: structurally still a valid
        // snapshot, so only the checksum can catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(ServingSnapshot::read_from(&mut bytes.as_slice()).is_err());
    }

    /// Recompute the trailing checksum of a (mutated) v2/v3 file, so the
    /// mutation reaches the structural validators instead of dying at the
    /// digest comparison.
    fn reseal(bytes: &mut [u8]) {
        let end = bytes.len() - 8;
        let mut cw = ChecksumWriter::new(io::sink());
        cw.write_all(&bytes[8..end]).unwrap();
        bytes[end..].copy_from_slice(&cw.digest().to_le_bytes());
    }

    #[test]
    fn sample_df_beyond_sample_size_is_rejected_naming_the_database() {
        // An in-memory store may claim anything; the file boundary may not:
        // `sample_df` keys the uncertainty test's moment table.
        let mut store = fixture_store();
        let mut words = std::collections::HashMap::new();
        words.insert(
            0u32,
            dbselect_core::summary::WordStats {
                sample_df: 9,
                df: 40.0,
                tf: 80.0,
            },
        );
        store.databases[1].summary = ContentSummary::new(120.0, 2, words);
        let frozen = StoredCatalog::freeze(store, CategoryWeighting::BySize);
        let mut bytes = Vec::new();
        ServingSnapshot::from_stored(&frozen)
            .write_to(&mut bytes)
            .unwrap();
        let Err(err) = ServingSnapshot::read_from(&mut bytes.as_slice()) else {
            panic!("sample_df 9 of a 2-document sample must not load");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let message = err.to_string();
        assert!(message.contains("soccer-db"), "{message}");
        assert!(message.contains("sample_df"), "{message}");
    }

    /// Trust-boundary fuzz behind the checksum: every single-byte mutation
    /// of the file, re-sealed, is either rejected or loads into a catalog
    /// whose `sample_df`s respect their sample sizes, whose moment tables
    /// stay within one row per posting (plus the absent row per database),
    /// and which routes every dictionary term without panicking.
    #[test]
    fn resealed_single_byte_mutations_never_panic_or_balloon_the_moment_table() {
        use broker::{MomentTable, RouteScratch, SelectionEngine};
        use rand::SeedableRng;
        use selection::{AdaptiveConfig, BGloss, Cori, SelectionAlgorithm};
        use std::sync::Arc;

        let mut pristine = Vec::new();
        fixture_snapshot().write_to(&mut pristine).unwrap();
        let mut accepted = 0usize;
        for position in 8..pristine.len() - 8 {
            for xor in [0x01u8, 0x80, 0xff] {
                let mut bytes = pristine.clone();
                bytes[position] ^= xor;
                reseal(&mut bytes);
                let Ok(snapshot) = ServingSnapshot::read_from(&mut bytes.as_slice()) else {
                    continue;
                };
                accepted += 1;
                let catalog = Arc::new(snapshot.catalog);
                for db in 0..catalog.len() {
                    let s = catalog.unshrunk(db);
                    assert!((0..s.len()).all(|i| s.sample_df_at(i) <= s.sample_size()));
                }
                let cori = Cori::default();
                let forms = [
                    BGloss.independent_terms().unwrap(),
                    cori.independent_terms().unwrap(),
                ];
                let tables: Vec<_> = MomentTable::build(&catalog, &forms, 160)
                    .into_iter()
                    .map(Arc::new)
                    .collect();
                let postings = catalog.posting_index().dbs().len();
                for table in &tables {
                    assert!(table.rows() <= postings + catalog.len(), "at {position}");
                }
                let query: Vec<TermId> = (0..snapshot.dict.len() as TermId).collect();
                for (algorithm, table) in [
                    (
                        Arc::new(BGloss) as Arc<dyn SelectionAlgorithm + Send + Sync>,
                        Arc::clone(&tables[0]),
                    ),
                    (Arc::new(cori), Arc::clone(&tables[1])),
                ] {
                    let engine = SelectionEngine::with_table(
                        Arc::clone(&catalog),
                        algorithm,
                        AdaptiveConfig::default(),
                        Some(table),
                    );
                    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
                    let _ = engine.choose_summaries(&query, &mut rng, &mut RouteScratch::default());
                }
            }
        }
        assert!(
            accepted > 0,
            "value-only mutations (a γ, a probability) must load"
        );
    }

    proptest! {
        /// Corruption fuzz: any single mutated byte anywhere in the file
        /// yields `io::Error` — never a panic, never a silently different
        /// catalog, never an oversized allocation (decode grows buffers
        /// only as bytes actually arrive).
        #[test]
        fn any_single_byte_mutation_is_rejected(
            position in 0usize..10_000,
            xor in 1u8..=255,
        ) {
            let mut bytes = Vec::new();
            fixture_snapshot().write_to(&mut bytes).unwrap();
            let position = position % bytes.len();
            bytes[position] ^= xor;
            prop_assert!(ServingSnapshot::read_from(&mut bytes.as_slice()).is_err());
        }

        /// Round-trip fuzz over randomized collections: encode→decode is
        /// bit-identical for arbitrary db sizes, γ presence, and sparse
        /// word sets (including empty summaries).
        #[test]
        fn randomized_snapshots_round_trip(
            specs in proptest::collection::vec(
                (
                    1.0f64..100_000.0,
                    proptest::option::of(-3.0f64..-1.0),
                    proptest::collection::vec((0u32..5, 1u32..50), 0..5),
                ),
                1..5,
            ),
        ) {
            let mut dict = TermDict::new();
            for t in ["alpha", "beta", "gamma", "delta", "epsilon"] {
                dict.intern(t);
            }
            let mut hierarchy = Hierarchy::new("Root");
            let cat = hierarchy.ensure_path("Topic/Sub");
            let databases = specs
                .iter()
                .enumerate()
                .map(|(i, (db_size, gamma, words))| {
                    let docs: Vec<Document> = words
                        .iter()
                        .enumerate()
                        .map(|(d, &(t, reps))| {
                            Document::from_tokens(d as u32, vec![t; reps as usize])
                        })
                        .collect();
                    let mut summary = ContentSummary::from_sample(docs.iter(), *db_size);
                    if let Some(g) = gamma {
                        summary.set_gamma(*g);
                    }
                    StoredDatabase {
                        name: format!("db{i}"),
                        classification: cat,
                        summary,
                        sample_docs: Vec::new(),
                    }
                })
                .collect();
            let store = CollectionStore { dict, hierarchy, databases };
            let frozen = StoredCatalog::freeze(store, CategoryWeighting::BySize);
            let snapshot = ServingSnapshot::from_stored(&frozen);
            let mut bytes = Vec::new();
            snapshot.write_to(&mut bytes).unwrap();
            let restored = ServingSnapshot::read_from(&mut bytes.as_slice()).unwrap();
            assert_catalogs_bit_identical(&restored.catalog, &snapshot.catalog);
            for (a, b) in restored.lm_global.iter().zip(&snapshot.lm_global) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }
}
