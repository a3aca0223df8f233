//! The v4 serving snapshot: the columnar catalog on disk, its shrunk
//! summaries in factored form, loadable with no EM and no mixing.
//!
//! The v1 [`StoredCatalog`] persists profiling output (the embedded sample
//! store plus the fitted λ weights); loading it still re-aggregates the
//! categories and rebuilds the posting index. A [`ServingSnapshot`]
//! instead serializes **the arrays the broker serves from**: per
//! database its raw sample column, γ and λ pair; the category aggregates
//! of Eq. 1 once per catalog; the CSR posting index with its kernel aux
//! columns; plus the sidecar tables a daemon needs (term dictionary,
//! category names, LM's global model). A shrunk summary `R̂(D)` is
//! stored as what Section 3.2 defines it to be — a mixture of `D`'s own
//! summary and its path's category summaries under offline-fitted λs —
//! and never as a database × vocabulary matrix: the serving catalog
//! computes each value when a request reads it, bit for bit the value a
//! materialized mixture holds (see [`dbselect_core::frozen`]).
//!
//! ## Wire format
//!
//! Everything little-endian, every length [`MAX_LEN`]-guarded, every float
//! NaN-rejected on read (the v1 codec's defensive rules). The payload
//! between the magic and the trailing checksum is covered by an FNV-1a 64
//! digest, so any single corrupted byte is detected at load time.
//!
//! ```text
//! magic  b"DBSSNP\x00\x04"               8 bytes, not checksummed
//! ── checksummed payload ──────────────────────────────────────────
//! dict        u32 count, then count length-prefixed UTF-8 terms
//! weighting   u32 (0 BySize, 1 Uniform) · uniform_p f64
//! lm_global   u32 count · (term u32, p_tf f64)×count, ascending
//! categories  u32 count, then per category (parents first):
//!               name str · parent u32 (0 root, else parent id + 1)
//!               n_dbs u32 · denom_df f64 · denom_tf f64 · size f64
//!               u32 n · terms u32×n · acc_df f64×n · acc_tf f64×n
//! databases   u32 count, then per database:
//!               name str · category u32 · gamma f64
//!               u32 λ count · λ_df f64×count · λ_tf f64×count
//!               sample column (below)
//!               basis u8: 0 = the sample column above, 1 = pinned:
//!                 db_size f64 · word_count f64
//!                 u32 n · terms u32×n · df f64×n · tf f64×n
//! index       u32 term count · terms u32×n (strictly ascending)
//!             offsets u32×(n+1) · u32 slab length
//!             dbs u32×len · p_df f64×len · sample_df u32×len
//!             position u32×len (the word's index in the database's
//!               sample column) · effective u8×len (0|1) · p_tf f64×len
//!             max_df f64×n · max_p_df f64×n · max_p_tf f64×n
//! ── end of payload ───────────────────────────────────────────────
//! checksum    u64 FNV-1a over the payload, not checksummed
//!
//! sample column :=
//!   db_size f64 · sample_size u32 · word_count f64
//!   u32 n · terms u32×n (strictly ascending) · sample_df u32×n
//!   df f64×n · tf f64×n
//! ```
//!
//! `p̂(w|D)` is `df / db_size` and `p_tf` is `tf / word_count` (0 over a
//! zero total), recomputed at load. `word_count` is stored rather than
//! re-summed: profiling maintains a summary's token total incrementally,
//! and its bits are what every `p_tf` was divided by. `mcw` is
//! recomputed too. Loads verify that the persisted term maxima dominate
//! their posting slabs, so a structurally valid file can never smuggle an
//! unsound pruning bound past the checksum.
//!
//! v2 and v3 files (`\x02`, `\x03` magic) stored every shrunk summary
//! over the whole vocabulary. They are rejected with a message naming the
//! migration: `dbselect freeze --catalog CATALOG` re-freezes the v1
//! catalog they came from.
//!
//! [`MAX_LEN`]: crate::codec::MAX_LEN

use std::io::{self, BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

use broker::{Catalog, PostingIndex};
use dbselect_core::category_summary::{Aggregate, CategoryWeighting};
use dbselect_core::frozen::{Basis, CategoryColumns, FrozenSummary, ShrunkSummaries};
use textindex::{TermDict, TermId};

use crate::catalog::StoredCatalog;
use crate::codec::{
    corrupt, decode_f64, read_column, read_f64, read_len, read_str, read_u32, read_u64,
    write_column, write_f64, write_str, write_u32, write_u64, ChecksumReader, ChecksumWriter,
};
use crate::delta::write_atomically;
use crate::refresh::Epoch;

/// Magic bytes + format version for serving snapshots (v1 is
/// [`StoredCatalog`]'s `DBSCAT`).
const SNAPSHOT_MAGIC: &[u8; 8] = b"DBSSNP\x00\x04";

/// Retired serving-snapshot versions, recognised only to name the
/// migration.
const RETIRED_MAGICS: [&[u8; 8]; 2] = [b"DBSSNP\x00\x02", b"DBSSNP\x00\x03"];

/// The error a retired snapshot file loads to.
fn retired(version: u8) -> io::Error {
    corrupt(&format!(
        "v{version} serving snapshot: this build reads v4 only; re-freeze the v1 catalog \
         it came from with `dbselect freeze --catalog CATALOG --out SNAPSHOT`"
    ))
}

/// The magic's version when it names a retired snapshot format.
fn retired_version(magic: &[u8; 8]) -> Option<u8> {
    RETIRED_MAGICS.iter().find(|&&m| m == magic).map(|m| m[7])
}

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
    /// and records the fitted λs (no EM, no mixing), then builds the
    /// posting index; everything downstream reads arrays.
    pub fn from_stored(stored: &StoredCatalog) -> ServingSnapshot {
        Epoch::pin(stored).snapshot(stored, &[])
    }

    /// Serialize into `w` (magic, checksummed payload, trailing digest).
    /// A catalog whose shrunk summaries mix explicit component columns
    /// (one assembled from lazy mixtures, not frozen from a stored
    /// catalog) has no category path to write and is refused.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let invalid = |m: &str| io::Error::new(io::ErrorKind::InvalidInput, m.to_string());
        let n = self.catalog.len();
        if self.categories.len() != n {
            return Err(invalid("one category path per database required"));
        }
        let shrunk = self.catalog.shrunk_summaries();
        let leaves = (0..n)
            .map(|db| shrunk.category(db))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| invalid("shrunk summaries over explicit columns cannot be written"))?;
        let index = self.catalog.posting_index();
        w.write_all(SNAPSHOT_MAGIC)?;
        let mut cw = ChecksumWriter::new(&mut *w);
        let mut buf = Vec::new();

        write_dict(&mut cw, &self.dict)?;
        let categories = shrunk.categories();
        write_u32(&mut cw, weighting_tag(categories.weighting()))?;
        write_f64(&mut cw, shrunk.uniform_p())?;
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

        write_u32(&mut cw, categories.len() as u32)?;
        for (c, a) in categories.aggregates().iter().enumerate() {
            write_str(&mut cw, categories.name(c))?;
            write_u32(&mut cw, categories.parent(c).map_or(0, |p| p as u32 + 1))?;
            write_u32(&mut cw, a.n_dbs() as u32)?;
            write_f64(&mut cw, a.denoms().0)?;
            write_f64(&mut cw, a.denoms().1)?;
            write_f64(&mut cw, a.size())?;
            write_u32(&mut cw, a.terms().len() as u32)?;
            write_u32_column(&mut cw, &mut buf, a.terms())?;
            write_f64_column(&mut cw, &mut buf, a.acc_df())?;
            write_f64_column(&mut cw, &mut buf, a.acc_tf())?;
        }

        write_u32(&mut cw, n as u32)?;
        for (db, &leaf) in leaves.iter().enumerate() {
            write_str(&mut cw, &self.catalog.names()[db])?;
            write_u32(&mut cw, leaf as u32)?;
            write_f64(&mut cw, self.catalog.gamma(db))?;
            let (df, tf) = shrunk.lambdas(db);
            write_lambdas(&mut cw, &mut buf, (&df, &tf))?;
            write_sample_column(&mut cw, &mut buf, self.catalog.unshrunk(db))?;
            match shrunk.basis(db) {
                None => cw.write_all(&[0])?,
                Some(b) => {
                    cw.write_all(&[1])?;
                    write_f64(&mut cw, b.db_size())?;
                    write_f64(&mut cw, b.word_count())?;
                    write_u32(&mut cw, b.terms().len() as u32)?;
                    write_u32_column(&mut cw, &mut buf, b.terms())?;
                    write_raw_columns(&mut cw, &mut buf, b.raw())?;
                }
            }
        }

        write_u32(&mut cw, index.len() as u32)?;
        write_u32_column(&mut cw, &mut buf, index.terms())?;
        write_u32_column(&mut cw, &mut buf, index.offsets())?;
        write_u32(&mut cw, index.dbs().len() as u32)?;
        write_u32_column(&mut cw, &mut buf, index.dbs())?;
        write_f64_column(&mut cw, &mut buf, index.p_df())?;
        write_u32_column(&mut cw, &mut buf, index.sample_df())?;
        write_u32_column(&mut cw, &mut buf, index.positions())?;
        let effective = index.effective().iter().map(|&e| [u8::from(e)]);
        write_column(&mut cw, &mut buf, effective)?;
        for column in [
            index.p_tf(),
            index.max_df(),
            index.max_p_df(),
            index.max_p_tf(),
        ] {
            write_f64_column(&mut cw, &mut buf, column)?;
        }

        let digest = cw.digest();
        write_u64(w, digest)
    }

    /// Deserialize from `r`, validating structure as it goes and the
    /// payload checksum at the end.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if let Some(version) = retired_version(&magic) {
            return Err(retired(version));
        }
        if &magic != SNAPSHOT_MAGIC {
            return Err(corrupt("bad snapshot magic or unsupported version"));
        }
        let mut cr = ChecksumReader::new(&mut *r);
        let snapshot = read_payload(&mut cr)?;
        let digest = cr.digest();
        if read_u64(r)? != digest {
            return Err(corrupt("snapshot checksum mismatch"));
        }
        Ok(snapshot)
    }

    /// Save to a file through a temporary sibling and a rename, so a
    /// failed or interrupted save leaves the previous file as it was.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomically(path.as_ref(), |w| self.write_to(w))
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

    /// Load a serving snapshot from any format: a v4 snapshot reads
    /// straight into arrays; a v1 [`StoredCatalog`] is frozen in memory
    /// (EM-free: category aggregation + posting construction); a
    /// **directory** is replayed as a delta chain (`base.snap` +
    /// `delta-NNNNNN.snap`, see [`crate::delta`]); a retired v2/v3
    /// snapshot is refused, naming the migration. Errors carry the file
    /// path — and, for chains, the chain position — with the error kind
    /// preserved.
    pub fn load_any(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::load_any_with_checksum(path).map(|(snapshot, _)| snapshot)
    }

    /// [`load_any`](Self::load_any), additionally returning the file's
    /// content checksum — what `/readyz` reports so operators can tell at
    /// a glance whether two daemons serve the same snapshot bytes.
    ///
    /// For a v4 snapshot this is the stored trailing FNV-1a payload
    /// digest (already validated against the payload by the load). A v1
    /// catalog stores no digest, so the same FNV-1a is computed over the
    /// whole file instead — either way the value is a stable fingerprint
    /// of the bytes on disk. A chain directory reports its tip delta's
    /// digest, which by parent-linking fingerprints the whole chain.
    pub fn load_any_with_checksum(path: impl AsRef<Path>) -> io::Result<(Self, u64)> {
        let path = path.as_ref();
        if path.is_dir() {
            return crate::delta::load_chain(path).map(|c| (c.snapshot, c.checksum));
        }
        Self::load_any_file(path).map_err(|e| with_path_context(path, e))
    }

    fn load_any_file(path: &Path) -> io::Result<(Self, u64)> {
        let mut magic = [0u8; 8];
        std::fs::File::open(path)?.read_exact(&mut magic)?;
        if &magic == SNAPSHOT_MAGIC || retired_version(&magic).is_some() {
            return Self::load_with_digest(path);
        }
        let snapshot = ServingSnapshot::from_stored(&StoredCatalog::load(path)?);
        let mut w = ChecksumWriter::new(io::sink());
        io::copy(&mut std::fs::File::open(path)?, &mut w)?;
        Ok((snapshot, w.digest()))
    }
}

impl ServingSnapshot {
    /// FNV-1a over the `to_bits` of every value this snapshot serves,
    /// whatever its on-disk format: per database its γ, both summaries'
    /// sizes and word counts, their `p_df` / `p_tf` (and the sample's
    /// `sample_df`) for every dictionary word and for a word no database
    /// has (the defaults); then the posting slabs, `mcw` and LM's global
    /// model. Two snapshots with equal digests route every query alike.
    pub fn value_digest(&self) -> u64 {
        let mut w = ChecksumWriter::new(io::sink());
        let mut put = |bytes: &[u8]| w.write_all(bytes).expect("a sink never fails");
        let catalog = &self.catalog;
        let absent = TermId::MAX - 1;
        let words = (0..self.dict.len() as TermId).chain([absent]);
        for db in 0..catalog.len() {
            let (u, s) = (catalog.unshrunk(db), catalog.shrunk(db));
            put(&catalog.gamma(db).to_le_bytes());
            put(&u.sample_size().to_le_bytes());
            for v in [u.db_size(), u.word_count(), s.db_size(), s.word_count()] {
                put(&v.to_le_bytes());
            }
            for t in words.clone() {
                put(&u.sample_df(t).to_le_bytes());
                for v in [u.p_df(t), u.p_tf(t), s.p_df(t), s.p_tf(t)] {
                    put(&v.to_le_bytes());
                }
            }
        }
        let index = catalog.posting_index();
        for column in [
            index.terms(),
            index.offsets(),
            index.dbs(),
            index.sample_df(),
        ] {
            column.iter().for_each(|v| put(&v.to_le_bytes()));
        }
        index.effective().iter().for_each(|&e| put(&[u8::from(e)]));
        for column in [
            index.p_df(),
            index.p_tf(),
            index.max_df(),
            index.max_p_df(),
            index.max_p_tf(),
        ] {
            column.iter().for_each(|v| put(&v.to_le_bytes()));
        }
        put(&catalog.mcw().to_le_bytes());
        for &(t, p) in &self.lm_global {
            put(&t.to_le_bytes());
            put(&p.to_le_bytes());
        }
        w.digest()
    }
}

/// Prefix an I/O error with the file it came from, preserving the kind
/// (the daemon's 404-vs-400 mapping keys off it).
pub(crate) fn with_path_context(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

fn weighting_tag(weighting: CategoryWeighting) -> u32 {
    match weighting {
        CategoryWeighting::BySize => 0,
        CategoryWeighting::Uniform => 1,
    }
}

fn write_dict<W: Write>(w: &mut W, dict: &TermDict) -> io::Result<()> {
    let dict_len = u32::try_from(dict.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "dictionary too large"))?;
    write_u32(w, dict_len)?;
    for id in 0..dict_len {
        write_str(w, dict.term(id))?;
    }
    Ok(())
}

/// A λ pair: its length, then the `df` weights, then the `tf` weights.
pub(crate) fn write_lambdas<W: Write>(
    w: &mut W,
    buf: &mut Vec<u8>,
    (df, tf): (&[f64], &[f64]),
) -> io::Result<()> {
    write_u32(w, df.len() as u32)?;
    write_f64_column(w, buf, df)?;
    write_f64_column(w, buf, tf)
}

/// Read a λ pair, each weight in `[0, 1]` (the v1 catalog's rule).
pub(crate) fn read_lambdas<R: Read>(r: &mut R) -> io::Result<(Vec<f64>, Vec<f64>)> {
    let len = read_len(r)?;
    let weight = |b| {
        let l = decode_f64(b)?;
        if !(0.0..=1.0).contains(&l) {
            return Err(corrupt("mixture weight outside [0, 1]"));
        }
        Ok(l)
    };
    Ok((read_column(r, len, weight)?, read_column(r, len, weight)?))
}

/// A database's sample column: the raw estimates its `Ŝ(D)` divides.
pub(crate) fn write_sample_column<W: Write>(
    w: &mut W,
    buf: &mut Vec<u8>,
    s: &FrozenSummary,
) -> io::Result<()> {
    write_f64(w, s.db_size())?;
    write_u32(w, s.sample_size())?;
    write_f64(w, s.word_count())?;
    write_u32(w, s.len() as u32)?;
    write_u32_column(w, buf, s.terms())?;
    // An elided (all-zero) column is written out in full: the format
    // does not know about the in-memory elision.
    let sample_df = (0..s.len()).map(|i| s.sample_df_at(i).to_le_bytes());
    write_column(w, buf, sample_df)?;
    write_raw_columns(w, buf, s.raw_column())
}

/// Read a sample column whose terms lie inside a dictionary of
/// `dict_len` words.
pub(crate) fn read_sample_column<R: Read>(r: &mut R, dict_len: usize) -> io::Result<FrozenSummary> {
    let db_size = read_f64(r)?;
    let sample_size = read_u32(r)?;
    let word_count = read_f64(r)?;
    let len = read_len(r)?;
    let terms = read_terms(r, len, dict_len)?;
    let sample_df = read_u32_column(r, len)?;
    let df = read_f64_column(r, len)?;
    let tf = read_f64_column(r, len)?;
    FrozenSummary::from_raw_parts(db_size, sample_size, word_count, terms, sample_df, df, tf)
        .map_err(corrupt)
}

/// Raw `(df, tf)` pairs as two columns: every `df`, then every `tf`.
fn write_raw_columns<W: Write>(w: &mut W, buf: &mut Vec<u8>, raw: &[(f64, f64)]) -> io::Result<()> {
    write_column(w, buf, raw.iter().map(|v| v.0.to_le_bytes()))?;
    write_column(w, buf, raw.iter().map(|v| v.1.to_le_bytes()))
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

/// A term column whose ids all lie inside a `dict_len`-word dictionary.
fn read_terms<R: Read>(r: &mut R, len: usize, dict_len: usize) -> io::Result<Vec<TermId>> {
    read_column(r, len, |b| {
        let t = u32::from_le_bytes(b);
        if t as usize >= dict_len {
            return Err(corrupt("term outside the dictionary"));
        }
        Ok(t)
    })
}

fn read_payload<R: Read>(r: &mut R) -> io::Result<ServingSnapshot> {
    let mut dict = TermDict::new();
    let dict_len = read_len(r)?;
    for i in 0..dict_len {
        let term = read_str(r)?;
        let id = dict.intern(&term);
        if id as usize != i {
            return Err(corrupt("duplicate term in snapshot dictionary"));
        }
    }
    let weighting = match read_u32(r)? {
        0 => CategoryWeighting::BySize,
        1 => CategoryWeighting::Uniform,
        _ => return Err(corrupt("unknown category weighting")),
    };
    let uniform_p = read_f64(r)?;

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

    let category_count = read_len(r)?;
    let (mut names, mut parents, mut aggregates) = (Vec::new(), Vec::new(), Vec::new());
    for c in 0..category_count {
        names.push(read_str(r)?);
        parents.push(match read_u32(r)? {
            0 => None,
            p if (p as usize) <= c => Some(p as usize - 1),
            _ => return Err(corrupt("a category's parent must precede it")),
        });
        let n_dbs = read_u32(r)? as usize;
        let denoms = (read_f64(r)?, read_f64(r)?);
        let size = read_f64(r)?;
        let len = read_len(r)?;
        let terms = read_terms(r, len, dict.len())?;
        let acc_df = read_f64_column(r, len)?;
        let acc_tf = read_f64_column(r, len)?;
        let aggregate = Aggregate::from_raw_parts(n_dbs, denoms, size, terms, acc_df, acc_tf)
            .map_err(corrupt)?;
        aggregates.push(aggregate);
    }
    let columns =
        CategoryColumns::from_raw_parts(weighting, names, parents, &aggregates).map_err(corrupt)?;
    drop(aggregates);
    let mut shrunk = ShrunkSummaries::new(uniform_p, Arc::new(columns));

    let n = read_len(r)?;
    let (mut db_names, mut categories, mut gammas, mut unshrunk) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..n {
        let name = read_str(r)?;
        // A database that fails validation is reported by name.
        let named = |e: io::Error| io::Error::new(e.kind(), format!("database `{name}`: {e}"));
        let category = read_u32(r)? as usize;
        let gamma = read_f64(r)?;
        let lambdas = read_lambdas(r).map_err(named)?;
        let own = read_sample_column(r, dict.len()).map_err(named)?;
        let mut flag = [0u8; 1];
        r.read_exact(&mut flag)?;
        let basis = match flag[0] {
            0 => None,
            1 => {
                let (db_size, word_count) = (read_f64(r)?, read_f64(r)?);
                let len = read_len(r)?;
                let terms = read_terms(r, len, dict.len())?;
                let (df, tf) = (read_f64_column(r, len)?, read_f64_column(r, len)?);
                let basis = Basis::from_raw_parts(db_size, word_count, terms, df, tf)
                    .map_err(|e| named(corrupt(e)))?;
                Some(Arc::new(basis))
            }
            _ => return Err(named(corrupt("basis flag must be 0 or 1"))),
        };
        shrunk
            .push(category, lambdas, &own, basis)
            .map_err(|e| named(corrupt(e)))?;
        categories.push(shrunk.categories().full_name(category));
        db_names.push(name);
        gammas.push(gamma);
        unshrunk.push(own);
    }

    let term_count = read_len(r)?;
    let terms = read_u32_column(r, term_count)?;
    let offsets = read_u32_column(r, term_count + 1)?;
    let slab_len = read_len(r)?;
    let dbs = read_u32_column(r, slab_len)?;
    let p_df = read_f64_column(r, slab_len)?;
    let sample_df = read_u32_column(r, slab_len)?;
    let positions = read_u32_column(r, slab_len)?;
    let effective = read_column(r, slab_len, |[b]| match b {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(corrupt("effective flag must be 0 or 1")),
    })?;
    let p_tf = read_f64_column(r, slab_len)?;
    let max_df = read_f64_column(r, term_count)?;
    let max_p_df = read_f64_column(r, term_count)?;
    let max_p_tf = read_f64_column(r, term_count)?;
    let index = PostingIndex::from_raw_parts(
        n, terms, offsets, dbs, p_df, sample_df, positions, effective, p_tf, max_df, max_p_df,
        max_p_tf,
    )
    .map_err(corrupt)?;

    let catalog = Catalog::from_raw_parts(db_names, unshrunk, shrunk, gammas, index)
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
        }
        assert_eq!(a.shrunk_summaries(), b.shrunk_summaries());
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

    /// Golden values: every served value's bits, recorded from the v3
    /// freeze before shrunk summaries were served in factored form. The
    /// `Uniform` catalog still freezes LM's global model under `BySize`.
    #[test]
    fn from_stored_values_match_their_recorded_digests() {
        let digests: Vec<u64> = [CategoryWeighting::BySize, CategoryWeighting::Uniform]
            .into_iter()
            .map(|weighting| {
                let frozen = StoredCatalog::freeze(fixture_store(), weighting);
                ServingSnapshot::from_stored(&frozen).value_digest()
            })
            .collect();
        assert_eq!(
            digests,
            [0xa804_a8e0_a5f8_53f8, 0x80f0_2153_8ce8_9839],
            "{digests:#x?}"
        );
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
        let v4 = dir.join(format!("dbsel-snap-test-{}.v4", std::process::id()));
        let v1 = dir.join(format!("dbsel-snap-test-{}.v1", std::process::id()));
        let frozen = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
        let snapshot = ServingSnapshot::from_stored(&frozen);
        snapshot.save(&v4).unwrap();
        frozen.save(&v1).unwrap();
        // load_any takes both formats to the same serving catalog.
        let from_v4 = ServingSnapshot::load_any(&v4).unwrap();
        let from_v1 = ServingSnapshot::load_any(&v1).unwrap();
        assert_catalogs_bit_identical(&from_v4.catalog, &from_v1.catalog);
        assert_eq!(from_v4.categories, from_v1.categories);
        // Trailing garbage is rejected on the v4 path.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&v4).unwrap();
            f.write_all(b"junk").unwrap();
        }
        assert!(ServingSnapshot::load(&v4).is_err());
        std::fs::remove_file(&v4).ok();
        std::fs::remove_file(&v1).ok();
    }

    #[test]
    fn checksum_is_stable_and_format_independent() {
        let dir = std::env::temp_dir();
        let v4 = dir.join(format!("dbsel-snap-cksum-{}.v4", std::process::id()));
        let v1 = dir.join(format!("dbsel-snap-cksum-{}.v1", std::process::id()));
        let frozen = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
        let snapshot = ServingSnapshot::from_stored(&frozen);
        snapshot.save(&v4).unwrap();
        frozen.save(&v1).unwrap();

        let (_, a) = ServingSnapshot::load_any_with_checksum(&v4).unwrap();
        let (_, b) = ServingSnapshot::load_any_with_checksum(&v4).unwrap();
        assert_eq!(a, b, "same bytes, same checksum");
        assert_ne!(a, 0);

        // The v4 checksum is the stored trailing payload digest.
        let bytes = std::fs::read(&v4).unwrap();
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(a, stored);

        // v1 files expose a fingerprint too, and a different one (the
        // bytes differ).
        let (_, c) = ServingSnapshot::load_any_with_checksum(&v1).unwrap();
        assert_ne!(c, 0);
        assert_ne!(a, c);

        std::fs::remove_file(&v4).ok();
        std::fs::remove_file(&v1).ok();
    }

    #[test]
    fn retired_snapshot_versions_are_refused_naming_the_migration() {
        // v2 and v3 files stored every shrunk summary over the whole
        // vocabulary; their loaders are gone. Whatever follows the magic,
        // the load fails as invalid data and says how to migrate.
        let mut bytes = Vec::new();
        fixture_snapshot().write_to(&mut bytes).unwrap();
        let path = std::env::temp_dir().join(format!("dbsel-retired-{}.snap", std::process::id()));
        for magic in RETIRED_MAGICS {
            bytes[..8].copy_from_slice(magic);
            let err = ServingSnapshot::read_from(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("dbselect freeze --catalog"),
                "{err}"
            );
            std::fs::write(&path, &bytes).unwrap();
            let err = ServingSnapshot::load_any(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("dbselect freeze --catalog"),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
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

    /// Recompute the trailing checksum of a (mutated) snapshot, so the
    /// mutation reaches the structural validators instead of dying at the
    /// digest comparison.
    fn reseal(bytes: &mut [u8]) {
        let end = bytes.len() - 8;
        let mut cw = ChecksumWriter::new(io::sink());
        cw.write_all(&bytes[8..end]).unwrap();
        bytes[end..].copy_from_slice(&cw.digest().to_le_bytes());
    }

    /// Serving reads from the postings alone whether a database has a
    /// word, so a file whose index lacks one sampled word's posting — every
    /// other posting intact, maxima still dominating, checksum re-sealed —
    /// must not load.
    #[test]
    fn a_snapshot_missing_one_posting_is_rejected() {
        let snapshot = fixture_snapshot();
        let mut bytes = Vec::new();
        snapshot.write_to(&mut bytes).unwrap();
        let index = snapshot.catalog.posting_index();
        let (n, len) = (index.len(), index.dbs().len());
        // The index section ends the payload: rewrite it without the first
        // posting of the first row.
        let section = 4 + 4 * n + 4 * (n + 1) + 4 + len * (4 + 8 + 4 + 4 + 1 + 8) + 3 * 8 * n;
        let (start, end) = (bytes.len() - 8 - section, bytes.len() - 8);
        let mut w = Vec::new();
        let u32s = |w: &mut Vec<u8>, v: &[u32]| v.iter().for_each(|x| w.extend(x.to_le_bytes()));
        let f64s = |w: &mut Vec<u8>, v: &[f64]| v.iter().for_each(|x| w.extend(x.to_le_bytes()));
        let offsets: Vec<u32> = index
            .offsets()
            .iter()
            .enumerate()
            .map(|(i, &o)| o - u32::from(i > 0))
            .collect();
        w.extend((n as u32).to_le_bytes());
        u32s(&mut w, index.terms());
        u32s(&mut w, &offsets);
        w.extend((len as u32 - 1).to_le_bytes());
        u32s(&mut w, &index.dbs()[1..]);
        f64s(&mut w, &index.p_df()[1..]);
        u32s(&mut w, &index.sample_df()[1..]);
        u32s(&mut w, &index.positions()[1..]);
        w.extend(index.effective()[1..].iter().map(|&e| u8::from(e)));
        f64s(&mut w, &index.p_tf()[1..]);
        f64s(&mut w, index.max_df());
        f64s(&mut w, index.max_p_df());
        f64s(&mut w, index.max_p_tf());
        assert_eq!(w.len(), section - (4 + 8 + 4 + 4 + 1 + 8));
        bytes.splice(start..end, w);
        reseal(&mut bytes);
        let Err(err) = ServingSnapshot::read_from(&mut bytes.as_slice()) else {
            panic!("a snapshot missing a posting must not load");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("word count"), "{err}");
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
                        table,
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
