//! Delta snapshots: refresh rounds persisted as a chain.
//!
//! A refresh round re-probes a handful of databases and leaves everything
//! else bit-untouched, so persisting a whole snapshot per round would
//! write the entire catalog to replace a few rows. A **delta snapshot**
//! records only the touched databases — each one's new sample column,
//! re-fitted λ pair and re-resolved γ — plus whatever dictionary terms
//! the new samples introduced, and chains onto its parent
//! cryptographic-checksum-style:
//!
//! * each file's payload is covered by the same FNV-1a 64 digest the
//!   serving snapshot uses, and
//! * each delta embeds its **parent's digest** plus a **monotone
//!   generation number**, so a chain replays only against the exact bytes
//!   it was cut from. Replace the base (or any mid-chain delta) and every
//!   descendant is rejected *before* anything is applied — a chain load
//!   is all-or-nothing.
//!
//! ## On-disk layout
//!
//! A chain is a directory:
//!
//! ```text
//! chain/
//!   base.snap          full v4 serving snapshot        (generation 0)
//!   delta-000001.snap  first refresh round             (generation 1)
//!   delta-000002.snap  ...
//! ```
//!
//! ## Delta wire format
//!
//! Everything little-endian, `MAX_LEN`-guarded, NaN-rejected — the
//! workspace codec rules.
//!
//! ```text
//! magic  b"DBSDEL\x00\x02"              8 bytes, not checksummed
//! ── checksummed payload ──────────────────────────────────────────
//! parent      u64   payload digest of the previous chain file
//! generation  u64   1-based position in the chain
//! dict_base   u32   dictionary length before this delta's terms
//! dict_new    u32 count, then count length-prefixed UTF-8 terms
//! patches     u32 count, then per touched database (ascending):
//!               db u32 · gamma f64
//!               u32 λ count · λ_df f64×count · λ_tf f64×count
//!               sample column (as in the v4 snapshot)
//! ── end of payload ───────────────────────────────────────────────
//! checksum    u64   FNV-1a over the payload
//! ```
//!
//! A delta never carries a shrunk summary, a category column or a leaf
//! basis. The category aggregates are the base's for the whole chain,
//! and a refreshed database's leaf remainder keeps subtracting the
//! sample the base pinned (its basis, which the replay records the first
//! time the database is patched): the re-fitted λs were fitted against
//! exactly those components. Deltas of the v1 format (`\x01`, carrying
//! materialized summaries) are refused.
//!
//! Replaying a chain applies each delta through
//! [`broker::Catalog::apply_updates`] — the same touched-rows-only merge
//! the in-memory refresher uses — so `load_chain(dir)` is bit-identical
//! to a full freeze of the post-refresh store (asserted by the refresh
//! proptests).

use std::fs::OpenOptions;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use broker::DbUpdate;
use dbselect_core::frozen::FrozenSummary;

use crate::codec::{
    corrupt, read_f64, read_len, read_str, read_u32, read_u64, write_f64, write_str, write_u32,
    write_u64, ChecksumReader, ChecksumWriter,
};
use crate::snapshot::{
    finite, read_lambdas, read_sample_column, with_path_context, write_lambdas,
    write_sample_column, ServingSnapshot,
};

/// Magic bytes + format version for delta snapshots.
const DELTA_MAGIC: &[u8; 8] = b"DBSDEL\x00\x02";

/// The retired delta format, which carried materialized summaries.
const RETIRED_DELTA_MAGIC: &[u8; 8] = b"DBSDEL\x00\x01";

/// The base snapshot's file name inside a chain directory.
pub const BASE_FILE: &str = "base.snap";

/// The delta file name for `generation` (1-based).
pub fn delta_file_name(generation: u64) -> String {
    format!("delta-{generation:06}.snap")
}

/// One touched database inside a delta: everything
/// [`broker::Catalog::apply_updates`] needs to replace its columns.
#[derive(Debug, Clone)]
pub struct DbPatch {
    /// Index of the re-probed database.
    pub db: u32,
    /// Re-resolved power-law exponent.
    pub gamma: f64,
    /// The λ pair re-fitted against the database's pinned components.
    pub lambdas: (Vec<f64>, Vec<f64>),
    /// Re-frozen sample summary `Ŝ(D)` (its raw columns are what is
    /// written).
    pub unshrunk: FrozenSummary,
}

/// One refresh round on disk.
#[derive(Debug, Clone)]
pub struct DeltaRecord {
    /// Payload digest of the parent chain file.
    pub parent: u64,
    /// 1-based chain position.
    pub generation: u64,
    /// Dictionary length before `appended_terms` (chain-order check).
    pub dict_base: u32,
    /// Terms the refresh interned beyond `dict_base`, in id order.
    pub appended_terms: Vec<String>,
    /// Touched databases, ascending by index.
    pub patches: Vec<DbPatch>,
}

impl DeltaRecord {
    /// Serialize (magic, checksummed payload, trailing digest); returns
    /// the payload digest — the `parent` value of the next delta.
    /// Refuses, naming the database, a patch whose sample column holds a
    /// non-finite size or estimate, or whose γ is NaN: the chain loader
    /// would reject it.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<u64> {
        for p in &self.patches {
            let s = &p.unshrunk;
            let error = if !finite(s.db_size(), s.word_count(), s.raw_column()) {
                "non-finite size or estimate"
            } else if p.gamma.is_nan() {
                "NaN gamma"
            } else {
                continue;
            };
            let error = format!("database #{}: {error}", p.db);
            return Err(io::Error::new(io::ErrorKind::InvalidInput, error));
        }
        w.write_all(DELTA_MAGIC)?;
        let mut cw = ChecksumWriter::new(&mut *w);
        write_u64(&mut cw, self.parent)?;
        write_u64(&mut cw, self.generation)?;
        write_u32(&mut cw, self.dict_base)?;
        write_u32(&mut cw, self.appended_terms.len() as u32)?;
        for term in &self.appended_terms {
            write_str(&mut cw, term)?;
        }
        write_u32(&mut cw, self.patches.len() as u32)?;
        let mut buf = Vec::new();
        for p in &self.patches {
            write_u32(&mut cw, p.db)?;
            write_f64(&mut cw, p.gamma)?;
            write_lambdas(&mut cw, &mut buf, (&p.lambdas.0, &p.lambdas.1))?;
            write_sample_column(&mut cw, &mut buf, &p.unshrunk)?;
        }
        let digest = cw.digest();
        write_u64(w, digest)?;
        Ok(digest)
    }

    /// Deserialize, validating structure and the payload checksum.
    /// Returns the record and its payload digest.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<(DeltaRecord, u64)> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic == RETIRED_DELTA_MAGIC {
            return Err(corrupt(
                "v1 delta (materialized summaries): this build replays v2 deltas over a v4 \
                 base only; re-freeze with `dbselect freeze --catalog CATALOG` to start a new chain",
            ));
        }
        if &magic != DELTA_MAGIC {
            return Err(corrupt("bad delta magic or unsupported version"));
        }
        let mut cr = ChecksumReader::new(&mut *r);
        let parent = read_u64(&mut cr)?;
        let generation = read_u64(&mut cr)?;
        if generation == 0 {
            return Err(corrupt("delta generation must be positive"));
        }
        let dict_base = read_u32(&mut cr)?;
        let appended = read_len(&mut cr)?;
        let mut appended_terms = Vec::new();
        for _ in 0..appended {
            appended_terms.push(read_str(&mut cr)?);
        }
        // Sample terms may name any word the chain's dictionary has once
        // this delta's terms are appended.
        let dict_len = dict_base as usize + appended;
        let patch_count = read_len(&mut cr)?;
        let mut patches: Vec<DbPatch> = Vec::new();
        for _ in 0..patch_count {
            let db = read_u32(&mut cr)?;
            if let Some(prev) = patches.last() {
                if db <= prev.db {
                    return Err(corrupt("delta patches not strictly ascending by database"));
                }
            }
            let numbered = |e: io::Error| io::Error::new(e.kind(), format!("database #{db}: {e}"));
            let gamma = read_f64(&mut cr).map_err(numbered)?;
            let lambdas = read_lambdas(&mut cr).map_err(numbered)?;
            let unshrunk = read_sample_column(&mut cr, dict_len).map_err(numbered)?;
            patches.push(DbPatch {
                db,
                gamma,
                lambdas,
                unshrunk,
            });
        }
        let digest = cr.digest();
        if read_u64(r)? != digest {
            return Err(corrupt("delta checksum mismatch"));
        }
        Ok((
            DeltaRecord {
                parent,
                generation,
                dict_base,
                appended_terms,
                patches,
            },
            digest,
        ))
    }

    /// Load from a file (buffered), rejecting trailing bytes.
    pub fn load(path: impl AsRef<Path>) -> io::Result<(DeltaRecord, u64)> {
        let mut r = BufReader::new(std::fs::File::open(path)?);
        let record = Self::read_from(&mut r)?;
        let mut probe = [0u8; 1];
        if r.read(&mut probe)? != 0 {
            return Err(corrupt("trailing bytes after delta"));
        }
        Ok(record)
    }
}

/// A loaded chain (or, from [`load_served`], a single snapshot file, its
/// generation 0) and what `/readyz` and the reload path report of it.
#[derive(Debug)]
pub struct ChainLoad {
    /// The replayed serving snapshot (base + every delta applied).
    pub snapshot: ServingSnapshot,
    /// Number of deltas applied — the chain's tip generation.
    pub generation: u64,
    /// Payload digest of the tip file (base digest for a bare chain):
    /// the fingerprint `/readyz` reports.
    pub checksum: u64,
    /// Total on-disk size of base + deltas.
    pub bytes: u64,
    /// Per database, the generation of the last chain file that patched
    /// it (0 for the base): what the refresh policy reads staleness from.
    pub patched_at: Vec<u64>,
}

/// Prefix load errors with the failing file and its chain role, keeping
/// the error kind (the daemon's 404/400 mapping relies on it).
fn chain_context(path: &Path, role: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{} ({role}): {e}", path.display()))
}

/// The deltas present in `dir`, sorted ascending by generation, without
/// opening any of them. Non-delta file names are ignored; errors name
/// `dir`.
fn scan_deltas(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let context = |e| with_path_context(dir, e);
    let mut deltas = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(context)? {
        let entry = entry.map_err(context)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(number) = name
            .strip_prefix("delta-")
            .and_then(|rest| rest.strip_suffix(".snap"))
        else {
            continue;
        };
        if number.is_empty() || !number.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let generation: u64 = number
            .parse()
            .map_err(|_| context(corrupt("delta file number out of range")))?;
        deltas.push((generation, entry.path()));
    }
    deltas.sort_unstable();
    Ok(deltas)
}

/// The tip generation a chain directory advertises (0 with no deltas),
/// from file names alone — the cheap poll the daemon's refresher runs
/// every interval. Errors if `dir` is not a chain directory at all.
pub fn chain_tip_generation(dir: impl AsRef<Path>) -> io::Result<u64> {
    let dir = dir.as_ref();
    if !dir.join(BASE_FILE).is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{}: no {BASE_FILE} in chain directory", dir.display()),
        ));
    }
    Ok(scan_deltas(dir)?.last().map_or(0, |&(g, _)| g))
}

/// Replay a chain directory into serving form: load the base snapshot,
/// then apply every delta in generation order through the incremental
/// catalog update. Validation is strict and the application atomic —
/// any gap in the numbering, any generation or parent-digest mismatch,
/// any structural defect anywhere rejects the **whole** chain with the
/// failing file and chain position in the error, and nothing
/// half-applied escapes (the snapshot is only assembled locally).
pub fn load_chain(dir: impl AsRef<Path>) -> io::Result<ChainLoad> {
    let dir = dir.as_ref();
    let base_path = dir.join(BASE_FILE);
    let base = |e| chain_context(&base_path, "chain base", e);
    let (mut snapshot, mut tip) = ServingSnapshot::load_with_digest(&base_path).map_err(base)?;
    let mut bytes = std::fs::metadata(&base_path).map_err(base)?.len();

    let deltas = scan_deltas(dir)?;
    let mut generation = 0u64;
    let mut patched_at = vec![0; snapshot.catalog.len()];
    for (number, path) in deltas {
        let role = format!("chain delta {number}");
        let wrap = |e: io::Error| chain_context(&path, &role, e);
        if number != generation + 1 {
            return Err(wrap(corrupt(if number <= generation {
                "duplicate delta generation"
            } else {
                "gap in delta chain numbering"
            })));
        }
        let (record, digest) = DeltaRecord::load(&path).map_err(wrap)?;
        if record.generation != number {
            return Err(wrap(corrupt("delta generation disagrees with file name")));
        }
        if record.parent != tip {
            return Err(wrap(corrupt(
                "parent checksum mismatch: chain base or predecessor was replaced",
            )));
        }
        if record.dict_base as usize != snapshot.dict.len() {
            return Err(wrap(corrupt("delta dictionary base disagrees with chain")));
        }
        for term in &record.appended_terms {
            let id = snapshot.dict.intern(term);
            if id as usize != snapshot.dict.len() - 1 {
                return Err(wrap(corrupt(
                    "delta appends a term the dictionary already has",
                )));
            }
        }
        let updates: Vec<DbUpdate> = record
            .patches
            .into_iter()
            .map(|p| DbUpdate {
                db: p.db as usize,
                gamma: p.gamma,
                unshrunk: p.unshrunk,
                lambdas: p.lambdas,
            })
            .collect();
        snapshot.catalog = snapshot
            .catalog
            .apply_updates(&updates)
            .map_err(corrupt)
            .map_err(wrap)?;
        for update in &updates {
            patched_at[update.db] = number;
        }
        bytes += std::fs::metadata(&path).map_err(wrap)?.len();
        tip = digest;
        generation = number;
    }
    snapshot.dict.shrink_to_fit();
    Ok(ChainLoad {
        snapshot,
        generation,
        checksum: tip,
        bytes,
        patched_at,
    })
}

/// Load what `dbselectd` and `dbselect route` serve: a directory replays
/// as a chain ([`load_chain`]); a file loads as a v4 snapshot at
/// generation 0, checksummed by its stored payload digest. A v1 catalog
/// or a retired v2/v3 snapshot is refused, naming the `dbselect freeze`
/// migration. Errors carry the path (and, for chains, the chain
/// position), their kind preserved.
pub fn load_served(path: impl AsRef<Path>) -> io::Result<ChainLoad> {
    let path = path.as_ref();
    if path.is_dir() {
        return load_chain(path);
    }
    let context = |e| with_path_context(path, e);
    let (snapshot, checksum) = ServingSnapshot::load_with_digest(path).map_err(context)?;
    let bytes = std::fs::metadata(path).map_err(context)?.len();
    Ok(ChainLoad {
        patched_at: vec![0; snapshot.catalog.len()],
        snapshot,
        generation: 0,
        checksum,
        bytes,
    })
}

/// Appends refresh rounds to a chain directory. Each file is written
/// under a temporary name of its own, synced, and linked into place only
/// if its name is still free, so a concurrently polling daemon never
/// observes a half-written delta and a second writer at the same tip
/// fails with `AlreadyExists` instead of replacing the first one's round.
#[derive(Debug)]
pub struct ChainWriter {
    dir: PathBuf,
    tip: u64,
    generation: u64,
    dict_len: usize,
}

impl ChainWriter {
    /// Start a fresh chain: write `base` as `base.snap` (failing if one
    /// already exists — a chain's base is immutable by construction).
    pub fn create(dir: impl AsRef<Path>, base: &ServingSnapshot) -> io::Result<ChainWriter> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(BASE_FILE);
        write_atomically(&path, Publish::New, |w| base.write_to(w))?;
        let tip = read_trailing_digest(&path)?;
        Ok(ChainWriter {
            dir,
            tip,
            generation: 0,
            dict_len: base.dict.len(),
        })
    }

    /// Continue the chain in `dir` at the tip `chain` was replayed to
    /// (see [`load_chain`]): the next append is generation
    /// `chain.generation + 1`, parented on the tip's digest. Fails with
    /// `InvalidData` when `dir`'s file at that generation is not the one
    /// `chain` ends in.
    pub fn resume(dir: impl AsRef<Path>, chain: &ChainLoad) -> io::Result<ChainWriter> {
        let dir = dir.as_ref().to_path_buf();
        let tip = match chain.generation {
            0 => dir.join(BASE_FILE),
            generation => dir.join(delta_file_name(generation)),
        };
        if read_trailing_digest(&tip)? != chain.checksum {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not the tip the chain was loaded at", tip.display()),
            ));
        }
        Ok(ChainWriter {
            dir,
            tip: chain.checksum,
            generation: chain.generation,
            dict_len: chain.snapshot.dict.len(),
        })
    }

    /// The chain's current tip generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The chain's current tip payload digest.
    pub fn tip_checksum(&self) -> u64 {
        self.tip
    }

    /// [`append`](Self::append) with the appended dictionary terms read
    /// straight off the session dictionary: everything interned past the
    /// previous chain file's dictionary length rides along.
    pub fn append_round(
        &mut self,
        dict: &textindex::TermDict,
        patches: Vec<DbPatch>,
    ) -> io::Result<u64> {
        let appended = (self.dict_len..dict.len())
            .map(|id| dict.term(id as u32).to_string())
            .collect();
        self.append(appended, patches)
    }

    /// Append one refresh round: `appended_terms` are the dictionary
    /// terms interned since the previous chain file (id order), and
    /// `patches` the touched databases, ascending. Returns the new tip
    /// generation; fails with `AlreadyExists`, writing nothing, when
    /// another writer published that generation first.
    pub fn append(
        &mut self,
        appended_terms: Vec<String>,
        patches: Vec<DbPatch>,
    ) -> io::Result<u64> {
        let record = DeltaRecord {
            parent: self.tip,
            generation: self.generation + 1,
            dict_base: u32::try_from(self.dict_len)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "dictionary too large"))?,
            appended_terms,
            patches,
        };
        let path = self.dir.join(delta_file_name(record.generation));
        let digest = write_atomically(&path, Publish::New, |w| record.write_to(w))?;
        self.generation = record.generation;
        self.tip = digest;
        self.dict_len += record.appended_terms.len();
        Ok(self.generation)
    }
}

/// How [`write_atomically`] gives the finished file its name.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Publish {
    /// Rename over whatever file holds the name (single-file saves).
    Replace,
    /// Link into the name only while nothing holds it (chain files,
    /// which are never replaced); `AlreadyExists` otherwise.
    New,
}

/// Write through a temporary sibling of this write's own, synced before
/// it is published under `path` and the directory synced after, so
/// readers only ever see complete files, a failed write leaves the
/// previous file as it was, and a published file survives a crash. The
/// temporary file is removed when the write fails.
pub(crate) fn write_atomically<T>(
    path: &Path,
    publish: Publish,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> io::Result<T>,
) -> io::Result<T> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    let write_id = WRITES.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".{}-{write_id}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let written = (|| {
        let file = OpenOptions::new().write(true).create_new(true).open(&tmp)?;
        let mut w = BufWriter::new(file);
        let out = write(&mut w)?;
        w.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        match publish {
            Publish::Replace => std::fs::rename(&tmp, path)?,
            Publish::New => {
                std::fs::hard_link(&tmp, path).map_err(|e| match e.kind() {
                    io::ErrorKind::AlreadyExists => io::Error::new(
                        e.kind(),
                        format!(
                            "{}: already exists; chain files are never replaced",
                            path.display()
                        ),
                    ),
                    _ => e,
                })?;
                std::fs::remove_file(&tmp)?;
            }
        }
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(out)
    })();
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// The trailing FNV-1a payload digest of a snapshot/delta file.
fn read_trailing_digest(path: &Path) -> io::Result<u64> {
    use std::io::Seek as _;
    let mut f = std::fs::File::open(path)?;
    f.seek(io::SeekFrom::End(-8))?;
    read_u64(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A save that fails halfway: the previous file is left byte for byte
    /// and no temporary file stays behind — for the helper itself and for
    /// each `save` routed through it.
    #[test]
    fn a_failed_write_leaves_the_old_file_and_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("dbsel-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.snap");
        std::fs::write(&path, b"the previous generation").unwrap();
        let err = write_atomically(&path, Publish::Replace, |w| {
            w.write_all(&[7u8; 100_000])?;
            Err::<(), _>(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(std::fs::read(&path).unwrap(), b"the previous generation");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["catalog.snap"], "no temporary file");

        // A completed write replaces the file whole.
        write_atomically(&path, Publish::Replace, |w| w.write_all(b"the next one")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"the next one");

        // `ServingSnapshot::save` goes through it: a snapshot the writer
        // refuses (a category path for a database it does not have)
        // fails before the rename.
        let store = crate::CollectionStore {
            dict: textindex::TermDict::new(),
            hierarchy: dbselect_core::hierarchy::Hierarchy::new("Root"),
            databases: Vec::new(),
        };
        let weighting = dbselect_core::category_summary::CategoryWeighting::BySize;
        let stored = crate::catalog::StoredCatalog::freeze(store, weighting);
        let mut snapshot = ServingSnapshot::from_stored(&stored);
        snapshot.categories.push("Root/Stray".into());
        assert!(snapshot.save(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"the next one");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
