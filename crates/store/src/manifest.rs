//! The multi-catalog tenant manifest: a directory of serving snapshots,
//! one tenant per file.
//!
//! `dbselectd --tenants DIR` hosts many named catalogs in one process.
//! The manifest is deliberately not another binary format — it is the
//! directory itself: every regular file named `<tenant>.snap` becomes a
//! tenant whose name is the file stem. Adding a tenant is `cp`; updating
//! one is writing a new snapshot and `POST /t/<name>/admin/reload`. A
//! `<tenant>.cat` file (the v1 catalog extension) is still scanned, so
//! the boot fails on it with the loader's `dbselect freeze` migration
//! message instead of the tenant silently vanishing.
//!
//! Tenant names are user-supplied (they come off the filesystem), so they
//! are validated here once — non-empty, no path separators, no leading
//! dot, ≤ 128 bytes — and treated as hostile everywhere else (the daemon
//! escapes them in Prometheus labels, and they never interpolate into
//! paths except through the scanned entries below).

use std::io;
use std::path::{Path, PathBuf};

/// File extensions scanned as tenant catalogs (`cat` only to refuse it
/// loudly at load).
const EXTENSIONS: [&str; 2] = ["snap", "cat"];

/// One tenant: a name and the snapshot file backing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantEntry {
    /// The tenant name (the snapshot file's stem), validated.
    pub name: String,
    /// Path of the snapshot file to serve.
    pub path: PathBuf,
}

/// The scanned manifest: tenant entries sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantManifest {
    /// Entries in ascending name order (scan order is irrelevant).
    pub tenants: Vec<TenantEntry>,
}

/// Validate a tenant name. Names appear in URLs (`/t/<name>/route`) and
/// metric labels, so the rules are structural, not cosmetic: non-empty,
/// no `/` (the URL router splits on it), no NUL, no leading `.` (hidden
/// files and `..`), at most 128 bytes.
pub fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("tenant name is empty".to_string());
    }
    if name.len() > 128 {
        return Err(format!("tenant name `{name}` exceeds 128 bytes"));
    }
    if name.starts_with('.') {
        return Err(format!("tenant name `{name}` starts with `.`"));
    }
    if name.contains('/') || name.contains('\\') || name.contains('\0') {
        return Err(format!("tenant name `{name}` contains a path separator"));
    }
    Ok(())
}

impl TenantManifest {
    /// Scan `dir` for snapshot files. Non-snapshot files are ignored;
    /// invalid tenant names and duplicate stems (e.g. `a.snap` next to
    /// `a.cat`) are errors — silently dropping a tenant would serve 404s
    /// where the operator expects a catalog.
    pub fn scan(dir: &Path) -> io::Result<TenantManifest> {
        let invalid = |detail: String| io::Error::new(io::ErrorKind::InvalidInput, detail);
        let mut tenants: Vec<TenantEntry> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if !entry.file_type()?.is_file() {
                continue;
            }
            let Some(ext) = path.extension().and_then(|e| e.to_str()) else {
                continue;
            };
            if !EXTENSIONS.contains(&ext) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                return Err(invalid(format!("non-UTF-8 snapshot name: {path:?}")));
            };
            validate_tenant_name(stem).map_err(invalid)?;
            tenants.push(TenantEntry {
                name: stem.to_string(),
                path,
            });
        }
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        if tenants.is_empty() {
            return Err(invalid(format!(
                "no snapshot files (*.snap, *.cat) in {}",
                dir.display()
            )));
        }
        if let Some(w) = tenants.windows(2).find(|w| w[0].name == w[1].name) {
            return Err(invalid(format!(
                "duplicate tenant `{}`: {} and {}",
                w[0].name,
                w[0].path.display(),
                w[1].path.display()
            )));
        }
        Ok(TenantManifest { tenants })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("manifest-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scan_collects_sorted_snapshot_stems() {
        let dir = scratch_dir("sorted");
        for name in [
            "beta.snap",
            "alpha.snap",
            "gamma.cat",
            "README.md",
            ".hidden.snap",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        // A subdirectory that looks like a snapshot is skipped.
        std::fs::create_dir(dir.join("dir.snap")).unwrap();
        let manifest = TenantManifest::scan(&dir);
        // `.hidden.snap` has stem `.hidden` → leading dot → error.
        assert!(manifest.is_err(), "hidden snapshot must be rejected loudly");
        std::fs::remove_file(dir.join(".hidden.snap")).unwrap();
        let manifest = TenantManifest::scan(&dir).unwrap();
        let names: Vec<&str> = manifest.tenants.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_stems_are_rejected() {
        let dir = scratch_dir("dup");
        std::fs::write(dir.join("a.snap"), b"x").unwrap();
        std::fs::write(dir.join("a.cat"), b"x").unwrap();
        let err = TenantManifest::scan(&dir).unwrap_err();
        assert!(err.to_string().contains("duplicate tenant"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = scratch_dir("empty");
        assert!(TenantManifest::scan(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn name_validation_rules() {
        assert!(validate_tenant_name("prod-us").is_ok());
        assert!(validate_tenant_name("A_b.c-9").is_ok());
        assert!(validate_tenant_name("").is_err());
        assert!(validate_tenant_name(".dot").is_err());
        assert!(validate_tenant_name("a/b").is_err());
        assert!(validate_tenant_name("a\\b").is_err());
        assert!(validate_tenant_name(&"x".repeat(129)).is_err());
        // Hostile-but-legal names are allowed (metrics must escape them).
        assert!(validate_tenant_name("weird\"name\nnewline").is_ok());
    }
}
