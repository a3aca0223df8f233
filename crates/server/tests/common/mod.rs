//! Shared fixture for the daemon's integration tests: a small profiled
//! testbed catalog and helpers to boot a daemon on an OS-assigned port.

#![allow(dead_code)] // each test crate uses its own subset

use std::net::SocketAddr;
use std::thread::JoinHandle;

use dbselect_core::category_summary::CategoryWeighting;
use dbselect_core::hierarchy::Hierarchy;
use dbselect_core::summary::ContentSummary;
use server::state::ServingState;
use server::{Server, ServerConfig};
use store::catalog::StoredCatalog;
use store::snapshot::ServingSnapshot;
use store::{CollectionStore, StoredDatabase};
use textindex::{Analyzer, Document, TermDict};

/// A profiled testbed: `scale` perturbs sizes so two fixtures rank
/// differently (the reload test tells generations apart by ranking).
pub fn fixture_store(scale: f64) -> CollectionStore {
    let analyzer = Analyzer::english();
    let words = [
        "heart", "blood", "artery", "surgery", "soccer", "goal", "stadium", "keeper", "stock",
        "market", "bond", "yield", "virus", "immune", "vaccine", "protein",
    ];
    let mut dict = TermDict::new();
    let terms: Vec<u32> = words
        .iter()
        .map(|w| dict.intern(&analyzer.analyze_term(w).expect("fixture word survives")))
        .collect();
    let mut hierarchy = Hierarchy::new("Root");
    let health = hierarchy.ensure_path("Health/Heart");
    let sports = hierarchy.ensure_path("Sports/Soccer");
    let finance = hierarchy.ensure_path("Finance");
    let bio = hierarchy.ensure_path("Health/Immunology");

    // Per database: (name, category, term indices, docs, db_size).
    let specs: [(&str, _, &[usize], usize, f64); 6] = [
        ("cardio", health, &[0, 1, 2, 3, 12], 9, 1200.0),
        ("surgery-digest", health, &[0, 3, 1, 15], 7, 400.0),
        ("goal-net", sports, &[4, 5, 6, 7], 8, 2600.0),
        ("terrace-talk", sports, &[4, 6, 7, 9], 5, 150.0),
        ("tickerwire", finance, &[8, 9, 10, 11, 5], 9, 3100.0),
        ("pathogen-log", bio, &[12, 13, 14, 15, 1], 6, 900.0),
    ];
    let databases = specs
        .iter()
        .enumerate()
        .map(|(dbi, (name, category, term_ixs, n_docs, db_size))| {
            let docs: Vec<Document> = (0..*n_docs)
                .map(|d| {
                    // Deterministic, db-distinct token mix: doc d holds a
                    // rotating window over the db's vocabulary.
                    let tokens: Vec<u32> = term_ixs
                        .iter()
                        .cycle()
                        .skip(d % term_ixs.len())
                        .take(1 + (d + dbi) % term_ixs.len())
                        .map(|&ix| terms[ix])
                        .collect();
                    Document::from_tokens(d as u32, tokens)
                })
                .collect();
            let mut summary = ContentSummary::from_sample(docs.iter(), db_size * scale);
            if dbi % 2 == 0 {
                summary.set_gamma(-1.4 - 0.2 * dbi as f64);
            }
            StoredDatabase {
                name: (*name).to_string(),
                classification: *category,
                summary,
                sample_docs: Vec::new(),
            }
        })
        .collect();
    CollectionStore {
        dict,
        hierarchy,
        databases,
    }
}

pub fn fixture_catalog(scale: f64) -> StoredCatalog {
    StoredCatalog::freeze(fixture_store(scale), CategoryWeighting::BySize)
}

/// `frozen` served in memory, as the daemon serves the snapshot
/// `dbselect freeze` writes of it; `source` is what reloads default to.
pub fn serving_state(frozen: &StoredCatalog, source: &str) -> ServingState {
    ServingState::from_snapshot(ServingSnapshot::from_stored(frozen), source.into(), 0)
}

/// Write `frozen` to `path` as the v4 snapshot `dbselect freeze` writes.
pub fn save_snapshot(frozen: &StoredCatalog, path: &std::path::Path) {
    ServingSnapshot::from_stored(frozen).save(path).unwrap();
}

pub fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dbselectd-test-{tag}-{}.snap", std::process::id()))
}

/// Start a daemon on an OS-assigned port; returns its address and the
/// thread running it (joined after `/admin/shutdown`).
pub fn start(config: ServerConfig, state: ServingState) -> (SocketAddr, JoinHandle<()>) {
    let daemon = Server::bind(config, state).expect("bind");
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || daemon.run().expect("run"));
    (addr, handle)
}

/// [`start`], hosting one named tenant per `(name, state)` entry.
pub fn start_tenants(
    config: ServerConfig,
    states: Vec<(String, ServingState)>,
) -> (SocketAddr, JoinHandle<()>) {
    let daemon = Server::bind_tenants(config, states).expect("bind tenants");
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || daemon.run().expect("run"));
    (addr, handle)
}
