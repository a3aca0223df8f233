//! Library backing the `dbselect` command-line tool.
//!
//! The CLI turns directories of plain-text files into "uncooperative"
//! databases, profiles them exactly the way the paper's metasearcher would
//! (query-based sampling, size and frequency estimation), persists the
//! result as a [`CollectionStore`], and routes queries against it with
//! adaptive shrinkage.
//!
//! Everything is a plain function over a store so the commands are unit
//! testable; `main.rs` only parses arguments.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use dbselect_core::category_summary::CategoryWeighting;
use dbselect_core::hierarchy::Hierarchy;
use dbselect_core::summary::ContentSummary;
use sampling::{profile_qbs_many, PipelineConfig, QbsConfig, RefreshScheduler};
use selection::{AdaptiveOutcome, ShrinkageMode};
use server::state::{Algo, ServingState};
use store::catalog::StoredCatalog;
use store::delta::ChainWriter;
use store::refresh::RefreshSession;
use store::snapshot::ServingSnapshot;
use store::{CollectionStore, StoredDatabase};
use textindex::{Analyzer, Document, IndexedDatabase, TermDict};

/// One database to index: a name, a category path, and a directory of text
/// files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbSpec {
    /// Database name.
    pub name: String,
    /// Slash-separated category path (e.g. `Health/Heart`).
    pub category: String,
    /// Directory whose files become the database's documents.
    pub dir: String,
}

impl DbSpec {
    /// Parse a `name=Category/Path=directory` argument.
    pub fn parse(arg: &str) -> Result<Self, String> {
        let mut parts = arg.splitn(3, '=');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(name), Some(category), Some(dir)) if !name.is_empty() && !dir.is_empty() => {
                Ok(DbSpec {
                    name: name.to_string(),
                    category: category.to_string(),
                    dir: dir.to_string(),
                })
            }
            _ => Err(format!("expected NAME=CATEGORY/PATH=DIR, got `{arg}`")),
        }
    }
}

/// Indexing options.
#[derive(Debug, Clone, Copy)]
pub struct IndexOptions {
    /// Target QBS sample size (ignored with `full`).
    pub sample_size: usize,
    /// Build *perfect* summaries by reading every document (cooperative
    /// mode) instead of sampling.
    pub full: bool,
    /// Sampling seed.
    pub seed: u64,
    /// Profiling threads (results are thread-count independent).
    pub threads: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        IndexOptions {
            sample_size: 300,
            full: false,
            seed: 42,
            threads,
        }
    }
}

/// `err` with `path` in front of its message.
fn naming(path: &Path, err: io::Error) -> io::Error {
    io::Error::new(err.kind(), format!("{}: {err}", path.display()))
}

/// Read every regular file in `dir` (sorted by name for determinism) as one
/// document. Bytes that are not UTF-8 are decoded lossily, so a Latin-1
/// file keeps its ASCII words; a directory or file that cannot be read is
/// an error naming it.
fn read_documents(
    dir: &Path,
    analyzer: &Analyzer,
    dict: &mut TermDict,
) -> io::Result<Vec<Document>> {
    Ok(analyze_texts(read_texts(dir)?, analyzer, dict))
}

/// Every regular file in `dir`, sorted by name, as text — read in full
/// before any word is interned, so a failed read leaves a dictionary as
/// it was.
fn read_texts(dir: &Path) -> io::Result<Vec<String>> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| naming(dir, e))? {
        let path = entry.map_err(|e| naming(dir, e))?.path();
        if path.is_file() {
            paths.push(path);
        }
    }
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).map_err(|e| naming(path, e))?;
            Ok(String::from_utf8_lossy(&bytes).into_owned())
        })
        .collect()
}

/// One document per text, its words interned into `dict`.
fn analyze_texts(texts: Vec<String>, analyzer: &Analyzer, dict: &mut TermDict) -> Vec<Document> {
    texts
        .iter()
        .enumerate()
        .map(|(i, text)| Document::from_text(i as u32, text, analyzer, dict))
        .collect()
}

/// `dbselect index`: profile the given directories and build a store.
pub fn build_store(specs: &[DbSpec], options: &IndexOptions) -> io::Result<CollectionStore> {
    let analyzer = Analyzer::english();
    let mut dict = TermDict::new();
    let mut hierarchy = Hierarchy::new("Root");

    // Load all databases first (the dictionary is shared).
    let mut loaded = Vec::with_capacity(specs.len());
    for spec in specs {
        let docs = read_documents(Path::new(&spec.dir), &analyzer, &mut dict)?;
        if docs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{}: no readable documents in {}", spec.name, spec.dir),
            ));
        }
        let category = hierarchy.ensure_path(&spec.category);
        loaded.push((
            spec.name.clone(),
            category,
            IndexedDatabase::new(spec.name.clone(), docs),
        ));
    }

    // The QBS bootstrap lexicon: the most document-frequent words across
    // the collection (standing in for an English dictionary).
    let mut df_totals: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for (_, _, db) in &loaded {
        for (term, list) in db.index().terms() {
            *df_totals.entry(term).or_insert(0) += list.document_frequency();
        }
    }
    let mut by_df: Vec<(usize, u32)> = df_totals.into_iter().map(|(t, c)| (c, t)).collect();
    by_df.sort_unstable_by(|a, b| b.cmp(a));
    let lexicon: Vec<u32> = by_df.into_iter().take(2000).map(|(_, t)| t).collect();

    let pipeline = PipelineConfig {
        frequency_estimation: true,
        qbs: QbsConfig {
            target_sample_size: options.sample_size,
            ..Default::default()
        },
        ..Default::default()
    };
    let databases = if options.full {
        loaded
            .into_iter()
            .map(|(name, classification, db)| StoredDatabase {
                name,
                classification,
                summary: ContentSummary::perfect(&db),
                sample_docs: Vec::new(),
            })
            .collect()
    } else {
        let dbs: Vec<&IndexedDatabase> = loaded.iter().map(|(_, _, db)| db).collect();
        let profiles = profile_qbs_many(&dbs, &lexicon, &pipeline, options.seed, options.threads);
        loaded
            .iter()
            .zip(profiles)
            .map(|((name, classification, _), profile)| StoredDatabase {
                name: name.clone(),
                classification: *classification,
                summary: profile.summary,
                sample_docs: profile.sample.docs.into_iter().map(|d| d.tokens).collect(),
            })
            .collect()
    };
    Ok(CollectionStore {
        dict,
        hierarchy,
        databases,
    })
}

/// Which scoring algorithm `dbselect select` and `dbselect route` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliAlgorithm {
    /// A summary-based algorithm, routed by the serving engines.
    Served(Algo),
    /// ReDDE over the stored samples (no shrinkage; requires a store built
    /// by sampling, not `--full`).
    Redde,
}

impl Default for CliAlgorithm {
    fn default() -> Self {
        CliAlgorithm::Served(Algo::default())
    }
}

impl CliAlgorithm {
    /// Parse a `--algo` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "redde" => Ok(CliAlgorithm::Redde),
            other => Algo::parse(other)
                .map(CliAlgorithm::Served)
                .map_err(|_| format!("unknown algorithm `{other}` (bgloss|cori|lm|redde)")),
        }
    }
}

/// Render one routed ranking (top `k`) into `out`.
fn render_ranking(out: &mut String, state: &ServingState, outcome: &AdaptiveOutcome, k: usize) {
    for r in outcome.ranking.iter().take(k) {
        let marker = if outcome.used_shrinkage[r.index] {
            " [shrunk]"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:<20} {:>12.6}  ({}){marker}",
            state.name(r.index),
            r.score,
            state.category_path(r.index),
        );
    }
    if outcome.ranking.is_empty() {
        let _ = writeln!(out, "  (no database has evidence for this query)");
    }
}

/// `dbselect select`: rank databases for a query. Returns the rendered
/// report.
///
/// One-shot serving: the store is frozen as `dbselect freeze` does and the
/// query routed through the [`ServingState`] a daemon would serve from it.
pub fn select(
    store: &CollectionStore,
    query_words: &[String],
    algo: CliAlgorithm,
    shrinkage: ShrinkageMode,
    k: usize,
) -> String {
    let frozen = StoredCatalog::freeze(store.clone(), CategoryWeighting::BySize);
    let snapshot = ServingSnapshot::from_stored(&frozen);
    let state = ServingState::from_snapshot(snapshot, String::new(), 0);
    let (query, unknown) = state.analyze(query_words);
    let mut out = String::new();
    if !unknown.is_empty() {
        let _ = writeln!(
            out,
            "note: dropping words never seen while profiling: {unknown:?}"
        );
    }
    if query.is_empty() {
        let _ = writeln!(out, "no usable query words; nothing selected");
        return out;
    }
    let algo = match algo {
        CliAlgorithm::Served(algo) => algo,
        CliAlgorithm::Redde => return select_redde(store, &query, k, out),
    };
    let engine = state.engine(algo, shrinkage);
    let outcome = engine.route(&query);
    let _ = writeln!(
        out,
        "top databases ({} scoring, {shrinkage:?} shrinkage):",
        engine.algorithm().name()
    );
    render_ranking(&mut out, &state, &outcome, k);
    out
}

/// Options for `dbselect route`.
#[derive(Debug, Clone, Copy)]
pub struct RouteOptions {
    /// Scoring algorithm (ReDDE is not supported — a catalog stores
    /// summaries, not samples).
    pub algo: CliAlgorithm,
    /// Shrinkage policy.
    pub shrinkage: ShrinkageMode,
    /// Databases reported per query.
    pub k: usize,
    /// Worker threads (results are thread-count independent).
    pub threads: usize,
}

impl Default for RouteOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        RouteOptions {
            algo: CliAlgorithm::default(),
            shrinkage: ShrinkageMode::Adaptive,
            k: 5,
            threads,
        }
    }
}

/// `dbselect route`: serve a batch of queries (one per line) against a
/// loaded serving state ([`ServingState::load`]: a v4 snapshot, a v1
/// catalog, or a delta chain). Returns the rendered report.
pub fn route(state: &ServingState, query_lines: &[String], options: &RouteOptions) -> String {
    let mut out = String::new();
    let CliAlgorithm::Served(algo) = options.algo else {
        let _ = writeln!(
            out,
            "ReDDE needs raw samples; use `dbselect select` on a store"
        );
        return out;
    };
    let engine = state.engine(algo, options.shrinkage);

    // Tokenize every line up front so the batch can be routed in parallel.
    let parsed: Vec<(String, Vec<u32>, Vec<String>)> = query_lines
        .iter()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            let (query, unknown) = state.analyze(&words);
            (line.trim().to_string(), query, unknown)
        })
        .collect();
    let queries: Vec<Vec<u32>> = parsed.iter().map(|(_, q, _)| q.clone()).collect();
    let latencies = server::metrics::Histogram::latency();
    let started = Instant::now();
    let outcomes = engine.route_batch_observed(&queries, options.threads, |_, d| {
        latencies.observe(d.as_nanos() as u64);
    });
    let wall = started.elapsed();

    let _ = writeln!(
        out,
        "routing {} queries over {} databases ({} scoring, {:?} shrinkage, {} threads)",
        parsed.len(),
        state.databases(),
        engine.algorithm().name(),
        options.shrinkage,
        options.threads,
    );
    for ((line, query, unknown), outcome) in parsed.iter().zip(&outcomes) {
        let _ = writeln!(out, "\nquery: {line}");
        if !unknown.is_empty() {
            let _ = writeln!(out, "  note: unknown words dropped: {unknown:?}");
        }
        if query.is_empty() {
            let _ = writeln!(out, "  (no usable query words)");
            continue;
        }
        render_ranking(&mut out, state, outcome, options.k);
    }
    // Per-query latency summary (the daemon's histogram type, so the CLI
    // and `/metrics` report percentiles the same way). This line varies
    // run to run — consumers comparing reports should ignore it.
    if !queries.is_empty() {
        let secs = wall.as_secs_f64().max(f64::MIN_POSITIVE);
        let _ = writeln!(
            out,
            "\nlatency per query: p50 {} | p95 {} | p99 {}  — {} queries in {} ({:.1} queries/s)",
            server::metrics::format_nanos(latencies.percentile(0.50)),
            server::metrics::format_nanos(latencies.percentile(0.95)),
            server::metrics::format_nanos(latencies.percentile(0.99)),
            queries.len(),
            server::metrics::format_nanos(wall.as_nanos() as u64),
            queries.len() as f64 / secs,
        );
    }
    out
}

/// ReDDE selection over the stored samples.
fn select_redde(store: &CollectionStore, query: &[u32], k: usize, mut out: String) -> String {
    use selection::{Redde, ReddeConfig};
    let samples: Vec<Vec<Document>> = store
        .databases
        .iter()
        .map(|db| {
            db.sample_docs
                .iter()
                .enumerate()
                .map(|(i, tokens)| Document::from_tokens(i as u32, tokens.clone()))
                .collect()
        })
        .collect();
    if samples.iter().all(|s| s.is_empty()) {
        let _ = writeln!(
            out,
            "this store holds no samples (built with --full?); ReDDE unavailable"
        );
        return out;
    }
    let sizes: Vec<f64> = store
        .databases
        .iter()
        .map(|db| db.summary.db_size())
        .collect();
    let redde = Redde::build(&samples, &sizes, ReddeConfig::default());
    let ranking = redde.rank(query);
    let _ = writeln!(out, "top databases (ReDDE estimated relevant documents):");
    for r in ranking.iter().take(k) {
        let db = &store.databases[r.index];
        let _ = writeln!(
            out,
            "  {:<20} {:>12.1}  ({})",
            db.name,
            r.score,
            store.hierarchy.full_name(db.classification),
        );
    }
    if ranking.is_empty() {
        let _ = writeln!(out, "  (no sampled document matches the query)");
    }
    out
}

/// `dbselect inspect`: describe the store (or one database). Returns the
/// rendered report.
pub fn inspect(store: &CollectionStore, db_name: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "store: {} databases, {} terms, {} categories",
        store.databases.len(),
        store.dict.len(),
        store.hierarchy.len()
    );
    for db in &store.databases {
        if let Some(filter) = db_name {
            if db.name != filter {
                continue;
            }
        }
        let s = &db.summary;
        let _ = writeln!(
            out,
            "\n{} — {} (|D̂| = {:.0}, sample {} docs, vocabulary {})",
            db.name,
            store.hierarchy.full_name(db.classification),
            s.db_size(),
            s.sample_size(),
            s.vocabulary_size()
        );
        let mut words: Vec<(u32, f64)> = s.iter().map(|(t, st)| (t, st.df)).collect();
        words.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for (term, df) in words.into_iter().take(10) {
            let _ = writeln!(
                out,
                "    {:<20} df ≈ {:>8.1}   p̂(w|D) = {:.4}",
                store.dict.term(term),
                df,
                s.p_df(term)
            );
        }
    }
    out
}

/// Options for `dbselect refresh`.
#[derive(Debug, Clone, Copy)]
pub struct RefreshOptions {
    /// Refresh rounds to run (each appends one delta to the chain).
    pub rounds: usize,
    /// Databases re-probed per round.
    pub budget: usize,
    /// Scheduler + sampling seed.
    pub seed: u64,
    /// Target QBS sample size per re-probe (ignored with `full`).
    pub sample_size: usize,
    /// Re-read every document instead of sampling (cooperative mode).
    pub full: bool,
    /// Profiling threads.
    pub threads: usize,
    /// Pause between rounds (live-refresh pacing for a polling daemon).
    pub round_interval: Option<std::time::Duration>,
}

impl Default for RefreshOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        RefreshOptions {
            rounds: 1,
            budget: 2,
            seed: 42,
            sample_size: 300,
            full: false,
            threads,
            round_interval: None,
        }
    }
}

/// `dbselect refresh`: re-probe a few stale databases per round and
/// append each round as a delta to a snapshot chain.
///
/// The chain directory either does not hold a base yet (one is frozen
/// from the catalog) or holds exactly the base this catalog freezes to —
/// a chain that already has delta rounds cannot be resumed, because the
/// session that wrote them owned the dictionary growth; re-base with a
/// fresh `dbselect freeze` instead. Databases named by a spec are
/// eligible for re-probing (their directories are re-read each round, so
/// drifted content is picked up); catalog databases without a spec stay
/// frozen at their base summaries.
///
/// A picked database whose directory cannot be read (or holds no
/// document) is skipped for the round and reported; it stays eligible
/// and keeps aging, and a round whose every pick is skipped appends
/// nothing.
///
/// Returns the per-round report: which databases each round touched (and
/// skipped), the round's wall time, and the delta's size on disk — the
/// evidence that refresh cost scales with the touched set, not the
/// catalog.
pub fn refresh(
    catalog_path: &str,
    chain_dir: &Path,
    specs: &[DbSpec],
    options: &RefreshOptions,
) -> io::Result<String> {
    let stored = StoredCatalog::load(catalog_path)?;
    let mut session = RefreshSession::new(stored);

    // Map specs onto catalog indices by database name.
    let mut spec_for_db: Vec<Option<&DbSpec>> = vec![None; session.len()];
    for spec in specs {
        match session.names().iter().position(|n| *n == spec.name) {
            Some(db) => spec_for_db[db] = Some(spec),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{}: no such database in {catalog_path}", spec.name),
                ))
            }
        }
    }
    if spec_for_db.iter().all(Option::is_none) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "refresh requires at least one NAME=CATEGORY/PATH=DIR spec",
        ));
    }

    // Create the chain base, or verify an existing base (e.g. one written
    // by `dbselect freeze` into the chain directory) matches the catalog.
    let reference = session.freeze_full();
    let mut writer = if chain_dir.join(store::delta::BASE_FILE).exists() {
        ChainWriter::open_base_only(chain_dir, &reference)?
    } else {
        ChainWriter::create(chain_dir, &reference)?
    };
    drop(reference);

    let mut scheduler = RefreshScheduler::new(session.len(), options.budget, options.seed);
    for (db, spec) in spec_for_db.iter().enumerate().take(session.len()) {
        scheduler.set_eligible(db, spec.is_some());
        scheduler.set_coverage(db, session.coverage(db));
    }

    let analyzer = Analyzer::english();
    let pipeline = PipelineConfig {
        frequency_estimation: true,
        qbs: QbsConfig {
            target_sample_size: options.sample_size,
            ..Default::default()
        },
        ..Default::default()
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "refreshing {} of {} databases per round over {} ({} rounds, seed {})",
        options.budget.min(specs.len()),
        session.len(),
        chain_dir.display(),
        options.rounds,
        options.seed,
    );
    for round in 0..options.rounds {
        let started = Instant::now();
        let picks = scheduler.next_round();
        if picks.is_empty() {
            let _ = writeln!(out, "round {}: nothing eligible to refresh", round + 1);
            continue;
        }

        // Re-read the picked databases' directories (content may have
        // drifted since the last probe), interning new vocabulary into
        // the session dictionary. A database whose directory cannot be
        // read, or holds no document, sits this round out: it is reported
        // and keeps aging, and the rest of the round goes ahead.
        let (mut refreshed, mut reloaded) = (Vec::new(), Vec::new());
        for &db in &picks {
            let spec = spec_for_db[db].expect("scheduler only picks eligible databases");
            let texts = read_texts(Path::new(&spec.dir)).and_then(|texts| match texts.is_empty() {
                true => Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("no readable documents in {}", spec.dir),
                )),
                false => Ok(texts),
            });
            match texts {
                Ok(texts) => {
                    let docs = analyze_texts(texts, &analyzer, session.dict_mut());
                    reloaded.push(IndexedDatabase::new(spec.name.clone(), docs));
                    refreshed.push(db);
                }
                Err(e) => {
                    scheduler.defer(db);
                    let _ = writeln!(out, "round {}: skipped {}: {e}", round + 1, spec.name);
                }
            }
        }
        if refreshed.is_empty() {
            let _ = writeln!(
                out,
                "round {}: every pick skipped; nothing appended",
                round + 1
            );
            continue;
        }

        let summaries: Vec<ContentSummary> = if options.full {
            reloaded.iter().map(ContentSummary::perfect).collect()
        } else {
            // The round's QBS bootstrap lexicon: the most document-
            // frequent words across the re-read databases.
            let mut df_totals: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for db in &reloaded {
                for (term, list) in db.index().terms() {
                    *df_totals.entry(term).or_insert(0) += list.document_frequency();
                }
            }
            let mut by_df: Vec<(usize, u32)> = df_totals.into_iter().map(|(t, c)| (c, t)).collect();
            by_df.sort_unstable_by(|a, b| b.cmp(a));
            let lexicon: Vec<u32> = by_df.into_iter().take(2000).map(|(_, t)| t).collect();
            let refs: Vec<&IndexedDatabase> = reloaded.iter().collect();
            // Seed by chain generation so every round probes differently
            // but the whole run stays deterministic.
            let round_seed = options.seed ^ (writer.generation() + 1);
            profile_qbs_many(&refs, &lexicon, &pipeline, round_seed, options.threads)
                .into_iter()
                .map(|profile| profile.summary)
                .collect()
        };

        let mut patches = Vec::with_capacity(refreshed.len());
        for (&db, summary) in refreshed.iter().zip(summaries) {
            patches.push(session.apply_probe(db, summary));
            scheduler.set_coverage(db, session.coverage(db));
        }
        let generation = writer.append_round(session.dict(), patches)?;
        let delta_path = chain_dir.join(store::delta::delta_file_name(generation));
        let bytes = std::fs::metadata(&delta_path).map(|m| m.len()).unwrap_or(0);
        let names: Vec<&str> = refreshed
            .iter()
            .map(|&db| {
                spec_for_db[db]
                    .expect("picked databases have specs")
                    .name
                    .as_str()
            })
            .collect();
        let _ = writeln!(
            out,
            "round {} -> generation {generation}: refreshed {} in {:.1} ms ({bytes} bytes delta)",
            round + 1,
            names.join(", "),
            started.elapsed().as_secs_f64() * 1e3,
        );
        if let (Some(interval), true) = (options.round_interval, round + 1 < options.rounds) {
            std::thread::sleep(interval);
        }
    }
    let _ = writeln!(
        out,
        "chain tip: generation {} (checksum {:016x})",
        writer.generation(),
        writer.tip_checksum(),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use store::catalog::StoredCatalog;

    fn write_corpus(root: &Path) {
        let heart = root.join("heart");
        let soccer = root.join("soccer");
        std::fs::create_dir_all(&heart).unwrap();
        std::fs::create_dir_all(&soccer).unwrap();
        let heart_docs = [
            "The heart pumps blood through the arteries",
            "Hypertension strains the heart and raises blood pressure",
            "Cardiac surgery repairs damaged heart valves",
            "Cholesterol narrows the coronary arteries of the heart",
        ];
        let soccer_docs = [
            "The striker scored a goal in the final minute",
            "The league championship went to the home team",
            "A penalty kick decided the soccer match",
        ];
        for (i, text) in heart_docs.iter().enumerate() {
            std::fs::write(heart.join(format!("doc{i}.txt")), text).unwrap();
        }
        for (i, text) in soccer_docs.iter().enumerate() {
            std::fs::write(soccer.join(format!("doc{i}.txt")), text).unwrap();
        }
    }

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dbselect-cli-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn specs(root: &Path) -> Vec<DbSpec> {
        vec![
            DbSpec {
                name: "heart-db".into(),
                category: "Health/Heart".into(),
                dir: root.join("heart").to_string_lossy().into_owned(),
            },
            DbSpec {
                name: "soccer-db".into(),
                category: "Sports/Soccer".into(),
                dir: root.join("soccer").to_string_lossy().into_owned(),
            },
        ]
    }

    #[test]
    fn spec_parsing() {
        let spec = DbSpec::parse("medline=Health/Medicine=/data/medline").unwrap();
        assert_eq!(spec.name, "medline");
        assert_eq!(spec.category, "Health/Medicine");
        assert_eq!(spec.dir, "/data/medline");
        assert!(DbSpec::parse("missing-parts").is_err());
        assert!(DbSpec::parse("=cat=dir").is_err());
    }

    #[test]
    fn index_select_inspect_round_trip() {
        let root = temp_root("e2e");
        write_corpus(&root);
        let options = IndexOptions {
            full: true,
            ..Default::default()
        };
        let store = build_store(&specs(&root), &options).unwrap();
        assert_eq!(store.databases.len(), 2);

        // Save + reload through the file format.
        let path = root.join("collection.store");
        store.save(&path).unwrap();
        let store = CollectionStore::load(&path).unwrap();

        // A heart query selects the heart database first.
        let report = select(
            &store,
            &["hypertension".into(), "blood".into()],
            CliAlgorithm::Served(Algo::Cori),
            ShrinkageMode::Adaptive,
            5,
        );
        let heart_pos = report.find("heart-db").expect("heart-db selected");
        assert!(report.find("soccer-db").is_none_or(|p| p > heart_pos));

        // Inspect mentions both databases and their categories.
        let info = inspect(&store, None);
        assert!(info.contains("Root/Health/Heart"));
        assert!(info.contains("Root/Sports/Soccer"));
        let only = inspect(&store, Some("soccer-db"));
        assert!(only.contains("soccer-db"));
        assert!(!only.contains("heart-db"));

        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sampled_indexing_works_too() {
        let root = temp_root("sampled");
        write_corpus(&root);
        let options = IndexOptions {
            sample_size: 3,
            full: false,
            seed: 7,
            threads: 2,
        };
        let store = build_store(&specs(&root), &options).unwrap();
        for db in &store.databases {
            assert!(db.summary.sample_size() <= 3 + 1);
            assert!(db.summary.vocabulary_size() > 0);
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn catalog_route_round_trip() {
        let root = temp_root("route");
        write_corpus(&root);
        let store = build_store(
            &specs(&root),
            &IndexOptions {
                full: true,
                ..Default::default()
            },
        )
        .unwrap();

        // Freeze the shrinkage fit into a v1 catalog, migrate it to a v4
        // snapshot on disk, and reload both ways: `load_any` must route
        // the legacy file and the snapshot identically.
        let path = root.join("collection.catalog");
        StoredCatalog::freeze(store, CategoryWeighting::BySize)
            .save(&path)
            .unwrap();
        let v2_path = root.join("collection.snapshot");
        ServingSnapshot::load_any(&path)
            .unwrap()
            .save(&v2_path)
            .unwrap();
        let load = |path: &Path| ServingState::load(path.to_str().unwrap(), 0).unwrap();
        let frozen = load(&v2_path);

        let lines = vec![
            "heart blood pressure".to_string(),
            "soccer goal".to_string(),
            String::new(), // blank lines are skipped
            "xylophone".to_string(),
        ];
        let options = RouteOptions {
            k: 2,
            threads: 2,
            ..Default::default()
        };
        let report = route(&frozen, &lines, &options);
        assert!(report.contains("routing 3 queries"), "{report}");
        let heart_section = report.find("query: heart blood pressure").unwrap();
        let soccer_section = report.find("query: soccer goal").unwrap();
        let heart_hit = report[heart_section..soccer_section].find("heart-db");
        assert!(heart_hit.is_some(), "{report}");
        assert!(report.contains("unknown words dropped"), "{report}");

        // Thread count does not change the report.
        let single = route(
            &frozen,
            &lines,
            &RouteOptions {
                threads: 1,
                ..options
            },
        );
        let many = route(
            &frozen,
            &lines,
            &RouteOptions {
                threads: 8,
                ..options
            },
        );
        // The trailing latency summary is wall-clock dependent; rankings
        // must match exactly.
        let strip = |report: &str, threads: &str| -> String {
            report
                .replace(threads, "N threads")
                .lines()
                .filter(|l| !l.starts_with("latency per query:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&single, "1 threads"), strip(&many, "8 threads"));
        assert!(single.contains("latency per query: p50"), "{single}");

        // The legacy v1 catalog file routes identically to its migrated
        // v4 snapshot.
        let from_v1 = load(&path);
        let v1_report = route(&from_v1, &lines, &options);
        assert_eq!(strip(&report, "2 threads"), strip(&v1_report, "2 threads"));

        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn refresh_appends_deltas_that_replay_bit_identically() {
        let root = temp_root("refresh");
        write_corpus(&root);
        let specs = specs(&root);
        let store = build_store(
            &specs,
            &IndexOptions {
                full: true,
                ..Default::default()
            },
        )
        .unwrap();
        let catalog_path = root.join("collection.catalog");
        StoredCatalog::freeze(store, CategoryWeighting::BySize)
            .save(&catalog_path)
            .unwrap();
        let catalog_path = catalog_path.to_string_lossy().into_owned();
        let chain = root.join("chain");

        // Drift the heart database before the first refresh round.
        std::fs::write(
            root.join("heart/doc9.txt"),
            "Arrhythmia monitoring with a wearable electrocardiogram",
        )
        .unwrap();

        let options = RefreshOptions {
            rounds: 2,
            budget: 1,
            seed: 9,
            full: true,
            ..Default::default()
        };
        let report = refresh(&catalog_path, &chain, &specs, &options).unwrap();
        assert!(report.contains("round 1 -> generation 1"), "{report}");
        assert!(report.contains("round 2 -> generation 2"), "{report}");
        assert_eq!(store::delta::chain_tip_generation(&chain).unwrap(), 2);

        // The replayed chain routes the drifted vocabulary to heart-db.
        let loaded = ServingState::load(chain.to_str().unwrap(), 0).unwrap();
        assert_eq!(loaded.catalog_generation(), 2);
        let report = route(
            &loaded,
            &["arrhythmia electrocardiogram".to_string()],
            &RouteOptions {
                threads: 1,
                ..Default::default()
            },
        );
        assert!(report.contains("heart-db"), "{report}");

        // A chain with deltas cannot be resumed (re-base instead).
        let err = refresh(&catalog_path, &chain, &specs, &options).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("re-base"), "{err}");

        // A base written by `dbselect freeze` is accepted as-is...
        let fresh = root.join("fresh-chain");
        std::fs::create_dir_all(&fresh).unwrap();
        let frozen = StoredCatalog::load(&catalog_path).unwrap();
        ServingSnapshot::from_stored(&frozen)
            .save(fresh.join(store::delta::BASE_FILE))
            .unwrap();
        let report = refresh(
            &catalog_path,
            &fresh,
            &specs,
            &RefreshOptions {
                rounds: 1,
                ..options
            },
        )
        .unwrap();
        assert!(report.contains("generation 1"), "{report}");

        // ...but a base from a *different* catalog is rejected.
        let other = root.join("other-chain");
        std::fs::create_dir_all(&other).unwrap();
        std::fs::copy(
            chain.join(store::delta::delta_file_name(1)),
            other.join(store::delta::BASE_FILE),
        )
        .unwrap();
        let err = refresh(&catalog_path, &other, &specs, &options).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("does not match"), "{err}");

        // Unknown spec names fail fast.
        let bogus = DbSpec {
            name: "no-such-db".into(),
            category: "X".into(),
            dir: root.join("heart").to_string_lossy().into_owned(),
        };
        let err = refresh(&catalog_path, &root.join("x-chain"), &[bogus], &options).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn refresh_skips_an_unreadable_database_and_keeps_the_round() {
        let root = temp_root("refresh-skip");
        write_corpus(&root);
        let specs = specs(&root);
        let store = build_store(
            &specs,
            &IndexOptions {
                full: true,
                ..Default::default()
            },
        )
        .unwrap();
        let catalog_path = root.join("collection.catalog");
        StoredCatalog::freeze(store, CategoryWeighting::BySize)
            .save(&catalog_path)
            .unwrap();
        let catalog_path = catalog_path.to_string_lossy().into_owned();
        std::fs::write(root.join("heart/doc9.txt"), "Arrhythmia monitoring").unwrap();
        let options = RefreshOptions {
            rounds: 1,
            budget: 2,
            seed: 3,
            full: true,
            ..Default::default()
        };

        // The reference: a chain refreshing the heart database alone.
        let heart_only: Vec<DbSpec> = specs
            .iter()
            .filter(|s| s.name == "heart-db")
            .cloned()
            .collect();
        let reference = root.join("reference-chain");
        refresh(&catalog_path, &reference, &heart_only, &options).unwrap();

        // Both databases picked, but the soccer directory is gone after the
        // base was written: the round refreshes heart-db, reports the skip,
        // and appends the very delta the heart-only run appended — the
        // failed read interned nothing.
        std::fs::remove_dir_all(root.join("soccer")).unwrap();
        let chain = root.join("chain");
        let report = refresh(&catalog_path, &chain, &specs, &options).unwrap();
        assert!(report.contains("round 1: skipped soccer-db"), "{report}");
        assert!(report.contains("refreshed heart-db in"), "{report}");
        let replayed = store::delta::load_chain(&chain).unwrap();
        let expected = store::delta::load_chain(&reference).unwrap();
        assert_eq!(replayed.generation, 1);
        assert_eq!(replayed.checksum, expected.checksum);
        assert_eq!(
            replayed.snapshot.value_digest(),
            expected.snapshot.value_digest()
        );

        // Every pick failing appends nothing.
        std::fs::remove_dir_all(root.join("heart")).unwrap();
        let empty = root.join("empty-chain");
        let report = refresh(&catalog_path, &empty, &specs, &options).unwrap();
        assert!(report.contains("skipped heart-db"), "{report}");
        assert!(report.contains("every pick skipped"), "{report}");
        assert_eq!(store::delta::chain_tip_generation(&empty).unwrap(), 0);

        std::fs::remove_dir_all(&root).ok();
    }

    /// `select` on a store and `route` on its frozen snapshot print the
    /// same ranking lines for every served algorithm and shrinkage mode,
    /// on a fully read store and on a sampled one.
    #[test]
    fn select_ranks_like_route_on_the_frozen_snapshot() {
        let root = temp_root("select-route");
        write_corpus(&root);
        let ranking_lines = |report: &str| -> Vec<String> {
            let lines = report.lines().filter(|l| l.starts_with("  "));
            let lines = lines.filter(|l| !l.contains("note:"));
            lines.map(str::to_string).collect()
        };
        let queries = [
            "heart blood pressure",
            "soccer goal",
            "heart goal xylophone",
        ];
        for full in [true, false] {
            let options = IndexOptions {
                sample_size: 3,
                full,
                seed: 7,
                threads: 1,
            };
            let store = build_store(&specs(&root), &options).unwrap();
            let frozen = StoredCatalog::freeze(store.clone(), CategoryWeighting::BySize);
            let state = ServingState::from_snapshot(
                ServingSnapshot::from_stored(&frozen),
                String::new(),
                0,
            );
            for algo in Algo::all().map(CliAlgorithm::Served) {
                for shrinkage in [
                    ShrinkageMode::Adaptive,
                    ShrinkageMode::Always,
                    ShrinkageMode::Never,
                ] {
                    for line in queries {
                        let words: Vec<String> =
                            line.split_whitespace().map(str::to_string).collect();
                        let selected = select(&store, &words, algo, shrinkage, 5);
                        let options = RouteOptions {
                            algo,
                            shrinkage,
                            k: 5,
                            threads: 1,
                        };
                        let routed = route(&state, &[line.to_string()], &options);
                        let want = ranking_lines(&routed);
                        assert!(!want.is_empty(), "{routed}");
                        assert_eq!(
                            ranking_lines(&selected),
                            want,
                            "{algo:?} {shrinkage:?} {line:?} full={full}"
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unknown_words_are_reported_not_fatal() {
        let root = temp_root("unknown");
        write_corpus(&root);
        let store = build_store(
            &specs(&root),
            &IndexOptions {
                full: true,
                ..Default::default()
            },
        )
        .unwrap();
        let report = select(
            &store,
            &["xylophone".into()],
            CliAlgorithm::Served(Algo::BGloss),
            ShrinkageMode::Never,
            5,
        );
        assert!(report.contains("dropping words"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_directory_is_an_error() {
        let root = temp_root("empty");
        std::fs::create_dir_all(root.join("nothing")).unwrap();
        let spec = DbSpec {
            name: "x".into(),
            category: "A".into(),
            dir: root.join("nothing").to_string_lossy().into_owned(),
        };
        assert!(build_store(&[spec], &IndexOptions::default()).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn non_utf8_files_keep_their_ascii_words() {
        let root = temp_root("latin1");
        let dir = root.join("latin1");
        std::fs::create_dir_all(&dir).unwrap();
        // "café" in Latin-1: the 0xE9 byte is not UTF-8.
        std::fs::write(dir.join("doc.txt"), b"caf\xe9 cardiology arrhythmia\n").unwrap();
        let spec = DbSpec {
            name: "latin1".into(),
            category: "Health".into(),
            dir: dir.to_string_lossy().into_owned(),
        };
        let options = IndexOptions {
            full: true,
            ..Default::default()
        };
        let store = build_store(&[spec], &options).unwrap();
        let summary = &store.databases[0].summary;
        for word in Analyzer::english().analyze("cardiology arrhythmia") {
            let term = store.dict.lookup(&word).expect("the word was indexed");
            assert_eq!(summary.word(term).map(|w| w.sample_df), Some(1), "{word}");
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
