//! Library backing the `dbselect` command-line tool.
//!
//! The CLI turns directories of plain-text files into "uncooperative"
//! databases, profiles them exactly the way the paper's metasearcher would
//! (query-based sampling, size and frequency estimation), persists the
//! result as a [`CollectionStore`], and routes queries against it with
//! adaptive shrinkage.
//!
//! Everything is a plain function over a store so the commands are unit
//! testable; [`commands`] parses arguments through the flag tables of
//! [`args`] and calls them.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use dbselect_core::category_summary::CategoryWeighting;
use dbselect_core::hierarchy::Hierarchy;
use dbselect_core::summary::ContentSummary;
use sampling::refresh::{pick_round, Standing};
use sampling::{profile_qbs_many, PipelineConfig, QbsConfig};
use selection::{AdaptiveOutcome, ShrinkageMode};
use server::state::{Algo, ServingState};
use store::catalog::StoredCatalog;
use store::delta::ChainWriter;
use store::refresh::RefreshSession;
use store::snapshot::ServingSnapshot;
use store::{CollectionStore, StoredDatabase};
use textindex::{Analyzer, Document, IndexedDatabase, TermDict};

pub mod args;
pub mod commands;

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

/// How `dbselect index` (and each `dbselect refresh` round) profiles.
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
        IndexOptions {
            sample_size: 300,
            full: false,
            seed: 42,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// `err` with `path` in front of its message.
fn naming(path: &Path, err: io::Error) -> io::Error {
    io::Error::new(err.kind(), format!("{}: {err}", path.display()))
}

/// Every regular file in `dir`, sorted by name, as text (one document
/// each) — read in full before any word is interned, so a failed read
/// leaves a dictionary as it was. Bytes that are not UTF-8 are decoded
/// lossily, so a Latin-1 file keeps its ASCII words; a directory or file
/// that cannot be read is an error naming it.
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

/// The QBS bootstrap lexicon: the 2000 most document-frequent words
/// across `dbs` (standing in for an English dictionary).
fn bootstrap_lexicon(dbs: &[&IndexedDatabase]) -> Vec<u32> {
    let mut df_totals: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for db in dbs {
        for (term, list) in db.index().terms() {
            *df_totals.entry(term).or_insert(0) += list.document_frequency();
        }
    }
    let mut by_df: Vec<(usize, u32)> = df_totals.into_iter().map(|(t, c)| (c, t)).collect();
    by_df.sort_unstable_by(|a, b| b.cmp(a));
    by_df.into_iter().take(2000).map(|(_, t)| t).collect()
}

/// Frequency-estimating QBS profiling toward `sample_size` documents.
fn qbs_pipeline(sample_size: usize) -> PipelineConfig {
    let qbs = QbsConfig {
        target_sample_size: sample_size,
        ..Default::default()
    };
    PipelineConfig {
        frequency_estimation: true,
        qbs,
        ..Default::default()
    }
}

/// `dbselect index`: profile the given directories and build a store.
pub fn build_store(specs: &[DbSpec], options: &IndexOptions) -> io::Result<CollectionStore> {
    let analyzer = Analyzer::english();
    let mut dict = TermDict::new();
    let mut hierarchy = Hierarchy::new("Root");

    // Load all databases first (the dictionary is shared).
    let mut loaded = Vec::with_capacity(specs.len());
    for spec in specs {
        let docs = analyze_texts(read_texts(Path::new(&spec.dir))?, &analyzer, &mut dict);
        if docs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{}: no readable documents in {}", spec.name, spec.dir),
            ));
        }
        let category = hierarchy.ensure_path(&spec.category);
        loaded.push((
            &spec.name,
            category,
            IndexedDatabase::new(&*spec.name, docs),
        ));
    }

    let pipeline = qbs_pipeline(options.sample_size);
    let databases = if options.full {
        loaded
            .into_iter()
            .map(|(name, classification, db)| StoredDatabase {
                name: name.clone(),
                classification,
                summary: ContentSummary::perfect(&db),
                sample_docs: Vec::new(),
            })
            .collect()
    } else {
        let dbs: Vec<&IndexedDatabase> = loaded.iter().map(|(_, _, db)| db).collect();
        let lexicon = bootstrap_lexicon(&dbs);
        let profiles = profile_qbs_many(&dbs, &lexicon, &pipeline, options.seed, options.threads);
        loaded
            .iter()
            .zip(profiles)
            .map(|((name, classification, _), profile)| StoredDatabase {
                name: name.to_string(),
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

/// `dbselect select`: rank databases for a query (`options.threads` is
/// not read). Returns the rendered report.
///
/// One-shot serving: the store is frozen as `dbselect freeze` does and the
/// query routed through the [`ServingState`] a daemon would serve from it.
pub fn select(store: &CollectionStore, query_words: &[String], options: &RouteOptions) -> String {
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
    let (shrinkage, k) = (options.shrinkage, options.k);
    let algo = match options.algo {
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

/// Options for `dbselect route` and `dbselect select`.
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
        RouteOptions {
            algo: CliAlgorithm::Served(Algo::default()),
            shrinkage: ShrinkageMode::Adaptive,
            k: 5,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// `dbselect route`: serve a batch of queries (one per line) against a
/// loaded serving state ([`ServingState::load`]: a v4 snapshot or a delta
/// chain, as `dbselect freeze` and `dbselect refresh` write them).
/// Returns the rendered report.
pub fn route(state: &ServingState, query_lines: &[String], options: &RouteOptions) -> String {
    let CliAlgorithm::Served(algo) = options.algo else {
        return "ReDDE needs raw samples; use `dbselect select` on a store\n".to_string();
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

    let mut out = String::new();
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
    let (samples, sizes): (Vec<Vec<Document>>, Vec<f64>) = store
        .databases
        .iter()
        .map(|db| {
            let docs = db.sample_docs.iter().enumerate();
            let docs = docs.map(|(i, tokens)| Document::from_tokens(i as u32, tokens.clone()));
            (docs.collect(), db.summary.db_size())
        })
        .unzip();
    if samples.iter().all(|s| s.is_empty()) {
        return out + "this store holds no samples (indexed in full?); ReDDE unavailable\n";
    }
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
    for db in store
        .databases
        .iter()
        .filter(|db| db_name.is_none_or(|n| db.name == n))
    {
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
    /// How each re-probe profiles; its seed also rotates the pick
    /// tie-break.
    pub probe: IndexOptions,
    /// Pause between rounds (live-refresh pacing for a polling daemon).
    pub round_interval: Option<std::time::Duration>,
}

impl Default for RefreshOptions {
    fn default() -> Self {
        RefreshOptions {
            rounds: 1,
            budget: 2,
            probe: IndexOptions::default(),
            round_interval: None,
        }
    }
}

/// `dbselect refresh`: re-probe a few stale databases per round and
/// append each round as a delta to a snapshot chain.
///
/// The chain directory holds a base (`dbselect freeze --store STORE --out
/// DIR/base.snap` starts one) and any number of deltas; the session
/// resumes at the tip, so any number of `refresh` runs continue one
/// chain. Databases named by a spec are eligible for re-probing (their
/// directories are re-read each round, so drifted content is picked up);
/// chain databases without a spec keep their summaries.
///
/// Each round's picks are [`pick_round`] of the chain tip: its
/// generation, the generation each database was last patched at, and
/// the session's coverages. Nothing else carries over between rounds,
/// so `k` runs of one round append the deltas one run of `k` rounds
/// would.
///
/// A picked database whose directory cannot be read (or holds no
/// document) is skipped and reported, and sits out the rest of the run;
/// unpatched, it stays the stalest database of the chain, so the next
/// run tries it first. A round whose every pick is skipped appends
/// nothing.
///
/// Returns the per-round report: which databases each round touched (and
/// skipped), the round's wall time, and the delta's size on disk — the
/// evidence that refresh cost scales with the touched set, not the
/// catalog.
pub fn refresh(chain_dir: &Path, specs: &[DbSpec], options: &RefreshOptions) -> io::Result<String> {
    let probe = &options.probe;
    let base = chain_dir.join(store::delta::BASE_FILE);
    if !base.is_file() {
        let base = base.display();
        let message = format!(
            "{base}: no chain to refresh; start one with `dbselect freeze --store STORE --out {base}`"
        );
        return Err(io::Error::new(io::ErrorKind::NotFound, message));
    }
    let mut chain = store::delta::load_chain(chain_dir)?;
    let mut writer = ChainWriter::resume(chain_dir, &chain)?;
    let mut patched_at = std::mem::take(&mut chain.patched_at);
    let mut session = RefreshSession::resume(chain);

    // Map specs onto chain indices by database name.
    let mut spec_for_db: Vec<Option<&DbSpec>> = vec![None; session.len()];
    for spec in specs {
        let Some(db) = session.names().iter().position(|n| *n == spec.name) else {
            let unknown = format!(
                "{}: no such database in chain {}",
                spec.name,
                chain_dir.display()
            );
            return Err(io::Error::new(io::ErrorKind::InvalidInput, unknown));
        };
        spec_for_db[db] = Some(spec);
    }
    if spec_for_db.iter().all(Option::is_none) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "refresh requires at least one NAME=CATEGORY/PATH=DIR spec",
        ));
    }

    let analyzer = Analyzer::english();
    let pipeline = qbs_pipeline(probe.sample_size);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "refreshing {} of {} databases per round over {} from generation {} ({} rounds, seed {})",
        options.budget.min(specs.len()),
        session.len(),
        chain_dir.display(),
        writer.generation(),
        options.rounds,
        probe.seed,
    );
    for round in 0..options.rounds {
        let started = Instant::now();
        let standings: Vec<Standing> = (0..session.len())
            .map(|db| Standing {
                patched_at: patched_at[db],
                coverage: session.coverage(db),
                eligible: spec_for_db[db].is_some(),
            })
            .collect();
        let picks = pick_round(&standings, writer.generation(), options.budget, probe.seed);
        if picks.is_empty() {
            let _ = writeln!(out, "round {}: nothing eligible to refresh", round + 1);
            continue;
        }

        // Re-read the picked databases' directories (content may have
        // drifted since the last probe), interning new vocabulary into
        // the session dictionary. A database whose directory cannot be
        // read, or holds no document, is reported and sits out the rest
        // of the run; the rest of the round goes ahead.
        let (mut refreshed, mut reloaded, mut names) = (Vec::new(), Vec::new(), Vec::new());
        for &db in &picks {
            let spec = spec_for_db[db].expect("only databases with a spec are picked");
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
                    names.push(spec.name.as_str());
                }
                Err(e) => {
                    spec_for_db[db] = None;
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

        let summaries: Vec<ContentSummary> = if probe.full {
            reloaded.iter().map(ContentSummary::perfect).collect()
        } else {
            let refs: Vec<&IndexedDatabase> = reloaded.iter().collect();
            let lexicon = bootstrap_lexicon(&refs);
            // Seed by chain generation so every round probes differently
            // but the whole run stays deterministic.
            let round_seed = probe.seed ^ (writer.generation() + 1);
            profile_qbs_many(&refs, &lexicon, &pipeline, round_seed, probe.threads)
                .into_iter()
                .map(|profile| profile.summary)
                .collect()
        };

        let mut patches = Vec::with_capacity(refreshed.len());
        for (&db, summary) in refreshed.iter().zip(summaries) {
            patches.push(session.apply_probe(db, summary));
        }
        let generation = writer.append_round(session.dict(), patches)?;
        for &db in &refreshed {
            patched_at[db] = generation;
        }
        let delta_path = chain_dir.join(store::delta::delta_file_name(generation));
        let bytes = std::fs::metadata(&delta_path).map(|m| m.len()).unwrap_or(0);
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

    /// A v1 catalog of three databases, written by the retired v1 writer.
    const V1_FIXTURE: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../store/tests/fixtures/v1-tiny.catalog"
    );

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
        let options = RouteOptions {
            algo: CliAlgorithm::Served(Algo::Cori),
            ..Default::default()
        };
        let report = select(&store, &["hypertension".into(), "blood".into()], &options);
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

        // Fit the shrinkage λs, write the v4 snapshot (as `dbselect
        // freeze --store` does), and serve the snapshot.
        let v4_path = root.join("collection.snapshot");
        ServingSnapshot::from_stored(&StoredCatalog::freeze(store, CategoryWeighting::BySize))
            .save(&v4_path)
            .unwrap();
        let frozen = ServingState::load(v4_path.to_str().unwrap(), 0).unwrap();

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

        // A v1 catalog is not served: loading it names the migration.
        let Err(err) = ServingState::load(V1_FIXTURE, 0) else {
            panic!("a v1 catalog must not load for serving");
        };
        assert!(
            err.to_string().contains("dbselect freeze --catalog"),
            "{err}"
        );

        std::fs::remove_dir_all(&root).ok();
    }

    /// `freeze --catalog` migrates a v1 catalog into exactly the snapshot
    /// `freeze --store` writes of the store it embeds.
    #[test]
    fn freeze_migrates_a_v1_catalog_to_the_snapshot_of_its_store() {
        let root = temp_root("migrate");
        let (store, migrated, fitted) = (
            root.join("embedded.store"),
            root.join("migrated.snap"),
            root.join("fitted.snap"),
        );
        let v1 = StoredCatalog::load(V1_FIXTURE).unwrap();
        v1.store.save(&store).unwrap();
        let freeze = |from: &str, input: &Path, out: &Path| {
            let line = format!("freeze {from} {} --out {}", input.display(), out.display());
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            commands::run(&args).unwrap();
        };
        freeze("--catalog", Path::new(V1_FIXTURE), &migrated);
        freeze("--store", &store, &fitted);
        let bytes = std::fs::read(&migrated).unwrap();
        assert_eq!(&bytes[..8], b"DBSSNP\x00\x04");
        assert!(bytes == std::fs::read(&fitted).unwrap());
        std::fs::remove_dir_all(&root).ok();
    }

    /// Index the corpus under `root` and start a chain in `root/<chain>`
    /// the way the pipeline does: `dbselect freeze --store STORE --out
    /// <chain>/base.snap`.
    fn start_chain(root: &Path, specs: &[DbSpec], chain: &str) -> std::path::PathBuf {
        let store_path = root.join("collection.store");
        if !store_path.exists() {
            let full = IndexOptions {
                full: true,
                ..Default::default()
            };
            build_store(specs, &full)
                .unwrap()
                .save(&store_path)
                .unwrap();
        }
        let dir = root.join(chain);
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join(store::delta::BASE_FILE);
        let line = format!(
            "freeze --store {} --out {}",
            store_path.display(),
            base.display()
        );
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        commands::run(&args).unwrap();
        dir
    }

    #[test]
    fn refresh_appends_deltas_that_replay_bit_identically() {
        let root = temp_root("refresh");
        write_corpus(&root);
        let specs = specs(&root);
        let chain = start_chain(&root, &specs, "chain");

        // Drift the heart database before the first refresh round.
        std::fs::write(
            root.join("heart/doc9.txt"),
            "Arrhythmia monitoring with a wearable electrocardiogram",
        )
        .unwrap();

        let probe = IndexOptions {
            seed: 9,
            full: true,
            ..Default::default()
        };
        let options = RefreshOptions {
            rounds: 2,
            budget: 1,
            probe,
            ..Default::default()
        };
        let report = refresh(&chain, &specs, &options).unwrap();
        assert!(report.contains("from generation 0"), "{report}");
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

        // A chain that holds deltas resumes at its tip.
        let report = refresh(&chain, &specs, &options).unwrap();
        assert!(report.contains("from generation 2"), "{report}");
        assert!(report.contains("round 1 -> generation 3"), "{report}");
        assert!(report.contains("round 2 -> generation 4"), "{report}");
        let replayed = store::delta::load_chain(&chain).unwrap();
        assert_eq!(replayed.generation, 4);
        let tip = format!(
            "chain tip: generation 4 (checksum {:016x})",
            replayed.checksum
        );
        assert!(report.contains(&tip), "{report}");

        // A directory without a base names the freeze that starts one.
        let err = refresh(&root.join("x-chain"), &specs, &options).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("dbselect freeze --store"), "{err}");

        // Unknown spec names fail fast, naming the chain.
        let bogus = DbSpec {
            name: "no-such-db".into(),
            category: "X".into(),
            dir: root.join("heart").to_string_lossy().into_owned(),
        };
        let err = refresh(&chain, &[bogus], &options).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(chain.to_str().unwrap()), "{err}");

        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn refresh_skips_an_unreadable_database_and_keeps_the_round() {
        let root = temp_root("refresh-skip");
        write_corpus(&root);
        let specs = specs(&root);
        let (reference, chain, empty) = (
            start_chain(&root, &specs, "reference-chain"),
            start_chain(&root, &specs, "chain"),
            start_chain(&root, &specs, "empty-chain"),
        );
        std::fs::write(root.join("heart/doc9.txt"), "Arrhythmia monitoring").unwrap();
        let probe = IndexOptions {
            seed: 3,
            full: true,
            ..Default::default()
        };
        let options = RefreshOptions {
            rounds: 1,
            budget: 2,
            probe,
            ..Default::default()
        };

        // The reference: a chain refreshing the heart database alone.
        let heart_only: Vec<DbSpec> = specs
            .iter()
            .filter(|s| s.name == "heart-db")
            .cloned()
            .collect();
        refresh(&reference, &heart_only, &options).unwrap();

        // Both databases picked, but the soccer directory is gone after the
        // base was written: the round refreshes heart-db, reports the skip,
        // and appends the very delta the heart-only run appended — the
        // failed read interned nothing.
        std::fs::remove_dir_all(root.join("soccer")).unwrap();
        let report = refresh(&chain, &specs, &options).unwrap();
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
        let report = refresh(&empty, &specs, &options).unwrap();
        assert!(report.contains("skipped heart-db"), "{report}");
        assert!(report.contains("every pick skipped"), "{report}");
        assert_eq!(store::delta::chain_tip_generation(&empty).unwrap(), 0);

        std::fs::remove_dir_all(&root).ok();
    }

    /// The files of a chain directory, sorted by name, with their bytes.
    fn chain_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let bytes = std::fs::read(e.path()).unwrap();
                (e.file_name().into_string().unwrap(), bytes)
            })
            .collect();
        files.sort();
        files
    }

    /// Which databases a round re-probes is read off the chain, so four
    /// one-round runs write, byte for byte, the deltas one four-round
    /// run writes — with exact re-reads and with sampled re-probes.
    #[test]
    fn one_round_runs_append_the_deltas_of_one_long_run() {
        let root = temp_root("refresh-compose");
        write_corpus(&root);
        let specs = specs(&root);
        for full in [true, false] {
            let (runs, session) = (format!("runs-{full}"), format!("session-{full}"));
            let (runs, session) = (
                start_chain(&root, &specs, &runs),
                start_chain(&root, &specs, &session),
            );
            let probe = IndexOptions {
                sample_size: 3,
                full,
                seed: 5,
                threads: 1,
            };
            let one = RefreshOptions {
                rounds: 1,
                budget: 1,
                probe,
                ..Default::default()
            };
            let mut picked = Vec::new();
            for generation in 1..=4 {
                let report = refresh(&runs, &specs, &one).unwrap();
                let round = format!("round 1 -> generation {generation}: refreshed ");
                let at = report.find(&round).expect(&report) + round.len();
                picked.push(report[at..].split(' ').next().unwrap().to_string());
            }
            // Both databases come up, in turn.
            assert_eq!(picked[0], picked[2], "full = {full}");
            assert_eq!(picked[1], picked[3], "full = {full}");
            assert_ne!(picked[0], picked[1], "full = {full}");

            let long = RefreshOptions { rounds: 4, ..one };
            refresh(&session, &specs, &long).unwrap();
            let (ours, theirs) = (chain_bytes(&runs), chain_bytes(&session));
            assert_eq!((ours.len(), theirs.len()), (5, 5), "base + 4 deltas");
            for ((name, a), (other, b)) in ours.iter().zip(&theirs) {
                assert_eq!(name, other);
                assert!(a == b, "full = {full}: {name} differs");
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// A database whose directory cannot be read is skipped once and sits
    /// out the rest of the run; unpatched, it is the stalest database of
    /// the chain, so the next run picks it first.
    #[test]
    fn an_unreadable_database_sits_out_the_run_and_leads_the_next() {
        let root = temp_root("refresh-sit-out");
        write_corpus(&root);
        let specs = specs(&root);
        let chain = start_chain(&root, &specs, "chain");
        let probe = IndexOptions {
            seed: 1,
            full: true,
            ..Default::default()
        };
        let options = RefreshOptions {
            rounds: 2,
            budget: 1,
            probe,
            ..Default::default()
        };
        // Seed 1 puts soccer-db first among equals.
        std::fs::rename(root.join("soccer"), root.join("soccer-away")).unwrap();
        let report = refresh(&chain, &specs, &options).unwrap();
        assert_eq!(report.matches("skipped soccer-db").count(), 1, "{report}");
        assert!(report.contains("round 1: every pick skipped"), "{report}");
        assert!(
            report.contains("round 2 -> generation 1: refreshed heart-db in"),
            "{report}"
        );
        assert_eq!(store::delta::load_chain(&chain).unwrap().patched_at, [1, 0]);

        std::fs::rename(root.join("soccer-away"), root.join("soccer")).unwrap();
        let once = RefreshOptions {
            rounds: 1,
            ..options
        };
        let report = refresh(&chain, &specs, &once).unwrap();
        assert!(
            report.contains("round 1 -> generation 2: refreshed soccer-db in"),
            "{report}"
        );
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
                        let options = RouteOptions {
                            algo,
                            shrinkage,
                            k: 5,
                            threads: 1,
                        };
                        let selected = select(&store, &words, &options);
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
        let options = RouteOptions {
            algo: CliAlgorithm::Served(Algo::BGloss),
            shrinkage: ShrinkageMode::Never,
            ..Default::default()
        };
        let report = select(&store, &["xylophone".into()], &options);
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
