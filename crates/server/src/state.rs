//! The immutable serving state behind one catalog generation.
//!
//! A [`ServingState`] freezes everything a request needs: the serving
//! snapshot's sidecar tables (term dictionary, category paths, LM's
//! global model), the columnar broker [`Catalog`], one
//! [`SelectionEngine`] per (algorithm, shrinkage mode) pair, and one
//! [`MomentTable`] per algorithm, which its three engines share and its
//! `Adaptive` engine's uncertainty test reads (built here, once per
//! generation, off the request path). States are shared as
//! `Arc<ServingState>`; `/admin/reload` builds a fresh state off to the
//! side and swaps the `Arc` — in-flight requests keep routing against the
//! generation they started with, so a swap never fails them.
//!
//! A state serves what `dbselect freeze` and `dbselect refresh` write: a
//! v4 [`ServingSnapshot`] file (a straight array read: no EM, no mixing —
//! shrunk summaries stay factored) or a delta-chain directory, both read
//! by [`store::delta::load_served`]. A v1 catalog is refused, naming the
//! `dbselect freeze` migration.
//!
//! `dbselect route` and `dbselect select` route through a state too, with
//! its [`ServingState::analyze`] and [`ServingState::engine`], so a query
//! served over HTTP ranks bit-identically to the same query routed from
//! the command line.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use broker::{Catalog, MomentTable, SelectionEngine, ShardPlan, ShardedEngine};
use selection::{AdaptiveConfig, BGloss, Cori, Lm, SelectionAlgorithm, ShrinkageMode};
use store::snapshot::ServingSnapshot;
use textindex::{Analyzer, TermDict, TermId};

/// The scoring algorithms the daemon serves (summary-based only; ReDDE
/// needs raw samples and stays a CLI concern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algo {
    /// bGlOSS.
    BGloss,
    /// CORI (default).
    #[default]
    Cori,
    /// Language modelling.
    Lm,
}

impl Algo {
    /// Parse a request's `algo` field.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "bgloss" => Ok(Algo::BGloss),
            "cori" => Ok(Algo::Cori),
            "lm" => Ok(Algo::Lm),
            other => Err(format!("unknown algorithm `{other}` (bgloss|cori|lm)")),
        }
    }

    /// All served algorithms.
    pub fn all() -> [Algo; 3] {
        [Algo::BGloss, Algo::Cori, Algo::Lm]
    }

    /// Position in [`Algo::all`] (and in `metrics::ALGO_LABELS`).
    pub(crate) fn index(self) -> usize {
        match self {
            Algo::BGloss => 0,
            Algo::Cori => 1,
            Algo::Lm => 2,
        }
    }
}

/// Parse a request's `shrinkage` field.
pub fn parse_shrinkage(s: &str) -> Result<ShrinkageMode, String> {
    match s {
        "adaptive" => Ok(ShrinkageMode::Adaptive),
        "always" => Ok(ShrinkageMode::Always),
        "never" => Ok(ShrinkageMode::Never),
        other => Err(format!(
            "unknown shrinkage mode `{other}` (adaptive|always|never)"
        )),
    }
}

/// All shrinkage modes, in engine-table order.
pub const MODES: [ShrinkageMode; 3] = [
    ShrinkageMode::Adaptive,
    ShrinkageMode::Always,
    ShrinkageMode::Never,
];

fn mode_index(mode: ShrinkageMode) -> usize {
    match mode {
        ShrinkageMode::Adaptive => 0,
        ShrinkageMode::Always => 1,
        ShrinkageMode::Never => 2,
    }
}

/// A list of strings stored end to end in one buffer, which keeps its
/// capacity when the list is cleared.
#[derive(Debug, Default)]
struct Packed {
    text: String,
    /// Where each string ends in `text`.
    ends: Vec<usize>,
}

impl Packed {
    fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    /// Append the string `write` appends to the buffer.
    fn push(&mut self, write: impl FnOnce(&mut String)) {
        write(&mut self.text);
        self.ends.push(self.text.len());
    }

    fn get(&self, at: usize) -> &str {
        let start = at.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start..self.ends[at]]
    }

    fn iter(&self) -> impl Iterator<Item = &str> + Clone {
        (0..self.ends.len()).map(|at| self.get(at))
    }
}

/// One query's analysis ([`ServingState::analyze_into`]), in buffers a
/// serving thread reuses from request to request.
#[derive(Debug, Default)]
pub struct Analysis {
    /// The query's distinct dictionary terms, in first-seen order.
    pub query: Vec<TermId>,
    /// The words profiling never saw, as sent.
    unknown: Packed,
    /// The analyzer's output for the word at hand.
    term: String,
}

impl Analysis {
    /// The words profiling never saw, in query order.
    pub fn unknown(&self) -> impl Iterator<Item = &str> + Clone {
        self.unknown.iter()
    }
}

/// One catalog generation, frozen for serving.
pub struct ServingState {
    dict: TermDict,
    categories: Vec<String>,
    /// Every database's ranking-entry names, `"database":…,"category":…`
    /// ([`crate::json::write_names`]), written once per generation so a
    /// response copies them instead of escaping two strings per entry.
    fragments: Packed,
    catalog: Arc<Catalog>,
    analyzer: Analyzer,
    /// `engines[algo.index() * 3 + mode_index(mode)]`.
    engines: Vec<Arc<SelectionEngine>>,
    /// In-process scatter-gather wrapper per engine slot (same indexing as
    /// `engines`), all over one [`ShardPlan`] of the one catalog; empty
    /// unless built by one of the `_sharded` constructors, which the daemon
    /// never calls (the benchmark's `broker.shard.*` rows and tests do).
    sharded: Vec<ShardedEngine>,
    /// The path this state was loaded from (default for reloads).
    source: String,
    /// Wall-clock seconds spent loading and freezing this generation.
    load_seconds: f64,
    /// On-disk byte size of the catalog file this state came from.
    snapshot_bytes: u64,
    /// FNV-1a content checksum of the catalog file (the v4 snapshot's
    /// stored payload digest; 0 when built in memory). `/readyz` reports
    /// it so operators can tell whether two daemons serve the same bytes.
    checksum: u64,
    /// Tip generation of the delta chain this state was loaded from
    /// (0 for plain single-file snapshots and in-memory states). Reload
    /// enforces that swaps never move this backwards.
    catalog_generation: u64,
}

impl ServingState {
    /// Build a state from a serving snapshot (already in final form).
    /// `cache_capacity` is inert (it sized the posterior cache the
    /// [`MomentTable`] replaced) and goes once the benchmark harness, which
    /// passes it, has been moved off it.
    pub fn from_snapshot(snapshot: ServingSnapshot, source: String, cache_capacity: usize) -> Self {
        ServingState::from_snapshot_sharded(snapshot, source, cache_capacity, 1)
    }

    /// [`from_snapshot`](Self::from_snapshot), plus a
    /// [`sharded_engine`](Self::sharded_engine) per slot over `shards`
    /// contiguous catalog shards when `shards > 1`. The daemon never asks
    /// for one (a backend's shard comes with each request); the benchmark
    /// measures the in-process scatter through it.
    pub fn from_snapshot_sharded(
        snapshot: ServingSnapshot,
        source: String,
        _cache_capacity: usize,
        shards: usize,
    ) -> Self {
        let ServingSnapshot {
            dict,
            categories,
            lm_global,
            catalog,
        } = snapshot;
        let catalog = Arc::new(catalog);
        let global: HashMap<TermId, f64> = lm_global.into_iter().collect();
        let algorithms: [Arc<dyn SelectionAlgorithm + Send + Sync>; 3] = [
            Arc::new(BGloss),
            Arc::new(Cori::default()),
            Arc::new(Lm::from_global_map(0.5, global)),
        ];
        // One pass over the full catalog's posterior grids. Derived, never
        // persisted: CORI's rows depend on `mcw`, which every refresh moves.
        let config = AdaptiveConfig::default();
        // All three have a form; `SelectionEngine::with_table` refuses any
        // algorithm without one.
        let forms: Vec<_> = algorithms
            .iter()
            .filter_map(|a| a.independent_terms())
            .collect();
        let tables = MomentTable::build(&catalog, &forms, config.uncertainty.grid_points);
        let mut engines = Vec::with_capacity(9);
        for (algorithm, table) in algorithms.iter().zip(tables) {
            let table = Arc::new(table);
            for mode in MODES {
                engines.push(Arc::new(SelectionEngine::with_table(
                    Arc::clone(&catalog),
                    Arc::clone(algorithm),
                    AdaptiveConfig { mode, ..config },
                    Arc::clone(&table),
                )));
            }
        }
        let sharded = if shards > 1 && !catalog.is_empty() {
            let plan = Arc::new(ShardPlan::contiguous(catalog.len(), shards));
            let scatter = |engine: &Arc<SelectionEngine>| {
                ShardedEngine::new(Arc::clone(engine), Arc::clone(&plan), shards)
                    .expect("a contiguous plan over the catalog covers it")
            };
            engines.iter().map(scatter).collect()
        } else {
            Vec::new()
        };
        let mut fragments = Packed::default();
        for (name, category) in catalog.names().iter().zip(&categories) {
            fragments.push(|text| crate::json::write_names(text, name, category));
        }
        ServingState {
            dict,
            categories,
            fragments,
            catalog,
            analyzer: Analyzer::english(),
            engines,
            sharded,
            source,
            load_seconds: 0.0,
            snapshot_bytes: 0,
            checksum: 0,
            catalog_generation: 0,
        }
    }

    /// Load a v4 snapshot file or a delta-chain directory
    /// ([`store::delta::load_served`]) for serving, recording load
    /// latency, on-disk size, checksum and chain generation.
    pub fn load(path: &str, cache_capacity: usize) -> io::Result<Self> {
        ServingState::load_sharded(path, cache_capacity, 1)
    }

    /// [`load`](Self::load) with the in-process scatter of
    /// [`from_snapshot_sharded`](Self::from_snapshot_sharded) (`shards <= 1`
    /// builds none); kept for the benchmark and the refresh tests.
    pub fn load_sharded(path: &str, cache_capacity: usize, shards: usize) -> io::Result<Self> {
        let started = Instant::now();
        let loaded = store::delta::load_served(path)?;
        let mut state = ServingState::from_snapshot_sharded(
            loaded.snapshot,
            path.to_string(),
            cache_capacity,
            shards,
        );
        state.load_seconds = started.elapsed().as_secs_f64();
        state.snapshot_bytes = loaded.bytes;
        state.checksum = loaded.checksum;
        // The tip generation keeps swaps monotone.
        state.catalog_generation = loaded.generation;
        Ok(state)
    }

    /// The engine serving `(algo, mode)`.
    pub fn engine(&self, algo: Algo, mode: ShrinkageMode) -> &SelectionEngine {
        &self.engines[algo.index() * MODES.len() + mode_index(mode)]
    }

    /// The in-process scatter-gather engine for `(algo, mode)`, when this
    /// state was built with `shards > 1`; what the benchmark's
    /// `broker.shard.*` rows time.
    pub fn sharded_engine(&self, algo: Algo, mode: ShrinkageMode) -> Option<&ShardedEngine> {
        self.sharded
            .get(algo.index() * MODES.len() + mode_index(mode))
    }

    /// The served catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The path this state was loaded from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Wall-clock seconds the load of this generation took (0 when the
    /// state was built in memory rather than loaded from a file).
    pub fn load_seconds(&self) -> f64 {
        self.load_seconds
    }

    /// On-disk byte size of this generation's catalog file (0 when built
    /// in memory).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }

    /// Content checksum of this generation's catalog file (0 when built
    /// in memory); see [`store::delta::load_served`].
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Delta-chain tip generation this state serves (0 for plain
    /// snapshots). The reload path refuses to replace a state with one
    /// whose chain generation is lower.
    pub fn catalog_generation(&self) -> u64 {
        self.catalog_generation
    }

    /// Number of served databases.
    pub fn databases(&self) -> usize {
        self.catalog.len()
    }

    /// Number of dictionary terms.
    pub fn terms(&self) -> usize {
        self.dict.len()
    }

    /// Database name by catalog index.
    pub fn name(&self, index: usize) -> &str {
        &self.catalog.names()[index]
    }

    /// Full category path of a database.
    pub fn category_path(&self, index: usize) -> &str {
        &self.categories[index]
    }

    /// [`category_path`](Self::category_path), owned.
    pub fn category(&self, index: usize) -> String {
        self.category_path(index).to_string()
    }

    /// Database `index`'s `"database":…,"category":…` text, escaped.
    pub(crate) fn names_fragment(&self, index: usize) -> &str {
        self.fragments.get(index)
    }

    /// Tokenize query words against the dictionary, deduplicating and
    /// collecting words profiling never saw.
    pub fn analyze(&self, words: &[String]) -> (Vec<TermId>, Vec<String>) {
        let mut analysis = Analysis::default();
        self.analyze_into(words.iter().map(String::as_str), &mut analysis);
        let unknown = analysis.unknown().map(str::to_string).collect();
        (analysis.query, unknown)
    }

    /// [`analyze`](Self::analyze) into `out`, overwriting it and reusing
    /// its buffers.
    pub fn analyze_into<'w>(&self, words: impl IntoIterator<Item = &'w str>, out: &mut Analysis) {
        out.query.clear();
        out.unknown.clear();
        for word in words {
            let kept = self.analyzer.analyze_term_into(word, &mut out.term);
            match kept.then(|| self.dict.lookup(&out.term)).flatten() {
                Some(id) if !out.query.contains(&id) => out.query.push(id),
                Some(_) => {}
                None => out.unknown.push(|text| text.push_str(word)),
            }
        }
    }
}
