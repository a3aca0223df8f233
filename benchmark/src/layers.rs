//! Every typed call the benchmark makes into the crates it measures.
//!
//! End-to-end runs reach the daemon over loopback HTTP only; what needs a
//! Rust type — building the fixture, booting the daemon in-process, the
//! in-process oracle the served bytes are compared with, and the traced
//! replay of `/route`'s stages — goes through this file and no other.
//! A change that must alter one of these signatures is preceded by a
//! benchmark-only change that re-measures the baseline.
//!
//! corpus     `TestBedConfig::tiny` (public fields `num_databases`,
//!            `num_queries`), `TestBedConfig::build`, `TestBed` fields
//!            `databases` `dict` `hierarchy` `queries` `relevance`
//!            `seed_lexicon`, `Query::terms`
//! sampling   `profile_qbs`, `PipelineConfig`, `scheduler::db_rng`
//! core       `CategoryWeighting::BySize`, `ContentSummary`,
//!            `uncertainty::WordPosterior::new`
//! store      `CollectionStore`, `StoredDatabase`, `StoredCatalog::freeze`,
//!            `ServingSnapshot::{from_stored, save, load}`,
//!            `RefreshSession::{new, freeze_full, apply_probe, dict}`,
//!            `ChainWriter::{create, append_round, generation}`,
//!            `delta::{load_chain, delta_file_name, BASE_FILE}`
//! server     `ServerConfig` (naming only `addr`, `workers`,
//!            `queue_capacity`, `deadline`, `idle_timeout`,
//!            `refresh_interval`), `Server::{bind, local_addr, run}`,
//!            `ServingState::{load, load_sharded, from_snapshot, analyze,
//!            engine, sharded_engine, catalog, name, category}`,
//!            `state::{Algo::parse, parse_shrinkage}`,
//!            `http::{try_parse, Limits, Response::json, write_response}`,
//!            `json::Json`
//! broker     `SelectionEngine::{choose_summaries, score_partition_topk,
//!            route_topk, algorithm, config}`, `RouteScratch`,
//!            `Catalog::{len, names, candidates, scoring_context,
//!            unshrunk_context, unshrunk, shrunk, gamma, term_bound,
//!            min_word_count}`, `ShardedEngine::route_topk`
//! selection  `ShrinkageMode`, `AdaptiveOutcome`,
//!            `score_is_uncertain_with_posteriors`,
//!            `SelectionAlgorithm::score_kernel`,
//!            `ScoreKernel::{space, prepare, score_rows}`, `ProbabilitySpace`
//! eval       `rk::rk`

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use broker::RouteScratch;
use corpus::{TestBed, TestBedConfig};
use dbselect_core::category_summary::CategoryWeighting;
use dbselect_core::summary::ContentSummary;
use dbselect_core::uncertainty::WordPosterior;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::scheduler::db_rng;
use sampling::{profile_qbs, PipelineConfig};
use selection::{
    score_is_uncertain_with_posteriors, AdaptiveOutcome, ProbabilitySpace, ShrinkageMode,
};
use server::http::{self, Limits, ParseStatus, Response};
use server::state::{parse_shrinkage, Algo, ServingState};
use server::{Server, ServerConfig};
use store::catalog::StoredCatalog;
use store::delta::{delta_file_name, load_chain, ChainWriter, BASE_FILE};
use store::refresh::RefreshSession;
use store::snapshot::ServingSnapshot;
use store::{CollectionStore, StoredDatabase};

pub use server::json::Json;

use crate::trace::Trace;

/// `seed` and `index` the daemon assumes when a `/route` body names
/// neither; the oracle draws the same Monte-Carlo stream.
const DEFAULT_ROUTE_SEED: u64 = 42;
const DEFAULT_ROUTE_INDEX: usize = 0;

/// The scorers of the paper, in the order the request pool cycles them.
pub const ALGOS: [&str; 3] = ["cori", "bgloss", "lm"];

fn invalid(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, detail)
}

fn path_str(path: &Path) -> io::Result<&str> {
    path.to_str()
        .ok_or_else(|| invalid(format!("{}: path is not UTF-8", path.display())))
}

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        frequency_estimation: true,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Input generation
// ---------------------------------------------------------------------

/// The generated collection: databases with ground truth, evaluation
/// queries, relevance judgments. Input generation — never timed as set-up.
pub struct Testbed {
    bed: TestBed,
}

impl Testbed {
    /// `TestBedConfig::tiny(seed)`'s topic model over `databases`
    /// databases with `queries` TREC-short queries.
    pub fn build(seed: u64, databases: usize, queries: usize) -> Testbed {
        let mut config = TestBedConfig::tiny(seed);
        config.num_databases = databases;
        config.num_queries = queries;
        Testbed {
            bed: config.build(),
        }
    }

    pub fn databases(&self) -> usize {
        self.bed.databases.len()
    }

    /// Every query spelled out as words, so it can travel in a JSON body.
    pub fn query_words(&self) -> Vec<Vec<String>> {
        self.bed
            .queries
            .iter()
            .map(|q| {
                q.terms
                    .iter()
                    .map(|&t| self.bed.dict.term(t).to_string())
                    .collect()
            })
            .collect()
    }

    /// `R_k` of a served ranking (catalog indices, best first) for query
    /// `query`; `None` when the query has no relevant document anywhere.
    pub fn rk(&self, query: usize, ranking: &[usize], k: usize) -> Option<f64> {
        eval::rk::rk(ranking, &self.bed.relevance[query], k)
    }

    fn profile_all(&self, seed: u64) -> Vec<StoredDatabase> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pipeline = pipeline();
        self.bed
            .databases
            .iter()
            .map(|tdb| {
                let profile = profile_qbs(&tdb.db, &self.bed.seed_lexicon, &pipeline, &mut rng);
                StoredDatabase {
                    name: tdb.name.clone(),
                    classification: tdb.category,
                    summary: profile.summary,
                    sample_docs: profile.sample.docs.into_iter().map(|d| d.tokens).collect(),
                }
            })
            .collect()
    }

    fn freeze(&self, databases: Vec<StoredDatabase>) -> StoredCatalog {
        let store = CollectionStore {
            dict: self.bed.dict.clone(),
            hierarchy: self.bed.hierarchy.clone(),
            databases,
        };
        StoredCatalog::freeze(store, CategoryWeighting::BySize)
    }
}

// ---------------------------------------------------------------------
// The offline pipeline and the refresh path
// ---------------------------------------------------------------------

/// Wall time of each offline step, seconds (traced runs only).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    pub profile_s: f64,
    pub em_fit_s: f64,
    pub freeze_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub state_build_s: f64,
    pub snapshot_bytes: u64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot = started.elapsed().as_secs_f64();
    out
}

/// One refresh round as the writer saw it.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub started: Instant,
    /// When `append_round` returned: the delta is durable in the
    /// directory and the daemon's next poll can pick it up.
    pub appended: Instant,
    pub apply_ns: u64,
    pub append_ns: u64,
    pub delta_bytes: u64,
}

/// Databases re-probed per round.
pub const ROUND_BUDGET: usize = 2;

/// The write side of a chain directory: the pinned-epoch session, the
/// chain writer, and the re-probe results the rounds will apply.
pub struct Refresher {
    dir: PathBuf,
    session: RefreshSession,
    writer: ChainWriter,
    probes: VecDeque<(usize, ContentSummary)>,
    /// Running count of re-probes prepared so far (picks the next database).
    next_slot: usize,
}

impl Refresher {
    /// The offline pipeline up to a servable chain directory: QBS-profile
    /// every database, fit shrinkage (EM), pin the refresh epoch, freeze
    /// the base snapshot and write it as the chain base.
    pub fn create(bed: &Testbed, seed: u64, dir: &Path) -> io::Result<Refresher> {
        let frozen = bed.freeze(bed.profile_all(seed));
        Refresher::from_frozen(frozen, dir)
    }

    fn from_frozen(frozen: StoredCatalog, dir: &Path) -> io::Result<Refresher> {
        let session = RefreshSession::new(frozen);
        let writer = ChainWriter::create(dir, &session.freeze_full())?;
        Ok(Refresher {
            dir: dir.to_path_buf(),
            session,
            writer,
            probes: VecDeque::new(),
            next_slot: 0,
        })
    }

    /// [`create`](Self::create) with every step on its own clock, plus the
    /// single-file route (`from_stored` → `save` → `load` → state build)
    /// that `dbselect freeze` / `serve` take, written to `file`.
    pub fn create_timed(
        bed: &Testbed,
        seed: u64,
        dir: &Path,
        file: &Path,
    ) -> io::Result<(Refresher, StepTimes)> {
        let mut t = StepTimes::default();
        let profiled = timed(&mut t.profile_s, || bed.profile_all(seed));
        let frozen = timed(&mut t.em_fit_s, || bed.freeze(profiled));
        let snapshot = timed(&mut t.freeze_s, || ServingSnapshot::from_stored(&frozen));
        timed(&mut t.save_s, || snapshot.save(file))?;
        drop(snapshot);
        t.snapshot_bytes = std::fs::metadata(file)?.len();
        let loaded = timed(&mut t.load_s, || ServingSnapshot::load(file))?;
        let source = path_str(file)?.to_string();
        let state = timed(&mut t.state_build_s, || {
            ServingState::from_snapshot(loaded, source, cache_capacity())
        });
        drop(state);
        Ok((Refresher::from_frozen(frozen, dir)?, t))
    }

    /// Re-probe (QBS under `seed`) the databases the next `rounds` rounds
    /// will touch: round `r` refreshes databases `2r` and `2r + 1`,
    /// wrapping around the catalog.
    pub fn prepare(&mut self, bed: &Testbed, seed: u64, rounds: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pipeline = pipeline();
        for _ in 0..rounds * ROUND_BUDGET {
            let db = self.next_slot % bed.databases();
            self.next_slot += 1;
            let tdb = &bed.bed.databases[db];
            let summary = profile_qbs(&tdb.db, &bed.bed.seed_lexicon, &pipeline, &mut rng).summary;
            self.probes.push_back((db, summary));
        }
    }

    /// One refresh round: apply `ROUND_BUDGET` re-probe results through
    /// the pinned-epoch session, then append the delta to the chain.
    pub fn round(&mut self) -> io::Result<Round> {
        if self.probes.len() < ROUND_BUDGET {
            return Err(invalid("refresh round without a prepared re-probe".into()));
        }
        let started = Instant::now();
        let mut patches = Vec::with_capacity(ROUND_BUDGET);
        for _ in 0..ROUND_BUDGET {
            let (db, summary) = self.probes.pop_front().expect("length checked above");
            patches.push(self.session.apply_probe(db, summary));
        }
        patches.sort_by_key(|p| p.db);
        let applied = Instant::now();
        let generation = self.writer.append_round(self.session.dict(), patches)?;
        let appended = Instant::now();
        let delta_bytes = std::fs::metadata(self.dir.join(delta_file_name(generation)))?.len();
        Ok(Round {
            started,
            appended,
            apply_ns: (applied - started).as_nanos() as u64,
            append_ns: (appended - applied).as_nanos() as u64,
            delta_bytes,
        })
    }

    pub fn generation(&self) -> u64 {
        self.writer.generation()
    }

    /// Wall time of a harness-side `load_chain` over the base plus the
    /// first `deltas` deltas of this chain, replayed from a scratch
    /// directory of hard links so the serving directory is not disturbed.
    pub fn load_chain_seconds(&self, deltas: u64, scratch: &Path) -> io::Result<f64> {
        std::fs::create_dir_all(scratch)?;
        let names = std::iter::once(BASE_FILE.to_string()).chain((1..=deltas).map(delta_file_name));
        for name in names {
            let to = scratch.join(&name);
            if !to.exists() {
                std::fs::hard_link(self.dir.join(&name), to)?;
            }
        }
        let started = Instant::now();
        let chain = load_chain(scratch)?;
        let elapsed = started.elapsed().as_secs_f64();
        if chain.generation != deltas {
            return Err(invalid(format!(
                "scratch chain replayed {} deltas, expected {deltas}",
                chain.generation
            )));
        }
        Ok(elapsed)
    }
}

// ---------------------------------------------------------------------
// The daemon, in-process
// ---------------------------------------------------------------------

fn cache_capacity() -> usize {
    ServerConfig::default().cache_capacity
}

/// How often the daemon's refresher polls its chain directory. Short, so
/// the poll phase (uniform over one interval) stays a small part of the
/// swap-visibility metric instead of its main source of spread.
pub const REFRESH_INTERVAL: Duration = Duration::from_millis(10);

/// A `dbselectd` serving `source` on a loopback port: one worker plus its
/// reactor thread (the machine has two cores and the load generator needs
/// the other), refresher polling every [`REFRESH_INTERVAL`].
pub struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Daemon {
    pub fn boot(source: &Path) -> io::Result<Daemon> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 256,
            deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            refresh_interval: Some(REFRESH_INTERVAL),
            ..Default::default()
        };
        let state = ServingState::load(path_str(source)?, config.cache_capacity)?;
        let server = Server::bind(config, state)?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, thread })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for `run` to return; the caller has already posted
    /// `/admin/shutdown`.
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

// ---------------------------------------------------------------------
// The oracle: the library, on a state loaded from the served files
// ---------------------------------------------------------------------

/// One `/route` request as the harness models it.
#[derive(Debug, Clone)]
pub struct RouteRequest {
    /// Index into the testbed's query set (for relevance lookups).
    pub query: usize,
    pub words: Vec<String>,
    pub algo: &'static str,
    /// `None` leaves the daemon's default (adaptive).
    pub shrinkage: Option<&'static str>,
    /// `None` asks for the full ranking.
    pub k: Option<usize>,
}

impl RouteRequest {
    /// The JSON body sent to the daemon. No `seed`, `index` or `shard`.
    pub fn body(&self) -> String {
        let mut fields = vec![
            ("query".to_string(), Json::Str(self.words.join(" "))),
            ("algo".to_string(), Json::Str(self.algo.to_string())),
        ];
        if let Some(k) = self.k {
            fields.push(("k".to_string(), Json::Num(k as f64)));
        }
        if let Some(mode) = self.shrinkage {
            fields.push(("shrinkage".to_string(), Json::Str(mode.to_string())));
        }
        Json::obj(fields).render()
    }

    fn algo(&self) -> Algo {
        Algo::parse(self.algo).expect("pool algorithms are served ones")
    }

    fn mode(&self) -> ShrinkageMode {
        self.shrinkage.map_or(ShrinkageMode::Adaptive, |m| {
            parse_shrinkage(m).expect("pool shrinkage modes are served ones")
        })
    }

    fn limit(&self) -> usize {
        self.k.unwrap_or(usize::MAX)
    }
}

/// The response body `handle_route` renders, field for field.
fn route_body(
    state: &ServingState,
    generation: u64,
    unknown: Vec<String>,
    outcome: &AdaptiveOutcome,
    k: usize,
) -> String {
    let ranking = outcome
        .ranking
        .iter()
        .take(k)
        .enumerate()
        .map(|(rank, r)| {
            Json::obj(vec![
                ("rank".to_string(), Json::Num((rank + 1) as f64)),
                (
                    "database".to_string(),
                    Json::Str(state.name(r.index).to_string()),
                ),
                ("category".to_string(), Json::Str(state.category(r.index))),
                ("score".to_string(), Json::Num(r.score)),
                (
                    "shrinkage_used".to_string(),
                    Json::Bool(outcome.used_shrinkage[r.index]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("generation".to_string(), Json::Num(generation as f64)),
        (
            "unknown".to_string(),
            Json::Arr(unknown.into_iter().map(Json::Str).collect()),
        ),
        ("ranking".to_string(), Json::Arr(ranking)),
    ])
    .render()
}

/// A `ServingState` of the harness's own, loaded from the files the
/// daemon serves. "Served == library" compares the daemon's bytes with
/// what this state routes in-process; both sides change together under
/// any internal rewrite, so the comparison survives refactors.
pub struct Oracle {
    state: ServingState,
    index_of: HashMap<String, usize>,
}

impl Oracle {
    pub fn load(source: &Path) -> io::Result<Oracle> {
        Oracle::load_sharded(source, 1)
    }

    fn load_sharded(source: &Path, shards: usize) -> io::Result<Oracle> {
        let state = ServingState::load_sharded(path_str(source)?, cache_capacity(), shards)?;
        let index_of = state
            .catalog()
            .names()
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), i))
            .collect();
        Ok(Oracle { state, index_of })
    }

    pub fn databases(&self) -> usize {
        self.state.catalog().len()
    }

    /// Catalog index of a database name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index_of.get(name).copied()
    }

    /// The body the daemon must answer `request` with at `generation`.
    pub fn expected_body(&self, request: &RouteRequest, generation: u64) -> String {
        let (query, unknown) = self.state.analyze(&request.words);
        let mut rng = db_rng(DEFAULT_ROUTE_SEED, DEFAULT_ROUTE_INDEX);
        let outcome = self
            .state
            .engine(request.algo(), request.mode())
            .route_topk(&query, request.limit(), &mut rng);
        route_body(&self.state, generation, unknown, &outcome, request.limit())
    }
}

// ---------------------------------------------------------------------
// The traced replay: `/route`'s stages, one span each
// ---------------------------------------------------------------------

/// Span names of the in-process stages, in `handle_route`'s order.
pub const STAGES: [&str; 8] = [
    "server.http.parse_us",
    "server.json.parse_us",
    "server.state.analyze_us",
    "broker.engine.choose_us",
    "broker.catalog.context_us",
    "broker.engine.score_us",
    "server.json.render_us",
    "server.http.write_us",
];

/// Root span of one replayed request.
pub const REPLAY_ROOT: &str = "replay.request";

/// Counts taken at the stage boundaries of one replay pass.
#[derive(Debug, Clone, Default)]
pub struct ReplayCounts {
    /// Per algorithm (index into [`ALGOS`]): databases routed to their
    /// shrunk summary, and (query, database) decisions taken.
    pub shrunk: [u64; 3],
    pub decisions: [u64; 3],
    /// Databases mentioning a query word, and databases looked at.
    pub candidates: u64,
    pub candidate_slots: u64,
    pub response_bytes: Vec<f64>,
}

impl Oracle {
    /// Replay `requests` through the stages `handle_route` performs, in
    /// its order, each call under its own span below a per-request root.
    /// `raw[i]` is the request's wire bytes. Returns the rendered bodies'
    /// counts; fails if a replayed body differs from `expected[i]`.
    pub fn replay(
        &self,
        requests: &[RouteRequest],
        raw: &[Vec<u8>],
        expected: &[String],
        first_request_id: u32,
        trace: &mut Trace,
    ) -> io::Result<ReplayCounts> {
        let limits = Limits::default();
        let mut counts = ReplayCounts::default();
        let mut scratch = RouteScratch::default();
        let catalog = self.state.catalog();
        for (i, request) in requests.iter().enumerate() {
            let id = first_request_id + i as u32;
            let root = trace.begin(REPLAY_ROOT, None, id);
            let stage = |trace: &mut Trace, s: usize| trace.begin(STAGES[s], Some(root), id);

            let span = stage(trace, 0);
            let parsed = http::try_parse(&raw[i], &limits);
            trace.end(span);
            let Ok(ParseStatus::Complete {
                request: http_request,
                ..
            }) = parsed
            else {
                return Err(invalid(format!("request {i} does not parse as HTTP")));
            };

            let span = stage(trace, 1);
            let body = std::str::from_utf8(&http_request.body)
                .ok()
                .and_then(|text| Json::parse(text).ok());
            trace.end(span);
            let words: Vec<String> = body
                .as_ref()
                .and_then(|b| b.get("query"))
                .and_then(Json::as_str)
                .ok_or_else(|| invalid(format!("request {i} has no `query` string")))?
                .split_whitespace()
                .map(str::to_string)
                .collect();

            let span = stage(trace, 2);
            let (query, unknown) = self.state.analyze(&words);
            trace.end(span);

            let engine = self.state.engine(request.algo(), request.mode());
            let mut rng = db_rng(DEFAULT_ROUTE_SEED, DEFAULT_ROUTE_INDEX);
            let span = stage(trace, 3);
            let used = engine.choose_summaries(&query, &mut rng, &mut scratch);
            trace.end(span);

            let span = stage(trace, 4);
            let ctx = catalog.scoring_context(&query, &used);
            trace.end(span);

            let span = stage(trace, 5);
            let ranking = engine.score_partition_topk(
                &query,
                request.limit(),
                &ctx,
                &used,
                None,
                &mut scratch,
            );
            trace.end(span);
            let outcome = AdaptiveOutcome {
                ranking,
                used_shrinkage: used,
            };

            let span = stage(trace, 6);
            let rendered = route_body(&self.state, 1, unknown, &outcome, request.limit());
            trace.end(span);

            let span = stage(trace, 7);
            let mut wire = Vec::new();
            let response = Response::json(200, rendered);
            http::write_response(&mut wire, &response, false)?;
            trace.end(span);
            trace.end(root);

            if response.body != expected[i].as_bytes() {
                return Err(invalid(format!(
                    "replayed body of request {i} differs from the served one"
                )));
            }
            black_box(&wire);
            let algo = ALGOS
                .iter()
                .position(|&a| a == request.algo)
                .expect("pool algo");
            counts.shrunk[algo] += outcome.used_shrinkage.iter().filter(|&&u| u).count() as u64;
            counts.decisions[algo] += outcome.used_shrinkage.len() as u64;
            counts.candidates += catalog.candidates(&query).iter().filter(|&&c| c).count() as u64;
            counts.candidate_slots += catalog.len() as u64;
            counts.response_bytes.push(wire.len() as f64);
        }
        Ok(counts)
    }

    /// Per-call nanoseconds of the two pieces the summary-choice phase is
    /// made of, over every (query, database) pair of `requests`:
    /// `WordPosterior::new` per query word, and the Monte-Carlo test
    /// `score_is_uncertain_with_posteriors` on the built grids.
    pub fn uncertainty_micro(&self, requests: &[RouteRequest]) -> (Vec<f64>, Vec<f64>) {
        let catalog = self.state.catalog();
        let (mut build_ns, mut test_ns) = (Vec::new(), Vec::new());
        for request in requests {
            // Always the adaptive engine: this measures the test itself,
            // whatever mode the workload's requests ask for.
            let engine = self.state.engine(request.algo(), ShrinkageMode::Adaptive);
            let algorithm = engine.algorithm();
            let config = engine.config();
            let (query, _) = self.state.analyze(&request.words);
            if query.is_empty() {
                continue;
            }
            let ctx = catalog.unshrunk_context(&query);
            let mut rng = db_rng(DEFAULT_ROUTE_SEED, DEFAULT_ROUTE_INDEX);
            for db in 0..catalog.len() {
                let summary = catalog.unshrunk(db);
                let posteriors: Vec<WordPosterior> = query
                    .iter()
                    .map(|&w| {
                        let started = Instant::now();
                        let grid = WordPosterior::new(
                            summary.sample_df(w),
                            summary.sample_size(),
                            summary.db_size(),
                            catalog.gamma(db),
                            config.uncertainty.grid_points,
                        );
                        build_ns.push(started.elapsed().as_nanos() as f64);
                        grid
                    })
                    .collect();
                let started = Instant::now();
                black_box(score_is_uncertain_with_posteriors(
                    algorithm.as_ref(),
                    &query,
                    summary,
                    &posteriors,
                    &ctx,
                    config,
                    &mut rng,
                ));
                test_ns.push(started.elapsed().as_nanos() as f64);
            }
        }
        (build_ns, test_ns)
    }

    /// Nanoseconds per row of `ScoreKernel::score_rows` for `algo` over a
    /// `rows` x 3 matrix of shrunk probabilities (the dense phase of
    /// `score_partition_topk`); `None` when the algorithm has no kernel
    /// or no pool query analyzes to three terms.
    pub fn kernel_ns_per_row(
        &self,
        algo: &'static str,
        requests: &[RouteRequest],
        rows: usize,
    ) -> Option<f64> {
        let catalog = self.state.catalog();
        let engine = self
            .state
            .engine(Algo::parse(algo).ok()?, ShrinkageMode::Always);
        let algorithm = engine.algorithm();
        let kernel = algorithm.score_kernel()?;
        let query = requests
            .iter()
            .map(|r| self.state.analyze(&r.words).0)
            .find(|q| q.len() == 3)?;
        let ctx = catalog.scoring_context(&query, &vec![true; catalog.len()]);
        let bounds: Vec<_> = query.iter().map(|&w| catalog.term_bound(w)).collect();
        let prep = kernel.prepare(&query, &ctx, &bounds, catalog.min_word_count());
        let (mut matrix, mut sizes, mut word_counts) = (Vec::new(), Vec::new(), Vec::new());
        for row in 0..rows {
            let s = catalog.shrunk(row % catalog.len());
            sizes.push(s.db_size());
            word_counts.push(s.word_count());
            matrix.extend(query.iter().map(|&w| match kernel.space() {
                ProbabilitySpace::DocumentFrequency => s.p_df(w),
                ProbabilitySpace::TokenFrequency => s.p_tf(w),
            }));
        }
        let mut scores = vec![0.0; rows];
        let mut per_row = Vec::new();
        for _ in 0..KERNEL_REPEATS {
            let started = Instant::now();
            kernel.score_rows(&prep, black_box(&matrix), &sizes, &word_counts, &mut scores);
            per_row.push(started.elapsed().as_nanos() as f64 / rows as f64);
            black_box(&scores);
        }
        crate::stats::median(&per_row)
    }
}

const KERNEL_REPEATS: usize = 400;

/// The same files served scatter-gather over two in-process shards.
pub struct ShardedOracle(Oracle);

impl ShardedOracle {
    pub fn load(source: &Path) -> io::Result<ShardedOracle> {
        Oracle::load_sharded(source, 2).map(ShardedOracle)
    }

    /// `ShardedEngine::route_topk` per request, one span each; `None`
    /// when the state did not shard (a 1-database catalog).
    pub fn route(
        &self,
        requests: &[RouteRequest],
        name: &'static str,
        trace: &mut Trace,
    ) -> Option<()> {
        let state = &self.0.state;
        for (i, request) in requests.iter().enumerate() {
            let engine = state.sharded_engine(request.algo(), request.mode())?;
            let (query, _) = state.analyze(&request.words);
            let mut rng = db_rng(DEFAULT_ROUTE_SEED, DEFAULT_ROUTE_INDEX);
            let span = trace.begin(name, None, i as u32);
            black_box(engine.route_topk(&query, request.limit(), &mut rng));
            trace.end(span);
        }
        Some(())
    }
}
