//! One run of one workload: set-up, the correctness gate, the timed
//! phases, and — in a traced run — the layer replay.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::churn;
use crate::client::{self, scrape};
use crate::gate::{self, Verified};
use crate::layers::{
    Daemon, Oracle, Refresher, Round, ShardedOracle, StepTimes, Testbed, ALGOS, REPLAY_ROOT,
    ROUND_BUDGET, STAGES,
};
use crate::load::{self, Check, Guards, PhaseLog, PhaseSummary, Sample, Target};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{Record, Value};
use crate::stats;
use crate::trace::{Span, Trace};
use crate::workloads::{self, Pool, Workload, CHURN_PERIOD_S, TAIL_PERIOD_S};

/// What to run.
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Set-ups per untraced run; `setup_s` is their median. At least two.
const SETUPS: usize = 3;
/// Shares of `--seconds`: closed loop, open loop.
const CLOSED_SHARE: f64 = 0.2;
const OPEN_SHARE: f64 = 0.8;
/// Length the closed-loop/open-loop slice pairs of an untraced run are
/// cut to, seconds: short enough that a run has many, long enough that an
/// open-loop slice of the slowest workload (100 rps) carries its own p90.
const CYCLE_S: f64 = 2.5;
/// The fewest slice pairs a run is cut into, however short.
const MIN_CYCLES: usize = 3;
/// Shares of `--seconds` in a traced run: two one-connection wire passes
/// (spans off, spans on), the open loop, the refresh tail.
const TRACED_WIRE_SHARE: f64 = 0.1;
const TRACED_OPEN_SHARE: f64 = 0.3;
const TRACED_TAIL_SHARE: f64 = 0.2;
/// Slices each wire pass of a traced run is cut into.
const WIRE_SLICES: usize = 5;
/// Warm replay passes over the pool in a traced run.
const REPLAY_PASSES: usize = 3;
/// Pool requests the uncertainty micro-measurement covers.
const MICRO_REQUESTS: usize = 12;
/// Rows of the kernel micro-measurement's matrix (the paper's Web set has
/// 315 databases).
const KERNEL_ROWS: usize = 300;
/// Deltas in the long chain `load_chain` is timed on.
const LONG_CHAIN: u64 = 20;

/// Where a run keeps its files; removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = out_dir().join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out/`: traces, result sets and work directories.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// A daemon plus the write side of the chain directory it serves.
struct Fixture {
    daemon: Daemon,
    refresher: Refresher,
    dir: PathBuf,
}

impl Fixture {
    fn addr(&self) -> SocketAddr {
        self.daemon.addr()
    }

    fn shutdown(self) -> Result<(), String> {
        let (status, _) = client::once(self.daemon.addr(), &client::post("/admin/shutdown", ""))
            .map_err(io_err("shutdown"))?;
        if status != 200 {
            return Err(format!("shutdown answered {status}"));
        }
        self.daemon.join().map_err(io_err("daemon exit"))
    }

    /// Shut the daemon down and remove its chain directory.
    fn tear_down(self) -> Result<(), String> {
        let dir = self.dir.clone();
        self.shutdown()?;
        std::fs::remove_dir_all(&dir).map_err(io_err("remove chain"))
    }
}

fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client::once(addr, &client::get("/readyz")) {
            Ok((200, _)) => return Ok(()),
            _ if Instant::now() > deadline => return Err("daemon never became ready".into()),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The whole set-up a user pays before the first query can be answered.
fn set_up(bed: &Testbed, seed: u64, dir: &Path) -> Result<(Fixture, f64), String> {
    let started = Instant::now();
    let refresher = Refresher::create(bed, seed, dir).map_err(io_err("offline pipeline"))?;
    let daemon = Daemon::boot(dir).map_err(io_err("daemon boot"))?;
    wait_ready(daemon.addr())?;
    let fixture = Fixture {
        daemon,
        refresher,
        dir: dir.to_path_buf(),
    };
    Ok((fixture, started.elapsed().as_secs_f64()))
}

fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(io_err("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}

/// Timed phases with the refresh writer where the workload asks for it.
struct Phases<'a> {
    workload: &'static Workload,
    target: Target<'a>,
    refresher: &'a mut Refresher,
    rounds: Vec<Round>,
    samples: Vec<Sample>,
    spans: Vec<Span>,
    summaries: Vec<PhaseSummary>,
}

impl<'a> Phases<'a> {
    fn new(
        workload: &'static Workload,
        target: Target<'a>,
        refresher: &'a mut Refresher,
    ) -> Phases<'a> {
        Phases {
            workload,
            target,
            refresher,
            rounds: Vec::new(),
            samples: Vec::new(),
            spans: Vec::new(),
            summaries: Vec::new(),
        }
    }

    /// Run `phase` with the refresh writer beside it (one round every
    /// `writer_period` seconds for `duration`) where there is one.
    fn beside_writer<T>(
        &mut self,
        writer_period: Option<f64>,
        duration: Duration,
        phase: impl FnOnce() -> T,
    ) -> Result<T, String> {
        let Some(period) = writer_period else {
            return Ok(phase());
        };
        let (out, rounds) = churn::beside(self.refresher, secs(period), duration, phase);
        self.rounds.extend(rounds.map_err(io_err("refresh round"))?);
        Ok(out)
    }

    /// Summarize and print what a phase's slices observed.
    fn record(&mut self, name: &'static str, slices: &[PhaseLog], guards: Guards) -> PhaseSummary {
        if slices.len() > 1 {
            for (i, (rps, p50_ms, p90_ms)) in
                slices.iter().filter_map(load::slice_stats).enumerate()
            {
                println!(
                    "slice {name:<6} {i:>2}  {rps:>9.1} rps  p50 {p50_ms:.3} ms  p90 {p90_ms:.3} ms"
                );
            }
        }
        let summary = load::summarize(name, slices, guards);
        println!("{}", summary.line());
        self.summaries.push(summary.clone());
        summary
    }

    fn run(
        &mut self,
        name: &'static str,
        writer_period: Option<f64>,
        duration: Duration,
        guards: Guards,
        phase: impl FnOnce() -> PhaseLog,
    ) -> Result<PhaseSummary, String> {
        let log = self.beside_writer(writer_period, duration, phase)?;
        let summary = self.record(name, std::slice::from_ref(&log), guards);
        // Kept for the traced run: when each swap became visible, and the
        // wire spans.
        self.samples.extend(log.samples);
        self.spans.extend(log.spans);
        Ok(summary)
    }

    /// The timed part of an untraced run: `cycles` times a closed-loop
    /// slice followed by an open-loop slice, so both phases sample the
    /// whole run and each is summarized by its best slice.
    fn cycles(
        &mut self,
        cycles: usize,
        closed_for: Duration,
        open_for: Duration,
    ) -> Result<(PhaseSummary, PhaseSummary), String> {
        let (target, rps) = (self.target, self.workload.open_rps);
        let total = (closed_for + open_for) * cycles as u32;
        let (closed, open) = self.beside_writer(self.churn_period(), total, || {
            let mut closed = Vec::with_capacity(cycles);
            let mut open = Vec::with_capacity(cycles);
            for _ in 0..cycles {
                closed.push(load::closed_loop(target, closed_for));
                open.push(load::open_loop(target, rps, open_for));
            }
            (closed, open)
        })?;
        Ok((
            self.record("closed", &closed, Guards::Closed),
            self.record("open", &open, Guards::Open),
        ))
    }

    /// The two one-connection wire passes of a traced run — spans off,
    /// spans on, `each_for` apiece — cut into alternating slices, so that
    /// the two see the same machine and their difference is the spans.
    fn wire(
        &mut self,
        origin: Instant,
        each_for: Duration,
    ) -> Result<(PhaseSummary, PhaseSummary), String> {
        let slice_for = each_for / WIRE_SLICES as u32;
        let plain_target = self.target;
        let spanned_target = Target {
            span_origin: Some(origin),
            ..self.target
        };
        let (plain, spanned) = self.beside_writer(self.churn_period(), each_for * 2, || {
            let mut plain = Vec::with_capacity(WIRE_SLICES);
            let mut spanned = Vec::with_capacity(WIRE_SLICES);
            for _ in 0..WIRE_SLICES {
                plain.push(load::closed_loop(plain_target, slice_for));
                spanned.push(load::closed_loop(spanned_target, slice_for));
            }
            (plain, spanned)
        })?;
        let summaries = (
            self.record("wire", &plain, Guards::Closed),
            self.record("wire+", &spanned, Guards::Closed),
        );
        for log in plain.into_iter().chain(spanned) {
            self.samples.extend(log.samples);
            self.spans.extend(log.spans);
        }
        Ok(summaries)
    }

    fn churn_period(&self) -> Option<f64> {
        self.workload.churn.then_some(CHURN_PERIOD_S)
    }

    /// The open loop of a traced run, in slices as long as an untraced
    /// run's, so that its latencies are the same statistic.
    fn open(&mut self, duration: Duration) -> Result<PhaseSummary, String> {
        let (target, rps) = (self.target, self.workload.open_rps);
        let slices = ((duration.as_secs_f64() / (CYCLE_S * OPEN_SHARE)).round() as usize).max(1);
        let each_for = duration / slices as u32;
        let logs = self.beside_writer(self.churn_period(), duration, || {
            (0..slices)
                .map(|_| load::open_loop(target, rps, each_for))
                .collect::<Vec<_>>()
        })?;
        let summary = self.record("open", &logs, Guards::Open);
        for log in logs {
            self.samples.extend(log.samples);
            self.spans.extend(log.spans);
        }
        Ok(summary)
    }

    /// The refresh tail of a traced run, the same in every workload: the
    /// writer appends a round every `TAIL_PERIOD_S` while `target` — the
    /// tail reader — keeps its pace. Its latencies are not reported; its
    /// responses tell when each round's catalog became visible.
    fn tail(&mut self, target: Target<'_>, duration: Duration) -> Result<PhaseSummary, String> {
        let rps = workloads::tail_reader().open_rps;
        self.run(
            "tail",
            Some(TAIL_PERIOD_S),
            duration,
            Guards::Unguarded,
            || load::open_loop(target, rps, duration),
        )
    }

    /// Rounds the phases of a run will perform, so their re-probes can be
    /// prepared off the clock.
    fn rounds_needed(workload: &Workload, churned: &[Duration], tail: Duration) -> usize {
        let beside: usize = churned
            .iter()
            .map(|&d| churn::rounds_in(d, secs(CHURN_PERIOD_S)))
            .sum();
        churn::rounds_in(tail, secs(TAIL_PERIOD_S)) + if workload.churn { beside } else { 0 }
    }

    fn swap_visible_ms(&self) -> Result<f64, String> {
        let seen: Vec<f64> = churn::swap_visible_ms(&self.rounds, &self.samples)
            .into_iter()
            .flatten()
            .collect();
        if seen.len() * 2 < self.rounds.len() {
            return Err(format!(
                "readers saw only {} of {} refresh rounds swap in",
                seen.len(),
                self.rounds.len()
            ));
        }
        stats::median(&seen).ok_or_else(|| "no refresh round ran".to_string())
    }
}

/// After the last phase: the daemon must converge on the chain tip and
/// must not have failed a single chain load.
fn check_converged(addr: SocketAddr, tip: u64) -> Result<(), String> {
    let marker = format!("\"catalog_generation\":{tip},");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, body) = client::once(addr, &client::get("/readyz")).map_err(io_err("readyz"))?;
        if body.contains(&marker) {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "daemon never served chain generation {tip}: {body}"
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (_, text) = client::once(addr, &client::get("/metrics")).map_err(io_err("metrics"))?;
    match scrape(&text, "dbselectd_catalog_load_failures_total", "") {
        Some(failures) if failures > 0.0 => Err(format!("{failures} chain loads failed")),
        _ => Ok(()),
    }
}

/// A request pool verified by the gate on the daemon the phases drive.
struct Reader {
    pool: Pool,
    verified: Verified,
}

impl Reader {
    /// Build `workload`'s pool and pass it through the gate.
    fn verify(
        workload: &Workload,
        seed: u64,
        bed: &Testbed,
        addr: SocketAddr,
        oracle: &Oracle,
    ) -> Result<Reader, String> {
        let pool = Pool::build(workload, bed, seed);
        let verified = gate::verify(addr, &pool, oracle, bed)?;
        println!(
            "gate   {}: {} responses served == library, rk10 {:.4}",
            workload.name,
            pool.len(),
            verified.rk10
        );
        Ok(Reader { pool, verified })
    }

    fn target<'a>(&'a self, addr: SocketAddr, connections: usize, check: Check<'a>) -> Target<'a> {
        Target {
            addr,
            raw: &self.pool.raw,
            connections,
            check,
            span_origin: None,
        }
    }
}

fn enforce_floor(options: &Options, verified: &Verified) -> Result<(), String> {
    let workload = options.workload;
    if !options.smoke && verified.rk10 < workload.rk10_floor {
        return Err(format!(
            "rk10 {:.4} is below the {} floor {:.4}: the served rankings are no longer the paper's",
            verified.rk10, workload.name, workload.rk10_floor
        ));
    }
    Ok(())
}

/// Run one workload as `options` say; `Err` means the run produced no
/// usable result (gate failure, daemon trouble) and prints no metrics.
pub fn run(options: &Options) -> Result<Record, String> {
    let databases = if options.smoke {
        workloads::SMOKE_DATABASES
    } else {
        options.workload.databases
    };
    let work = WorkDir::create()?;
    let (values, attempted, failed, phases) = if options.trace {
        traced(options, databases, &work.0)?
    } else {
        untraced(options, databases, &work.0)?
    };
    Ok(Record {
        workload: options.workload.name,
        seed: options.seed,
        seconds: options.seconds,
        trace: options.trace,
        smoke: options.smoke,
        attempted,
        failed,
        phases,
        metrics: values,
    })
}

type Outcome = (Vec<Value>, u64, u64, Vec<PhaseSummary>);

fn untraced(options: &Options, databases: usize, work: &Path) -> Result<Outcome, String> {
    let workload = options.workload;
    let bed = Testbed::build(options.seed, databases, workloads::QUERIES);

    // All set-ups but the last happen before the timed part — the last
    // of those serves it — and the last one after, so that their median
    // samples the machine at both ends of the run.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut timed_set_up = |rep: usize| -> Result<Fixture, String> {
        let (fresh, seconds) = set_up(&bed, options.seed, &work.join(format!("chain-{rep}")))?;
        println!("setup  {rep}: {seconds:.3} s");
        setups.push(seconds);
        Ok(fresh)
    };
    let mut fixture = timed_set_up(0)?;
    for rep in 1..SETUPS - 1 {
        fixture.tear_down()?;
        fixture = timed_set_up(rep)?;
    }
    let addr = fixture.addr();

    let reader = {
        let oracle = Oracle::load(&fixture.dir).map_err(io_err("oracle load"))?;
        Reader::verify(workload, options.seed, &bed, addr, &oracle)?
    };
    enforce_floor(options, &reader.verified)?;

    let cycles = ((options.seconds / CYCLE_S).round() as usize).max(MIN_CYCLES);
    let closed_for = secs(options.seconds * CLOSED_SHARE / cycles as f64);
    let open_for = secs(options.seconds * OPEN_SHARE / cycles as f64);
    let timed = (closed_for + open_for) * cycles as u32;
    let rounds = Phases::rounds_needed(workload, &[timed], Duration::ZERO);
    fixture.refresher.prepare(&bed, options.seed + 1, rounds);

    let check = |i: usize, reply, body: &[u8]| reader.verified.check(i, reply, body);
    let target = reader.target(addr, workload.connections, &check);
    let mut phases = Phases::new(workload, target, &mut fixture.refresher);
    let (closed, open) = phases.cycles(cycles, closed_for, open_for)?;
    let summaries = phases.summaries;
    let tip = fixture.refresher.generation();
    check_converged(addr, tip)?;
    if tip > 0 {
        println!("churn  {tip} refresh rounds, daemon converged on the chain tip, 0 load failures");
    }
    fixture.tear_down()?;
    timed_set_up(SETUPS - 1)?.tear_down()?;

    let measured = [
        stats::median(&setups).expect("SETUPS > 0"),
        closed.rps,
        open.p50_ms,
        reader.verified.rk10,
        peak_rss_mb()?,
    ];
    let values = END_TO_END
        .iter()
        .zip(measured)
        .map(|(metric, value)| Value {
            name: metric.name,
            unit: metric.unit,
            value,
        })
        .collect();
    let attempted = reader.pool.len() + summaries.iter().map(|p| p.sent).sum::<usize>();
    let failed = summaries.iter().map(|p| p.failed).sum::<usize>();
    Ok((values, attempted as u64, failed as u64, summaries))
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

fn median_us(ns: &[f64]) -> f64 {
    stats::median(ns).unwrap_or(0.0) / 1e3
}

/// Per replayed request: summed duration of its stage spans named in
/// `names`, nanoseconds.
fn per_request_ns(trace: &Trace, names: &[&str]) -> Vec<f64> {
    let spans = trace.spans();
    spans
        .iter()
        .enumerate()
        .filter(|(_, root)| root.name == REPLAY_ROOT)
        .map(|(id, _)| {
            // A request's stage spans directly follow its root.
            spans[id + 1..]
                .iter()
                .take_while(|s| s.parent == Some(id as u32))
                .filter(|s| names.contains(&s.name))
                .map(|s| (s.end_ns - s.start_ns) as f64)
                .sum()
        })
        .collect()
}

struct Counters {
    hits: f64,
    misses: f64,
    handler_count: f64,
    handler_sum_s: f64,
    rejected: f64,
    timeouts: f64,
    load_failures: f64,
}

/// Scrape the daemon's `/metrics`; an absent family reads as zero.
fn counters(addr: SocketAddr) -> Result<Counters, String> {
    let (_, text) = client::once(addr, &client::get("/metrics")).map_err(io_err("metrics"))?;
    let read = |family: &str, label: &str| scrape(&text, family, label).unwrap_or(0.0);
    let route = "endpoint=\"route\"";
    Ok(Counters {
        hits: read("dbselectd_posterior_cache_hits_total", ""),
        misses: read("dbselectd_posterior_cache_misses_total", ""),
        handler_count: read("dbselectd_request_duration_seconds_count", route),
        handler_sum_s: read("dbselectd_request_duration_seconds_sum", route),
        rejected: read("dbselectd_rejected_total", ""),
        timeouts: read("dbselectd_timeout_total", ""),
        load_failures: read("dbselectd_catalog_load_failures_total", ""),
    })
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The per-layer values of a traced run, by metric name.
#[derive(Default)]
struct Layers(Vec<(String, f64)>);

impl Layers {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

fn traced(options: &Options, databases: usize, work: &Path) -> Result<Outcome, String> {
    let workload = options.workload;
    let mut trace = Trace::new();
    let mut layer = Layers::default();

    let started = Instant::now();
    let bed = Testbed::build(options.seed, databases, workloads::QUERIES);
    layer.set("corpus.testbed.build_s", started.elapsed().as_secs_f64());

    // Set-up, every step on its own clock.
    let dir = work.join("chain");
    let file = work.join("catalog.snapshot");
    let (refresher, steps): (Refresher, StepTimes) =
        Refresher::create_timed(&bed, options.seed, &dir, &file)
            .map_err(io_err("offline pipeline"))?;
    let daemon = Daemon::boot(&dir).map_err(io_err("daemon boot"))?;
    wait_ready(daemon.addr())?;
    let mut fixture = Fixture {
        daemon,
        refresher,
        dir,
    };
    let addr = fixture.addr();
    layer.set("sampling.qbs.profile_s", steps.profile_s);
    layer.set("core.shrinkage.em_fit_s", steps.em_fit_s);
    layer.set("store.snapshot.freeze_s", steps.freeze_s);
    layer.set("store.snapshot.save_s", steps.save_s);
    layer.set("store.snapshot.load_s", steps.load_s);
    layer.set("server.state.build_ms", steps.state_build_s * 1e3);
    layer.set("store.snapshot.bytes", steps.snapshot_bytes as f64);

    // The gate — against a state loaded from the single-file snapshot,
    // while the daemon serves the chain: the two routes to a servable
    // catalog must agree byte for byte.
    let (reader, tail_reader) = {
        let oracle = Oracle::load(&file).map_err(io_err("oracle load"))?;
        let reader = Reader::verify(workload, options.seed, &bed, addr, &oracle)?;
        enforce_floor(options, &reader.verified)?;
        let tail = Reader::verify(workloads::tail_reader(), options.seed, &bed, addr, &oracle)?;
        (reader, tail)
    };
    let (pool, verified) = (&reader.pool, &reader.verified);

    // The replay, on a fresh state: one cold pass (empty posterior
    // caches), then the warm passes the stage medians come from.
    let oracle = Oracle::load(&file).map_err(io_err("oracle load"))?;
    let mut cold = Trace::new();
    oracle
        .replay(&pool.requests, &pool.raw, &verified.bodies, 0, &mut cold)
        .map_err(io_err("cold replay"))?;
    let choose = STAGES[3];
    layer.set(
        "broker.engine.choose_cold_us",
        median_us(&cold.self_times_by_name().remove(choose).unwrap_or_default()),
    );
    drop(cold);
    let mut counts = Default::default();
    for pass in 0..REPLAY_PASSES {
        let first_id = (pass * pool.len()) as u32;
        counts = oracle
            .replay(
                &pool.requests,
                &pool.raw,
                &verified.bodies,
                first_id,
                &mut trace,
            )
            .map_err(io_err("replay"))?;
    }
    // The same requests through two in-process shards; the first pass
    // only warms the sharded engines' posterior caches.
    let sharded_name = "broker.shard.route_topk_us_2";
    {
        let sharded = ShardedOracle::load(&file).map_err(io_err("sharded load"))?;
        sharded.route(&pool.requests, sharded_name, &mut Trace::new());
        sharded.route(&pool.requests, sharded_name, &mut trace);
    }
    let by_name = trace.self_times_by_name();
    let self_us = |name: &str| median_us(by_name.get(name).map_or(&[][..], Vec::as_slice));
    for stage in STAGES {
        layer.set(stage, self_us(stage));
    }
    let stage_sum_us = median_us(&per_request_ns(&trace, &STAGES));
    let engine_us = median_us(&per_request_ns(&trace, &STAGES[3..6]));
    layer.set("server.stage_sum_us", stage_sum_us);
    layer.set(sharded_name, self_us(sharded_name));
    layer.set(
        "broker.shard.ratio_2",
        ratio(self_us(sharded_name), engine_us),
    );
    layer.set(
        "trace.choose_share",
        ratio(median_us(&per_request_ns(&trace, &[choose])), stage_sum_us),
    );
    for (a, algo) in ALGOS.iter().enumerate() {
        layer.set(
            format!("broker.engine.shrinkage_applied_ratio.{algo}"),
            ratio(counts.shrunk[a] as f64, counts.decisions[a] as f64),
        );
        layer.set(format!("eval.rk10.{algo}"), verified.rk10_by_algo[a]);
        layer.set(
            format!("selection.topk.score_rows_ns_per_row.{algo}"),
            oracle
                .kernel_ns_per_row(algo, &pool.requests, KERNEL_ROWS)
                .unwrap_or(0.0),
        );
    }
    layer.set(
        "broker.engine.candidate_ratio",
        ratio(counts.candidates as f64, counts.candidate_slots as f64),
    );
    layer.set(
        "server.response_bytes",
        stats::median(&counts.response_bytes).unwrap_or(0.0),
    );
    let (build_ns, test_ns) =
        oracle.uncertainty_micro(&pool.requests[..MICRO_REQUESTS.min(pool.len())]);
    layer.set("core.uncertainty.posterior_build_us", median_us(&build_ns));
    layer.set("core.uncertainty.mc_test_us", median_us(&test_ns));
    drop(oracle);

    // The wire: one connection, spans off then on; then the workload's
    // own open loop and refresh tail with spans on.
    let wire_for = secs(options.seconds * TRACED_WIRE_SHARE);
    let open_for = secs(options.seconds * TRACED_OPEN_SHARE);
    let tail_for = secs(options.seconds * TRACED_TAIL_SHARE);
    let rounds = Phases::rounds_needed(workload, &[wire_for * 2, open_for], tail_for);
    fixture
        .refresher
        .prepare(&bed, options.seed + 1, rounds + LONG_CHAIN as usize);
    let check = |i: usize, reply, body: &[u8]| reader.verified.check(i, reply, body);
    let tail_check = |i: usize, reply, body: &[u8]| tail_reader.verified.check(i, reply, body);
    let origin = Instant::now();
    let origin_ns = trace.ns_of(origin);
    let mut phases = Phases::new(
        workload,
        reader.target(addr, 1, &check),
        &mut fixture.refresher,
    );
    let (plain, spanned) = phases.wire(origin, wire_for)?;
    phases.target.span_origin = Some(origin);
    phases.target.connections = workload.connections;
    let before = counters(addr)?;
    let open = phases.open(open_for)?;
    let after = counters(addr)?;
    let tail_target = Target {
        span_origin: Some(origin),
        ..tail_reader.target(addr, workloads::tail_reader().connections, &tail_check)
    };
    phases.tail(tail_target, tail_for)?;
    layer.set("server.swap_visible_ms", phases.swap_visible_ms()?);
    let mut rounds = std::mem::take(&mut phases.rounds);
    let summaries = std::mem::take(&mut phases.summaries);
    for span in std::mem::take(&mut phases.spans) {
        trace.push(Span {
            start_ns: span.start_ns + origin_ns,
            end_ns: span.end_ns + origin_ns,
            ..span
        });
    }
    drop(phases);

    let roundtrip_us = plain.p50_ms * 1e3;
    layer.set("client.roundtrip_us", roundtrip_us);
    layer.set(
        "trace.overhead_share",
        ratio(spanned.p50_ms - plain.p50_ms, plain.p50_ms),
    );
    layer.set("server.residual_us", roundtrip_us - stage_sum_us);
    layer.set(
        "trace.unexplained_share",
        ratio(roundtrip_us - stage_sum_us, roundtrip_us),
    );
    layer.set("loadgen.late_p99_ms", open.late_p99_ms);
    layer.set("loadgen.samples", open.succeeded as f64);
    layer.set("loadgen.open_p50_ms", open.p50_ms);
    layer.set("loadgen.open_p90_ms", open.p90_ms);
    // 0 when the open loop was too short to carry a p99 (`--smoke`).
    layer.set("loadgen.open_p99_ms", open.p99_ms.unwrap_or(0.0));
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    layer.set(
        "broker.engine.posterior_cache_hit_ratio",
        ratio(hits, hits + misses),
    );
    layer.set(
        "server.handler_mean_us",
        ratio(
            (after.handler_sum_s - before.handler_sum_s) * 1e6,
            after.handler_count - before.handler_count,
        ),
    );

    // The refresh path: the rounds the phases ran, further rounds up to a
    // 20-delta chain, then harness-side replays of a short and a long chain.
    while fixture.refresher.generation() < LONG_CHAIN {
        rounds.push(fixture.refresher.round().map_err(io_err("refresh round"))?);
    }
    for (r, round) in rounds.iter().enumerate() {
        let (start, end) = (trace.ns_of(round.started), trace.ns_of(round.appended));
        let applied = start + round.apply_ns;
        let root = trace.push(Span {
            name: "store.refresh.round",
            start_ns: start,
            end_ns: end,
            parent: None,
            request_id: r as u32,
        });
        for (name, from, to) in [
            ("store.refresh.apply_probe_ms", start, applied),
            ("store.delta.append_ms", applied, end),
        ] {
            trace.push(Span {
                name,
                start_ns: from,
                end_ns: to,
                parent: Some(root),
                request_id: r as u32,
            });
        }
    }
    let per_round = |f: fn(&Round) -> f64| {
        stats::median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    layer.set(
        "store.refresh.round_ms",
        per_round(|r| (r.appended - r.started).as_secs_f64() * 1e3),
    );
    layer.set(
        "store.refresh.apply_probe_ms",
        per_round(|r| r.apply_ns as f64 / 1e6 / ROUND_BUDGET as f64),
    );
    layer.set(
        "store.delta.append_ms",
        per_round(|r| r.append_ns as f64 / 1e6),
    );
    layer.set(
        "store.delta.bytes_per_db",
        per_round(|r| r.delta_bytes as f64 / ROUND_BUDGET as f64),
    );
    check_converged(addr, fixture.refresher.generation())?;
    for (name, deltas) in [
        ("store.delta.load_chain_ms_1", 1),
        ("store.delta.load_chain_ms_20", LONG_CHAIN),
    ] {
        let mut ms = Vec::new();
        for rep in 0..3 {
            let scratch = work.join(format!("replay-{deltas}-{rep}"));
            let span = trace.begin(name, None, rep);
            let seconds = fixture
                .refresher
                .load_chain_seconds(deltas, &scratch)
                .map_err(io_err("load_chain"))?;
            trace.end(span);
            ms.push(seconds * 1e3);
        }
        layer.set(name, stats::median(&ms).expect("three replays"));
    }
    let last = counters(addr)?;
    layer.set("server.rejected_total", last.rejected);
    layer.set("server.timeout_total", last.timeouts);
    layer.set("server.catalog_load_failures_total", last.load_failures);
    fixture.shutdown()?;

    let path = out_dir().join(format!("trace-{}.jsonl", workload.name));
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(io_err("trace file"))?);
    trace.write_jsonl(&mut file).map_err(io_err("trace file"))?;
    std::io::Write::flush(&mut file).map_err(io_err("trace file"))?;
    println!(
        "trace  {} spans written to {}",
        trace.spans().len(),
        path.display()
    );

    let values = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = layer
                .get(name)
                .ok_or_else(|| format!("traced run did not measure {name}"))?;
            Ok(Value { name, unit, value })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let attempted = reader.pool.len()
        + tail_reader.pool.len()
        + summaries.iter().map(|p| p.sent).sum::<usize>();
    let failed = summaries.iter().map(|p| p.failed).sum::<usize>();
    Ok((values, attempted as u64, failed as u64, summaries))
}
