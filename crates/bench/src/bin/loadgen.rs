//! Load generator for `dbselectd`: spawns the daemon in-process on a tiny
//! frozen-catalog fixture, then drives it over **real TCP sockets** with
//! concurrent closed-loop clients, reporting sustained throughput and
//! client-observed latency percentiles as JSON (the source of
//! `BENCH_server.json`).
//!
//! ```text
//! cargo run --release -p bench --bin loadgen [-- SECONDS [CLIENTS] [--idle-conns N] [--topk K]]
//! ```
//!
//! `--topk K` adds `"k":K` to every `/route` body, exercising the pruned
//! top-k serving path in all throughput phases. Independent of the knob, a
//! dedicated sweep phase measures keep-alive `/route` at k ∈ {1, 5, 10,
//! full} and reports throughput and latency per cell in a `topk` block.
//!
//! Besides the throughput phases, an idle-connection soak parks
//! `--idle-conns` established keep-alive connections (default 2000,
//! clamped to the fd rlimit) and re-measures the `/healthz` keep-alive
//! phase with them in place, reporting the daemon's per-idle-connection
//! rss/fd footprint and the p99 impact of a large idle population on the
//! reactor's event loop.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::experiment::{profile_collection, HarnessConfig};
use corpus::TestBedConfig;
use dbselect_core::summary::ContentSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{profile_qbs, PipelineConfig, RefreshScheduler, SamplerKind};
use server::metrics::Histogram;
use server::state::ServingState;
use server::{ProxyConfig, Server, ServerConfig};
use store::catalog::StoredCatalog;
use store::delta::{delta_file_name, ChainWriter};
use store::refresh::RefreshSession;
use store::snapshot::ServingSnapshot;
use store::{CollectionStore, StoredDatabase};

/// Build the tiny testbed fixture, freeze it, and save it to a temp file.
/// Also returns the frozen catalog itself plus one fresh re-probe summary
/// per database (sampled under a different seed, standing in for drifted
/// content) so the refresh-churn phase can append genuine delta rounds.
fn build_fixture() -> (
    std::path::PathBuf,
    Vec<String>,
    StoredCatalog,
    Vec<ContentSummary>,
) {
    let mut bed = TestBedConfig::tiny(30).build();
    let config = HarnessConfig::new(SamplerKind::Qbs, true, 30);
    // Profiling is only exercised to keep the fixture identical to the
    // broker benchmarks' (QBS summaries, shrinkage fit included).
    let _profiled = profile_collection(&mut bed, &config);

    let mut rng = StdRng::seed_from_u64(40);
    let pipeline = PipelineConfig {
        frequency_estimation: true,
        ..Default::default()
    };
    let databases = bed
        .databases
        .iter()
        .map(|tdb| {
            let profile = profile_qbs(&tdb.db, &bed.seed_lexicon, &pipeline, &mut rng);
            StoredDatabase {
                name: tdb.name.clone(),
                classification: tdb.category,
                summary: profile.summary,
                sample_docs: profile.sample.docs.into_iter().map(|d| d.tokens).collect(),
            }
        })
        .collect();
    let store = CollectionStore {
        dict: bed.dict.clone(),
        hierarchy: bed.hierarchy.clone(),
        databases,
    };
    let frozen = StoredCatalog::freeze(
        store,
        dbselect_core::category_summary::CategoryWeighting::BySize,
    );
    let path = std::env::temp_dir().join(format!("dbselectd-loadgen-{}.snap", std::process::id()));
    ServingSnapshot::from_stored(&frozen)
        .save(&path)
        .expect("save fixture snapshot");

    let mut rng = StdRng::seed_from_u64(41);
    let probes: Vec<ContentSummary> = bed
        .databases
        .iter()
        .map(|tdb| profile_qbs(&tdb.db, &bed.seed_lexicon, &pipeline, &mut rng).summary)
        .collect();

    // Query strings: the testbed's evaluation queries, spelled out so they
    // travel as HTTP payloads.
    let queries: Vec<String> = bed
        .queries
        .iter()
        .map(|q| {
            q.terms
                .iter()
                .map(|&t| bed.dict.term(t))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    (path, queries, frozen, probes)
}

/// One closed-loop HTTP exchange on a fresh `Connection: close`
/// connection; returns (status, body).
fn exchange(addr: SocketAddr, raw: &[u8]) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(raw)?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    let text = String::from_utf8_lossy(&bytes);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// A close-mode request: the daemon hangs up after answering, so the
/// client can frame the response by EOF.
fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A keep-alive request (HTTP/1.1 default): responses must be framed by
/// `Content-Length` instead of EOF.
fn post_bytes_keep_alive(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A bodyless GET in either connection mode.
fn get_bytes(path: &str, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive {
        ""
    } else {
        "Connection: close\r\n"
    };
    format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\n{connection}\r\n").into_bytes()
}

/// Read one `Content-Length`-framed response off a persistent connection;
/// returns (status, server_will_close).
fn read_framed_response<R: std::io::Read>(
    reader: &mut BufReader<R>,
) -> std::io::Result<(u16, bool)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut status = 0u16;
    let mut length = 0usize;
    let mut closing = false;
    let mut first = true;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if first {
            status = line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("missing status"))?;
            first = false;
        } else if let Some(v) = line.strip_prefix("Content-Length: ") {
            length = v.parse().map_err(|_| bad("bad Content-Length"))?;
        } else if line == "Connection: close" {
            closing = true;
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, closing))
}

/// This process's resident set in kB (`VmRSS`), daemon included — the
/// daemon runs in-process, so deltas capture both ends of each socket.
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Open file descriptors in this process.
fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count() as u64)
}

/// The soft `RLIMIT_NOFILE` bound, for clamping the soak size.
fn fd_soft_limit() -> u64 {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(1024)
}

struct PhaseResult {
    requests: u64,
    errors: u64,
    seconds: f64,
    histogram: Histogram,
}

impl PhaseResult {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.seconds.max(f64::MIN_POSITIVE)
    }
}

/// Drive `addr` with `clients` closed-loop threads for `duration`, each
/// request drawn round-robin from `bodies`.
fn run_phase(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    clients: usize,
    duration: Duration,
) -> PhaseResult {
    let histogram = Arc::new(Histogram::latency());
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let histogram = Arc::clone(&histogram);
            let stop = Arc::clone(&stop);
            let errors = Arc::clone(&errors);
            let bodies = bodies.to_vec();
            std::thread::spawn(move || {
                let mut sent = 0u64;
                let mut i = c; // stagger the rotation per client
                while !stop.load(Ordering::Relaxed) {
                    let begun = Instant::now();
                    match exchange(addr, &bodies[i % bodies.len()]) {
                        Ok((200, _)) => histogram.observe(begun.elapsed().as_nanos() as u64),
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    sent += 1;
                    i += 1;
                }
                sent
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let requests: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let seconds = started.elapsed().as_secs_f64();
    PhaseResult {
        requests,
        errors: errors.load(Ordering::Relaxed),
        seconds,
        histogram: Arc::try_unwrap(histogram).unwrap_or_else(|_| unreachable!()),
    }
}

/// Like [`run_phase`], but every client holds one persistent connection,
/// framing responses by `Content-Length` and reconnecting only when the
/// daemon closes (request cap, errors). Same closed loop, same bodies —
/// the rps delta against [`run_phase`] is the cost of per-request
/// connect/teardown.
fn run_keep_alive_phase(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    clients: usize,
    duration: Duration,
) -> PhaseResult {
    let histogram = Arc::new(Histogram::latency());
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let histogram = Arc::clone(&histogram);
            let stop = Arc::clone(&stop);
            let errors = Arc::clone(&errors);
            let bodies = bodies.to_vec();
            std::thread::spawn(move || {
                let mut sent = 0u64;
                let mut i = c; // stagger the rotation per client
                let mut connection: Option<(TcpStream, BufReader<TcpStream>)> = None;
                while !stop.load(Ordering::Relaxed) {
                    let begun = Instant::now();
                    let result = (|| -> std::io::Result<(u16, bool)> {
                        if connection.is_none() {
                            let stream = TcpStream::connect(addr)?;
                            stream.set_nodelay(true)?;
                            let reader = BufReader::new(stream.try_clone()?);
                            connection = Some((stream, reader));
                        }
                        let (stream, reader) = connection.as_mut().expect("just connected");
                        stream.write_all(&bodies[i % bodies.len()])?;
                        read_framed_response(reader)
                    })();
                    match result {
                        Ok((200, closing)) => {
                            histogram.observe(begun.elapsed().as_nanos() as u64);
                            if closing {
                                connection = None; // daemon hit its request cap
                            }
                        }
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            connection = None;
                        }
                    }
                    sent += 1;
                    i += 1;
                }
                sent
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let requests: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let seconds = started.elapsed().as_secs_f64();
    PhaseResult {
        requests,
        errors: errors.load(Ordering::Relaxed),
        seconds,
        histogram: Arc::try_unwrap(histogram).unwrap_or_else(|_| unreachable!()),
    }
}

/// Boot a fresh daemon serving `path` as every tenant in `tenants`, with
/// the scoring phase scattered over `shards` catalog shards (1 =
/// monolithic). Used by the tenant/shard matrix phases, which need
/// bind-time configuration the main daemon was not started with.
fn boot_matrix_daemon(
    path: &std::path::Path,
    tenants: &[&str],
    shards: usize,
    workers: usize,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: 256,
        deadline: Duration::from_secs(10),
        idle_timeout: Duration::from_secs(300),
        shards,
        ..Default::default()
    };
    let states = tenants
        .iter()
        .map(|name| {
            let state =
                ServingState::load_sharded(path.to_str().unwrap(), config.cache_capacity, shards)
                    .expect("load fixture for matrix daemon");
            (name.to_string(), state)
        })
        .collect();
    let daemon = Server::bind_tenants(config, states).expect("bind matrix daemon");
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || daemon.run().expect("matrix daemon run"));
    (addr, handle)
}

fn phase_json(name: &str, clients: usize, result: &PhaseResult) -> String {
    format!(
        r#"    "{name}": {{
      "clients": {clients},
      "requests": {},
      "errors": {},
      "seconds": {:.2},
      "sustained_rps": {:.1},
      "latency_ns": {{ "p50": {}, "p95": {}, "p99": {} }},
      "latency_human": {{ "p50": "{}", "p95": "{}", "p99": "{}" }}
    }}"#,
        result.requests,
        result.errors,
        result.seconds,
        result.rps(),
        result.histogram.percentile(0.50),
        result.histogram.percentile(0.95),
        result.histogram.percentile(0.99),
        server::metrics::format_nanos(result.histogram.percentile(0.50)),
        server::metrics::format_nanos(result.histogram.percentile(0.95)),
        server::metrics::format_nanos(result.histogram.percentile(0.99)),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut secs = 3.0f64;
    let mut clients = 8usize;
    let mut idle_conns = 2000usize;
    let mut topk: Option<usize> = None;
    let mut positional = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--idle-conns" {
            idle_conns = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--idle-conns expects an integer");
        } else if arg == "--topk" {
            topk = Some(
                it.next()
                    .and_then(|v| v.parse().ok())
                    .expect("--topk expects a positive integer"),
            );
        } else if positional == 0 {
            secs = arg.parse().unwrap_or(secs);
            positional = 1;
        } else {
            clients = arg.parse().unwrap_or(clients);
            positional = 2;
        }
    }
    let duration = Duration::from_secs_f64(secs);

    eprintln!("building tiny(30) fixture catalog …");
    let (path, queries, frozen, probes) = build_fixture();

    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: 256,
        deadline: Duration::from_secs(10),
        // Parked soak connections must out-live the measurement phases,
        // not get reaped mid-soak.
        idle_timeout: Duration::from_secs(300),
        ..Default::default()
    };
    let state = ServingState::load(path.to_str().unwrap(), config.cache_capacity)
        .expect("load fixture catalog");
    let daemon = Server::bind(config, state).expect("bind");
    let addr = daemon.local_addr();
    let accept_loop = std::thread::spawn(move || daemon.run().expect("daemon run"));
    eprintln!(
        "dbselectd on {addr}: {} workers, {} clients, {:?}/phase",
        workers, clients, duration
    );

    // Sanity: the fixture's queries must resolve against the catalog.
    let probe = post_bytes(
        "/route",
        &format!(r#"{{"query":"{}","seed":42}}"#, queries[0]),
    );
    let (status, body) = exchange(addr, &probe).expect("probe");
    assert_eq!(status, 200, "probe failed: {body}");
    assert!(
        body.contains(r#""unknown":[]"#),
        "fixture queries must be fully known to the catalog: {body}"
    );

    // `--topk K` routes every measured /route body through the pruned
    // top-k path; without it the daemon serves the full ranking.
    let route_body = |q: &str, k: Option<usize>| match k {
        Some(k) => format!(r#"{{"query":"{q}","seed":42,"k":{k}}}"#),
        None => format!(r#"{{"query":"{q}","seed":42}}"#),
    };

    // Phase 1: single-query /route, all clients.
    let route_bodies: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| post_bytes("/route", &route_body(q, topk)))
        .collect();
    let route = run_phase(addr, &route_bodies, clients, duration);
    eprintln!(
        "/route       {:>8.1} rps, p50 {}",
        route.rps(),
        server::metrics::format_nanos(route.histogram.percentile(0.50))
    );

    // Phase 1b: the same /route traffic over persistent connections.
    let keep_alive_bodies: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| post_bytes_keep_alive("/route", &route_body(q, topk)))
        .collect();
    let keep_alive = run_keep_alive_phase(addr, &keep_alive_bodies, clients, duration);
    let speedup = keep_alive.rps() / route.rps().max(f64::MIN_POSITIVE);
    eprintln!(
        "/route (keep-alive) {:>8.1} rps, p50 {} ({speedup:.2}x over close-per-request)",
        keep_alive.rps(),
        server::metrics::format_nanos(keep_alive.histogram.percentile(0.50))
    );

    // Phase 1e: top-k pruning sweep. The same keep-alive /route traffic
    // truncated at k ∈ {1, 5, 10} versus the full ranking — each cell is
    // throughput and tail latency of the pruned serving path at that k.
    // On the tiny fixture (12 dbs) the kernel win is modest and mostly
    // shows up as smaller response bodies; the catalog-scale kernel win
    // is priced by `broker_bench`'s route_topk group (BENCH_broker.json).
    let mut topk_cells: Vec<(Option<usize>, PhaseResult)> = Vec::new();
    for cell in [Some(1usize), Some(5), Some(10), None] {
        let bodies: Vec<Vec<u8>> = queries
            .iter()
            .map(|q| post_bytes_keep_alive("/route", &route_body(q, cell)))
            .collect();
        let result = run_keep_alive_phase(addr, &bodies, clients, duration);
        let label = cell.map_or("full".to_string(), |k| k.to_string());
        assert_eq!(result.errors, 0, "topk sweep cell k={label} errored");
        eprintln!(
            "/route k={label:<4} {:>8.1} rps, p99 {}",
            result.rps(),
            server::metrics::format_nanos(result.histogram.percentile(0.99))
        );
        topk_cells.push((cell, result));
    }

    // Phase 1c: isolate the connection-lifecycle cost itself. /route is
    // scoring-bound (one core saturates on posterior math long before TCP
    // setup matters), so the reconnect-elimination win there shows up as
    // latency, not throughput. /healthz costs the handler ~nothing, which
    // makes per-request connect/teardown the dominant term — the rps
    // ratio of these two phases is the win keep-alive buys per connection.
    let healthz = run_phase(addr, &[get_bytes("/healthz", false)], clients, duration);
    let healthz_keep_alive =
        run_keep_alive_phase(addr, &[get_bytes("/healthz", true)], clients, duration);
    let conn_speedup = healthz_keep_alive.rps() / healthz.rps().max(f64::MIN_POSITIVE);
    eprintln!(
        "/healthz     {:>8.1} rps close, {:>8.1} rps keep-alive ({conn_speedup:.2}x)",
        healthz.rps(),
        healthz_keep_alive.rps(),
    );

    // Phase 1d: idle-connection soak. Park a large population of
    // established keep-alive connections (each serves one real request
    // first, so the daemon tracks it as a genuine idle conn), then
    // re-run the /healthz keep-alive phase with the population in place.
    // rss/fd deltas price one idle connection; the p99 delta against the
    // unsoaked phase is what a big idle population costs the reactor.
    let soak_target = {
        // Two fds per parked conn (client end + in-process daemon end),
        // plus headroom for the daemon, the phases, and stdio.
        let budget = fd_soft_limit().saturating_sub(512) / 2;
        idle_conns.min(budget as usize)
    };
    let rss_kb_before = rss_kb();
    let fds_before = open_fds();
    let warmup = get_bytes("/healthz", true);
    let mut parked = Vec::with_capacity(soak_target);
    for _ in 0..soak_target {
        let conn = (|| -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
            let mut stream = TcpStream::connect(addr)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            stream.write_all(&warmup)?;
            read_framed_response(&mut reader)?;
            Ok((stream, reader))
        })();
        match conn {
            Ok(c) => parked.push(c),
            Err(_) => break, // fd budget exhausted — soak with what we got
        }
    }
    let rss_kb_soaked = rss_kb();
    let fds_soaked = open_fds();
    let healthz_soaked =
        run_keep_alive_phase(addr, &[get_bytes("/healthz", true)], clients, duration);
    let soak_p99_ratio = healthz_soaked.histogram.percentile(0.99) as f64
        / (healthz_keep_alive.histogram.percentile(0.99) as f64).max(f64::MIN_POSITIVE);
    eprintln!(
        "idle soak    {} conns parked: rss {rss_kb_before} → {rss_kb_soaked} kB, fds {fds_before} → {fds_soaked}, /healthz p99 x{soak_p99_ratio:.2}",
        parked.len(),
    );
    let parked_count = parked.len();
    drop(parked);

    // Phase 2: /route_batch with the whole query set per request.
    let all: Vec<String> = queries.iter().map(|q| format!("\"{q}\"")).collect();
    let batch_body = post_bytes(
        "/route_batch",
        &format!(
            r#"{{"queries":[{}],"seed":42,"threads":{}}}"#,
            all.join(","),
            workers.min(8)
        ),
    );
    let batch = run_phase(addr, &[batch_body], clients.min(4), duration);
    eprintln!(
        "/route_batch {:>8.1} rps ({} queries each), p50 {}",
        batch.rps(),
        queries.len(),
        server::metrics::format_nanos(batch.histogram.percentile(0.50))
    );

    // Phase 3: sustained /route while a side thread hot-reloads the v2
    // snapshot in a loop. Every in-flight request must still succeed (the
    // swap is an Arc exchange; loads happen off to the side), and the
    // reload latency IS the zero-rebuild load path under measurement.
    let reload_body = post_bytes(
        "/admin/reload",
        &format!(r#"{{"path":"{}"}}"#, path.display()),
    );
    let reload_hist = Arc::new(Histogram::latency());
    let reload_stop = Arc::new(AtomicBool::new(false));
    let reload_errors = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let reloader = {
        let reload_hist = Arc::clone(&reload_hist);
        let reload_stop = Arc::clone(&reload_stop);
        let reload_errors = Arc::clone(&reload_errors);
        std::thread::spawn(move || {
            let mut reloads = 0u64;
            while !reload_stop.load(Ordering::Relaxed) {
                let begun = Instant::now();
                match exchange(addr, &reload_body) {
                    Ok((200, _)) => {
                        reload_hist.observe(begun.elapsed().as_nanos() as u64);
                        reloads += 1;
                    }
                    _ => {
                        reload_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            reloads
        })
    };
    let under_reload = run_phase(addr, &route_bodies, clients, duration);
    reload_stop.store(true, Ordering::Relaxed);
    let reloads = reloader.join().expect("reloader thread");
    assert_eq!(
        under_reload.errors, 0,
        "in-flight /route requests failed during hot reload"
    );
    assert_eq!(
        reload_errors.load(Ordering::Relaxed),
        0,
        "hot reloads failed under load"
    );
    eprintln!(
        "/route under reload {:>8.1} rps, {} reloads (reload p50 {})",
        under_reload.rps(),
        reloads,
        server::metrics::format_nanos(reload_hist.percentile(0.50))
    );

    // Server-side view, then clean shutdown.
    let (status, _) = exchange(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n",
    )
    .expect("metrics");
    assert_eq!(status, 200);
    let (status, _) = exchange(addr, &post_bytes("/admin/shutdown", "")).expect("shutdown");
    assert_eq!(status, 200);
    accept_loop.join().expect("accept loop");

    // Phase 4: shard matrix. The same catalog served monolithically and
    // scattered over 2 and 4 shards, driven by a single keep-alive client
    // so the measurement is the scatter's intra-query parallelism, not
    // client concurrency (under saturation every core is busy either
    // way). Rankings are bit-identical across rows; only latency moves.
    // On this tiny fixture (30 dbs, ~µs of scoring per query) the
    // scatter's thread coordination usually costs more than it saves —
    // the row exists to price that overhead and to track the trend.
    let mut shard_rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let (maddr, mhandle) = boot_matrix_daemon(&path, &["default"], shards, workers);
        let result = run_keep_alive_phase(maddr, &keep_alive_bodies, 1, duration);
        assert_eq!(result.errors, 0, "shard={shards} matrix phase errored");
        let (status, _) = exchange(maddr, &post_bytes("/admin/shutdown", "")).expect("shutdown");
        assert_eq!(status, 200);
        mhandle.join().expect("matrix daemon");
        eprintln!(
            "/route shards={shards} {:>8.1} rps, p50 {}",
            result.rps(),
            server::metrics::format_nanos(result.histogram.percentile(0.50))
        );
        shard_rows.push((shards, result));
    }
    let shard_p50_base = shard_rows[0].1.histogram.percentile(0.50) as f64;
    let shard_speedup = shard_p50_base
        / (shard_rows.last().unwrap().1.histogram.percentile(0.50) as f64).max(f64::MIN_POSITIVE);

    // Phase 5: tenant matrix. Four tenants of the same catalog behind
    // /t/<name>/route, clients rotating across tenants — the rps delta
    // against the single-tenant keep-alive phase is the whole cost of
    // tenant dispatch (name lookup, quota gate, per-tenant metrics).
    let tenant_names = ["t0", "t1", "t2", "t3"];
    let (taddr, thandle) = boot_matrix_daemon(&path, &tenant_names, 1, workers);
    let tenant_bodies: Vec<Vec<u8>> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            post_bytes_keep_alive(
                &format!("/t/{}/route", tenant_names[i % tenant_names.len()]),
                &format!(r#"{{"query":"{q}","seed":42}}"#),
            )
        })
        .collect();
    let tenant_phase = run_keep_alive_phase(taddr, &tenant_bodies, clients, duration);
    assert_eq!(tenant_phase.errors, 0, "tenant matrix phase errored");
    // Label isolation on the wire: every tenant shows up in /metrics
    // under its own label.
    let (status, tenant_metrics) = exchange(taddr, &get_bytes("/metrics", false)).expect("metrics");
    assert_eq!(status, 200);
    for name in tenant_names {
        assert!(
            tenant_metrics.contains(&format!("tenant=\"{name}\"")),
            "tenant {name} missing from /metrics"
        );
    }
    let (status, _) = exchange(taddr, &post_bytes("/admin/shutdown", "")).expect("shutdown");
    assert_eq!(status, 200);
    thandle.join().expect("tenant matrix daemon");
    let tenant_overhead = keep_alive.rps() / tenant_phase.rps().max(f64::MIN_POSITIVE);
    eprintln!(
        "/t/<name>/route (4 tenants) {:>8.1} rps ({tenant_overhead:.2}x single-tenant rps)",
        tenant_phase.rps(),
    );

    // Phase 6: federated proxy. Two full-snapshot backends started with
    // --shards 2 behind a scatter-gather proxy: the healthy row prices
    // the federation hop (one extra network round-trip plus merge), the
    // fault row kills one backend a third of the way in and restarts it
    // at two thirds — every client request must still answer 200
    // (degraded merges over the surviving shard, never a 5xx), and the
    // dead backend's breaker must open and close again around the
    // restart.
    let (b0_addr, b0_handle) = boot_matrix_daemon(&path, &["default"], 2, workers);
    let (b1_addr, b1_handle) = boot_matrix_daemon(&path, &["default"], 2, workers);
    let proxy_daemon = Server::bind_proxy(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: 256,
        deadline: Duration::from_secs(10),
        idle_timeout: Duration::from_secs(300),
        proxy: Some(ProxyConfig {
            backends: vec![b0_addr.to_string(), b1_addr.to_string()],
            health_interval: Duration::from_millis(100),
            breaker_failures: 2,
            breaker_cooldown: Duration::from_millis(500),
            ..Default::default()
        }),
        ..Default::default()
    })
    .expect("bind proxy");
    let proxy_addr = proxy_daemon.local_addr();
    let proxy_loop = std::thread::spawn(move || proxy_daemon.run().expect("proxy run"));

    // Bit-identity probe: the proxy's merged answer must equal a
    // backend's own monolithic answer, byte for byte.
    let probe_body = post_bytes(
        "/route",
        &format!(r#"{{"query":"{}","seed":42}}"#, queries[0]),
    );
    let (ps, proxy_probe) = exchange(proxy_addr, &probe_body).expect("proxy probe");
    let (bs, backend_probe) = exchange(b0_addr, &probe_body).expect("backend probe");
    assert_eq!((ps, bs), (200, 200), "{proxy_probe}");
    assert_eq!(
        proxy_probe, backend_probe,
        "proxy diverged from its backends"
    );

    let proxy_phase = run_keep_alive_phase(proxy_addr, &keep_alive_bodies, clients, duration);
    assert_eq!(proxy_phase.errors, 0, "healthy proxy phase errored");
    let proxy_overhead = keep_alive.rps() / proxy_phase.rps().max(f64::MIN_POSITIVE);
    eprintln!(
        "/route via proxy {:>8.1} rps ({proxy_overhead:.2}x direct rps), p50 {}",
        proxy_phase.rps(),
        server::metrics::format_nanos(proxy_phase.histogram.percentile(0.50))
    );

    let chaos = {
        let path = path.clone();
        let b1_addr_str = b1_addr.to_string();
        std::thread::spawn(move || {
            std::thread::sleep(duration.mul_f64(0.34));
            let (status, _) =
                exchange(b1_addr, &post_bytes("/admin/shutdown", "")).expect("kill backend 1");
            assert_eq!(status, 200);
            b1_handle.join().expect("backend 1 exits");
            std::thread::sleep(duration.mul_f64(0.33));
            // Restart on the same address the proxy was configured with.
            let config = ServerConfig {
                addr: b1_addr_str,
                workers,
                queue_capacity: 256,
                idle_timeout: Duration::from_secs(300),
                shards: 2,
                ..Default::default()
            };
            let state =
                ServingState::load_sharded(path.to_str().unwrap(), config.cache_capacity, 2)
                    .expect("reload backend 1 fixture");
            let daemon = Server::bind(config, state).expect("rebind backend 1");
            std::thread::spawn(move || daemon.run().expect("backend 1 run"))
        })
    };
    let under_fault = run_phase(proxy_addr, &route_bodies, clients, duration);
    let b1_handle = chaos.join().expect("chaos thread");
    assert_eq!(
        under_fault.errors, 0,
        "a client saw an error while a backend was down"
    );
    eprintln!(
        "/route via proxy, one backend killed+restarted mid-run: {:>8.1} rps, 0 client errors",
        under_fault.rps()
    );

    // The restarted backend must be readmitted: breaker open -> half-open
    // -> closed, visible in the proxy's metrics.
    let breaker_closed = format!("dbselectd_backend_breaker_state{{backend=\"{b1_addr}\"}} 0");
    let recovery_started = Instant::now();
    let mut proxy_metrics = String::new();
    while recovery_started.elapsed() < Duration::from_secs(10) {
        let (_, m) = exchange(proxy_addr, &get_bytes("/metrics", false)).expect("proxy metrics");
        proxy_metrics = m;
        if proxy_metrics.contains(&breaker_closed) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        proxy_metrics.contains(&breaker_closed),
        "breaker never closed after the backend restart:\n{proxy_metrics}"
    );
    let proxy_metric = |name: &str| -> u64 {
        proxy_metrics
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let degraded_total = proxy_metric("dbselectd_proxy_degraded_total");
    let breaker_opens = proxy_metric(&format!(
        "dbselectd_backend_breaker_opens_total{{backend=\"{b1_addr}\"}}"
    ));
    assert!(
        degraded_total >= 1,
        "no degraded responses despite the kill"
    );
    assert!(
        breaker_opens >= 1,
        "the dead backend's breaker never opened"
    );
    let (ps, proxy_probe) = exchange(proxy_addr, &probe_body).expect("recovered probe");
    assert_eq!(ps, 200);
    assert_eq!(
        proxy_probe, backend_probe,
        "recovered proxy must serve bit-identically again"
    );
    eprintln!(
        "proxy recovery: breaker opened {breaker_opens}x, {degraded_total} degraded merges, bit-identical again"
    );

    for (baddr, bhandle) in [(proxy_addr, proxy_loop), (b0_addr, b0_handle)] {
        let (status, _) = exchange(baddr, &post_bytes("/admin/shutdown", "")).expect("shutdown");
        assert_eq!(status, 200);
        bhandle.join().expect("daemon exits");
    }
    let (status, _) = exchange(b1_addr, &post_bytes("/admin/shutdown", "")).expect("shutdown b1");
    assert_eq!(status, 200);
    b1_handle.join().expect("restarted backend exits");

    // Phase 7: refresh churn. A daemon serves a delta chain directory
    // with the background refresher polling at 50ms, while a churn thread
    // plays the refresh pipeline against the chain: scheduler picks two
    // stale databases per round, applies their re-probe summaries through
    // the pinned-epoch session, and appends one delta file every ~100ms.
    // Keep-alive /route clients hammer throughout — every in-flight
    // request must succeed across every generation swap, the daemon must
    // converge on the final tip generation, and the load-failure counter
    // must stay zero.
    let chain_dir =
        std::env::temp_dir().join(format!("dbselectd-loadgen-chain-{}", std::process::id()));
    std::fs::remove_dir_all(&chain_dir).ok();
    std::fs::create_dir_all(&chain_dir).expect("create chain dir");
    let session = RefreshSession::new(frozen);
    let n_dbs = session.len();
    let base = session.freeze_full();
    let writer = ChainWriter::create(&chain_dir, &base).expect("write chain base");
    let refresh_config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: 256,
        deadline: Duration::from_secs(10),
        idle_timeout: Duration::from_secs(300),
        refresh_interval: Some(Duration::from_millis(50)),
        ..Default::default()
    };
    let refresh_state =
        ServingState::load(chain_dir.to_str().unwrap(), refresh_config.cache_capacity)
            .expect("load chain base");
    let refresh_daemon = Server::bind(refresh_config, refresh_state).expect("bind refresh daemon");
    let refresh_addr = refresh_daemon.local_addr();
    let refresh_loop =
        std::thread::spawn(move || refresh_daemon.run().expect("refresh daemon run"));

    let churn_stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let churn_stop = Arc::clone(&churn_stop);
        let chain_dir = chain_dir.clone();
        std::thread::spawn(move || {
            let mut session = session;
            let mut writer = writer;
            let append_hist = Histogram::latency();
            let mut delta_bytes = 0u64;
            let mut scheduler = RefreshScheduler::new(n_dbs, 2, 42);
            for db in 0..n_dbs {
                scheduler.set_coverage(db, session.coverage(db));
            }
            while !churn_stop.load(Ordering::Relaxed) {
                let picks = scheduler.next_round();
                let patches: Vec<_> = picks
                    .iter()
                    .map(|&db| session.apply_probe(db, probes[db].clone()))
                    .collect();
                for &db in &picks {
                    scheduler.set_coverage(db, session.coverage(db));
                }
                let begun = Instant::now();
                let generation = writer
                    .append_round(session.dict(), patches)
                    .expect("append refresh round");
                append_hist.observe(begun.elapsed().as_nanos() as u64);
                delta_bytes += std::fs::metadata(chain_dir.join(delta_file_name(generation)))
                    .map_or(0, |m| m.len());
                std::thread::sleep(Duration::from_millis(100));
            }
            (writer.generation(), delta_bytes, append_hist)
        })
    };
    let under_refresh = run_keep_alive_phase(refresh_addr, &keep_alive_bodies, clients, duration);
    churn_stop.store(true, Ordering::Relaxed);
    let (final_generation, refresh_delta_bytes, append_hist) = churn.join().expect("churn thread");
    assert_eq!(
        under_refresh.errors, 0,
        "in-flight /route requests failed during refresh churn"
    );
    assert!(final_generation >= 1, "churn never appended a round");
    // The refresher polls every 50ms; the daemon must converge on the
    // final chain tip shortly after the last append.
    let tip_marker = format!(r#""catalog_generation":{final_generation}"#);
    let convergence_started = Instant::now();
    let mut readyz = String::new();
    while convergence_started.elapsed() < Duration::from_secs(10) {
        let (_, body) = exchange(refresh_addr, &get_bytes("/readyz", false)).expect("readyz");
        readyz = body;
        if readyz.contains(&tip_marker) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        readyz.contains(&tip_marker),
        "daemon never converged on chain generation {final_generation}: {readyz}"
    );
    let (status, refresh_metrics) =
        exchange(refresh_addr, &get_bytes("/metrics", false)).expect("refresh metrics");
    assert_eq!(status, 200);
    assert!(
        refresh_metrics.contains("dbselectd_catalog_load_failures_total 0"),
        "chain loads failed during refresh churn:\n{refresh_metrics}"
    );
    let (status, _) =
        exchange(refresh_addr, &post_bytes("/admin/shutdown", "")).expect("shutdown refresh");
    assert_eq!(status, 200);
    refresh_loop.join().expect("refresh daemon exits");
    eprintln!(
        "/route under refresh churn {:>8.1} rps, {} rounds appended ({} delta bytes), converged at generation {}",
        under_refresh.rps(),
        final_generation,
        refresh_delta_bytes,
        final_generation,
    );
    std::fs::remove_dir_all(&chain_dir).ok();

    std::fs::remove_file(&path).ok();

    let topk_rows = topk_cells
        .iter()
        .map(|(cell, r)| {
            let label = cell.map_or(r#""full""#.to_string(), |k| k.to_string());
            format!(
                r#"      {{ "k": {label}, "clients": {clients}, "requests": {}, "sustained_rps": {:.1}, "p50_ns": {}, "p99_ns": {}, "p50": "{}", "p99": "{}" }}"#,
                r.requests,
                r.rps(),
                r.histogram.percentile(0.50),
                r.histogram.percentile(0.99),
                server::metrics::format_nanos(r.histogram.percentile(0.50)),
                server::metrics::format_nanos(r.histogram.percentile(0.99)),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    println!(
        r#"{{
  "bench": "crates/bench/src/bin/loadgen.rs",
  "command": "cargo run --release -p bench --bin loadgen -- {secs} {clients} --idle-conns {idle_conns}",
  "fixture": "TestBedConfig::tiny(30), QBS profiling, v2 serving snapshot served by dbselectd over loopback TCP",
  "server": {{ "workers": {workers}, "queue_capacity": 256 }},
  "queries": {nq},
  "phases": {{
{route_json},
{keep_alive_json},
{healthz_json},
{healthz_keep_alive_json},
{healthz_soaked_json},
{batch_json},
{under_reload_json},
{shards_1_json},
{shards_2_json},
{shards_4_json},
{tenant_matrix_json},
{proxy_json},
{proxy_fault_json},
{under_refresh_json}
  }},
  "shard_matrix": {{
    "rows": [1, 2, 4],
    "single_client_p50_speedup_4_shards_vs_1": {shard_speedup:.2},
    "note": "one keep-alive client against the same catalog at 1/2/4 shards; rankings bit-identical, only the scoring scatter differs. tiny(30) scores in ~µs, so scatter thread coordination dominates — the row prices that overhead"
  }},
  "tenant_matrix": {{
    "tenants": 4,
    "rps_ratio_single_tenant_vs_4_tenants": {tenant_overhead:.2},
    "note": "clients rotate /t/t0..t3/route over the same catalog; ratio vs route_keep_alive is the cost of tenant dispatch (lookup, quota gate, per-tenant metrics)"
  }},
  "federation": {{
    "backends": 2,
    "rps_ratio_direct_vs_proxied": {proxy_overhead:.2},
    "client_errors_during_backend_kill": {fault_errors},
    "degraded_responses": {degraded_total},
    "breaker_opens": {breaker_opens},
    "note": "scatter-gather proxy over two --shards 2 backends; healthy responses byte-identical to a single daemon. fault row: one backend shut down at t+34% and restarted at t+67% of the phase — clients saw zero errors (degraded 200s instead), and the breaker walked open -> half-open -> closed around the restart"
  }},
  "idle_soak": {{
    "requested_conns": {idle_conns},
    "parked_conns": {parked_count},
    "fd_soft_limit": {fd_limit},
    "rss_kb_before": {rss_kb_before},
    "rss_kb_soaked": {rss_kb_soaked},
    "rss_kb_per_idle_conn": {rss_per_conn:.2},
    "open_fds_before": {fds_before},
    "open_fds_soaked": {fds_soaked},
    "healthz_keep_alive_p99_ratio_vs_unsoaked": {soak_p99_ratio:.2},
    "note": "parked conns are established keep-alive connections (one /healthz served each); rss/fds are process-wide and include the in-process daemon AND the loadgen's client ends (3 fds per conn: daemon socket, client socket, client reader dup)"
  }},
  "topk": {{
    "knob": {knob},
    "cells": [
{topk_rows}
    ],
    "note": "keep-alive /route sweep over the pruned top-k serving path; `k` caps the served ranking inside the engine (maxscore kernels), `full` is the untruncated baseline. With 12 fixture databases the cells mostly price response-body size; the catalog-scale kernel win (2.1x at k=10 over 500 dbs) is recorded in BENCH_broker.json's route_topk group"
  }},
  "route_keep_alive_speedup_vs_close": {speedup:.2},
  "healthz_keep_alive_speedup_vs_close": {conn_speedup:.2},
  "reload": {{
    "count": {reloads},
    "errors": 0,
    "interval_ms": 100,
    "latency_ns": {{ "p50": {rl_p50}, "p99": {rl_p99} }},
    "latency_human": {{ "p50": "{rl_p50_h}", "p99": "{rl_p99_h}" }},
    "note": "v2 snapshot hot-swapped while /route clients hammer; zero failed in-flight requests"
  }},
  "refresh": {{
    "rounds": {final_generation},
    "budget_per_round": 2,
    "databases": {n_dbs},
    "round_interval_ms": 100,
    "refresher_poll_ms": 50,
    "final_catalog_generation": {final_generation},
    "delta_bytes_total": {refresh_delta_bytes},
    "delta_bytes_per_round": {delta_per_round:.0},
    "append_latency_ns": {{ "p50": {ap_p50}, "p99": {ap_p99} }},
    "append_latency_human": {{ "p50": "{ap_p50_h}", "p99": "{ap_p99_h}" }},
    "catalog_load_failures_total": 0,
    "note": "a churn thread plays the live-refresh pipeline (scheduler picks 2 stale dbs/round, pinned-epoch apply_probe, one delta file appended per round) against a chain directory the daemon serves with --refresh-interval-ms 50, while keep-alive /route clients hammer. Zero failed in-flight requests across every generation swap, zero chain-load failures, and the daemon converged on the final tip generation; delta bytes per round price re-freezing only the touched rows (full snapshot is ~3.3MB)"
  }},
  "note": "closed-loop clients; `route` opens one connection per request (Connection: close), `*_keep_alive` holds a persistent HTTP/1.1 connection per client; /route is scoring-bound so its keep-alive win is latency (p50), while the /healthz pair isolates per-request connect/teardown as throughput; latency is client-observed wall time"
}}"#,
        secs = duration.as_secs_f64(),
        knob = topk.map_or_else(|| "null".to_string(), |k| k.to_string()),
        clients = clients,
        workers = workers,
        nq = queries.len(),
        route_json = phase_json("route", clients, &route),
        keep_alive_json = phase_json("route_keep_alive", clients, &keep_alive),
        healthz_json = phase_json("healthz", clients, &healthz),
        healthz_keep_alive_json = phase_json("healthz_keep_alive", clients, &healthz_keep_alive),
        healthz_soaked_json = phase_json(
            "healthz_keep_alive_under_idle_soak",
            clients,
            &healthz_soaked
        ),
        idle_conns = idle_conns,
        parked_count = parked_count,
        fd_limit = fd_soft_limit(),
        rss_kb_before = rss_kb_before,
        rss_kb_soaked = rss_kb_soaked,
        rss_per_conn =
            (rss_kb_soaked.saturating_sub(rss_kb_before)) as f64 / (parked_count as f64).max(1.0),
        fds_before = fds_before,
        fds_soaked = fds_soaked,
        soak_p99_ratio = soak_p99_ratio,
        speedup = speedup,
        conn_speedup = conn_speedup,
        batch_json = phase_json("route_batch", clients.min(4), &batch),
        under_reload_json = phase_json("route_under_reload", clients, &under_reload),
        shards_1_json = phase_json("route_keep_alive_shards_1", 1, &shard_rows[0].1),
        shards_2_json = phase_json("route_keep_alive_shards_2", 1, &shard_rows[1].1),
        shards_4_json = phase_json("route_keep_alive_shards_4", 1, &shard_rows[2].1),
        tenant_matrix_json = phase_json("route_tenant_matrix", clients, &tenant_phase),
        proxy_json = phase_json("route_proxy_keep_alive", clients, &proxy_phase),
        proxy_fault_json = phase_json("route_proxy_under_backend_kill", clients, &under_fault),
        under_refresh_json = phase_json("route_under_refresh_churn", clients, &under_refresh),
        final_generation = final_generation,
        n_dbs = n_dbs,
        refresh_delta_bytes = refresh_delta_bytes,
        delta_per_round = refresh_delta_bytes as f64 / (final_generation as f64).max(1.0),
        ap_p50 = append_hist.percentile(0.50),
        ap_p99 = append_hist.percentile(0.99),
        ap_p50_h = server::metrics::format_nanos(append_hist.percentile(0.50)),
        ap_p99_h = server::metrics::format_nanos(append_hist.percentile(0.99)),
        proxy_overhead = proxy_overhead,
        fault_errors = under_fault.errors,
        degraded_total = degraded_total,
        breaker_opens = breaker_opens,
        shard_speedup = shard_speedup,
        tenant_overhead = tenant_overhead,
        reloads = reloads,
        rl_p50 = reload_hist.percentile(0.50),
        rl_p99 = reload_hist.percentile(0.99),
        rl_p50_h = server::metrics::format_nanos(reload_hist.percentile(0.50)),
        rl_p99_h = server::metrics::format_nanos(reload_hist.percentile(0.99)),
    );
}
