//! End-to-end tests of the federated proxy tier over real sockets.
//!
//! The load-bearing assertions: a proxy fronting two real shard daemons
//! serves `/route` and `/route_batch` responses **byte-identical** to a
//! single monolithic daemon for every (algorithm, shrinkage mode) pair;
//! backend faults (killed daemon, stalled accept, mid-body close,
//! garbage JSON, slow dribbler) degrade responses instead of failing
//! them — the client never sees a 5xx while at least one shard is up;
//! the per-backend circuit breaker opens on a dead backend and recovers
//! through a half-open probe once it comes back.

mod common;

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use common::{fixture_catalog, serving_state, start};
use server::json::Json;
use server::state::ServingState;
use server::{ProxyConfig, Server, ServerConfig};
use store::snapshot::ServingSnapshot;

/// One `Connection: close` HTTP exchange on a fresh connection.
fn exchange(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read");
    let text = String::from_utf8(bytes).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<()>) {
    let (status, _, _) = post(addr, "/admin/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("accept loop exits cleanly");
}

/// A shard daemon for the proxy to scatter to: a plain daemon over the
/// **full** snapshot, so it can run the global choose phase and score
/// whichever shard the proxy's request names.
fn shard_backend() -> (SocketAddr, JoinHandle<()>) {
    let state = ServingState::from_snapshot(
        ServingSnapshot::from_stored(&fixture_catalog(1.0)),
        "mem".to_string(),
        0,
    );
    start(ServerConfig::default(), state)
}

/// Start a proxy daemon over `backends` on an OS-assigned port.
fn start_proxy(mut config: ServerConfig, proxy: ProxyConfig) -> (SocketAddr, JoinHandle<()>) {
    config.proxy = Some(proxy);
    let daemon = Server::bind_proxy(config).expect("bind proxy");
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || daemon.run().expect("run"));
    (addr, handle)
}

fn proxy_over(backends: &[SocketAddr]) -> ProxyConfig {
    ProxyConfig {
        backends: backends.iter().map(|a| a.to_string()).collect(),
        health_interval: Duration::from_millis(50),
        ..Default::default()
    }
}

/// Poll `probe` until it holds or a generous deadline passes.
fn wait_for(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

/// The value of a Prometheus sample whose line starts with `prefix`
/// (metric name, or name + label set, followed by a space).
fn metric(body: &str, prefix: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        line.strip_prefix(prefix)
            .and_then(|rest| rest.trim().parse().ok())
    })
}

/// An address that refuses connections: bind an OS port, then free it.
fn dead_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .expect("reserve port")
        .local_addr()
        .expect("reserved addr")
}

/// A scripted fault backend: accepts connections, reads one request
/// head, and answers with `respond` — which may lie about its length,
/// dribble, or slam the connection shut. Runs until `stop` is set.
fn scripted_backend(
    respond: impl Fn(&mut TcpStream) + Send + 'static,
) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fault backend");
    let addr = listener.local_addr().expect("fault backend addr");
    listener.set_nonblocking(true).expect("nonblocking");
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        while !stop_flag.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((mut conn, _)) => {
                    conn.set_read_timeout(Some(Duration::from_secs(2))).ok();
                    // Read until the blank line so the peer's write
                    // completes before the scripted fault lands.
                    let mut head = Vec::new();
                    let mut byte = [0u8; 1];
                    while !head.ends_with(b"\r\n\r\n") {
                        match conn.read(&mut byte) {
                            Ok(1) => head.push(byte[0]),
                            _ => break,
                        }
                    }
                    respond(&mut conn);
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });
    (addr, stop, handle)
}

fn stop_scripted(stop: Arc<AtomicBool>, handle: JoinHandle<()>) {
    stop.store(true, Ordering::SeqCst);
    handle.join().expect("fault backend exits");
}

const QUERIES: [&str; 5] = [
    "heart blood surgery",
    "soccer goal keeper",
    "stock market yield goal",
    "virus immune protein blood",
    "heart unknownword stadium",
];

/// Two backends; one, whose only shard is the whole catalog; and four,
/// where the fixture's six databases leave the last block empty — an
/// empty partial, not a missing one, so the answer is still whole.
#[test]
fn proxy_is_byte_identical_to_the_monolithic_daemon() {
    let monolith = serving_state(&fixture_catalog(1.0), "mem");
    let (mono_addr, mono_handle) = start(ServerConfig::default(), monolith);
    for count in [2, 1, 4] {
        assert_proxy_matches_monolith(mono_addr, count);
    }
    shutdown(mono_addr, mono_handle);
}

/// A proxy over `count` fresh backends answers every request with the
/// monolithic daemon's bytes.
fn assert_proxy_matches_monolith(mono_addr: SocketAddr, count: usize) {
    let backends: Vec<(SocketAddr, JoinHandle<()>)> = (0..count).map(|_| shard_backend()).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|(addr, _)| *addr).collect();
    let (proxy_addr, proxy_handle) = start_proxy(ServerConfig::default(), proxy_over(&addrs));

    // Readiness sticks once the health checker has seen every backend.
    wait_for("proxy readiness", || get(proxy_addr, "/readyz").0 == 200);
    let (_, _, ready_body) = get(proxy_addr, "/readyz");
    let ready = Json::parse(&ready_body).expect("readyz JSON");
    assert_eq!(ready.get("ready"), Some(&Json::Bool(true)));
    assert_eq!(
        ready
            .get("backends")
            .and_then(Json::as_array)
            .map(|b| b.len()),
        Some(count)
    );

    for algo in ["bgloss", "cori", "lm"] {
        for mode in ["adaptive", "always", "never"] {
            for (qi, line) in QUERIES.iter().enumerate() {
                let body = format!(
                    r#"{{"query":"{line}","algo":"{algo}","shrinkage":"{mode}","seed":{}}}"#,
                    42 + qi as u64
                );
                let (mono_status, _, mono_body) = post(mono_addr, "/route", &body);
                let (proxy_status, _, proxy_body) = post(proxy_addr, "/route", &body);
                assert_eq!(mono_status, 200, "{mono_body}");
                assert_eq!(proxy_status, 200, "{proxy_body}");
                assert_eq!(
                    proxy_body, mono_body,
                    "proxy diverged from monolith for {algo}/{mode} on {line:?}"
                );
            }
        }
    }

    // Truncation and batching go through the same merge path.
    for body in [
        r#"{"query":"heart blood surgery","k":2}"#.to_string(),
        format!(
            r#"{{"queries":[{}],"algo":"cori","shrinkage":"always","seed":7,"k":3}}"#,
            QUERIES
                .iter()
                .map(|q| format!("{q:?}"))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ] {
        let path = if body.contains("queries") {
            "/route_batch"
        } else {
            "/route"
        };
        let (mono_status, _, mono_body) = post(mono_addr, path, &body);
        let (proxy_status, _, proxy_body) = post(proxy_addr, path, &body);
        assert_eq!((mono_status, proxy_status), (200, 200), "{proxy_body}");
        assert_eq!(proxy_body, mono_body, "proxy diverged on {path}");
    }

    let (status, _, _) = get(proxy_addr, "/healthz");
    assert_eq!(status, 200);
    let (status, _, metrics) = get(proxy_addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metric(&metrics, "dbselectd_proxy_ready "), Some(1.0));
    assert_eq!(
        metric(&metrics, "dbselectd_proxy_backends "),
        Some(count as f64)
    );
    assert_eq!(
        metric(&metrics, "dbselectd_proxy_degraded_total "),
        Some(0.0)
    );
    for backend in &addrs {
        let up = format!("dbselectd_backend_up{{backend=\"{backend}\"}} ");
        assert_eq!(metric(&metrics, &up), Some(1.0), "{metrics}");
        let state = format!("dbselectd_backend_breaker_state{{backend=\"{backend}\"}} ");
        assert_eq!(metric(&metrics, &state), Some(0.0));
        let count =
            format!("dbselectd_backend_request_duration_seconds_count{{backend=\"{backend}\"}} ");
        assert!(metric(&metrics, &count).unwrap() >= 1.0);
    }

    shutdown(proxy_addr, proxy_handle);
    for (addr, handle) in backends {
        shutdown(addr, handle);
    }
}

#[test]
fn a_dead_shard_degrades_the_response_instead_of_failing_it() {
    let (b0_addr, b0_handle) = shard_backend();
    let (proxy_addr, proxy_handle) = start_proxy(
        ServerConfig::default(),
        ProxyConfig {
            backends: vec![b0_addr.to_string(), dead_addr().to_string()],
            retries: 1,
            backoff_base: Duration::from_millis(5),
            // Keep the prober from opening the breaker mid-test: the
            // request path itself must discover and survive the fault.
            breaker_failures: 1000,
            health_interval: Duration::from_secs(5),
            ..Default::default()
        },
    );

    let body = r#"{"query":"heart blood surgery","algo":"cori","seed":42}"#;
    let (status, _, response) = post(proxy_addr, "/route", body);
    assert_eq!(
        status, 200,
        "a reachable shard must keep serving: {response}"
    );
    let parsed = Json::parse(&response).expect("degraded JSON");
    assert_eq!(parsed.get("degraded"), Some(&Json::Bool(true)));
    assert_eq!(
        parsed.get("missing_shards"),
        Some(&Json::Arr(vec![Json::Num(1.0)]))
    );
    let ranking = parsed
        .get("ranking")
        .and_then(Json::as_array)
        .expect("partial ranking");
    assert!(!ranking.is_empty(), "shard 0's databases still rank");
    for (rank, entry) in ranking.iter().enumerate() {
        assert_eq!(
            entry.get("rank").and_then(Json::as_u64),
            Some(rank as u64 + 1),
            "merged ranking is renumbered densely"
        );
    }

    // Batch requests degrade the same way.
    let batch = r#"{"queries":["heart blood","soccer goal"],"seed":7}"#;
    let (status, _, response) = post(proxy_addr, "/route_batch", batch);
    assert_eq!(status, 200, "{response}");
    let parsed = Json::parse(&response).expect("batch JSON");
    assert_eq!(parsed.get("degraded"), Some(&Json::Bool(true)));
    assert_eq!(
        parsed
            .get("results")
            .and_then(Json::as_array)
            .map(|r| r.len()),
        Some(2)
    );

    let (_, _, metrics) = get(proxy_addr, "/metrics");
    assert!(metric(&metrics, "dbselectd_proxy_degraded_total ").unwrap() >= 2.0);
    let failures: f64 = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("dbselectd_backend_failures_total{"))
        .filter_map(|l| l.split("} ").nth(1)?.trim().parse::<f64>().ok())
        .sum();
    assert!(failures >= 1.0, "the dead backend's failures are counted");

    shutdown(proxy_addr, proxy_handle);
    shutdown(b0_addr, b0_handle);
}

/// The degraded layout: the monolithic fields in their order, then the
/// two markers, in that order, as the body's last bytes — on both
/// routing endpoints.
#[test]
fn degraded_bodies_end_with_the_markers_after_the_monolithic_fields() {
    let (b0_addr, b0_handle) = shard_backend();
    let (proxy_addr, proxy_handle) = start_proxy(
        ServerConfig::default(),
        ProxyConfig {
            backends: vec![b0_addr.to_string(), dead_addr().to_string()],
            retries: 0,
            breaker_failures: 1000,
            health_interval: Duration::from_secs(5),
            ..Default::default()
        },
    );

    let cases: [(&str, &str, &[&str]); 2] = [
        (
            "/route",
            r#"{"query":"heart blood surgery","seed":42}"#,
            &[
                "generation",
                "unknown",
                "ranking",
                "degraded",
                "missing_shards",
            ],
        ),
        (
            "/route_batch",
            r#"{"queries":["heart blood","soccer goal"],"seed":7}"#,
            &["generation", "results", "degraded", "missing_shards"],
        ),
    ];
    for (path, body, keys) in cases {
        let (status, _, response) = post(proxy_addr, path, body);
        assert_eq!(status, 200, "{path}: {response}");
        let Ok(Json::Obj(fields)) = Json::parse(&response) else {
            panic!("{path}: not a JSON object: {response}");
        };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, keys, "{path}: {response}");
        assert!(
            response.ends_with(r#","degraded":true,"missing_shards":[1]}"#),
            "{path}: {response}"
        );
    }

    shutdown(proxy_addr, proxy_handle);
    shutdown(b0_addr, b0_handle);
}

#[test]
fn breaker_opens_on_a_killed_backend_and_recovers_after_restart() {
    // Reserve a port for the backend, then leave it dead: the proxy
    // starts against a connection-refusing address.
    let backend_addr = dead_addr();
    let (proxy_addr, proxy_handle) = start_proxy(
        ServerConfig::default(),
        ProxyConfig {
            backends: vec![backend_addr.to_string()],
            retries: 0,
            breaker_failures: 2,
            breaker_cooldown: Duration::from_millis(200),
            health_interval: Duration::from_millis(40),
            ..Default::default()
        },
    );
    let breaker_state = format!("dbselectd_backend_breaker_state{{backend=\"{backend_addr}\"}} ");
    let opens = format!("dbselectd_backend_breaker_opens_total{{backend=\"{backend_addr}\"}} ");

    // The prober's failures trip the breaker without any client traffic.
    wait_for("breaker to open", || {
        let (_, _, metrics) = get(proxy_addr, "/metrics");
        metric(&metrics, &breaker_state) == Some(1.0)
    });
    let (_, _, metrics) = get(proxy_addr, "/metrics");
    assert!(metric(&metrics, &opens).unwrap() >= 1.0);
    assert_eq!(
        metric(
            &metrics,
            &format!("dbselectd_backend_up{{backend=\"{backend_addr}\"}} ")
        ),
        Some(0.0)
    );

    // With its only shard fenced off, the proxy answers 503 — the one
    // case it surfaces an error — and /readyz has never gone ready.
    let (status, head, _) = post(proxy_addr, "/route", r#"{"query":"heart blood","seed":1}"#);
    assert_eq!(status, 503);
    assert!(head.contains("Retry-After:"), "{head}");
    let (status, head, _) = get(proxy_addr, "/readyz");
    assert_eq!(status, 503);
    assert!(head.contains("Retry-After:"), "{head}");

    // Restart the backend on the same address: the next half-open probe
    // must close the breaker and readiness must stick.
    let state = serving_state(&fixture_catalog(1.0), "mem");
    let (restarted, backend_handle) = start(
        ServerConfig {
            addr: backend_addr.to_string(),
            ..Default::default()
        },
        state,
    );
    assert_eq!(restarted, backend_addr);
    wait_for("breaker to close after restart", || {
        let (_, _, metrics) = get(proxy_addr, "/metrics");
        metric(&metrics, &breaker_state) == Some(0.0)
    });
    wait_for("readiness after recovery", || {
        get(proxy_addr, "/readyz").0 == 200
    });

    // Recovered end to end: the proxied answer matches the backend's own.
    let body = r#"{"query":"heart blood surgery","algo":"lm","shrinkage":"always","seed":9}"#;
    let (status, _, proxied) = post(proxy_addr, "/route", body);
    assert_eq!(status, 200, "{proxied}");
    let (_, _, direct) = post(backend_addr, "/route", body);
    assert_eq!(proxied, direct, "recovered proxy serves bit-identically");

    shutdown(proxy_addr, proxy_handle);
    shutdown(backend_addr, backend_handle);
}

#[test]
fn garbage_and_truncated_backend_responses_are_retried_then_degraded() {
    let (b0_addr, b0_handle) = shard_backend();
    // Shard 1 answers 200 with an unparseable body — the proxy must
    // treat that like a transport fault: retry, then drop the shard.
    let (garbage_addr, garbage_stop, garbage_handle) = scripted_backend(|conn| {
        conn.write_all(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 9\r\nConnection: close\r\n\r\nnot json!",
        )
        .ok();
    });
    let (proxy_addr, proxy_handle) = start_proxy(
        ServerConfig::default(),
        ProxyConfig {
            backends: vec![b0_addr.to_string(), garbage_addr.to_string()],
            retries: 2,
            backoff_base: Duration::from_millis(5),
            breaker_failures: 1000,
            health_interval: Duration::from_secs(5),
            ..Default::default()
        },
    );

    let body = r#"{"query":"stock market yield","algo":"bgloss","seed":3}"#;
    let (status, _, response) = post(proxy_addr, "/route", body);
    assert_eq!(status, 200, "garbage from one shard is not a client error");
    let parsed = Json::parse(&response).expect("degraded JSON");
    assert_eq!(parsed.get("degraded"), Some(&Json::Bool(true)));
    let (_, _, metrics) = get(proxy_addr, "/metrics");
    let retries = format!("dbselectd_backend_retries_total{{backend=\"{garbage_addr}\"}} ");
    assert!(
        metric(&metrics, &retries).unwrap() >= 1.0,
        "unparseable responses burn the retry budget: {metrics}"
    );
    shutdown(proxy_addr, proxy_handle);
    stop_scripted(garbage_stop, garbage_handle);

    // Shard 1 promises 1000 body bytes and closes mid-body.
    let (cut_addr, cut_stop, cut_handle) = scripted_backend(|conn| {
        conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n{\"gener")
            .ok();
    });
    let (proxy_addr, proxy_handle) = start_proxy(
        ServerConfig::default(),
        ProxyConfig {
            backends: vec![b0_addr.to_string(), cut_addr.to_string()],
            retries: 1,
            backoff_base: Duration::from_millis(5),
            breaker_failures: 1000,
            health_interval: Duration::from_secs(5),
            ..Default::default()
        },
    );
    let (status, _, response) = post(proxy_addr, "/route", body);
    assert_eq!(status, 200, "mid-body close is not a client error");
    let parsed = Json::parse(&response).expect("degraded JSON");
    assert_eq!(parsed.get("degraded"), Some(&Json::Bool(true)));
    shutdown(proxy_addr, proxy_handle);
    stop_scripted(cut_stop, cut_handle);

    shutdown(b0_addr, b0_handle);
}

#[test]
fn stalled_and_dribbling_backends_are_bounded_by_the_deadline() {
    let (b0_addr, b0_handle) = shard_backend();
    // A listener that never accepts: connects land in the backlog and
    // the request stalls until the per-attempt budget expires.
    let stalled = TcpListener::bind("127.0.0.1:0").expect("bind stalled backend");
    let stalled_addr = stalled.local_addr().expect("stalled addr");
    // A backend that accepts but dribbles one header byte at a time,
    // never finishing inside any sane deadline.
    let (dribble_addr, dribble_stop, dribble_handle) = scripted_backend(|conn| {
        for byte in b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n" {
            if conn.write_all(&[*byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(40));
        }
    });

    let config = ServerConfig {
        deadline: Duration::from_millis(900),
        ..Default::default()
    };
    let (proxy_addr, proxy_handle) = start_proxy(
        config,
        ProxyConfig {
            backends: vec![
                b0_addr.to_string(),
                stalled_addr.to_string(),
                dribble_addr.to_string(),
            ],
            retries: 1,
            backoff_base: Duration::from_millis(5),
            breaker_failures: 1000,
            health_interval: Duration::from_secs(30),
            ..Default::default()
        },
    );

    // 3 proxy backends means 3-way sharding: the healthy backend scores
    // shard 0 of 3, the stalled and dribbling ones own shards 1 and 2.
    // What matters here: the healthy shard's answer arrives, the stalled
    // and dribbling shards are cut off by the deadline, and the client
    // waits at most one deadline.
    let started = Instant::now();
    let body = r#"{"query":"virus immune protein","seed":11}"#;
    let (status, _, response) = post(proxy_addr, "/route", body);
    let elapsed = started.elapsed();
    assert_eq!(
        status, 200,
        "slow shards must not fail the request: {response}"
    );
    let parsed = Json::parse(&response).expect("degraded JSON");
    assert_eq!(parsed.get("degraded"), Some(&Json::Bool(true)));
    let missing = parsed
        .get("missing_shards")
        .and_then(Json::as_array)
        .expect("missing shard list");
    assert!(
        missing.contains(&Json::Num(1.0)) && missing.contains(&Json::Num(2.0)),
        "both pathological shards are reported missing: {response}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "the deadline bounds slow shards (took {elapsed:?})"
    );

    shutdown(proxy_addr, proxy_handle);
    drop(stalled);
    stop_scripted(dribble_stop, dribble_handle);
    shutdown(b0_addr, b0_handle);
}

#[test]
fn all_shards_down_is_a_503_with_the_configured_retry_after() {
    let (proxy_addr, proxy_handle) = start_proxy(
        ServerConfig {
            retry_after: Duration::from_millis(2500),
            ..Default::default()
        },
        ProxyConfig {
            backends: vec![dead_addr().to_string(), dead_addr().to_string()],
            retries: 0,
            breaker_failures: 1000,
            health_interval: Duration::from_secs(5),
            ..Default::default()
        },
    );

    let (status, head, body) = post(proxy_addr, "/route", r#"{"query":"heart","seed":1}"#);
    assert_eq!(status, 503, "{body}");
    // 2500ms rounds up to the next whole second.
    assert!(head.contains("Retry-After: 3"), "{head}");

    // Client errors are still the client's: validation happens before
    // the scatter, so a bad request never depends on backend health.
    let (status, _, body) = post(proxy_addr, "/route", r#"{"algo":"cori"}"#);
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = post(proxy_addr, "/route", r#"{"query":"heart","algo":"nope"}"#);
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = post(proxy_addr, "/route", r#"{"query":"heart","shard":0}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("reserved for proxy-to-backend"), "{body}");
    let (status, _, _) = get(proxy_addr, "/route");
    assert_eq!(status, 405);
    let (status, _, _) = post(proxy_addr, "/nope", "{}");
    assert_eq!(status, 404);

    shutdown(proxy_addr, proxy_handle);
}

#[test]
fn a_backend_4xx_passes_through_to_the_client() {
    let (b0_addr, b0_handle) = shard_backend();
    let (reject_addr, reject_stop, reject_handle) = scripted_backend(|conn| {
        let body = br#"{"error":"scripted backend rejection"}"#;
        conn.write_all(
            format!(
                "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .ok();
        conn.write_all(body).ok();
    });
    let (proxy_addr, proxy_handle) = start_proxy(
        ServerConfig::default(),
        ProxyConfig {
            backends: vec![b0_addr.to_string(), reject_addr.to_string()],
            retries: 1,
            breaker_failures: 1000,
            health_interval: Duration::from_secs(5),
            ..Default::default()
        },
    );

    // The request is valid at the proxy; the backend's rejection (e.g. a
    // generation or shard-shape disagreement) is forwarded, not masked
    // as a degraded 200 built from half the shards.
    let (status, _, body) = post(
        proxy_addr,
        "/route",
        r#"{"query":"heart blood","algo":"cori","seed":2}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("scripted backend rejection"), "{body}");

    shutdown(proxy_addr, proxy_handle);
    stop_scripted(reject_stop, reject_handle);
    shutdown(b0_addr, b0_handle);
}

/// The fixture with database names and category paths that need every
/// escape the JSON writer knows, and some it must pass through untouched.
fn escaped_names_state() -> ServingState {
    let mut store = common::fixture_store(1.0);
    let names = [
        "quo\"te",
        "back\\slash\\",
        "ctl\u{1}\t\n\r\u{1f}",
        "μετα—search 🗄",
        "",
        "</script>\u{7f}\u{80}",
    ];
    let mut hierarchy = dbselect_core::hierarchy::Hierarchy::new("Ro\"ot");
    let paths = [
        "Heal\"th/He\\art",
        "Sp\u{2}orts/Socc\u{e9}r",
        "Ψυχή",
        "数据/库\u{0}",
    ];
    let categories: Vec<_> = paths.iter().map(|p| hierarchy.ensure_path(p)).collect();
    for (at, (db, name)) in store.databases.iter_mut().zip(names).enumerate() {
        db.name = name.to_string();
        db.classification = categories[at % categories.len()];
    }
    store.hierarchy = hierarchy;
    let frozen = store::catalog::StoredCatalog::freeze(
        store,
        dbselect_core::category_summary::CategoryWeighting::BySize,
    );
    serving_state(&frozen, "mem")
}

/// The body a `/route` answer must be, rendered as a `Json` tree from the
/// engine's own ranking: `shard` selects a backend's block and leads its
/// entries with the global index.
fn oracle_routed(
    state: &ServingState,
    line: &str,
    algo: &str,
    k: usize,
    shard: Option<(usize, usize)>,
) -> Vec<(String, Json)> {
    let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    let (query, unknown) = state.analyze(&words);
    let algo = server::state::Algo::parse(algo).expect("algo");
    let engine = state.engine(algo, selection::ShrinkageMode::Adaptive);
    let members: Option<Vec<u32>> = shard.map(|(shard, shards)| {
        let block = broker::contiguous_block(state.databases(), shard, shards);
        block.map(|db| db as u32).collect()
    });
    let outcome = engine.route_partition_topk(&query, k, members.as_deref());
    let ranking = outcome.ranking.iter().enumerate().map(|(at, r)| {
        let lead = match shard {
            None => ("rank".to_string(), Json::Num((at + 1) as f64)),
            Some(_) => ("index".to_string(), Json::Num(r.index as f64)),
        };
        Json::obj(vec![
            lead,
            ("database".into(), Json::Str(state.name(r.index).into())),
            ("category".into(), Json::Str(state.category(r.index))),
            ("score".into(), Json::Num(r.score)),
            (
                "shrinkage_used".into(),
                Json::Bool(outcome.used_shrinkage[r.index]),
            ),
        ])
    });
    vec![
        (
            "unknown".into(),
            Json::Arr(unknown.into_iter().map(Json::Str).collect()),
        ),
        ("ranking".into(), Json::Arr(ranking.collect())),
    ]
}

/// Names and paths that need escaping are served as the oracle renders
/// them — `/route`, its shard form and `/route_batch`, from the daemon
/// and through the proxy — though the daemon writes them from fragments
/// escaped once per generation and the proxy re-escapes a backend's.
#[test]
fn names_that_need_escaping_are_served_as_the_oracle_renders_them() {
    let state = escaped_names_state();
    let (addr, handle) = start(ServerConfig::default(), escaped_names_state());
    let backends: Vec<(SocketAddr, JoinHandle<()>)> = (0..2)
        .map(|_| start(ServerConfig::default(), escaped_names_state()))
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|(addr, _)| *addr).collect();
    let (proxy_addr, proxy_handle) = start_proxy(ServerConfig::default(), proxy_over(&addrs));
    wait_for("proxy readiness", || get(proxy_addr, "/readyz").0 == 200);

    let generation = || ("generation".to_string(), Json::Num(1.0));
    for algo in ["bgloss", "cori", "lm"] {
        for (line, k) in QUERIES.iter().zip([1, 3, 6, 10, 2]) {
            let body = format!(r#"{{"query":"{line}","algo":"{algo}","k":{k}}}"#);
            let mut want = vec![generation()];
            want.extend(oracle_routed(&state, line, algo, k, None));
            let want = Json::obj(want).render();
            for at in [addr, proxy_addr] {
                let (status, _, served) = post(at, "/route", &body);
                assert_eq!((status, &served), (200, &want), "{algo} {line:?}");
            }
            for shard in 0..2 {
                let body = format!(
                    r#"{{"query":"{line}","algo":"{algo}","k":{k},"shard":{shard},"shards":2}}"#
                );
                let mut want = vec![generation()];
                want.push(("shards".into(), Json::Num(2.0)));
                want.push(("shard".into(), Json::Num(shard as f64)));
                want.extend(oracle_routed(&state, line, algo, k, Some((shard, 2))));
                let (status, _, served) = post(addr, "/route", &body);
                assert_eq!((status, served), (200, Json::obj(want).render()));
            }
        }
        let lines: Vec<String> = QUERIES.iter().map(|q| format!("{q:?}")).collect();
        let body = format!(
            r#"{{"queries":[{}],"algo":"{algo}","k":4}}"#,
            lines.join(",")
        );
        let results = QUERIES
            .iter()
            .map(|line| Json::obj(oracle_routed(&state, line, algo, 4, None)));
        let want = Json::obj(vec![
            generation(),
            ("results".into(), Json::Arr(results.collect())),
        ])
        .render();
        for at in [addr, proxy_addr] {
            let (status, _, served) = post(at, "/route_batch", &body);
            assert_eq!((status, &served), (200, &want), "{algo} batch");
        }
    }

    shutdown(proxy_addr, proxy_handle);
    for (backend, handle) in backends {
        shutdown(backend, handle);
    }
    shutdown(addr, handle);
}
