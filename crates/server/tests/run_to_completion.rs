//! `/route` runs to completion on the reactor that read it.
//!
//! What that must not cost: pipelined requests come back in order and
//! byte-identical; a panicking handler takes down only its connection; a
//! reactor held by one request does not hold back the others, nor does a
//! connection that pipelines without pause hold back the rest of its own
//! reactor; keep-alive connections spread evenly over the reactors; and the
//! timer wheel keeps one live entry per slab slot, extended lazily and
//! inherited by the slot's next connection, without moving a single
//! deadline — the idle reap still counts from the last request, a
//! dribbled request still gets its 408, and a client that never reads is
//! still closed after the write grace.

mod common;

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use common::{fixture_catalog, serving_state, start};
use server::state::ServingState;
use server::ServerConfig;

/// `ERROR_WRITE_GRACE` in `lib.rs`: how long a response may take to
/// flush once a write blocks, when its request deadline is nearer.
const WRITE_GRACE: Duration = Duration::from_secs(2);

fn fixture() -> ServingState {
    serving_state(&fixture_catalog(1.0), "mem")
}

fn route_request(body: &str, extra_headers: &str) -> String {
    format!(
        "POST /route HTTP/1.1\r\nHost: t\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One `Connection: close` exchange on a fresh connection: status and
/// body, or `None` when the daemon closed without a response.
fn exchange(addr: SocketAddr, raw: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write");
    let mut bytes = Vec::new();
    let _ = stream.read_to_end(&mut bytes); // an RST reads as no response
    let text = String::from_utf8(bytes).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

fn post_route(addr: SocketAddr, body: &str) -> (u16, String) {
    exchange(addr, &route_request(body, "Connection: close\r\n")).expect("a response")
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    exchange(addr, &raw).expect("a response")
}

/// Read one `Content-Length`-framed response off a kept-alive connection.
fn read_one_response<R: std::io::Read>(reader: &mut BufReader<R>) -> (u16, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read header line") > 0,
            "connection closed mid-headers (head so far: {head:?})"
        );
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// The value of a gauge or counter in a `/metrics` body; `name` carries
/// the labels, if any.
fn metric(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<()>) {
    let raw = "POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    assert_eq!(exchange(addr, raw).expect("a response").0, 200);
    handle.join().expect("daemon exits cleanly");
}

#[test]
fn a_thousand_pipelined_requests_come_back_in_order_and_byte_identical() {
    let (addr, handle) = start(
        ServerConfig {
            keep_alive_requests: usize::MAX,
            ..Default::default()
        },
        fixture(),
    );

    // Distinct requests, so a reordered response cannot pass for its
    // neighbour; one of them is served by the pool, so the reactor's loop
    // must stop for it and resume behind its completion.
    let routes = [
        r#"{"query":"heart blood surgery"}"#,
        r#"{"query":"soccer goal","algo":"bgloss","k":2}"#,
        r#"{"query":"stock market yield","algo":"lm","shrinkage":"never"}"#,
        r#"{"query":"virus immune zzzunknown","k":3}"#,
    ];
    let mut variants: Vec<(String, String)> = routes
        .iter()
        .map(|body| (route_request(body, ""), post_route(addr, body).1))
        .collect();
    let healthz = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_string();
    variants.push((healthz, get(addr, "/healthz").1));

    const REQUESTS: usize = 1000;
    let variant = |i: usize| &variants[i % variants.len()];
    let pipeline: String = (0..REQUESTS).map(|i| variant(i).0.as_str()).collect();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    // One write: every request is on the wire before the first response
    // is read (from another thread, so neither side's buffers can wedge).
    let sender = std::thread::spawn(move || writer.write_all(pipeline.as_bytes()));
    let mut reader = BufReader::new(stream);
    for i in 0..REQUESTS {
        let (status, body) = read_one_response(&mut reader);
        assert_eq!(status, 200, "response {i}: {body}");
        assert_eq!(body, variant(i).1, "response {i} is not its request's body");
    }
    sender.join().expect("sender").expect("write the pipeline");
    drop(reader);
    shutdown(addr, handle);
}

#[test]
fn an_inline_panic_drops_only_its_connection() {
    // One reactor: the one that caught the panic must serve what follows.
    let (addr, handle) = start(
        ServerConfig {
            workers: 1,
            debug_sleep: true,
            ..Default::default()
        },
        fixture(),
    );

    let body = r#"{"query":"heart blood"}"#;
    let raw = route_request(body, "Connection: close\r\nX-Debug-Panic: 1\r\n");
    assert_eq!(
        exchange(addr, &raw),
        None,
        "a panicked /route must not produce a response"
    );

    let (status, served) = post_route(addr, body);
    assert_eq!(status, 200, "the reactor must survive the panic: {served}");
    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(metric(&metrics, "dbselectd_worker_panics_total"), 1);
    shutdown(addr, handle);
}

#[test]
fn a_route_holding_its_reactor_does_not_delay_another_reactors() {
    let (addr, handle) = start(
        ServerConfig {
            workers: 2,
            debug_sleep: true,
            ..Default::default()
        },
        fixture(),
    );
    let body = r#"{"query":"heart blood"}"#;
    // Warm both the fixture and the engines, so the timed request below
    // measures waiting, not a first request's set-up.
    assert_eq!(post_route(addr, body).0, 200);

    let held = std::thread::spawn(move || {
        let raw = route_request(body, "Connection: close\r\nX-Debug-Route-Sleep-Ms: 600\r\n");
        exchange(addr, &raw).expect("a response").0
    });
    std::thread::sleep(Duration::from_millis(150)); // its reactor is asleep now

    let started = Instant::now();
    let (status, _) = post_route(addr, body);
    let waited = started.elapsed();
    assert_eq!(status, 200);
    assert!(
        waited < Duration::from_millis(200),
        "a fresh connection's /route waited {waited:?} behind another reactor's"
    );
    assert_eq!(held.join().expect("held request"), 200);
    shutdown(addr, handle);
}

#[test]
fn a_client_pipelining_without_pause_does_not_hold_its_reactor() {
    // One reactor, shared by a connection that never stops pipelining and
    // one that wants a single answer.
    let (addr, handle) = start(
        ServerConfig {
            workers: 1,
            keep_alive_requests: usize::MAX,
            ..Default::default()
        },
        fixture(),
    );
    let body = r#"{"query":"heart blood","k":3}"#;
    assert_eq!(post_route(addr, body).0, 200);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = stream;
    let flood = Arc::new(AtomicBool::new(true));
    let sender = {
        let flood = Arc::clone(&flood);
        let block = route_request(body, "").repeat(512);
        std::thread::spawn(move || {
            let mut sent = 0usize;
            while flood.load(Ordering::Relaxed) {
                writer.write_all(block.as_bytes()).expect("pipeline");
                sent += 512;
            }
            writer.shutdown(Shutdown::Write).expect("shutdown");
            sent
        })
    };
    // Responses are drained as fast as they come, so the daemon's writes
    // never block: nothing but the read discipline can let the reactor go.
    let drain = std::thread::spawn(move || {
        let mut chunk = vec![0u8; 64 * 1024];
        let mut total = 0usize;
        loop {
            match reader.read(&mut chunk) {
                Ok(0) | Err(_) => return total,
                Ok(n) => total += n,
            }
        }
    });
    std::thread::sleep(Duration::from_millis(300)); // the flood is flowing

    let mut fresh = TcpStream::connect(addr).expect("connect");
    fresh
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let started = Instant::now();
    fresh
        .write_all(route_request(body, "Connection: close\r\n").as_bytes())
        .expect("write");
    let mut response = String::new();
    let answered = fresh.read_to_string(&mut response).is_ok();
    let waited = started.elapsed();
    flood.store(false, Ordering::Relaxed);
    let sent = sender.join().expect("sender");
    let received = drain.join().expect("drain");

    assert!(
        answered && response.starts_with("HTTP/1.1 200 "),
        "no answer within {waited:?} while another connection pipelined: {response:?}"
    );
    assert!(
        waited < Duration::from_secs(1),
        "a fresh /route waited {waited:?} behind a pipelining connection"
    );
    assert!(
        sent > 512 && received > 0,
        "the flood must have been served"
    );
    shutdown(addr, handle);
}

#[test]
fn keep_alive_connections_spread_evenly_over_the_reactors() {
    const REACTORS: usize = 4;
    let (addr, handle) = start(
        ServerConfig {
            workers: REACTORS,
            ..Default::default()
        },
        fixture(),
    );
    let request = route_request(r#"{"query":"heart blood","k":3}"#, "");
    let mut kept = Vec::new();
    for _ in 0..2 * REACTORS {
        // One answered request per connection before the next connects:
        // each placement has happened, and been counted, by then.
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(request.as_bytes()).expect("write");
        assert_eq!(read_one_response(&mut reader).0, 200);
        kept.push((writer, reader));
    }

    let (_, metrics) = get(addr, "/metrics");
    let counts: Vec<u64> = (0..REACTORS)
        .map(|at| {
            metric(
                &metrics,
                &format!("dbselectd_reactor_connections{{reactor=\"{at}\"}}"),
            )
        })
        .collect();
    // The kept connections and the scraper.
    assert_eq!(counts.iter().sum::<u64>(), 2 * REACTORS as u64 + 1);
    let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
    assert!(spread <= 1, "connections per reactor: {counts:?}");

    // Every connection works on the reactor it was placed on.
    for (writer, reader) in &mut kept {
        writer.write_all(request.as_bytes()).expect("write");
        assert_eq!(read_one_response(reader).0, 200);
    }
    drop(kept);
    shutdown(addr, handle);
}

#[test]
fn the_timer_wheel_holds_entries_per_connection_not_per_request() {
    let (addr, handle) = start(
        ServerConfig {
            keep_alive_requests: usize::MAX,
            ..Default::default()
        },
        fixture(),
    );

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let request = route_request(r#"{"query":"heart blood","k":3}"#, "");
    for _ in 0..5000 {
        writer.write_all(request.as_bytes()).expect("write");
        assert_eq!(read_one_response(&mut reader).0, 200);
    }

    // Scraped while the routing connection is still open: it and the
    // scraper are the open connections.
    let (_, metrics) = get(addr, "/metrics");
    let timers = metric(&metrics, "dbselectd_reactor_timers");
    let open = metric(&metrics, "dbselectd_open_connections");
    assert!(
        timers <= 2 * open,
        "{timers} timer entries for {open} open connections after 5 000 requests"
    );
    drop((writer, reader));
    shutdown(addr, handle);
}

#[test]
fn connections_that_come_and_go_leave_no_timer_entries_behind() {
    // One reactor, so every one-shot connection reuses the same slab slot
    // and the entry its predecessor left in the wheel.
    let (addr, handle) = start(
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
        fixture(),
    );
    for _ in 0..1000 {
        assert_eq!(post_route(addr, r#"{"query":"heart blood","k":3}"#).0, 200);
    }
    let (_, metrics) = get(addr, "/metrics");
    let timers = metric(&metrics, "dbselectd_reactor_timers");
    let open = metric(&metrics, "dbselectd_open_connections");
    assert!(
        timers <= 2 * open,
        "{timers} timer entries for {open} open connections after 1 000 connections"
    );
    shutdown(addr, handle);
}

#[test]
fn idle_reap_counts_from_the_last_request_not_the_first() {
    let idle = Duration::from_millis(400);
    let (addr, handle) = start(
        ServerConfig {
            idle_timeout: idle,
            ..Default::default()
        },
        fixture(),
    );

    // Requests spaced below the idle timeout, for three times as long as
    // it: a reap armed by the first request and never extended would
    // close the connection under the later ones.
    let stream = TcpStream::connect(addr).expect("connect");
    // A reap that never comes fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(idle + Duration::from_secs(5)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let request = route_request(r#"{"query":"heart"}"#, "");
    let series = Instant::now();
    while series.elapsed() < 3 * idle {
        writer.write_all(request.as_bytes()).expect("write");
        assert_eq!(read_one_response(&mut reader).0, 200);
        std::thread::sleep(idle / 3);
    }
    writer.write_all(request.as_bytes()).expect("write");
    assert_eq!(read_one_response(&mut reader).0, 200);

    let last = Instant::now();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read");
    let reaped_after = last.elapsed();
    assert!(rest.is_empty(), "idle close must not write a response");
    assert!(
        reaped_after >= idle - Duration::from_millis(100),
        "reaped {reaped_after:?} after the last request, under the {idle:?} idle timeout"
    );
    assert!(
        reaped_after < idle + Duration::from_secs(2),
        "reaped {reaped_after:?} after the last request"
    );
    shutdown(addr, handle);
}

#[test]
fn a_dribbled_request_on_a_kept_alive_connection_gets_408_at_its_deadline() {
    let deadline = Duration::from_millis(300);
    let (addr, handle) = start(
        ServerConfig {
            deadline,
            idle_timeout: Duration::from_secs(5),
            ..Default::default()
        },
        fixture(),
    );

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(deadline + WRITE_GRACE + Duration::from_secs(5)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(route_request(r#"{"query":"heart"}"#, "").as_bytes())
        .expect("write");
    assert_eq!(read_one_response(&mut reader).0, 200);
    // Past the accept-time deadline: the connection's live entry is now
    // its idle reap, seconds out, and the next request's deadline is
    // nearer than that.
    std::thread::sleep(2 * deadline);

    let started = Instant::now();
    let dribbler = std::thread::spawn(move || {
        for byte in route_request(r#"{"query":"heart blood"}"#, "").bytes() {
            if writer.write_all(&[byte]).is_err() {
                return; // the daemon gave up on us — the point
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });
    let mut response = String::new();
    reader.read_to_string(&mut response).expect("read");
    let elapsed = started.elapsed();
    dribbler.join().expect("dribbler");
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "dribbled request must time out, got: {response}"
    );
    assert!(
        elapsed >= deadline - Duration::from_millis(50) && elapsed < deadline + WRITE_GRACE,
        "408 after {elapsed:?} for a {deadline:?} deadline"
    );
    shutdown(addr, handle);
}

#[test]
fn an_inline_client_that_never_reads_is_closed_after_the_write_grace() {
    // One reactor, which must keep serving the scrapes below while the
    // stuck connection waits for write readiness.
    let (addr, handle) = start(
        ServerConfig {
            workers: 1,
            deadline: Duration::from_millis(300),
            keep_alive_requests: usize::MAX,
            ..Default::default()
        },
        fixture(),
    );

    // Unknown words are echoed back, so each response is ~20 KB for
    // little routing work: pipelined without reading, they fill the
    // socket buffers until the daemon's write blocks.
    let pad: Vec<String> = (0..1000).map(|i| format!("zzzunknownpad{i:04}")).collect();
    let request = route_request(&format!(r#"{{"query":"heart {}"}}"#, pad.join(" ")), "");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .expect("write timeout");
    let sender = std::thread::spawn(move || {
        while stream.write_all(request.as_bytes()).is_ok() {}
        stream // dropped by the test, never read
    });

    let gauges = || {
        let (_, metrics) = get(addr, "/metrics");
        (
            metric(&metrics, "dbselectd_connections_state{state=\"writing\"}"),
            metric(&metrics, "dbselectd_open_connections"),
        )
    };
    let poll_until = |what: &str, done: &dyn Fn((u64, u64)) -> bool, bound: Duration| {
        let started = Instant::now();
        loop {
            if done(gauges()) {
                return started.elapsed();
            }
            assert!(started.elapsed() < bound, "{what} not within {bound:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    // (An inline response passes through Writing on every request, so
    // this may catch one mid-flush rather than blocked: the bound below
    // leaves room for the buffers to fill after it.)
    poll_until(
        "the write blocking",
        &|(writing, _)| writing == 1,
        Duration::from_secs(20),
    );
    // Only the scraper left open: the stuck connection was closed. The
    // client keeps its socket open throughout, so nothing but the write
    // grace can close it.
    let closed_after = poll_until(
        "the close",
        &|(_, open)| open == 1,
        WRITE_GRACE + Duration::from_secs(8),
    );
    eprintln!("stuck writer closed {closed_after:?} after it was seen blocked");

    drop(sender.join().expect("sender"));
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metric(&metrics, "dbselectd_worker_panics_total"), 0);
    shutdown(addr, handle);
}
