//! Deterministic fault injection against a one-worker daemon.
//!
//! Every test runs `workers: 1`, so a single wedged connection stalls the
//! whole pool — the "worker was freed" assertion is simply that a fresh
//! health probe gets answered shortly after the fault, and the "never
//! panicked" assertion reads `dbselectd_worker_panics_total` off
//! `/metrics`. The faults are the classic slow-client pathologies:
//! dribbling request bytes, stalling after headers, closing mid-body, and
//! never reading the response.

mod common;

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use common::{fixture_catalog, serving_state, start};
use server::ServerConfig;

/// The daemon under fault: one worker, a short request deadline, a short
/// idle timeout, debug headers enabled.
fn faultable() -> ServerConfig {
    ServerConfig {
        workers: 1,
        deadline: Duration::from_millis(400),
        idle_timeout: Duration::from_millis(300),
        debug_sleep: true,
        ..Default::default()
    }
}

/// Matches `ERROR_WRITE_GRACE` in `lib.rs`: the bounded extra budget the
/// daemon grants itself to flush a 408/504 after the deadline passed.
const WRITE_GRACE: Duration = Duration::from_secs(2);

/// One close-mode exchange; `Err` when the connection was torn down
/// before a response could be read (e.g. an RST racing the probe).
fn try_close_mode_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    let text = String::from_utf8(bytes)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8"))?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status"))?;
    Ok((status, text))
}

fn close_mode_get(addr: SocketAddr, path: &str) -> (u16, String) {
    try_close_mode_get(addr, path).expect("exchange")
}

/// Assert the single worker is free again: a health probe succeeds within
/// `bound`. Retries because a probe racing the still-wedged worker may be
/// answered 504 from the queue or see its teardown — any response at all
/// already proves the worker is alive, but we insist on a clean 200.
fn assert_worker_freed_within(addr: SocketAddr, bound: Duration) {
    let started = Instant::now();
    loop {
        match try_close_mode_get(addr, "/healthz") {
            Ok((200, _)) => return,
            other => assert!(
                started.elapsed() < bound,
                "worker still wedged after {:?} (last probe: {other:?})",
                started.elapsed()
            ),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn assert_zero_panics(addr: SocketAddr) {
    let (status, metrics) = close_mode_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("dbselectd_worker_panics_total 0"),
        "a fault must never panic a worker:\n{metrics}"
    );
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read");
    handle.join().expect("accept loop exits cleanly");
}

#[test]
fn dribbling_client_gets_408_within_the_deadline() {
    let config = faultable();
    let deadline = config.deadline;
    let (addr, handle) = start(config, serving_state(&fixture_catalog(1.0), "mem"));

    // Feed the request one byte every 25ms: per-syscall OS timeouts would
    // reset on every byte and never fire; the deadline must not.
    let started = Instant::now();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let dribbler = std::thread::spawn(move || {
        for byte in "GET /healthz HTTP/1.1\r\nHost: dribble\r\n\r\n".bytes() {
            if writer.write_all(&[byte]).is_err() {
                return; // daemon gave up on us — exactly the point
            }
            let _ = writer.flush();
            std::thread::sleep(Duration::from_millis(25));
        }
        // Headers complete? Keep pretending to send another request.
        loop {
            if writer.write_all(b"G").is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    let mut response = String::new();
    let mut reader = stream;
    reader.read_to_string(&mut response).expect("read");
    let elapsed = started.elapsed();
    dribbler.join().expect("dribbler");

    // 43 bytes * 25ms > 1s of dribbling, but the 400ms deadline cut the
    // read short; the grace bounds how late the 408 may arrive.
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "dribbled request must time out, got: {response}"
    );
    assert!(
        elapsed < deadline + WRITE_GRACE,
        "408 took {elapsed:?}, beyond deadline + grace"
    );

    assert_worker_freed_within(addr, deadline + WRITE_GRACE);
    assert_zero_panics(addr);
    shutdown(addr, handle);
}

#[test]
fn stalling_after_headers_gets_408() {
    let config = faultable();
    let deadline = config.deadline;
    let (addr, handle) = start(config, serving_state(&fixture_catalog(1.0), "mem"));

    // Promise a body and never send it: the worker must not wait on
    // `read_exact` past the deadline.
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /route HTTP/1.1\r\nHost: t\r\nContent-Length: 64\r\n\r\n")
        .expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");

    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "stalled body must time out, got: {response}"
    );
    assert!(started.elapsed() < deadline + WRITE_GRACE);

    assert_worker_freed_within(addr, deadline + WRITE_GRACE);
    assert_zero_panics(addr);
    shutdown(addr, handle);
}

#[test]
fn closing_mid_body_frees_the_worker_without_panicking() {
    let config = faultable();
    let deadline = config.deadline;
    let (addr, handle) = start(config, serving_state(&fixture_catalog(1.0), "mem"));

    // Send half the promised body, then vanish.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /route HTTP/1.1\r\nHost: t\r\nContent-Length: 64\r\n\r\n{\"query\":")
        .expect("write");
    drop(stream);

    assert_worker_freed_within(addr, deadline + WRITE_GRACE);
    assert_zero_panics(addr);
    shutdown(addr, handle);
}

#[test]
fn client_that_never_reads_cannot_pin_the_worker() {
    let config = ServerConfig {
        workers: 1,
        deadline: Duration::from_secs(3),
        debug_sleep: true,
        ..Default::default()
    };
    let deadline = config.deadline;
    let (addr, handle) = start(config, serving_state(&fixture_catalog(1.0), "mem"));

    // Pipeline batch requests whose responses total well past any
    // plausible kernel buffering (~12 MB per response, 5 responses ≈
    // 60 MB), never reading a byte: once the socket buffers fill, the
    // response write blocks and only the write deadline can free the
    // worker. The responses are byte-heavy but compute-cheap: every
    // query is identical (one known word, so repeats hit the posterior
    // cache) and padded with unknown words, which are echoed into the
    // response without costing routing work.
    let pad: Vec<String> = (0..30).map(|i| format!("zzzunknownpad{i:03}")).collect();
    let query = format!("\"heart {}\"", pad.join(" "));
    let body = format!(
        r#"{{"queries":[{}],"seed":7}}"#,
        vec![query; 10_000].join(",")
    );
    let request = format!(
        "POST /route_batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    for _ in 0..5 {
        if stream.write_all(request.as_bytes()).is_err() {
            break; // daemon already closed on us — also a pass
        }
    }

    // Never read. The worker must free itself within one write deadline
    // of the response that hit the full buffer (the slack on top covers
    // the earlier responses' compute on a busy single-CPU box).
    assert_worker_freed_within(addr, 6 * deadline);
    drop(stream);
    assert_zero_panics(addr);
    shutdown(addr, handle);
}

#[test]
fn injected_panic_is_contained_and_counted() {
    let (addr, handle) = start(faultable(), serving_state(&fixture_catalog(1.0), "mem"));

    // The handler panics mid-connection: no response, connection dropped,
    // pool intact.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Debug-Panic: 1\r\n\r\n")
        .expect("write");
    let mut bytes = Vec::new();
    let _ = stream.read_to_end(&mut bytes); // RST is acceptable
    assert!(
        bytes.is_empty(),
        "a panicked connection must not produce a response: {:?}",
        String::from_utf8_lossy(&bytes)
    );

    // The (single) worker survived and serves again.
    assert_worker_freed_within(addr, Duration::from_secs(2));
    let (status, metrics) = close_mode_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("dbselectd_worker_panics_total 1"),
        "the panic must be counted:\n{metrics}"
    );
    shutdown(addr, handle);
}

#[test]
fn fault_barrage_leaves_a_healthy_pool() {
    // All faults in sequence against one daemon, then a real request: the
    // pool must come out the other side fully functional.
    let config = faultable();
    let deadline = config.deadline;
    let (addr, handle) = start(config, serving_state(&fixture_catalog(1.0), "mem"));

    for _ in 0..3 {
        // Mid-body close.
        let mut s = TcpStream::connect(addr).expect("connect");
        let _ = s.write_all(b"POST /route HTTP/1.1\r\nContent-Length: 32\r\n\r\n{\"qu");
        drop(s);
        // Stall after headers (don't read the 408 either).
        let mut s = TcpStream::connect(addr).expect("connect");
        let _ = s.write_all(b"POST /route HTTP/1.1\r\nContent-Length: 32\r\n\r\n");
        drop(s);
        // Garbage request line.
        let mut s = TcpStream::connect(addr).expect("connect");
        let _ = s.write_all(b"\xff\xfe garbage\r\n\r\n");
        drop(s);
    }

    assert_worker_freed_within(addr, 2 * (deadline + WRITE_GRACE));
    let (status, body) = {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let payload = r#"{"query":"heart blood","seed":42}"#;
        stream
            .write_all(
                format!(
                    "POST /route HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{payload}",
                    payload.len()
                )
                .as_bytes(),
            )
            .expect("write");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read");
        let text = String::from_utf8(bytes).expect("utf-8");
        let status: u16 = text.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, text)
    };
    assert_eq!(status, 200, "pool unhealthy after fault barrage: {body}");
    assert!(body.contains("\"ranking\""));
    assert_zero_panics(addr);
    shutdown(addr, handle);
}
