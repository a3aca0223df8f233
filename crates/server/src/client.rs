//! A minimal std-only HTTP/1.1 client with per-backend keep-alive
//! connection pools — the outbound half of the proxy tier ([`crate::proxy`]).
//!
//! The daemon's routing endpoints are idempotent (a `/route` body plus a
//! seed fully determines the response), which lets this client be
//! aggressive about connection reuse: a pooled connection that fails in
//! any way — the backend restarted, the idle socket was reaped, the
//! response came back torn — is thrown away and the request transparently
//! retried once on a fresh connection. The client blocks (it runs on a
//! worker, never on the reactor), so its deadlines are socket timeouts:
//! re-armed against the absolute deadline before every read and write, so
//! a dribbling backend cannot reset the clock.
//!
//! Responses are read into a buffer until [`http::try_parse_response`] —
//! the daemon's own head splitter and framing, bounded by
//! [`RESPONSE_LIMITS`] — reports a whole one.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::{self, ClientResponse, HttpError, Limits};

/// Idle connections kept per backend; beyond this, finished connections
/// are simply closed.
const MAX_IDLE: usize = 8;

/// Cap on the TCP connect itself, independent of the request deadline: a
/// SYN-blackholed backend must fail fast enough for the retry budget to
/// matter.
const CONNECT_CAP: Duration = Duration::from_secs(1);

/// Bounds on a backend's response: a 1 KiB status line, 128 headers of at
/// most 8 KiB each, a 64 MiB body.
pub(crate) const RESPONSE_LIMITS: Limits = Limits {
    max_request_line: 1024,
    max_headers: 128,
    max_header_line: 8 * 1024,
    max_body: 64 * 1024 * 1024,
};

/// Bytes asked of the socket per read while a response is incomplete.
const READ_CHUNK: usize = 8 * 1024;

/// A `TcpStream` that re-arms the socket timeout against an absolute
/// deadline before every syscall. `set_read_timeout` alone bounds each
/// `recv`, not the total; through this wrapper the time on the wire is
/// bounded by the deadline.
struct DeadlineIo {
    stream: TcpStream,
    deadline: Instant,
}

impl DeadlineIo {
    fn remaining(&self) -> io::Result<Duration> {
        let now = Instant::now();
        if now >= self.deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline exceeded"));
        }
        Ok(self.deadline - now)
    }
}

impl Read for DeadlineIo {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.remaining()?))?;
        self.stream.read(buf)
    }
}

impl Write for DeadlineIo {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.remaining()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// A keep-alive connection pool to one backend address.
#[derive(Debug)]
pub struct Pool {
    addr: String,
    idle: Mutex<Vec<TcpStream>>,
}

impl Pool {
    /// A pool for `addr` (`host:port`); no connection is made until the
    /// first request.
    pub fn new(addr: impl Into<String>) -> Pool {
        Pool {
            addr: addr.into(),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Issue one request and read the full response, all bounded by
    /// `deadline`. Reuses a pooled connection when one is idle; any
    /// failure on a *reused* connection triggers one transparent retry on
    /// a fresh connection (the reused socket may have been closed by the
    /// backend between requests — indistinguishable from a real error
    /// until we try). Errors from the fresh connection are final.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        deadline: Instant,
    ) -> io::Result<ClientResponse> {
        if let Some(stream) = self.checkout() {
            if let Ok(response) = self.exchange(stream, method, path, body, deadline) {
                return Ok(response);
            }
        }
        let stream = self.connect(deadline)?;
        self.exchange(stream, method, path, body, deadline)
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.idle.lock().expect("pool lock poisoned").pop()
    }

    fn checkin(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("pool lock poisoned");
        if idle.len() < MAX_IDLE {
            idle.push(stream);
        }
    }

    /// Drop every pooled connection (the breaker opened; the sockets are
    /// likely dead anyway).
    pub fn drain(&self) {
        self.idle.lock().expect("pool lock poisoned").clear();
    }

    fn connect(&self, deadline: Instant) -> io::Result<TcpStream> {
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline exceeded"));
        }
        let budget = (deadline - now).min(CONNECT_CAP);
        let mut last: Option<io::Error> = None;
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, budget) {
                Ok(stream) => {
                    // Same rationale as the server side: without nodelay,
                    // Nagle + delayed ACK adds ~40ms to every kept-alive
                    // round trip.
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("`{}` resolved to no address", self.addr),
            )
        }))
    }

    /// Send one request and read its response. The connection goes back
    /// to the pool only when the response allows it and consumed every
    /// byte read: stray bytes would corrupt the next response's framing.
    fn exchange(
        &self,
        stream: TcpStream,
        method: &str,
        path: &str,
        body: &[u8],
        deadline: Instant,
    ) -> io::Result<ClientResponse> {
        let mut io = DeadlineIo { stream, deadline };
        io.write_all(&request_bytes(method, path, &self.addr, body))?;
        let mut buf = Vec::new();
        loop {
            match http::try_parse_response(&buf, &RESPONSE_LIMITS) {
                Ok(Some((response, consumed))) => {
                    if response.keep_alive && consumed == buf.len() {
                        self.checkin(io.stream);
                    }
                    return Ok(response);
                }
                Ok(None) => {}
                Err(HttpError::Malformed(why) | HttpError::TooLarge(why)) => {
                    let detail = format!("unacceptable response: {why}");
                    return Err(io::Error::new(io::ErrorKind::InvalidData, detail));
                }
            }
            let filled = buf.len();
            buf.resize(filled + READ_CHUNK, 0);
            let read = io.read(&mut buf[filled..])?;
            buf.truncate(filled + read);
            if read == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
        }
    }
}

/// Serialize one request. `Content-Length` is always present (including
/// `0` on GETs) so the backend never waits for a body that is not coming.
fn request_bytes(method: &str, path: &str, host: &str, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    write!(
        out,
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("writing into a Vec cannot fail");
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    /// A scripted backend: serves `per_conn` responses per connection,
    /// then closes it, counting accepted connections.
    fn scripted_backend(response: &'static str, per_conn: usize) -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let accepted = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                counter.fetch_add(1, Ordering::SeqCst);
                let mut stream = stream;
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    for _ in 0..per_conn {
                        // Read the request head + Content-Length body.
                        let mut len = 0usize;
                        loop {
                            let mut line = String::new();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                return;
                            }
                            let trimmed = line.trim();
                            if trimmed.is_empty() {
                                break;
                            }
                            if let Some(v) = trimmed
                                .to_ascii_lowercase()
                                .strip_prefix("content-length:")
                                .map(str::trim)
                            {
                                len = v.parse().unwrap_or(0);
                            }
                        }
                        let mut body = vec![0u8; len];
                        if reader.read_exact(&mut body).is_err() {
                            return;
                        }
                        if stream.write_all(response.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, accepted)
    }

    const OK: &str =
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";

    #[test]
    fn keep_alive_reuses_one_connection() {
        let (addr, accepted) = scripted_backend(OK, 10);
        let pool = Pool::new(addr);
        for _ in 0..3 {
            let response = pool
                .request("POST", "/route", b"{\"q\":1}", deadline())
                .expect("request");
            assert_eq!(response.status, 200);
            assert_eq!(response.body, b"{}");
        }
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            1,
            "three requests must share one pooled connection"
        );
    }

    #[test]
    fn stale_pooled_connection_is_retried_transparently() {
        // One response per connection: the pooled socket is dead by the
        // time the second request reuses it.
        let (addr, accepted) = scripted_backend(OK, 1);
        let pool = Pool::new(addr);
        for _ in 0..3 {
            let response = pool
                .request("POST", "/route", b"{}", deadline())
                .expect("request survives the stale connection");
            assert_eq!(response.status, 200);
        }
        assert_eq!(accepted.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn missing_content_length_is_an_error() {
        let (addr, _) = scripted_backend("HTTP/1.1 200 OK\r\n\r\n", 1);
        let pool = Pool::new(addr);
        let err = pool
            .request("GET", "/healthz", b"", deadline())
            .expect_err("unframed response must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn mid_body_close_is_detected() {
        // Content-Length promises 100 bytes; only 2 arrive before close.
        let (addr, _) = scripted_backend("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}", 1);
        let pool = Pool::new(addr);
        let err = pool
            .request("POST", "/route", b"{}", deadline())
            .expect_err("torn body must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn connection_close_header_disables_reuse() {
        let (addr, accepted) = scripted_backend(
            "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
            10,
        );
        let pool = Pool::new(addr);
        for _ in 0..2 {
            let response = pool
                .request("POST", "/route", b"{}", deadline())
                .expect("request");
            assert_eq!(response.status, 200);
        }
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            2,
            "Connection: close must prevent pooling"
        );
    }

    #[test]
    fn connect_refused_is_an_error() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let pool = Pool::new(addr);
        assert!(pool.request("GET", "/healthz", b"", deadline()).is_err());
    }
}
