//! The harness's side of the wire: a blocking keep-alive HTTP/1.1
//! connection, request framing, and `/metrics` text scraping. Nothing
//! here knows a type of the daemon — only bytes on a loopback socket.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A request unanswered after this long is a failure (and the connection
/// is replaced).
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// A `POST` with a JSON body on a kept-alive connection.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: benchmark\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `GET` on a kept-alive connection.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: benchmark\r\n\r\n").into_bytes()
}

/// One response's head; the body sits in [`Conn::body`] until the next
/// exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    /// The daemon announced `Connection: close` (its keep-alive cap).
    pub close: bool,
}

/// One keep-alive connection with its reusable receive buffer.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    body_start: usize,
}

fn bad(detail: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // Requests are single small writes; Nagle would only add delay.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            addr,
            stream: open(addr)?,
            buf: Vec::with_capacity(64 * 1024),
            body_start: 0,
        })
    }

    /// Replace the socket (after `Connection: close` or an error).
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = open(self.addr)?;
        Ok(())
    }

    pub fn send(&mut self, raw: &[u8]) -> io::Result<()> {
        self.stream.write_all(raw)
    }

    /// Read one response framed by `Content-Length`.
    pub fn recv(&mut self) -> io::Result<Reply> {
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "closed mid-head",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        while self.buf.len() < head_end + length {
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "closed mid-body",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        if self.buf.len() != head_end + length {
            return Err(bad("bytes after the response body (nothing was pipelined)"));
        }
        self.body_start = head_end;
        Ok(Reply { status, close })
    }

    /// The body of the response `recv` just returned.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..]
    }

    /// Send, receive, and transparently reconnect when the daemon closed
    /// this connection with the response.
    pub fn exchange(&mut self, raw: &[u8]) -> io::Result<Reply> {
        self.send(raw)?;
        let reply = self.recv()?;
        if reply.close {
            self.reconnect()?;
        }
        Ok(reply)
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One-shot request on a fresh connection; returns (status, body text).
pub fn once(addr: SocketAddr, raw: &[u8]) -> io::Result<(u16, String)> {
    let mut conn = Conn::connect(addr)?;
    conn.send(raw)?;
    let reply = conn.recv()?;
    Ok((
        reply.status,
        String::from_utf8_lossy(conn.body()).into_owned(),
    ))
}

/// The tenant generation a `/route` body opens with (`{"generation":N,`).
pub fn body_generation(body: &[u8]) -> Option<u64> {
    let rest = body.strip_prefix(b"{\"generation\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 || rest.get(digits) != Some(&b',') {
        return None;
    }
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// The part of a `/route` body after its generation field — everything
/// that is a function of (catalog, request) alone.
pub fn body_after_generation(body: &[u8]) -> Option<&[u8]> {
    let rest = body.strip_prefix(b"{\"generation\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    (digits > 0).then(|| &rest[digits..])
}

/// Sum of every sample of `family` in a Prometheus text exposition whose
/// label set contains `label` (`""` matches all). `None` when the family
/// has no such sample — a missing family is a missing metric, never an
/// error, so a later change may delete a family without breaking a run.
pub fn scrape(text: &str, family: &str, label: &str) -> Option<f64> {
    let mut total = None;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(family) else {
            continue;
        };
        // The family name must end here: `foo_total` is not `foo`.
        let (labels, value) = match rest.as_bytes().first() {
            Some(b' ') => ("", rest.trim()),
            Some(b'{') => match rest.split_once("} ") {
                Some((labels, value)) => (labels, value.trim()),
                None => continue,
            },
            _ => continue,
        };
        if !labels.contains(label) {
            continue;
        }
        if let Ok(v) = value.parse::<f64>() {
            *total.get_or_insert(0.0) += v;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPOSITION: &str = "\
# TYPE dbselectd_requests_total counter
dbselectd_requests_total{endpoint=\"route\",status=\"200\"} 40
dbselectd_requests_total{endpoint=\"route\",status=\"503\"} 2
dbselectd_requests_total{endpoint=\"metrics\",status=\"200\"} 1
dbselectd_request_duration_seconds_count{endpoint=\"route\"} 42
dbselectd_request_duration_seconds_sum{endpoint=\"route\"} 0.5
dbselectd_rejected_total 2
dbselectd_rejected_total_by_tenant{tenant=\"default\"} 9
";

    #[test]
    fn scrape_sums_matching_samples() {
        assert_eq!(
            scrape(EXPOSITION, "dbselectd_rejected_total", ""),
            Some(2.0)
        );
        assert_eq!(
            scrape(EXPOSITION, "dbselectd_requests_total", "endpoint=\"route\""),
            Some(42.0)
        );
        assert_eq!(
            scrape(
                EXPOSITION,
                "dbselectd_request_duration_seconds_sum",
                "endpoint=\"route\""
            ),
            Some(0.5)
        );
    }

    #[test]
    fn scrape_tolerates_a_missing_family() {
        assert_eq!(
            scrape(EXPOSITION, "dbselectd_posterior_cache_hits_total", ""),
            None
        );
        assert_eq!(
            scrape(EXPOSITION, "dbselectd_requests_total", "endpoint=\"nope\""),
            None
        );
        assert_eq!(scrape("", "anything", ""), None);
    }

    #[test]
    fn generation_prefix() {
        let body = br#"{"generation":12,"unknown":[],"ranking":[]}"#;
        assert_eq!(body_generation(body), Some(12));
        assert_eq!(
            body_after_generation(body),
            Some(&br#","unknown":[],"ranking":[]}"#[..])
        );
        assert_eq!(body_generation(br#"{"error":"x"}"#), None);
        assert_eq!(body_generation(br#"{"generation":,"#), None);
    }
}
