//! A minimal hand-rolled HTTP/1.1 layer, for both directions.
//!
//! `dbselectd` is std-only (the vendored compat-crate constraint rules out
//! hyper et al.), so this module implements exactly the slice of HTTP/1.1
//! the daemon needs. One head splitter (start line, bounded header lines,
//! `Content-Length` framing) and one keep-alive rule (RFC 7230 §6.3:
//! HTTP/1.1 persists, 1.0 closes, an explicit `Connection: close` /
//! `keep-alive` token wins) serve two thin parsers: [`try_parse`] takes
//! the first request out of the bytes a connection has received so far
//! ([`parse_request`] into a request a reactor reuses),
//! [`try_parse_response`] the first response out of the bytes a backend
//! sent the proxy's client ([`crate::client`]). [`serialize_into`]
//! writes one response whose `Connection` header says whether the
//! connection stays open.
//!
//! The parsers are the daemon's exposure to untrusted bytes, so their
//! contract is: **never panic, never allocate unboundedly** — every
//! malformed or oversized input maps to an [`HttpError`] (a 4xx for a
//! request, an `InvalidData` error for a response). Proptest suites hold
//! the no-panic property over arbitrary bytes (`tests/http_fuzz.rs`) and
//! split-invariance (`tests/http_incremental.rs`) for both.

use std::io::{self, Write};

/// Parser limits. Exceeding any of them is a [`HttpError::TooLarge`].
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum start-line (request or status line) length in bytes.
    pub max_request_line: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Maximum length of a single header line in bytes.
    pub max_header_line: usize,
    /// Maximum body length in bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_headers: 64,
            max_header_line: 8 * 1024,
            max_body: 8 * 1024 * 1024,
        }
    }
}

/// Why the received bytes can never become a message.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid message (a request maps to 400).
    Malformed(&'static str),
    /// A size limit was exceeded (a request maps to 413).
    TooLarge(&'static str),
}

impl HttpError {
    /// The HTTP status this error reports to a client whose request it is.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::TooLarge(_) => 413,
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::Malformed(why) => format!("malformed request: {why}"),
            HttpError::TooLarge(what) => format!("request too large: {what}"),
        }
    }
}

/// Header fields in arrival order, names lower-cased and values trimmed,
/// all in one text buffer: a request parsed into a reused [`Request`]
/// keeps the buffer's capacity, so its headers cost no allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    text: String,
    /// Per field, where its name ends and where its value ends in `text`;
    /// a field starts where the one before it ends.
    ends: Vec<(usize, usize)>,
}

impl Headers {
    fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    fn push(&mut self, name: &str, value: &str) {
        let start = self.text.len();
        self.text.push_str(name);
        self.text[start..].make_ascii_lowercase();
        let name_end = self.text.len();
        self.text.push_str(value);
        self.ends.push((name_end, self.text.len()));
    }

    /// Every field as (lower-cased name, value), in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let starts = std::iter::once(0).chain(self.ends.iter().map(|&(_, end)| end));
        (starts.zip(&self.ends)).map(|(start, &(name_end, end))| {
            (&self.text[start..name_end], &self.text[name_end..end])
        })
    }

    /// The first value of the field `name` (matched ASCII
    /// case-insensitively).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    fn len(&self) -> usize {
        self.ends.len()
    }
}

/// One parsed request. [`parse_request`] refills one in place, which is
/// how a reactor parses every request into the one it keeps: its strings
/// and buffers keep their capacity from request to request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// Method token, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// The request target as received (path plus optional query string).
    pub target: String,
    /// Minor HTTP version: 1 for `HTTP/1.1`, 0 for `HTTP/1.0`.
    pub version_minor: u8,
    /// Header fields in arrival order.
    pub headers: Headers,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }

    /// The target with any query string stripped.
    pub fn path(&self) -> &str {
        self.target
            .split_once('?')
            .map_or(self.target.as_str(), |(p, _)| p)
    }

    /// Whether the client allows this connection to serve another request
    /// (RFC 7230 §6.3, the rule responses follow too).
    pub fn wants_keep_alive(&self) -> bool {
        keep_alive(self.version_minor, &self.headers)
    }
}

/// One parsed response: what the proxy's client reads from a backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Whether the connection may carry another exchange (RFC 7230 §6.3).
    pub keep_alive: bool,
    /// The full response body (`Content-Length`-framed).
    pub body: Vec<u8>,
}

/// Whether a request or a response lets its connection carry another
/// exchange (RFC 7230 §6.3): a `close` token in the `Connection` list
/// always closes, a `keep-alive` token opts HTTP/1.0 in, and otherwise
/// 1.1 persists and 1.0 closes.
fn keep_alive(version_minor: u8, headers: &Headers) -> bool {
    if let Some(value) = headers.get("connection") {
        let mut saw_keep_alive = false;
        for token in value.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("close") {
                return false;
            }
            saw_keep_alive |= token.eq_ignore_ascii_case("keep-alive");
        }
        if saw_keep_alive {
            return true;
        }
    }
    version_minor >= 1
}

/// The minor version of an `HTTP/1.x` token.
fn version_minor(version: &str) -> Result<u8, HttpError> {
    match version {
        "HTTP/1.1" => Ok(1),
        "HTTP/1.0" => Ok(0),
        _ => Err(HttpError::Malformed("unsupported HTTP version")),
    }
}

/// Validate a request line (`METHOD SP TARGET SP HTTP/1.x`).
fn parse_request_line(line: &[u8]) -> Result<(&str, &str, u8), HttpError> {
    let line =
        std::str::from_utf8(line).map_err(|_| HttpError::Malformed("non-utf8 request line"))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(
                "request line is not `METHOD TARGET VERSION`",
            ))
        }
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("method must be upper-case ASCII"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed("target must start with '/'"));
    }
    Ok((method, target, version_minor(version)?))
}

/// Validate a status line (`HTTP/1.x SP 3DIGIT [SP reason]`) into its
/// minor version and status code.
fn parse_status_line(line: &[u8]) -> Result<(u8, u16), HttpError> {
    let line =
        std::str::from_utf8(line).map_err(|_| HttpError::Malformed("non-utf8 status line"))?;
    let mut parts = line.splitn(3, ' ');
    let version_minor = version_minor(parts.next().unwrap_or(""))?;
    let status = parts
        .next()
        .filter(|code| code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|code| code.parse().ok())
        .ok_or(HttpError::Malformed("malformed status code"))?;
    Ok((version_minor, status))
}

/// Validate one header line into a (name, trimmed value) pair.
fn parse_header_line(line: &[u8]) -> Result<(&str, &str), HttpError> {
    let line = std::str::from_utf8(line).map_err(|_| HttpError::Malformed("non-utf8 header"))?;
    let (name, value) = line
        .split_once(':')
        .ok_or(HttpError::Malformed("header without ':'"))?;
    let name = name.trim();
    if name.is_empty() || name.contains(' ') {
        return Err(HttpError::Malformed("invalid header name"));
    }
    Ok((name, value.trim()))
}

/// Body length a parsed head declares: fixed `Content-Length` only (no
/// chunked transfer coding). Without one a request has an empty body (RFC
/// 7230 §3.3.3; curl sends empty POSTs so), and a response is refused:
/// exact framing is what tells a close mid-body from a short body.
fn declared_body_len(
    headers: &Headers,
    limits: &Limits,
    required: bool,
) -> Result<usize, HttpError> {
    if headers
        .get("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Malformed("transfer codings are not supported"));
    }
    let body_len = match headers.get("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("unparseable Content-Length"))?,
        None if required => return Err(HttpError::Malformed("no Content-Length")),
        None => 0,
    };
    if body_len > limits.max_body {
        return Err(HttpError::TooLarge("body"));
    }
    Ok(body_len)
}

/// Progress of [`try_parse`] over a partially received buffer.
#[derive(Debug)]
pub enum ParseStatus {
    /// The buffer holds a (possibly empty) prefix of a valid request;
    /// more bytes are needed before anything can be returned.
    NeedMore,
    /// One complete request, occupying the first `consumed` bytes of the
    /// buffer. The caller drains those bytes; anything after them is the
    /// start of the next pipelined request.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed.
        consumed: usize,
    },
}

/// Split the next `\n`-terminated line out of `buf[*pos..]`, stripping
/// the trailing `\r\n` / `\n`. A line may span at most `max + 2` bytes
/// including its terminator, and accumulating that many bytes *without*
/// seeing a terminator is already oversize. `Ok(None)` means the line is
/// still incomplete (and within limits).
fn split_line<'b>(
    buf: &'b [u8],
    pos: &mut usize,
    max: usize,
    oversize: &'static str,
) -> Result<Option<&'b [u8]>, HttpError> {
    let rest = &buf[*pos..];
    match rest.iter().position(|&b| b == b'\n') {
        Some(i) => {
            if i + 1 > max + 2 {
                return Err(HttpError::TooLarge(oversize));
            }
            let mut line = &rest[..i];
            while let [head @ .., b'\r' | b'\n'] = line {
                line = head;
            }
            *pos += i + 1;
            Ok(Some(line))
        }
        None if rest.len() > max + 2 => Err(HttpError::TooLarge(oversize)),
        None => Ok(None),
    }
}

/// A message: its parsed start line, its body, and its length.
type Message<'b, S> = (S, &'b [u8], usize);

/// The head splitter: the first message in `buf` — its start line
/// validated by `parse_start` as soon as it is complete (and bounded by
/// `max_request_line`), its header fields into `headers` — as the start
/// line's parse, the body and the message's length; `Ok(None)` while
/// `buf` holds a prefix of one. A pure function of the buffer, so
/// resuming after any split equals parsing the concatenation.
fn split_message<'b, S>(
    buf: &'b [u8],
    limits: &Limits,
    start_line: &'static str,
    parse_start: impl FnOnce(&'b [u8]) -> Result<S, HttpError>,
    headers: &mut Headers,
    length_required: bool,
) -> Result<Option<Message<'b, S>>, HttpError> {
    let mut pos = 0usize;
    let Some(line) = split_line(buf, &mut pos, limits.max_request_line, start_line)? else {
        return Ok(None);
    };
    let start = parse_start(line)?;

    headers.clear();
    loop {
        let Some(line) = split_line(buf, &mut pos, limits.max_header_line, "header line")? else {
            return Ok(None);
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooLarge("too many headers"));
        }
        let (name, value) = parse_header_line(line)?;
        headers.push(name, value);
    }

    let body_len = declared_body_len(headers, limits, length_required)?;
    if buf.len() - pos < body_len {
        return Ok(None);
    }
    Ok(Some((start, &buf[pos..pos + body_len], pos + body_len)))
}

/// Parse the first request out of `buf` into `request`, overwriting it
/// and reusing its buffers: the bytes the request occupies, or `Ok(None)`
/// while `buf` holds a prefix of one (`request` then holds nothing of
/// use). What the reactor calls with the request it keeps, and what
/// [`try_parse`] wraps.
pub fn parse_request(
    buf: &[u8],
    limits: &Limits,
    request: &mut Request,
) -> Result<Option<usize>, HttpError> {
    let headers = &mut request.headers;
    let message = split_message(
        buf,
        limits,
        "request line",
        parse_request_line,
        headers,
        false,
    )?;
    let Some(((method, target, version_minor), body, consumed)) = message else {
        return Ok(None);
    };
    request.method.clear();
    request.method.push_str(method);
    request.target.clear();
    request.target.push_str(target);
    request.version_minor = version_minor;
    request.body.clear();
    request.body.extend_from_slice(body);
    Ok(Some(consumed))
}

/// Incrementally parse the first request out of `buf` into a fresh
/// [`Request`]. The reactor appends whatever bytes the socket had ready
/// and re-asks; end-of-stream handling is its concern (EOF mid-buffer
/// means the request can never complete).
pub fn try_parse(buf: &[u8], limits: &Limits) -> Result<ParseStatus, HttpError> {
    let mut request = Request::default();
    Ok(match parse_request(buf, limits, &mut request)? {
        None => ParseStatus::NeedMore,
        Some(consumed) => ParseStatus::Complete { request, consumed },
    })
}

/// Incrementally parse the first response out of `buf` (`max_request_line`
/// bounds the status line; `Content-Length` is required): `Ok(None)` until
/// a whole one arrived, then the response and the bytes it occupies.
pub fn try_parse_response(
    buf: &[u8],
    limits: &Limits,
) -> Result<Option<(ClientResponse, usize)>, HttpError> {
    let mut headers = Headers::default();
    let message = split_message(
        buf,
        limits,
        "status line",
        parse_status_line,
        &mut headers,
        true,
    )?;
    Ok(message.map(|((version_minor, status), body, consumed)| {
        let response = ClientResponse {
            status,
            keep_alive: keep_alive(version_minor, &headers),
            body: body.to_vec(),
        };
        (response, consumed)
    }))
}

/// A response ready to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra header fields (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error body `{"error": detail}`.
    pub fn error(status: u16, detail: &str) -> Self {
        Response::json(
            status,
            crate::json::Json::obj(vec![(
                "error".to_string(),
                crate::json::Json::Str(detail.to_string()),
            )])
            .render(),
        )
    }

    /// Add a header field.
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }
}

/// Standard reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Append `response` to `out` with a `Content-Length` and a `Connection`
/// header announcing whether the connection closes after this response:
/// the head, then the body. A reactor serializes into the write buffer it
/// recycles, so a warm response allocates nothing here.
pub fn serialize_into(out: &mut Vec<u8>, response: &Response, close: bool) {
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    )
    .expect("writing into a Vec cannot fail");
    for (name, value) in &response.extra_headers {
        write!(out, "{name}: {value}\r\n").expect("writing into a Vec cannot fail");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&response.body);
}

/// Send [`serialize_into`]'s bytes to a blocking writer in one call.
/// (The reactor writes the serialized buffer itself, resuming on `EAGAIN`;
/// this is for callers that hold a plain stream.)
pub fn write_response<W: Write>(w: &mut W, response: &Response, close: bool) -> io::Result<()> {
    let mut out = Vec::with_capacity(256 + response.body.len());
    serialize_into(&mut out, response, close);
    w.write_all(&out)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one request `bytes` holds, whole.
    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        match try_parse(bytes, &Limits::default())? {
            ParseStatus::Complete { request, consumed } => {
                assert_eq!(consumed, bytes.len());
                Ok(request)
            }
            ParseStatus::NeedMore => panic!("incomplete: {:?}", String::from_utf8_lossy(bytes)),
        }
    }

    #[test]
    fn parses_a_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body_and_query_string() {
        let req = parse(b"POST /route?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.path(), "/route");
        assert_eq!(req.target, "/route?x=1");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let req = parse(b"GET / HTTP/1.1\nA: b\n\n").unwrap();
        assert_eq!(req.header("a"), Some("b"));
    }

    #[test]
    fn keep_alive_policy_follows_rfc7230() {
        // HTTP/1.1 defaults to keep-alive; `close` always wins.
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").unwrap().wants_keep_alive());
        assert!(!parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .wants_keep_alive());
        assert!(
            !parse(b"GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n")
                .unwrap()
                .wants_keep_alive()
        );
        // HTTP/1.0 defaults to close; `keep-alive` opts in.
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(old.version_minor, 0);
        assert!(!old.wants_keep_alive());
        assert!(parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .wants_keep_alive());
        // Unrelated Connection tokens fall back to the version default.
        assert!(parse(b"GET / HTTP/1.1\r\nConnection: upgrade\r\n\r\n")
            .unwrap()
            .wants_keep_alive());
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        for bytes in [
            &b"GARBAGE\r\n\r\n"[..],
            b" / HTTP/1.1\r\n\r\n",
            b"GET /\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"GET / HTTP/1.1\r\nbroken header\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(bytes).unwrap_err();
            assert_eq!(err.status(), 400, "{err:?}");
        }
    }

    /// A prefix of a valid request is neither a request nor an error: what
    /// an end of stream there means (a silent close before the first byte,
    /// `400 truncated request` after it) is the reactor's call.
    #[test]
    fn truncated_inputs_need_more() {
        for bytes in [
            &b""[..],
            b"GET / HT",
            b"GET / HTTP/1.1\r\nHost: x\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ] {
            let status = try_parse(bytes, &Limits::default());
            assert!(matches!(status, Ok(ParseStatus::NeedMore)), "{status:?}");
        }
    }

    #[test]
    fn post_without_length_has_empty_body() {
        // RFC 7230 §3.3.3 — and how curl sends an empty POST.
        let req = parse(b"POST /route HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn limits_are_enforced() {
        let tiny = Limits {
            max_request_line: 16,
            max_headers: 1,
            max_header_line: 16,
            max_body: 8,
        };
        let long_line = b"GET /aaaaaaaaaaaaaaaaaaaaaaaaaaaa HTTP/1.1\r\n\r\n";
        let err = try_parse(long_line, &tiny).unwrap_err();
        assert_eq!(err.status(), 413);

        let many = b"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\n\r\n";
        let err = try_parse(many, &tiny).unwrap_err();
        assert_eq!(err.status(), 413);

        let big = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        let err = try_parse(big, &tiny).unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn responses_serialize_with_length_and_connection() {
        let mut out = Vec::new();
        let response = Response::json(200, "{\"ok\":true}".to_string())
            .with_header("Retry-After", "1".to_string());
        write_response(&mut out, &response, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        write_response(&mut out, &Response::text(200, "hi".to_string()), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    /// The one response `bytes` holds, whole.
    fn parse_response(bytes: &[u8]) -> Result<ClientResponse, HttpError> {
        match try_parse_response(bytes, &Limits::default())? {
            Some((response, consumed)) => {
                assert_eq!(consumed, bytes.len());
                Ok(response)
            }
            None => panic!("incomplete: {:?}", String::from_utf8_lossy(bytes)),
        }
    }

    #[test]
    fn parses_a_response_and_applies_the_same_keep_alive_rule() {
        let ok = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(
            (ok.status, ok.keep_alive, &ok.body[..]),
            (200, true, &b"{}"[..])
        );
        let bare = parse_response(b"HTTP/1.1 503\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!(bare.status, 503);
        for (bytes, keep_alive) in [
            (
                &b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"[..],
                false,
            ),
            (b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n", false),
            (
                b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n",
                true,
            ),
        ] {
            assert_eq!(parse_response(bytes).unwrap().keep_alive, keep_alive);
        }
        // A second response after the first is left in the buffer.
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\naHTTP/1.1";
        let (first, consumed) = try_parse_response(two, &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!((&first.body[..], consumed), (&b"a"[..], two.len() - 8));
    }

    #[test]
    fn malformed_and_unframed_responses_are_errors() {
        for bytes in [
            &b"HTTP/1.1 200 OK\r\n\r\n"[..],
            b"HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 20 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 +200 OK\r\nContent-Length: 0\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nbroken\r\nContent-Length: 0\r\n\r\n",
        ] {
            let err = try_parse_response(bytes, &Limits::default()).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
        }
        let tiny = Limits {
            max_request_line: 16,
            max_headers: 1,
            max_header_line: 16,
            max_body: 8,
        };
        let big = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n";
        let err = try_parse_response(big, &tiny).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(_)), "{err:?}");
        // A truncated body is a prefix, not an error.
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}";
        assert!(matches!(
            try_parse_response(short, &Limits::default()),
            Ok(None)
        ));
    }
}
