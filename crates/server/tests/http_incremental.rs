//! Property tests of the incremental parsers: a valid pipelined request
//! stream must parse to the same requests whether it arrives in one
//! buffer (the oracle), one byte at a time (every split boundary), or in
//! random chunks; and a valid response — the proxy client's parse — to
//! the same status, body and length whether it arrives whole, in two
//! pieces split anywhere, or one byte at a time.

use proptest::prelude::*;

use server::http::{try_parse, try_parse_response, ClientResponse, Limits, ParseStatus, Request};

/// A generated request, pre-serialization.
#[derive(Debug, Clone)]
struct GenRequest {
    method: String,
    target: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    http10: bool,
    bare_lf: bool,
}

impl GenRequest {
    fn serialize(&self) -> Vec<u8> {
        let eol: &[u8] = if self.bare_lf { b"\n" } else { b"\r\n" };
        let version = if self.http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let mut out = Vec::new();
        out.extend_from_slice(format!("{} {} {}", self.method, self.target, version).as_bytes());
        out.extend_from_slice(eol);
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}").as_bytes());
            out.extend_from_slice(eol);
        }
        if !self.body.is_empty() {
            out.extend_from_slice(format!("Content-Length: {}", self.body.len()).as_bytes());
            out.extend_from_slice(eol);
        }
        out.extend_from_slice(eol);
        out.extend_from_slice(&self.body);
        out
    }
}

fn gen_request() -> impl Strategy<Value = GenRequest> {
    (
        "[A-Z]{1,7}",
        "/[a-zA-Z0-9_/.-]{0,24}",
        prop::collection::vec(
            (
                // Names that cannot collide with the framing headers the
                // generator itself controls.
                "[Xx][A-Za-z-]{1,11}",
                // Values: printable ASCII; inner whitespace survives the
                // trim, edge whitespace is trimmed identically everywhere.
                "[a-zA-Z0-9 :,;=/-]{0,24}",
            ),
            0..4,
        ),
        prop::collection::vec(any::<u8>(), 0..48),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(method, target, headers, body, http10, bare_lf)| GenRequest {
                method,
                target,
                headers,
                body,
                http10,
                bare_lf,
            },
        )
}

/// Parse the whole stream with `try_parse`, re-invoked on the remaining
/// buffer after each complete request (the "one-shot" reference).
fn parse_one_shot(stream: &[u8], limits: &Limits) -> Vec<Request> {
    let mut buf = stream.to_vec();
    let mut requests = Vec::new();
    loop {
        match try_parse(&buf, limits).expect("generated stream must be valid") {
            ParseStatus::Complete { request, consumed } => {
                buf.drain(..consumed);
                requests.push(request);
            }
            ParseStatus::NeedMore => {
                assert!(buf.is_empty(), "leftover bytes that never complete");
                return requests;
            }
        }
    }
}

/// Parse the stream arriving in `chunks`-sized pieces, re-parsing after
/// every arrival exactly like the reactor's read loop does.
fn parse_incremental(stream: &[u8], chunk_sizes: &[usize], limits: &Limits) -> Vec<Request> {
    let mut requests = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut fed = 0;
    let mut sizes = chunk_sizes.iter().copied().cycle();
    while fed < stream.len() {
        let n = sizes.next().unwrap_or(1).clamp(1, stream.len() - fed);
        buf.extend_from_slice(&stream[fed..fed + n]);
        fed += n;
        // Drain every request that completed with this chunk (the
        // reactor parses once per chunk, then again after each write —
        // same fixpoint, reached in a loop here).
        while let ParseStatus::Complete { request, consumed } =
            try_parse(&buf, limits).expect("generated stream must be valid")
        {
            buf.drain(..consumed);
            requests.push(request);
        }
    }
    assert!(buf.is_empty(), "incremental parse left unconsumed bytes");
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Byte-at-a-time arrival — every possible split boundary — parses
    /// identically to the whole buffer.
    #[test]
    fn every_byte_boundary_parses_identically(
        requests in prop::collection::vec(gen_request(), 1..4),
    ) {
        let limits = Limits::default();
        let stream: Vec<u8> = requests.iter().flat_map(|r| r.serialize()).collect();

        let one_shot = parse_one_shot(&stream, &limits);
        prop_assert_eq!(one_shot.len(), requests.len(), "every request must surface");

        let byte_wise = parse_incremental(&stream, &[1], &limits);
        prop_assert_eq!(&byte_wise, &one_shot, "byte-at-a-time must match one-shot");

        // Parsed structure matches what was generated.
        for (parsed, generated) in one_shot.iter().zip(&requests) {
            prop_assert_eq!(&parsed.method, &generated.method);
            prop_assert_eq!(&parsed.target, &generated.target);
            prop_assert_eq!(&parsed.body, &generated.body);
            prop_assert_eq!(parsed.version_minor, u8::from(!generated.http10));
        }
    }

    /// Arbitrary chunking (sizes 1..32, cycled) parses identically too —
    /// the parser cannot care where the kernel splits reads.
    #[test]
    fn random_chunk_splits_parse_identically(
        requests in prop::collection::vec(gen_request(), 1..4),
        chunk_sizes in prop::collection::vec(1usize..32, 1..8),
    ) {
        let limits = Limits::default();
        let stream: Vec<u8> = requests.iter().flat_map(|r| r.serialize()).collect();
        let one_shot = parse_one_shot(&stream, &limits);
        let chunked = parse_incremental(&stream, &chunk_sizes, &limits);
        prop_assert_eq!(chunked, one_shot);
    }
}

/// A generated response, pre-serialization.
#[derive(Debug, Clone)]
struct GenResponse {
    status: u16,
    reason: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    http10: bool,
    bare_lf: bool,
}

impl GenResponse {
    fn serialize(&self) -> Vec<u8> {
        let eol: &[u8] = if self.bare_lf { b"\n" } else { b"\r\n" };
        let version = if self.http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let mut out = format!("{version} {} {}", self.status, self.reason).into_bytes();
        out.extend_from_slice(eol);
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}").as_bytes());
            out.extend_from_slice(eol);
        }
        out.extend_from_slice(format!("Content-Length: {}", self.body.len()).as_bytes());
        out.extend_from_slice(eol);
        out.extend_from_slice(eol);
        out.extend_from_slice(&self.body);
        out
    }
}

fn gen_response() -> impl Strategy<Value = GenResponse> {
    (
        100u16..600,
        "[A-Za-z ]{0,16}",
        prop::collection::vec(("[Xx][A-Za-z-]{1,11}", "[a-zA-Z0-9 :,;=/-]{0,24}"), 0..4),
        prop::collection::vec(any::<u8>(), 0..64),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(status, reason, headers, body, http10, bare_lf)| GenResponse {
                status,
                reason,
                headers,
                body,
                http10,
                bare_lf,
            },
        )
}

/// The response `buf` starts with, or `None` while it holds a prefix.
fn parse_response(buf: &[u8]) -> Option<(ClientResponse, usize)> {
    try_parse_response(buf, &Limits::default()).expect("generated response must be valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Whole, split in two anywhere, or fed one byte at a time: the same
    /// status, body and `consumed`; and every buffer that ends before the
    /// response does is a prefix (`None`, never an error). Bytes after
    /// the response (the next one on the connection) are left alone.
    #[test]
    fn responses_parse_identically_at_every_split(
        generated in gen_response(),
        trailer in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let wire = generated.serialize();
        let mut stream = wire.clone();
        stream.extend_from_slice(&trailer);

        let (whole, consumed) = parse_response(&stream).expect("the whole response parses");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(whole.status, generated.status);
        prop_assert_eq!(&whole.body, &generated.body);
        prop_assert_eq!(whole.keep_alive, !generated.http10);

        // Two-way splits: the first piece alone is a prefix, the two
        // together the same response. Growing the buffer one byte at a
        // time visits exactly these first pieces.
        for at in 0..wire.len() {
            prop_assert!(parse_response(&wire[..at]).is_none(), "split at {} of {}", at, wire.len());
            let mut buf = wire[..at].to_vec();
            buf.extend_from_slice(&stream[at..]);
            prop_assert_eq!(parse_response(&buf), Some((whole.clone(), consumed)));
        }
    }
}
