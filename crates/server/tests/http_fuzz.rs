//! Property tests: the hand-rolled HTTP/1.1 and JSON parsers never panic,
//! whatever bytes arrive on the socket — they return structured errors
//! that map to 4xx responses (or, for a backend's response, to a failed
//! exchange) instead.

use proptest::prelude::*;

use server::http::{try_parse, try_parse_response, Limits, ParseStatus};
use server::json::Json;

/// Tight limits so the generators can exceed them cheaply.
fn small_limits() -> Limits {
    Limits {
        max_request_line: 128,
        max_headers: 8,
        max_header_line: 64,
        max_body: 256,
    }
}

const METHODS: [&str; 6] = ["GET", "POST", "PUT", "DELETE", "gEt", "FROB"];
const VERSIONS: [&str; 4] = ["HTTP/1.1", "HTTP/1.0", "HTTP/9000", ""];

/// Alphabet for JSON-shaped soup: structure characters, digits, letters,
/// escapes, and whitespace.
const JSON_SOUP: [char; 24] = [
    '[', ']', '{', '}', '"', ',', ':', '0', '9', '1', 'a', 'e', 'E', 'l', 'n', 't', 'r', 'u', '+',
    '-', '.', '\\', ' ', '\n',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: garbage, truncations, binary — never a panic.
    #[test]
    fn http_parser_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = try_parse(&bytes, &small_limits());
        let _ = try_parse(&bytes, &Limits::default());
    }

    /// Request-shaped input (plausible method/target/headers/body in any
    /// state of disrepair) — never a panic, and whatever parses obeys the
    /// declared body length.
    #[test]
    fn http_parser_survives_requestish_input(
        method_ix in 0usize..METHODS.len(),
        target in "[ -~]{0,40}",
        version_ix in 0usize..VERSIONS.len(),
        headers in prop::collection::vec(("[A-Za-z-]{1,16}", "[ -~]{0,30}"), 0..10),
        declared_len in prop::option::of(0usize..300),
        body in prop::collection::vec(any::<u8>(), 0..300),
        truncate_at in prop::option::of(0usize..600),
    ) {
        let mut raw = format!("{} {target} {}\r\n", METHODS[method_ix], VERSIONS[version_ix])
            .into_bytes();
        for (name, value) in &headers {
            raw.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        if let Some(len) = declared_len {
            raw.extend_from_slice(format!("Content-Length: {len}\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw.extend_from_slice(&body);
        if let Some(cut) = truncate_at {
            raw.truncate(cut);
        }

        if let Ok(ParseStatus::Complete { request, .. }) = try_parse(&raw, &small_limits()) {
            // A request only parses when the declared body arrived whole.
            if let Some(len) = declared_len {
                prop_assert_eq!(request.body.len(), len);
            }
        }
    }

    /// The JSON parser never panics on printable soup, and rendering
    /// whatever it accepted re-parses to the same value.
    #[test]
    fn json_parser_survives_and_round_trips(text in "\\PC{0,200}") {
        if let Ok(value) = Json::parse(&text) {
            let rendered = value.render();
            let reparsed = Json::parse(&rendered);
            prop_assert_eq!(reparsed.ok(), Some(value));
        }
    }

    /// Structure-heavy soup aimed at the recursive descent and the depth
    /// limit: picks from a JSON-flavored alphabet so brackets, quotes, and
    /// escapes collide often.
    #[test]
    fn json_parser_survives_bracket_soup(picks in prop::collection::vec(0usize..JSON_SOUP.len(), 0..300)) {
        let text: String = picks.iter().map(|&ix| JSON_SOUP[ix]).collect();
        let _ = Json::parse(&text);
        let deep: String = std::iter::repeat_n('[', 200).chain(text.chars()).collect();
        let _ = Json::parse(&deep);
    }
}

const STATUS_VERSIONS: [&str; 5] = ["HTTP/1.1", "HTTP/1.0", "HTTP/1.2", "http/1.1", ""];
const STATUSES: [&str; 6] = ["200", "404", "503", "20", "2000", "abc"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The response parser on arbitrary bytes: never a panic.
    #[test]
    fn response_parser_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = try_parse_response(&bytes, &small_limits());
        let _ = try_parse_response(&bytes, &Limits::default());
    }

    /// Response-shaped input (plausible status line, headers and body in
    /// any state of disrepair) — never a panic, and whatever parses
    /// carries exactly the declared body, within the consumed bytes.
    #[test]
    fn response_parser_survives_responseish_input(
        version_ix in 0usize..STATUS_VERSIONS.len(),
        status_ix in 0usize..STATUSES.len(),
        reason in "[ -~]{0,20}",
        headers in prop::collection::vec(("[A-Za-z-]{1,16}", "[ -~]{0,30}"), 0..10),
        declared_len in prop::option::of(0usize..300),
        body in prop::collection::vec(any::<u8>(), 0..300),
        truncate_at in prop::option::of(0usize..600),
    ) {
        let mut raw = format!("{} {} {reason}\r\n", STATUS_VERSIONS[version_ix], STATUSES[status_ix])
            .into_bytes();
        for (name, value) in &headers {
            raw.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        if let Some(len) = declared_len {
            raw.extend_from_slice(format!("Content-Length: {len}\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw.extend_from_slice(&body);
        if let Some(cut) = truncate_at {
            raw.truncate(cut);
        }

        if let Ok(Some((response, consumed))) = try_parse_response(&raw, &small_limits()) {
            prop_assert!(consumed <= raw.len());
            prop_assert!(response.status < 1000, "three digits");
            if let Some(len) = declared_len {
                prop_assert_eq!(response.body.len(), len);
            }
        }
    }
}
