//! End-to-end tests of `dbselectd` over real sockets.
//!
//! The load-bearing assertions: rankings served over HTTP are
//! **bit-identical** to in-process `SelectionEngine::route` for every
//! (algorithm, shrinkage mode) pair; `/admin/reload` swaps catalogs
//! without failing a single in-flight request; a full admission queue
//! answers `503`; a missed deadline answers `504`.

mod common;

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use common::{fixture_catalog, save_snapshot, serving_state, start, temp_path};
use server::json::Json;
use server::state::{Algo, ServingState, MODES};
use server::ServerConfig;

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

/// Read exactly one response from a kept-alive connection, framed by its
/// `Content-Length`.
fn read_one_response<R: std::io::Read>(reader: &mut BufReader<R>) -> (u16, String, String) {
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
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("read body");
    (status, head, String::from_utf8(body).expect("utf-8 body"))
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<()>) {
    let (status, _, _) = post(addr, "/admin/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("accept loop exits cleanly");
}

/// The served ranking as (database, score-bits, shrinkage_used) triples.
fn parse_ranking(ranking: &Json) -> Vec<(String, u64, bool)> {
    ranking
        .as_array()
        .expect("ranking array")
        .iter()
        .map(|entry| {
            (
                entry.get("database").unwrap().as_str().unwrap().to_string(),
                entry.get("score").unwrap().as_f64().unwrap().to_bits(),
                matches!(entry.get("shrinkage_used").unwrap(), Json::Bool(true)),
            )
        })
        .collect()
}

/// The in-process expectation for a query.
fn expected_ranking(
    state: &ServingState,
    words: &[String],
    algo: Algo,
    mode: selection::ShrinkageMode,
) -> Vec<(String, u64, bool)> {
    let (query, _) = state.analyze(words);
    let outcome = state.engine(algo, mode).route(&query);
    outcome
        .ranking
        .iter()
        .map(|r| {
            (
                state.name(r.index).to_string(),
                r.score.to_bits(),
                outcome.used_shrinkage[r.index],
            )
        })
        .collect()
}

fn words(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

#[test]
fn route_is_bit_identical_for_every_algo_and_mode() {
    let frozen = fixture_catalog(1.0);
    let reference = serving_state(&frozen, "mem");
    let (addr, handle) = start(ServerConfig::default(), serving_state(&frozen, "mem"));

    let queries = [
        "heart blood surgery",
        "soccer goal keeper",
        "stock market yield goal",
        "virus immune protein blood",
        "heart unknownword stadium",
    ];
    for (algo_name, algo) in [
        ("bgloss", Algo::BGloss),
        ("cori", Algo::Cori),
        ("lm", Algo::Lm),
    ] {
        for (mode_name, mode) in [
            ("adaptive", MODES[0]),
            ("always", MODES[1]),
            ("never", MODES[2]),
        ] {
            for (qi, line) in queries.iter().enumerate() {
                let seed = 42 + qi as u64;
                let body = format!(
                    r#"{{"query":"{line}","algo":"{algo_name}","shrinkage":"{mode_name}","seed":{seed}}}"#
                );
                let (status, _, response) = post(addr, "/route", &body);
                assert_eq!(status, 200, "{algo_name}/{mode_name}: {response}");
                let parsed = Json::parse(&response).expect("response JSON");
                let served = parse_ranking(parsed.get("ranking").unwrap());
                let expected = expected_ranking(&reference, &words(line), algo, mode);
                assert_eq!(
                    served, expected,
                    "HTTP ranking diverged for {algo_name}/{mode_name} on {line:?}"
                );
            }
        }
    }
    shutdown(addr, handle);
}

/// `seed` and `index` are accepted and change nothing: for every
/// algorithm × shrinkage mode, `/route` bodies are byte-identical across
/// seeds and indices (and without either), while a negative `seed` or
/// `index` is still a 400.
#[test]
fn seed_and_index_leave_route_bodies_unchanged() {
    let (addr, handle) = start(
        ServerConfig::default(),
        serving_state(&fixture_catalog(1.0), "mem"),
    );
    let queries = ["heart blood surgery", "stock market yield goal", ""];
    for algo in ["bgloss", "cori", "lm"] {
        for mode in ["adaptive", "always", "never"] {
            for line in queries {
                let request = format!(r#""query":"{line}","algo":"{algo}","shrinkage":"{mode}""#);
                let (status, _, bare) = post(addr, "/route", &format!("{{{request}}}"));
                assert_eq!(status, 200, "{bare}");
                for (seed, index) in [(0, 0), (42, 0), (7, 3), (123_456_789, 1_000_000)] {
                    let body = format!(r#"{{{request},"seed":{seed},"index":{index}}}"#);
                    let (status, _, served) = post(addr, "/route", &body);
                    assert_eq!(status, 200, "{served}");
                    assert_eq!(served, bare, "{algo}/{mode} seed {seed} index {index}");
                }
            }
        }
    }
    for field in ["seed", "index"] {
        let body = format!(r#"{{"query":"heart","{field}":-1}}"#);
        let (status, _, response) = post(addr, "/route", &body);
        assert_eq!(status, 400, "{field}: {response}");
        assert!(response.contains(field), "{response}");
    }
    shutdown(addr, handle);
}

/// Tentpole guardrail, over the wire: for every algorithm × shrinkage
/// mode × k, the `"k"`-requested `/route` body serializes exactly the
/// first k entries of the full ranking — same order, same score bytes —
/// because the pruned top-k path underneath is bit-identical to
/// truncation. Serialization is deterministic, so comparing rendered
/// JSON compares bytes.
#[test]
fn topk_bodies_are_byte_identical_to_the_full_ranking_prefix() {
    let (addr, handle) = start(
        ServerConfig::default(),
        serving_state(&fixture_catalog(1.0), "mem"),
    );

    let queries = [
        "heart blood surgery",
        "soccer goal keeper",
        "stock market yield goal",
    ];
    for algo in ["bgloss", "cori", "lm"] {
        for mode in ["adaptive", "always", "never"] {
            for (qi, line) in queries.iter().enumerate() {
                let seed = 42 + qi as u64;
                let body = format!(
                    r#"{{"query":"{line}","algo":"{algo}","shrinkage":"{mode}","seed":{seed}}}"#
                );
                let (status, _, full_body) = post(addr, "/route", &body);
                assert_eq!(status, 200, "{full_body}");
                let full = Json::parse(&full_body).unwrap();
                let ranking = full.get("ranking").unwrap().as_array().unwrap().to_vec();
                for k in 1..=ranking.len() + 1 {
                    let body = format!(
                        r#"{{"query":"{line}","algo":"{algo}","shrinkage":"{mode}","seed":{seed},"k":{k}}}"#
                    );
                    let (status, _, topk_body) = post(addr, "/route", &body);
                    assert_eq!(status, 200, "{topk_body}");
                    if k >= ranking.len() {
                        // No truncation: the entire response body is the
                        // same bytes the k-less request produced.
                        assert_eq!(topk_body, full_body, "{algo}/{mode} k={k}");
                        continue;
                    }
                    let served = Json::parse(&topk_body).unwrap();
                    let want = Json::Arr(ranking[..k].to_vec()).render();
                    let got = served.get("ranking").unwrap().render();
                    assert_eq!(got, want, "{algo}/{mode} k={k} on {line:?}");
                }
            }
        }
    }
    shutdown(addr, handle);
}

#[test]
fn route_batch_matches_per_query_routing_and_is_thread_invariant() {
    let frozen = fixture_catalog(1.0);
    let reference = serving_state(&frozen, "mem");
    let (addr, handle) = start(ServerConfig::default(), serving_state(&frozen, "mem"));

    let lines = [
        "heart blood",
        "soccer stadium",
        "bond yield market",
        "vaccine protein",
        "artery surgery virus",
        "goal keeper stock",
    ];
    let queries_json: Vec<String> = lines.iter().map(|l| format!("\"{l}\"")).collect();
    let mut per_thread_bodies = Vec::new();
    for threads in [1, 4] {
        let body = format!(
            r#"{{"queries":[{}],"algo":"cori","shrinkage":"adaptive","seed":7,"threads":{threads}}}"#,
            queries_json.join(",")
        );
        let (status, _, response) = post(addr, "/route_batch", &body);
        assert_eq!(status, 200, "{response}");
        per_thread_bodies.push(response);
    }
    assert_eq!(
        per_thread_bodies[0], per_thread_bodies[1],
        "batch results must not depend on thread count"
    );

    let parsed = Json::parse(&per_thread_bodies[0]).unwrap();
    let results = parsed.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), lines.len());
    for (qi, (line, result)) in lines.iter().zip(results).enumerate() {
        let served = parse_ranking(result.get("ranking").unwrap());
        let expected = expected_ranking(
            &reference,
            &words(line),
            Algo::Cori,
            selection::ShrinkageMode::Adaptive,
        );
        assert_eq!(served, expected, "batch query {qi} ({line:?}) diverged");
    }
    shutdown(addr, handle);
}

#[test]
fn healthz_metrics_and_errors() {
    let (addr, handle) = start(
        ServerConfig::default(),
        serving_state(&fixture_catalog(1.0), "mem"),
    );

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("databases").unwrap().as_u64(), Some(6));
    assert_eq!(health.get("generation").unwrap().as_u64(), Some(1));

    // Exercise routing so the latency and live-Table-10 metrics move: one
    // adaptive CORI request (6 uncertainty tests), one adaptive 3-query
    // bGlOSS batch (18), and a `never` request that tests nothing.
    let (status, _, body) = post(addr, "/route", r#"{"query":"heart blood"}"#);
    assert_eq!(status, 200);
    let applied = body.matches("\"shrinkage_used\":true").count();
    let (status, _, _) = post(
        addr,
        "/route_batch",
        r#"{"queries":["heart","goal","blood surgery"],"algo":"bgloss"}"#,
    );
    assert_eq!(status, 200);
    let (status, _, _) = post(
        addr,
        "/route",
        r#"{"query":"heart","algo":"lm","shrinkage":"never"}"#,
    );
    assert_eq!(status, 200);

    let (status, head, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(head.contains("text/plain"));
    for family in [
        "dbselectd_requests_total{endpoint=\"route\",status=\"200\"} 2",
        "dbselectd_request_duration_seconds_count{endpoint=\"route\"} 2",
        "dbselectd_uncertainty_tests_total{algo=\"cori\"} 6\n",
        "dbselectd_uncertainty_tests_total{algo=\"bgloss\"} 18\n",
        "dbselectd_uncertainty_tests_total{algo=\"lm\"} 0\n",
        "dbselectd_shrinkage_applied_total{algo=\"lm\"} 0\n",
        "dbselectd_queue_depth",
        "dbselectd_catalog_generation 1",
        "dbselectd_catalog_databases 6",
        "dbselectd_uptime_seconds",
        "dbselectd_catalog_resident_bytes{tenant=\"default\"} ",
    ] {
        assert!(body.contains(family), "missing {family} in:\n{body}");
    }
    // Every ranked database of the CORI request reported its choice, so
    // the applied counter is at least what the response showed.
    let cori_applied: usize = body
        .lines()
        .find_map(|l| l.strip_prefix("dbselectd_shrinkage_applied_total{algo=\"cori\"} "))
        .expect("applied family")
        .parse()
        .unwrap();
    assert!(
        (applied..=6).contains(&cori_applied),
        "{cori_applied} vs {applied}"
    );
    assert!(!body.contains("posterior_cache"));
    // The gauge is the catalog's own count: columns held once, not the
    // bytes of the file they were loaded from.
    let resident: usize = body
        .lines()
        .find_map(|l| l.strip_prefix("dbselectd_catalog_resident_bytes{tenant=\"default\"} "))
        .expect("resident family")
        .parse()
        .unwrap();
    let reference = serving_state(&fixture_catalog(1.0), "mem");
    assert_eq!(resident, reference.catalog().resident_bytes());
    assert!(resident > 0);

    let (status, _, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, head, _) = get(addr, "/route");
    assert_eq!(status, 405);
    assert!(head.contains("Allow:"));
    let (status, _, _) = post(addr, "/route", "{not json");
    assert_eq!(status, 400);
    let (status, _, _) = post(addr, "/route", r#"{"query":"x","algo":"pagerank"}"#);
    assert_eq!(status, 400);
    let (status, _, _) = post(addr, "/route", r#"{"seed":1}"#);
    assert_eq!(status, 400);

    shutdown(addr, handle);
}

/// A query is capped at 1024 words as sent, string or array, on every
/// path a query arrives by: over the cap is a `400` naming the limit,
/// answered before analysis — no uncertainty test is ever counted for it.
#[test]
fn over_long_queries_answer_400_naming_the_limit() {
    let (addr, handle) = start(
        ServerConfig::default(),
        serving_state(&fixture_catalog(1.0), "mem"),
    );
    let line = |words: usize| vec!["heart"; words].join(" ");
    let array = |words: usize| format!("[{}]", vec![r#""heart""#; words].join(","));

    for (path, body) in [
        ("/route", format!(r#"{{"query":"{}"}}"#, line(1025))),
        ("/route", format!(r#"{{"query":{}}}"#, array(1025))),
        (
            "/route",
            format!(r#"{{"query":{},"shard":0}}"#, array(1025)),
        ),
        (
            "/route_batch",
            format!(r#"{{"queries":["heart",{}]}}"#, array(1025)),
        ),
    ] {
        let (status, _, response) = post(addr, path, &body);
        assert_eq!(status, 400, "{path}: {response}");
        assert_eq!(response, r#"{"error":"query exceeds 1024 words"}"#);
    }
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("dbselectd_uncertainty_tests_total{algo=\"cori\"} 0\n"),
        "an over-long query reached routing:\n{metrics}"
    );

    // The cap itself is served, either way of writing it.
    for query in [format!("\"{}\"", line(1024)), array(1024)] {
        let (status, _, response) = post(addr, "/route", &format!(r#"{{"query":{query}}}"#));
        assert_eq!(status, 200, "{response}");
    }
    shutdown(addr, handle);
}

/// A backend's shard is a request parameter: `shard` and `shards` come
/// together, as integers, with `shard < shards`, or the request is a
/// `400`. A block past the end of the catalog is an empty ranking,
/// however large `shards` is — the member list is cut from the catalog,
/// never sized by the request.
#[test]
fn shard_requests_are_validated_and_bounded_by_the_catalog() {
    let (addr, handle) = start(
        ServerConfig::default(),
        serving_state(&fixture_catalog(1.0), "mem"),
    );
    let routes = [
        ("/route", r#""query":"heart blood""#),
        ("/route_batch", r#""queries":["heart blood"]"#),
    ];
    for (path, query) in routes {
        for shard in [
            r#""shard":0"#,
            r#""shards":2"#,
            r#""shard":0,"shards":0"#,
            r#""shard":2,"shards":2"#,
            r#""shard":5,"shards":2"#,
            r#""shard":0.5,"shards":2"#,
            r#""shard":-1,"shards":2"#,
            r#""shard":"0","shards":2"#,
            r#""shard":0,"shards":1.5"#,
            r#""shard":0,"shards":null"#,
        ] {
            let (status, _, response) = post(addr, path, &format!("{{{query},{shard}}}"));
            assert_eq!(status, 400, "{path} with {shard}: {response}");
            assert!(
                response.contains("shard"),
                "{path} with {shard}: {response}"
            );
        }
        // The fixture's six databases fill blocks 0..=2 of 4, and only
        // block 0 of 2^53 (the largest count a JSON number holds exactly).
        let huge = 1u64 << 53;
        for (shard, shards) in [(3, 4), (6, huge), (huge - 1, huge)] {
            let body = format!(r#"{{{query},"shard":{shard},"shards":{shards}}}"#);
            let (status, _, response) = post(addr, path, &body);
            assert_eq!(status, 200, "{path}: {response}");
            let opening = format!(r#"{{"generation":1,"shards":{shards},"shard":{shard},"#);
            assert!(response.starts_with(&opening), "{response}");
            assert!(response.contains(r#""ranking":[]}"#), "{response}");
        }
        let body = format!(r#"{{{query},"shard":0,"shards":{huge}}}"#);
        let (status, _, response) = post(addr, path, &body);
        assert_eq!(status, 200, "{path}: {response}");
        assert!(response.contains(r#""ranking":[{"index":0,"#), "{response}");
        assert_eq!(response.matches(r#""index":"#).count(), 1, "{response}");
    }
    shutdown(addr, handle);
}

#[test]
fn reload_swaps_catalogs_without_failing_inflight_requests() {
    let path_a = temp_path("gen-a");
    let path_b = temp_path("gen-b");
    let gen_a = fixture_catalog(1.0);
    let gen_b = fixture_catalog(0.05); // different sizes → different scores
    save_snapshot(&gen_a, &path_a);
    save_snapshot(&gen_b, &path_b);

    let ref_a = serving_state(&gen_a, "a");
    let ref_b = serving_state(&gen_b, "b");
    let line = "heart blood surgery goal";
    let expect_a = expected_ranking(
        &ref_a,
        &words(line),
        Algo::Cori,
        selection::ShrinkageMode::Adaptive,
    );
    let expect_b = expected_ranking(
        &ref_b,
        &words(line),
        Algo::Cori,
        selection::ShrinkageMode::Adaptive,
    );
    assert_ne!(
        expect_a, expect_b,
        "fixture generations must be distinguishable by ranking"
    );

    let state = ServingState::load(path_a.to_str().unwrap(), 0).unwrap();
    let (addr, handle) = start(
        ServerConfig {
            workers: 4,
            queue_capacity: 128,
            ..Default::default()
        },
        state,
    );

    // Hammer /route from several threads while the catalog is swapped
    // underneath them. Every response must be 200 and must equal one of
    // the two generations' rankings, never a mix.
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let expect_a = expect_a.clone();
            let expect_b = expect_b.clone();
            std::thread::spawn(move || {
                let mut seen_b = false;
                while !stop.load(Ordering::Relaxed) {
                    let (status, _, body) =
                        post(addr, "/route", &format!(r#"{{"query":"{line}"}}"#));
                    assert_eq!(
                        status, 200,
                        "in-flight request failed during reload: {body}"
                    );
                    let ranking =
                        parse_ranking(Json::parse(&body).unwrap().get("ranking").unwrap());
                    assert!(
                        ranking == expect_a || ranking == expect_b,
                        "ranking matches neither generation: {ranking:?}"
                    );
                    seen_b |= ranking == expect_b;
                }
                seen_b
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(50));
    let (status, _, body) = post(
        addr,
        "/admin/reload",
        &format!(r#"{{"path":"{}"}}"#, path_b.display()),
    );
    assert_eq!(status, 200, "{body}");
    let reloaded = Json::parse(&body).unwrap();
    assert_eq!(reloaded.get("generation").unwrap().as_u64(), Some(2));

    // Post-reload: new requests serve generation B.
    let (_, _, body) = post(addr, "/route", &format!(r#"{{"query":"{line}"}}"#));
    let ranking = parse_ranking(Json::parse(&body).unwrap().get("ranking").unwrap());
    assert_eq!(
        ranking, expect_b,
        "post-reload requests must see the new catalog"
    );

    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let any_saw_b = hammers
        .into_iter()
        .any(|h| h.join().expect("hammer thread"));
    assert!(any_saw_b, "hammers never observed the swapped catalog");

    let (_, _, body) = get(addr, "/healthz");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("generation")
            .unwrap()
            .as_u64(),
        Some(2)
    );

    shutdown(addr, handle);
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

/// A response's `generation` names the catalog its ranking was computed
/// on. Two catalogs whose databases carry different names are swapped back
/// and forth (odd generations serve the plain names, even ones the `-b`
/// names) under a `/route` hammer; a handler that resolved its state before
/// a swap and read the generation after it would pair a plain-named
/// ranking with an even label.
#[test]
fn every_response_is_labelled_with_the_generation_that_ranked_it() {
    let path_a = temp_path("label-a");
    let path_b = temp_path("label-b");
    save_snapshot(&fixture_catalog(1.0), &path_a);
    let mut renamed = common::fixture_store(1.0);
    for db in &mut renamed.databases {
        db.name.push_str("-b");
    }
    let renamed = store::catalog::StoredCatalog::freeze(
        renamed,
        dbselect_core::category_summary::CategoryWeighting::BySize,
    );
    save_snapshot(&renamed, &path_b);

    let state = ServingState::load(path_a.to_str().unwrap(), 0).unwrap();
    let (addr, handle) = start(
        ServerConfig {
            workers: 4,
            queue_capacity: 128,
            keep_alive_requests: usize::MAX,
            ..Default::default()
        },
        state,
    );

    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let body = r#"{"query":"heart blood surgery goal","k":3}"#;
                let request = format!(
                    "POST /route HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream);
                let mut generations = std::collections::BTreeSet::new();
                while !stop.load(Ordering::Relaxed) {
                    reader.get_mut().write_all(request.as_bytes()).unwrap();
                    let (status, _, body) = read_one_response(&mut reader);
                    assert_eq!(status, 200, "{body}");
                    let parsed = Json::parse(&body).unwrap();
                    let generation = parsed.get("generation").unwrap().as_u64().unwrap();
                    let ranking = parse_ranking(parsed.get("ranking").unwrap());
                    assert!(!ranking.is_empty());
                    for (database, _, _) in &ranking {
                        assert_eq!(
                            database.ends_with("-b"),
                            generation.is_multiple_of(2),
                            "generation {generation} labels a ranking of the other catalog: {body}"
                        );
                    }
                    generations.insert(generation);
                }
                generations.len()
            })
        })
        .collect();

    for swap in 0..200 {
        let path = if swap % 2 == 0 { &path_b } else { &path_a };
        let (status, _, body) = post(
            addr,
            "/admin/reload",
            &format!(r#"{{"path":"{}"}}"#, path.display()),
        );
        assert_eq!(status, 200, "{body}");
    }
    stop.store(true, Ordering::Relaxed);
    for hammer in hammers {
        let seen = hammer.join().expect("hammer thread");
        assert!(seen > 2, "a hammer saw only {seen} generations");
    }

    shutdown(addr, handle);
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

#[test]
fn full_queue_answers_503_with_retry_after() {
    let (addr, handle) = start(
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            debug_sleep: true,
            ..Default::default()
        },
        serving_state(&fixture_catalog(1.0), "mem"),
    );

    // Occupy the single worker: this pool request sleeps server-side.
    let busy = std::thread::spawn(move || {
        let (status, _, _) = exchange(
            addr,
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Debug-Sleep-Ms: 600\r\n\r\n",
        );
        status
    });
    std::thread::sleep(Duration::from_millis(200)); // worker popped it, now asleep

    // Fill the queue's single slot with a second held connection …
    let queued = std::thread::spawn(move || {
        let (status, _, _) = get(addr, "/healthz");
        status
    });
    std::thread::sleep(Duration::from_millis(100));

    // … so the third connection is rejected at the door.
    let (status, head, _) = get(addr, "/healthz");
    assert_eq!(status, 503, "admission control must shed load");
    assert!(head.contains("Retry-After:"), "503 must carry Retry-After");

    // A `/route` runs on its reactor, never in the pool, so the full queue
    // does not touch it — `X-Debug-Sleep-Ms` included.
    let body = r#"{"query":"heart"}"#;
    let (status, _, response) = exchange(
        addr,
        &format!(
            "POST /route HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Debug-Sleep-Ms: 1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200, "a /route skips the saturated pool: {response}");

    assert_eq!(busy.join().unwrap(), 200, "the slow request still succeeds");
    assert_eq!(
        queued.join().unwrap(),
        200,
        "the queued request still succeeds"
    );

    let (_, _, body) = get(addr, "/metrics");
    assert!(
        body.contains("dbselectd_rejected_total 1"),
        "rejection must be counted:\n{body}"
    );
    shutdown(addr, handle);
}

#[test]
fn keep_alive_reuses_connection_and_matches_close_mode() {
    let (addr, handle) = start(
        ServerConfig::default(),
        serving_state(&fixture_catalog(1.0), "mem"),
    );

    // Reference: the same query over a one-shot close-mode connection.
    let body = r#"{"query":"heart blood surgery","seed":42}"#;
    let (status, _, close_mode) = post(addr, "/route", body);
    assert_eq!(status, 200);

    // Three requests down one persistent connection, then an explicit
    // close on the fourth.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for _ in 0..3 {
        writer
            .write_all(
                format!(
                    "POST /route HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("write");
        let (status, head, served) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        assert!(
            head.contains("Connection: keep-alive"),
            "kept-alive response must say so: {head}"
        );
        assert_eq!(
            served, close_mode,
            "bit-identical responses across connection modes"
        );
    }
    writer
        .write_all(
            format!(
                "POST /route HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write");
    let (status, head, served) = read_one_response(&mut reader);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    assert_eq!(served, close_mode);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read");
    assert!(rest.is_empty(), "connection must close after `close`");

    // One connection, four requests.
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains(r#"dbselectd_requests_total{endpoint="route",status="200"} 5"#),
        "{metrics}"
    );
    shutdown(addr, handle);
}

#[test]
fn keep_alive_request_cap_closes_the_connection() {
    let (addr, handle) = start(
        ServerConfig {
            keep_alive_requests: 2,
            ..Default::default()
        },
        serving_state(&fixture_catalog(1.0), "mem"),
    );

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let raw = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    writer.write_all(raw.as_bytes()).expect("write");
    let (_, head, _) = read_one_response(&mut reader);
    assert!(head.contains("Connection: keep-alive"), "{head}");

    // The second (= cap) response announces the close and the daemon
    // hangs up even though the client never asked.
    writer.write_all(raw.as_bytes()).expect("write");
    let (_, head, _) = read_one_response(&mut reader);
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read");
    assert!(rest.is_empty(), "connection must close at the request cap");

    shutdown(addr, handle);
}

#[test]
fn idle_keep_alive_connections_are_reaped() {
    let (addr, handle) = start(
        ServerConfig {
            idle_timeout: Duration::from_millis(150),
            ..Default::default()
        },
        serving_state(&fixture_catalog(1.0), "mem"),
    );

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write");
    let (status, _, _) = read_one_response(&mut reader);
    assert_eq!(status, 200);

    // Sit idle past the timeout: the daemon closes the connection
    // silently (no 408 — there is no request to answer).
    let started = std::time::Instant::now();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read");
    assert!(rest.is_empty(), "idle close must not write a response");
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "closed before the idle timeout"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle reap took far longer than the timeout"
    );
    shutdown(addr, handle);
}

#[test]
fn http10_defaults_to_close_and_can_opt_in() {
    let (addr, handle) = start(
        ServerConfig::default(),
        serving_state(&fixture_catalog(1.0), "mem"),
    );

    // HTTP/1.0 without a Connection header: answered then closed.
    let (status, head, _) = exchange(addr, "GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");

    // HTTP/1.0 with `Connection: keep-alive` opts in.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let raw = "GET /healthz HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n";
    for _ in 0..2 {
        writer.write_all(raw.as_bytes()).expect("write");
        let (status, head, _) = read_one_response(&mut reader);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: keep-alive"), "{head}");
    }
    drop(writer);
    drop(reader);
    shutdown(addr, handle);
}

#[test]
fn missed_deadline_answers_504() {
    let (addr, handle) = start(
        ServerConfig {
            workers: 2,
            deadline: Duration::from_millis(150),
            debug_sleep: true,
            ..Default::default()
        },
        serving_state(&fixture_catalog(1.0), "mem"),
    );

    let body = r#"{"query":"heart blood"}"#;
    let (status, _, response) = exchange(
        addr,
        &format!(
            "POST /route HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Debug-Sleep-Ms: 500\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(
        status, 504,
        "deadline must expire during the debug sleep: {response}"
    );

    // A prompt request on the same daemon still succeeds.
    let (status, _, _) = post(addr, "/route", body);
    assert_eq!(status, 200);

    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("dbselectd_timeout_total 1"), "{metrics}");
    shutdown(addr, handle);
}

/// Seven raw requests — a route, a batch, a probe, and the four ways a
/// request fails before reaching a handler's happy path (unknown path,
/// wrong method, bad JSON, and a request line the reactor's own parser
/// rejects) — each against the exact status line and body owed. Routed
/// bodies are rendered here from the in-process ranking through a `Json`
/// tree.
#[test]
fn raw_requests_draw_the_expected_status_line_and_body() {
    let frozen = fixture_catalog(1.0);
    let reference = serving_state(&frozen, "mem");
    let (addr, handle) = start(ServerConfig::default(), serving_state(&frozen, "mem"));

    let routed = |line: &str, algo: Algo, k: usize| {
        let (query, unknown) = reference.analyze(&words(line));
        let outcome = reference
            .engine(algo, selection::ShrinkageMode::Adaptive)
            .route(&query);
        let entry = |(at, r): (usize, &selection::RankedDatabase)| {
            Json::obj(vec![
                ("rank".to_string(), Json::Num((at + 1) as f64)),
                (
                    "database".to_string(),
                    Json::Str(reference.name(r.index).to_string()),
                ),
                (
                    "category".to_string(),
                    Json::Str(reference.category(r.index)),
                ),
                ("score".to_string(), Json::Num(r.score)),
                (
                    "shrinkage_used".to_string(),
                    Json::Bool(outcome.used_shrinkage[r.index]),
                ),
            ])
        };
        let ranking = outcome.ranking.iter().take(k).enumerate().map(entry);
        vec![
            (
                "unknown".to_string(),
                Json::Arr(unknown.into_iter().map(Json::Str).collect()),
            ),
            ("ranking".to_string(), Json::Arr(ranking.collect())),
        ]
    };
    let generation = ("generation".to_string(), Json::Num(1.0));

    let route_body = r#"{"query":"heart blood surgery","algo":"lm","seed":7}"#;
    let mut route_expected = vec![generation.clone()];
    route_expected.extend(routed("heart blood surgery", Algo::Lm, usize::MAX));

    let batch_body = r#"{"queries":["soccer goal","stock market yield"],"algo":"cori","k":4}"#;
    let results = ["soccer goal", "stock market yield"]
        .iter()
        .map(|line| Json::obj(routed(line, Algo::Cori, 4)))
        .collect();
    let batch_expected = vec![generation, ("results".to_string(), Json::Arr(results))];

    let bad_json = r#"{"query": nope}"#;
    let json_error = Json::parse(bad_json).expect_err("not JSON");

    let close = "Host: t\r\nConnection: close\r\n";
    let table = [
        (
            format!(
                "POST /route HTTP/1.1\r\n{close}Content-Length: {}\r\n\r\n{route_body}",
                route_body.len()
            ),
            "HTTP/1.1 200 OK",
            Json::obj(route_expected).render(),
        ),
        (
            format!(
                "POST /route_batch HTTP/1.1\r\n{close}Content-Length: {}\r\n\r\n{batch_body}",
                batch_body.len()
            ),
            "HTTP/1.1 200 OK",
            Json::obj(batch_expected).render(),
        ),
        (
            format!("GET /healthz HTTP/1.1\r\n{close}\r\n"),
            "HTTP/1.1 200 OK",
            format!(
                r#"{{"status":"ok","generation":1,"databases":{},"terms":{},"tenants":1}}"#,
                reference.databases(),
                reference.terms()
            ),
        ),
        (
            format!("GET /no-such-endpoint HTTP/1.1\r\n{close}\r\n"),
            "HTTP/1.1 404 Not Found",
            r#"{"error":"no such endpoint"}"#.to_string(),
        ),
        (
            format!("GET /route HTTP/1.1\r\n{close}\r\n"),
            "HTTP/1.1 405 Method Not Allowed",
            r#"{"error":"method not allowed"}"#.to_string(),
        ),
        (
            format!(
                "POST /route HTTP/1.1\r\n{close}Content-Length: {}\r\n\r\n{bad_json}",
                bad_json.len()
            ),
            "HTTP/1.1 400 Bad Request",
            Json::obj(vec![(
                "error".to_string(),
                Json::Str(format!("invalid JSON: {json_error}")),
            )])
            .render(),
        ),
        // Rejected by the HTTP parser itself: the reactor answers, no
        // worker ever sees it.
        (
            "BLARG\r\n\r\n".to_string(),
            "HTTP/1.1 400 Bad Request",
            r#"{"error":"malformed request: request line is not `METHOD TARGET VERSION`"}"#
                .to_string(),
        ),
    ];
    for (raw, status_line, body) in &table {
        let (_, head, served) = exchange(addr, raw);
        assert_eq!(head.lines().next(), Some(*status_line), "{raw:?}");
        assert_eq!(&served, body, "{raw:?}");
    }
    shutdown(addr, handle);
}

#[test]
fn reactor_holds_hundreds_of_idle_connections_with_a_tiny_worker_pool() {
    const IDLE_CONNS: usize = 200;
    let (addr, handle) = start(
        ServerConfig {
            workers: 2,
            idle_timeout: Duration::from_secs(30),
            ..Default::default()
        },
        serving_state(&fixture_catalog(1.0), "mem"),
    );

    // Park a small army of kept-alive connections: each serves one
    // request (so it is genuinely established, not just SYN-accepted)
    // and then sits idle.
    let mut parked = Vec::with_capacity(IDLE_CONNS);
    for i in 0..IDLE_CONNS {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let (status, _, _) = read_one_response(&mut reader);
        assert_eq!(status, 200, "connection {i} failed its warm-up request");
        parked.push((writer, reader));
    }

    // The fixed worker pool is unaffected by the parked connections:
    // fresh work still flows.
    let (status, _, _) = post(addr, "/route", r#"{"query":"heart blood"}"#);
    assert_eq!(
        status, 200,
        "routing must still work with {IDLE_CONNS} idle conns"
    );

    let (_, _, metrics) = get(addr, "/metrics");
    let gauge = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
    };
    assert_eq!(
        gauge("dbselectd_connections_state{state=\"idle\"}"),
        IDLE_CONNS as u64,
        "every parked connection must be in the idle state"
    );
    assert!(
        gauge("dbselectd_open_connections") >= IDLE_CONNS as u64,
        "open-connection gauge must count the parked connections"
    );
    assert!(gauge("dbselectd_reactor_wakeups_total") > 0);

    drop(parked);
    shutdown(addr, handle);
}

#[test]
fn failed_reloads_answer_4xx_and_keep_serving_the_old_generation() {
    let path = temp_path("reload-rollback");
    let catalog = fixture_catalog(1.0);
    save_snapshot(&catalog, &path);
    let reference = serving_state(&catalog, "mem");
    let line = "heart blood surgery goal";
    let expected = expected_ranking(
        &reference,
        &words(line),
        Algo::Cori,
        selection::ShrinkageMode::Adaptive,
    );

    let state = ServingState::load(path.to_str().unwrap(), 0).unwrap();
    let (addr, handle) = start(ServerConfig::default(), state);

    let serving_generation_one = |context: &str| {
        let (status, _, body) = post(addr, "/route", &format!(r#"{{"query":"{line}"}}"#));
        assert_eq!(status, 200, "{context}: {body}");
        let ranking = parse_ranking(Json::parse(&body).unwrap().get("ranking").unwrap());
        assert_eq!(ranking, expected, "{context}: ranking changed");
        let (_, _, health) = get(addr, "/healthz");
        assert_eq!(
            Json::parse(&health)
                .unwrap()
                .get("generation")
                .unwrap()
                .as_u64(),
            Some(1),
            "{context}: generation must not advance"
        );
    };
    serving_generation_one("before any reload");

    // A reload pointing at a path that does not exist: 404, old
    // generation keeps serving.
    let missing = temp_path("reload-missing");
    let (status, _, body) = post(
        addr,
        "/admin/reload",
        &format!(r#"{{"path":"{}"}}"#, missing.display()),
    );
    assert_eq!(
        status, 404,
        "missing snapshot must be the client's 404: {body}"
    );
    serving_generation_one("after reload from a missing path");

    // A reload pointing at a corrupt file (bad magic): 400, old
    // generation keeps serving.
    let corrupt = temp_path("reload-corrupt");
    std::fs::write(&corrupt, b"definitely not a serving snapshot").unwrap();
    let (status, _, body) = post(
        addr,
        "/admin/reload",
        &format!(r#"{{"path":"{}"}}"#, corrupt.display()),
    );
    assert_eq!(status, 400, "corrupt snapshot must be a 400: {body}");
    serving_generation_one("after reload from a corrupt file");

    // A truncated file (shorter than the magic) is corrupt too.
    let truncated = temp_path("reload-truncated");
    std::fs::write(&truncated, b"DBS").unwrap();
    let (status, _, body) = post(
        addr,
        "/admin/reload",
        &format!(r#"{{"path":"{}"}}"#, truncated.display()),
    );
    assert_eq!(status, 400, "truncated snapshot must be a 400: {body}");
    serving_generation_one("after reload from a truncated file");

    // And the daemon is still reloadable: the same path that has been
    // serving all along loads fine and bumps the generation.
    let (status, _, body) = post(
        addr,
        "/admin/reload",
        &format!(r#"{{"path":"{}"}}"#, path.display()),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("generation")
            .unwrap()
            .as_u64(),
        Some(2),
        "a good reload after failed ones still advances the generation"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&corrupt).ok();
    std::fs::remove_file(&truncated).ok();
    shutdown(addr, handle);
}

/// The daemon serves what `dbselect freeze` and `dbselect refresh`
/// write: a v1 catalog is refused at boot and at reload, naming the
/// migration, and the old generation keeps serving.
#[test]
fn v1_catalogs_are_refused_naming_the_freeze_migration() {
    // A v1 catalog written by the retired v1 writer.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../store/tests/fixtures/v1-tiny.catalog"
    );
    let Err(err) = ServingState::load(path, 0) else {
        panic!("a v1 catalog must not load for serving");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("dbselect freeze --catalog"),
        "{err}"
    );

    let state = serving_state(&fixture_catalog(1.0), "mem");
    let (addr, handle) = start(ServerConfig::default(), state);
    let (status, _, body) = post(addr, "/admin/reload", &format!(r#"{{"path":"{path}"}}"#));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("dbselect freeze --catalog"), "{body}");
    let (_, _, health) = get(addr, "/healthz");
    let generation = Json::parse(&health)
        .unwrap()
        .get("generation")
        .unwrap()
        .as_u64();
    assert_eq!(generation, Some(1), "{health}");
    shutdown(addr, handle);
}

#[test]
fn readyz_reports_generation_and_snapshot_checksum_per_tenant() {
    let path = temp_path("readyz");
    save_snapshot(&fixture_catalog(1.0), &path);
    let state = ServingState::load(path.to_str().unwrap(), 0).unwrap();
    let (addr, handle) = start(ServerConfig::default(), state);

    let (status, _, body) = get(addr, "/readyz");
    assert_eq!(
        status, 200,
        "a bound catalog daemon is always ready: {body}"
    );
    let parsed = Json::parse(&body).unwrap();
    assert_eq!(parsed.get("ready"), Some(&Json::Bool(true)));
    let tenants = parsed.get("tenants").and_then(Json::as_array).unwrap();
    assert_eq!(tenants.len(), 1);
    let tenant = &tenants[0];
    assert_eq!(tenant.get("tenant").and_then(Json::as_str), Some("default"));
    assert_eq!(tenant.get("generation").and_then(Json::as_u64), Some(1));
    assert_eq!(tenant.get("databases").and_then(Json::as_u64), Some(6));
    let checksum = tenant
        .get("snapshot_checksum")
        .and_then(Json::as_str)
        .expect("checksum string");
    assert_eq!(checksum.len(), 16, "fixed-width hex: {checksum}");
    assert!(checksum.chars().all(|c| c.is_ascii_hexdigit()));
    assert_ne!(
        checksum, "0000000000000000",
        "a file-loaded snapshot must carry its content checksum"
    );

    // Two daemons serving the same snapshot bytes report the same
    // checksum — the federation bit-identity precondition an operator
    // can check from the outside.
    let twin_state = ServingState::load(path.to_str().unwrap(), 0).unwrap();
    let (twin_addr, twin_handle) = start(ServerConfig::default(), twin_state);
    let (_, _, twin_body) = get(twin_addr, "/readyz");
    let twin = Json::parse(&twin_body).unwrap();
    let twin_checksum = twin.get("tenants").and_then(Json::as_array).unwrap()[0]
        .get("snapshot_checksum")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert_eq!(twin_checksum, checksum);
    shutdown(twin_addr, twin_handle);

    // An in-memory (test-fixture) snapshot has no file to checksum and
    // reports the zero sentinel.
    let (mem_addr, mem_handle) = start(
        ServerConfig::default(),
        serving_state(&fixture_catalog(1.0), "mem"),
    );
    let (_, _, mem_body) = get(mem_addr, "/readyz");
    let mem = Json::parse(&mem_body).unwrap();
    assert_eq!(
        mem.get("tenants").and_then(Json::as_array).unwrap()[0]
            .get("snapshot_checksum")
            .and_then(Json::as_str),
        Some("0000000000000000")
    );
    shutdown(mem_addr, mem_handle);

    std::fs::remove_file(&path).ok();
    shutdown(addr, handle);
}
