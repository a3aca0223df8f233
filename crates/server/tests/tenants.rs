//! Multi-tenant federated serving over real sockets.
//!
//! The load-bearing assertions: every tenant routes against its own
//! catalog through `/t/<name>/...`; reloading tenant A never fails an
//! in-flight request on tenant B; a tenant's admission quota answers
//! `503` + `Retry-After` without touching its neighbours; tenant metric
//! families are label-isolated; and a daemon's per-shard answers (the
//! `"shard"`/`"shards"` a proxy sends) merge bit-identically into the
//! monolithic engine's ranking over HTTP.

mod common;

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use common::{fixture_catalog, save_snapshot, serving_state, start_tenants, temp_path};
use selection::RankedDatabase;
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

fn two_tenants() -> Vec<(String, ServingState)> {
    vec![
        (
            "alpha".to_string(),
            serving_state(&fixture_catalog(1.0), "alpha-mem"),
        ),
        (
            "beta".to_string(),
            serving_state(&fixture_catalog(0.05), "beta-mem"),
        ),
    ]
}

#[test]
fn tenant_paths_route_against_their_own_catalog() {
    let ref_alpha = serving_state(&fixture_catalog(1.0), "mem");
    let ref_beta = serving_state(&fixture_catalog(0.05), "mem");
    let (addr, handle) = start_tenants(ServerConfig::default(), two_tenants());

    let line = "heart blood surgery goal";
    let expect_alpha = expected_ranking(
        &ref_alpha,
        &words(line),
        Algo::Cori,
        selection::ShrinkageMode::Adaptive,
    );
    let expect_beta = expected_ranking(
        &ref_beta,
        &words(line),
        Algo::Cori,
        selection::ShrinkageMode::Adaptive,
    );
    assert_ne!(expect_alpha, expect_beta, "fixtures must rank differently");

    let body = format!(r#"{{"query":"{line}"}}"#);
    let (status, _, text) = post(addr, "/t/alpha/route", &body);
    assert_eq!(status, 200, "{text}");
    let ranking = parse_ranking(Json::parse(&text).unwrap().get("ranking").unwrap());
    assert_eq!(ranking, expect_alpha, "alpha must serve alpha's catalog");

    let (status, _, text) = post(addr, "/t/beta/route", &body);
    assert_eq!(status, 200, "{text}");
    let ranking = parse_ranking(Json::parse(&text).unwrap().get("ranking").unwrap());
    assert_eq!(ranking, expect_beta, "beta must serve beta's catalog");

    // Bare paths alias the first tenant in name order (no `default`).
    let (status, _, text) = post(addr, "/route", &body);
    assert_eq!(status, 200, "{text}");
    let ranking = parse_ranking(Json::parse(&text).unwrap().get("ranking").unwrap());
    assert_eq!(ranking, expect_alpha, "bare path must alias the default");

    // `/t/beta/route_batch` routes against beta too.
    let (status, _, text) = post(
        addr,
        "/t/beta/route_batch",
        &format!(r#"{{"queries":["{line}"]}}"#),
    );
    assert_eq!(status, 200, "{text}");
    let parsed = Json::parse(&text).unwrap();
    let first = &parsed.get("results").unwrap().as_array().unwrap()[0];
    assert_eq!(
        parse_ranking(first.get("ranking").unwrap()),
        expect_beta,
        "batch must serve beta's catalog"
    );

    // Unknown tenants and unknown sub-paths are 404; wrong methods 405;
    // process-wide endpoints do not exist under /t/.
    assert_eq!(post(addr, "/t/nobody/route", &body).0, 404);
    assert_eq!(get(addr, "/t/alpha/route").0, 405);
    assert_eq!(get(addr, "/t/alpha/healthz").0, 404);
    assert_eq!(post(addr, "/t/alpha", &body).0, 404);
    assert_eq!(post(addr, "/t/alpha/admin/shutdown", "").0, 404);

    // /healthz reports the tenant count.
    let (_, _, text) = get(addr, "/healthz");
    assert_eq!(
        Json::parse(&text).unwrap().get("tenants").unwrap().as_u64(),
        Some(2)
    );

    shutdown(addr, handle);
}

/// Merge per-shard partial rankings — entries lead with their global
/// `index` — into the monolithic order.
fn merged_ranking(partials: &[&Json]) -> Vec<(String, u64, bool)> {
    let mut entries = HashMap::new();
    let rankings: Vec<Vec<RankedDatabase>> = partials
        .iter()
        .map(|partial| {
            let indices = partial.as_array().expect("ranking array").iter();
            let fields = parse_ranking(partial).into_iter();
            indices
                .zip(fields)
                .map(|(entry, fields)| {
                    let index = entry.get("index").unwrap().as_u64().unwrap() as usize;
                    let score = f64::from_bits(fields.1);
                    entries.insert(index, fields);
                    RankedDatabase { index, score }
                })
                .collect()
        })
        .collect();
    let merged = selection::merge::merge_rankings(&rankings);
    merged.iter().map(|r| entries[&r.index].clone()).collect()
}

/// A plain daemon asked for each of three shards (`"shard": s,
/// "shards": 3`, as a proxy asks its backends) answers partial rankings
/// that merge into the monolithic engine's, on `/route` and `/route_batch`.
#[test]
fn sharded_serving_is_bit_identical_over_http() {
    let frozen = fixture_catalog(1.0);
    let reference = serving_state(&frozen, "mem");
    let plain = serving_state(&frozen, "mem");
    let (addr, handle) = start_tenants(
        ServerConfig::default(),
        vec![("default".to_string(), plain)],
    );
    // Every shard's answer to `body`, checked to name its shard.
    let scatter = |path: &str, body: &str| -> Vec<Json> {
        (0..3)
            .map(|s| {
                let body = format!(r#"{{{body},"shard":{s},"shards":3}}"#);
                let (status, _, text) = post(addr, path, &body);
                assert_eq!(status, 200, "{text}");
                let prefix = format!(r#""shards":3,"shard":{s},"#);
                assert!(text.contains(&prefix), "{text}");
                Json::parse(&text).unwrap()
            })
            .collect()
    };

    let queries = [
        "heart blood surgery",
        "soccer goal keeper",
        "stock market yield goal",
        "virus immune protein blood",
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
            for (index, line) in queries.iter().enumerate() {
                let expect = expected_ranking(&reference, &words(line), algo, mode);
                let body = format!(
                    r#""query":"{line}","algo":"{algo_name}","shrinkage":"{mode_name}","index":{index}"#
                );
                let shards = scatter("/route", &body);
                let partials: Vec<&Json> =
                    shards.iter().map(|s| s.get("ranking").unwrap()).collect();
                assert_eq!(
                    merged_ranking(&partials),
                    expect,
                    "sharded daemon diverged from monolithic engine \
                     ({algo_name}/{mode_name}, query {index})"
                );
            }
            // And through the batch path.
            let batch: Vec<String> = queries.iter().map(|q| format!("\"{q}\"")).collect();
            let body = format!(
                r#""queries":[{}],"algo":"{algo_name}","shrinkage":"{mode_name}""#,
                batch.join(",")
            );
            let shards = scatter("/route_batch", &body);
            for (index, query) in queries.iter().enumerate() {
                let partials: Vec<&Json> = shards
                    .iter()
                    .map(|s| {
                        let results = s.get("results").unwrap().as_array().unwrap();
                        results[index].get("ranking").unwrap()
                    })
                    .collect();
                let expect = expected_ranking(&reference, &words(query), algo, mode);
                assert_eq!(
                    merged_ranking(&partials),
                    expect,
                    "sharded batch diverged ({algo_name}/{mode_name}, query {index})"
                );
            }
        }
    }

    shutdown(addr, handle);
}

#[test]
fn reloading_one_tenant_never_fails_the_other() {
    let path_a1 = temp_path("tenant-a1");
    let path_a2 = temp_path("tenant-a2");
    save_snapshot(&fixture_catalog(1.0), &path_a1);
    save_snapshot(&fixture_catalog(0.5), &path_a2);

    let ref_beta = serving_state(&fixture_catalog(0.05), "mem");
    let line = "heart blood surgery goal";
    let expect_beta = expected_ranking(
        &ref_beta,
        &words(line),
        Algo::Cori,
        selection::ShrinkageMode::Adaptive,
    );

    let tenants = vec![
        (
            "alpha".to_string(),
            ServingState::load(path_a1.to_str().unwrap(), 0).unwrap(),
        ),
        (
            "beta".to_string(),
            serving_state(&fixture_catalog(0.05), "beta-mem"),
        ),
    ];
    let (addr, handle) = start_tenants(
        ServerConfig {
            workers: 4,
            queue_capacity: 128,
            ..Default::default()
        },
        tenants,
    );

    // Hammer beta from several threads while alpha is reloaded over and
    // over. Every beta response must be 200 with beta's exact ranking —
    // reload isolation means beta never even notices.
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            let expect_beta = expect_beta.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (status, _, body) =
                        post(addr, "/t/beta/route", &format!(r#"{{"query":"{line}"}}"#));
                    assert_eq!(status, 200, "beta failed during alpha reload: {body}");
                    let ranking =
                        parse_ranking(Json::parse(&body).unwrap().get("ranking").unwrap());
                    assert_eq!(ranking, expect_beta, "beta's ranking drifted");
                    served.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Alternate alpha between its two generations as fast as reloads go.
    let mut alpha_generation = 1;
    for i in 0..10 {
        let path = if i % 2 == 0 { &path_a2 } else { &path_a1 };
        let (status, _, body) = post(
            addr,
            "/t/alpha/admin/reload",
            &format!(r#"{{"path":"{}"}}"#, path.display()),
        );
        assert_eq!(status, 200, "alpha reload failed: {body}");
        alpha_generation += 1;
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("tenant").unwrap().as_str(), Some("alpha"));
        assert_eq!(
            parsed.get("generation").unwrap().as_u64(),
            Some(alpha_generation)
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    stop.store(true, Ordering::Relaxed);
    for h in hammers {
        h.join().expect("hammer thread");
    }
    assert!(
        served.load(Ordering::Relaxed) > 0,
        "hammers must have exercised beta during the reloads"
    );

    // Beta's generation chain is untouched; alpha's advanced by 10.
    let (_, _, text) = post(addr, "/t/beta/route", &format!(r#"{{"query":"{line}"}}"#));
    assert_eq!(
        Json::parse(&text)
            .unwrap()
            .get("generation")
            .unwrap()
            .as_u64(),
        Some(1),
        "beta's generation must not move when alpha reloads"
    );
    let (_, _, text) = get(addr, "/metrics");
    assert!(
        text.contains("dbselectd_tenant_reload_total{tenant=\"alpha\"} 10"),
        "alpha reload counter missing:\n{text}"
    );
    assert!(
        text.contains("dbselectd_tenant_reload_total{tenant=\"beta\"} 0"),
        "beta reload counter must stay zero:\n{text}"
    );

    shutdown(addr, handle);
    std::fs::remove_file(&path_a1).ok();
    std::fs::remove_file(&path_a2).ok();
}

#[test]
fn tenant_quota_rejects_with_retry_after_without_touching_neighbours() {
    let (addr, handle) = start_tenants(
        ServerConfig {
            workers: 4,
            queue_capacity: 128,
            tenant_quota: 1,
            debug_sleep: true,
            ..Default::default()
        },
        two_tenants(),
    );

    // Hold alpha's single quota slot with a slow request...
    let slow = std::thread::spawn(move || {
        let body = r#"{"query":"heart blood"}"#;
        let raw = format!(
            "POST /t/alpha/route HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Debug-Route-Sleep-Ms: 900\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        exchange(addr, &raw)
    });
    std::thread::sleep(Duration::from_millis(250));

    // ...then a second alpha request must bounce with 503 + Retry-After,
    // while beta still serves 200 — quota is per tenant, not per process.
    let (status, head, body) = post(addr, "/t/alpha/route", r#"{"query":"heart blood"}"#);
    assert_eq!(status, 503, "{body}");
    assert!(
        head.contains("Retry-After:"),
        "missing Retry-After:\n{head}"
    );
    let (status, _, body) = post(addr, "/t/beta/route", r#"{"query":"heart blood"}"#);
    assert_eq!(
        status, 200,
        "beta must be unaffected by alpha's quota: {body}"
    );

    let (status, _, _) = slow.join().expect("slow request thread");
    assert_eq!(status, 200, "the quota holder itself must succeed");

    // The slot is free again once the slow request finished.
    let (status, _, body) = post(addr, "/t/alpha/route", r#"{"query":"heart blood"}"#);
    assert_eq!(status, 200, "quota must release after completion: {body}");

    let (_, _, text) = get(addr, "/metrics");
    assert!(
        text.contains("dbselectd_tenant_quota_rejected_total{tenant=\"alpha\"} 1"),
        "alpha quota rejection not counted:\n{text}"
    );
    assert!(
        text.contains("dbselectd_tenant_quota_rejected_total{tenant=\"beta\"} 0"),
        "beta must have no quota rejections:\n{text}"
    );

    shutdown(addr, handle);
}

#[test]
fn tenant_metrics_are_label_isolated() {
    let (addr, handle) = start_tenants(ServerConfig::default(), two_tenants());

    for _ in 0..3 {
        assert_eq!(post(addr, "/t/alpha/route", r#"{"query":"heart"}"#).0, 200);
    }
    assert_eq!(post(addr, "/t/beta/route", r#"{"query":"heart"}"#).0, 200);

    let (_, _, text) = get(addr, "/metrics");
    assert!(
        text.contains(
            "dbselectd_tenant_requests_total{tenant=\"alpha\",endpoint=\"route\",status=\"200\"} 3"
        ),
        "alpha request count wrong:\n{text}"
    );
    assert!(
        text.contains(
            "dbselectd_tenant_requests_total{tenant=\"beta\",endpoint=\"route\",status=\"200\"} 1"
        ),
        "beta request count wrong:\n{text}"
    );
    assert!(
        text.contains("dbselectd_tenant_in_flight{tenant=\"alpha\"} 0"),
        "in-flight gauge must return to zero:\n{text}"
    );

    shutdown(addr, handle);
}

#[test]
fn k_truncates_the_served_ranking_only() {
    let reference = serving_state(&fixture_catalog(1.0), "mem");
    let (addr, handle) = start_tenants(
        ServerConfig::default(),
        vec![(
            "default".to_string(),
            serving_state(&fixture_catalog(1.0), "mem"),
        )],
    );

    let line = "heart blood surgery goal stock virus";
    let full = expected_ranking(
        &reference,
        &words(line),
        Algo::Cori,
        selection::ShrinkageMode::Adaptive,
    );
    assert!(full.len() > 2, "fixture must rank more than 2 databases");

    // k truncates the serialized ranking to the top k — the scores and
    // order of the survivors are exactly the full ranking's prefix.
    let (status, _, text) = post(addr, "/route", &format!(r#"{{"query":"{line}","k":2}}"#));
    assert_eq!(status, 200, "{text}");
    let ranking = parse_ranking(Json::parse(&text).unwrap().get("ranking").unwrap());
    assert_eq!(
        ranking,
        full[..2].to_vec(),
        "k=2 must serve the top-2 prefix"
    );

    // `k: 0` (and non-integer / negative k) is a client error, not an
    // empty ranking.
    for bad in [r#""k":0"#, r#""k":-1"#, r#""k":1.5"#, r#""k":"two""#] {
        let (status, _, text) = post(addr, "/route", &format!(r#"{{"query":"{line}",{bad}}}"#));
        assert_eq!(status, 400, "{bad}: {text}");
        assert!(text.contains("`k` must be a positive integer"), "{text}");
    }

    // Oversized and absent k serve the full ranking.
    let (_, _, text) = post(addr, "/route", &format!(r#"{{"query":"{line}","k":999}}"#));
    let ranking = parse_ranking(Json::parse(&text).unwrap().get("ranking").unwrap());
    assert_eq!(ranking, full);

    // And on the batch path.
    let (status, _, text) = post(
        addr,
        "/route_batch",
        &format!(r#"{{"queries":["{line}"],"k":1}}"#),
    );
    assert_eq!(status, 200, "{text}");
    let parsed = Json::parse(&text).unwrap();
    let first = &parsed.get("results").unwrap().as_array().unwrap()[0];
    assert_eq!(
        parse_ranking(first.get("ranking").unwrap()),
        full[..1].to_vec(),
        "batch k=1 must serve the top-1 prefix"
    );

    // A malformed k is a 400, not a panic.
    let (status, _, _) = post(
        addr,
        "/route",
        &format!(r#"{{"query":"{line}","k":"two"}}"#),
    );
    assert_eq!(status, 400);

    shutdown(addr, handle);
}
