//! Live-refresh integration tests: delta-chained catalogs served by the
//! daemon, race-free generation swaps, and provable rollback.
//!
//! The load-bearing assertions: a chain-loaded state routes
//! **bit-identically** to a full freeze of the same post-refresh session
//! across every (algorithm, shrinkage mode, shard count) combination; a
//! reload can never move the chain generation backwards (409, with the
//! serving generation in the body); a broken chain leaves the previous
//! generation serving and only increments the load-failure counter; the
//! background refresher hot-swaps a growing chain without failing a
//! single in-flight request.

mod common;

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use common::{fixture_catalog, start};
use dbselect_core::summary::ContentSummary;
use proptest::prelude::*;
use sampling::scheduler::db_rng;
use server::json::Json;
use server::state::{Algo, ServingState, MODES};
use server::ServerConfig;
use store::delta::{self, ChainWriter, DbPatch};
use store::refresh::RefreshSession;
use textindex::Document;

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

fn temp_chain(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dbselectd-refresh-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A synthetic re-probe for `db`: drifts the sample (dropping a rotating
/// prefix of the old vocabulary, adding fresh terms) and perturbs the
/// size estimate, deterministically in `(db, round, seed)`.
fn probe(session: &mut RefreshSession, db: usize, round: u64, seed: u64) -> ContentSummary {
    let fresh = session
        .dict_mut()
        .intern(&format!("drift-{db}-r{round}-s{seed}"));
    let old_terms: Vec<u32> = session.summary(db).iter().map(|(t, _)| t).collect();
    let mut docs = vec![Document::from_tokens(0, vec![fresh, fresh])];
    let skip = (round as usize + seed as usize) % 3;
    for (i, &t) in old_terms.iter().enumerate().skip(skip) {
        docs.push(Document::from_tokens(1 + i as u32, vec![t, fresh, t]));
    }
    let mut summary =
        ContentSummary::from_sample(docs.iter(), 800.0 + 31.0 * round as f64 + seed as f64);
    if (db + seed as usize).is_multiple_of(2) {
        summary.set_gamma(-1.4 - 0.07 * round as f64);
    }
    summary
}

/// Build a chain in `dir` whose rounds touch the given database sets;
/// returns the session holding the post-refresh reference state.
fn build_chain(dir: &Path, rounds: &[Vec<usize>], seed: u64) -> RefreshSession {
    let mut session = RefreshSession::new(fixture_catalog(1.0));
    let mut writer = ChainWriter::create(dir, &session.freeze_full()).unwrap();
    for (ri, dbs) in rounds.iter().enumerate() {
        let mut touched: Vec<usize> = dbs.clone();
        touched.sort_unstable();
        touched.dedup();
        let mut patches: Vec<DbPatch> = Vec::new();
        for &db in &touched {
            let summary = probe(&mut session, db, ri as u64 + 1, seed);
            patches.push(session.apply_probe(db, summary));
        }
        writer.append_round(session.dict(), patches).unwrap();
    }
    session
}

/// Every (algorithm, shrinkage mode) ranking for a set of queries, as
/// `(db index, score bits)` pairs — the bit-exact routing fingerprint of
/// a serving state.
fn route_fingerprint(state: &ServingState, queries: &[Vec<String>]) -> Vec<(usize, u64)> {
    let mut bits = Vec::new();
    for (qi, words) in queries.iter().enumerate() {
        let (query, _) = state.analyze(words);
        for algo in Algo::all() {
            for mode in MODES {
                let mut rng = db_rng(7, qi);
                let outcome = match state.sharded_engine(algo, mode) {
                    Some(se) => se.route_topk(&query, usize::MAX, &mut rng),
                    None => state
                        .engine(algo, mode)
                        .route_topk(&query, usize::MAX, &mut rng),
                };
                for r in &outcome.ranking {
                    bits.push((r.index, r.score.to_bits()));
                }
            }
        }
    }
    bits
}

fn fingerprint_queries() -> Vec<Vec<String>> {
    [
        "heart blood surgery",
        "goal keeper stadium",
        "stock yield",
        "virus immune protein blood",
    ]
    .iter()
    .map(|q| q.split_whitespace().map(str::to_string).collect())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 4, end to end: for random refresh schedules, the state
    /// loaded by replaying `base + deltas` routes bit-identically to a
    /// state built from a full freeze of the equivalent post-refresh
    /// session — across 3 algorithms × 3 shrinkage modes × 1/2/4 shards.
    #[test]
    fn chain_loaded_state_routes_bit_identically_to_full_freeze(
        rounds in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 1..3),
            1..4,
        ),
        seed in 0u64..1000,
    ) {
        let dir = temp_chain("prop");
        let session = build_chain(&dir, &rounds, seed);
        let reference = session.freeze_full();
        let queries = fingerprint_queries();
        for shards in [1usize, 2, 4] {
            let chained = ServingState::load_sharded(
                dir.to_str().unwrap(), 0, shards,
            ).unwrap();
            prop_assert_eq!(chained.catalog_generation(), rounds.len() as u64);
            let full = ServingState::from_snapshot_sharded(
                reference.clone(), "mem".into(), 0, shards,
            );
            prop_assert_eq!(
                route_fingerprint(&chained, &queries),
                route_fingerprint(&full, &queries)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn stale_chain_reloads_answer_409_and_force_overrides() {
    let newer = temp_chain("stale-newer");
    build_chain(&newer, &[vec![0, 2], vec![1]], 3);
    let older = temp_chain("stale-older");
    build_chain(&older, &[vec![4]], 3);

    let state = ServingState::load_sharded(newer.to_str().unwrap(), 0, 1).unwrap();
    assert_eq!(state.catalog_generation(), 2);
    let (addr, handle) = start(
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
        state,
    );

    // Reloading an older chain generation is refused with the serving
    // generation in the body; nothing swaps.
    let reload_body = format!("{{\"path\": \"{}\"}}", older.display());
    let (status, _, body) = post(addr, "/admin/reload", &reload_body);
    assert_eq!(status, 409, "stale reload must be refused: {body}");
    let refused = Json::parse(&body).expect("409 body is JSON");
    assert_eq!(
        refused.get("catalog_generation").unwrap().as_u64().unwrap(),
        2
    );
    assert_eq!(refused.get("generation").unwrap().as_u64().unwrap(), 1);
    let (_, _, health) = get(addr, "/healthz");
    let health = Json::parse(&health).unwrap();
    assert_eq!(health.get("generation").unwrap().as_u64().unwrap(), 1);

    // `force: true` is the re-basing escape hatch: the same older chain
    // installs, and the serving generation still only goes up.
    let force_body = format!("{{\"path\": \"{}\", \"force\": true}}", older.display());
    let (status, _, body) = post(addr, "/admin/reload", &force_body);
    assert_eq!(status, 200, "forced reload: {body}");
    let ok = Json::parse(&body).unwrap();
    assert_eq!(ok.get("generation").unwrap().as_u64().unwrap(), 2);
    assert_eq!(ok.get("catalog_generation").unwrap().as_u64().unwrap(), 1);

    std::fs::remove_dir_all(&newer).ok();
    std::fs::remove_dir_all(&older).ok();
    shutdown(addr, handle);
}

#[test]
fn broken_chains_keep_the_old_generation_serving_and_count_the_failure() {
    let dir = temp_chain("rollback");
    build_chain(&dir, &[vec![0, 3]], 11);
    let state = ServingState::load_sharded(dir.to_str().unwrap(), 0, 1).unwrap();
    let (addr, handle) = start(
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
        state,
    );

    let route_body = r#"{"query": "heart blood goal", "algo": "cori"}"#;
    let (status, _, before) = post(addr, "/route", route_body);
    assert_eq!(status, 200);

    // Put a corrupt delta-2 at the tip: the reload must reject the whole
    // chain (never half-apply), name the failing file and position, and
    // leave generation 1 serving.
    let delta2 = dir.join(delta::delta_file_name(2));
    let mut corrupt = std::fs::read(dir.join(delta::delta_file_name(1))).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    std::fs::write(&delta2, &corrupt).unwrap();

    let (status, _, body) = post(addr, "/admin/reload", "");
    assert_eq!(status, 400, "corrupt chain must answer 400: {body}");
    assert!(
        body.contains("delta-000002.snap"),
        "body names the file: {body}"
    );
    assert!(
        body.contains("chain delta 2"),
        "body names the position: {body}"
    );

    // Provable rollback: the old generation still serves, bit for bit.
    let (_, _, health) = get(addr, "/healthz");
    assert_eq!(
        Json::parse(&health)
            .unwrap()
            .get("generation")
            .unwrap()
            .as_u64()
            .unwrap(),
        1
    );
    let (status, _, after) = post(addr, "/route", route_body);
    assert_eq!(status, 200);
    assert_eq!(before, after, "serving state must be untouched");

    // The failure is visible to operators.
    let (_, _, metrics) = get(addr, "/metrics");
    let failures: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("dbselectd_catalog_load_failures_total "))
        .expect("load-failures family present")
        .trim()
        .parse()
        .unwrap();
    assert!(failures >= 1, "failure counter must increment: {failures}");

    // Repairing the chain (removing the broken tip) makes reload succeed
    // again, and the generation advances normally.
    std::fs::remove_file(&delta2).unwrap();
    let (status, _, body) = post(addr, "/admin/reload", "");
    assert_eq!(status, 200, "repaired chain reloads: {body}");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("generation")
            .unwrap()
            .as_u64()
            .unwrap(),
        2
    );

    // An empty chain directory is a caller error, reported as 404.
    let empty = temp_chain("rollback-empty");
    std::fs::create_dir_all(&empty).unwrap();
    let (status, _, body) = post(
        addr,
        "/admin/reload",
        &format!("{{\"path\": \"{}\"}}", empty.display()),
    );
    assert_eq!(status, 404, "missing base: {body}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&empty).ok();
    shutdown(addr, handle);
}

/// Satellite 1's hammer: admin reloads and the background refresher race
/// over a chain that grows concurrently. Generations observed by clients
/// must only ever increase, every reload answer is 200 or 409, and not
/// one in-flight routing request fails across any swap.
#[test]
fn concurrent_reloads_and_refresh_keep_generations_monotone() {
    let dir = temp_chain("hammer");
    let dir_string = dir.to_str().unwrap().to_string();
    // Base only; rounds are appended while the daemon serves.
    let mut session = RefreshSession::new(fixture_catalog(1.0));
    let mut writer = ChainWriter::create(&dir, &session.freeze_full()).unwrap();

    let state = ServingState::load_sharded(&dir_string, 0, 1).unwrap();
    assert_eq!(state.catalog_generation(), 0);
    let (addr, handle) = start(
        ServerConfig {
            workers: 4,
            refresh_interval: Some(Duration::from_millis(10)),
            ..Default::default()
        },
        state,
    );

    const ROUNDS: u64 = 6;
    let stop = Arc::new(AtomicBool::new(false));

    // Client load: continuous routing; any non-200 is a failed in-flight
    // request. Per client, the observed serving generation must never go
    // backwards (requests on one connection thread are sequential, so
    // request N+1's generation read happens after request N's).
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut last = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let (status, _, body) =
                        post(addr, "/route", r#"{"query": "heart goal stock virus"}"#);
                    assert_eq!(status, 200, "in-flight request failed: {body}");
                    let generation = Json::parse(&body)
                        .unwrap()
                        .get("generation")
                        .unwrap()
                        .as_u64()
                        .unwrap();
                    assert!(
                        generation >= last,
                        "generation regressed: saw {generation} after {last}"
                    );
                    last = generation;
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Admin reload hammer, racing the refresher over the same chain.
    let reloader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut outcomes = (0u64, 0u64);
            while !stop.load(Ordering::SeqCst) {
                let (status, _, body) = post(addr, "/admin/reload", "");
                match status {
                    200 => outcomes.0 += 1,
                    409 => outcomes.1 += 1,
                    other => panic!("reload answered {other}: {body}"),
                }
                std::thread::sleep(Duration::from_millis(3));
            }
            outcomes
        })
    };

    // Grow the chain while everything above is in flight.
    for round in 1..=ROUNDS {
        let db = (round as usize - 1) % session.len();
        let summary = probe(&mut session, db, round, 99);
        let patch = session.apply_probe(db, summary);
        writer.append_round(session.dict(), vec![patch]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }

    // The refresher (or a racing reload) must catch up to the tip.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, body) = get(addr, "/readyz");
        let ready = Json::parse(&body).unwrap();
        let tenants = ready.get("tenants").unwrap().as_array().unwrap();
        let chain_generation = tenants[0]
            .get("catalog_generation")
            .unwrap()
            .as_u64()
            .unwrap();
        if chain_generation == ROUNDS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "refresher never reached the chain tip (at {chain_generation}/{ROUNDS})"
        );
        std::thread::sleep(Duration::from_millis(15));
    }

    stop.store(true, Ordering::SeqCst);
    let (reload_ok, reload_stale) = reloader.join().unwrap();
    let served: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(served > 0, "clients must have routed during the churn");
    assert!(reload_ok + reload_stale > 0, "reloads must have run");

    // The served catalog is the tip, bit-identical to a full freeze.
    let reference = ServingState::from_snapshot_sharded(session.freeze_full(), "mem".into(), 0, 1);
    let tip = ServingState::load_sharded(&dir_string, 0, 1).unwrap();
    let queries = fingerprint_queries();
    assert_eq!(
        route_fingerprint(&tip, &queries),
        route_fingerprint(&reference, &queries)
    );

    std::fs::remove_dir_all(&dir).ok();
    shutdown(addr, handle);
}

/// The refresher alone (no admin reloads): a growing chain is picked up
/// within the polling interval, and a corrupt tip only counts a load
/// failure while the previous generation keeps serving.
#[test]
fn background_refresher_swaps_in_new_deltas_and_survives_corrupt_ones() {
    let dir = temp_chain("refresher");
    let mut session = RefreshSession::new(fixture_catalog(1.0));
    let mut writer = ChainWriter::create(&dir, &session.freeze_full()).unwrap();

    let state = ServingState::load_sharded(dir.to_str().unwrap(), 0, 1).unwrap();
    let (addr, handle) = start(
        ServerConfig {
            workers: 2,
            refresh_interval: Some(Duration::from_millis(15)),
            ..Default::default()
        },
        state,
    );

    let chain_generation = |addr| {
        let (_, _, body) = get(addr, "/readyz");
        let ready = Json::parse(&body).unwrap();
        ready.get("tenants").unwrap().as_array().unwrap()[0]
            .get("catalog_generation")
            .unwrap()
            .as_u64()
            .unwrap()
    };

    // Two refresh rounds land on disk; the daemon must follow without
    // any admin intervention.
    for round in 1..=2u64 {
        let summary = probe(&mut session, round as usize, round, 5);
        let patch = session.apply_probe(round as usize, summary);
        writer.append_round(session.dict(), vec![patch]).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while chain_generation(addr) < 2 {
        assert!(Instant::now() < deadline, "refresher never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }

    // A corrupt tip: the refresher sees a higher generation on disk,
    // fails to load it, counts the failure, and keeps serving tip 2.
    let bad = dir.join(delta::delta_file_name(3));
    let mut bytes = std::fs::read(dir.join(delta::delta_file_name(2))).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&bad, &bytes).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let failures = loop {
        let (_, _, metrics) = get(addr, "/metrics");
        let failures: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix("dbselectd_catalog_load_failures_total "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        if failures >= 1 {
            break failures;
        }
        assert!(Instant::now() < deadline, "failure never counted");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(failures >= 1);
    assert_eq!(chain_generation(addr), 2, "corrupt tip must not serve");
    let (status, _, _) = post(addr, "/route", r#"{"query": "heart goal"}"#);
    assert_eq!(status, 200);

    std::fs::remove_dir_all(&dir).ok();
    shutdown(addr, handle);
}
