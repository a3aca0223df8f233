//! The workload catalogue: what each workload sends, at what rate, and
//! why it exists. Rates are fixed and spacing constant, so a run is a
//! deterministic replay of its seed.

use crate::client;
use crate::layers::{RouteRequest, Testbed, ALGOS};

/// Databases under `--smoke`.
pub const SMOKE_DATABASES: usize = 24;
/// Evaluation queries generated with the testbed; one pool request each.
pub const QUERIES: usize = 200;

/// One workload. Every workload runs the same phases over the same
/// fixture — closed loop, open loop, refresh tail — and differs only in
/// the request it sends, the open-loop rate, and whether the refresh
/// writer also runs beside the first two phases.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Databases in the generated catalog.
    pub databases: usize,
    /// `"shrinkage"` field of the body; `None` leaves the daemon's default
    /// (adaptive — the paper's method).
    pub shrinkage: Option<&'static str>,
    /// `"k"` field; `None` asks for the full ranking.
    pub k: Option<usize>,
    /// Keep-alive connections, one sender thread each, in both loops.
    pub connections: usize,
    /// Open-loop arrival rate, requests per second over all connections.
    pub open_rps: f64,
    /// The refresh writer appends a round every [`CHURN_PERIOD_S`] during
    /// the closed- and open-loop phases too, not only in the tail.
    pub churn: bool,
    /// `rk10` below this fails the correctness gate: the served rankings
    /// stopped being the paper's. 0.9 x the lowest value seen on seeds
    /// 100-109; not applied under `--smoke` (another catalog).
    pub rk10_floor: f64,
    pub why: &'static str,
}

/// Seconds between refresh rounds while a churn workload's loops run.
pub const CHURN_PERIOD_S: f64 = 1.0;
/// Seconds between refresh rounds in every workload's tail.
pub const TAIL_PERIOD_S: f64 = 0.3;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "adaptive-k10",
        // Half the others' catalog: the uncertainty test costs ~55 us per
        // (query, db), and 100 rps must stay well under one worker's
        // capacity for the open loop to have a steady state.
        databases: 50,
        shrinkage: None,
        k: Some(10),
        connections: 2,
        open_rps: 100.0,
        churn: false,
        rk10_floor: 0.83,
        why: "the paper's method: the per-(query, db) uncertainty test is ~99% of service time",
    },
    Workload {
        name: "never-k10",
        databases: 100,
        shrinkage: Some("never"),
        k: Some(10),
        connections: 2,
        open_rps: 1000.0,
        churn: false,
        rk10_floor: 0.69,
        why: "plain baseline: bypasses the uncertainty test, so reactor, http, json and queue do the work",
    },
    Workload {
        name: "always-full",
        databases: 100,
        shrinkage: Some("always"),
        k: None,
        connections: 2,
        open_rps: 400.0,
        churn: false,
        rk10_floor: 0.73,
        why: "every db scored from its dense shrunk row, full ranking rendered and written: no pruning",
    },
    Workload {
        name: "refresh-churn",
        databases: 100,
        shrinkage: Some("never"),
        k: Some(10),
        connections: 1,
        open_rps: 1000.0,
        churn: true,
        rk10_floor: 0.69,
        why: "writes beside reads: delta appends, chain replay and tenant swaps while cheap reads fly",
    },
];

/// What reads beside the writer in every workload's refresh tail: the
/// request, connection count and pace of `refresh-churn`'s reader. Cheap
/// requests at a fixed pace time the swap, not the reader.
pub fn tail_reader() -> &'static Workload {
    &WORKLOADS[3]
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The requests a workload cycles through, ready to send.
pub struct Pool {
    pub requests: Vec<RouteRequest>,
    /// Wire bytes of each request.
    pub raw: Vec<Vec<u8>>,
}

/// SplitMix64: the harness's own tiny generator, so the visiting order is
/// a function of `--seed` alone and of no crate under test.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Pool {
    /// One request per testbed query, visited in a seed-shuffled fixed
    /// order, request `i` scored by `ALGOS[i % 3]`.
    pub fn build(workload: &Workload, bed: &Testbed, seed: u64) -> Pool {
        let words = bed.query_words();
        let mut order: Vec<usize> = (0..words.len()).collect();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let requests: Vec<RouteRequest> = order
            .into_iter()
            .enumerate()
            .map(|(i, query)| RouteRequest {
                query,
                words: words[query].clone(),
                algo: ALGOS[i % ALGOS.len()],
                shrinkage: workload.shrinkage,
                k: workload.k,
            })
            .collect();
        let raw = requests
            .iter()
            .map(|r| client::post("/route", &r.body()))
            .collect();
        Pool { requests, raw }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }
}
