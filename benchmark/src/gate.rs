//! The correctness gate: one checked pass over the whole request pool
//! before anything is timed. A run whose gate fails prints no metrics.
//!
//! Every response must be a 200 with a well-formed ranking, and its bytes
//! must equal what the library routes in-process on a state loaded from
//! the served files ("served == library"). The pass doubles as the
//! warm-up (posterior caches fill) and yields `rk10`, the paper's
//! selection-quality metric measured on the rankings actually served.

use std::collections::HashSet;
use std::net::SocketAddr;

use crate::client::{body_after_generation, body_generation, Conn, Reply};
use crate::layers::{Json, Oracle, Testbed, ALGOS};
use crate::workloads::Pool;

/// `k` of the `R_k` quality metric.
pub const RK_DEPTH: usize = 10;

/// What the gate learned about a pool on the daemon it checked.
pub struct Verified {
    /// Tenant generation every response carried.
    pub generation: u64,
    /// Served bodies, whole.
    pub bodies: Vec<String>,
    /// Mean `R_k` at [`RK_DEPTH`] over the pool's judged queries, and the
    /// same per algorithm in [`ALGOS`] order.
    pub rk10: f64,
    pub rk10_by_algo: [f64; 3],
}

impl Verified {
    /// The check the timed phases apply to every response: a 200 whose
    /// bytes after the generation field are the gate-verified ones. Once
    /// a refresh has swapped the catalog (generation moved on) rankings
    /// legitimately change, and only the body's frame is checked.
    pub fn check(&self, i: usize, reply: Reply, body: &[u8]) -> Option<u64> {
        if reply.status != 200 {
            return None;
        }
        let generation = body_generation(body)?;
        let ok = if generation == self.generation {
            body_after_generation(body) == body_after_generation(self.bodies[i].as_bytes())
        } else {
            generation > self.generation && body.ends_with(b"]}")
        };
        ok.then_some(generation)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Structural check of one `/route` body; returns the ranking as catalog
/// indices.
fn check_ranking(body: &Json, oracle: &Oracle, k: Option<usize>) -> Result<Vec<usize>, String> {
    let ranking = body
        .get("ranking")
        .and_then(Json::as_array)
        .ok_or("no `ranking` array")?;
    if body.get("unknown").and_then(Json::as_array).is_none() {
        return Err("no `unknown` array".into());
    }
    if ranking.len() > k.unwrap_or(usize::MAX).min(oracle.databases()) {
        return Err(format!("{} entries for k = {k:?}", ranking.len()));
    }
    let mut indices = Vec::with_capacity(ranking.len());
    let mut seen = HashSet::new();
    let mut previous = f64::INFINITY;
    for (position, entry) in ranking.iter().enumerate() {
        if entry.get("rank").and_then(Json::as_u64) != Some(position as u64 + 1) {
            return Err(format!("entry {position} is not rank {}", position + 1));
        }
        let score = entry
            .get("score")
            .and_then(Json::as_f64)
            .filter(|s| s.is_finite())
            .ok_or_else(|| format!("entry {position} has no finite score"))?;
        if score > previous {
            return Err(format!("score rises at entry {position}"));
        }
        previous = score;
        let name = entry
            .get("database")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry {position} has no database name"))?;
        let index = oracle
            .index_of(name)
            .ok_or_else(|| format!("database `{name}` is not in the catalog"))?;
        if !seen.insert(index) {
            return Err(format!("database `{name}` ranked twice"));
        }
        if !matches!(entry.get("shrinkage_used"), Some(Json::Bool(_))) {
            return Err(format!("entry {position} has no `shrinkage_used` flag"));
        }
        indices.push(index);
    }
    Ok(indices)
}

/// Send every pool request once on one connection and verify each answer.
pub fn verify(
    addr: SocketAddr,
    pool: &Pool,
    oracle: &Oracle,
    bed: &Testbed,
) -> Result<Verified, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut bodies = Vec::with_capacity(pool.len());
    let mut generation = None;
    let mut rk_all = Vec::new();
    let mut rk_by_algo: [Vec<f64>; 3] = Default::default();
    for (i, request) in pool.requests.iter().enumerate() {
        let fail = |detail: String| {
            format!(
                "request {i} ({} {:?}): {detail}",
                request.algo, request.words
            )
        };
        let reply = conn
            .exchange(&pool.raw[i])
            .map_err(|e| fail(format!("transport: {e}")))?;
        let text = std::str::from_utf8(conn.body())
            .map_err(|_| fail("body is not UTF-8".into()))?
            .to_string();
        if reply.status != 200 {
            return Err(fail(format!("status {}: {text}", reply.status)));
        }
        let served =
            body_generation(text.as_bytes()).ok_or_else(|| fail("no generation field".into()))?;
        if *generation.get_or_insert(served) != served {
            return Err(fail(format!(
                "generation moved to {served} during the gate"
            )));
        }
        let json = Json::parse(&text).map_err(|e| fail(format!("invalid JSON: {e}")))?;
        let ranking = check_ranking(&json, oracle, request.k).map_err(fail)?;
        let expected = oracle.expected_body(request, served);
        if text != expected {
            return Err(fail(format!(
                "served != library\n  served:  {text}\n  library: {expected}"
            )));
        }
        if let Some(rk) = bed.rk(request.query, &ranking, RK_DEPTH) {
            rk_all.push(rk);
            let algo = ALGOS
                .iter()
                .position(|&a| a == request.algo)
                .expect("pool algo");
            rk_by_algo[algo].push(rk);
        }
        bodies.push(text);
    }
    Ok(Verified {
        generation: generation.ok_or("empty request pool")?,
        bodies,
        rk10: mean(&rk_all),
        rk10_by_algo: [
            mean(&rk_by_algo[0]),
            mean(&rk_by_algo[1]),
            mean(&rk_by_algo[2]),
        ],
    })
}
