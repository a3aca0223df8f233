//! The federated proxy tier: scatter-gather over remote shard daemons.
//!
//! In `--proxy` mode the daemon holds no catalog at all. Each configured
//! backend is a plain `dbselectd` over the *same* snapshot; the proxy
//! sends backend `i` of N the client's body plus `"shard": i, "shards": N`,
//! and the backend answers with that contiguous block's partial ranking
//! (global catalog indices, per-shard top-k). The proxy fans a
//! client request out to every backend, k-way-merges the partial rankings
//! with [`selection::merge_partial_rankings`], and renders the same body
//! the monolithic engine would have produced — bit-identical when every
//! backend answers, because the adaptive choose phase and the scoring
//! context are computed over the full catalog on every backend (PR 7's
//! shard-invariance argument) and JSON numbers round-trip exactly
//! ([`crate::json`]).
//!
//! The resilience layer around each backend call:
//!
//! - **Deadline budgets**: a merge reserve is carved off the end-to-end
//!   deadline; each retry attempt gets `remaining / attempts_left`, so
//!   early attempts fail fast while the last one may use all that is
//!   left.
//! - **Retries**: bounded, with exponential backoff and full jitter
//!   (decorrelated retry storms across shards).
//! - **Hedging**: when a reply is slower than the backend's observed p99
//!   (or a fixed `--hedge-ms`), a second identical request races it;
//!   first answer wins. Routing is idempotent, so hedges are safe.
//! - **Circuit breakers**: consecutive failures open a per-backend
//!   breaker (requests skip the backend instead of burning their budget
//!   on it); a background health checker probes `/healthz` and walks the
//!   breaker open → half-open → closed when the backend recovers.
//! - **Degradation**: if a shard stays unreachable past the retry
//!   budget, the healthy shards' rankings are merged and served with
//!   `"degraded": true` plus the missing shard ids — a partial answer
//!   instead of a 503. Only when *every* shard is down does the proxy
//!   return 503 (with the configured `Retry-After`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use selection::{merge_partial_rankings, RankedDatabase};

use crate::client::{ClientResponse, Pool};
use crate::http::{Request, Response};
use crate::json::Json;
use crate::metrics::{escape_label_value, Histogram};
use crate::{retry_after_value, Shared};

/// Slice of the end-to-end deadline reserved for merging and rendering
/// after the slowest shard answers.
const MERGE_RESERVE: Duration = Duration::from_millis(25);

/// Extra slack granted when harvesting an in-flight attempt whose
/// deadline just passed: the worker thread's own socket timeout fires at
/// the deadline, and the error still has to travel up the channel.
const HARVEST_GRACE: Duration = Duration::from_millis(50);

/// A client body may not pick its own shard: the proxy appends one per
/// backend.
const RESERVED_SHARD: &str = "`shard` and `shards` are reserved for proxy-to-backend requests";

/// Minimum observations before an `Auto` hedge trusts the p99.
const HEDGE_MIN_SAMPLES: u64 = 16;

/// When to launch a hedged second request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgePolicy {
    /// Never hedge.
    Off,
    /// Hedge after the backend's observed p99 latency (no hedging until
    /// enough samples accumulate).
    Auto,
    /// Hedge after a fixed delay.
    Fixed(Duration),
}

/// Configuration of the proxy tier (`dbselectd --proxy`).
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Backend addresses (`host:port`), one per shard: `backends[i]` is
    /// asked for shard `i` of `backends.len()`, and must serve the same
    /// snapshot as the others.
    pub backends: Vec<String>,
    /// Extra attempts per shard beyond the first.
    pub retries: u32,
    /// Base of the exponential backoff between attempts.
    pub backoff_base: Duration,
    /// Hedged-request policy.
    pub hedge: HedgePolicy,
    /// Consecutive failures that open a backend's breaker.
    pub breaker_failures: u32,
    /// How long an open breaker waits before the half-open probe.
    pub breaker_cooldown: Duration,
    /// Health-checker probe interval.
    pub health_interval: Duration,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            backends: Vec::new(),
            retries: 2,
            backoff_base: Duration::from_millis(25),
            hedge: HedgePolicy::Auto,
            breaker_failures: 3,
            breaker_cooldown: Duration::from_secs(2),
            health_interval: Duration::from_millis(500),
        }
    }
}

/// Breaker states, also the `dbselectd_backend_breaker_state` gauge
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    Closed = 0,
    Open = 1,
    HalfOpen = 2,
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Instant,
}

/// A per-backend circuit breaker. The request path only consults
/// [`allows`](Breaker::allows) and records outcomes; all state *walking*
/// (open → half-open → closed) is owned by the health checker, so a
/// recovering backend is re-admitted by a cheap probe rather than by a
/// client request gambling its deadline.
pub(crate) struct Breaker {
    inner: Mutex<BreakerInner>,
    threshold: u32,
    cooldown: Duration,
    opens_total: AtomicU64,
}

impl Breaker {
    fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Instant::now(),
            }),
            threshold: threshold.max(1),
            cooldown,
            opens_total: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner.lock().expect("breaker lock poisoned")
    }

    /// May a request be sent to this backend right now? Only `Closed`
    /// admits traffic; `HalfOpen` is reserved for the health probe.
    pub(crate) fn allows(&self) -> bool {
        self.lock().state == BreakerState::Closed
    }

    pub(crate) fn state(&self) -> BreakerState {
        self.lock().state
    }

    fn record_success(&self) {
        let mut inner = self.lock();
        if inner.state == BreakerState::Closed {
            inner.consecutive_failures = 0;
        }
    }

    fn record_failure(&self) {
        let mut inner = self.lock();
        if inner.state == BreakerState::Closed {
            inner.consecutive_failures += 1;
            if inner.consecutive_failures >= self.threshold {
                self.trip(&mut inner);
            }
        }
    }

    fn trip(&self, inner: &mut BreakerInner) {
        inner.state = BreakerState::Open;
        inner.opened_at = Instant::now();
        self.opens_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Health-checker tick, phase 1: an open breaker whose cooldown has
    /// elapsed moves to half-open, granting this tick's probe the power
    /// to close it.
    fn begin_tick(&self) {
        let mut inner = self.lock();
        if inner.state == BreakerState::Open && inner.opened_at.elapsed() >= self.cooldown {
            inner.state = BreakerState::HalfOpen;
        }
    }

    /// Health-checker tick, phase 2: fold one probe result in.
    fn on_probe(&self, healthy: bool) {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => {
                if healthy {
                    inner.consecutive_failures = 0;
                } else {
                    inner.consecutive_failures += 1;
                    if inner.consecutive_failures >= self.threshold {
                        self.trip(&mut inner);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if healthy {
                    inner.state = BreakerState::Closed;
                    inner.consecutive_failures = 0;
                } else {
                    self.trip(&mut inner);
                }
            }
            // Still cooling down: the probe fed the `up` gauge, nothing
            // else.
            BreakerState::Open => {}
        }
    }
}

/// One backend shard daemon, as the proxy sees it.
pub(crate) struct Backend {
    pub(crate) addr: String,
    pool: Pool,
    pub(crate) breaker: Breaker,
    /// Last health probe's verdict (the `dbselectd_backend_up` gauge).
    up: AtomicBool,
    /// Has this backend *ever* answered a probe? Feeds the sticky
    /// readiness flag.
    seen_healthy: AtomicBool,
    failures_total: AtomicU64,
    retries_total: AtomicU64,
    hedges_total: AtomicU64,
    hedges_won_total: AtomicU64,
    /// Successful request latency; the `Auto` hedge delay reads its p99.
    latency: Histogram,
    /// xorshift state for backoff jitter (seeded per backend so shards
    /// decorrelate).
    jitter: AtomicU64,
}

impl Backend {
    fn new(addr: String, config: &ProxyConfig, seed: u64) -> Backend {
        Backend {
            pool: Pool::new(addr.clone()),
            addr,
            breaker: Breaker::new(config.breaker_failures, config.breaker_cooldown),
            up: AtomicBool::new(false),
            seen_healthy: AtomicBool::new(false),
            failures_total: AtomicU64::new(0),
            retries_total: AtomicU64::new(0),
            hedges_total: AtomicU64::new(0),
            hedges_won_total: AtomicU64::new(0),
            latency: Histogram::latency(),
            jitter: AtomicU64::new(seed | 1),
        }
    }

    fn next_jitter(&self) -> u64 {
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x == 0 {
            x = 0x9e37_79b9_7f4a_7c15;
        }
        self.jitter.store(x, Ordering::Relaxed);
        x
    }
}

/// The proxy's shared state: one [`Backend`] per shard plus tier-wide
/// counters. Lives inside [`Shared`] next to the (empty) tenant list.
pub(crate) struct ProxyTier {
    pub(crate) config: ProxyConfig,
    pub(crate) backends: Vec<Arc<Backend>>,
    /// Responses served degraded (one or more shards missing).
    degraded_total: AtomicU64,
    /// Sticky: set once every backend has answered a health probe, never
    /// cleared (readiness means "the tier has been fully up once", not
    /// "everything is healthy right now" — degradation handles the rest).
    ready: AtomicBool,
}

impl ProxyTier {
    pub(crate) fn new(config: ProxyConfig) -> ProxyTier {
        let backends = config
            .backends
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                Arc::new(Backend::new(
                    addr.clone(),
                    &config,
                    0x5b7a_1e03_u64.wrapping_mul(i as u64 + 1) ^ 0x9e37_79b9_7f4a_7c15,
                ))
            })
            .collect();
        ProxyTier {
            config,
            backends,
            degraded_total: AtomicU64::new(0),
            ready: AtomicBool::new(false),
        }
    }
}

/// Proxy-mode request dispatch; replaces the catalog dispatch entirely
/// (a proxy hosts no tenants).
pub(crate) fn dispatch(
    shared: &Shared,
    request: &Request,
    deadline: Instant,
) -> (&'static str, Response) {
    let proxy = shared.proxy.as_ref().expect("proxy dispatch without tier");
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => ("healthz", handle_healthz(proxy)),
        ("GET", "/readyz") => ("readyz", handle_readyz(shared, proxy)),
        ("GET", "/metrics") => ("metrics", handle_metrics(shared, proxy)),
        ("POST", "/route") => ("route", handle_route(shared, proxy, request, deadline)),
        ("POST", "/route_batch") => (
            "route_batch",
            handle_route_batch(shared, proxy, request, deadline),
        ),
        ("POST", "/admin/shutdown") => ("shutdown", crate::shutdown_response()),
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/route" | "/route_batch" | "/admin/shutdown",
        ) => (
            "other",
            Response::error(405, "method not allowed").with_header("Allow", "GET, POST".into()),
        ),
        _ => ("other", Response::error(404, "no such endpoint")),
    }
}

fn handle_healthz(proxy: &ProxyTier) -> Response {
    let healthy = proxy
        .backends
        .iter()
        .filter(|b| b.up.load(Ordering::SeqCst))
        .count();
    Response::json(
        200,
        Json::obj(vec![
            ("status".to_string(), Json::Str("ok".to_string())),
            ("mode".to_string(), Json::Str("proxy".to_string())),
            (
                "backends".to_string(),
                Json::Num(proxy.backends.len() as f64),
            ),
            ("healthy".to_string(), Json::Num(healthy as f64)),
        ])
        .render(),
    )
}

fn backend_json(backend: &Backend) -> Json {
    let breaker = match backend.breaker.state() {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half_open",
    };
    Json::obj(vec![
        ("addr".to_string(), Json::Str(backend.addr.clone())),
        (
            "up".to_string(),
            Json::Bool(backend.up.load(Ordering::SeqCst)),
        ),
        (
            "seen_healthy".to_string(),
            Json::Bool(backend.seen_healthy.load(Ordering::SeqCst)),
        ),
        ("breaker".to_string(), Json::Str(breaker.to_string())),
    ])
}

fn handle_readyz(shared: &Shared, proxy: &ProxyTier) -> Response {
    let ready = proxy.ready.load(Ordering::SeqCst);
    let body = Json::obj(vec![
        ("ready".to_string(), Json::Bool(ready)),
        (
            "backends".to_string(),
            Json::Arr(proxy.backends.iter().map(|b| backend_json(b)).collect()),
        ),
    ])
    .render();
    if ready {
        Response::json(200, body)
    } else {
        Response::json(503, body).with_header("Retry-After", retry_after_value(&shared.config))
    }
}

fn handle_metrics(shared: &Shared, proxy: &ProxyTier) -> Response {
    let mut body = shared.metrics.render_core();
    body.push_str(&render_proxy(proxy));
    Response::text(200, body)
}

/// Render the proxy-tier Prometheus families: tier-wide gauges plus one
/// sample per backend under each per-backend family (`# TYPE` emitted
/// once per family; backend addresses are operator input, so their label
/// values are escaped).
fn render_proxy(proxy: &ProxyTier) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# TYPE dbselectd_proxy_ready gauge\n\
         dbselectd_proxy_ready {}\n\
         # TYPE dbselectd_proxy_backends gauge\n\
         dbselectd_proxy_backends {}\n\
         # TYPE dbselectd_proxy_degraded_total counter\n\
         dbselectd_proxy_degraded_total {}\n",
        proxy.ready.load(Ordering::SeqCst) as u64,
        proxy.backends.len(),
        proxy.degraded_total.load(Ordering::Relaxed),
    ));
    type BackendSample = fn(&Backend) -> u64;
    let families: [(&str, &str, BackendSample); 7] = [
        ("dbselectd_backend_up", "gauge", |b| {
            b.up.load(Ordering::SeqCst) as u64
        }),
        ("dbselectd_backend_breaker_state", "gauge", |b| {
            b.breaker.state() as u64
        }),
        ("dbselectd_backend_breaker_opens_total", "counter", |b| {
            b.breaker.opens_total.load(Ordering::Relaxed)
        }),
        ("dbselectd_backend_failures_total", "counter", |b| {
            b.failures_total.load(Ordering::Relaxed)
        }),
        ("dbselectd_backend_retries_total", "counter", |b| {
            b.retries_total.load(Ordering::Relaxed)
        }),
        ("dbselectd_backend_hedges_total", "counter", |b| {
            b.hedges_total.load(Ordering::Relaxed)
        }),
        ("dbselectd_backend_hedges_won_total", "counter", |b| {
            b.hedges_won_total.load(Ordering::Relaxed)
        }),
    ];
    for (name, kind, read) in families {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for backend in &proxy.backends {
            out.push_str(&format!(
                "{name}{{backend=\"{}\"}} {}\n",
                escape_label_value(&backend.addr),
                read(backend),
            ));
        }
    }
    out.push_str("# TYPE dbselectd_backend_request_duration_seconds summary\n");
    for backend in &proxy.backends {
        let label = escape_label_value(&backend.addr);
        let h = &backend.latency;
        out.push_str(&format!(
            "dbselectd_backend_request_duration_seconds{{backend=\"{label}\",quantile=\"0.5\"}} {}\n\
             dbselectd_backend_request_duration_seconds{{backend=\"{label}\",quantile=\"0.99\"}} {}\n\
             dbselectd_backend_request_duration_seconds_count{{backend=\"{label}\"}} {}\n\
             dbselectd_backend_request_duration_seconds_sum{{backend=\"{label}\"}} {}\n",
            h.percentile(0.50) as f64 / 1e9,
            h.percentile(0.99) as f64 / 1e9,
            h.count(),
            h.sum_nanos() as f64 / 1e9,
        ));
    }
    out
}

/// The health checker, spawned by [`Server::run`](crate::Server::run) in
/// proxy mode. Probes every backend's `/healthz` each interval, feeds the
/// `up` gauge and the breaker state machine, and flips the tier's sticky
/// readiness flag once every backend has been seen healthy.
pub(crate) fn health_loop(shared: &Shared) {
    let Some(proxy) = shared.proxy.as_ref() else {
        return;
    };
    let interval = proxy.config.health_interval.max(Duration::from_millis(10));
    loop {
        for backend in &proxy.backends {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            backend.breaker.begin_tick();
            let probe_deadline = Instant::now() + interval.min(Duration::from_secs(1));
            let healthy = backend
                .pool
                .request("GET", "/healthz", b"", probe_deadline)
                .map(|r| r.status == 200)
                .unwrap_or(false);
            backend.up.store(healthy, Ordering::SeqCst);
            if healthy {
                backend.seen_healthy.store(true, Ordering::SeqCst);
            } else {
                // Whatever is pooled points at a backend that just
                // failed a probe; start the next attempt fresh.
                backend.pool.drain();
            }
            backend.breaker.on_probe(healthy);
        }
        if !proxy.ready.load(Ordering::SeqCst)
            && proxy
                .backends
                .iter()
                .all(|b| b.seen_healthy.load(Ordering::SeqCst))
        {
            proxy.ready.store(true, Ordering::SeqCst);
        }
        // Chunked sleep so shutdown is observed within ~25ms.
        let wake = Instant::now() + interval;
        while Instant::now() < wake {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25).min(interval));
        }
    }
}

/// One shard's fate after the full retry/hedge budget.
enum ShardOutcome<T> {
    /// A parsed partial result.
    Ok(T),
    /// The backend answered 4xx: deterministic client error, forwarded
    /// verbatim without retry.
    ClientError(ClientResponse),
    /// Transport failure, backend 5xx, or unparseable body — after all
    /// retries. The shard is treated as missing.
    Failed,
}

/// Fan one request body per shard out to all backends, each with its own
/// retry/hedge budget, and collect per-shard outcomes. Blocks until every
/// shard resolves (bounded by the deadline minus the merge reserve).
fn scatter<T: Send>(
    proxy: &ProxyTier,
    path: &str,
    bodies: &[Vec<u8>],
    deadline: Instant,
    parse: &(dyn Fn(&[u8]) -> Option<T> + Sync),
) -> Vec<ShardOutcome<T>> {
    let shard_deadline = deadline
        .checked_sub(MERGE_RESERVE)
        .unwrap_or(deadline)
        .max(Instant::now());
    std::thread::scope(|scope| {
        let handles: Vec<_> = proxy
            .backends
            .iter()
            .zip(bodies)
            .map(|(backend, body)| {
                scope.spawn(move || {
                    fetch_shard(
                        scope,
                        &proxy.config,
                        backend,
                        path,
                        body,
                        shard_deadline,
                        parse,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(ShardOutcome::Failed))
            .collect()
    })
}

/// Exponential backoff with full jitter: uniform in `[2^a·base/2, 2^a·base]`.
fn backoff_delay(base: Duration, attempt: u32, backend: &Backend) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(8));
    let nanos = exp.as_nanos().min(u64::MAX as u128) as u64;
    let half = nanos / 2;
    Duration::from_nanos(half + backend.next_jitter() % (half + 1))
}

/// Resolve one shard: up to `retries + 1` attempts, each given an equal
/// split of the remaining budget (the final attempt inherits whatever is
/// left), with backoff between attempts and an optional hedge inside
/// each.
fn fetch_shard<'s, T: Send + 's>(
    scope: &'s std::thread::Scope<'s, '_>,
    config: &ProxyConfig,
    backend: &'s Arc<Backend>,
    path: &'s str,
    body: &'s [u8],
    deadline: Instant,
    parse: &(dyn Fn(&[u8]) -> Option<T> + Sync),
) -> ShardOutcome<T> {
    let attempts = config.retries + 1;
    for attempt in 0..attempts {
        if attempt > 0 {
            let delay = backoff_delay(config.backoff_base, attempt, backend);
            if Instant::now() + delay >= deadline {
                return ShardOutcome::Failed;
            }
            std::thread::sleep(delay);
            backend.retries_total.fetch_add(1, Ordering::Relaxed);
        }
        if !backend.breaker.allows() {
            return ShardOutcome::Failed;
        }
        let now = Instant::now();
        let Some(remaining) = deadline.checked_duration_since(now) else {
            return ShardOutcome::Failed;
        };
        let attempt_deadline = now + remaining / (attempts - attempt);
        let started = Instant::now();
        match attempt_once(scope, config, backend, path, body, attempt_deadline) {
            Some(response) if (400..500).contains(&response.status) => {
                // The backend parsed and rejected the request: transport
                // is fine, and a retry would be rejected identically.
                backend.breaker.record_success();
                return ShardOutcome::ClientError(response);
            }
            Some(response) if response.status == 200 => {
                if let Some(parsed) = parse(&response.body) {
                    backend.latency.observe(started.elapsed().as_nanos() as u64);
                    backend.breaker.record_success();
                    return ShardOutcome::Ok(parsed);
                }
                // 200 wrapping garbage is as much a backend failure as a
                // torn connection; count it and retry.
                backend.failures_total.fetch_add(1, Ordering::Relaxed);
                backend.breaker.record_failure();
            }
            Some(_) | None => {
                backend.failures_total.fetch_add(1, Ordering::Relaxed);
                backend.breaker.record_failure();
            }
        }
    }
    ShardOutcome::Failed
}

/// The hedge delay for one attempt, clamped into `[1ms, remaining/2]`
/// (hedging inside the last half of the budget would race a request that
/// cannot finish anyway).
fn hedge_delay(config: &ProxyConfig, backend: &Backend, deadline: Instant) -> Option<Duration> {
    let remaining = deadline.checked_duration_since(Instant::now())?;
    let floor = Duration::from_millis(1);
    let cap = (remaining / 2).max(floor);
    match config.hedge {
        HedgePolicy::Off => None,
        HedgePolicy::Fixed(d) => Some(d.clamp(floor, cap)),
        HedgePolicy::Auto => {
            if backend.latency.count() < HEDGE_MIN_SAMPLES {
                return None;
            }
            Some(Duration::from_nanos(backend.latency.percentile(0.99)).clamp(floor, cap))
        }
    }
}

/// One attempt against one backend, optionally racing a hedged twin: the
/// primary request starts immediately; if no answer arrives within the
/// hedge delay, an identical request is launched and the first successful
/// response of the two wins.
fn attempt_once<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    config: &ProxyConfig,
    backend: &'s Arc<Backend>,
    path: &'s str,
    body: &'s [u8],
    deadline: Instant,
) -> Option<ClientResponse> {
    let (tx, rx) = mpsc::channel::<(bool, Option<ClientResponse>)>();
    let primary_tx = tx.clone();
    let primary = Arc::clone(backend);
    scope.spawn(move || {
        let result = primary.pool.request("POST", path, body, deadline).ok();
        let _ = primary_tx.send((false, result));
    });

    let harvest = |rx: &mpsc::Receiver<(bool, Option<ClientResponse>)>, outstanding: u32| {
        let mut left = outstanding;
        while left > 0 {
            let wait = deadline.saturating_duration_since(Instant::now()) + HARVEST_GRACE;
            match rx.recv_timeout(wait) {
                Ok((is_hedge, Some(response))) => {
                    if is_hedge {
                        backend.hedges_won_total.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(response);
                }
                Ok((_, None)) => left -= 1,
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    return None
                }
            }
        }
        None
    };

    let Some(delay) = hedge_delay(config, backend, deadline) else {
        return harvest(&rx, 1);
    };
    match rx.recv_timeout(delay) {
        Ok((_, result)) => result,
        Err(RecvTimeoutError::Disconnected) => None,
        Err(RecvTimeoutError::Timeout) => {
            backend.hedges_total.fetch_add(1, Ordering::Relaxed);
            let hedge = Arc::clone(backend);
            scope.spawn(move || {
                let result = hedge.pool.request("POST", path, body, deadline).ok();
                let _ = tx.send((true, result));
            });
            harvest(&rx, 2)
        }
    }
}

/// One entry of a backend's partial ranking, carrying everything needed
/// to re-render the monolithic body byte-for-byte (scores round-trip
/// exactly through [`Json::Num`]).
struct PartialEntry {
    index: usize,
    database: String,
    category: String,
    score: f64,
    shrinkage_used: bool,
}

fn parse_partial_entries(ranking: &[Json]) -> Option<Vec<PartialEntry>> {
    ranking
        .iter()
        .map(|entry| {
            Some(PartialEntry {
                index: entry.get("index")?.as_u64()? as usize,
                database: entry.get("database")?.as_str()?.to_string(),
                category: entry.get("category")?.as_str()?.to_string(),
                score: entry.get("score")?.as_f64()?,
                shrinkage_used: match entry.get("shrinkage_used")? {
                    Json::Bool(b) => *b,
                    _ => return None,
                },
            })
        })
        .collect()
}

/// A backend's `/route` partial response, parsed.
struct RouteReply {
    generation: u64,
    unknown: Json,
    entries: Vec<PartialEntry>,
}

fn parse_route_reply(bytes: &[u8]) -> Option<RouteReply> {
    let json = Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
    Some(RouteReply {
        generation: json.get("generation")?.as_u64()?,
        unknown: json.get("unknown")?.clone(),
        entries: parse_partial_entries(json.get("ranking")?.as_array()?)?,
    })
}

/// One query's partial result from a backend: its `unknown` words and
/// the shard's scored entries.
type QueryPartial = (Json, Vec<PartialEntry>);

/// A backend's `/route_batch` partial response, parsed: one
/// `(unknown, entries)` per query.
struct BatchReply {
    generation: u64,
    results: Vec<QueryPartial>,
}

fn parse_batch_reply(bytes: &[u8]) -> Option<BatchReply> {
    let json = Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
    let results = json
        .get("results")?
        .as_array()?
        .iter()
        .map(|r| {
            Some((
                r.get("unknown")?.clone(),
                parse_partial_entries(r.get("ranking")?.as_array()?)?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(BatchReply {
        generation: json.get("generation")?.as_u64()?,
        results,
    })
}

/// Forward a backend's 4xx verbatim.
fn forward(response: ClientResponse) -> Response {
    Response::json(
        response.status,
        String::from_utf8_lossy(&response.body).into_owned(),
    )
}

/// All shards down: the one case the proxy answers 5xx.
fn all_shards_down(shared: &Shared) -> Response {
    Response::error(503, "all shards unavailable")
        .with_header("Retry-After", retry_after_value(&shared.config))
}

/// The per-shard bodies of a validated client body: the body with
/// `"shard": i, "shards": shards` appended for backend `i`.
fn shard_bodies(body: &Json, shards: usize) -> Vec<Vec<u8>> {
    (0..shards)
        .map(|i| {
            let Json::Obj(fields) = body else {
                unreachable!("validated as an object before scatter");
            };
            let mut fields = fields.clone();
            fields.push(("shard".to_string(), Json::Num(i as f64)));
            fields.push(("shards".to_string(), Json::Num(shards as f64)));
            Json::Obj(fields).render().into_bytes()
        })
        .collect()
}

/// Merge per-shard partial rankings and render the monolithic `ranking`
/// array (rank re-numbered 1-based, truncated to `k`).
fn merged_ranking_json(shards: &[Option<Vec<PartialEntry>>], k: usize) -> (Json, Vec<usize>) {
    let rankings: Vec<Option<Vec<RankedDatabase>>> = shards
        .iter()
        .map(|shard| {
            shard.as_ref().map(|entries| {
                entries
                    .iter()
                    .map(|e| RankedDatabase {
                        index: e.index,
                        score: e.score,
                    })
                    .collect()
            })
        })
        .collect();
    let merged = merge_partial_rankings(&rankings);
    let mut by_index: std::collections::HashMap<usize, &PartialEntry> =
        std::collections::HashMap::new();
    for entry in shards.iter().flatten().flatten() {
        by_index.insert(entry.index, entry);
    }
    let ranking = Json::Arr(
        merged
            .ranking
            .iter()
            .take(k)
            .enumerate()
            .map(|(rank, r)| {
                let entry = by_index[&r.index];
                Json::obj(vec![
                    ("rank".to_string(), Json::Num((rank + 1) as f64)),
                    ("database".to_string(), Json::Str(entry.database.clone())),
                    ("category".to_string(), Json::Str(entry.category.clone())),
                    ("score".to_string(), Json::Num(entry.score)),
                    (
                        "shrinkage_used".to_string(),
                        Json::Bool(entry.shrinkage_used),
                    ),
                ])
            })
            .collect(),
    );
    (ranking, merged.missing)
}

/// Append the degradation markers to a response object's fields. They go
/// *after* the monolithic fields so a healthy proxy body stays
/// byte-identical to the monolithic daemon's.
fn push_degradation(fields: &mut Vec<(String, Json)>, missing: &[usize]) {
    fields.push(("degraded".to_string(), Json::Bool(true)));
    fields.push((
        "missing_shards".to_string(),
        Json::Arr(missing.iter().map(|&i| Json::Num(i as f64)).collect()),
    ));
}

fn handle_route(
    shared: &Shared,
    proxy: &ProxyTier,
    request: &Request,
    deadline: Instant,
) -> Response {
    let body = match crate::parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    if !matches!(body, Json::Obj(_)) {
        return Response::error(400, "body must be a JSON object");
    }
    if body.get("shard").is_some() || body.get("shards").is_some() {
        return Response::error(400, RESERVED_SHARD);
    }
    // Validate routing params up front: a malformed request earns its
    // 400 here, without burning a scatter.
    let params = match crate::parse_route_params(&body) {
        Ok(params) => params,
        Err(response) => return response,
    };
    if body.get("query").is_none() {
        return Response::error(400, "missing `query`");
    }

    let bodies = shard_bodies(&body, proxy.backends.len());
    let outcomes = scatter(proxy, "/route", &bodies, deadline, &parse_route_reply);

    let mut generation = 0u64;
    let mut unknown: Option<Json> = None;
    let mut shards: Vec<Option<Vec<PartialEntry>>> = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            ShardOutcome::ClientError(response) => return forward(response),
            ShardOutcome::Ok(reply) => {
                generation = generation.max(reply.generation);
                if unknown.is_none() {
                    unknown = Some(reply.unknown);
                }
                shards.push(Some(reply.entries));
            }
            ShardOutcome::Failed => shards.push(None),
        }
    }
    let Some(unknown) = unknown else {
        return all_shards_down(shared);
    };

    let (ranking, missing) = merged_ranking_json(&shards, params.k);
    let mut fields = vec![
        ("generation".to_string(), Json::Num(generation as f64)),
        ("unknown".to_string(), unknown),
        ("ranking".to_string(), ranking),
    ];
    if !missing.is_empty() {
        proxy.degraded_total.fetch_add(1, Ordering::Relaxed);
        push_degradation(&mut fields, &missing);
    }
    Response::json(200, Json::obj(fields).render())
}

fn handle_route_batch(
    shared: &Shared,
    proxy: &ProxyTier,
    request: &Request,
    deadline: Instant,
) -> Response {
    let body = match crate::parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    if !matches!(body, Json::Obj(_)) {
        return Response::error(400, "body must be a JSON object");
    }
    if body.get("shard").is_some() || body.get("shards").is_some() {
        return Response::error(400, RESERVED_SHARD);
    }
    let params = match crate::parse_route_params(&body) {
        Ok(params) => params,
        Err(response) => return response,
    };
    let Some(queries) = body.get("queries").and_then(Json::as_array) else {
        return Response::error(400, "missing `queries` array");
    };
    if queries.len() > crate::MAX_BATCH {
        return Response::error(413, &format!("batch exceeds {} queries", crate::MAX_BATCH));
    }
    let query_count = queries.len();

    let bodies = shard_bodies(&body, proxy.backends.len());
    let outcomes = scatter(proxy, "/route_batch", &bodies, deadline, &parse_batch_reply);

    let mut generation = 0u64;
    // Per shard, per query: the shard's partial entries (a shard whose
    // result count disagrees with the request is as broken as a missing
    // one).
    let mut shards: Vec<Option<Vec<QueryPartial>>> = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            ShardOutcome::ClientError(response) => return forward(response),
            ShardOutcome::Ok(reply) if reply.results.len() == query_count => {
                generation = generation.max(reply.generation);
                shards.push(Some(reply.results));
            }
            ShardOutcome::Ok(_) | ShardOutcome::Failed => shards.push(None),
        }
    }
    if shards.iter().all(Option::is_none) {
        return all_shards_down(shared);
    }

    let mut missing_overall: Vec<usize> = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        if shard.is_none() {
            missing_overall.push(i);
        }
    }
    let results = Json::Arr(
        (0..query_count)
            .map(|qi| {
                let per_query: Vec<Option<Vec<PartialEntry>>> = shards
                    .iter_mut()
                    .map(|shard| {
                        shard
                            .as_mut()
                            .map(|results| std::mem::take(&mut results[qi].1))
                    })
                    .collect();
                let unknown = shards
                    .iter()
                    .flatten()
                    .map(|results| results[qi].0.clone())
                    .next()
                    .unwrap_or(Json::Arr(Vec::new()));
                let (ranking, _) = merged_ranking_json(&per_query, params.k);
                Json::obj(vec![
                    ("unknown".to_string(), unknown),
                    ("ranking".to_string(), ranking),
                ])
            })
            .collect(),
    );
    let mut fields = vec![
        ("generation".to_string(), Json::Num(generation as f64)),
        ("results".to_string(), results),
    ];
    if !missing_overall.is_empty() {
        proxy.degraded_total.fetch_add(1, Ordering::Relaxed);
        push_degradation(&mut fields, &missing_overall);
    }
    Response::json(200, Json::obj(fields).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_breaker() -> Breaker {
        Breaker::new(3, Duration::from_millis(50))
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_via_half_open() {
        let b = test_breaker();
        assert!(b.allows());
        b.record_failure();
        b.record_failure();
        assert!(b.allows(), "below threshold stays closed");
        b.record_failure();
        assert!(!b.allows(), "threshold trips the breaker");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens_total.load(Ordering::Relaxed), 1);

        // Before the cooldown, a tick must not move to half-open.
        b.begin_tick();
        assert_eq!(b.state(), BreakerState::Open);

        std::thread::sleep(Duration::from_millis(60));
        b.begin_tick();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allows(), "half-open admits probes, not requests");
        b.on_probe(true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows());
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let b = test_breaker();
        for _ in 0..3 {
            b.record_failure();
        }
        std::thread::sleep(Duration::from_millis(60));
        b.begin_tick();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_probe(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens_total.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = test_breaker();
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert!(b.allows(), "streak was reset; 2 < 3 failures since");
    }

    #[test]
    fn closed_breaker_counts_probe_failures_too() {
        let b = test_breaker();
        b.on_probe(false);
        b.on_probe(false);
        b.on_probe(false);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let config = ProxyConfig::default();
        let backend = Backend::new("127.0.0.1:1".to_string(), &config, 7);
        for attempt in 1..=4u32 {
            let base = Duration::from_millis(10);
            let exp = base * (1 << (attempt - 1));
            for _ in 0..32 {
                let d = backoff_delay(base, attempt, &backend);
                assert!(d >= exp / 2 && d <= exp, "attempt {attempt}: {d:?}");
            }
        }
    }

    #[test]
    fn merged_ranking_reports_missing_and_renumbers() {
        let entry = |index: usize, score: f64| PartialEntry {
            index,
            database: format!("db{index}"),
            category: "Root".to_string(),
            score,
            shrinkage_used: false,
        };
        let shards = vec![
            Some(vec![entry(0, 3.0), entry(2, 1.0)]),
            None,
            Some(vec![entry(1, 2.0)]),
        ];
        let (ranking, missing) = merged_ranking_json(&shards, usize::MAX);
        assert_eq!(missing, vec![1]);
        let Json::Arr(items) = ranking else {
            panic!("ranking must be an array")
        };
        let names: Vec<&str> = items
            .iter()
            .map(|i| i.get("database").and_then(Json::as_str).expect("database"))
            .collect();
        assert_eq!(names, vec!["db0", "db1", "db2"]);
        let ranks: Vec<u64> = items
            .iter()
            .map(|i| i.get("rank").and_then(Json::as_u64).expect("rank"))
            .collect();
        assert_eq!(ranks, vec![1, 2, 3]);
    }

    #[test]
    fn shard_bodies_append_the_shard_field() {
        let body = Json::parse(r#"{"query":"heart","algo":"cori"}"#).expect("parse");
        let bodies = shard_bodies(&body, 2);
        assert_eq!(bodies.len(), 2);
        for (i, bytes) in bodies.iter().enumerate() {
            let json = Json::parse(std::str::from_utf8(bytes).expect("utf8")).expect("json");
            assert_eq!(json.get("shard").and_then(Json::as_u64), Some(i as u64));
            assert_eq!(json.get("shards").and_then(Json::as_u64), Some(2));
            assert_eq!(json.get("query").and_then(Json::as_str), Some("heart"));
        }
    }
}
