//! `dbselectd` — a networked metasearch daemon.
//!
//! A std-only TCP server with a hand-rolled HTTP/1.1 layer ([`http`])
//! serving database-selection requests against a loaded serving snapshot
//! ([`state::ServingState`]). `POST /route` — the request every query of
//! the paper's metasearcher makes — runs to completion on the thread that
//! read it; everything else is handed to a worker pool:
//!
//! - **Reactors** ([`reactor`]): `workers` readiness loops ([`poller`]:
//!   epoll on Linux, `poll(2)` elsewhere), each registered on its own
//!   clone of the nonblocking listener. Whichever reactor accepts a
//!   connection places it on the reactor holding the fewest (itself on a
//!   tie), so keep-alive connections, which stay on their reactor for
//!   life, spread evenly over all of them. A reactor owns its connections'
//!   state machines (reading → writing → idle / draining, with executing
//!   in between for pool requests), parses requests incrementally
//!   ([`http::try_parse`]), resumes writes on `EAGAIN`, and enforces every
//!   deadline — request, idle, write grace, linger — through a coarse
//!   [`timer::TimerWheel`] holding about one live entry per slab slot,
//!   instead of per-syscall OS timeouts. Thousands of idle keep-alive
//!   connections cost one fd and about a kilobyte of read buffer each; no
//!   thread is pinned by an open socket.
//! - **Inline `/route`**: a complete `/route` (bare or `/t/<tenant>/`) is
//!   executed by the reactor that parsed it — dispatch, metrics,
//!   serialization — and its response written at once, with no queue, no
//!   wakeup and no hand-off. Pipelined requests are served in a loop, one
//!   read's worth per readiness event. The tenant quota bounds how many
//!   run at once.
//! - **Workers** execute everything else (`/route_batch`, probes,
//!   `/metrics`, admin, the whole proxy tier): the reactor offers the
//!   request to a [`queue::BoundedQueue`] (a full queue is answered with
//!   `503` and `Retry-After` — admission control at the parse boundary),
//!   a worker runs it and posts the response to its reactor's
//!   [`queue::CompletionQueue`], ringing that reactor's wakeup pipe.
//! - Routing endpoints resolve the current [`state::ServingState`] and
//!   its generation as one pair under one `RwLock`. `/admin/reload`
//!   builds the *next* state off to the side and swaps the pair, so
//!   in-flight requests finish against — and label their response with —
//!   the generation they started with, and a reload never fails a request.
//!
//! A handler panic, inline or pooled, is caught per request, counted in
//! `dbselectd_worker_panics_total`, aborts only that connection, and never
//! loses a thread.
//!
//! Rankings served over HTTP are bit-identical to
//! `broker::SelectionEngine::route`, and scores are serialized with
//! shortest-roundtrip `f64` formatting ([`json`]): routing responses are
//! written straight into the body (`write_ranking`), never through a
//! [`json::Json`] tree. The engines decide by the closed-form uncertainty
//! test and draw no random numbers, so the `seed` and `index` request
//! fields are validated and otherwise ignored.

pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod poller;
pub mod proxy;
pub mod queue;
pub mod reactor;
pub mod state;
pub mod timer;

pub use proxy::{HedgePolicy, ProxyConfig};

use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use sampling::scheduler::fan_out_chunks;
use selection::ShrinkageMode;

use crate::http::{serialize_response, Limits, Request, Response};
use crate::json::Json;
use crate::metrics::{Metrics, TenantMetrics};
use crate::poller::Wakeup;
use crate::queue::{BoundedQueue, CompletionQueue};
use crate::state::{parse_shrinkage, Algo, ServingState};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7700` (port 0 picks a free port).
    pub addr: String,
    /// Reactor threads, and as many pool threads. Each reactor runs the
    /// `/route`s of the connections placed on it (the fewest-loaded
    /// reactor takes each new one), so up to this many `/route`s are
    /// computed at once when the connections spread over them; the pool
    /// runs every other request.
    pub workers: usize,
    /// Pool admission-queue capacity: a pool request arriving while it is
    /// full gets `503`. `/route` never queues (it runs on its reactor);
    /// the tenant quota is what bounds it.
    pub queue_capacity: usize,
    /// Per-request deadline: measured from accept for a connection's
    /// first request, re-stamped when a later request's first byte
    /// arrives on a kept-alive connection.
    pub deadline: Duration,
    /// Maximum requests served per connection before it is closed
    /// (`Connection: close` on the final response; minimum 1).
    pub keep_alive_requests: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// before the daemon closes it.
    pub idle_timeout: Duration,
    /// Inert: it bounded the posterior cache that [`broker::MomentTable`]
    /// replaced, and stays only until the benchmark harness stops reading it.
    pub cache_capacity: usize,
    /// Honor the `X-Debug-Sleep-Ms` request header (tests and load
    /// generators only — lets a client hold a worker deterministically).
    pub debug_sleep: bool,
    /// Per-tenant admission quota: maximum in-flight routing requests per
    /// tenant before the daemon answers `503` + `Retry-After` (0 =
    /// unlimited). One hot tenant occupying the reactors or the pool cannot
    /// take quota from the others.
    pub tenant_quota: usize,
    /// The `Retry-After` hint on every 503 this daemon originates
    /// (admission rejections, quota rejections, proxy all-shards-down).
    /// Serialized in whole seconds, rounded up, minimum 1.
    pub retry_after: Duration,
    /// Federated proxy mode: scatter-gather over these remote shard
    /// backends instead of serving a local catalog
    /// ([`Server::bind_proxy`]).
    pub proxy: Option<ProxyConfig>,
    /// Background refresh polling: every interval, re-scan each tenant
    /// whose source is a delta-chain directory and hot-swap in any new
    /// chain tip through the same guarded reload path `/admin/reload`
    /// uses. `None` (the default) disables the refresher thread.
    pub refresh_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            deadline: Duration::from_secs(10),
            keep_alive_requests: 100,
            idle_timeout: Duration::from_secs(5),
            cache_capacity: 0,
            debug_sleep: false,
            tenant_quota: 0,
            retry_after: Duration::from_secs(1),
            proxy: None,
            refresh_interval: None,
        }
    }
}

/// Maximum queries accepted in one `/route_batch` request.
pub(crate) const MAX_BATCH: usize = 10_000;

/// Maximum words accepted in one query, as sent (before analysis drops
/// and deduplicates any). Analysis and planning are linear in it and run
/// on a reactor or worker between deadline checks; no query the paper's
/// test beds pose comes within two orders of magnitude.
pub(crate) const MAX_QUERY_WORDS: usize = 1024;

/// The configured `Retry-After` value as a header string: whole seconds,
/// rounded up, never below 1 (a `Retry-After: 0` invites an immediate
/// retry storm).
pub(crate) fn retry_after_value(config: &ServerConfig) -> String {
    config
        .retry_after
        .as_millis()
        .div_ceil(1000)
        .max(1)
        .to_string()
}

/// Floor on the write budget for a response reporting a deadline or
/// parse error after the request deadline already passed — without it the
/// `504`/`408` body could never be flushed.
const ERROR_WRITE_GRACE: Duration = Duration::from_secs(2);

/// Bounds on the lingering close's drain phase (`reactor`'s `Draining`).
const LINGER_DRAIN: Duration = Duration::from_millis(500);
const LINGER_DRAIN_MAX: usize = 64 * 1024;

/// One parsed request handed from a reactor to the worker pool.
pub(crate) struct Task {
    /// Index of the reactor owning the connection (its [`Mailbox`]).
    pub(crate) reactor: usize,
    /// The owning connection's reactor token (slot | generation).
    pub(crate) token: u64,
    pub(crate) request: Request,
    /// Absolute deadline stamped by the reactor when the request's first
    /// byte arrived (or at accept for a connection's first request).
    pub(crate) deadline: Instant,
    /// The reactor already knows this response must close the connection
    /// (keep-alive request cap reached) regardless of what the client
    /// asked for.
    pub(crate) force_close: bool,
}

/// A worker's answer, routed back to the connection by token.
pub(crate) struct Completion {
    pub(crate) token: u64,
    /// What [`execute_caught`] returned: the fully serialized response and
    /// whether to close after flushing it (mirroring its `Connection`
    /// header), or `None` when the handler panicked — the connection is
    /// dropped without a response.
    pub(crate) reply: Option<(Vec<u8>, bool)>,
}

/// How other threads reach one reactor: the pool's finished responses,
/// connections another reactor accepted and placed here, and the doorbell
/// that pops the reactor out of its wait to collect them.
pub(crate) struct Mailbox {
    pub(crate) completions: CompletionQueue<Completion>,
    pub(crate) incoming: CompletionQueue<TcpStream>,
    pub(crate) wakeup: Wakeup,
}

/// One named catalog hosted by the daemon: its own serving state,
/// generation chain, in-flight gauge, and label-isolated metrics.
///
/// Reloads swap only this tenant's `Arc` — in-flight requests on *any*
/// tenant keep the state they resolved, so reloading tenant A can never
/// fail a request on tenant B (or on A itself). The metrics live here
/// rather than in [`ServingState`] so they survive the tenant's reloads.
pub(crate) struct Tenant {
    pub(crate) name: String,
    /// The serving state and its generation (1 at boot, +1 per swap), one
    /// pair under one lock: a reader can never see a state with another
    /// generation's number.
    state: RwLock<(Arc<ServingState>, u64)>,
    /// Routing requests currently executing against this tenant
    /// (admission quota gauge).
    pub(crate) in_flight: AtomicU64,
    pub(crate) metrics: TenantMetrics,
}

impl Tenant {
    fn new(name: String, state: ServingState) -> Tenant {
        Tenant {
            name,
            state: RwLock::new((Arc::new(state), 1)),
            in_flight: AtomicU64::new(0),
            metrics: TenantMetrics::default(),
        }
    }

    /// The serving state and the generation it was installed as.
    pub(crate) fn current(&self) -> (Arc<ServingState>, u64) {
        let slot = self.state.read().expect("tenant state lock poisoned");
        (Arc::clone(&slot.0), slot.1)
    }
}

/// RAII decrement of a tenant's in-flight gauge: the count drops on every
/// exit path, including a handler panic (the unwind runs this drop before
/// the worker's `catch_unwind` sees it).
struct InFlightGuard<'a>(&'a Tenant);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Admit one routing request against `tenant`, or answer `503` +
/// `Retry-After` when its quota is exhausted.
fn admit<'a>(shared: &Shared, tenant: &'a Tenant) -> Result<InFlightGuard<'a>, Response> {
    let quota = shared.config.tenant_quota;
    let previous = tenant.in_flight.fetch_add(1, Ordering::SeqCst);
    if quota > 0 && previous as usize >= quota {
        tenant.in_flight.fetch_sub(1, Ordering::SeqCst);
        tenant
            .metrics
            .quota_rejected_total
            .fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .rejected_total
            .fetch_add(1, Ordering::Relaxed);
        return Err(
            Response::error(503, &format!("tenant `{}` quota exhausted", tenant.name))
                .with_header("Retry-After", retry_after_value(&shared.config)),
        );
    }
    Ok(InFlightGuard(tenant))
}

/// State shared between the reactors and the workers.
pub(crate) struct Shared {
    /// Hosted tenants, ascending by name (binary-searchable).
    pub(crate) tenants: Vec<Arc<Tenant>>,
    /// Index of the tenant bare paths (`/route`, …) alias: the tenant
    /// named `default` when present, else the first.
    pub(crate) default_tenant: usize,
    pub(crate) metrics: Metrics,
    /// Parsed pool requests awaiting execution.
    pub(crate) tasks: BoundedQueue<Task>,
    /// One per reactor, indexed by [`Task::reactor`].
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) stop: AtomicBool,
    pub(crate) config: ServerConfig,
    pub(crate) limits: Limits,
    pub(crate) addr: SocketAddr,
    /// The federated proxy tier; `Some` iff this daemon was bound with
    /// [`Server::bind_proxy`] (in which case `tenants` is empty and
    /// every request is dispatched by [`proxy::dispatch`]).
    pub(crate) proxy: Option<proxy::ProxyTier>,
}

impl Shared {
    /// The default tenant (what the bare, pre-multi-tenant paths serve).
    pub(crate) fn default_tenant(&self) -> &Tenant {
        &self.tenants[self.default_tenant]
    }

    /// Look up a tenant by name.
    pub(crate) fn tenant(&self, name: &str) -> Option<&Arc<Tenant>> {
        self.tenants
            .binary_search_by(|t| t.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.tenants[i])
    }

    /// Set the stop flag and ring every reactor, so that none sleeps
    /// through the shutdown in a wait with no timer armed.
    pub(crate) fn halt(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for mailbox in &self.mailboxes {
            mailbox.wakeup.notify();
        }
    }

    /// Whether `request` runs to completion on the reactor that parsed it:
    /// a catalog `POST /route` or `POST /t/<tenant>/route`. The pool takes
    /// the rest — and a `/route` carrying `X-Debug-Sleep-Ms`, whose point is
    /// to hold a pool thread.
    pub(crate) fn runs_inline(&self, request: &Request) -> bool {
        if self.proxy.is_some() || request.method != "POST" {
            return false;
        }
        let path = request.path();
        let route = path == "/route"
            || path
                .strip_prefix("/t/")
                .and_then(|rest| rest.split_once('/'))
                .is_some_and(|(_, sub)| sub == "route");
        route && !(self.config.debug_sleep && request.header("x-debug-sleep-ms").is_some())
    }
}

/// The bound-but-not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener and freeze the initial serving state as the
    /// single tenant `default` (served on the bare paths and on
    /// `/t/default/...` alike).
    pub fn bind(config: ServerConfig, state: ServingState) -> io::Result<Server> {
        Server::bind_tenants(config, vec![("default".to_string(), state)])
    }

    /// Bind the listener hosting one named tenant per entry. Bare paths
    /// (`/route`, `/route_batch`, `/admin/reload`) alias the tenant named
    /// `default` when present, else the first tenant in name order;
    /// every tenant is addressable at `/t/<name>/...`.
    pub fn bind_tenants(
        config: ServerConfig,
        states: Vec<(String, ServingState)>,
    ) -> io::Result<Server> {
        if states.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "at least one tenant is required",
            ));
        }
        Server::bind_with(config, states, None)
    }

    /// Bind the federated proxy tier: no local catalog, every routing
    /// request scatter-gathered over `config.proxy`'s backends
    /// ([`proxy`]). The health checker starts with [`run`](Self::run).
    pub fn bind_proxy(config: ServerConfig) -> io::Result<Server> {
        let invalid = |detail: &str| io::Error::new(io::ErrorKind::InvalidInput, detail);
        let proxy_config = config
            .proxy
            .clone()
            .ok_or_else(|| invalid("bind_proxy requires `config.proxy`"))?;
        if proxy_config.backends.is_empty() {
            return Err(invalid("proxy mode requires at least one backend"));
        }
        Server::bind_with(
            config,
            Vec::new(),
            Some(proxy::ProxyTier::new(proxy_config)),
        )
    }

    fn bind_with(
        config: ServerConfig,
        states: Vec<(String, ServingState)>,
        proxy: Option<proxy::ProxyTier>,
    ) -> io::Result<Server> {
        let invalid = |detail: String| io::Error::new(io::ErrorKind::InvalidInput, detail);
        let mut tenants: Vec<Arc<Tenant>> = states
            .into_iter()
            .map(|(name, state)| {
                store::manifest::validate_tenant_name(&name).map_err(invalid)?;
                Ok(Arc::new(Tenant::new(name, state)))
            })
            .collect::<io::Result<_>>()?;
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        if let Some(w) = tenants.windows(2).find(|w| w[0].name == w[1].name) {
            return Err(invalid(format!("duplicate tenant `{}`", w[0].name)));
        }
        let default_tenant = tenants
            .iter()
            .position(|t| t.name == "default")
            .unwrap_or(0);

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let tasks = BoundedQueue::new(config.queue_capacity);
        let reactors = config.workers.max(1);
        let mailboxes = (0..reactors)
            .map(|_| {
                Ok(Mailbox {
                    completions: CompletionQueue::new(),
                    incoming: CompletionQueue::new(),
                    wakeup: Wakeup::new()?,
                })
            })
            .collect::<io::Result<_>>()?;
        let shared = Arc::new(Shared {
            tenants,
            default_tenant,
            metrics: Metrics::with_reactors(reactors),
            tasks,
            mailboxes,
            stop: AtomicBool::new(false),
            config,
            limits: Limits::default(),
            addr,
            proxy,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Run the daemon until `/admin/shutdown`: `workers` reactors
    /// ([`reactor::run`], the first on the calling thread), each serving
    /// the connections placed on it and the `/route`s they carry, and a
    /// pool of as many workers for every other request, whose completions
    /// go back through the owning reactor's wakeup pipe. Spawns the
    /// reactors, the pool (and the backend health checker or the
    /// background refresher, when configured) and joins them before
    /// returning, so when `run` returns every admitted request has been
    /// answered.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, shared } = self;
        // Every clone is one more fd on the same listening socket; make
        // them all before any thread starts, so a failure leaves nothing
        // to stop.
        let clones = (1..shared.mailboxes.len())
            .map(|_| listener.try_clone())
            .collect::<io::Result<Vec<_>>>()?;
        let health = shared.proxy.as_ref().map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || proxy::health_loop(&shared))
        });
        // The background refresher only makes sense over local catalogs
        // (a proxy holds no tenants to refresh).
        let refresher = match shared.config.refresh_interval {
            Some(interval) if shared.proxy.is_none() => {
                let shared = Arc::clone(&shared);
                Some(std::thread::spawn(move || refresh_loop(&shared, interval)))
            }
            _ => None,
        };
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                // Belt and braces: `execute_loop` catches panics per task,
                // but if one ever escapes the plumbing, count it and
                // re-enter — the pool never shrinks.
                std::thread::spawn(move || loop {
                    match std::panic::catch_unwind(AssertUnwindSafe(|| execute_loop(&shared))) {
                        Ok(()) => break,
                        Err(_) => {
                            shared
                                .metrics
                                .worker_panics_total
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        // Whichever reactor returns first — the shutdown drain or an
        // error — halts the rest, so no helper thread outlives the
        // listener.
        let reactors: Vec<_> = clones
            .into_iter()
            .enumerate()
            .map(|(at, listener)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let result = reactor::run(listener, &shared, at + 1);
                    shared.halt();
                    result
                })
            })
            .collect();
        let mut result = reactor::run(listener, &shared, 0);
        shared.halt();
        for handle in reactors {
            let joined = handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("reactor thread panicked")));
            result = result.and(joined);
        }

        // A reactor only returns once every connection it owned is closed;
        // any queued task belongs to a connection already dropped, so
        // closing the queue and joining loses no answered request. (A
        // connection placed on a reactor that had already returned was
        // never admitted; it closes when `shared` drops.)
        shared.tasks.close();
        for handle in workers.into_iter().chain(health).chain(refresher) {
            let _ = handle.join();
        }
        result
    }
}

/// The worker loop: execute parsed requests, post serialized responses
/// back to the owning reactor, ring its doorbell. A panicked request's
/// connection gets an abort completion (dropped without a response) and
/// the worker lives on.
fn execute_loop(shared: &Shared) {
    while let Some(task) = shared.tasks.pop() {
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let reply = execute_caught(shared, &task.request, task.deadline, task.force_close);
        let mailbox = &shared.mailboxes[task.reactor];
        mailbox.completions.push(Completion {
            token: task.token,
            reply,
        });
        mailbox.wakeup.notify();
    }
}

/// [`execute`] under `catch_unwind`, for the pool and the reactors alike:
/// `None` when the handler panicked (counted in
/// `dbselectd_worker_panics_total`; what it got through before it panicked
/// is unknown, so the connection is dropped without a response).
pub(crate) fn execute_caught(
    shared: &Shared,
    request: &Request,
    deadline: Instant,
    force_close: bool,
) -> Option<(Vec<u8>, bool)> {
    let run = || execute(shared, request, deadline, force_close);
    let caught = std::panic::catch_unwind(AssertUnwindSafe(run));
    if caught.is_err() {
        shared
            .metrics
            .worker_panics_total
            .fetch_add(1, Ordering::Relaxed);
    }
    caught.ok()
}

/// Execute one parsed request: debug hooks, dispatch, metrics, response
/// serialization, and the keep-alive-vs-close decision — everything
/// between the reactor's parse and its write. `force_close` says the
/// reactor already knows the connection closes after this response
/// (keep-alive request cap reached). Returns the serialized response and
/// whether the connection closes after it.
fn execute(
    shared: &Shared,
    request: &Request,
    deadline: Instant,
    force_close: bool,
) -> (Vec<u8>, bool) {
    if shared.config.debug_sleep {
        if request.header("x-debug-panic").is_some() {
            panic!("panic injected by X-Debug-Panic");
        }
        if let Some(ms) = request
            .header("x-debug-sleep-ms")
            .and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(Duration::from_millis(ms.min(60_000)));
        }
    }

    let started = Instant::now();
    let (endpoint, response) = dispatch(shared, request, deadline);
    let elapsed = started.elapsed().as_nanos() as u64;
    match endpoint {
        "route" => shared.metrics.route_latency.observe(elapsed),
        "route_batch" => shared.metrics.batch_latency.observe(elapsed),
        _ => {}
    }
    shared.metrics.record(endpoint, response.status);

    let shutting_down = endpoint == "shutdown" && response.status == 200;
    if shutting_down {
        shared.halt();
    }
    let close = force_close
        || !request.wants_keep_alive()
        || shutting_down
        || shared.stop.load(Ordering::SeqCst);
    (serialize_response(&response, close), close)
}

/// The `/admin/shutdown` success body, shared between catalog and proxy
/// dispatch (`execute` keys the stop flag off endpoint + status).
pub(crate) fn shutdown_response() -> Response {
    Response::json(
        200,
        Json::obj(vec![(
            "status".to_string(),
            Json::Str("shutting down".to_string()),
        )])
        .render(),
    )
}

fn dispatch(shared: &Shared, request: &Request, deadline: Instant) -> (&'static str, Response) {
    // Proxy mode replaces the catalog API wholesale — it must run before
    // any tenant lookup, because a proxy hosts no tenants at all.
    if shared.proxy.is_some() {
        return proxy::dispatch(shared, request, deadline);
    }
    // `/t/<tenant>/<endpoint>` names a tenant; bare paths alias the
    // default one — the single-catalog API is a special case of the
    // multi-tenant one, not a separate code path. Only the per-catalog
    // endpoints exist under `/t/`; process-wide ones (`/healthz`,
    // `/readyz`, `/metrics`, `/admin/shutdown`) stay at the root.
    let (tenant, path, scoped) = match request.path().strip_prefix("/t/") {
        None => (shared.default_tenant(), request.path(), false),
        Some(rest) => {
            let Some(at) = rest.find('/') else {
                return ("other", Response::error(404, "no such endpoint"));
            };
            let Some(tenant) = shared.tenant(&rest[..at]) else {
                return ("other", Response::error(404, "unknown tenant"));
            };
            (&**tenant, &rest[at..], true)
        }
    };
    match (request.method.as_str(), path, scoped) {
        ("POST", "/route", _) => (
            "route",
            tenant_timed(tenant, "route", || {
                handle_route(shared, tenant, request, deadline)
            }),
        ),
        ("POST", "/route_batch", _) => (
            "route_batch",
            tenant_timed(tenant, "route_batch", || {
                handle_route_batch(shared, tenant, request, deadline)
            }),
        ),
        ("POST", "/admin/reload", _) => ("reload", handle_reload(shared, tenant, request)),
        ("GET", "/healthz", false) => ("healthz", handle_healthz(shared)),
        ("GET", "/readyz", false) => ("readyz", handle_readyz(shared)),
        ("GET", "/metrics", false) => ("metrics", handle_metrics(shared)),
        ("POST", "/admin/shutdown", false) => ("shutdown", shutdown_response()),
        (_, "/route" | "/route_batch" | "/admin/reload", _)
        | (_, "/healthz" | "/readyz" | "/metrics" | "/admin/shutdown", false) => {
            let allow = if scoped { "POST" } else { "GET, POST" };
            let response = Response::error(405, "method not allowed");
            ("other", response.with_header("Allow", allow.into()))
        }
        _ => ("other", Response::error(404, "no such endpoint")),
    }
}

/// Run a routing handler, recording its latency and status in the
/// tenant's label-isolated metrics (global metrics are recorded by the
/// caller as before).
fn tenant_timed(
    tenant: &Tenant,
    endpoint: &'static str,
    handler: impl FnOnce() -> Response,
) -> Response {
    let started = Instant::now();
    let response = handler();
    let elapsed = started.elapsed().as_nanos() as u64;
    match endpoint {
        "route" => tenant.metrics.route_latency.observe(elapsed),
        "route_batch" => tenant.metrics.batch_latency.observe(elapsed),
        _ => {}
    }
    tenant.metrics.record(endpoint, response.status);
    response
}

fn handle_healthz(shared: &Shared) -> Response {
    let (state, generation) = shared.default_tenant().current();
    Response::json(
        200,
        Json::obj(vec![
            ("status".to_string(), Json::Str("ok".to_string())),
            ("generation".to_string(), Json::Num(generation as f64)),
            ("databases".to_string(), Json::Num(state.databases() as f64)),
            ("terms".to_string(), Json::Num(state.terms() as f64)),
            (
                "tenants".to_string(),
                Json::Num(shared.tenants.len() as f64),
            ),
        ])
        .render(),
    )
}

/// Readiness, as distinct from liveness (`/healthz`): are the catalogs
/// loaded and serving? In catalog mode every tenant's first generation is
/// frozen *before* the listener binds, so by the time a probe can reach
/// this endpoint readiness is unconditional — the answer is always 200,
/// and the value is in the body: per-tenant generation plus the snapshot
/// content checksum, which lets an operator (or the proxy's bit-identity
/// check) confirm that two daemons serve the same catalog bytes. The
/// proxy tier overrides this with a genuinely asynchronous answer
/// ([`proxy`]): 503 until its first full healthy backend sweep.
fn handle_readyz(shared: &Shared) -> Response {
    let tenants = Json::Arr(
        shared
            .tenants
            .iter()
            .map(|tenant| {
                let (state, generation) = tenant.current();
                Json::obj(vec![
                    ("tenant".to_string(), Json::Str(tenant.name.clone())),
                    ("generation".to_string(), Json::Num(generation as f64)),
                    (
                        "catalog_generation".to_string(),
                        Json::Num(state.catalog_generation() as f64),
                    ),
                    ("databases".to_string(), Json::Num(state.databases() as f64)),
                    (
                        "snapshot_checksum".to_string(),
                        Json::Str(format!("{:016x}", state.checksum())),
                    ),
                ])
            })
            .collect(),
    );
    Response::json(
        200,
        Json::obj(vec![
            ("ready".to_string(), Json::Bool(true)),
            ("tenants".to_string(), tenants),
        ])
        .render(),
    )
}

fn handle_metrics(shared: &Shared) -> Response {
    let (state, generation) = shared.default_tenant().current();
    let mut body = shared.metrics.render(
        generation,
        state.databases(),
        state.load_seconds(),
        state.snapshot_bytes(),
    );
    // Per-tenant families after the process-wide ones; tenant names are
    // user input (file stems), so their label values are escaped.
    body.push_str(metrics::TENANT_TYPE_HEADERS);
    for tenant in &shared.tenants {
        let (state, generation) = tenant.current();
        body.push_str(&metrics::render_tenant(
            &tenant.name,
            &tenant.metrics,
            generation,
            state.catalog(),
            tenant.in_flight.load(Ordering::SeqCst),
        ));
    }
    Response::text(200, body)
}

/// Common fields of `/route` and `/route_batch` requests (shared with
/// the proxy tier, which validates them before scattering).
pub(crate) struct RouteParams {
    pub(crate) algo: Algo,
    pub(crate) mode: ShrinkageMode,
    pub(crate) k: usize,
}

pub(crate) fn parse_route_params(body: &Json) -> Result<RouteParams, Response> {
    let algo = match body.get("algo").map(|v| (v, v.as_str())) {
        None => Algo::default(),
        Some((_, Some(name))) => Algo::parse(name).map_err(|e| Response::error(400, &e))?,
        Some((_, None)) => return Err(Response::error(400, "`algo` must be a string")),
    };
    let mode = match body.get("shrinkage").map(|v| (v, v.as_str())) {
        None => ShrinkageMode::Adaptive,
        Some((_, Some(name))) => parse_shrinkage(name).map_err(|e| Response::error(400, &e))?,
        Some((_, None)) => return Err(Response::error(400, "`shrinkage` must be a string")),
    };
    // Accepted for compatibility; no engine draws from a seed.
    if body.get("seed").is_some_and(|v| v.as_u64().is_none()) {
        return Err(Response::error(
            400,
            "`seed` must be a non-negative integer",
        ));
    }
    // `k` drives the engines' pruned top-k path, not just response
    // truncation; `k: 0` is rejected rather than silently coerced into
    // "no results" (almost always a client bug).
    let k = match body.get("k") {
        None => usize::MAX,
        Some(v) => match v.as_u64() {
            Some(k) if k >= 1 => k as usize,
            _ => return Err(Response::error(400, "`k` must be a positive integer")),
        },
    };
    Ok(RouteParams { algo, mode, k })
}

/// A query is either a string (split on whitespace) or an array of words,
/// of at most [`MAX_QUERY_WORDS`] words either way.
fn parse_query_words(value: &Json) -> Result<Vec<String>, String> {
    let too_many = || format!("query exceeds {MAX_QUERY_WORDS} words");
    match value {
        Json::Str(line) => {
            // One word past the limit settles it; the rest is never copied.
            let words = line.split_whitespace().take(MAX_QUERY_WORDS + 1);
            let words: Vec<String> = words.map(str::to_string).collect();
            if words.len() > MAX_QUERY_WORDS {
                return Err(too_many());
            }
            Ok(words)
        }
        Json::Arr(items) if items.len() > MAX_QUERY_WORDS => Err(too_many()),
        Json::Arr(items) => items
            .iter()
            .map(|w| {
                w.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "query words must be strings".to_string())
            })
            .collect(),
        _ => Err("`query` must be a string or an array of strings".to_string()),
    }
}

pub(crate) fn parse_body(request: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "body is not UTF-8"))?;
    Json::parse(text).map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))
}

/// How a ranking entry leads: its 1-based `rank`, or — one shard's partial
/// ranking for a proxy ([`Shard`] requests) — the **global** catalog
/// `index`, so the proxy can k-way-merge partial rankings from different
/// backends and re-derive ranks.
#[derive(Clone, Copy)]
pub(crate) enum Lead {
    Rank,
    Index,
}

/// One entry of a served ranking, as [`write_ranking`] writes it (`index`
/// is the global catalog index, written only under [`Lead::Index`]).
pub(crate) struct Entry<'a> {
    pub(crate) index: usize,
    pub(crate) database: &'a str,
    pub(crate) category: &'a str,
    pub(crate) score: f64,
    pub(crate) shrinkage_used: bool,
}

/// The first `k` entries of `outcome`'s ranking over `state`'s catalog.
fn entries<'a>(
    state: &'a ServingState,
    outcome: &'a selection::AdaptiveOutcome,
    k: usize,
) -> impl Iterator<Item = Entry<'a>> {
    outcome.ranking.iter().take(k).map(|r| Entry {
        index: r.index,
        database: state.name(r.index),
        category: state.category_path(r.index),
        score: r.score,
        shrinkage_used: outcome.used_shrinkage[r.index],
    })
}

/// Append `entries` to a response body as a JSON array — the one writer
/// behind `/route`, its shard-partial form, `/route_batch` and the
/// proxy's merged rankings. (A shard-partial ranking is truncated per
/// shard: the global top-k of the merged ranking is contained in the
/// per-shard top-k lists.) Ranks and indices are written as integers,
/// which reads the same as the `f64` rendering of a [`Json`] tree for
/// every value below 2^53.
pub(crate) fn write_ranking<'a>(
    out: &mut String,
    entries: impl IntoIterator<Item = Entry<'a>>,
    lead: Lead,
) {
    out.push('[');
    for (at, entry) in entries.into_iter().enumerate() {
        out.push_str(if at == 0 { "{" } else { ",{" });
        let _ = match lead {
            Lead::Rank => write!(out, "\"rank\":{}", at + 1),
            Lead::Index => write!(out, "\"index\":{}", entry.index),
        };
        out.push_str(",\"database\":");
        json::write_string(out, entry.database);
        out.push_str(",\"category\":");
        json::write_string(out, entry.category);
        out.push_str(",\"score\":");
        json::write_number(out, entry.score);
        out.push_str(if entry.shrinkage_used {
            ",\"shrinkage_used\":true}"
        } else {
            ",\"shrinkage_used\":false}"
        });
    }
    out.push(']');
}

/// Append `"unknown":[..],"ranking":[..]` — the tail every routed query's
/// object ends with.
pub(crate) fn write_routed<'a>(
    out: &mut String,
    unknown: &[String],
    entries: impl IntoIterator<Item = Entry<'a>>,
    lead: Lead,
) {
    out.push_str("\"unknown\":[");
    for (at, word) in unknown.iter().enumerate() {
        if at > 0 {
            out.push(',');
        }
        json::write_string(out, word);
    }
    out.push_str("],\"ranking\":");
    write_ranking(out, entries, lead);
}

/// Append `"results":[{..},..]` — a `/route_batch` body's field — with
/// one [`write_routed`] object per query.
pub(crate) fn write_results<'a, E>(
    out: &mut String,
    queries: impl IntoIterator<Item = (&'a [String], E)>,
    lead: Lead,
) where
    E: IntoIterator<Item = Entry<'a>>,
{
    out.push_str("\"results\":[");
    for (at, (unknown, entries)) in queries.into_iter().enumerate() {
        out.push_str(if at == 0 { "{" } else { ",{" });
        write_routed(out, unknown, entries, lead);
        out.push('}');
    }
    out.push(']');
}

/// The block of the catalog a proxy asks a backend to score: block `shard`
/// of `shards` contiguous blocks ([`broker::contiguous_block`], the cut
/// the benchmark's in-process `broker::ShardPlan` makes too). The proxy
/// sends both numbers with every scattered body, so a daemon needs no
/// shard configuration.
#[derive(Clone, Copy)]
struct Shard {
    shard: usize,
    shards: usize,
}

impl Shard {
    /// Parse the optional `"shard": i, "shards": n` pair (proxy-to-backend
    /// requests only): both or neither, integers, `i < n`.
    fn parse(body: &Json) -> Result<Option<Shard>, Response> {
        let (shard, shards) = match (body.get("shard"), body.get("shards")) {
            (None, None) => return Ok(None),
            (Some(shard), Some(shards)) => (shard.as_u64(), shards.as_u64()),
            _ => return Err(Response::error(400, "`shard` and `shards` go together")),
        };
        let Some(shard) = shard else {
            return Err(Response::error(
                400,
                "`shard` must be a non-negative integer",
            ));
        };
        let shards = match shards {
            Some(n) if n >= 1 => n,
            _ => return Err(Response::error(400, "`shards` must be a positive integer")),
        };
        if shard >= shards {
            let message = format!("`shard` {shard} out of range (`shards` is {shards})");
            return Err(Response::error(400, &message));
        }
        Ok(Some(Shard {
            shard: shard as usize,
            shards: shards as usize,
        }))
    }

    /// The block's member list on `state`'s catalog: never longer than the
    /// catalog, whatever `shards` says.
    fn members(self, state: &ServingState) -> Vec<u32> {
        let block = broker::contiguous_block(state.databases(), self.shard, self.shards);
        block.map(|db| db as u32).collect()
    }
}

/// Open a routing response body: `{"generation":g,` plus, for the answer
/// to a [`Shard`] request, `"shards":n,"shard":s,` — and say how that
/// body's ranking entries lead. Sized for a top-10 ranking, so the common
/// response never regrows its buffer.
pub(crate) fn open_body(generation: u64, shard: Option<Shard>) -> (String, Lead) {
    let mut out = String::with_capacity(2048);
    let _ = write!(out, "{{\"generation\":{generation},");
    let Some(Shard { shard, shards }) = shard else {
        return (out, Lead::Rank);
    };
    let _ = write!(out, "\"shards\":{shards},\"shard\":{shard},");
    (out, Lead::Index)
}

/// Route one query of a request on `state`. `k` reaches the engines'
/// pruned top-k path — truncation is not a serialization detail.
///
/// With `members` (a [`Shard`] request) only those databases are scored,
/// to their local top `k`, but the choose phase and scoring context are
/// computed over the full catalog — merging every shard's partial ranking
/// reconstructs the monolithic ranking bit-for-bit.
fn route_query(
    state: &ServingState,
    params: &RouteParams,
    members: Option<&[u32]>,
    query: &[textindex::TermId],
) -> selection::AdaptiveOutcome {
    let engine = state.engine(params.algo, params.mode);
    engine.route_partition_topk(query, params.k, members)
}

/// Feed an `Adaptive` request's summary choices into the live Table 10.
fn record_choices(shared: &Shared, params: &RouteParams, outcome: &selection::AdaptiveOutcome) {
    if params.mode == ShrinkageMode::Adaptive {
        let algo = params.algo.index();
        shared.metrics.record_choices(algo, &outcome.used_shrinkage);
    }
}

fn handle_route(
    shared: &Shared,
    tenant: &Tenant,
    request: &Request,
    deadline: Instant,
) -> Response {
    let _guard = match admit(shared, tenant) {
        Ok(guard) => guard,
        Err(response) => return response,
    };
    // Post-admission sleep hook (tests only): unlike `X-Debug-Sleep-Ms`,
    // which sends the request to the pool and sleeps before dispatch, this
    // holds the tenant's quota slot — and the reactor running it.
    if shared.config.debug_sleep {
        if let Some(ms) = request
            .header("x-debug-route-sleep-ms")
            .and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(Duration::from_millis(ms.min(60_000)));
        }
    }
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let params = match parse_route_params(&body) {
        Ok(params) => params,
        Err(response) => return response,
    };
    let Some(query_value) = body.get("query") else {
        return Response::error(400, "missing `query`");
    };
    let words = match parse_query_words(query_value) {
        Ok(words) => words,
        Err(e) => return Response::error(400, &e),
    };
    // Accepted for compatibility, like `seed`: no engine reads it.
    if body.get("index").is_some_and(|v| v.as_u64().is_none()) {
        return Response::error(400, "`index` must be a non-negative integer");
    }
    let shard = match Shard::parse(&body) {
        Ok(shard) => shard,
        Err(response) => return response,
    };

    let (state, generation) = tenant.current();
    let (query, unknown) = state.analyze(&words);
    if Instant::now() >= deadline {
        shared.metrics.timeout_total.fetch_add(1, Ordering::Relaxed);
        return Response::error(504, "deadline exceeded");
    }
    let members = shard.map(|s| s.members(&state));
    let outcome = route_query(&state, &params, members.as_deref(), &query);
    record_choices(shared, &params, &outcome);

    let (mut body, lead) = open_body(generation, shard);
    let ranking = entries(&state, &outcome, params.k);
    write_routed(&mut body, &unknown, ranking, lead);
    body.push('}');
    Response::json(200, body)
}

fn handle_route_batch(
    shared: &Shared,
    tenant: &Tenant,
    request: &Request,
    deadline: Instant,
) -> Response {
    let _guard = match admit(shared, tenant) {
        Ok(guard) => guard,
        Err(response) => return response,
    };
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let params = match parse_route_params(&body) {
        Ok(params) => params,
        Err(response) => return response,
    };
    let Some(queries_value) = body.get("queries").and_then(Json::as_array) else {
        return Response::error(400, "missing `queries` array");
    };
    if queries_value.len() > MAX_BATCH {
        return Response::error(413, &format!("batch exceeds {MAX_BATCH} queries"));
    }
    let threads = match body.get("threads") {
        None => shared.config.workers.max(1),
        Some(v) => match v.as_u64() {
            Some(t) if t >= 1 => (t as usize).min(64),
            _ => return Response::error(400, "`threads` must be a positive integer"),
        },
    };
    let shard = match Shard::parse(&body) {
        Ok(shard) => shard,
        Err(response) => return response,
    };

    let (state, generation) = tenant.current();
    let mut analyzed = Vec::with_capacity(queries_value.len());
    for value in queries_value {
        let words = match parse_query_words(value) {
            Ok(words) => words,
            Err(e) => return Response::error(400, &e),
        };
        analyzed.push(state.analyze(&words));
    }
    let queries: Vec<Vec<textindex::TermId>> = analyzed.iter().map(|(q, _)| q.clone()).collect();

    // Chunked fan-out, deadline-checked per query.
    let members = shard.map(|s| s.members(&state));
    let members = members.as_deref();
    let expired = AtomicBool::new(false);
    let outcomes = fan_out_chunks(queries.len(), threads, |qi| {
        if expired.load(Ordering::Relaxed) || Instant::now() >= deadline {
            expired.store(true, Ordering::Relaxed);
            return None;
        }
        Some(route_query(&state, &params, members, &queries[qi]))
    });
    if expired.load(Ordering::Relaxed) {
        shared.metrics.timeout_total.fetch_add(1, Ordering::Relaxed);
        return Response::error(504, "deadline exceeded mid-batch");
    }
    for outcome in outcomes.iter().flatten() {
        record_choices(shared, &params, outcome);
    }

    let (mut body, lead) = open_body(generation, shard);
    let results = outcomes
        .iter()
        .zip(&analyzed)
        .map(|(outcome, (_, unknown))| {
            let outcome = outcome.as_ref().expect("non-expired batch is complete");
            (&unknown[..], entries(&state, outcome, params.k))
        });
    write_results(&mut body, results, lead);
    body.push('}');
    Response::json(200, body)
}

/// Install `next` as `tenant`'s serving state — unless doing so would
/// move the delta-chain generation *backwards*, in which case the current
/// state keeps serving and `Err` carries its chain generation.
///
/// The staleness check, the `Arc` swap, and the serving-generation bump
/// all happen inside one write-lock critical section. Two concurrent
/// installs (overlapping `/admin/reload`s, or a reload racing the
/// background refresher) therefore serialize completely: whichever loses
/// the lock race re-checks against the state the winner installed, so
/// generations observed by readers only ever increase. `force` bypasses
/// the staleness check (re-basing a chain legitimately resets its
/// numbering).
fn install_state(tenant: &Tenant, next: ServingState, force: bool) -> Result<u64, (u64, u64)> {
    let mut slot = tenant.state.write().expect("tenant state lock poisoned");
    let serving = slot.0.catalog_generation();
    if !force && next.catalog_generation() < serving {
        return Err((serving, slot.1));
    }
    *slot = (Arc::new(next), slot.1 + 1);
    Ok(slot.1)
}

fn handle_reload(shared: &Shared, tenant: &Tenant, request: &Request) -> Response {
    let (path, force) = if request.body.is_empty() {
        (None, false)
    } else {
        let body = match parse_body(request) {
            Ok(body) => body,
            Err(response) => return response,
        };
        let path = match body.get("path") {
            None => None,
            Some(v) => match v.as_str() {
                Some(p) => Some(p.to_string()),
                None => return Response::error(400, "`path` must be a string"),
            },
        };
        let force = match body.get("force") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Response::error(400, "`force` must be a boolean"),
        };
        (path, force)
    };
    let path = path.unwrap_or_else(|| tenant.current().0.source().to_string());

    // Build the next generation entirely off to the side; only this
    // tenant's write lock is touched, and only for the Arc swap — routing
    // on every tenant (including this one) never blocks on the load, and
    // a failed load leaves the old generation serving.
    let next = match ServingState::load(&path, shared.config.cache_capacity) {
        Ok(next) => next,
        Err(e) => {
            // The caller named the snapshot; a missing or corrupt one
            // is their error, not ours (the codec reports corruption
            // as `InvalidData`/`UnexpectedEof`). Either way the old
            // generation keeps serving untouched.
            shared
                .metrics
                .catalog_load_failures_total
                .fetch_add(1, Ordering::Relaxed);
            let status = match e.kind() {
                io::ErrorKind::NotFound => 404,
                io::ErrorKind::InvalidData
                | io::ErrorKind::InvalidInput
                | io::ErrorKind::UnexpectedEof => 400,
                _ => 500,
            };
            return Response::error(status, &format!("reload failed: {e}"));
        }
    };
    let databases = next.databases();
    let catalog_generation = next.catalog_generation();
    let generation = match install_state(tenant, next, force) {
        Ok(generation) => generation,
        Err((serving_chain, serving)) => {
            // A newer chain tip was installed while this load ran (or the
            // caller named an older chain on purpose). Refusing the swap
            // keeps generations monotone; the body reports what is
            // actually serving so the caller can re-read and retry.
            return Response::json(
                409,
                Json::obj(vec![
                    (
                        "error".to_string(),
                        Json::Str(format!(
                            "stale catalog: loaded chain generation {catalog_generation} \
                             but generation {serving_chain} is serving"
                        )),
                    ),
                    ("tenant".to_string(), Json::Str(tenant.name.clone())),
                    ("generation".to_string(), Json::Num(serving as f64)),
                    (
                        "catalog_generation".to_string(),
                        Json::Num(serving_chain as f64),
                    ),
                ])
                .render(),
            );
        }
    };
    shared.metrics.reload_total.fetch_add(1, Ordering::Relaxed);
    tenant.metrics.reload_total.fetch_add(1, Ordering::Relaxed);

    Response::json(
        200,
        Json::obj(vec![
            ("tenant".to_string(), Json::Str(tenant.name.clone())),
            ("generation".to_string(), Json::Num(generation as f64)),
            (
                "catalog_generation".to_string(),
                Json::Num(catalog_generation as f64),
            ),
            ("databases".to_string(), Json::Num(databases as f64)),
            ("source".to_string(), Json::Str(path)),
        ])
        .render(),
    )
}

/// The background refresher: every `interval`, poll each tenant whose
/// source is a delta-chain directory; when the chain on disk has grown
/// past the serving generation, load the new tip off to the side and
/// hot-swap it through [`install_state`] — the same guarded, monotone
/// path `/admin/reload` takes, so a refresh swap can never fail an
/// in-flight request or go backwards. A broken chain (mid-write, corrupt
/// delta, replaced base) only increments
/// `dbselectd_catalog_load_failures_total`; the previous generation keeps
/// serving and the next poll retries.
fn refresh_loop(shared: &Shared, interval: Duration) {
    while !shared.stop.load(Ordering::SeqCst) {
        // Sleep in short slices so shutdown is observed promptly even
        // under long intervals.
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let slice = (interval - slept).min(Duration::from_millis(25));
            std::thread::sleep(slice);
            slept += slice;
        }
        for tenant in &shared.tenants {
            let (current, _) = tenant.current();
            let source = current.source().to_string();
            if !std::path::Path::new(&source).is_dir() {
                continue;
            }
            let tip = match store::delta::chain_tip_generation(std::path::Path::new(&source)) {
                Ok(tip) => tip,
                Err(_) => {
                    shared
                        .metrics
                        .catalog_load_failures_total
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            if tip <= current.catalog_generation() {
                continue;
            }
            match ServingState::load(&source, shared.config.cache_capacity) {
                Ok(next) => {
                    // A concurrent admin reload may have installed an even
                    // newer tip; losing that race is not an error.
                    if install_state(tenant, next, false).is_ok() {
                        shared.metrics.reload_total.fetch_add(1, Ordering::Relaxed);
                        tenant.metrics.reload_total.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    shared
                        .metrics
                        .catalog_load_failures_total
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use broker::{Catalog, CatalogEntry};
    use dbselect_core::shrinkage::{shrink, ShrinkageConfig};
    use dbselect_core::summary::ContentSummary;
    use selection::{AdaptiveOutcome, RankedDatabase};
    use store::snapshot::ServingSnapshot;

    use super::*;

    /// Twelve databases whose names and categories need every escape the
    /// JSON writer knows, and some it must pass through untouched.
    fn hostile_state() -> ServingState {
        let labels = [
            ("plain", "Health/Heart"),
            ("quo\"te", "a \"quoted\" path"),
            ("back\\slash", "C:\\dir\\sub"),
            ("line\nbreak\r", "tab\there"),
            ("ctl\u{1}\u{1f}", "\u{0}nul"),
            ("μετα—search", "Ψυχή/数据库"),
            ("emoji 🗄", "🗂/📁"),
            ("", ""),
            ("</script>", "a/b"),
            ("\u{7f}del", "\u{80}c1"),
            ("mixed\"\\\n\u{2}é", "\\\"\\"),
            ("trailing\\", "\"\""),
        ];
        let entries = labels.iter().map(|(name, _)| {
            let unshrunk = ContentSummary::new(100.0, 10, HashMap::new());
            let shrunk = shrink(&unshrunk, &[], &ShrinkageConfig::default());
            CatalogEntry {
                name: name.to_string(),
                unshrunk,
                shrunk,
            }
        });
        let snapshot = ServingSnapshot {
            dict: textindex::TermDict::new(),
            categories: labels.iter().map(|(_, c)| c.to_string()).collect(),
            lm_global: Vec::new(),
            catalog: Catalog::build(entries),
        };
        ServingState::from_snapshot(snapshot, String::new(), 0)
    }

    /// The rendering `write_ranking` replaced — a `Json` tree per entry —
    /// kept as the oracle its bytes are checked against.
    fn ranking_tree(state: &ServingState, outcome: &AdaptiveOutcome, k: usize, lead: Lead) -> Json {
        let entry = |(at, r): (usize, &RankedDatabase)| {
            let lead = match lead {
                Lead::Rank => ("rank".to_string(), Json::Num((at + 1) as f64)),
                Lead::Index => ("index".to_string(), Json::Num(r.index as f64)),
            };
            Json::obj(vec![
                lead,
                (
                    "database".to_string(),
                    Json::Str(state.name(r.index).to_string()),
                ),
                ("category".to_string(), Json::Str(state.category(r.index))),
                ("score".to_string(), Json::Num(r.score)),
                (
                    "shrinkage_used".to_string(),
                    Json::Bool(outcome.used_shrinkage[r.index]),
                ),
            ])
        };
        Json::Arr(
            outcome
                .ranking
                .iter()
                .take(k)
                .enumerate()
                .map(entry)
                .collect(),
        )
    }

    fn routed_tree(
        state: &ServingState,
        unknown: &[String],
        outcome: &AdaptiveOutcome,
        k: usize,
        lead: Lead,
    ) -> Vec<(String, Json)> {
        vec![
            (
                "unknown".to_string(),
                Json::Arr(unknown.iter().cloned().map(Json::Str).collect()),
            ),
            ("ranking".to_string(), ranking_tree(state, outcome, k, lead)),
        ]
    }

    #[test]
    fn bodies_are_byte_identical_to_the_json_tree_rendering() {
        let state = hostile_state();
        let n = state.databases();
        let scores = [
            0.5,
            -0.0,
            1e-300,
            f64::MIN_POSITIVE / 2.0,
            123456789.125,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 / 3.0,
            2e22,
            0.1 + 0.2,
            7.0,
        ];
        let full = AdaptiveOutcome {
            // Not in catalog order, so `index` and `rank` disagree.
            ranking: (0..n)
                .map(|at| RankedDatabase {
                    index: (at * 5 + 3) % n,
                    score: scores[at],
                })
                .collect(),
            used_shrinkage: (0..n).map(|db| db % 3 == 0).collect(),
        };
        let empty = AdaptiveOutcome {
            ranking: Vec::new(),
            used_shrinkage: vec![false; n],
        };
        let unknowns: [Vec<String>; 3] = [
            Vec::new(),
            vec!["plain".to_string()],
            vec![
                "quo\"te".to_string(),
                "back\\slash\n".to_string(),
                "\u{3}μ".to_string(),
                String::new(),
            ],
        ];
        for outcome in [&full, &empty] {
            for lead in [Lead::Rank, Lead::Index] {
                for k in [1, 10, n, n + 5, usize::MAX] {
                    let mut written = String::new();
                    write_ranking(&mut written, entries(&state, outcome, k), lead);
                    let tree = ranking_tree(&state, outcome, k, lead).render();
                    assert_eq!(written, tree, "k={k}");
                    assert!(Json::parse(&written).is_ok(), "not even JSON: {written}");

                    // The three response shapes: `/route`, its
                    // shard-partial form, and a `/route_batch` of two.
                    for unknown in &unknowns {
                        let shard = matches!(lead, Lead::Index).then_some(Shard {
                            shard: 2,
                            shards: 3,
                        });
                        let mut fields = vec![("generation".to_string(), Json::Num(7.0))];
                        if let Some(Shard { shard, shards }) = shard {
                            fields.push(("shards".to_string(), Json::Num(shards as f64)));
                            fields.push(("shard".to_string(), Json::Num(shard as f64)));
                        }
                        let routed = routed_tree(&state, unknown, outcome, k, lead);

                        let (mut single, _) = open_body(7, shard);
                        write_routed(&mut single, unknown, entries(&state, outcome, k), lead);
                        single.push('}');
                        let mut tree = fields.clone();
                        tree.extend(routed.clone());
                        assert_eq!(single, Json::obj(tree).render());

                        let (mut batch, _) = open_body(7, shard);
                        let results = [
                            (&unknown[..], entries(&state, outcome, k)),
                            (&[][..], entries(&state, &empty, k)),
                        ];
                        write_results(&mut batch, results, lead);
                        batch.push('}');
                        let mut tree = fields;
                        let second = routed_tree(&state, &[], &empty, k, lead);
                        tree.push((
                            "results".to_string(),
                            Json::Arr(vec![Json::obj(routed), Json::obj(second)]),
                        ));
                        assert_eq!(batch, Json::obj(tree).render());
                    }
                }
            }
        }
        // Non-finite scores came out as `null`, as the tree renders them.
        let mut written = String::new();
        write_ranking(&mut written, entries(&state, &full, n), Lead::Rank);
        assert_eq!(written.matches("\"score\":null").count(), 3);
    }
}
