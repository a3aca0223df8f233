//! In-process metrics: atomic counters and latency histograms, rendered in
//! Prometheus text exposition format by the daemon's `GET /metrics`.
//!
//! The [`Histogram`] is shared with `dbselect route`'s batch summary so the
//! CLI and the daemon report percentiles from the same machinery:
//! exponential buckets over nanoseconds, lock-free `fetch_add` recording,
//! and percentile estimation by linear interpolation inside the bucket.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A fixed-bucket histogram of durations in nanoseconds.
///
/// Buckets are exponential: the `i`-th bucket covers
/// `(bound[i-1], bound[i]]` with `bound[i] = 1µs · 2^i`, plus an overflow
/// bucket. Recording is a single atomic increment; percentile queries scan
/// the (small, fixed) bucket array.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram sized for request latencies: 1µs up to ~67s.
    pub fn latency() -> Self {
        let bounds: Vec<u64> = (0..27).map(|i| 1_000u64 << i).collect();
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation of `nanos`.
    pub fn observe(&self, nanos: u64) {
        let bucket = self
            .bounds
            .partition_point(|&bound| bound < nanos)
            .min(self.counts.len() - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        // Saturating, not wrapping: one absurd observation (a stuck clock,
        // u64::MAX) must pin the exported `_sum` at the ceiling rather
        // than wrap it back to a small, plausible-looking value.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |sum| {
                Some(sum.saturating_add(nanos))
            });
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `p`-th percentile (`0.0..=1.0`) in nanoseconds, linearly
    /// interpolated inside the winning bucket. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            let count = count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            if cumulative + count >= target {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = self.overflow_aware_upper(i);
                let into = (target - cumulative) as f64 / count as f64;
                return lower + ((upper.saturating_sub(lower)) as f64 * into) as u64;
            }
            cumulative += count;
        }
        self.overflow_aware_upper(self.counts.len() - 1)
    }

    /// Upper edge of bucket `i`. The overflow bucket has no bound of its
    /// own; extend the exponential progression one more doubling so
    /// interpolation inside it stays non-degenerate (`upper > lower`)
    /// instead of collapsing to the last bound.
    fn overflow_aware_upper(&self, i: usize) -> u64 {
        self.bounds
            .get(i)
            .copied()
            .unwrap_or_else(|| self.bounds.last().map_or(0, |&b| b.saturating_mul(2)))
    }
}

/// Escape a string for use as a Prometheus label *value*: per the text
/// exposition format, `\` → `\\`, `"` → `\"`, and a line feed → `\n`.
/// Static label values in this file never need it, but tenant names are
/// user-supplied (file stems of the manifest directory) and a quote or
/// newline in one would otherwise break out of the label and corrupt the
/// whole scrape.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render nanoseconds human-readably (`950ns`, `12.3µs`, `4.56ms`, `1.20s`).
pub fn format_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

/// The daemon's metrics registry.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Request count keyed by (endpoint, status).
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// `/route` handler latency.
    pub route_latency: Histogram,
    /// `/route_batch` handler latency.
    pub batch_latency: Histogram,
    /// Current depth of the pool's admission queue (`/route` never queues).
    pub queue_depth: AtomicU64,
    /// Requests rejected with 503: pool requests meeting a full queue, and
    /// routing requests over their tenant's quota.
    pub rejected_total: AtomicU64,
    /// Requests that exceeded their deadline (504s) or timed out reading
    /// (408s).
    pub timeout_total: AtomicU64,
    /// Successful catalog reloads.
    pub reload_total: AtomicU64,
    /// Connections accepted (each may carry many requests).
    pub connections_total: AtomicU64,
    /// Handler panics caught on a pool worker or on a reactor running a
    /// `/route`; the connection dropped but the thread survived.
    pub worker_panics_total: AtomicU64,
    /// Catalog loads (admin reloads or background refresh polls) that
    /// failed — missing file, corrupt snapshot, broken delta chain. The
    /// previous generation keeps serving through every one of these.
    pub catalog_load_failures_total: AtomicU64,
    /// Currently open client connections (accepted, not yet closed).
    pub open_connections: AtomicU64,
    /// Connections per reactor state, indexed by [`ConnState`].
    pub connections_state: [AtomicU64; CONN_STATES.len()],
    /// Open connections per reactor, counted from the moment one is
    /// placed on it: what accepting reactors balance new connections on.
    pub reactor_connections: Box<[AtomicU64]>,
    /// Times the reactor's poll wait returned (readiness, doorbell, or
    /// timer tick).
    pub reactor_wakeups_total: AtomicU64,
    /// Entries in the reactors' timer wheels, summed, superseded ones
    /// included: about one per slab slot (per peak concurrent connection),
    /// however many requests and connections the slots have served.
    pub reactor_timers: AtomicU64,
    /// `EAGAIN`/`EWOULDBLOCK` results across reactor reads, writes, and
    /// accepts — each one is a syscall that found no progress to make.
    pub eagain_total: AtomicU64,
    /// The live Table 10, per algorithm ([`ALGO_LABELS`] order):
    /// (query, database) uncertainty tests decided by `Adaptive` requests …
    pub uncertainty_tests_total: [AtomicU64; ALGO_LABELS.len()],
    /// … and how many of them chose the shrunk summary.
    pub shrinkage_applied_total: [AtomicU64; ALGO_LABELS.len()],
}

/// `algo` label values, in `state::Algo::all` order.
pub const ALGO_LABELS: [&str; 3] = ["bgloss", "cori", "lm"];

/// Reactor connection states, in gauge order.
pub const CONN_STATES: [&str; 5] = ["reading", "executing", "writing", "idle", "draining"];

/// Index into [`Metrics::connections_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    Reading = 0,
    Executing = 1,
    Writing = 2,
    Idle = 3,
    Draining = 4,
}

impl Metrics {
    /// A fresh registry for a single reactor; `started` anchors the uptime
    /// gauge.
    pub fn new() -> Self {
        Metrics::with_reactors(1)
    }

    /// A fresh registry for a daemon running `reactors` reactors.
    pub fn with_reactors(reactors: usize) -> Self {
        Metrics {
            started: Instant::now(),
            requests: Mutex::new(BTreeMap::new()),
            route_latency: Histogram::latency(),
            batch_latency: Histogram::latency(),
            queue_depth: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            timeout_total: AtomicU64::new(0),
            reload_total: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            worker_panics_total: AtomicU64::new(0),
            catalog_load_failures_total: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            connections_state: Default::default(),
            reactor_connections: (0..reactors.max(1)).map(|_| AtomicU64::new(0)).collect(),
            reactor_wakeups_total: AtomicU64::new(0),
            reactor_timers: AtomicU64::new(0),
            eagain_total: AtomicU64::new(0),
            uncertainty_tests_total: Default::default(),
            shrinkage_applied_total: Default::default(),
        }
    }

    /// Count one `Adaptive` request's choices for [`ALGO_LABELS`]`[algo]`.
    pub fn record_choices(&self, algo: usize, used_shrinkage: &[bool]) {
        let applied = used_shrinkage.iter().filter(|&&used| used).count();
        self.uncertainty_tests_total[algo]
            .fetch_add(used_shrinkage.len() as u64, Ordering::Relaxed);
        self.shrinkage_applied_total[algo].fetch_add(applied as u64, Ordering::Relaxed);
    }

    /// Move one connection between state gauges; `None` on either side
    /// means entering from accept / leaving by close.
    pub fn transition(&self, from: Option<ConnState>, to: Option<ConnState>) {
        if let Some(from) = from {
            self.connections_state[from as usize].fetch_sub(1, Ordering::Relaxed);
        }
        if let Some(to) = to {
            self.connections_state[to as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one served request.
    pub fn record(&self, endpoint: &'static str, status: u16) {
        *self
            .requests
            .lock()
            .expect("metrics lock poisoned")
            .entry((endpoint, status))
            .or_insert(0) += 1;
    }

    /// Render the Prometheus text exposition.
    /// `generation`/`databases`/`load_seconds`/`snapshot_bytes` describe
    /// the currently served catalog and how it was loaded.
    pub fn render(
        &self,
        generation: u64,
        databases: usize,
        load_seconds: f64,
        snapshot_bytes: u64,
    ) -> String {
        let mut out = self.render_core();
        for (family, counters) in [
            (
                "dbselectd_uncertainty_tests_total",
                &self.uncertainty_tests_total,
            ),
            (
                "dbselectd_shrinkage_applied_total",
                &self.shrinkage_applied_total,
            ),
        ] {
            out.push_str(&format!("# TYPE {family} counter\n"));
            for (algo, counter) in ALGO_LABELS.iter().zip(counters) {
                out.push_str(&format!(
                    "{family}{{algo=\"{algo}\"}} {}\n",
                    counter.load(Ordering::Relaxed)
                ));
            }
        }
        out.push_str(&format!(
            "# TYPE dbselectd_catalog_generation gauge\n\
             dbselectd_catalog_generation {generation}\n\
             # TYPE dbselectd_catalog_databases gauge\n\
             dbselectd_catalog_databases {databases}\n\
             # TYPE dbselectd_catalog_load_seconds gauge\n\
             dbselectd_catalog_load_seconds {load_seconds:.6}\n\
             # TYPE dbselectd_catalog_snapshot_bytes gauge\n\
             dbselectd_catalog_snapshot_bytes {snapshot_bytes}\n",
        ));
        out
    }

    /// The catalog-independent half of [`render`](Self::render): request
    /// counters, latency summaries, admission/connection/reactor gauges
    /// and uptime. The proxy tier serves no catalog of its own, so its
    /// `/metrics` endpoint renders this core plus its per-backend
    /// families instead of the full monolithic exposition.
    pub fn render_core(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE dbselectd_requests_total counter\n");
        for ((endpoint, status), count) in
            self.requests.lock().expect("metrics lock poisoned").iter()
        {
            out.push_str(&format!(
                "dbselectd_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}\n"
            ));
        }
        for (name, histogram) in [
            ("route", &self.route_latency),
            ("route_batch", &self.batch_latency),
        ] {
            out.push_str(&format!(
                "# TYPE dbselectd_request_duration_seconds summary\n\
                 dbselectd_request_duration_seconds{{endpoint=\"{name}\",quantile=\"0.5\"}} {}\n\
                 dbselectd_request_duration_seconds{{endpoint=\"{name}\",quantile=\"0.95\"}} {}\n\
                 dbselectd_request_duration_seconds{{endpoint=\"{name}\",quantile=\"0.99\"}} {}\n\
                 dbselectd_request_duration_seconds_count{{endpoint=\"{name}\"}} {}\n\
                 dbselectd_request_duration_seconds_sum{{endpoint=\"{name}\"}} {}\n",
                histogram.percentile(0.50) as f64 / 1e9,
                histogram.percentile(0.95) as f64 / 1e9,
                histogram.percentile(0.99) as f64 / 1e9,
                histogram.count(),
                histogram.sum_nanos() as f64 / 1e9,
            ));
        }
        out.push_str(&format!(
            "# TYPE dbselectd_queue_depth gauge\n\
             dbselectd_queue_depth {}\n\
             # TYPE dbselectd_rejected_total counter\n\
             dbselectd_rejected_total {}\n\
             # TYPE dbselectd_timeout_total counter\n\
             dbselectd_timeout_total {}\n\
             # TYPE dbselectd_reload_total counter\n\
             dbselectd_reload_total {}\n\
             # TYPE dbselectd_connections_total counter\n\
             dbselectd_connections_total {}\n\
             # TYPE dbselectd_worker_panics_total counter\n\
             dbselectd_worker_panics_total {}\n\
             # TYPE dbselectd_catalog_load_failures_total counter\n\
             dbselectd_catalog_load_failures_total {}\n",
            self.queue_depth.load(Ordering::Relaxed),
            self.rejected_total.load(Ordering::Relaxed),
            self.timeout_total.load(Ordering::Relaxed),
            self.reload_total.load(Ordering::Relaxed),
            self.connections_total.load(Ordering::Relaxed),
            self.worker_panics_total.load(Ordering::Relaxed),
            self.catalog_load_failures_total.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            "# TYPE dbselectd_open_connections gauge\n\
             dbselectd_open_connections {}\n",
            self.open_connections.load(Ordering::Relaxed),
        ));
        out.push_str("# TYPE dbselectd_connections_state gauge\n");
        for (state, gauge) in CONN_STATES.iter().zip(&self.connections_state) {
            out.push_str(&format!(
                "dbselectd_connections_state{{state=\"{state}\"}} {}\n",
                gauge.load(Ordering::Relaxed),
            ));
        }
        out.push_str("# TYPE dbselectd_reactor_connections gauge\n");
        for (reactor, gauge) in self.reactor_connections.iter().enumerate() {
            out.push_str(&format!(
                "dbselectd_reactor_connections{{reactor=\"{reactor}\"}} {}\n",
                gauge.load(Ordering::Relaxed),
            ));
        }
        out.push_str(&format!(
            "# TYPE dbselectd_reactor_wakeups_total counter\n\
             dbselectd_reactor_wakeups_total {}\n\
             # TYPE dbselectd_reactor_timers gauge\n\
             dbselectd_reactor_timers {}\n\
             # TYPE dbselectd_eagain_total counter\n\
             dbselectd_eagain_total {}\n\
             # TYPE dbselectd_uptime_seconds gauge\n\
             dbselectd_uptime_seconds {:.3}\n",
            self.reactor_wakeups_total.load(Ordering::Relaxed),
            self.reactor_timers.load(Ordering::Relaxed),
            self.eagain_total.load(Ordering::Relaxed),
            self.started.elapsed().as_secs_f64(),
        ));
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Per-tenant metrics, label-isolated: every family below is rendered
/// with a `tenant="..."` label (escaped — tenant names are user input),
/// so one tenant's counters never mix into another's. One instance lives
/// inside each `Tenant` and survives that tenant's reloads; it is *not*
/// part of the swapped `ServingState`.
#[derive(Debug)]
pub struct TenantMetrics {
    /// Request count keyed by (endpoint, status), this tenant only.
    pub requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// This tenant's `/route` handler latency.
    pub route_latency: Histogram,
    /// This tenant's `/route_batch` handler latency.
    pub batch_latency: Histogram,
    /// Successful reloads of this tenant's catalog.
    pub reload_total: AtomicU64,
    /// Requests rejected by this tenant's admission quota (503s).
    pub quota_rejected_total: AtomicU64,
}

impl Default for TenantMetrics {
    fn default() -> Self {
        TenantMetrics {
            requests: Mutex::new(BTreeMap::new()),
            route_latency: Histogram::latency(),
            batch_latency: Histogram::latency(),
            reload_total: AtomicU64::new(0),
            quota_rejected_total: AtomicU64::new(0),
        }
    }
}

impl TenantMetrics {
    /// Count one request served for this tenant.
    pub fn record(&self, endpoint: &'static str, status: u16) {
        *self
            .requests
            .lock()
            .expect("tenant metrics lock poisoned")
            .entry((endpoint, status))
            .or_insert(0) += 1;
    }
}

/// Render one tenant's families — its request counters and the gauges of
/// the catalog generation it serves. `# TYPE` headers are emitted by the
/// caller once per family (Prometheus rejects duplicate headers), so this
/// yields sample lines only.
pub fn render_tenant(
    name: &str,
    metrics: &TenantMetrics,
    generation: u64,
    catalog: &broker::Catalog,
    in_flight: u64,
) -> String {
    let tenant = escape_label_value(name);
    let mut out = String::new();
    for ((endpoint, status), count) in metrics
        .requests
        .lock()
        .expect("tenant metrics lock poisoned")
        .iter()
    {
        out.push_str(&format!(
            "dbselectd_tenant_requests_total{{tenant=\"{tenant}\",endpoint=\"{endpoint}\",status=\"{status}\"}} {count}\n"
        ));
    }
    for (endpoint, histogram) in [
        ("route", &metrics.route_latency),
        ("route_batch", &metrics.batch_latency),
    ] {
        if histogram.count() == 0 {
            continue;
        }
        out.push_str(&format!(
            "dbselectd_tenant_request_duration_seconds{{tenant=\"{tenant}\",endpoint=\"{endpoint}\",quantile=\"0.5\"}} {}\n\
             dbselectd_tenant_request_duration_seconds{{tenant=\"{tenant}\",endpoint=\"{endpoint}\",quantile=\"0.99\"}} {}\n\
             dbselectd_tenant_request_duration_seconds_count{{tenant=\"{tenant}\",endpoint=\"{endpoint}\"}} {}\n",
            histogram.percentile(0.50) as f64 / 1e9,
            histogram.percentile(0.99) as f64 / 1e9,
            histogram.count(),
        ));
    }
    out.push_str(&format!(
        "dbselectd_tenant_reload_total{{tenant=\"{tenant}\"}} {}\n\
         dbselectd_tenant_quota_rejected_total{{tenant=\"{tenant}\"}} {}\n\
         dbselectd_tenant_in_flight{{tenant=\"{tenant}\"}} {in_flight}\n\
         dbselectd_tenant_catalog_generation{{tenant=\"{tenant}\"}} {generation}\n\
         dbselectd_tenant_catalog_databases{{tenant=\"{tenant}\"}} {}\n\
         dbselectd_catalog_resident_bytes{{tenant=\"{tenant}\"}} {}\n",
        metrics.reload_total.load(Ordering::Relaxed),
        metrics.quota_rejected_total.load(Ordering::Relaxed),
        catalog.len(),
        catalog.resident_bytes(),
    ));
    out
}

/// `# TYPE` headers for the per-tenant families, emitted once before the
/// per-tenant sample lines.
pub const TENANT_TYPE_HEADERS: &str = "# TYPE dbselectd_tenant_requests_total counter\n\
     # TYPE dbselectd_tenant_request_duration_seconds summary\n\
     # TYPE dbselectd_tenant_reload_total counter\n\
     # TYPE dbselectd_tenant_quota_rejected_total counter\n\
     # TYPE dbselectd_tenant_in_flight gauge\n\
     # TYPE dbselectd_tenant_catalog_generation gauge\n\
     # TYPE dbselectd_tenant_catalog_databases gauge\n\
     # TYPE dbselectd_catalog_resident_bytes gauge\n";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_ordered_and_plausible() {
        let h = Histogram::latency();
        for micros in 1..=1000u64 {
            h.observe(micros * 1_000);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // True p50 is 500µs; the winning bucket is (256µs, 512µs].
        assert!(
            (256_000..=512_000).contains(&p50),
            "p50 {p50} outside its bucket"
        );
        assert!(p99 <= 1_024_000, "p99 {p99} beyond its bucket");
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = Histogram::latency();
        assert_eq!(h.percentile(0.99), 0);
        h.observe(0);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0) > 0);
        // The sum saturates instead of wrapping: 0 + u64::MAX must not
        // come out as a small value after one more observation.
        h.observe(1_000);
        assert_eq!(h.sum_nanos(), u64::MAX);
    }

    #[test]
    fn overflow_bucket_interpolates_instead_of_collapsing() {
        let h = Histogram::latency();
        let last_bound = 1_000u64 << 26;
        for _ in 0..10 {
            h.observe(last_bound + 1);
        }
        let p10 = h.percentile(0.10);
        let p100 = h.percentile(1.0);
        // Interpolation inside the overflow bucket spans (last, 2·last]:
        // distinct percentiles give distinct values, never a flat line
        // pinned at the last bound.
        assert!(p10 > last_bound, "{p10} must exceed the last bound");
        assert!(p10 < p100, "{p10} vs {p100} must not be degenerate");
        assert!(p100 <= last_bound.saturating_mul(2), "{p100}");
    }

    #[test]
    fn nanos_formatting() {
        assert_eq!(format_nanos(950), "950ns");
        assert_eq!(format_nanos(12_300), "12.3µs");
        assert_eq!(format_nanos(4_560_000), "4.56ms");
        assert_eq!(format_nanos(1_200_000_000), "1.20s");
    }

    #[test]
    fn render_contains_all_families() {
        let m = Metrics::new();
        m.record("route", 200);
        m.record("route", 200);
        m.record("healthz", 200);
        m.route_latency.observe(5_000);
        m.record_choices(1, &[true, false, false, true]);
        let text = m.render(2, 7, 0.012345, 4096);
        assert!(text.contains("dbselectd_requests_total{endpoint=\"route\",status=\"200\"} 2"));
        assert!(text.contains("dbselectd_request_duration_seconds_count{endpoint=\"route\"} 1"));
        assert!(text.contains("dbselectd_uncertainty_tests_total{algo=\"cori\"} 4"));
        assert!(text.contains("dbselectd_shrinkage_applied_total{algo=\"cori\"} 2"));
        assert!(text.contains("dbselectd_uncertainty_tests_total{algo=\"lm\"} 0"));
        assert!(!text.contains("posterior_cache"));
        assert!(text.contains("dbselectd_catalog_generation 2"));
        assert!(text.contains("dbselectd_catalog_databases 7"));
        assert!(text.contains("dbselectd_catalog_load_seconds 0.012345"));
        assert!(text.contains("dbselectd_catalog_snapshot_bytes 4096"));
        assert!(text.contains("dbselectd_connections_total 0"));
        assert!(text.contains("dbselectd_worker_panics_total 0"));
        assert!(text.contains("dbselectd_catalog_load_failures_total 0"));
        assert!(text.contains("dbselectd_open_connections 0"));
        assert!(text.contains("dbselectd_reactor_wakeups_total 0"));
        assert!(text.contains("dbselectd_reactor_timers 0"));
        assert!(text.contains("dbselectd_reactor_connections{reactor=\"0\"} 0"));
        assert!(text.contains("dbselectd_eagain_total 0"));
        for state in CONN_STATES {
            assert!(
                text.contains(&format!(
                    "dbselectd_connections_state{{state=\"{state}\"}} 0"
                )),
                "missing state gauge {state}:\n{text}"
            );
        }
    }

    #[test]
    fn label_values_escape_prometheus_specials() {
        assert_eq!(escape_label_value("plain-name"), "plain-name");
        assert_eq!(escape_label_value("back\\slash"), "back\\\\slash");
        assert_eq!(escape_label_value("quo\"te"), "quo\\\"te");
        assert_eq!(escape_label_value("new\nline"), "new\\nline");
        assert_eq!(
            escape_label_value("\\\"\n"),
            "\\\\\\\"\\n",
            "all three specials in sequence"
        );
    }

    #[test]
    fn hostile_tenant_name_renders_on_one_line_per_sample() {
        let tm = TenantMetrics::default();
        tm.record("route", 200);
        tm.route_latency.observe(5_000);
        tm.reload_total.fetch_add(2, Ordering::Relaxed);
        let store = store::CollectionStore {
            dict: textindex::TermDict::new(),
            hierarchy: dbselect_core::hierarchy::Hierarchy::new("Root"),
            databases: Vec::new(),
        };
        let weighting = dbselect_core::category_summary::CategoryWeighting::BySize;
        let stored = store::catalog::StoredCatalog::freeze(store, weighting);
        let catalog = store::snapshot::ServingSnapshot::from_stored(&stored).catalog;
        let text = render_tenant("evil\"t\nenant\\x", &tm, 3, &catalog, 1);
        // Every sample line still parses: the raw newline in the tenant
        // name must have been escaped, so no line starts mid-label.
        for line in text.lines() {
            assert!(
                line.starts_with("dbselectd_") && line.contains("{tenant=\"evil"),
                "broken exposition line: {line:?}"
            );
        }
        assert!(
            text.contains("tenant=\"evil\\\"t\\nenant\\\\x\""),
            "escaped name missing:\n{text}"
        );
        assert!(text.contains("dbselectd_tenant_requests_total{tenant=\"evil\\\"t\\nenant\\\\x\",endpoint=\"route\",status=\"200\"} 1"));
        assert!(text.contains("dbselectd_tenant_reload_total{tenant=\"evil\\\"t\\nenant\\\\x\"} 2"));
        assert!(text
            .contains("dbselectd_tenant_catalog_generation{tenant=\"evil\\\"t\\nenant\\\\x\"} 3"));
        assert!(text.contains("dbselectd_tenant_in_flight{tenant=\"evil\\\"t\\nenant\\\\x\"} 1"));
    }

    #[test]
    fn state_transitions_balance_the_gauges() {
        let m = Metrics::new();
        m.transition(None, Some(ConnState::Reading));
        m.transition(Some(ConnState::Reading), Some(ConnState::Executing));
        m.transition(Some(ConnState::Executing), Some(ConnState::Writing));
        m.transition(Some(ConnState::Writing), Some(ConnState::Idle));
        let text = m.render(1, 1, 0.0, 0);
        assert!(text.contains("dbselectd_connections_state{state=\"idle\"} 1"));
        assert!(text.contains("dbselectd_connections_state{state=\"reading\"} 0"));
        assert!(text.contains("dbselectd_connections_state{state=\"writing\"} 0"));
        m.transition(Some(ConnState::Idle), None);
        let text = m.render(1, 1, 0.0, 0);
        assert!(text.contains("dbselectd_connections_state{state=\"idle\"} 0"));
    }
}
