//! The load generator: closed-loop and open-loop phases over a fixed
//! number of keep-alive connections, one blocking sender thread each.
//!
//! Open-loop requests are due on a fixed schedule (`start + i / rate`)
//! and their latency runs from the **due time**, not from when the bytes
//! left: a stall in the daemon delays the requests scheduled behind it
//! and those delays are counted, instead of being hidden by a sender
//! that politely waited (coordinated omission). Senders wait with
//! `sleep`, never by spinning — the daemon needs the other core.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::{Conn, Reply};
use crate::stats;
use crate::trace::Span;

/// After a phase ends, requests already due get this long to be answered.
pub const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Span name of one wire exchange in a traced phase.
pub const ROUNDTRIP: &str = "client.roundtrip";

/// Judges one response: `Some(generation)` when it is a correct answer to
/// pool request `i`, `None` when it counts as failed.
pub type Check<'a> = &'a (dyn Fn(usize, Reply, &[u8]) -> Option<u64> + Sync);

/// One request as the sender saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was due (closed loop: when it was sent).
    pub due: Instant,
    pub done: Instant,
    /// How late the generator itself was: send time minus the later of the
    /// due time and the moment the connection became free.
    pub late_ns: u64,
    /// Tenant generation the response carried; `None` for a failure.
    pub generation: Option<u64>,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }
}

/// What a phase is driven with.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub addr: SocketAddr,
    /// Wire bytes of the pool; request `i` sends `raw[i % raw.len()]`.
    pub raw: &'a [Vec<u8>],
    pub connections: usize,
    pub check: Check<'a>,
    /// Record a [`ROUNDTRIP`] span per exchange, timestamps relative to
    /// this origin (traced runs).
    pub span_origin: Option<Instant>,
}

/// Everything a phase observed.
pub struct PhaseLog {
    pub samples: Vec<Sample>,
    /// Open loop: requests that were due inside the phase. Closed loop:
    /// requests sent.
    pub scheduled: usize,
    pub start: Instant,
    pub end: Instant,
    pub spans: Vec<Span>,
}

struct Sender<'a> {
    target: Target<'a>,
    conn: Option<Conn>,
    /// When this connection last became free to send.
    ready: Instant,
    samples: Vec<Sample>,
    spans: Vec<Span>,
}

impl<'a> Sender<'a> {
    fn new(target: Target<'a>) -> Sender<'a> {
        Sender {
            target,
            conn: Conn::connect(target.addr).ok(),
            ready: Instant::now(),
            samples: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Send pool request `i`, due at `due`; record the outcome.
    fn exchange(&mut self, i: usize, due: Instant) {
        let raw = &self.target.raw[i % self.target.raw.len()];
        let sent = Instant::now();
        let late_ns = (sent - due.max(self.ready).min(sent)).as_nanos() as u64;
        let mut generation = None;
        let mut reusable = false;
        if self.conn.is_none() {
            // The last reconnect failed; do not turn a dead daemon into a
            // busy loop of instant failures.
            std::thread::sleep(Duration::from_millis(10));
            self.conn = Conn::connect(self.target.addr).ok();
        }
        if let Some(conn) = self.conn.as_mut() {
            if let Ok(reply) = conn.send(raw).and_then(|()| conn.recv()) {
                generation = (self.target.check)(i % self.target.raw.len(), reply, conn.body());
                reusable = !reply.close;
            }
        }
        let done = Instant::now();
        if let Some(origin) = self.target.span_origin {
            self.spans.push(Span {
                name: ROUNDTRIP,
                start_ns: (sent - origin).as_nanos() as u64,
                end_ns: (done - origin).as_nanos() as u64,
                parent: None,
                request_id: i as u32,
            });
        }
        self.samples.push(Sample {
            due,
            done,
            late_ns,
            generation,
        });
        if !reusable {
            // The daemon's keep-alive cap (or an error) ended this
            // connection: replace it now, between requests, so the next
            // request's clock does not pay for the handshake.
            self.conn = Conn::connect(self.target.addr).ok();
        }
        self.ready = Instant::now();
    }
}

fn collect(senders: Vec<Sender<'_>>, scheduled: usize, start: Instant, end: Instant) -> PhaseLog {
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for sender in senders {
        samples.extend(sender.samples);
        spans.extend(sender.spans);
    }
    samples.sort_by_key(|s| s.due);
    spans.sort_by_key(|s| s.start_ns);
    PhaseLog {
        samples,
        scheduled,
        start,
        end,
        spans,
    }
}

/// Closed loop: each connection sends its next request as soon as the
/// previous one is answered, for `duration`.
pub fn closed_loop(target: Target<'_>, duration: Duration) -> PhaseLog {
    let start = Instant::now();
    let end = start + duration;
    let senders: Vec<Sender<'_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..target.connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut sender = Sender::new(target);
                    let mut i = c;
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        sender.exchange(i, now);
                        i += target.connections;
                    }
                    sender
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let scheduled = senders.iter().map(|s| s.samples.len()).sum();
    collect(senders, scheduled, start, Instant::now())
}

/// Open loop: request `i` is due at `start + i / rps`, connection
/// `i % connections` sends it. A connection still waiting for an answer
/// sends its next request late; the lateness is part of that request's
/// latency.
pub fn open_loop(target: Target<'_>, rps: f64, duration: Duration) -> PhaseLog {
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + duration;
    let spacing = 1.0 / rps;
    let scheduled = (duration.as_secs_f64() * rps).ceil() as usize;
    let senders: Vec<Sender<'_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..target.connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut sender = Sender::new(target);
                    for i in (c..scheduled).step_by(target.connections) {
                        let due = start + Duration::from_secs_f64(i as f64 * spacing);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        } else if now > end + DRAIN_GRACE {
                            // Hopelessly behind: what is still unsent
                            // counts as failed (it is in `scheduled` and
                            // has no sample).
                            break;
                        }
                        sender.exchange(i, due);
                    }
                    sender
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    collect(senders, scheduled, start, end)
}

/// A phase boiled down to what gets printed and checked. A phase is
/// measured in one or more slices spread over the run, and its rate and
/// latencies are each the best any slice showed: the shared host only
/// ever slows a slice down, for seconds to minutes at a time, so the
/// program's own speed is the floor the slices sit on, and a slower
/// program raises that floor under all of them.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    pub name: &'static str,
    pub slices: usize,
    pub sent: usize,
    pub succeeded: usize,
    pub failed: usize,
    pub wall_s: f64,
    /// Answers per second of the fastest slice.
    pub rps: f64,
    /// Median latency of the slice where it was lowest.
    pub p50_ms: f64,
    /// Nearest-rank 90th percentile of the slice where it was lowest.
    pub p90_ms: f64,
    /// Median of per-window p99s (see `windowed_p99`); `None` when the
    /// phase has too few samples for one.
    pub p99_ms: Option<f64>,
    pub late_p99_ms: f64,
    /// Why the phase's numbers must not be used, if they must not.
    pub invalid: Vec<String>,
}

impl PhaseSummary {
    pub fn line(&self) -> String {
        let p99 = self
            .p99_ms
            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}"));
        let verdict = if self.invalid.is_empty() {
            "valid".to_string()
        } else {
            format!("INVALID ({})", self.invalid.join("; "))
        };
        format!(
            "phase {:<6} slices {:>2} sent {:>6} succeeded {:>6} failed {:>3}  {:>9.1} rps  p50 {:.3} ms  p90 {:.3} ms  p99 {} ms  late p99 {:.3} ms  {}",
            self.name, self.slices, self.sent, self.succeeded, self.failed, self.rps, self.p50_ms, self.p90_ms, p99, self.late_p99_ms, verdict
        )
    }
}

/// Which run-validity guards a phase's numbers must pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guards {
    /// The generator's own lateness (p99) must stay within a tenth of the
    /// phase's median latency or 1 ms, whichever is larger — beyond that
    /// the latencies measure the generator.
    Closed,
    /// The lateness guard, and: at least 99% of the requests due must be
    /// answered by the phase's end (otherwise the backlog is growing and
    /// no steady state was measured), and every slice must have enough
    /// samples for its p90 (ten beyond it).
    Open,
    /// A phase whose latencies are not reported (the refresh tail).
    Unguarded,
}

/// The 99th percentile as the median, over consecutive windows of at
/// least 1000 requests in due order, of each window's nearest-rank p99:
/// every window has its ten samples beyond the percentile, and one
/// hiccup of the machine moves one window, not the result. `None` under
/// 1000 samples.
fn windowed_p99(ok: &[&Sample]) -> Option<f64> {
    let windows = ok.len() / stats::samples_needed(0.99);
    let p99s: Vec<f64> = (0..windows)
        .map(|w| {
            let window = &ok[w * ok.len() / windows..(w + 1) * ok.len() / windows];
            let latencies = stats::sorted(window.iter().map(|s| s.latency_ms()).collect());
            stats::percentile_sorted(&latencies, 0.99)
        })
        .collect();
    stats::median(&p99s)
}

/// What one slice measured: answers per second, median and 90th
/// percentile latency. `None` when nothing in it succeeded.
pub fn slice_stats(log: &PhaseLog) -> Option<(f64, f64, f64)> {
    let latencies = stats::sorted(
        log.samples
            .iter()
            .filter(|s| s.generation.is_some())
            .map(Sample::latency_ms)
            .collect(),
    );
    if latencies.is_empty() {
        return None;
    }
    let wall_s = (log.end - log.start).as_secs_f64();
    Some((
        latencies.len() as f64 / wall_s,
        stats::percentile_sorted(&latencies, 0.5),
        stats::percentile_sorted(&latencies, 0.9),
    ))
}

/// Summarize a phase from its slices and apply its run-validity guards.
pub fn summarize(name: &'static str, slices: &[PhaseLog], guards: Guards) -> PhaseSummary {
    let samples = || slices.iter().flat_map(|log| &log.samples);
    let ok: Vec<&Sample> = samples().filter(|s| s.generation.is_some()).collect();
    let succeeded = ok.len();
    let sent: usize = slices.iter().map(|log| log.scheduled).sum();
    let failed = sent - succeeded;
    let wall_s = slices
        .iter()
        .map(|log| (log.end - log.start).as_secs_f64())
        .sum();
    let per_slice: Vec<(f64, f64, f64)> = slices.iter().filter_map(slice_stats).collect();
    // An invalid phase (nothing succeeded) reads 0 throughout.
    let rps = per_slice
        .iter()
        .map(|s| s.0)
        .reduce(f64::max)
        .unwrap_or(0.0);
    let lowest = |pick: fn(&(f64, f64, f64)) -> f64| {
        per_slice.iter().map(pick).reduce(f64::min).unwrap_or(0.0)
    };
    let (p50_ms, p90_ms) = (lowest(|s| s.1), lowest(|s| s.2));
    let late = stats::sorted(samples().map(|s| s.late_ns as f64 / 1e6).collect());
    let mut invalid = Vec::new();
    let late_p99_ms = if late.is_empty() {
        0.0
    } else {
        stats::percentile_sorted(&late, 0.99)
    };
    if per_slice.is_empty() {
        invalid.push("no request succeeded".to_string());
    }
    let allowed_late_ms = (0.1 * p50_ms).max(1.0);
    if guards != Guards::Unguarded && late_p99_ms > allowed_late_ms {
        invalid.push(format!(
            "generator lateness p99 {late_p99_ms:.3} ms exceeds {allowed_late_ms:.3} ms"
        ));
    }
    if guards == Guards::Open {
        let by_end: usize = slices
            .iter()
            .map(|log| {
                let in_time = |s: &&Sample| s.generation.is_some() && s.done <= log.end;
                log.samples.iter().filter(in_time).count()
            })
            .sum();
        if (by_end as f64) < 0.99 * sent as f64 {
            invalid.push(format!(
                "only {by_end} of {sent} due requests answered by phase end (growing backlog)"
            ));
        }
        let thinnest = slices
            .iter()
            .map(|log| {
                log.samples
                    .iter()
                    .filter(|s| s.generation.is_some())
                    .count()
            })
            .min()
            .unwrap_or(0);
        if succeeded > 0 && thinnest < stats::samples_needed(0.9) {
            invalid.push(format!(
                "{thinnest} samples in a slice, a p90 needs {}",
                stats::samples_needed(0.9)
            ));
        }
    }
    PhaseSummary {
        name,
        slices: slices.len(),
        sent,
        succeeded,
        failed,
        wall_s,
        rps,
        p50_ms,
        p90_ms,
        p99_ms: windowed_p99(&ok),
        late_p99_ms,
        invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A one-connection HTTP stub that answers every request at once,
    /// except request number `stall_at`, which it sits on for `stall`.
    fn stub(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let mut pending = Vec::new();
            let mut served = 0usize;
            loop {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => pending.extend_from_slice(&buf[..n]),
                }
                while let Some(end) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                    pending.drain(..end + 4);
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    // One write per response: two would meet Nagle and the
                    // client's delayed ACK, 40 ms apiece.
                    let body = "{\"generation\":1,\"ok\":true}";
                    let response = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                        body.len()
                    );
                    stream.write_all(response.as_bytes()).unwrap();
                }
            }
        });
        (addr, handle)
    }

    fn accept_all(_: usize, reply: Reply, body: &[u8]) -> Option<u64> {
        (reply.status == 200)
            .then(|| crate::client::body_generation(body))
            .flatten()
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // 100 rps on one connection; the stub stalls 200 ms on request 10.
        // The 20 or so requests due during the stall are sent late, but
        // their latency must be charged from when they were due: request
        // 11 waited ~190 ms, request 12 ~180 ms, and so on down.
        let stall = Duration::from_millis(200);
        let (addr, server) = stub(10, stall);
        let raw = vec![crate::client::get("/x")];
        let target = Target {
            addr,
            raw: &raw,
            connections: 1,
            check: &accept_all,
            span_origin: None,
        };
        let log = open_loop(target, 100.0, Duration::from_millis(600));
        assert_eq!(log.scheduled, 60);
        assert_eq!(log.samples.len(), 60);
        assert!(log.samples.iter().all(|s| s.generation == Some(1)));

        let latency = |i: usize| log.samples[i].latency_ms();
        assert!(latency(5) < 50.0, "before the stall: {:.1} ms", latency(5));
        assert!(
            latency(10) >= 195.0,
            "the stalled request: {:.1} ms",
            latency(10)
        );
        // Due 10 ms into a 200 ms stall, answered right after it.
        assert!(
            (150.0..260.0).contains(&latency(11)),
            "scheduled during the stall, charged from its due time: {:.1} ms",
            latency(11)
        );
        assert!(
            (60.0..170.0).contains(&latency(20)),
            "half-way through the stall: {:.1} ms",
            latency(20)
        );
        let inflated = (11..30).filter(|&i| latency(i) > 20.0).count();
        assert!(
            inflated >= 15,
            "only {inflated} requests behind the stall were charged for it"
        );
        assert!(latency(50) < 50.0, "caught up again: {:.1} ms", latency(50));
        // The lateness of those sends was the connection's doing, not the
        // generator's: it is not reported as generator lateness.
        let summary = summarize("open", std::slice::from_ref(&log), Guards::Open);
        assert!(
            summary.late_p99_ms < 20.0,
            "generator lateness {:.1} ms",
            summary.late_p99_ms
        );
        assert_eq!(
            (summary.sent, summary.succeeded, summary.failed),
            (60, 60, 0)
        );
        assert!(summary.p99_ms.is_none(), "60 samples cannot carry a p99");
        assert!(summary
            .invalid
            .iter()
            .any(|r| r.contains("a p90 needs 100")));
        drop(log);
        server.join().unwrap();
    }

    #[test]
    fn p99_needs_a_thousand_samples_and_is_a_median_over_windows() {
        let origin = Instant::now();
        let sample = |i: u64, latency_ms: u64| {
            let due = origin + Duration::from_millis(i);
            Sample {
                due,
                done: due + Duration::from_millis(latency_ms),
                late_ns: 0,
                generation: Some(1),
            }
        };
        let flat: Vec<Sample> = (0..999).map(|i| sample(i, 1)).collect();
        assert_eq!(
            windowed_p99(&flat.iter().collect::<Vec<_>>()),
            None,
            "999 samples cannot carry a p99"
        );
        // Three windows of 1000; a 50-request hiccup lands in the second.
        let hiccup: Vec<Sample> = (0..3000)
            .map(|i| sample(i, if (1400..1450).contains(&i) { 80 } else { 1 }))
            .collect();
        let refs: Vec<&Sample> = hiccup.iter().collect();
        assert_eq!(
            windowed_p99(&refs),
            Some(1.0),
            "one disturbed window does not move the median"
        );
        let plain = stats::sorted(hiccup.iter().map(Sample::latency_ms).collect());
        assert_eq!(
            stats::percentile_sorted(&plain, 0.99),
            80.0,
            "the plain p99 would have"
        );
    }

    #[test]
    fn disturbed_slices_own_the_pooled_percentiles_but_not_the_best_slice() {
        let origin = Instant::now();
        // Five one-second slices of 200 requests at 1 ms; in all but the
        // second the machine runs slow and every request takes 3 ms.
        let slices: Vec<PhaseLog> = (0..5u64)
            .map(|slice| {
                let start = origin + Duration::from_secs(slice);
                let samples = (0..200u64)
                    .map(|i| {
                        let due = start + Duration::from_millis(5 * i);
                        Sample {
                            due,
                            done: due + Duration::from_millis(if slice == 1 { 1 } else { 3 }),
                            late_ns: 0,
                            generation: Some(1),
                        }
                    })
                    .collect();
                PhaseLog {
                    samples,
                    scheduled: 200,
                    start,
                    end: start + Duration::from_secs(1),
                    spans: Vec::new(),
                }
            })
            .collect();
        let summary = summarize("open", &slices, Guards::Open);
        assert_eq!((summary.slices, summary.sent, summary.failed), (5, 1000, 0));
        assert_eq!((summary.p50_ms, summary.p90_ms), (1.0, 1.0));
        assert_eq!(summary.rps, 200.0);
        assert!(summary.invalid.is_empty(), "{:?}", summary.invalid);
        // Pooled, most samples are slow and even the median lands in them.
        let pooled = stats::sorted(
            slices
                .iter()
                .flat_map(|log| log.samples.iter().map(Sample::latency_ms))
                .collect(),
        );
        assert_eq!(stats::percentile_sorted(&pooled, 0.5), 3.0);
        // A slice too thin for its own p90 invalidates the phase.
        let mut short = slices;
        short[2].samples.truncate(99);
        short[2].scheduled = 99;
        let summary = summarize("open", &short, Guards::Open);
        assert!(summary
            .invalid
            .iter()
            .any(|r| r.contains("99 samples in a slice")));
    }

    #[test]
    fn closed_loop_counts_what_it_sent() {
        let (addr, server) = stub(usize::MAX, Duration::ZERO);
        let raw = vec![crate::client::get("/x")];
        let target = Target {
            addr,
            raw: &raw,
            connections: 1,
            check: &accept_all,
            span_origin: Some(Instant::now()),
        };
        let log = closed_loop(target, Duration::from_millis(100));
        let summary = summarize("closed", std::slice::from_ref(&log), Guards::Closed);
        assert!(summary.sent > 10 && summary.failed == 0);
        assert_eq!(
            log.spans.len(),
            summary.sent,
            "one roundtrip span per exchange"
        );
        assert!(summary.invalid.is_empty(), "{:?}", summary.invalid);
        drop(log);
        server.join().unwrap();
    }

    #[test]
    fn a_growing_backlog_invalidates_an_open_phase() {
        // Every request takes 30 ms but one is due every 10 ms.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            while matches!(stream.read(&mut buf), Ok(n) if n > 0) {
                std::thread::sleep(Duration::from_millis(30));
                let _ = stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 17\r\n\r\n{\"generation\":1,}");
            }
        });
        let raw = vec![crate::client::get("/x")];
        let target = Target {
            addr,
            raw: &raw,
            connections: 1,
            check: &accept_all,
            span_origin: None,
        };
        let log = open_loop(target, 100.0, Duration::from_millis(300));
        let summary = summarize("open", std::slice::from_ref(&log), Guards::Open);
        assert!(
            summary
                .invalid
                .iter()
                .any(|r| r.contains("growing backlog")),
            "{:?}",
            summary.invalid
        );
        drop(log);
        server.join().unwrap();
    }
}
