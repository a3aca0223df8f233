//! The connection reactor: one thread owning all connection I/O.
//!
//! Connections live in a slab, addressed by generation-tagged tokens
//! (`slot | gen << 32`) so a completion or timer firing for a connection
//! that has since closed — and whose slot was reused — is recognized as
//! stale and dropped instead of poking the new tenant (the classic
//! fd-reuse ABA). Each connection is a small state machine:
//!
//! ```text
//!              ┌────────────────────────────┐
//!   accept ──► │ Reading ──► Executing ──►  │ Writing ──► Idle
//!              │   ▲   (worker pool, via    │   │           │
//!              │   │    task + completion   │   │           │ next request
//!              │   │    queues + wakeup)    │   │           ▼ (or leftover
//!              │   └────────────────────────┼───┴──────── Reading  bytes)
//!              │ parse error / 408 / 503 ──►│ Writing ──► Draining ──► closed
//!              └────────────────────────────┘  (lingering close)
//! ```
//!
//! Every deadline — request read, idle reap, write grace, linger bound —
//! is an absolute [`TimerWheel`] entry; there are no per-syscall OS
//! timeouts anywhere on this path. Timers cancel lazily: arming bumps the
//! connection's `timer_gen`, and a fired entry whose generation no longer
//! matches is ignored.
//!
//! Interest discipline: a connection waits in at most one direction.
//! While `Executing` its fd is deregistered entirely — a level-triggered
//! poller would otherwise spin on a peer hangup until the worker finishes
//! — and responses are first written optimistically, registering write
//! interest only after a real `EAGAIN`.

use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{serialize_response, try_parse, ParseStatus, Response};
use crate::metrics::ConnState;
use crate::poller::{new_poller, Event, Interest, Poller};
use crate::timer::TimerWheel;
use crate::{
    retry_after_value, Completion, Shared, Task, ERROR_WRITE_GRACE, LINGER_DRAIN, LINGER_DRAIN_MAX,
};

/// Timer-wheel granularity. Every deadline the daemon enforces is tens of
/// milliseconds or more, so firing up to one tick late is invisible
/// next to the 2s write grace.
const TICK: Duration = Duration::from_millis(20);
const SLOTS: usize = 512;

/// Most bytes offered to one `read` call. Also the increment in which a
/// pipelining client can grow `rbuf` past one complete request — parsing
/// after every chunk stops reading as soon as a request completes, so
/// kernel-buffer backpressure (not memory) absorbs over-eager senders.
const READ_CHUNK: usize = 16 * 1024;

/// Least room offered to one `read` call (a typical request fits).
const READ_MIN: usize = 1024;

const WAKE_TOKEN: u64 = u64::MAX;
const LISTEN_TOKEN: u64 = u64::MAX - 1;

fn token(slot: usize, gen: u32) -> u64 {
    slot as u64 | ((gen as u64) << 32)
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accumulating request bytes; the request deadline is armed.
    Reading,
    /// A parsed request is queued or running on a worker; fd
    /// deregistered, no timer (the worker enforces the deadline, the
    /// write timer takes over at completion).
    Executing,
    /// Flushing a serialized response; write-grace timer armed.
    Writing,
    /// Kept-alive between requests; idle timer armed.
    Idle,
    /// Lingering close: response flushed, write side shut down, draining
    /// the peer's unread bytes so the kernel's RST cannot eat the
    /// response; bounded in time and bytes.
    Draining,
}

impl Phase {
    fn state(self) -> ConnState {
        match self {
            Phase::Reading => ConnState::Reading,
            Phase::Executing => ConnState::Executing,
            Phase::Writing => ConnState::Writing,
            Phase::Idle => ConnState::Idle,
            Phase::Draining => ConnState::Draining,
        }
    }
}

struct Conn {
    stream: TcpStream,
    gen: u32,
    phase: Phase,
    /// What the poller currently watches for this fd (`None` =
    /// deregistered).
    interest: Option<Interest>,
    /// Received-but-unparsed bytes (may hold pipelined requests).
    rbuf: Vec<u8>,
    /// Serialized response being flushed.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests served on this connection (for the keep-alive cap).
    served: usize,
    /// Current request's absolute deadline.
    deadline: Instant,
    /// Lazy timer cancellation: only a firing with the latest generation
    /// is honored.
    timer_gen: u64,
    close_after_write: bool,
    /// Close via the Draining phase (response written after a partial
    /// request read — unread bytes would otherwise trigger an RST).
    linger_after_write: bool,
    /// Bytes swallowed while Draining.
    drained: usize,
}

struct Reactor<'a> {
    shared: &'a Shared,
    poller: Box<dyn Poller>,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation counter; bumped on every (re)allocation.
    gens: Vec<u32>,
    free: Vec<usize>,
    timer: TimerWheel,
    open: usize,
}

/// Run the reactor until shutdown: returns once every connection has
/// closed. Workers must already be consuming `shared.tasks`.
pub(crate) fn run(listener: TcpListener, shared: &Arc<Shared>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = new_poller()?;
    poller.register(listener.as_raw_fd(), LISTEN_TOKEN, Interest::Read)?;
    poller.register(shared.wakeup.read_fd(), WAKE_TOKEN, Interest::Read)?;

    let mut reactor = Reactor {
        shared,
        poller,
        conns: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        timer: TimerWheel::new(TICK, SLOTS, Instant::now()),
        open: 0,
    };
    let mut events: Vec<Event> = Vec::new();
    let mut expired: Vec<(u64, u64)> = Vec::new();
    let mut accepting = true;

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            if accepting {
                accepting = false;
                let _ = reactor.poller.deregister(listener.as_raw_fd());
            }
            // Connections not owed a response close now; Executing and
            // Writing ones finish flushing first (and close then, since
            // `stop` forces `close` on every completion).
            reactor.close_quiescent();
            if reactor.open == 0 {
                return Ok(());
            }
        }

        let timeout = reactor.timer.next_timeout(Instant::now());
        reactor.poller.wait(&mut events, timeout)?;
        shared
            .metrics
            .reactor_wakeups_total
            .fetch_add(1, Ordering::Relaxed);

        for event in std::mem::take(&mut events) {
            match event.token {
                WAKE_TOKEN => shared.wakeup.drain(),
                LISTEN_TOKEN => {
                    if accepting {
                        reactor.accept_all(&listener);
                    }
                }
                _ => reactor.on_event(event),
            }
        }

        while let Some(completion) = shared.completions.pop() {
            reactor.on_completion(completion);
        }

        reactor.timer.advance(Instant::now(), &mut expired);
        for (tok, timer_gen) in expired.drain(..) {
            reactor.on_timer(tok, timer_gen);
        }
    }
}

impl Reactor<'_> {
    fn eagain(&self) {
        self.shared
            .metrics
            .eagain_total
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Accept until the backlog is dry.
    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.eagain();
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (ECONNABORTED
                // and friends): skip the connection, keep the backlog
                // draining.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Nagle + the peer's delayed ACK would add ~40ms to every
        // response on a kept-alive connection (the body segment sits
        // behind the header segment waiting for an ACK the client delays).
        let _ = stream.set_nodelay(true);

        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        let gen = self.gens[slot];
        let now = Instant::now();
        // The first request's deadline is stamped at accept: a client
        // that connects and sends nothing holds its slot for one deadline,
        // not forever.
        let deadline = now + self.shared.config.deadline;

        let fd = stream.as_raw_fd();
        if self
            .poller
            .register(fd, token(slot, gen), Interest::Read)
            .is_err()
        {
            // Out of epoll watches — shed the connection.
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            gen,
            phase: Phase::Reading,
            interest: Some(Interest::Read),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            served: 0,
            deadline,
            timer_gen: 0,
            close_after_write: false,
            linger_after_write: false,
            drained: 0,
        });
        self.open += 1;
        let metrics = &self.shared.metrics;
        metrics.connections_total.fetch_add(1, Ordering::Relaxed);
        metrics.open_connections.fetch_add(1, Ordering::Relaxed);
        metrics.transition(None, Some(ConnState::Reading));
        self.arm(slot, deadline);
    }

    /// Close and free a connection; dropping the stream closes the fd.
    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        if conn.interest.is_some() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        let metrics = &self.shared.metrics;
        metrics.transition(Some(conn.phase.state()), None);
        metrics.open_connections.fetch_sub(1, Ordering::Relaxed);
        self.open -= 1;
        self.free.push(slot);
    }

    /// Close every connection the daemon owes nothing to (shutdown
    /// drain): Idle and Draining ones silently, Reading ones mid-request
    /// (the request will never be served). Executing and Writing
    /// connections are left to finish.
    fn close_quiescent(&mut self) {
        for slot in 0..self.conns.len() {
            if let Some(conn) = &self.conns[slot] {
                if matches!(conn.phase, Phase::Idle | Phase::Reading | Phase::Draining) {
                    self.close(slot);
                }
            }
        }
    }

    /// Arm the connection's (single) timer for `due`, invalidating any
    /// previously armed one.
    fn arm(&mut self, slot: usize, due: Instant) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.timer_gen += 1;
        self.timer
            .arm(due, token(slot, conn.gen), conn.timer_gen, Instant::now());
    }

    /// Invalidate the connection's armed timer (lazy: the wheel entry
    /// stays and is dropped when it fires with a stale generation).
    fn cancel_timer(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.timer_gen += 1;
        }
    }

    /// Reconcile the poller with the interest this connection wants.
    fn set_interest(&mut self, slot: usize, want: Option<Interest>) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.interest == want {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let tok = token(slot, conn.gen);
        let result = match (conn.interest, want) {
            (None, Some(interest)) => self.poller.register(fd, tok, interest),
            (Some(_), Some(interest)) => self.poller.modify(fd, tok, interest),
            (Some(_), None) => self.poller.deregister(fd),
            (None, None) => Ok(()),
        };
        match result {
            Ok(()) => conn.interest = want,
            // A poller that cannot track the fd leaves the connection
            // undeliverable — drop it.
            Err(_) => self.close(slot),
        }
    }

    fn set_phase(&mut self, slot: usize, phase: Phase) {
        if let Some(conn) = self.conns[slot].as_mut() {
            if conn.phase != phase {
                self.shared
                    .metrics
                    .transition(Some(conn.phase.state()), Some(phase.state()));
                conn.phase = phase;
            }
        }
    }

    /// Route a readiness event to the connection's current phase.
    fn on_event(&mut self, event: Event) {
        let (slot, gen) = split_token(event.token);
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        if conn.gen != gen {
            return; // stale: the slot was reused since this event was queued
        }
        match conn.phase {
            Phase::Reading | Phase::Idle => {
                if event.readable || event.hangup {
                    self.on_readable(slot);
                }
            }
            Phase::Writing => {
                if event.writable || event.hangup {
                    self.flush(slot);
                }
            }
            Phase::Draining => self.on_drain(slot),
            // Deregistered while executing; a straggler event (queued
            // before the deregister) is ignored.
            Phase::Executing => {}
        }
    }

    /// Pull bytes until `EAGAIN`, a complete request, or EOF.
    fn on_readable(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if !matches!(conn.phase, Phase::Reading | Phase::Idle) {
                // A parsed request moved the connection on; leftover
                // socket bytes wait in the kernel until it comes back.
                return;
            }
            // The socket reads straight into `rbuf`'s tail: room as large
            // as what has arrived so far (within the two bounds) is
            // zeroed, filled, and the unfilled rest dropped again.
            let filled = conn.rbuf.len();
            let room = filled.clamp(READ_MIN, READ_CHUNK);
            conn.rbuf.resize(filled + room, 0);
            let read = conn.stream.read(&mut conn.rbuf[filled..]);
            conn.rbuf.truncate(filled + read.as_ref().map_or(0, |&n| n));
            match read {
                Ok(0) => break, // EOF
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.eagain();
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
            if conn.phase == Phase::Idle {
                // First byte of the next request on a kept-alive
                // connection stamps a fresh deadline: the time spent idle
                // between requests is the idle timer's, not this
                // request's.
                let deadline = Instant::now() + self.shared.config.deadline;
                conn.deadline = deadline;
                self.set_phase(slot, Phase::Reading);
                self.arm(slot, deadline);
            }
            self.advance_parse(slot);
        }

        // EOF. An idle or empty connection closed cleanly; a request cut
        // off mid-bytes can never complete — tell the client, which may
        // have shut down only its write side and still be reading.
        let Some(conn) = self.conns[slot].as_ref() else {
            return;
        };
        if conn.phase == Phase::Idle || conn.rbuf.is_empty() {
            self.close(slot);
            return;
        }
        self.shared.metrics.record("parse", 400);
        let response = Response::error(400, "truncated request");
        self.respond(slot, &response, false);
    }

    /// Try to complete a request out of `rbuf`; on success hand it to the
    /// worker pool (or answer `503` when the pool's queue is full).
    fn advance_parse(&mut self, slot: usize) {
        let shared = self.shared;
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.phase != Phase::Reading {
            return;
        }
        match try_parse(&conn.rbuf, &shared.limits) {
            Ok(ParseStatus::NeedMore) => {}
            Ok(ParseStatus::Complete { request, consumed }) => {
                conn.rbuf.drain(..consumed);
                conn.served += 1;
                let force_close = conn.served >= shared.config.keep_alive_requests.max(1);
                let task = Task {
                    token: token(slot, conn.gen),
                    request,
                    deadline: conn.deadline,
                    force_close,
                };
                // The gauge is one atomic incremented here and decremented
                // at pop. Incrementing *before* the push and undoing on
                // rejection means a pop can never decrement ahead of its
                // push's increment; publishing `try_push`'s depth instead
                // would let concurrent updates land out of order and leave
                // the gauge stale.
                shared.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                match shared.tasks.try_push(task) {
                    Ok(_) => {
                        self.set_phase(slot, Phase::Executing);
                        self.cancel_timer(slot);
                        self.set_interest(slot, None);
                    }
                    Err(_) => {
                        // Admission control: the door is the parse
                        // boundary — a connection costs a slab slot, only a
                        // complete request costs a queue slot.
                        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        shared
                            .metrics
                            .rejected_total
                            .fetch_add(1, Ordering::Relaxed);
                        shared.metrics.record("admission", 503);
                        let response = Response::error(503, "queue full")
                            .with_header("Retry-After", retry_after_value(&shared.config));
                        self.respond(slot, &response, false);
                    }
                }
            }
            Err(err) => {
                shared.metrics.record("parse", err.status());
                let response = Response::error(err.status(), &err.detail());
                self.respond(slot, &response, true);
            }
        }
    }

    /// Serialize an error/rejection response the reactor produced itself
    /// and start flushing it; always closes afterwards. `partial_read`
    /// requests a lingering close (unread request bytes would make a
    /// plain close RST the response away).
    fn respond(&mut self, slot: usize, response: &Response, partial_read: bool) {
        let bytes = serialize_response(response, true);
        let linger = partial_read
            || self.conns[slot]
                .as_ref()
                .is_some_and(|c| !c.rbuf.is_empty());
        self.start_write(slot, bytes, true, linger);
    }

    /// Begin flushing `bytes`; the write budget is the request deadline
    /// floored by the error-write grace: a `504`/`408` is written *because*
    /// the deadline passed, and must still be flushable.
    fn start_write(&mut self, slot: usize, bytes: Vec<u8>, close: bool, linger: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.wbuf = bytes;
        conn.wpos = 0;
        conn.close_after_write = close;
        conn.linger_after_write = linger;
        let due = conn.deadline.max(Instant::now() + ERROR_WRITE_GRACE);
        self.set_phase(slot, Phase::Writing);
        // No read interest while writing: a level-triggered poller would
        // spin on buffered request bytes we are not ready to parse.
        self.set_interest(slot, None);
        self.arm(slot, due);
        self.flush(slot);
    }

    /// Write until done or `EAGAIN`; register write interest only when
    /// the optimistic write actually blocks.
    fn flush(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.phase != Phase::Writing {
                return;
            }
            if conn.wpos >= conn.wbuf.len() {
                self.write_done(slot);
                return;
            }
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.eagain();
                    self.set_interest(slot, Some(Interest::Write));
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    /// The response is fully flushed: close, drain, or return to the
    /// keep-alive cycle.
    fn write_done(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.wbuf = Vec::new();
        conn.wpos = 0;
        let close = conn.close_after_write;
        let linger = conn.linger_after_write;
        if close {
            if linger {
                self.enter_drain(slot);
            } else {
                self.close(slot);
            }
            return;
        }
        if self.shared.stop.load(Ordering::SeqCst) {
            self.close(slot);
            return;
        }
        let now = Instant::now();
        if !conn.rbuf.is_empty() {
            // The next pipelined request is already buffered; its
            // deadline starts now, when the daemon turns to it — not while
            // it waited behind the response just flushed.
            let deadline = now + self.shared.config.deadline;
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            conn.deadline = deadline;
            self.set_phase(slot, Phase::Reading);
            self.set_interest(slot, Some(Interest::Read));
            self.arm(slot, deadline);
            self.advance_parse(slot);
        } else {
            let idle_due = now + self.shared.config.idle_timeout;
            self.set_phase(slot, Phase::Idle);
            self.set_interest(slot, Some(Interest::Read));
            self.arm(slot, idle_due);
        }
    }

    /// Lingering close: FIN the write side (delivering the response),
    /// then swallow whatever the client keeps sending, bounded in time
    /// (`LINGER_DRAIN`) and bytes (`LINGER_DRAIN_MAX`).
    fn enter_drain(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.drained = 0;
        self.set_phase(slot, Phase::Draining);
        self.set_interest(slot, Some(Interest::Read));
        self.arm(slot, Instant::now() + LINGER_DRAIN);
        self.on_drain(slot);
    }

    fn on_drain(&mut self, slot: usize) {
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.phase != Phase::Draining {
                return;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    conn.drained += n;
                    if conn.drained >= LINGER_DRAIN_MAX {
                        self.close(slot);
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.eagain();
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    /// A worker finished a request: route the serialized response back to
    /// the connection, unless the connection is gone or its slot was
    /// reused (stale token).
    fn on_completion(&mut self, completion: Completion) {
        let (slot, gen) = split_token(completion.token);
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        if conn.gen != gen || conn.phase != Phase::Executing {
            return;
        }
        match completion.bytes {
            // Handler panic: drop the connection without a response —
            // what the handler got through before it panicked is unknown,
            // so there is nothing truthful to say.
            None => self.close(slot),
            Some(bytes) => self.start_write(slot, bytes, completion.close, false),
        }
    }

    /// An armed deadline fired (and is current — stale generations were
    /// filtered by the caller's match against `timer_gen`).
    fn on_timer(&mut self, tok: u64, timer_gen: u64) {
        let (slot, gen) = split_token(tok);
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        if conn.gen != gen || conn.timer_gen != timer_gen {
            return; // cancelled or superseded
        }
        match conn.phase {
            Phase::Reading => {
                // The request deadline passed before the request finished
                // arriving (a slow or stalled sender): 408.
                let metrics = &self.shared.metrics;
                metrics.timeout_total.fetch_add(1, Ordering::Relaxed);
                metrics.record("parse", 408);
                let response = Response::error(408, "deadline exceeded");
                self.respond(slot, &response, true);
            }
            // Idle reap is silent — there is no request to answer.
            Phase::Idle => self.close(slot),
            // The write grace is spent; nothing more the daemon owes.
            Phase::Writing => self.close(slot),
            Phase::Draining => self.close(slot),
            // Executing arms no timer; a current-generation firing here
            // cannot happen.
            Phase::Executing => {}
        }
    }
}
