//! A connection reactor: one thread owning the I/O of the connections
//! placed on it, and running the `/route`s they carry.
//!
//! `Server::run` starts one reactor per worker, each registered on its own
//! clone of the listener, so every reactor waiting when a connection
//! arrives wakes, and one of them accepts it. A connection stays on one
//! reactor for life, and a keep-alive one may carry thousands of requests,
//! so the accepting reactor does not simply keep it: it places it on the
//! reactor holding the fewest connections, itself on a tie (it is awake,
//! which a reactor busy running a long `/route` is not), through that
//! reactor's mailbox. Per-reactor counts move at placement, so a burst
//! one reactor drains still spreads evenly.
//!
//! Connections live in a slab, addressed by generation-tagged tokens
//! (`slot | gen << 32`) so an event or completion for a connection that
//! has since closed — and whose slot was reused — is recognized as stale
//! and dropped instead of poking the new tenant (the classic fd-reuse
//! ABA). Each connection is a small state machine:
//!
//! ```text
//!             ┌──────────── /route: executed here, written at once ───────────┐
//!             │                                                               ▼
//!  accept ──► Reading ──► Executing ──── completion + wakeup ────────────► Writing ──► Idle
//!             ▲  ▲        (any other request: task queue, worker pool)       │          │
//!             │  └──────────────────── pipelined bytes ──────────────────────┘          │
//!             └────────────────────────────── next request ─────────────────────────────┘
//!  parse error / 408 / 503 ──► Writing ──► Draining ──► closed   (lingering close)
//! ```
//!
//! Several complete requests in one read are served in a loop, never by
//! recursion, and in order: a pool request stops the loop until its
//! completion is written. A read that completes a request is the last one
//! for that readiness event — whatever the socket still holds waits for
//! the next, which the level-triggered poller reports — so a client that
//! pipelines without pause gets one read's worth of requests (at most
//! `READ_CHUNK` bytes) served per turn of the loop, and the reactor's
//! other connections, timers, completions and accepts get their turn in
//! between.
//!
//! Every deadline — request read, idle reap, write grace, linger bound —
//! is an absolute [`TimerWheel`] entry; there are no per-syscall OS
//! timeouts anywhere on this path. A connection keeps the deadline it
//! currently enforces (`due`); its slab slot keeps the due time of the
//! slot's one live wheel entry. Arming a due no earlier than the live
//! entry's pushes nothing: the entry fires, finds the later due and
//! re-arms for it. Only an earlier due pushes a new entry, bumping the
//! slot's `timer_gen` so that the superseded one is ignored when it fires.
//! So a keep-alive connection extends its idle reap in place however many
//! requests it serves, and a connection accepted into a freed slot takes
//! over the entry its predecessor left. The read deadline is armed only
//! when a request is still incomplete after the read that started it (and
//! at accept, for a connection that never sends one), and the write grace
//! only when a write meets `EAGAIN`. The wheel therefore holds about one
//! entry per slot, i.e. per peak concurrent connection.
//!
//! Interest discipline: a connection waits in at most one direction. A
//! pool request's fd is deregistered while it executes — a
//! level-triggered poller would otherwise spin on a peer hangup until the
//! worker finishes — and every response is written optimistically,
//! switching to write interest only after a real `EAGAIN`. An inline
//! `/route` keeps its read registration throughout: the reactor does not
//! wait while it runs.

use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd as _;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::http::{parse_request, serialize_into, Request, Response};
use crate::metrics::ConnState;
use crate::poller::{EpollPoller, Event, Interest};
use crate::timer::TimerWheel;
use crate::{
    execute_caught, retry_after_value, Completion, Shared, Task, ERROR_WRITE_GRACE, LINGER_DRAIN,
    LINGER_DRAIN_MAX,
};

/// Timer-wheel granularity. Every deadline the daemon enforces is tens of
/// milliseconds or more, so firing up to one tick late is invisible
/// next to the 2s write grace.
const TICK: Duration = Duration::from_millis(20);
const SLOTS: usize = 512;

/// Most bytes offered to one `read` call, and so the most pipelined
/// request bytes one readiness event serves: a read that completes a
/// request ends the event. `rbuf` holds at most one such chunk beyond the
/// request being assembled (a pool request stops the serving loop with
/// the rest of its chunk buffered, and reading waits for its completion),
/// so kernel-buffer backpressure, not memory, absorbs over-eager senders.
const READ_CHUNK: usize = 16 * 1024;

/// Least room offered to one `read` call (a typical request fits).
const READ_MIN: usize = 1024;

/// Largest write buffer a reactor keeps for its next response; a bigger
/// one (a large `/route_batch` body) is freed once flushed.
const WBUF_KEEP: usize = 64 * 1024;

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
    /// Accumulating request bytes; the request deadline is armed while
    /// they stay incomplete. An inline `/route` also executes here.
    Reading,
    /// A parsed pool request is queued or running on a worker; fd
    /// deregistered, no timer (the worker enforces the deadline).
    Executing,
    /// Flushing a serialized response; the write grace is armed once a
    /// write blocks.
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
    rbuf: ReadBuf,
    /// Serialized response being flushed.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests served on this connection (for the keep-alive cap).
    served: usize,
    /// Current request's absolute deadline.
    deadline: Instant,
    /// The deadline the current phase enforces (`None`: none).
    due: Option<Instant>,
    close_after_write: bool,
    /// Close via the Draining phase (response written after a partial
    /// request read — unread bytes would otherwise trigger an RST).
    linger_after_write: bool,
    /// Bytes swallowed while Draining.
    drained: usize,
}

/// A connection's received-but-unparsed bytes, `bytes[..len]`. The
/// vector's own length only grows — zero-filled once, as it does — so
/// the socket reads straight into room that is already initialized.
#[derive(Default)]
struct ReadBuf {
    bytes: Vec<u8>,
    len: usize,
}

impl ReadBuf {
    fn filled(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `room` bytes after the filled ones, to read into.
    fn room(&mut self, room: usize) -> &mut [u8] {
        let end = self.len + room;
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
        }
        &mut self.bytes[self.len..end]
    }

    /// Drop the first `n` filled bytes (a parsed request).
    fn consume(&mut self, n: usize) {
        self.bytes.copy_within(n..self.len, 0);
        self.len -= n;
    }
}

/// What a slab slot keeps across the connections it holds.
#[derive(Default)]
struct Slot {
    /// Bumped on every (re)allocation; tags the slot's tokens.
    gen: u32,
    /// Generation of the slot's live wheel entry: a firing entry with any
    /// other was superseded by an earlier due, and is ignored.
    timer_gen: u64,
    /// Due time of the live entry while it is in the wheel. A connection
    /// that closes leaves it there for the slot's next connection, which
    /// arms no entry while its own deadline is later.
    entry_due: Option<Instant>,
}

struct Reactor<'a> {
    shared: &'a Shared,
    /// This reactor's index: its mailbox, and what its pool tasks carry.
    index: usize,
    poller: EpollPoller,
    conns: Vec<Option<Conn>>,
    /// Per-slot state that outlives a connection, indexed like `conns`.
    slots: Vec<Slot>,
    free: Vec<usize>,
    timer: TimerWheel,
    /// This reactor's share of `dbselectd_reactor_timers`, as last added.
    timers_published: usize,
    open: usize,
    /// Every request is parsed into this one, which keeps its buffers'
    /// capacity; a request handed to the pool is moved out.
    request: Request,
    /// The write buffer the next response is serialized into: a flushed
    /// response's comes back here, so a warm response allocates none.
    spare: Vec<u8>,
}

/// Run reactor `index` until shutdown: returns once every connection
/// placed on it has closed. Workers must already be consuming
/// `shared.tasks`.
pub(crate) fn run(listener: TcpListener, shared: &Shared, index: usize) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mailbox = &shared.mailboxes[index];
    let mut poller = EpollPoller::new()?;
    poller.register(listener.as_raw_fd(), LISTEN_TOKEN, Interest::Read)?;
    poller.register(mailbox.wakeup.fd(), WAKE_TOKEN, Interest::Read)?;

    let mut reactor = Reactor {
        shared,
        index,
        poller,
        conns: Vec::new(),
        slots: Vec::new(),
        free: Vec::new(),
        timer: TimerWheel::new(TICK, SLOTS, Instant::now()),
        timers_published: 0,
        open: 0,
        request: Request::default(),
        spare: Vec::new(),
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
            // `stop` forces `close` on every response).
            reactor.close_quiescent();
            if reactor.open == 0 {
                return Ok(());
            }
        }

        reactor.publish_timers();
        let timeout = reactor.timer.next_timeout(Instant::now());
        reactor.poller.wait(&mut events, timeout)?;
        shared
            .metrics
            .reactor_wakeups_total
            .fetch_add(1, Ordering::Relaxed);

        let mut rung = false;
        for event in events.drain(..) {
            match event.token {
                WAKE_TOKEN => {
                    mailbox.wakeup.drain();
                    rung = true;
                }
                LISTEN_TOKEN => {
                    if accepting {
                        reactor.accept_all(&listener);
                    }
                }
                _ => reactor.on_event(event),
            }
        }

        // A worker (or a placing reactor) pushes before it rings, so a
        // delivery this drain misses rings the doorbell again. A
        // connection placed here during shutdown is admitted only to be
        // closed at the top of the loop.
        if rung {
            while let Some(stream) = mailbox.incoming.pop() {
                reactor.admit(stream);
            }
            while let Some(completion) = mailbox.completions.pop() {
                reactor.on_completion(completion);
            }
        }

        let now = Instant::now();
        reactor.timer.advance(now, &mut expired);
        for (slot, timer_gen) in expired.drain(..) {
            reactor.on_timer(slot, timer_gen, now);
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

    /// Bring this reactor's share of the timers gauge up to date.
    fn publish_timers(&mut self) {
        let live = self.timer.len();
        if live != self.timers_published {
            let delta = (live as u64).wrapping_sub(self.timers_published as u64);
            self.shared
                .metrics
                .reactor_timers
                .fetch_add(delta, Ordering::Relaxed);
            self.timers_published = live;
        }
    }

    /// Accept until the backlog is dry, placing each connection.
    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => self.place(stream),
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

    /// Hand an accepted connection to the reactor holding the fewest,
    /// keeping it when this one is among them. The count moves here, not
    /// at admission, so the next placement already sees it.
    fn place(&mut self, stream: TcpStream) {
        let counts = &self.shared.metrics.reactor_connections;
        let load = |at: usize| counts[at].load(Ordering::Relaxed);
        let mine = load(self.index);
        let target = (0..counts.len())
            .map(|at| (load(at), at))
            .min()
            .filter(|&(least, _)| least < mine)
            .map_or(self.index, |(_, at)| at);
        counts[target].fetch_add(1, Ordering::Relaxed);
        if target == self.index {
            self.admit(stream);
        } else {
            let mailbox = &self.shared.mailboxes[target];
            mailbox.incoming.push(stream);
            mailbox.wakeup.notify();
        }
    }

    /// Take a connection placed on this reactor into the slab, or drop it
    /// when it cannot be watched.
    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            self.shed();
            return;
        }
        // Nagle + the peer's delayed ACK would add ~40ms to every
        // response on a kept-alive connection (the body segment sits
        // behind the header segment waiting for an ACK the client delays).
        let _ = stream.set_nodelay(true);

        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.slots.push(Slot::default());
            self.conns.len() - 1
        });
        let gen = self.slots[slot].gen.wrapping_add(1);
        self.slots[slot].gen = gen;
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
            self.shed();
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            gen,
            phase: Phase::Reading,
            interest: Some(Interest::Read),
            rbuf: ReadBuf::default(),
            wbuf: Vec::new(),
            wpos: 0,
            served: 0,
            deadline,
            due: None,
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
        self.shed();
    }

    /// Take one connection off this reactor's placement count.
    fn shed(&self) {
        self.shared.metrics.reactor_connections[self.index].fetch_sub(1, Ordering::Relaxed);
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

    /// Make `due` the connection's deadline. A live wheel entry due no
    /// later stays and re-arms for `due` when it fires, so extending a
    /// deadline pushes nothing; an earlier `due` pushes a new entry and
    /// supersedes the live one.
    fn arm(&mut self, slot: usize, due: Instant) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.due = Some(due);
        let entry = &mut self.slots[slot];
        if entry.entry_due.is_some_and(|live| live <= due) {
            return;
        }
        entry.timer_gen += 1;
        entry.entry_due = Some(due);
        self.timer
            .arm(due, slot as u64, entry.timer_gen, Instant::now());
    }

    /// Drop the connection's deadline. A live entry stays in the wheel and
    /// lapses when it fires.
    fn cancel_timer(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.due = None;
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
                    self.advance_parse(slot);
                }
            }
            Phase::Draining => self.on_drain(slot),
            // Deregistered while executing; a straggler event (queued
            // before the deregister) is ignored.
            Phase::Executing => {}
        }
    }

    /// Pull bytes until `EAGAIN`, a short read, a read that completes a
    /// request, or EOF.
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
            // as what has arrived so far, within the two bounds.
            let room = conn.rbuf.len.clamp(READ_MIN, READ_CHUNK);
            let n = match conn.stream.read(conn.rbuf.room(room)) {
                Ok(0) => break, // EOF
                Ok(n) => {
                    conn.rbuf.len += n;
                    n
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.eagain();
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            };
            let served = conn.served;
            if conn.phase == Phase::Idle {
                // First byte of the next request on a kept-alive
                // connection stamps a fresh deadline: the time spent idle
                // between requests is the idle timer's, not this
                // request's.
                conn.deadline = Instant::now() + self.shared.config.deadline;
                self.set_phase(slot, Phase::Reading);
            }
            self.advance_parse(slot);
            let completed = self.conns[slot]
                .as_ref()
                .is_none_or(|conn| conn.served != served);
            if n < room || completed {
                // Either the socket held less than was asked for — it is
                // drained, and the level-triggered poller reports what
                // comes next (EOF included) without a read that only says
                // `EAGAIN` — or this read completed a request, and the
                // rest waits its turn behind the reactor's other work.
                return;
            }
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

    /// Serve what `rbuf` holds, in order: each complete `/route` runs here
    /// and its response is written at once, and the loop goes on while
    /// that leaves the connection Reading with bytes buffered; any other
    /// request goes to the worker pool (or is answered `503` when the
    /// pool's queue is full) and stops the loop until its completion.
    fn advance_parse(&mut self, slot: usize) {
        let shared = self.shared;
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.phase != Phase::Reading {
                return;
            }
            let consumed =
                match parse_request(conn.rbuf.filled(), &shared.limits, &mut self.request) {
                    Ok(None) => {
                        // Still incomplete after the read that started it: now
                        // the deadline needs a timer.
                        let deadline = conn.deadline;
                        self.arm(slot, deadline);
                        return;
                    }
                    Ok(Some(consumed)) => consumed,
                    Err(err) => {
                        shared.metrics.record("parse", err.status());
                        let response = Response::error(err.status(), &err.detail());
                        self.respond(slot, &response, true);
                        return;
                    }
                };
            conn.rbuf.consume(consumed);
            conn.served += 1;
            let force_close = conn.served >= shared.config.keep_alive_requests.max(1);
            let deadline = conn.deadline;
            let tok = token(slot, conn.gen);
            self.cancel_timer(slot);

            if shared.runs_inline(&self.request) {
                // The response is written straight into the recycled
                // write buffer.
                let mut out = std::mem::take(&mut self.spare);
                out.clear();
                match execute_caught(shared, &self.request, deadline, force_close, &mut out) {
                    Some(close) => self.start_write(slot, out, close, false),
                    // Handler panic: drop the connection without a
                    // response, as the pool does.
                    None => self.close(slot),
                }
                continue;
            }

            let task = Task {
                reactor: self.index,
                token: tok,
                request: std::mem::take(&mut self.request),
                deadline,
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
            return;
        }
    }

    /// Serialize an error/rejection response the reactor produced itself
    /// and start flushing it; always closes afterwards. `partial_read`
    /// requests a lingering close (unread request bytes would make a
    /// plain close RST the response away).
    fn respond(&mut self, slot: usize, response: &Response, partial_read: bool) {
        let mut bytes = std::mem::take(&mut self.spare);
        bytes.clear();
        serialize_into(&mut bytes, response, true);
        let linger = partial_read
            || self.conns[slot]
                .as_ref()
                .is_some_and(|c| !c.rbuf.is_empty());
        self.start_write(slot, bytes, true, linger);
    }

    /// Begin flushing `bytes`, with no timer: the write grace is armed
    /// only if the optimistic write blocks.
    fn start_write(&mut self, slot: usize, bytes: Vec<u8>, close: bool, linger: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.wbuf = bytes;
        conn.wpos = 0;
        conn.close_after_write = close;
        conn.linger_after_write = linger;
        conn.due = None;
        self.set_phase(slot, Phase::Writing);
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
                    // The first block of this response arms the write
                    // grace: the request deadline floored by
                    // `ERROR_WRITE_GRACE`, since a `504`/`408` is written
                    // *because* the deadline passed and must still be
                    // flushable.
                    let grace = conn
                        .due
                        .is_none()
                        .then(|| conn.deadline.max(Instant::now() + ERROR_WRITE_GRACE));
                    self.eagain();
                    if let Some(due) = grace {
                        self.arm(slot, due);
                    }
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
    /// keep-alive cycle. A buffered next request leaves the connection
    /// Reading for whoever flushed to parse.
    fn write_done(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let flushed = std::mem::take(&mut conn.wbuf);
        if flushed.capacity() <= WBUF_KEEP {
            self.spare = flushed;
        }
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
            conn.deadline = now + self.shared.config.deadline;
            self.set_phase(slot, Phase::Reading);
            self.set_interest(slot, Some(Interest::Read));
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
    /// reused (stale token), then serve whatever was pipelined behind it.
    fn on_completion(&mut self, completion: Completion) {
        let (slot, gen) = split_token(completion.token);
        let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) else {
            return;
        };
        if conn.gen != gen || conn.phase != Phase::Executing {
            return;
        }
        match completion.reply {
            // Handler panic: drop the connection without a response —
            // what the handler got through before it panicked is unknown,
            // so there is nothing truthful to say.
            None => self.close(slot),
            Some((bytes, close)) => {
                self.start_write(slot, bytes, close, false);
                self.advance_parse(slot);
            }
        }
    }

    /// Slot `slot`'s wheel entry fired at `now`. A superseded entry, or
    /// one whose slot holds no connection, is ignored; a deadline the
    /// slot's connection extended (or a later connection brought) since
    /// the entry was pushed re-arms; a deadline that has passed acts on
    /// the phase.
    fn on_timer(&mut self, slot: u64, timer_gen: u64, now: Instant) {
        let slot = slot as usize;
        let entry = &mut self.slots[slot];
        if entry.timer_gen != timer_gen {
            return;
        }
        entry.entry_due = None;
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        match conn.due {
            None => return,
            Some(due) if due > now => {
                self.arm(slot, due);
                return;
            }
            Some(_) => conn.due = None,
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
            // Executing wants no deadline; a passed one cannot be current.
            Phase::Executing => {}
        }
    }
}
