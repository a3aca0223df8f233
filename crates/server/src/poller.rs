//! Readiness polling for the reactor: a level-triggered `epoll(7)`
//! [`EpollPoller`], plus the [`Wakeup`] eventfd workers use to interrupt a
//! blocked wait.
//!
//! The workspace is std-only, so the syscalls are declared directly as
//! `extern "C"` items — the symbols resolve through the same libc that
//! std already links, no crate needed. Only the handful of constants the
//! reactor uses are defined, with their values on x86_64 and aarch64
//! Linux, the platforms the daemon targets.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};
use std::time::Duration;

/// What the owner of a registration wants to be told about.
///
/// The reactor's connection state machine only ever waits in one
/// direction at a time (reading a request *or* flushing a response), so
/// the interest is single-valued rather than a bit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    Read,
    Write,
}

/// One readiness event out of [`EpollPoller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer hangup or socket error — the owner should attempt its
    /// pending I/O and let the resulting `0`/`Err` drive the close.
    pub hangup: bool,
}

/// Clamp a timeout to the millisecond `c_int` the syscall takes, rounding
/// up so a 0.4ms deadline does not spin at 0ms.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis().min(i32::MAX as u128) as i64;
            let rounded = if t.subsec_nanos() % 1_000_000 != 0 {
                ms + 1
            } else {
                ms
            };
            rounded.min(i32::MAX as i64) as c_int
        }
    }
}

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// Kernel ABI: packed on x86_64 (the one architecture where the struct is
/// not naturally aligned), natural layout elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

/// The reactor's doorbell: workers [`notify`](Wakeup::notify) after
/// posting a completion, which makes the eventfd readable and pops the
/// reactor out of its `wait`. Notifies add to one kernel counter, so any
/// number of them before a [`drain`](Wakeup::drain) cost the reactor one
/// event, and one read resets the counter.
#[derive(Debug)]
pub struct Wakeup {
    fd: RawFd,
}

impl Wakeup {
    pub fn new() -> io::Result<Wakeup> {
        // SAFETY: no pointers; returns a new fd or -1.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Wakeup { fd })
    }

    /// The fd the reactor registers for `Read` interest.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Ring the doorbell. Never blocks; `EAGAIN` (a counter at its
    /// maximum) already guarantees a pending wakeup, so it is success.
    pub fn notify(&self) {
        let one = 1u64;
        // SAFETY: eight bytes from a live stack slot into an fd we own.
        let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Swallow every pending ring: one read resets the counter to zero.
    pub fn drain(&self) {
        let mut count = 0u64;
        // SAFETY: count is a live, writable eight-byte slot.
        let _ = unsafe { read(self.fd, (&mut count as *mut u64).cast(), 8) };
    }
}

impl Drop for Wakeup {
    fn drop(&mut self) {
        // SAFETY: closing the fd this struct owns, exactly once.
        unsafe { close(self.fd) };
    }
}

/// A level-triggered `epoll(7)` instance.
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

impl EpollPoller {
    pub fn new() -> io::Result<EpollPoller> {
        // SAFETY: no pointers; returns a new fd or -1.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent {
            events: match interest {
                Interest::Read => EPOLLIN | EPOLLRDHUP,
                Interest::Write => EPOLLOUT,
            },
            data: token,
        };
        // SAFETY: event is a live, properly laid out EpollEvent.
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut event) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let mut unused = EpollEvent { events: 0, data: 0 };
        // SAFETY: pre-2.6.9 kernels demand a non-null event for DEL;
        // passing one is harmless everywhere.
        if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut unused) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block up to `timeout` (`None` = indefinitely) and fill `events`
    /// with whatever is ready. Returns the number of events.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let n = loop {
            // SAFETY: buf is a live array of EpollEvents of the given
            // capacity; the kernel fills the first n.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms(timeout),
                )
            };
            if n >= 0 {
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for raw in &self.buf[..n] {
            let bits = raw.events;
            events.push(Event {
                token: raw.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd we created.
        unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd as _;

    fn poller() -> EpollPoller {
        EpollPoller::new().expect("epoll_create1")
    }

    #[test]
    fn wakeup_notify_unblocks_and_drains() {
        let mut poller = poller();
        let wakeup = Wakeup::new().expect("eventfd");
        poller
            .register(wakeup.fd(), 7, Interest::Read)
            .expect("register");
        let mut events = Vec::new();
        // No doorbell: times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "spurious event");

        wakeup.notify();
        wakeup.notify();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Drained, the doorbell goes quiet again.
        wakeup.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "drain left residue");

        // Rings coalesce: ten thousand of them are one event, and one
        // drain silences them all.
        for _ in 0..10_000 {
            wakeup.notify();
        }
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert_eq!(n, 1, "coalesced rings are one event");
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        wakeup.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "one drain resets every ring");
    }

    #[test]
    fn sockets_report_read_and_write_readiness() {
        let mut poller = poller();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).expect("connect");
        let (mut served, _) = listener.accept().expect("accept");
        served.set_nonblocking(true).expect("nonblocking");

        // A fresh socket with empty buffers: writable, not readable.
        poller
            .register(served.as_raw_fd(), 1, Interest::Write)
            .expect("register");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "fresh socket must be writable"
        );

        // Flip to read interest; quiet until the peer sends.
        poller
            .modify(served.as_raw_fd(), 1, Interest::Read)
            .expect("modify");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "nothing to read yet");

        client.write_all(b"ping").expect("write");
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 1 && e.readable),
            "sent bytes must wake read interest"
        );
        let mut buf = [0u8; 8];
        assert_eq!(served.read(&mut buf).expect("read"), 4);

        // Peer hangup surfaces as readable (EOF) and/or hangup.
        drop(client);
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .expect("wait");
        assert!(
            events
                .iter()
                .any(|e| e.token == 1 && (e.readable || e.hangup)),
            "hangup must surface"
        );
        poller.deregister(served.as_raw_fd()).expect("deregister");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "deregistered fd must go silent");
    }
}
