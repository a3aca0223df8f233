//! The `/route` hot path's allocation budget.
//!
//! After warm-up, one `adaptive` `k:10` request through the reactor — socket
//! read, HTTP and JSON parse, analysis, choose → context → score, body
//! write, socket write — allocates a small fixed number of times: the
//! request's own strings and the vectors the outcome returns. The engine's
//! scratch is recycled per thread and the response body is written straight
//! into one `String`, so a per-request `RouteScratch::default()` (fifteen
//! buffers) or a `Json` response tree (a node and a key `String` per field)
//! would blow the budget and fail here.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

use common::fixture_catalog;
use server::state::ServingState;
use server::{ServeMode, Server, ServerConfig};

/// Most allocations one warmed-up request may make, process-wide. Measured
/// at 45 when this budget was set, against 129 at the parent of that commit
/// (this fixture ranks six databases; a ten-entry `Json` tree costs more).
/// The slack absorbs a toolchain upgrade's drift, not a new set of buffers:
/// a per-request scratch alone adds fifteen.
const BUDGET: u64 = 52;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic and
// touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_warm_route_request_stays_within_its_allocation_budget() {
    let state = ServingState::from_frozen(fixture_catalog(1.0), String::new(), 0);
    let config = ServerConfig {
        workers: 1,
        keep_alive_requests: usize::MAX,
        mode: ServeMode::Reactor,
        ..ServerConfig::default()
    };
    let daemon = Server::bind(config, state).expect("bind");
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || daemon.run().expect("run"));

    let body = r#"{"query":"heart blood stadium","algo":"cori","shrinkage":"adaptive","k":10}"#;
    let request = format!(
        "POST /route HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // The same request always draws the same response, so its length is
    // learnt once and every later exchange reads exactly that much into a
    // fixed buffer: the client side of the measured loop allocates nothing.
    let mut buffer = [0u8; 8192];
    stream.write_all(request.as_bytes()).expect("write");
    let mut length = 0;
    let response_len = loop {
        length += stream.read(&mut buffer[length..]).expect("read");
        let text = std::str::from_utf8(&buffer[..length]).expect("utf-8");
        if let Some((head, body)) = text.split_once("\r\n\r\n") {
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            let declared: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse().ok())
                .expect("Content-Length");
            if body.len() == declared {
                assert!(body.contains("\"rank\":1,"), "{body}");
                break length;
            }
        }
    };
    let mut exchange = |stream: &mut TcpStream| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        stream.write_all(request.as_bytes()).expect("write");
        stream
            .read_exact(&mut buffer[..response_len])
            .expect("read");
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    for _ in 0..50 {
        exchange(&mut stream);
    }
    // The least over many exchanges: a stray allocation elsewhere in the
    // process (the test harness) can only add to one sample, never hide a
    // per-request cost.
    let least = (0..200)
        .map(|_| exchange(&mut stream))
        .min()
        .expect("samples");
    eprintln!("allocations per warmed-up /route request: {least}");
    assert!(
        least <= BUDGET,
        "{least} allocations per request exceed the budget of {BUDGET}"
    );

    let shutdown = "POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    stream.write_all(shutdown.as_bytes()).expect("write");
    let _ = stream.read(&mut buffer);
    handle.join().expect("daemon exits cleanly");
}
