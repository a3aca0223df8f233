//! The `/route` hot path's allocation budget, and what sharding keeps
//! resident.
//!
//! After warm-up, one `adaptive` `k:10` request, run to completion on the
//! reactor that read it — socket read, HTTP and JSON parse, analysis,
//! choose → context → score, body write, socket write — allocates a small
//! fixed number of times: the request's own strings and the vectors the
//! outcome returns. The engine's scratch is recycled per thread and the
//! response body is written straight into one `String`, so a per-request
//! `RouteScratch::default()` (some thirty buffers) or a `Json` response tree (a
//! node and a key `String` per field) would blow the budget and fail here.
//! A proxy's backend request (`"shard": 0, "shards": 2`) pays besides only
//! for its block's member list.
//!
//! A state built with the benchmark's in-process scatter is the one
//! catalog plus a member list per shard, so the bytes a state keeps live
//! must not depend on the shard count.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use common::{fixture_catalog, fixture_store};
use dbselect_core::category_summary::CategoryWeighting;
use selection::ShrinkageMode;
use server::state::{Algo, ServingState};
use server::{Server, ServerConfig};
use store::catalog::StoredCatalog;
use store::snapshot::ServingSnapshot;
use store::StoredDatabase;

/// Most allocations one warmed-up request may make, process-wide. Measured
/// at 42 when this budget was set (44 while the uncertainty test collected
/// its query words per request and counted the unshrunk context twice, 46
/// while a worker pool ran `/route`, 129 before the body writer and the
/// recycled scratch; this fixture ranks six databases, and a ten-entry
/// `Json` tree costs more). The slack of seven absorbs a toolchain
/// upgrade's drift, not a new set of buffers: a per-request scratch alone
/// adds well over seven.
const BUDGET: u64 = 49;

/// The same for a backend's `{"shard":0,"shards":2}` request, with the
/// same slack. Measured at 46 when this budget was set (49 for a
/// plain `/route` on a daemon started with two shards, which scored both
/// one after the other, before the shard moved into the request).
const BACKEND_BUDGET: u64 = 53;

/// The same for an `lm` request, with the same slack. LM's kernel reads no
/// `cf`, so its request hands scoring the unshrunk context the choice read
/// instead of counting one over the chosen summaries. Measured at 42 when
/// this budget was set (44 before).
const LM_BUDGET: u64 = 49;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, process-wide.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// The counters are process-wide: the tests of this file take turns.
static TURN: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomics and
// touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as in `alloc`; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The fixture's six databases sixteen times over: beside 96 databases'
/// columns, the few machine words a state spends per engine are noise.
fn wide_catalog() -> StoredCatalog {
    let mut store = fixture_store(1.0);
    let originals = store.databases.clone();
    for copy in 1..16 {
        store
            .databases
            .extend(originals.iter().map(|db| StoredDatabase {
                name: format!("{}-{copy}", db.name),
                ..db.clone()
            }));
    }
    StoredCatalog::freeze(store, CategoryWeighting::BySize)
}

#[test]
fn a_warm_route_request_stays_within_its_allocation_budget() {
    let runs = [
        ("cori", "", BUDGET),
        ("cori", r#","shard":0,"shards":2"#, BACKEND_BUDGET),
        ("lm", "", LM_BUDGET),
    ];
    for (algo, shard, budget) in runs {
        let least = warm_route_allocations(algo, shard);
        eprintln!("allocations per warmed-up {algo}{shard} /route request: {least}");
        assert!(
            least <= budget,
            "{least} allocations per {algo}{shard} request exceed the budget of {budget}"
        );
    }
}

/// Sharding a state adds member lists, not sub-catalogs: what a 4-shard
/// state keeps live is what the 1-shard state keeps, to within a tenth of
/// the catalog's own column bytes. (A copy of the catalog per shard set
/// would add all of them.)
#[test]
fn a_sharded_state_keeps_one_catalog_resident() {
    let _turn = TURN.lock().expect("no test panics holding the turn");
    let frozen = wide_catalog();
    let live_bytes_of = |shards: usize| {
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let snapshot = ServingSnapshot::from_stored(&frozen);
        let state = ServingState::from_snapshot_sharded(snapshot, String::new(), 0, shards);
        let live = LIVE_BYTES.load(Ordering::Relaxed) - before;
        let scatter = state.sharded_engine(Algo::Cori, ShrinkageMode::Adaptive);
        assert_eq!(scatter.map_or(1, |engine| engine.shard_count()), shards);
        (live, state.catalog().resident_bytes())
    };
    // Once unmeasured: whatever the first build initialises for the process.
    live_bytes_of(1);
    let (monolithic, resident) = live_bytes_of(1);
    let (sharded, _) = live_bytes_of(4);
    eprintln!("live bytes: 1 shard {monolithic}, 4 shards {sharded}; catalog {resident}");
    assert!(
        sharded <= monolithic + resident / 10,
        "4 shards keep {sharded} bytes live, 1 shard {monolithic}: more than a tenth \
         of the catalog's {resident} apart"
    );
}

/// The least number of allocations one warmed-up `adaptive` `k:10`
/// request for `algo`, with the body fields `shard` appended, costs a
/// daemon serving the fixture.
fn warm_route_allocations(algo: &str, shard: &str) -> u64 {
    let _turn = TURN.lock().expect("no test panics holding the turn");
    let snapshot = ServingSnapshot::from_stored(&fixture_catalog(1.0));
    let state = ServingState::from_snapshot(snapshot, String::new(), 0);
    let config = ServerConfig {
        workers: 1,
        keep_alive_requests: usize::MAX,
        ..ServerConfig::default()
    };
    let daemon = Server::bind(config, state).expect("bind");
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || daemon.run().expect("run"));

    let body = format!(
        r#"{{"query":"heart blood stadium","algo":"{algo}","shrinkage":"adaptive","k":10{shard}}}"#
    );
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
                assert!(body.contains("\"ranking\":[{"), "{body}");
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

    let shutdown = "POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    stream.write_all(shutdown.as_bytes()).expect("write");
    let _ = stream.read(&mut buffer);
    handle.join().expect("daemon exits cleanly");
    least
}
