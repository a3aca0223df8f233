//! `dbselect` — profile directories of text files as uncooperative
//! databases, persist their content summaries, and route queries with
//! shrinkage-based database selection.
//!
//! ```text
//! dbselect index --out STORE [--sample N | --full] [--threads N] NAME=CATEGORY/PATH=DIR ...
//! dbselect select --store STORE [--algo bgloss|cori|lm|redde]
//!                 [--shrinkage adaptive|always|never] [-k N] WORD ...
//! dbselect catalog --store STORE --out CATALOG [--weighting bysize|uniform]
//! dbselect refresh --catalog CATALOG --chain DIR [--rounds N] [--budget K] NAME=CATEGORY/PATH=DIR ...
//! dbselect route --catalog CATALOG --queries FILE [--algo bgloss|cori|lm]
//!                [--shrinkage adaptive|always|never] [-k N | --k N] [--seed N] [--threads N]
//! dbselect serve (--catalog CATALOG | --tenants DIR) [--addr HOST:PORT]
//!                [--workers N] [--queue N] [--tenant-quota N]
//!                [--deadline-ms N] [--keep-alive-requests N] [--idle-timeout-ms N]
//! dbselect inspect --store STORE [--db NAME]
//! ```

use cli::{
    build_store, inspect, refresh, route, select, CliAlgorithm, DbSpec, IndexOptions,
    RefreshOptions, RouteOptions,
};
use dbselect_core::category_summary::CategoryWeighting;
use selection::ShrinkageMode;
use server::state::{parse_shrinkage, ServingState};
use store::catalog::StoredCatalog;
use store::snapshot::ServingSnapshot;
use store::CollectionStore;

fn main() {
    if let Err(message) = run() {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("index") => cmd_index(&args[1..]),
        Some("select") => cmd_select(&args[1..]),
        Some("catalog") => cmd_catalog(&args[1..]),
        Some("freeze") => cmd_freeze(&args[1..]),
        Some("refresh") => cmd_refresh(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

const USAGE: &str = "\
dbselect — shrinkage-based text database selection

USAGE:
  dbselect index --out STORE [--sample N | --full] [--threads N] NAME=CATEGORY/PATH=DIR ...
  dbselect select --store STORE [--algo bgloss|cori|lm|redde]
                  [--shrinkage adaptive|always|never] [-k N] WORD ...
  dbselect catalog --store STORE --out CATALOG [--weighting bysize|uniform]
  dbselect freeze (--catalog CATALOG | --store STORE [--weighting bysize|uniform])
                  --out SNAPSHOT
  dbselect refresh --catalog CATALOG --chain DIR [--rounds N] [--budget K]
                   [--seed N] [--sample N | --full] [--threads N]
                   [--round-interval-ms N] NAME=CATEGORY/PATH=DIR ...
  dbselect route --catalog CATALOG --queries FILE [--algo bgloss|cori|lm]
                 [--shrinkage adaptive|always|never] [-k N | --k N] [--seed N] [--threads N]
  dbselect serve (--catalog CATALOG | --tenants DIR | --proxy --backends A,B,..)
                 [--addr HOST:PORT]
                 [--workers N] [--queue N] [--tenant-quota N]
                 [--deadline-ms N] [--keep-alive-requests N] [--idle-timeout-ms N]
                 [--retry-after-ms N] [--refresh-interval-ms N]
                 [--proxy-retries N] [--hedge-ms N] [--breaker-threshold N]
                 [--breaker-cooldown-ms N] [--health-interval-ms N]
  dbselect inspect --store STORE [--db NAME]

`catalog` runs the shrinkage EM once and freezes the result (summaries,
fitted λ weights) into a serving catalog; `route` loads the catalog — no
EM at serving time — and evaluates a file of queries (one per line) in
parallel. Rankings are independent of --threads.

`freeze` writes a v4 serving snapshot: the columnar catalog (sample
columns, fitted λ pairs, the category aggregates the shrunk summaries
mix, posting index, γ exponents, LM global model) in serving form, so
loading is a checksummed array read with no EM and no mixing. It
accepts a v1 catalog (migration) or a store (EM + freeze in one step).
`route` and `serve` accept either format and detect it by magic bytes;
a retired v2/v3 snapshot is refused — re-freeze its v1 catalog.

`refresh` runs live summary refresh: each round, a budgeted scheduler
picks the stalest / least-covered databases named by a spec, re-probes
their directories with QBS (or --full), re-fits **only their** shrinkage
mixtures against the pinned base epoch, and appends the touched rows as
a delta to the snapshot chain in --chain DIR (base.snap + numbered
deltas). Replaying the chain is bit-identical to a full freeze of the
same post-refresh state; refresh cost scales with the touched set, not
the catalog. `route` and `serve` accept the chain directory anywhere a
catalog path is accepted. A chain that already holds deltas cannot be
resumed — re-base with a fresh `dbselect freeze`.

`serve` starts `dbselectd`, an HTTP daemon over a frozen catalog:
POST /route and /route_batch rank databases (bit-identical to `route`),
GET /healthz and /metrics report status, POST /admin/reload hot-swaps
the catalog, POST /admin/shutdown exits cleanly. Connections are
persistent (HTTP/1.1 keep-alive): --keep-alive-requests caps requests
per connection, --idle-timeout-ms bounds the wait between them, and
--deadline-ms bounds each request end to end, reads and writes included.
Connection I/O runs on --workers event-driven reactors; each new
connection goes to the one holding the fewest, which multiplexes its
sockets and runs their /route requests itself; as many pool threads
execute every other request.
--refresh-interval-ms N polls
each tenant's source every N ms and hot-swaps newer delta-chain
generations in automatically (no /admin/reload needed); swaps are kept
strictly monotone and a broken chain leaves the serving generation
untouched (counted in dbselectd_catalog_load_failures_total).

`serve --tenants DIR` hosts every snapshot in DIR (one tenant per
*.snap/*.cat file, named by its stem) behind /t/<name>/route,
/t/<name>/route_batch and /t/<name>/admin/reload; bare paths alias the
tenant named `default` (or the first, by name). --tenant-quota caps
in-flight routing requests per tenant (503 + Retry-After beyond it).

`serve --proxy --backends A,B,..` starts a federated proxy instead of a
catalog engine: /route and /route_batch scatter to the listed daemons
(plain `serve` over the same snapshot; backend i of N is sent
\"shard\": i, \"shards\": N with each body and scores only that
contiguous block of the catalog) and merge the partial rankings,
bit-identically to a single monolithic daemon when every backend is
healthy. Failed shard calls are retried
(--proxy-retries, exponential backoff), slow ones hedged (--hedge-ms,
0 disables, default adapts to the backend's p99), and flapping
backends are fenced by per-backend circuit breakers
(--breaker-threshold consecutive failures open the breaker for
--breaker-cooldown-ms; a background health prober every
--health-interval-ms closes it again). When some — but not all —
shards fail, the proxy degrades gracefully: it merges what it has and
marks the response `\"degraded\": true` with the missing shard ids.
--retry-after-ms sets the Retry-After hint on 503s, catalog or proxy.
";

fn cmd_index(args: &[String]) -> Result<(), String> {
    let mut out = None;
    let mut options = IndexOptions::default();
    let mut specs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(next_value(&mut it, "--out")?),
            "--sample" => {
                options.sample_size = next_value(&mut it, "--sample")?
                    .parse()
                    .map_err(|_| "--sample expects an integer".to_string())?;
            }
            "--full" => options.full = true,
            "--threads" => {
                options.threads = next_value(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads expects an integer".to_string())?;
            }
            "--seed" => {
                options.seed = next_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            spec => specs.push(DbSpec::parse(spec)?),
        }
    }
    let out = out.ok_or("index requires --out STORE")?;
    if specs.is_empty() {
        return Err("index requires at least one NAME=CATEGORY/PATH=DIR spec".into());
    }
    let store = build_store(&specs, &options).map_err(|e| e.to_string())?;
    store.save(&out).map_err(|e| e.to_string())?;
    println!(
        "indexed {} databases ({} terms) -> {out}",
        store.databases.len(),
        store.dict.len()
    );
    Ok(())
}

fn cmd_select(args: &[String]) -> Result<(), String> {
    let mut store_path = None;
    let mut algo = CliAlgorithm::default();
    let mut shrinkage = ShrinkageMode::Adaptive;
    let mut k = 5usize;
    let mut words = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => store_path = Some(next_value(&mut it, "--store")?),
            "--algo" => algo = CliAlgorithm::parse(&next_value(&mut it, "--algo")?)?,
            "--shrinkage" => shrinkage = parse_shrinkage(&next_value(&mut it, "--shrinkage")?)?,
            "-k" => {
                k = next_value(&mut it, "-k")?
                    .parse()
                    .map_err(|_| "-k expects an integer".to_string())?;
            }
            "--seed" => parse_seed(&mut it)?,
            word => words.push(word.to_string()),
        }
    }
    let store_path = store_path.ok_or("select requires --store STORE")?;
    if words.is_empty() {
        return Err("select requires at least one query word".into());
    }
    let store = CollectionStore::load(&store_path).map_err(|e| e.to_string())?;
    print!("{}", select(&store, &words, algo, shrinkage, k));
    Ok(())
}

fn cmd_catalog(args: &[String]) -> Result<(), String> {
    let mut store_path = None;
    let mut out = None;
    let mut weighting = CategoryWeighting::BySize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => store_path = Some(next_value(&mut it, "--store")?),
            "--out" => out = Some(next_value(&mut it, "--out")?),
            "--weighting" => {
                weighting = match next_value(&mut it, "--weighting")?.as_str() {
                    "bysize" => CategoryWeighting::BySize,
                    "uniform" => CategoryWeighting::Uniform,
                    other => return Err(format!("unknown weighting `{other}` (bysize|uniform)")),
                };
            }
            other => return Err(format!("unknown catalog option `{other}`")),
        }
    }
    let store_path = store_path.ok_or("catalog requires --store STORE")?;
    let out = out.ok_or("catalog requires --out CATALOG")?;
    let store = CollectionStore::load(&store_path).map_err(|e| e.to_string())?;
    let frozen = StoredCatalog::freeze(store, weighting);
    frozen.save(&out).map_err(|e| e.to_string())?;
    println!(
        "froze {} databases ({} terms, {:?} weighting, λ fit recorded) -> {out}",
        frozen.store.databases.len(),
        frozen.store.dict.len(),
        frozen.weighting,
    );
    Ok(())
}

fn cmd_freeze(args: &[String]) -> Result<(), String> {
    let mut catalog_path = None;
    let mut store_path = None;
    let mut out = None;
    let mut weighting = CategoryWeighting::BySize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--catalog" => catalog_path = Some(next_value(&mut it, "--catalog")?),
            "--store" => store_path = Some(next_value(&mut it, "--store")?),
            "--out" => out = Some(next_value(&mut it, "--out")?),
            "--weighting" => {
                weighting = match next_value(&mut it, "--weighting")?.as_str() {
                    "bysize" => CategoryWeighting::BySize,
                    "uniform" => CategoryWeighting::Uniform,
                    other => return Err(format!("unknown weighting `{other}` (bysize|uniform)")),
                };
            }
            other => return Err(format!("unknown freeze option `{other}`")),
        }
    }
    let out = out.ok_or("freeze requires --out SNAPSHOT")?;
    let frozen = match (catalog_path, store_path) {
        (Some(catalog), None) => StoredCatalog::load(&catalog).map_err(|e| e.to_string())?,
        (None, Some(store)) => {
            let store = CollectionStore::load(&store).map_err(|e| e.to_string())?;
            StoredCatalog::freeze(store, weighting)
        }
        _ => {
            return Err("freeze requires exactly one of --catalog CATALOG or --store STORE".into())
        }
    };
    let snapshot = ServingSnapshot::from_stored(&frozen);
    snapshot.save(&out).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "froze {} databases ({} terms, {} posting terms) -> {out} ({bytes} bytes, v4 snapshot)",
        snapshot.catalog.len(),
        snapshot.dict.len(),
        snapshot.catalog.posting_index().len(),
    );
    Ok(())
}

fn cmd_refresh(args: &[String]) -> Result<(), String> {
    let mut catalog_path = None;
    let mut chain_dir = None;
    let mut options = RefreshOptions::default();
    let mut specs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--catalog" => catalog_path = Some(next_value(&mut it, "--catalog")?),
            "--chain" => chain_dir = Some(next_value(&mut it, "--chain")?),
            "--rounds" => {
                options.rounds = next_value(&mut it, "--rounds")?
                    .parse()
                    .map_err(|_| "--rounds expects an integer".to_string())?;
            }
            "--budget" => {
                options.budget = next_value(&mut it, "--budget")?
                    .parse()
                    .map_err(|_| "--budget expects an integer".to_string())?;
            }
            "--seed" => {
                options.seed = next_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--sample" => {
                options.sample_size = next_value(&mut it, "--sample")?
                    .parse()
                    .map_err(|_| "--sample expects an integer".to_string())?;
            }
            "--full" => options.full = true,
            "--threads" => {
                options.threads = next_value(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads expects an integer".to_string())?;
            }
            "--round-interval-ms" => {
                let ms: u64 = next_value(&mut it, "--round-interval-ms")?
                    .parse()
                    .map_err(|_| "--round-interval-ms expects an integer".to_string())?;
                options.round_interval = Some(std::time::Duration::from_millis(ms));
            }
            spec => specs.push(DbSpec::parse(spec)?),
        }
    }
    let catalog_path = catalog_path.ok_or("refresh requires --catalog CATALOG")?;
    let chain_dir = chain_dir.ok_or("refresh requires --chain DIR")?;
    let report = refresh(
        &catalog_path,
        std::path::Path::new(&chain_dir),
        &specs,
        &options,
    )
    .map_err(|e| e.to_string())?;
    print!("{report}");
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let mut catalog_path = None;
    let mut queries_path = None;
    let mut options = RouteOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--catalog" => catalog_path = Some(next_value(&mut it, "--catalog")?),
            "--queries" => queries_path = Some(next_value(&mut it, "--queries")?),
            "--algo" => options.algo = CliAlgorithm::parse(&next_value(&mut it, "--algo")?)?,
            "--shrinkage" => {
                options.shrinkage = parse_shrinkage(&next_value(&mut it, "--shrinkage")?)?;
            }
            "-k" | "--k" => {
                options.k = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| format!("{arg} expects an integer"))?;
            }
            "--seed" => parse_seed(&mut it)?,
            "--threads" => {
                options.threads = next_value(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads expects an integer".to_string())?;
            }
            other => return Err(format!("unknown route option `{other}`")),
        }
    }
    let catalog_path = catalog_path.ok_or("route requires --catalog CATALOG")?;
    let queries_path = queries_path.ok_or("route requires --queries FILE")?;
    let state = ServingState::load(&catalog_path, 0).map_err(|e| format!("{catalog_path}: {e}"))?;
    let lines: Vec<String> = std::fs::read_to_string(&queries_path)
        .map_err(|e| format!("{queries_path}: {e}"))?
        .lines()
        .map(str::to_string)
        .collect();
    print!("{}", route(&state, &lines, &options));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut catalog_path = None;
    let mut tenants_dir = None;
    let mut proxy = false;
    let mut proxy_config = server::ProxyConfig::default();
    let mut config = server::ServerConfig {
        addr: "127.0.0.1:7700".to_string(),
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--catalog" => catalog_path = Some(next_value(&mut it, "--catalog")?),
            "--tenants" => tenants_dir = Some(next_value(&mut it, "--tenants")?),
            "--addr" => config.addr = next_value(&mut it, "--addr")?,
            "--workers" => {
                config.workers = next_value(&mut it, "--workers")?
                    .parse()
                    .map_err(|_| "--workers expects an integer".to_string())?;
            }
            "--queue" => {
                config.queue_capacity = next_value(&mut it, "--queue")?
                    .parse()
                    .map_err(|_| "--queue expects an integer".to_string())?;
            }
            "--deadline-ms" => {
                let ms: u64 = next_value(&mut it, "--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms expects an integer".to_string())?;
                config.deadline = std::time::Duration::from_millis(ms);
            }
            "--keep-alive-requests" => {
                config.keep_alive_requests = next_value(&mut it, "--keep-alive-requests")?
                    .parse()
                    .map_err(|_| "--keep-alive-requests expects an integer".to_string())?;
            }
            "--idle-timeout-ms" => {
                let ms: u64 = next_value(&mut it, "--idle-timeout-ms")?
                    .parse()
                    .map_err(|_| "--idle-timeout-ms expects an integer".to_string())?;
                config.idle_timeout = std::time::Duration::from_millis(ms);
            }
            "--tenant-quota" => {
                config.tenant_quota = next_value(&mut it, "--tenant-quota")?
                    .parse()
                    .map_err(|_| "--tenant-quota expects an integer (0 = unlimited)".to_string())?;
            }
            "--retry-after-ms" => {
                let ms: u64 = next_value(&mut it, "--retry-after-ms")?
                    .parse()
                    .map_err(|_| "--retry-after-ms expects an integer".to_string())?;
                config.retry_after = std::time::Duration::from_millis(ms);
            }
            "--proxy" => proxy = true,
            "--backends" => {
                proxy_config.backends = next_value(&mut it, "--backends")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--proxy-retries" => {
                proxy_config.retries = next_value(&mut it, "--proxy-retries")?
                    .parse()
                    .map_err(|_| "--proxy-retries expects an integer".to_string())?;
            }
            "--hedge-ms" => {
                let ms: u64 = next_value(&mut it, "--hedge-ms")?
                    .parse()
                    .map_err(|_| "--hedge-ms expects an integer (0 = off)".to_string())?;
                proxy_config.hedge = if ms == 0 {
                    server::HedgePolicy::Off
                } else {
                    server::HedgePolicy::Fixed(std::time::Duration::from_millis(ms))
                };
            }
            "--breaker-threshold" => {
                proxy_config.breaker_failures = next_value(&mut it, "--breaker-threshold")?
                    .parse()
                    .map_err(|_| "--breaker-threshold expects an integer".to_string())?;
            }
            "--breaker-cooldown-ms" => {
                let ms: u64 = next_value(&mut it, "--breaker-cooldown-ms")?
                    .parse()
                    .map_err(|_| "--breaker-cooldown-ms expects an integer".to_string())?;
                proxy_config.breaker_cooldown = std::time::Duration::from_millis(ms);
            }
            "--health-interval-ms" => {
                let ms: u64 = next_value(&mut it, "--health-interval-ms")?
                    .parse()
                    .map_err(|_| "--health-interval-ms expects an integer".to_string())?;
                proxy_config.health_interval = std::time::Duration::from_millis(ms);
            }
            "--refresh-interval-ms" => {
                let ms: u64 = next_value(&mut it, "--refresh-interval-ms")?
                    .parse()
                    .map_err(|_| "--refresh-interval-ms expects an integer".to_string())?;
                config.refresh_interval = Some(std::time::Duration::from_millis(ms));
            }
            "--debug-sleep" => config.debug_sleep = true,
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    if proxy {
        if catalog_path.is_some() || tenants_dir.is_some() {
            return Err("serve --proxy takes neither --catalog nor --tenants".to_string());
        }
        if proxy_config.backends.is_empty() {
            return Err("serve --proxy requires --backends HOST:PORT,HOST:PORT,..".to_string());
        }
        let backends = proxy_config.backends.clone();
        config.proxy = Some(proxy_config);
        let daemon = server::Server::bind_proxy(config).map_err(|e| e.to_string())?;
        println!(
            "dbselectd proxy listening on {} ({} backends: {})",
            daemon.local_addr(),
            backends.len(),
            backends.join(", "),
        );
        return daemon.run().map_err(|e| e.to_string());
    }
    let daemon = match (catalog_path, tenants_dir) {
        (Some(_), Some(_)) => {
            return Err("serve takes either --catalog or --tenants, not both".to_string())
        }
        (None, None) => {
            return Err(
                "serve requires --catalog CATALOG, --tenants DIR, or --proxy --backends"
                    .to_string(),
            )
        }
        (Some(catalog_path), None) => {
            let state = server::state::ServingState::load(&catalog_path, config.cache_capacity)
                .map_err(|e| format!("{catalog_path}: {e}"))?;
            let daemon = server::Server::bind(config, state).map_err(|e| e.to_string())?;
            println!(
                "dbselectd listening on {} (catalog {catalog_path})",
                daemon.local_addr()
            );
            daemon
        }
        (None, Some(dir)) => {
            let manifest = store::manifest::TenantManifest::scan(std::path::Path::new(&dir))
                .map_err(|e| format!("{dir}: {e}"))?;
            let mut states = Vec::with_capacity(manifest.tenants.len());
            for entry in &manifest.tenants {
                let path = entry.path.to_str().ok_or("non-UTF-8 snapshot path")?;
                let state = server::state::ServingState::load(path, config.cache_capacity)
                    .map_err(|e| format!("{path}: {e}"))?;
                states.push((entry.name.clone(), state));
            }
            let names: Vec<String> = states.iter().map(|(n, _)| n.clone()).collect();
            let daemon = server::Server::bind_tenants(config, states).map_err(|e| e.to_string())?;
            println!(
                "dbselectd listening on {} ({} tenants from {dir}: {})",
                daemon.local_addr(),
                names.len(),
                names.join(", "),
            );
            daemon
        }
    };
    daemon.run().map_err(|e| e.to_string())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let mut store_path = None;
    let mut db = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => store_path = Some(next_value(&mut it, "--store")?),
            "--db" => db = Some(next_value(&mut it, "--db")?),
            other => return Err(format!("unknown inspect option `{other}`")),
        }
    }
    let store_path = store_path.ok_or("inspect requires --store STORE")?;
    let store = CollectionStore::load(&store_path).map_err(|e| e.to_string())?;
    print!("{}", inspect(&store, db.as_deref()));
    Ok(())
}

fn next_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("missing value for {flag}"))
}

/// Check the `--seed` value of `select` and `route`, which routing accepts
/// and ignores: the engines draw no random numbers.
fn parse_seed(it: &mut std::slice::Iter<'_, String>) -> Result<(), String> {
    let seed = next_value(it, "--seed")?;
    seed.parse::<u64>()
        .map(drop)
        .map_err(|_| "--seed expects an integer".to_string())
}
