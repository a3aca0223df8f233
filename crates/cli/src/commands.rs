//! The `dbselect` commands: one flag table per command ([`crate::args`]),
//! the code each runs, and the help rendered from the tables.

use std::path::Path;

use dbselect_core::category_summary::CategoryWeighting;
use server::state::{parse_shrinkage, ServingState};
use server::{ProxyConfig, ServerConfig};
use store::catalog::StoredCatalog;
use store::manifest::TenantManifest;
use store::snapshot::ServingSnapshot;
use store::CollectionStore;

use crate::args::Need::{OneOf, Optional, Required, With};
use crate::args::{int, ms, put, Command, Invoke, Outcome};
use crate::{
    build_store, inspect, refresh, route, select, CliAlgorithm, DbSpec, IndexOptions,
    RefreshOptions, RouteOptions,
};

/// Every command, in the order `dbselect --help` lists them.
static COMMANDS: [&dyn Invoke; 7] = [&INDEX, &SELECT, &FREEZE, &REFRESH, &ROUTE, &SERVE, &INSPECT];

/// Run `dbselect` on its arguments (the program name left out).
pub fn run(args: &[String]) -> Outcome {
    let Some(name) = args.first().filter(|a| *a != "--help" && *a != "-h") else {
        print!("{}", help());
        return Ok(());
    };
    match COMMANDS.iter().find(|c| c.name() == name) {
        Some(command) => command.invoke(&args[1..]),
        None => Err(format!("unknown command `{name}`\n{}", help()).into()),
    }
}

/// `dbselect --help`: every command's usage, then how they fit together.
fn help() -> String {
    let usages: String = COMMANDS.iter().map(|c| c.usage()).collect();
    format!("dbselect — shrinkage-based text database selection\n\nUSAGE:\n{usages}{ABOUT}")
}

const ABOUT: &str = "
`freeze --store` runs the shrinkage EM once and writes the v4 serving
snapshot (sample columns, fitted λ pairs, the category aggregates the
shrunk summaries mix, posting index, γ exponents, LM global model),
which loads by a checksummed array read with no EM and no mixing.
`route` and `serve` serve only what `freeze` and `refresh` write, a v4
snapshot or a chain directory; a v1 catalog or a retired v2/v3 snapshot
is refused, naming `freeze --catalog`, which migrates a v1 catalog.
Rankings are independent of the thread count.

A chain starts as `freeze --store STORE --out DIR/base.snap`. Each
`refresh --chain DIR` resumes at the chain's tip: every round re-probes
the stalest databases named by a spec, re-fits only their shrinkage
mixtures against the components the base pinned, and appends the
touched rows as the next numbered delta; replaying the chain is
bit-identical to a full freeze of the same state. Re-basing (folding
refreshed samples into the category aggregates) is a new `freeze`.

`serve` answers POST /route and /route_batch (bit-identical to `route`),
GET /healthz, /readyz and /metrics, POST /admin/reload (a hot swap) and
POST /admin/shutdown, over keep-alive connections; tenants answer under
/t/<name>/, and bare paths alias the tenant `default` (or the first).
A polled chain swaps its newer generations in, strictly monotone. The
proxy sends backend i of N each body with \"shard\": i, \"shards\": N
and merges the partial rankings, bit-identically to one daemon while
every backend answers; when some fail, it merges what it has and marks
the response `\"degraded\": true` with the missing shard ids.
";

fn weighting(value: &str) -> Result<CategoryWeighting, String> {
    match value {
        "bysize" => Ok(CategoryWeighting::BySize),
        "uniform" => Ok(CategoryWeighting::Uniform),
        other => Err(format!("unknown weighting `{other}` (bysize|uniform)")),
    }
}

fn push<T>(list: &mut Vec<T>, value: T) -> Result<(), String> {
    list.push(value);
    Ok(())
}

fn hedge(value: &str) -> Result<server::HedgePolicy, String> {
    Ok(match ms(value)? {
        d if d.is_zero() => server::HedgePolicy::Off,
        d => server::HedgePolicy::Fixed(d),
    })
}

fn backends(value: &str) -> Vec<String> {
    let names = value.split(',').map(str::trim).filter(|s| !s.is_empty());
    names.map(String::from).collect()
}

#[derive(Default)]
struct IndexArgs {
    out: String,
    options: IndexOptions,
    specs: Vec<DbSpec>,
}

#[rustfmt::skip]
static INDEX: Command<IndexArgs> = Command {
    name: "index",
    about: "profile directories of text files (one database each) into a store",
    flags: &[
        (Required, &["--out"], "STORE", "the collection store to write", |o, v| put(&mut o.out, v.into())),
        (Optional, &["--sample"], "N", "target QBS sample size per database (default 300)", |o, v| put(&mut o.options.sample_size, int(v)?)),
        (Optional, &["--full"], "", "read every document instead of sampling", |o, _| put(&mut o.options.full, true)),
        (Optional, &["--threads"], "N", "profiling threads (default: every CPU)", |o, v| put(&mut o.options.threads, int(v)?)),
        (Optional, &["--seed"], "N", "sampling seed (default 42)", |o, v| put(&mut o.options.seed, int(v)?)),
    ],
    positional: Some(("NAME=CATEGORY/PATH=DIR", |o, v| push(&mut o.specs, DbSpec::parse(v)?))),
    run: |a| {
        let store = build_store(&a.specs, &a.options)?;
        store.save(&a.out)?;
        let (databases, terms) = (store.databases.len(), store.dict.len());
        println!("indexed {databases} databases ({terms} terms) -> {}", a.out);
        Ok(())
    },
};

#[derive(Default)]
struct SelectArgs {
    store: String,
    options: RouteOptions,
    words: Vec<String>,
}

#[rustfmt::skip]
static SELECT: Command<SelectArgs> = Command {
    name: "select",
    about: "rank a store's databases for one query",
    flags: &[
        (Required, &["--store"], "STORE", "the collection store to rank", |o, v| put(&mut o.store, v.into())),
        (Optional, &["--algo"], "bgloss|cori|lm|redde", "scoring algorithm (default cori)", |o, v| put(&mut o.options.algo, CliAlgorithm::parse(v)?)),
        (Optional, &["--shrinkage"], "adaptive|always|never", "shrinkage policy (default adaptive)", |o, v| put(&mut o.options.shrinkage, parse_shrinkage(v)?)),
        (Optional, &["-k"], "N", "databases reported (default 5)", |o, v| put(&mut o.options.k, int(v)?)),
    ],
    positional: Some(("WORD", |o, v| push(&mut o.words, v.into()))),
    run: |a| {
        let store = CollectionStore::load(&a.store)?;
        print!("{}", select(&store, &a.words, &a.options));
        Ok(())
    },
};

/// The options of `freeze`.
#[derive(Default)]
struct FreezeArgs {
    catalog: Option<String>,
    store: Option<String>,
    out: String,
    weighting: CategoryWeighting,
}

#[rustfmt::skip]
static FREEZE: Command<FreezeArgs> = Command {
    name: "freeze",
    about: "write the v4 serving snapshot `route` and `serve` read",
    flags: &[
        (OneOf, &["--catalog"], "CATALOG", "migrate a v1 catalog file", |o, v| put(&mut o.catalog, Some(v.into()))),
        (OneOf, &["--store"], "STORE", "fit a store's λs, then freeze it", |o, v| put(&mut o.store, Some(v.into()))),
        (Required, &["--out"], "SNAPSHOT", "the snapshot to write", |o, v| put(&mut o.out, v.into())),
        (With("--store"), &["--weighting"], "bysize|uniform", "category aggregation of a store (default bysize)", |o, v| put(&mut o.weighting, weighting(v)?)),
    ],
    positional: None,
    run: |a| {
        let frozen = match (a.catalog, a.store) {
            (Some(catalog), _) => StoredCatalog::load(&catalog)?,
            (None, store) => {
                let store = CollectionStore::load(store.unwrap_or_default())?;
                StoredCatalog::freeze(store, a.weighting)
            }
        };
        let snapshot = ServingSnapshot::from_stored(&frozen);
        snapshot.save(&a.out)?;
        let bytes = std::fs::metadata(&a.out).map_or(0, |m| m.len());
        let (databases, terms) = (snapshot.catalog.len(), snapshot.dict.len());
        let postings = snapshot.catalog.posting_index().len();
        println!("froze {databases} databases ({terms} terms, {postings} posting terms) -> {} ({bytes} bytes, v4 snapshot)", a.out);
        Ok(())
    },
};

#[derive(Default)]
struct RefreshArgs {
    chain: String,
    options: RefreshOptions,
    specs: Vec<DbSpec>,
}

#[rustfmt::skip]
static REFRESH: Command<RefreshArgs> = Command {
    name: "refresh",
    about: "re-probe the stalest databases and append each round to a snapshot chain",
    flags: &[
        (Required, &["--chain"], "DIR", "an existing chain; refresh resumes at its tip", |o, v| put(&mut o.chain, v.into())),
        (Optional, &["--rounds"], "N", "refresh rounds, one delta each (default 1)", |o, v| put(&mut o.options.rounds, int(v)?)),
        (Optional, &["--budget"], "K", "databases re-probed per round (default 2)", |o, v| put(&mut o.options.budget, int(v)?)),
        (Optional, &["--seed"], "N", "pick tie-break and sampling seed (default 42)", |o, v| put(&mut o.options.probe.seed, int(v)?)),
        (Optional, &["--sample"], "N", "target QBS sample size per re-probe (default 300)", |o, v| put(&mut o.options.probe.sample_size, int(v)?)),
        (Optional, &["--full"], "", "re-read every document instead of sampling", |o, _| put(&mut o.options.probe.full, true)),
        (Optional, &["--threads"], "N", "profiling threads (default: every CPU)", |o, v| put(&mut o.options.probe.threads, int(v)?)),
        (Optional, &["--round-interval-ms"], "N", "pause between rounds", |o, v| put(&mut o.options.round_interval, Some(ms(v)?))),
    ],
    positional: Some(("NAME=CATEGORY/PATH=DIR", |o, v| push(&mut o.specs, DbSpec::parse(v)?))),
    run: |a| {
        let report = refresh(Path::new(&a.chain), &a.specs, &a.options)?;
        print!("{report}");
        Ok(())
    },
};

#[derive(Default)]
struct RouteArgs {
    catalog: String,
    queries: String,
    options: RouteOptions,
}

#[rustfmt::skip]
static ROUTE: Command<RouteArgs> = Command {
    name: "route",
    about: "route a file of queries (one per line) over a snapshot",
    flags: &[
        (Required, &["--catalog"], "SNAPSHOT", "a v4 snapshot file or a chain directory", |o, v| put(&mut o.catalog, v.into())),
        (Required, &["--queries"], "FILE", "the queries, one per line", |o, v| put(&mut o.queries, v.into())),
        (Optional, &["--algo"], "bgloss|cori|lm", "scoring algorithm (default cori)", |o, v| put(&mut o.options.algo, CliAlgorithm::parse(v)?)),
        (Optional, &["--shrinkage"], "adaptive|always|never", "shrinkage policy (default adaptive)", |o, v| put(&mut o.options.shrinkage, parse_shrinkage(v)?)),
        (Optional, &["-k", "--k"], "N", "databases reported per query (default 5)", |o, v| put(&mut o.options.k, int(v)?)),
        (Optional, &["--threads"], "N", "routing threads (default: every CPU)", |o, v| put(&mut o.options.threads, int(v)?)),
    ],
    positional: None,
    run: |a| {
        let state = ServingState::load(&a.catalog, 0)?;
        let text = std::fs::read_to_string(&a.queries).map_err(|e| format!("{}: {e}", a.queries))?;
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        print!("{}", route(&state, &lines, &a.options));
        Ok(())
    },
};

#[derive(Default)]
struct ServeArgs {
    catalog: Option<String>,
    tenants: Option<String>,
    proxy: bool,
    addr: Option<String>,
    proxy_config: ProxyConfig,
    config: ServerConfig,
}

#[rustfmt::skip]
static SERVE: Command<ServeArgs> = Command {
    name: "serve",
    about: "start dbselectd, the HTTP daemon (or its federated proxy)",
    flags: &[
        (OneOf, &["--catalog"], "SNAPSHOT", "serve a v4 snapshot file or a chain directory", |o, v| put(&mut o.catalog, Some(v.into()))),
        (OneOf, &["--tenants"], "DIR", "serve every *.snap file in DIR as a tenant", |o, v| put(&mut o.tenants, Some(v.into()))),
        (OneOf, &["--proxy"], "", "scatter to the backends instead of serving a catalog", |o, _| put(&mut o.proxy, true)),
        (With("--proxy"), &["--backends"], "A,B,..", "the proxy's backends, HOST:PORT each", |o, v| put(&mut o.proxy_config.backends, backends(v))),
        (Optional, &["--addr"], "HOST:PORT", "listen address (default 127.0.0.1:7700)", |o, v| put(&mut o.addr, Some(v.into()))),
        (Optional, &["--workers"], "N", "reactors, and as many pool threads (default 4)", |o, v| put(&mut o.config.workers, int(v)?)),
        (Optional, &["--queue"], "N", "pool admission-queue capacity (default 64)", |o, v| put(&mut o.config.queue_capacity, int(v)?)),
        (Optional, &["--tenant-quota"], "N", "in-flight routing requests per tenant (default 0 = unlimited)", |o, v| put(&mut o.config.tenant_quota, int(v)?)),
        (Optional, &["--deadline-ms"], "N", "per-request deadline (default 10000)", |o, v| put(&mut o.config.deadline, ms(v)?)),
        (Optional, &["--keep-alive-requests"], "N", "requests per connection (default 100)", |o, v| put(&mut o.config.keep_alive_requests, int(v)?)),
        (Optional, &["--idle-timeout-ms"], "N", "idle wait between requests (default 5000)", |o, v| put(&mut o.config.idle_timeout, ms(v)?)),
        (Optional, &["--retry-after-ms"], "N", "Retry-After hint on 503s (default 1000)", |o, v| put(&mut o.config.retry_after, ms(v)?)),
        (Optional, &["--refresh-interval-ms"], "N", "poll chain sources for new deltas (default off)", |o, v| put(&mut o.config.refresh_interval, Some(ms(v)?))),
        (With("--proxy"), &["--proxy-retries"], "N", "extra attempts per shard (default 2)", |o, v| put(&mut o.proxy_config.retries, int(v)?)),
        (With("--proxy"), &["--hedge-ms"], "N", "hedge after N ms (0 = off; default: the backend's p99)", |o, v| put(&mut o.proxy_config.hedge, hedge(v)?)),
        (With("--proxy"), &["--breaker-threshold"], "N", "consecutive failures that open a breaker (default 3)", |o, v| put(&mut o.proxy_config.breaker_failures, int(v)?)),
        (With("--proxy"), &["--breaker-cooldown-ms"], "N", "how long a breaker stays open (default 2000)", |o, v| put(&mut o.proxy_config.breaker_cooldown, ms(v)?)),
        (With("--proxy"), &["--health-interval-ms"], "N", "backend health-probe interval (default 500)", |o, v| put(&mut o.proxy_config.health_interval, ms(v)?)),
    ],
    positional: None,
    run: |a| {
        let ServeArgs { catalog, tenants, proxy, addr, proxy_config, mut config } = a;
        config.addr = addr.unwrap_or_else(|| "127.0.0.1:7700".into());
        let (daemon, detail) = if proxy {
            let detail = format!("{} backends: {}", proxy_config.backends.len(), proxy_config.backends.join(", "));
            config.proxy = Some(proxy_config);
            (server::Server::bind_proxy(config)?, detail)
        } else if let Some(dir) = tenants {
            let manifest = TenantManifest::scan(Path::new(&dir)).map_err(|e| format!("{dir}: {e}"))?;
            let mut states = Vec::with_capacity(manifest.tenants.len());
            for entry in manifest.tenants {
                let path = entry.path.to_str().ok_or("non-UTF-8 snapshot path")?;
                states.push((entry.name, ServingState::load(path, 0)?));
            }
            let names: Vec<&str> = states.iter().map(|(n, _)| n.as_str()).collect();
            let detail = format!("{} tenants from {dir}: {}", names.len(), names.join(", "));
            (server::Server::bind_tenants(config, states)?, detail)
        } else {
            let path = catalog.unwrap_or_default();
            let state = ServingState::load(&path, 0)?;
            (server::Server::bind(config, state)?, format!("catalog {path}"))
        };
        let name = if proxy { "dbselectd proxy" } else { "dbselectd" };
        println!("{name} listening on {} ({detail})", daemon.local_addr());
        Ok(daemon.run()?)
    },
};

#[derive(Default)]
struct InspectArgs {
    store: String,
    db: Option<String>,
}

#[rustfmt::skip]
static INSPECT: Command<InspectArgs> = Command {
    name: "inspect",
    about: "describe a store's databases and their top words",
    flags: &[
        (Required, &["--store"], "STORE", "the collection store to describe", |o, v| put(&mut o.store, v.into())),
        (Optional, &["--db"], "NAME", "describe only this database", |o, v| put(&mut o.db, Some(v.into()))),
    ],
    positional: None,
    run: |a| {
        let store = CollectionStore::load(&a.store)?;
        print!("{}", inspect(&store, a.db.as_deref()));
        Ok(())
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Parse `dbselect …` command lines of fenced blocks in `markdown`,
    /// backslash continuations joined and a trailing `&` or comment cut;
    /// returns how many lines parsed, or the first that did not.
    fn check_command_lines(markdown: &str) -> Result<usize, String> {
        let (mut fenced, mut line, mut checked) = (false, String::new(), 0);
        for raw in markdown.lines() {
            if raw.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            let raw = raw.trim_end();
            line.push_str(raw.trim_end_matches('\\'));
            if !fenced || raw.ends_with('\\') {
                line = if fenced { line + " " } else { String::new() };
                continue;
            }
            let joined = std::mem::take(&mut line);
            let words: Vec<String> = words(joined.split(['#', '&']).next().unwrap_or(""));
            if !words.first().is_some_and(|w| w.ends_with("dbselect")) {
                continue;
            }
            let name = words
                .get(1)
                .ok_or_else(|| format!("no command: {joined}"))?;
            let command = COMMANDS.iter().find(|c| c.name() == name);
            let command = command.ok_or_else(|| format!("unknown command: {joined}"))?;
            command
                .check(&words[2..])
                .map_err(|e| format!("{e}: {joined}"))?;
            checked += 1;
        }
        Ok(checked)
    }

    #[test]
    fn readme_command_lines_parse_under_the_tables() {
        let readme = include_str!("../../../README.md");
        let checked = check_command_lines(readme).unwrap();
        assert!(checked >= 10, "only {checked} command lines found");
        let misspelled = readme.replace("--tenant-quota", "--tenant-qouta");
        let err = check_command_lines(&misspelled).unwrap_err();
        assert!(err.contains("unknown option `--tenant-qouta`"), "{err}");
    }

    #[test]
    fn unknown_flags_name_their_command() {
        let err = ROUTE
            .parse(&words("--catalog c --queries q --bogus"))
            .err()
            .unwrap();
        assert_eq!(
            err,
            "dbselect route: unknown option `--bogus` (see `dbselect route --help`)"
        );
        // The flags routing no longer reads are gone, not ignored.
        let err = SELECT
            .parse(&words("--store s --seed 3 heart"))
            .err()
            .unwrap();
        assert!(
            err.starts_with("dbselect select: unknown option `--seed`"),
            "{err}"
        );
        let err = SERVE
            .parse(&words("--catalog c --debug-sleep"))
            .err()
            .unwrap();
        assert!(
            err.starts_with("dbselect serve: unknown option `--debug-sleep`"),
            "{err}"
        );
        // A word where a command takes none is refused the same way.
        let err = INSPECT.parse(&words("--store s stray")).err().unwrap();
        assert!(
            err.starts_with("dbselect inspect: unknown option `stray`"),
            "{err}"
        );
        let err = run(&words("bogus")).unwrap_err().to_string();
        assert!(err.starts_with("unknown command `bogus`"), "{err}");
    }

    #[test]
    fn a_flag_at_the_end_without_its_value_is_an_error() {
        let err = ROUTE.parse(&words("--queries q --catalog")).err().unwrap();
        assert_eq!(err, "dbselect route: --catalog needs a value (SNAPSHOT)");
    }

    #[test]
    fn bad_integers_name_the_flag_and_the_value() {
        let err = SERVE
            .parse(&words("--catalog c --workers many"))
            .err()
            .unwrap();
        assert_eq!(
            err,
            "dbselect serve: --workers: expects an integer, got `many`"
        );
        let err = ROUTE
            .parse(&words("--catalog c --queries q -k -1"))
            .err()
            .unwrap();
        assert_eq!(err, "dbselect route: -k: expects an integer, got `-1`");
    }

    #[test]
    fn k_is_spelled_both_ways_on_route() {
        let short = ROUTE.parse(&words("--catalog c --queries q -k 3")).unwrap();
        let long = ROUTE
            .parse(&words("--catalog c --queries q --k 7"))
            .unwrap();
        assert_eq!((short.options.k, long.options.k), (3, 7));
        assert_eq!(short.options.threads, RouteOptions::default().threads);
        let default = ROUTE.parse(&words("--queries q --catalog c")).unwrap();
        assert_eq!((default.catalog.as_str(), default.options.k), ("c", 5));
    }

    #[test]
    fn positional_specs_and_words_are_collected_in_order() {
        let line = "a=Health/Heart=/data/a --full --out s b=Sports=/data/b";
        let parsed = INDEX.parse(&words(line)).unwrap();
        let names: Vec<&str> = parsed.specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(parsed.specs[0].category, "Health/Heart");
        assert!(parsed.options.full);
        let err = INDEX.parse(&words("--out s")).err().unwrap();
        assert_eq!(
            err,
            "dbselect index: requires at least one NAME=CATEGORY/PATH=DIR"
        );
        let err = INDEX.parse(&words("--out s nonsense")).err().unwrap();
        assert!(err.contains("expected NAME=CATEGORY/PATH=DIR"), "{err}");
        let parsed = SELECT.parse(&words("heart --store s blood")).unwrap();
        assert_eq!(parsed.words, ["heart", "blood"]);
    }

    #[test]
    fn required_flags_and_one_of_groups_are_enforced() {
        let err = ROUTE.parse(&words("--catalog c")).err().unwrap();
        assert_eq!(err, "dbselect route: requires --queries FILE");
        let one_of = "requires exactly one of --catalog SNAPSHOT | --tenants DIR | --proxy";
        for line in ["", "--catalog c --tenants d", "--proxy --catalog c"] {
            let err = SERVE.parse(&words(line)).err().unwrap();
            assert_eq!(err, format!("dbselect serve: {one_of}"), "{line:?}");
        }
        let parsed = SERVE
            .parse(&words("--proxy --backends a:1,,b:2 --hedge-ms 0"))
            .unwrap();
        assert_eq!(parsed.proxy_config.backends, ["a:1", "b:2"]);
        assert_eq!(parsed.proxy_config.hedge, server::HedgePolicy::Off);
        assert_eq!(parsed.addr, None);
        let err = FREEZE.parse(&words("--out o")).err().unwrap();
        assert!(
            err.contains("exactly one of --catalog CATALOG | --store STORE"),
            "{err}"
        );
    }

    /// A flag that means something only beside another fails without it,
    /// rather than being accepted and ignored.
    #[test]
    fn flags_that_apply_only_with_another_fail_without_it() {
        let cases: [(&dyn Invoke, &str, &str); 4] = [
            (
                &FREEZE,
                "--catalog c --out o --weighting uniform",
                "dbselect freeze: --weighting applies only with --store",
            ),
            (
                &SERVE,
                "--catalog c --backends a:1",
                "dbselect serve: --backends applies only with --proxy",
            ),
            (
                &SERVE,
                "--tenants d --hedge-ms 5",
                "dbselect serve: --hedge-ms applies only with --proxy",
            ),
            (
                &SERVE,
                "--catalog c --health-interval-ms 9",
                "dbselect serve: --health-interval-ms applies only with --proxy",
            ),
        ];
        for (command, line, want) in cases {
            assert_eq!(
                command.check(&words(line)).err().as_deref(),
                Some(want),
                "{line:?}"
            );
        }
        for (command, line) in [
            (&FREEZE as &dyn Invoke, "--store s --out o --weighting uniform"),
            (&SERVE, "--proxy --backends a:1 --proxy-retries 1 --breaker-threshold 2 --breaker-cooldown-ms 3"),
            (&SERVE, "--catalog c --workers 2"),
        ] {
            assert!(command.check(&words(line)).is_ok(), "{line:?}");
        }
        assert!(SERVE.usage().contains("(only with --proxy)"));
    }

    #[test]
    fn help_lists_every_command_and_flag() {
        let help = help();
        for command in COMMANDS {
            assert!(help.contains(&command.usage()), "{}", command.name());
        }
        for name in ["--workers", "--round-interval-ms", "-k, --k N", "--db NAME"] {
            assert!(help.contains(name), "{name}");
        }
        assert!(run(&words("route --help")).is_ok());
    }
}
