//! The repository's benchmark: an open-loop, layer-attributed measurement
//! of `dbselectd`'s `/route` serving path and its refresh path.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out SET]
//! benchmark run [--runs R] [--seed N] [--seconds S] [--smoke] [--out SET]
//! benchmark --check A B
//! ```
//!
//! See `benchmark/README.md` for the workload and metric catalogues.

mod affinity;
mod churn;
mod client;
mod gate;
mod layers;
mod load;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::WORKLOADS;

const DEFAULT_SEED: u64 = 30;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 50.0;
/// Under `--smoke`: three phases of about 2 s.
const SMOKE_SECONDS: f64 = 8.0;
const DEFAULT_RUNS: u64 = 5;

const USAGE: &str = "\
usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out SET]
       benchmark run [--runs R] [--seed N] [--seconds S] [--smoke] [--out SET]
       benchmark --check A B
workloads: adaptive-k10 never-k10 always-full refresh-churn";

struct Args {
    run_set: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
    check: Option<(PathBuf, PathBuf)>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        run_set: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: DEFAULT_RUNS,
        out: None,
        check: None,
    };
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot read `{v}`"))
    }
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "run" => args.run_set = true,
            "--workload" => args.workload = Some(value("--workload", argv.next())?),
            "--seed" => args.seed = value("--seed", argv.next())?,
            "--seconds" => args.seconds = Some(value("--seconds", argv.next())?),
            "--trace" => args.trace = value::<u8>("--trace", argv.next())? != 0,
            "--smoke" => args.smoke = true,
            "--runs" => args.runs = value("--runs", argv.next())?,
            "--out" => args.out = Some(value("--out", argv.next())?),
            "--check" => {
                args.check = Some((
                    value("--check", argv.next())?,
                    value("--check", argv.next())?,
                ))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds.is_some_and(|s| !(s.is_finite() && s >= 1.0)) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// `run`: every workload `runs` times untraced (seeds `seed`, `seed + 1`,
/// …) and once traced, each in a process of its own — peak RSS is a
/// per-process high-water mark — appended to one result set.
fn run_set(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| run::out_dir().join(format!("results-{}.jsonl", std::process::id())));
    for workload in WORKLOADS {
        for i in 0..=args.runs {
            // The last run of each workload is the traced one.
            let traced = i == args.runs;
            let seed = if traced { args.seed } else { args.seed + i };
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out);
            if let Some(seconds) = args.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child.status().map_err(|e| format!("spawn: {e}"))?;
            if !status.success() {
                return Err(format!(
                    "{} seed {seed} trace {traced}: {status}",
                    workload.name
                ));
            }
        }
    }
    println!("\nresult set: {}", out.display());
    report::print_summary(&out)
}

fn single(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or(USAGE)?;
    let workload =
        workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
    let options = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: args.trace,
        smoke: args.smoke,
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned = affinity::pin_to_one_core().map_or_else(
        || "unpinned".to_string(),
        |core| format!("pinned to core {core}"),
    );
    affinity::precise_timers();
    let _awake = affinity::KeepAwake::start();
    println!(
        "{} ({}) seed {} seconds {} trace {}{}  ({cores} cores, {pinned})",
        workload.name,
        workload.why,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        if options.smoke { " SMOKE" } else { "" },
    );
    let record = run::run(&options)?;
    for metric in &record.metrics {
        println!(
            "metric {:<46} {:>16.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for reason in record.invalid() {
        println!("INVALID {reason}");
    }
    if let Some(out) = &args.out {
        record
            .append_to(out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    if options.smoke {
        println!("smoke run: numbers are for iteration only and are refused by --check");
    }
    // Last line of standard output: the result.
    println!("{}", record.result_line());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    let outcome = if let Some((a, b)) = &args.check {
        match report::check(a, b) {
            Ok(code) => return ExitCode::from(code as u8),
            Err(e) => Err(e),
        }
    } else if args.run_set {
        run_set(&args)
    } else {
        single(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
