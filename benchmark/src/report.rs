//! Result records, result sets, and `--check`.
//!
//! A run emits one record: a JSON object on one line. A result set is a
//! file of such lines (`run` appends one per child run). `--check A B`
//! compares two sets metric by metric, with each metric's direction and
//! bound, the way every later change is judged.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

use crate::layers::Json;
use crate::load::PhaseSummary;
use crate::metrics::{self, Better, END_TO_END};
use crate::stats;
use crate::workloads::WORKLOADS;

/// One metric as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one run reports.
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub phases: Vec<PhaseSummary>,
    pub metrics: Vec<Value>,
}

fn quoted(text: &str) -> String {
    Json::Str(text.to_string()).render()
}

impl Record {
    /// Reasons this run's numbers must not be used (empty: valid).
    pub fn invalid(&self) -> Vec<String> {
        self.phases
            .iter()
            .flat_map(|p| p.invalid.iter().map(move |r| format!("{}: {r}", p.name)))
            .collect()
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quoted(m.name),
                    number(m.value),
                    quoted(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The result-set line: the result plus what produced it.
    pub fn set_line(&self) -> String {
        let invalid: Vec<String> = self.invalid().iter().map(|r| quoted(r)).collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\":{},\"sent\":{},\"succeeded\":{},\"failed\":{},\"wall_s\":{},\"rps\":{},\"p50_ms\":{},\"p90_ms\":{},\"p99_ms\":{},\"late_p99_ms\":{}}}",
                    quoted(p.name),
                    p.sent,
                    p.succeeded,
                    p.failed,
                    number(p.wall_s),
                    number(p.rps),
                    number(p.p50_ms),
                    number(p.p90_ms),
                    p.p99_ms.map_or_else(|| "null".to_string(), number),
                    number(p.late_p99_ms)
                )
            })
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"attempted\":{},\"failed\":{},\"invalid\":[{}],\"phases\":[{}],\"metrics\":{}}}",
            quoted(self.workload),
            self.seed,
            number(self.seconds),
            self.trace,
            self.smoke,
            self.attempted,
            self.failed,
            invalid.join(","),
            phases.join(","),
            self.metrics_json()
        )
    }

    pub fn append_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{}", self.set_line())
    }
}

/// A measured number with all its digits (`{}` on `f64` is the shortest
/// text that parses back to the same bits).
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite numbers");
    format!("{v}")
}

// ---------------------------------------------------------------------
// Result sets and --check
// ---------------------------------------------------------------------

/// The untraced runs of a result set: workload → metric → values.
pub struct ResultSet {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Why the set cannot be compared, if it cannot.
    pub refused: Vec<String>,
}

pub fn read_set(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut refused = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("{}:{}", path.display(), n + 1);
        let record = Json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{at}: no workload"))?;
        // Traced runs carry the per-layer numbers; only untraced runs are
        // compared, so only they can spoil a comparison.
        if record.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        if record.get("smoke") == Some(&Json::Bool(true)) {
            refused.push(format!("{at}: a --smoke run ({workload})"));
        }
        if let Some(reasons) = record.get("invalid").and_then(Json::as_array) {
            for reason in reasons {
                refused.push(format!(
                    "{at}: invalid {workload} run: {}",
                    reason.as_str().unwrap_or("?")
                ));
            }
        }
        let Some(Json::Obj(metrics)) = record.get("metrics") else {
            return Err(format!("{at}: no metrics"));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{at}: metric {name} has no value"))?;
            values
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(ResultSet { values, refused })
}

/// The verdict on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side spread wider than the bound: the comparison
    /// cannot tell a regression from noise.
    Unresolved,
}

/// Judge `b` against `a` for a metric with direction `better` and
/// relative bound `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    let worsening = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = [a, b]
        .iter()
        .filter_map(|v| stats::spread(v))
        .fold(0.0, f64::max);
    if spread > bound {
        // Noise wider than the bound — unless every run of B beats every
        // run of A, which no amount of spread can explain away.
        let b_wins_all = match better {
            Better::Lower => stats::sorted(b.to_vec()).last() < stats::sorted(a.to_vec()).first(),
            Better::Higher => stats::sorted(b.to_vec()).first() > stats::sorted(a.to_vec()).last(),
        };
        return if b_wins_all {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compare two result sets; prints one row per (workload, metric).
/// Exit code: 0 all ok, 1 some row worse, 2 unresolved rows only,
/// 3 a set was refused.
pub fn check(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let a = read_set(a_path)?;
    let b = read_set(b_path)?;
    let refused: Vec<&String> = a.refused.iter().chain(&b.refused).collect();
    if !refused.is_empty() {
        for reason in refused {
            println!("refused: {reason}");
        }
        return Ok(3);
    }
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let values = |set: &ResultSet| {
                set.values
                    .get(workload.name)
                    .and_then(|m| m.get(metric.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<14} {:<16} missing from a set",
                    workload.name, metric.name
                );
                unresolved += 1;
                continue;
            }
            let verdict = judge(&va, &vb, metric.better, metric.bound);
            let (ma, mb) = (stats::median(&va).unwrap(), stats::median(&vb).unwrap());
            let spread = [&va, &vb]
                .iter()
                .filter_map(|v| stats::spread(v))
                .fold(0.0, f64::max);
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>6.0}%  {}",
                workload.name,
                metric.name,
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
            match verdict {
                Verdict::Ok => {}
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse > 0 {
        1
    } else if unresolved > 0 {
        2
    } else {
        0
    })
}

/// Median and spread of every end-to-end metric of a result set.
pub fn print_summary(path: &Path) -> Result<(), String> {
    let set = read_set(path)?;
    println!(
        "{:<14} {:<16} {:>5} {:>12} {:>8} {:>7}",
        "workload", "metric", "runs", "median", "spread", "bound"
    );
    for (workload, by_metric) in &set.values {
        for (name, values) in by_metric {
            let Some(metric) = metrics::end_to_end(name) else {
                continue;
            };
            println!(
                "{:<14} {:<16} {:>5} {:>12.4} {:>7.1}% {:>6.0}%",
                workload,
                name,
                values.len(),
                stats::median(values).unwrap_or(f64::NAN),
                stats::spread(values).unwrap_or(0.0) * 100.0,
                metric.bound * 100.0
            );
        }
    }
    for reason in &set.refused {
        println!("note: {reason}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(judge(&steady, &slower, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(judge(&steady, &slower, Better::Lower, 0.20), Verdict::Ok);
        // Same medians, but one side's quartiles are 40% apart.
        let noisy = [8.0, 12.0, 10.0, 7.5, 12.5];
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Noisy, yet every run beats every run of the parent.
        let noisy_fast = [4.0, 6.0, 5.0, 3.5, 6.5];
        assert_eq!(
            judge(&steady, &noisy_fast, Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &noisy_fast, Better::Higher, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn smoke_and_invalid_runs_are_refused() {
        let dir =
            std::env::temp_dir().join(format!("dbselect-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.jsonl");
        let record = |smoke: bool, invalid: Vec<String>| Record {
            workload: "never-k10",
            seed: 30,
            seconds: 6.0,
            trace: false,
            smoke,
            attempted: 10,
            failed: 0,
            phases: vec![PhaseSummary {
                name: "open",
                slices: 1,
                sent: 10,
                succeeded: 10,
                failed: 0,
                wall_s: 1.0,
                rps: 10.0,
                p50_ms: 1.0,
                p90_ms: 1.5,
                p99_ms: None,
                late_p99_ms: 0.0,
                invalid,
            }],
            metrics: vec![Value {
                name: "p50_ms",
                unit: "ms",
                value: 1.25,
            }],
        };
        record(false, vec![]).append_to(&path).unwrap();
        let clean = read_set(&path).unwrap();
        assert!(clean.refused.is_empty());
        assert_eq!(clean.values["never-k10"]["p50_ms"], vec![1.25]);
        record(true, vec![]).append_to(&path).unwrap();
        record(false, vec!["growing backlog".into()])
            .append_to(&path)
            .unwrap();
        let set = read_set(&path).unwrap();
        assert_eq!(set.refused.len(), 2);
        assert_eq!(check(&path, &path).unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let record = Record {
            workload: "never-k10",
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: false,
            attempted: 5,
            failed: 0,
            phases: vec![],
            metrics: vec![Value {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
            }],
        };
        assert_eq!(
            record.result_line(),
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        assert!(Json::parse(&record.set_line()).is_ok());
    }
}
