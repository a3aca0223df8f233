//! The metric catalogue: every number the benchmark prints, with its
//! unit and direction. `BENCHMARK.json` at the repository root repeats
//! the end-to-end rows with their bounds; a self-test keeps the two in
//! step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric a user of the system would see. `bound` is the share of the
/// parent's median by which it may worsen before that counts as a
/// regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [EndToEnd; 5] = [
    // QBS profile of every db + EM fit + epoch pin + base freeze + chain
    // base write + `ServingState::load` + bind, until `GET /readyz` is 200.
    // Median of the run's set-ups; testbed generation is excluded.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Closed loop: answers per second of the run's fastest slice.
    EndToEnd {
        name: "closed_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Open-loop latency from each request's due time: the median of the
    // slice where it was lowest. (The tail — `loadgen.open_p90_ms`,
    // `loadgen.open_p99_ms` — is reported by the traced run without a
    // bound: on a shared host its run-to-run spread reaches the widest
    // bound there is.)
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    // Mean R_k at k = 10 of the rankings served in the gate pass.
    EndToEnd {
        name: "rk10",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.1,
    },
    // VmHWM of the benchmark process (daemon in-process) at run end.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// Per-layer metrics (name, unit), reported by every workload's traced
/// run. Layer = module path; timings are median self time per call.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("corpus.testbed.build_s", "s"),
    ("sampling.qbs.profile_s", "s"),
    ("core.shrinkage.em_fit_s", "s"),
    ("store.snapshot.freeze_s", "s"),
    ("store.snapshot.save_s", "s"),
    ("store.snapshot.load_s", "s"),
    ("server.state.build_ms", "ms"),
    ("store.snapshot.bytes", "B"),
    ("server.http.parse_us", "us"),
    ("server.json.parse_us", "us"),
    ("server.state.analyze_us", "us"),
    ("broker.engine.choose_us", "us"),
    ("broker.engine.choose_cold_us", "us"),
    ("core.uncertainty.posterior_build_us", "us"),
    ("core.uncertainty.mc_test_us", "us"),
    ("broker.engine.shrinkage_applied_ratio.cori", "ratio"),
    ("broker.engine.shrinkage_applied_ratio.bgloss", "ratio"),
    ("broker.engine.shrinkage_applied_ratio.lm", "ratio"),
    ("eval.rk10.cori", "ratio"),
    ("eval.rk10.bgloss", "ratio"),
    ("eval.rk10.lm", "ratio"),
    ("broker.engine.posterior_cache_hit_ratio", "ratio"),
    ("broker.catalog.context_us", "us"),
    ("broker.engine.score_us", "us"),
    ("broker.engine.candidate_ratio", "ratio"),
    ("selection.topk.score_rows_ns_per_row.cori", "ns"),
    ("selection.topk.score_rows_ns_per_row.bgloss", "ns"),
    ("selection.topk.score_rows_ns_per_row.lm", "ns"),
    ("broker.shard.route_topk_us_2", "us"),
    ("broker.shard.ratio_2", "ratio"),
    ("server.json.render_us", "us"),
    ("server.http.write_us", "us"),
    ("server.response_bytes", "B"),
    ("server.handler_mean_us", "us"),
    ("server.stage_sum_us", "us"),
    ("server.residual_us", "us"),
    ("server.rejected_total", "count"),
    ("server.timeout_total", "count"),
    ("server.catalog_load_failures_total", "count"),
    ("store.refresh.round_ms", "ms"),
    ("server.swap_visible_ms", "ms"),
    ("store.refresh.apply_probe_ms", "ms"),
    ("store.delta.append_ms", "ms"),
    ("store.delta.bytes_per_db", "B"),
    ("store.delta.load_chain_ms_1", "ms"),
    ("store.delta.load_chain_ms_20", "ms"),
    ("client.roundtrip_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.samples", "count"),
    ("loadgen.open_p50_ms", "ms"),
    ("loadgen.open_p90_ms", "ms"),
    ("loadgen.open_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unexplained_share", "ratio"),
    ("trace.choose_share", "ratio"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` sits outside this package; when the package is
    /// tested inside the repository the two must agree.
    #[test]
    fn benchmark_json_repeats_this_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let rows = |key: &str| json.get(key).and_then(Json::as_array).unwrap().to_vec();
        let text_of =
            |row: &Json, key: &str| row.get(key).and_then(Json::as_str).unwrap().to_string();

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, metric) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text_of(row, "name"), metric.name);
            assert_eq!(text_of(row, "unit"), metric.unit);
            let better = if metric.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(text_of(row, "better"), better, "{}", metric.name);
            assert_eq!(
                row.get("bound").and_then(Json::as_f64),
                Some(metric.bound),
                "{}",
                metric.name
            );
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text_of(row, "name"), name);
            assert_eq!(text_of(row, "unit"), unit);
        }
        // The driver runs the workloads its time limit has room for; each
        // must be one of the catalogue's, described the same way.
        for row in rows("workloads") {
            let name = text_of(&row, "name");
            let workload = crate::workloads::find(&name).expect("a catalogued workload");
            assert_eq!(text_of(&row, "why"), workload.why);
        }
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
