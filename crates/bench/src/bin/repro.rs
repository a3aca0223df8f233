//! `repro` — regenerate the tables and figures of the paper.
//!
//! ```text
//! repro summary-quality [--scale N] [--runs N] [--set web|trec4|trec6|all]   Tables 4–9
//! repro selection [--scale N] [--set trec4|trec6|all] [--algo cori|bgloss|lm|all]
//!                                                                            Figures 4–5
//! repro table2 [--scale N]                                                   Table 2
//! repro table10 [--scale N]                                                  Table 10
//! repro ablation-universal [--scale N]                   adaptive vs always-on shrinkage
//! repro ablation-weighting [--scale N]                   Eq. 1 vs footnote-5 weighting
//! repro ablation-overlap [--scale N]                     overlap subtraction on/off
//! repro redde [--scale N]                                ReDDE extension (footnote 9)
//! repro classification [--scale N]                       FPS classification accuracy
//! repro ablation-fps [--scale N]                         FPS descent thresholds
//! repro ablation-classifier [--scale N]                  word vs rule probes
//! repro merging [--scale N]                              end-to-end merged results
//! repro size-effect [--scale N]                          recall gain vs database size
//! repro all [--scale N]                                  the paper's tables & figures
//! repro extras [--scale N]                               the four supplementary reports
//! ```
//!
//! `selection` also accepts `--csv DIR` to dump each figure's series as a
//! CSV file for plotting.
//!
//! `--scale N` divides database counts and sizes by `N` (default 1 = the
//! paper-scale synthetic test beds; use 4 or 8 for a quick look).

use std::collections::HashMap;

use bench::experiment::{
    profile_collection, run_selection, AlgoKind, HarnessConfig, ProfiledCollection, Strategy,
};
use bench::report::{f3, print_series, print_table};
use corpus::{TestBed, TestBedConfig};
use dbselect_core::summary::ContentSummary;
use eval::metrics::{summary_quality, EvaluatedSummary, SummaryQuality};
use eval::stats::paired_t_test;
use sampling::SamplerKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let opts = Options::parse(&args[1.min(args.len())..]);
    match command {
        "summary-quality" => summary_quality_tables(&opts),
        "selection" => selection_figures(&opts),
        "table2" => table2(&opts),
        "table10" => table10(&opts),
        "ablation-universal" => ablation_universal(&opts),
        "ablation-weighting" => ablation_weighting(&opts),
        "ablation-overlap" => ablation_overlap(&opts),
        "redde" => redde_extension(&opts),
        "classification" => classification_report(&opts),
        "ablation-fps" => fps_threshold_ablation(&opts),
        "merging" => merging_comparison(&opts),
        "size-effect" => size_effect(&opts),
        "ablation-classifier" => classifier_ablation(&opts),
        "extras" => {
            classification_report(&opts);
            fps_threshold_ablation(&opts);
            classifier_ablation(&opts);
            merging_comparison(&opts);
            size_effect(&opts);
        }
        "all" => {
            summary_quality_tables(&opts);
            selection_figures(&opts);
            table2(&opts);
            table10(&opts);
            ablation_universal(&opts);
            ablation_weighting(&opts);
            ablation_overlap(&opts);
            redde_extension(&opts);
        }
        other => {
            eprintln!("unknown command `{other}`; see the module docs for usage");
            std::process::exit(2);
        }
    }
}

#[derive(Debug, Clone)]
struct Options {
    scale: usize,
    runs: usize,
    sets: Vec<&'static str>,
    algos: Vec<AlgoKind>,
    seed: u64,
    /// Also write figure series as CSV files into this directory.
    csv_dir: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Self {
        let mut opts = Options {
            scale: 1,
            runs: 3,
            sets: vec![],
            algos: vec![],
            seed: 0xC0FFEE,
            csv_dir: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
                    .clone()
            };
            match arg.as_str() {
                "--scale" => opts.scale = value("--scale").parse().expect("integer scale"),
                "--runs" => opts.runs = value("--runs").parse().expect("integer runs"),
                "--seed" => opts.seed = value("--seed").parse().expect("integer seed"),
                "--csv" => opts.csv_dir = Some(value("--csv")),
                "--set" => match value("--set").as_str() {
                    "web" => opts.sets.push("web"),
                    "trec4" => opts.sets.push("trec4"),
                    "trec6" => opts.sets.push("trec6"),
                    "all" => opts.sets = vec!["web", "trec4", "trec6"],
                    other => panic!("unknown set {other}"),
                },
                "--algo" => match value("--algo").as_str() {
                    "bgloss" => opts.algos.push(AlgoKind::BGloss),
                    "cori" => opts.algos.push(AlgoKind::Cori),
                    "lm" => opts.algos.push(AlgoKind::Lm),
                    "all" => opts.algos = AlgoKind::all().to_vec(),
                    other => panic!("unknown algorithm {other}"),
                },
                other => panic!("unknown option {other}"),
            }
        }
        opts
    }

    fn sets_or(&self, default: &[&'static str]) -> Vec<&'static str> {
        if self.sets.is_empty() {
            default.to_vec()
        } else {
            self.sets.clone()
        }
    }

    fn algos_or(&self, default: &[AlgoKind]) -> Vec<AlgoKind> {
        if self.algos.is_empty() {
            default.to_vec()
        } else {
            self.algos.clone()
        }
    }

    fn bed_config(&self, set: &str) -> TestBedConfig {
        let config = match set {
            "web" => TestBedConfig::web_like(),
            "trec4" => TestBedConfig::trec4_like(),
            "trec6" => TestBedConfig::trec6_like(),
            other => panic!("unknown set {other}"),
        };
        if self.scale > 1 {
            config.scaled_down(self.scale)
        } else {
            config
        }
    }
}

/// Average of summary-quality metrics over databases.
fn collection_quality(
    bed: &TestBed,
    profiled: &ProfiledCollection,
    shrunk: bool,
) -> SummaryQuality {
    let mut acc = SummaryQuality {
        weighted_recall: 0.0,
        unweighted_recall: 0.0,
        weighted_precision: 0.0,
        unweighted_precision: 0.0,
        spearman: 0.0,
        kl_divergence: 0.0,
    };
    let n = bed.databases.len() as f64;
    for (i, tdb) in bed.databases.iter().enumerate() {
        let perfect = EvaluatedSummary::from_content_summary(&ContentSummary::perfect(&tdb.db));
        let approx = if shrunk {
            EvaluatedSummary::from_shrunk_summary(&profiled.shrunk[i])
        } else {
            EvaluatedSummary::from_content_summary(&profiled.summaries[i])
        };
        let q = summary_quality(&approx, &perfect);
        acc.weighted_recall += q.weighted_recall / n;
        acc.unweighted_recall += q.unweighted_recall / n;
        acc.weighted_precision += q.weighted_precision / n;
        acc.unweighted_precision += q.unweighted_precision / n;
        acc.spearman += q.spearman / n;
        acc.kl_divergence += q.kl_divergence / n;
    }
    acc
}

/// Tables 4–9: summary quality for {set} × {QBS, FPS} × {freq est on/off}
/// × {shrunk, unshrunk}.
fn summary_quality_tables(opts: &Options) {
    let sets = opts.sets_or(&["web", "trec4", "trec6"]);
    // (set, sampler, freq) -> (shrunk, unshrunk) averaged over runs.
    let mut results: Vec<(String, String, bool, SummaryQuality, SummaryQuality)> = Vec::new();
    for set in &sets {
        for sampler in [SamplerKind::Qbs, SamplerKind::Fps] {
            // Paper: 5 QBS samples averaged; FPS is deterministic given the
            // classifier, so one run suffices.
            let runs = if sampler == SamplerKind::Qbs {
                opts.runs
            } else {
                1
            };
            for freq in [false, true] {
                let mut sum_s: Option<SummaryQuality> = None;
                let mut sum_u: Option<SummaryQuality> = None;
                for run in 0..runs {
                    let mut bed = opts.bed_config(set).build();
                    let config = HarnessConfig::new(sampler, freq, opts.seed + run as u64 * 101);
                    let profiled = profile_collection(&mut bed, &config);
                    let qs = collection_quality(&bed, &profiled, true);
                    let qu = collection_quality(&bed, &profiled, false);
                    sum_s = Some(add_quality(sum_s, qs));
                    sum_u = Some(add_quality(sum_u, qu));
                }
                let qs = div_quality(sum_s.unwrap(), runs as f64);
                let qu = div_quality(sum_u.unwrap(), runs as f64);
                let sampler_name = if sampler == SamplerKind::Qbs {
                    "QBS"
                } else {
                    "FPS"
                };
                results.push((set.to_string(), sampler_name.to_string(), freq, qs, qu));
                eprintln!("[summary-quality] {set} {sampler_name} freq={freq} done");
            }
        }
    }

    type MetricExtractor = fn(&SummaryQuality) -> f64;
    let tables: [(&str, MetricExtractor); 6] = [
        ("Table 4: Weighted recall wr", |q| q.weighted_recall),
        ("Table 5: Unweighted recall ur", |q| q.unweighted_recall),
        ("Table 6: Weighted precision wp", |q| q.weighted_precision),
        ("Table 7: Unweighted precision up", |q| {
            q.unweighted_precision
        }),
        ("Table 8: Spearman Correlation Coefficient SRCC", |q| {
            q.spearman
        }),
        ("Table 9: KL-divergence", |q| q.kl_divergence),
    ];
    for (title, extract) in tables {
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|(set, sampler, freq, qs, qu)| {
                vec![
                    set.clone(),
                    sampler.clone(),
                    if *freq { "Yes" } else { "No" }.to_string(),
                    f3(extract(qs)),
                    f3(extract(qu)),
                ]
            })
            .collect();
        print_table(
            title,
            &[
                "Data Set",
                "Sampling",
                "Freq.Est.",
                "Shrinkage=Yes",
                "Shrinkage=No",
            ],
            &rows,
        );
    }
}

fn add_quality(acc: Option<SummaryQuality>, q: SummaryQuality) -> SummaryQuality {
    match acc {
        None => q,
        Some(a) => SummaryQuality {
            weighted_recall: a.weighted_recall + q.weighted_recall,
            unweighted_recall: a.unweighted_recall + q.unweighted_recall,
            weighted_precision: a.weighted_precision + q.weighted_precision,
            unweighted_precision: a.unweighted_precision + q.unweighted_precision,
            spearman: a.spearman + q.spearman,
            kl_divergence: a.kl_divergence + q.kl_divergence,
        },
    }
}

fn div_quality(q: SummaryQuality, n: f64) -> SummaryQuality {
    SummaryQuality {
        weighted_recall: q.weighted_recall / n,
        unweighted_recall: q.unweighted_recall / n,
        weighted_precision: q.weighted_precision / n,
        unweighted_precision: q.unweighted_precision / n,
        spearman: q.spearman / n,
        kl_divergence: q.kl_divergence / n,
    }
}

/// Figures 4 and 5: `R_k` curves for the three strategies, both samplers.
fn selection_figures(opts: &Options) {
    let sets = opts.sets_or(&["trec4", "trec6"]);
    let algos = opts.algos_or(&AlgoKind::all());
    let ks: Vec<usize> = (1..=20).collect();
    for set in &sets {
        for sampler in [SamplerKind::Qbs, SamplerKind::Fps] {
            // One expensive profiling pass per (set, sampler), shared by all
            // algorithms and strategies.
            let mut bed = opts.bed_config(set).build();
            let config = HarnessConfig::new(sampler, true, opts.seed);
            let profiled = profile_collection(&mut bed, &config);
            let sampler_name = if sampler == SamplerKind::Qbs {
                "QBS"
            } else {
                "FPS"
            };
            for algo in &algos {
                println!(
                    "\nFigure: Rk for {} over the {} data set ({sampler_name} summaries)",
                    algo.name(),
                    set
                );
                println!("{}", "-".repeat(60));
                let mut per_strategy: HashMap<&str, Vec<Vec<f64>>> = HashMap::new();
                let mut series: Vec<(&str, Vec<f64>)> = Vec::new();
                for strategy in [Strategy::Shrinkage, Strategy::Hierarchical, Strategy::Plain] {
                    let run = run_selection(&bed, &profiled, *algo, strategy, &ks, opts.seed + 7);
                    print_series(
                        &format!("{sampler_name} - {}", strategy.name()),
                        &ks,
                        &run.mean_rk,
                    );
                    series.push((strategy.name(), run.mean_rk.clone()));
                    per_strategy.insert(strategy.name(), run.per_query_rk);
                }
                if let Some(dir) = &opts.csv_dir {
                    write_figure_csv(dir, set, algo.name(), sampler_name, &ks, &series);
                }
                // Significance, pooled over all k: shrinkage vs plain, and
                // the closed-form decision rule vs the Monte-Carlo rule it
                // replaced (same scores, only the summary choice differs).
                let sampled = run_selection(
                    &bed,
                    &profiled,
                    *algo,
                    Strategy::ShrinkageSampled,
                    &ks,
                    opts.seed + 7,
                );
                let pooled =
                    |rk: &[Vec<f64>]| -> Vec<f64> { rk.iter().flatten().copied().collect() };
                let pooled_s = pooled(&per_strategy["Shrinkage"]);
                for (versus, other) in [
                    ("plain", pooled(&per_strategy["Plain"])),
                    ("Monte-Carlo rule", pooled(&sampled.per_query_rk)),
                ] {
                    if pooled_s.len() != other.len() {
                        continue;
                    }
                    if let Some(t) = paired_t_test(&pooled_s, &other) {
                        println!(
                            "{sampler_name}: shrinkage vs {versus} mean ΔRk = {:+.4}, t = {:.2}, p = {:.2e}",
                            t.mean_diff, t.t, t.p_value
                        );
                    }
                }
            }
        }
    }
}

/// Write one figure's series as `DIR/figure_{algo}_{set}_{sampler}.csv`
/// with columns `k,Shrinkage,Hierarchical,Plain` — ready for any plotting
/// tool.
fn write_figure_csv(
    dir: &str,
    set: &str,
    algo: &str,
    sampler: &str,
    ks: &[usize],
    series: &[(&str, Vec<f64>)],
) {
    use std::io::Write as _;
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {dir}: {e}");
        return;
    }
    let path = format!("{dir}/figure_{}_{set}_{sampler}.csv", algo.to_lowercase());
    let mut out = match std::fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("warning: cannot write {path}: {e}");
            return;
        }
    };
    let header: Vec<&str> = std::iter::once("k")
        .chain(series.iter().map(|(n, _)| *n))
        .collect();
    let _ = writeln!(out, "{}", header.join(","));
    for (i, k) in ks.iter().enumerate() {
        let mut row = vec![k.to_string()];
        for (_, values) in series {
            row.push(format!("{:.4}", values[i]));
        }
        let _ = writeln!(out, "{}", row.join(","));
    }
    eprintln!("[csv] wrote {path}");
}

/// Table 2: the category mixture weights λ for two example databases.
fn table2(opts: &Options) {
    let mut bed = opts.bed_config("web").build();
    let config = HarnessConfig::new(SamplerKind::Qbs, true, opts.seed);
    let profiled = profile_collection(&mut bed, &config);
    // Pick one database under a depth-3 leaf and one under a depth-2 leaf.
    let deep = bed
        .databases
        .iter()
        .position(|d| bed.hierarchy.depth(d.category) == 3)
        .unwrap_or(0);
    let shallow = bed
        .databases
        .iter()
        .position(|d| bed.hierarchy.depth(d.category) == 2)
        .unwrap_or(1);
    let mut rows = Vec::new();
    for &i in &[deep, shallow] {
        let tdb = &bed.databases[i];
        let lambdas = profiled.shrunk[i].lambdas();
        let path = bed.hierarchy.path_from_root(tdb.category);
        rows.push(vec![
            tdb.name.clone(),
            "Uniform".to_string(),
            f3(lambdas[0]),
        ]);
        for (level, &cat) in path.iter().enumerate() {
            rows.push(vec![
                String::new(),
                bed.hierarchy.name(cat).to_string(),
                f3(lambdas[1 + level]),
            ]);
        }
        rows.push(vec![
            String::new(),
            format!("{} (database)", tdb.name),
            f3(lambdas[lambdas.len() - 1]),
        ]);
    }
    print_table(
        "Table 2: category mixture weights λ for two databases",
        &["Database", "Category", "λ"],
        &rows,
    );
}

/// Table 10: percentage of (query, database) pairs with shrinkage applied.
fn table10(opts: &Options) {
    let sets = opts.sets_or(&["trec4", "trec6"]);
    let mut rows = Vec::new();
    for set in &sets {
        for sampler in [SamplerKind::Fps, SamplerKind::Qbs] {
            let mut bed = opts.bed_config(set).build();
            let config = HarnessConfig::new(sampler, true, opts.seed);
            let profiled = profile_collection(&mut bed, &config);
            let sampler_name = if sampler == SamplerKind::Qbs {
                "QBS"
            } else {
                "FPS"
            };
            for algo in AlgoKind::all() {
                // (profiling above is shared across the three algorithms)
                let [closed, sampled] = [Strategy::Shrinkage, Strategy::ShrinkageSampled]
                    .map(|rule| run_selection(&bed, &profiled, algo, rule, &[10], opts.seed + 13));
                // Paired over queries: does the closed form apply shrinkage
                // at a different rate than the Monte-Carlo rule?
                let paired =
                    paired_t_test(&closed.per_query_shrinkage, &sampled.per_query_shrinkage)
                        .map_or_else(
                            || "identical".to_string(),
                            |t| format!("{:+.2} pts, p = {:.2}", t.mean_diff * 100.0, t.p_value),
                        );
                rows.push(vec![
                    set.to_string(),
                    sampler_name.to_string(),
                    algo.name().to_string(),
                    format!("{:.2}%", closed.shrinkage_rate * 100.0),
                    format!("{:.2}%", sampled.shrinkage_rate * 100.0),
                    paired,
                    format!("{:.4} / {:.4}", closed.mean_rk[0], sampled.mean_rk[0]),
                ]);
                eprintln!("[table10] {set} {sampler_name} {} done", algo.name());
            }
        }
    }
    print_table(
        "Table 10: query-database pairs for which shrinkage was applied",
        &[
            "Data Set",
            "Sampling",
            "Selection",
            "Shrinkage Application",
            "Monte-Carlo rule",
            "Δ (paired t over queries)",
            "R10 closed / MC",
        ],
        &rows,
    );
}

/// Section 6.2 ablation: adaptive vs universal application of shrinkage.
fn ablation_universal(opts: &Options) {
    let sets = opts.sets_or(&["trec4", "trec6"]);
    let ks = [5usize, 10];
    let mut rows = Vec::new();
    for set in &sets {
        let mut bed = opts.bed_config(set).build();
        let config = HarnessConfig::new(SamplerKind::Qbs, true, opts.seed);
        let profiled = profile_collection(&mut bed, &config);
        for algo in AlgoKind::all() {
            let adaptive = run_selection(
                &bed,
                &profiled,
                algo,
                Strategy::Shrinkage,
                &ks,
                opts.seed + 3,
            );
            let universal = run_selection(
                &bed,
                &profiled,
                algo,
                Strategy::Universal,
                &ks,
                opts.seed + 3,
            );
            rows.push(vec![
                set.to_string(),
                algo.name().to_string(),
                f3(adaptive.mean_rk[0]),
                f3(universal.mean_rk[0]),
                f3(adaptive.mean_rk[1]),
                f3(universal.mean_rk[1]),
            ]);
        }
    }
    print_table(
        "Ablation: adaptive vs universal shrinkage (QBS summaries)",
        &[
            "Data Set",
            "Algorithm",
            "R5 adaptive",
            "R5 universal",
            "R10 adaptive",
            "R10 universal",
        ],
        &rows,
    );
}

/// Extension (the paper's footnote 9): the ReDDE selection algorithm over
/// the same samples, compared with the summary-based strategies.
fn redde_extension(opts: &Options) {
    use eval::rk::rk_for_ranking;
    use selection::{Redde, ReddeConfig};
    let sets = opts.sets_or(&["trec4", "trec6"]);
    let ks = [1usize, 5, 10, 20];
    let mut rows = Vec::new();
    for set in &sets {
        let mut bed = opts.bed_config(set).build();
        let config = HarnessConfig::new(SamplerKind::Qbs, true, opts.seed);
        let profiled = profile_collection(&mut bed, &config);
        let sizes: Vec<f64> = profiled.summaries.iter().map(|s| s.db_size()).collect();
        let redde = Redde::build(&profiled.samples, &sizes, ReddeConfig::default());
        // ReDDE ranking per query.
        let mut redde_rk = vec![Vec::new(); ks.len()];
        for (qi, query) in bed.queries.iter().enumerate() {
            let ranking = redde.rank(&query.terms);
            for (ki, &k) in ks.iter().enumerate() {
                if let Some(v) = rk_for_ranking(&ranking, &bed.relevance[qi], k) {
                    redde_rk[ki].push(v);
                }
            }
        }
        let redde_means: Vec<f64> = redde_rk
            .iter()
            .map(|v| {
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            })
            .collect();
        let cori_shr = run_selection(
            &bed,
            &profiled,
            AlgoKind::Cori,
            Strategy::Shrinkage,
            &ks,
            opts.seed,
        );
        let bg_shr = run_selection(
            &bed,
            &profiled,
            AlgoKind::BGloss,
            Strategy::Shrinkage,
            &ks,
            opts.seed,
        );
        for (ki, &k) in ks.iter().enumerate() {
            rows.push(vec![
                set.to_string(),
                format!("R{k}"),
                f3(redde_means[ki]),
                f3(cori_shr.mean_rk[ki]),
                f3(bg_shr.mean_rk[ki]),
            ]);
        }
    }
    print_table(
        "Extension (footnote 9): ReDDE vs shrinkage-based selection (QBS samples)",
        &[
            "Data Set",
            "k",
            "ReDDE",
            "CORI-Shrinkage",
            "bGlOSS-Shrinkage",
        ],
        &rows,
    );
}

/// The Table-4 discussion isolated: "Our shrinkage technique becomes
/// increasingly more useful for larger databases." Buckets the Web-like
/// set's databases by size and reports the mean recall gain per bucket.
fn size_effect(opts: &Options) {
    let mut bed = opts.bed_config("web").build();
    let config = HarnessConfig::new(SamplerKind::Qbs, true, opts.seed);
    let profiled = profile_collection(&mut bed, &config);
    // Buckets by true database size.
    let bounds = [0usize, 300, 1000, 3000, usize::MAX];
    let labels = ["< 300 docs", "300–1k", "1k–3k", "> 3k"];
    let mut gains: Vec<Vec<(f64, f64)>> = vec![Vec::new(); labels.len()]; // (Δwr, Δur)
    for (i, tdb) in bed.databases.iter().enumerate() {
        let size = tdb.db.num_docs();
        let bucket = bounds
            .windows(2)
            .position(|w| size >= w[0] && size < w[1])
            .unwrap();
        let perfect = EvaluatedSummary::from_content_summary(&ContentSummary::perfect(&tdb.db));
        let unshrunk = EvaluatedSummary::from_content_summary(&profiled.summaries[i]);
        let shrunk = EvaluatedSummary::from_shrunk_summary(&profiled.shrunk[i]);
        let qu = summary_quality(&unshrunk, &perfect);
        let qs = summary_quality(&shrunk, &perfect);
        gains[bucket].push((
            qs.weighted_recall - qu.weighted_recall,
            qs.unweighted_recall - qu.unweighted_recall,
        ));
    }
    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(&gains)
        .map(|(label, bucket)| {
            let n = bucket.len();
            let mean = |f: fn(&(f64, f64)) -> f64| {
                if n == 0 {
                    0.0
                } else {
                    bucket.iter().map(f).sum::<f64>() / n as f64
                }
            };
            vec![
                label.to_string(),
                n.to_string(),
                format!("{:+.3}", mean(|g| g.0)),
                format!("{:+.3}", mean(|g| g.1)),
            ]
        })
        .collect();
    print_table(
        "Size effect (Table 4 discussion): recall gain from shrinkage by database size (Web-like, QBS)",
        &["Database size", "Databases", "Δ weighted recall", "Δ unweighted recall"],
        &rows,
    );
}

/// Extension: end-to-end metasearch quality — select databases (CORI +
/// adaptive shrinkage), forward the query, and compare the three
/// results-merging strategies on the *document-level* ground truth. This
/// closes the loop on the metasearching pipeline the paper's introduction
/// defines (steps 1-3).
fn merging_comparison(opts: &Options) {
    use broker::SelectionEngine;
    use eval::merged::{average_precision, precision_at_k};
    use selection::{merge_results, AdaptiveConfig, MergeStrategy};
    use textindex::RemoteDatabase;

    let sets = opts.sets_or(&["trec6"]);
    let k_dbs = 5usize;
    let per_db = 10usize;
    let mut rows = Vec::new();
    for set in &sets {
        let mut bed = opts.bed_config(set).build();
        let config = HarnessConfig::new(SamplerKind::Qbs, true, opts.seed);
        let profiled = profile_collection(&mut bed, &config);
        let algorithm = AlgoKind::Cori.build(&profiled);
        // One adaptive selection pass per query, shared by the three merge
        // strategies: the comparison isolates merging, and the broker
        // engine evaluates the whole batch in parallel.
        let names: Vec<String> = bed.databases.iter().map(|d| d.name.clone()).collect();
        let catalog = std::sync::Arc::new(profiled.catalog(&names));
        let engine = SelectionEngine::new(catalog, algorithm, AdaptiveConfig::default());
        let queries: Vec<Vec<u32>> = bed.queries.iter().map(|q| q.terms.clone()).collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let outcomes = engine.route_batch(&queries, threads);
        for strategy in [
            MergeStrategy::RoundRobin,
            MergeStrategy::RawScore,
            MergeStrategy::CoriWeighted,
        ] {
            let mut p10 = Vec::new();
            let mut ap = Vec::new();
            for (qi, query) in bed.queries.iter().enumerate() {
                let outcome = &outcomes[qi];
                let inputs: Vec<(usize, f64, textindex::SearchOutcome)> = outcome
                    .ranking
                    .iter()
                    .take(k_dbs)
                    .map(|r| {
                        (
                            r.index,
                            r.score,
                            bed.databases[r.index].db.query_any(&query.terms, per_db),
                        )
                    })
                    .collect();
                let merged: Vec<(usize, u32)> = merge_results(&inputs, strategy, k_dbs * per_db)
                    .into_iter()
                    .map(|m| (m.database, m.doc))
                    .collect();
                let total = bed.total_relevant(qi);
                if total == 0 {
                    continue;
                }
                p10.push(precision_at_k(
                    &merged,
                    |db, doc| bed.is_relevant(qi, db, doc),
                    10,
                ));
                if let Some(v) =
                    average_precision(&merged, |db, doc| bed.is_relevant(qi, db, doc), total)
                {
                    ap.push(v);
                }
            }
            let mean = |v: &[f64]| {
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            };
            rows.push(vec![
                set.to_string(),
                format!("{strategy:?}"),
                f3(mean(&p10)),
                f3(mean(&ap)),
            ]);
        }
    }
    print_table(
        "Extension: end-to-end metasearch (CORI-Shrinkage selection, k=5 databases, 10 docs each)",
        &["Data Set", "Merge strategy", "P@10", "MAP"],
        &rows,
    );
}

/// Ablation: single-word discriminative probes vs QProber-style learned
/// rules as the Focused Probing classifier.
fn classifier_ablation(opts: &Options) {
    use bench::experiment::ClassifierKind;
    let mut rows = Vec::new();
    for kind in [ClassifierKind::Words, ClassifierKind::Rules] {
        let mut bed = opts.bed_config("trec4").build();
        let mut config = HarnessConfig::new(SamplerKind::Fps, true, opts.seed);
        config.classifier_kind = kind;
        let profiled = profile_collection(&mut bed, &config);
        let truth = bed.true_categories();
        let n = truth.len() as f64;
        let exact = profiled
            .classifications
            .iter()
            .zip(&truth)
            .filter(|(a, b)| a == b)
            .count() as f64
            / n;
        let on_path = profiled
            .classifications
            .iter()
            .zip(&truth)
            .filter(|(&p, &t)| bed.hierarchy.path_from_root(t).contains(&p))
            .count() as f64
            / n;
        let mean_sample = profiled
            .summaries
            .iter()
            .map(|s| f64::from(s.sample_size()))
            .sum::<f64>()
            / n;
        let q = collection_quality(&bed, &profiled, true);
        rows.push(vec![
            format!("{kind:?}"),
            format!("{:.1}%", exact * 100.0),
            format!("{:.1}%", on_path * 100.0),
            format!("{mean_sample:.0}"),
            f3(q.weighted_recall),
            f3(q.unweighted_recall),
        ]);
    }
    print_table(
        "Ablation: FPS probe classifier (TREC4-like)",
        &[
            "Classifier",
            "Exact leaf",
            "On true path",
            "Mean |S|",
            "Shrunk wr",
            "Shrunk ur",
        ],
        &rows,
    );
}

/// Diagnostic: how accurate is the automatic (FPS) database classification
/// relative to the ground truth? The paper verified its TREC classification
/// manually ("generally accurate"; misclassified databases still landed in
/// the same wrong category as their topical twins, Section 5.2).
fn classification_report(opts: &Options) {
    let sets = opts.sets_or(&["trec4", "trec6"]);
    let mut rows = Vec::new();
    for set in &sets {
        let mut bed = opts.bed_config(set).build();
        let config = HarnessConfig::new(SamplerKind::Fps, true, opts.seed);
        let profiled = profile_collection(&mut bed, &config);
        let truth = bed.true_categories();
        let n = truth.len() as f64;
        let mut exact = 0usize;
        let mut on_path = 0usize;
        let mut top_branch = 0usize;
        for (i, &predicted) in profiled.classifications.iter().enumerate() {
            let true_path = bed.hierarchy.path_from_root(truth[i]);
            if predicted == truth[i] {
                exact += 1;
            }
            if true_path.contains(&predicted) {
                on_path += 1; // correct but possibly less specific
            }
            let predicted_path = bed.hierarchy.path_from_root(predicted);
            if predicted_path.len() > 1 && true_path.len() > 1 && predicted_path[1] == true_path[1]
            {
                top_branch += 1;
            }
        }
        rows.push(vec![
            set.to_string(),
            format!("{:.1}%", exact as f64 / n * 100.0),
            format!("{:.1}%", on_path as f64 / n * 100.0),
            format!("{:.1}%", top_branch as f64 / n * 100.0),
        ]);
    }
    print_table(
        "FPS automatic classification accuracy vs ground truth",
        &[
            "Data Set",
            "Exact leaf",
            "On true path (≤ specific)",
            "Same top-level branch",
        ],
        &rows,
    );
}

/// Ablation: the Focused Probing descent thresholds (coverage τ_c,
/// specificity τ_s) trade sampling cost against classification depth —
/// the knob \[17\] studies.
fn fps_threshold_ablation(opts: &Options) {
    use sampling::FpsConfig;
    let mut rows = Vec::new();
    for (coverage, specificity) in [(5u32, 0.15f64), (10, 0.25), (20, 0.40), (u32::MAX, 1.0)] {
        let mut bed = opts.bed_config("trec4").build();
        let mut config = HarnessConfig::new(SamplerKind::Fps, true, opts.seed);
        config.fps = FpsConfig {
            coverage_threshold: coverage,
            specificity_threshold: specificity,
            ..Default::default()
        };
        let profiled = profile_collection(&mut bed, &config);
        let truth = bed.true_categories();
        let exact = profiled
            .classifications
            .iter()
            .zip(&truth)
            .filter(|(a, b)| a == b)
            .count() as f64
            / truth.len() as f64;
        let mean_depth = profiled
            .classifications
            .iter()
            .map(|&c| bed.hierarchy.depth(c) as f64)
            .sum::<f64>()
            / truth.len() as f64;
        let mean_sample = profiled
            .summaries
            .iter()
            .map(|s| f64::from(s.sample_size()))
            .sum::<f64>()
            / truth.len() as f64;
        let q = collection_quality(&bed, &profiled, true);
        let coverage_label = if coverage == u32::MAX {
            "∞ (stay at root)".to_string()
        } else {
            coverage.to_string()
        };
        rows.push(vec![
            coverage_label,
            format!("{specificity:.2}"),
            format!("{:.1}%", exact * 100.0),
            format!("{mean_depth:.2}"),
            format!("{mean_sample:.0}"),
            f3(q.weighted_recall),
        ]);
    }
    print_table(
        "Ablation: FPS descent thresholds (TREC4-like)",
        &[
            "τ_c (coverage)",
            "τ_s (specificity)",
            "Exact leaf",
            "Mean depth",
            "Mean |S|",
            "Shrunk wr",
        ],
        &rows,
    );
}

/// Footnote-5 ablation: size-weighted (Eq. 1) vs uniform category averaging.
fn ablation_weighting(opts: &Options) {
    use dbselect_core::category_summary::CategoryWeighting;
    let mut rows = Vec::new();
    for weighting in [CategoryWeighting::BySize, CategoryWeighting::Uniform] {
        let mut bed = opts.bed_config("trec4").build();
        let mut config = HarnessConfig::new(SamplerKind::Qbs, true, opts.seed);
        config.weighting = weighting;
        let profiled = profile_collection(&mut bed, &config);
        let q = collection_quality(&bed, &profiled, true);
        rows.push(vec![
            format!("{weighting:?}"),
            f3(q.weighted_recall),
            f3(q.unweighted_recall),
            f3(q.weighted_precision),
            f3(q.spearman),
        ]);
    }
    print_table(
        "Ablation: category aggregation weighting (Eq. 1 vs footnote 5), TREC4-like, shrunk summaries",
        &["Weighting", "wr", "ur", "wp", "SRCC"],
        &rows,
    );
}

/// Ablation: overlap subtraction when building shrinkage components.
fn ablation_overlap(opts: &Options) {
    let mut rows = Vec::new();
    for subtract in [true, false] {
        let mut bed = opts.bed_config("trec4").build();
        let mut config = HarnessConfig::new(SamplerKind::Qbs, true, opts.seed);
        config.subtract_overlap = subtract;
        let profiled = profile_collection(&mut bed, &config);
        let q = collection_quality(&bed, &profiled, true);
        // Mean database λ (how much weight the database keeps for itself).
        let mean_db_lambda: f64 = profiled
            .shrunk
            .iter()
            .map(|s| s.lambdas().last().copied().unwrap_or(0.0))
            .sum::<f64>()
            / profiled.shrunk.len() as f64;
        rows.push(vec![
            if subtract { "Yes (paper)" } else { "No" }.to_string(),
            f3(q.weighted_recall),
            f3(q.weighted_precision),
            f3(q.kl_divergence),
            f3(mean_db_lambda),
        ]);
    }
    print_table(
        "Ablation: child-overlap subtraction in category components, TREC4-like, shrunk summaries",
        &["Subtract overlap", "wr", "wp", "KL", "mean λ(database)"],
        &rows,
    );
}
