//! Criterion micro-benchmarks for the broker serving layer: batched query
//! routing through the [`SelectionEngine`] versus the per-query full-scan
//! baseline, catalog construction versus loading a frozen catalog, and the
//! adaptive uncertainty test: building its moment table, then routing on
//! it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use bench::experiment::{profile_collection, AlgoKind, HarnessConfig, ProfiledCollection};
use broker::{Catalog, CatalogEntry, SelectionEngine};
use corpus::{TestBed, TestBedConfig};
use sampling::scheduler::db_rng;
use sampling::{profile_qbs, PipelineConfig, SamplerKind};
use selection::{adaptive_rank, AdaptiveConfig, ShrinkageMode, SummaryPair};
use store::catalog::StoredCatalog;
use store::snapshot::ServingSnapshot;
use store::{CollectionStore, StoredDatabase};
use textindex::TermId;

fn fixture() -> (TestBed, ProfiledCollection) {
    let mut bed = TestBedConfig::tiny(30).build();
    let config = HarnessConfig::new(SamplerKind::Qbs, true, 30);
    let profiled = profile_collection(&mut bed, &config);
    (bed, profiled)
}

fn catalog_entries(bed: &TestBed, profiled: &ProfiledCollection) -> Vec<CatalogEntry> {
    bed.databases
        .iter()
        .zip(profiled.summaries.iter().zip(&profiled.shrunk))
        .map(|(tdb, (unshrunk, shrunk))| CatalogEntry {
            name: tdb.name.clone(),
            unshrunk: unshrunk.clone(),
            shrunk: shrunk.clone(),
        })
        .collect()
}

fn bench_batch_route(c: &mut Criterion) {
    let (bed, profiled) = fixture();
    let catalog = std::sync::Arc::new(
        profiled.catalog(
            &bed.databases
                .iter()
                .map(|d| d.name.clone())
                .collect::<Vec<_>>(),
        ),
    );
    let queries: Vec<Vec<TermId>> = bed.queries.iter().map(|q| q.terms.clone()).collect();
    let config = AdaptiveConfig {
        mode: ShrinkageMode::Adaptive,
        ..Default::default()
    };
    let pairs: Vec<SummaryPair<'_>> = profiled
        .summaries
        .iter()
        .zip(&profiled.shrunk)
        .map(|(unshrunk, shrunk)| SummaryPair { unshrunk, shrunk })
        .collect();

    let mut group = c.benchmark_group("broker/batch_route");
    group.bench_function("baseline_per_query_rescan", |b| {
        let algo = AlgoKind::Cori.build(&profiled);
        b.iter(|| {
            queries
                .iter()
                .enumerate()
                .map(|(qi, query)| {
                    let mut rng = db_rng(77, qi);
                    adaptive_rank(black_box(algo.as_ref()), query, &pairs, &config, &mut rng)
                })
                .collect::<Vec<_>>()
        })
    });
    for threads in [1usize, 4] {
        let algo = AlgoKind::Cori.build(&profiled);
        let engine = SelectionEngine::new(std::sync::Arc::clone(&catalog), algo, config);
        group.bench_with_input(BenchmarkId::new("engine", threads), &threads, |b, &t| {
            b.iter(|| engine.route_batch(black_box(&queries), t))
        });
    }
    group.finish();
}

fn bench_catalog_build_vs_load(c: &mut Criterion) {
    let (bed, profiled) = fixture();
    let entries = catalog_entries(&bed, &profiled);

    // A frozen catalog needs a real CollectionStore underneath.
    let mut rng = StdRng::seed_from_u64(40);
    let pipeline = PipelineConfig {
        frequency_estimation: true,
        ..Default::default()
    };
    let databases = bed
        .databases
        .iter()
        .map(|tdb| {
            let profile = profile_qbs(&tdb.db, &bed.seed_lexicon, &pipeline, &mut rng);
            StoredDatabase {
                name: tdb.name.clone(),
                classification: tdb.category,
                summary: profile.summary,
                sample_docs: profile.sample.docs.into_iter().map(|d| d.tokens).collect(),
            }
        })
        .collect();
    let store = CollectionStore {
        dict: bed.dict.clone(),
        hierarchy: bed.hierarchy.clone(),
        databases,
    };
    let frozen = StoredCatalog::freeze(
        store,
        dbselect_core::category_summary::CategoryWeighting::BySize,
    );
    let snapshot = ServingSnapshot::from_stored(&frozen);
    let mut v2_bytes = Vec::new();
    snapshot.write_to(&mut v2_bytes).unwrap();

    eprintln!("[fixture] v2 {} bytes", v2_bytes.len());
    let mut group = c.benchmark_group("broker/catalog");
    group.bench_function("build_postings_from_summaries", |b| {
        b.iter(|| Catalog::build(black_box(entries.clone())))
    });
    // The serving hot path: a v2 snapshot decodes straight into columnar
    // arrays — no shrunk-summary reassembly, no posting reconstruction.
    group.bench_function("load_frozen_no_em", |b| {
        b.iter(|| ServingSnapshot::read_from(&mut black_box(v2_bytes.as_slice())).unwrap())
    });
    group.finish();
}

/// A serving-scale synthetic catalog: `n` databases over a 400-term
/// vocabulary, ~24 terms each, so every query word posts in ~6% of the
/// catalog. The testbed fixture (12 databases) is too small for top-k
/// pruning to have anything to skip; federated serving is exactly the
/// regime where the catalog dwarfs `k`.
fn synthetic_catalog(n: usize) -> (std::sync::Arc<Catalog>, Vec<Vec<TermId>>) {
    use dbselect_core::category_summary::SummaryComponent;
    use dbselect_core::shrinkage::{shrink, ShrinkageConfig};
    use dbselect_core::summary::{ContentSummary, WordStats};
    use std::collections::{BTreeSet, HashMap};

    const VOCAB: u64 = 400;
    let component = std::sync::Arc::new(SummaryComponent {
        p_df: (0..VOCAB as u32).map(|t| (t, 0.01)).collect(),
        p_tf: (0..VOCAB as u32).map(|t| (t, 0.003)).collect(),
    });
    let entries: Vec<CatalogEntry> = (0..n)
        .map(|i| {
            let db_size = 500.0 + (i as f64 * 37.0) % 90_000.0;
            let words: HashMap<TermId, WordStats> = (0..24u64)
                .map(|j| ((i as u64 * 131 + j * 97) % VOCAB) as u32)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .enumerate()
                .map(|(j, t)| {
                    let sample_df = ((i + j * 7) % 89 + 1) as u32;
                    let df = f64::from(sample_df) / 100.0 * db_size;
                    (
                        t,
                        WordStats {
                            sample_df,
                            df,
                            tf: df * 2.0,
                        },
                    )
                })
                .collect();
            let unshrunk = ContentSummary::new(db_size, 100, words);
            let shrunk = shrink(
                &unshrunk,
                &[std::sync::Arc::clone(&component)],
                &ShrinkageConfig::default(),
            );
            CatalogEntry {
                name: format!("db{i}"),
                unshrunk,
                shrunk,
            }
        })
        .collect();
    let queries: Vec<Vec<TermId>> = (0..20u64)
        .map(|q| {
            (0..4u64)
                .map(|w| ((q * 53 + w * 17) % VOCAB) as u32)
                .collect()
        })
        .collect();
    (std::sync::Arc::new(Catalog::build(entries)), queries)
}

/// Pruned top-k vs. full-ranking routing on the `/route` hot path, over a
/// 500-database synthetic catalog. The `full` baselines call `route` (the
/// whole ranking, so no bound can skip a row); the `pruned` rows call
/// `route_topk` (maxscore early termination against the k-th score).
/// `never` mode is pure scoring; `adaptive` includes the (unpruned,
/// closed-form) choose phase.
fn bench_topk_pruning(c: &mut Criterion) {
    let (catalog, queries) = synthetic_catalog(500);

    let mut group = c.benchmark_group("broker/route_topk");
    for (mode_name, mode) in [
        ("never", ShrinkageMode::Never),
        ("adaptive", ShrinkageMode::Adaptive),
    ] {
        let config = AdaptiveConfig {
            mode,
            ..Default::default()
        };
        let engine = SelectionEngine::new(
            std::sync::Arc::clone(&catalog),
            std::sync::Arc::new(selection::Cori::default()),
            config,
        );
        group.bench_function(BenchmarkId::new("full", mode_name), |b| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|query| engine.route(black_box(query)))
                    .collect::<Vec<_>>()
            })
        });
        for k in [1usize, 5, 10] {
            group.bench_function(BenchmarkId::new(format!("pruned/{mode_name}"), k), |b| {
                let mut rng = StdRng::seed_from_u64(9);
                b.iter(|| {
                    queries
                        .iter()
                        .map(|query| engine.route_topk(black_box(query), k, &mut rng))
                        .collect::<Vec<_>>()
                })
            });
        }
    }
    group.finish();
}

/// Refresh-round cost scaling on the tiny(30) testbed: applying `touched`
/// re-probes (restricted EM refit per database) and serializing the
/// round's delta record, versus freezing and serializing the full
/// snapshot — the delta path's whole point is that time and bytes track
/// the touched-db count, not the catalog.
fn bench_refresh(c: &mut Criterion) {
    use store::delta::DeltaRecord;
    use store::refresh::RefreshSession;

    let bed = TestBedConfig::tiny(30).build();
    let mut rng = StdRng::seed_from_u64(40);
    let pipeline = PipelineConfig {
        frequency_estimation: true,
        ..Default::default()
    };
    let databases: Vec<StoredDatabase> = bed
        .databases
        .iter()
        .map(|tdb| {
            let profile = profile_qbs(&tdb.db, &bed.seed_lexicon, &pipeline, &mut rng);
            StoredDatabase {
                name: tdb.name.clone(),
                classification: tdb.category,
                summary: profile.summary,
                sample_docs: Vec::new(),
            }
        })
        .collect();
    let store = CollectionStore {
        dict: bed.dict.clone(),
        hierarchy: bed.hierarchy.clone(),
        databases,
    };
    let frozen = StoredCatalog::freeze(
        store,
        dbselect_core::category_summary::CategoryWeighting::BySize,
    );

    // Fresh re-probe results (a different sampling seed stands in for
    // drifted content), computed once outside the measured loops.
    let mut rng = StdRng::seed_from_u64(41);
    let probes: Vec<_> = bed
        .databases
        .iter()
        .map(|tdb| profile_qbs(&tdb.db, &bed.seed_lexicon, &pipeline, &mut rng).summary)
        .collect();

    let mut session = RefreshSession::new(frozen);
    let dict_base = session.dict().len() as u32;

    let mut full_bytes = Vec::new();
    session.freeze_full().write_to(&mut full_bytes).unwrap();

    let mut group = c.benchmark_group("broker/refresh");
    // Baseline: what shipping a refresh WITHOUT deltas would cost — a
    // full freeze plus a full snapshot serialization, per round.
    group.bench_function("full_freeze_serialize", |b| {
        b.iter(|| {
            let mut bytes = Vec::new();
            session.freeze_full().write_to(&mut bytes).unwrap();
            bytes.len()
        })
    });
    for touched in [1usize, 2, 4, 8] {
        // Report the delta's size alongside the timing rows.
        let patches: Vec<_> = (0..touched)
            .map(|db| session.apply_probe(db, probes[db].clone()))
            .collect();
        let record = DeltaRecord {
            parent: 0,
            generation: 1,
            dict_base,
            appended_terms: Vec::new(),
            patches,
        };
        let mut delta_bytes = Vec::new();
        record.write_to(&mut delta_bytes).unwrap();
        eprintln!(
            "[refresh] touched {touched}: delta {} bytes vs full snapshot {} bytes",
            delta_bytes.len(),
            full_bytes.len()
        );
        group.bench_with_input(
            BenchmarkId::new("round", touched),
            &touched,
            |b, &touched| {
                b.iter(|| {
                    let patches: Vec<_> = (0..touched)
                        .map(|db| session.apply_probe(db, black_box(probes[db].clone())))
                        .collect();
                    let record = DeltaRecord {
                        parent: 0,
                        generation: 1,
                        dict_base,
                        appended_terms: Vec::new(),
                        patches,
                    };
                    let mut bytes = Vec::new();
                    record.write_to(&mut bytes).unwrap();
                    bytes.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_uncertainty_test(c: &mut Criterion) {
    let (bed, profiled) = fixture();
    let catalog = std::sync::Arc::new(
        profiled.catalog(
            &bed.databases
                .iter()
                .map(|d| d.name.clone())
                .collect::<Vec<_>>(),
        ),
    );
    let algo = AlgoKind::Cori.build(&profiled);
    let config = AdaptiveConfig {
        mode: ShrinkageMode::Adaptive,
        ..Default::default()
    };
    let query = &bed.queries[0].terms;

    let mut group = c.benchmark_group("broker/uncertainty_test");
    group.bench_function("table_build", |b| {
        b.iter(|| SelectionEngine::new(std::sync::Arc::clone(&catalog), algo.clone(), config))
    });
    let tabulated = SelectionEngine::new(std::sync::Arc::clone(&catalog), algo.clone(), config);
    group.bench_function("tabulated", |b| {
        b.iter(|| tabulated.route(black_box(query)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_route,
    bench_topk_pruning,
    bench_catalog_build_vs_load,
    bench_refresh,
    bench_uncertainty_test
);
criterion_main!(benches);
