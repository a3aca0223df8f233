//! Delta-chain integration tests: refresh rounds persisted as chained
//! deltas must replay bit-identically to a full freeze of the same
//! post-refresh state, and every corruption of a chain must be rejected
//! atomically with the failing file and chain position in the error.

use std::path::{Path, PathBuf};

use broker::Catalog;
use dbselect_core::category_summary::CategoryWeighting;
use dbselect_core::hierarchy::Hierarchy;
use dbselect_core::summary::ContentSummary;
use proptest::prelude::*;
use store::catalog::StoredCatalog;
use store::delta::{self, ChainWriter, DbPatch};
use store::refresh::RefreshSession;
use store::snapshot::ServingSnapshot;
use store::{CollectionStore, StoredDatabase};
use textindex::{Document, TermDict};

/// Six databases over four categories — the same shape the server's
/// fixture uses, small enough to freeze in microseconds.
fn fixture_store() -> CollectionStore {
    let mut dict = TermDict::new();
    let words = [
        "aorta", "stent", "valve", "striker", "corner", "keeper", "ticker", "yield", "virus",
        "spore", "plasma", "serum", "goal", "pitch", "bond", "cell",
    ];
    let ids: Vec<u32> = words.iter().map(|w| dict.intern(w)).collect();
    let mut hierarchy = Hierarchy::new("Root");
    let heart = hierarchy.ensure_path("Health/Heart");
    let path_ = hierarchy.ensure_path("Health/Pathology");
    let soccer = hierarchy.ensure_path("Sports/Soccer");
    let finance = hierarchy.ensure_path("Finance");
    let db = |name: &str, cat, size: f64, gamma: Option<f64>, docs: &[&[usize]]| {
        let docs: Vec<Document> = docs
            .iter()
            .enumerate()
            .map(|(i, toks)| {
                Document::from_tokens(i as u32, toks.iter().map(|&t| ids[t]).collect())
            })
            .collect();
        let mut summary = ContentSummary::from_sample(docs.iter(), size);
        if let Some(g) = gamma {
            summary.set_gamma(g);
        }
        StoredDatabase {
            name: name.into(),
            classification: cat,
            summary,
            sample_docs: Vec::new(),
        }
    };
    CollectionStore {
        dict,
        hierarchy,
        databases: vec![
            db(
                "cardio",
                heart,
                900.0,
                Some(-1.8),
                &[&[0, 1, 2], &[0, 0, 11]],
            ),
            db("surgery", heart, 400.0, None, &[&[1, 2, 15], &[2, 11]]),
            db(
                "goal-net",
                soccer,
                1500.0,
                Some(-2.1),
                &[&[3, 4, 5], &[12, 13, 3]],
            ),
            db("terrace", soccer, 300.0, None, &[&[4, 13]]),
            db(
                "tickerwire",
                finance,
                2500.0,
                Some(-1.6),
                &[&[6, 7, 14], &[6, 14]],
            ),
            db("pathogen", path_, 700.0, None, &[&[8, 9, 10], &[8, 15]]),
        ],
    }
}

/// A synthetic re-probe summary for `db`: drifts term content, may
/// intern brand-new vocabulary, may change the size estimate and γ.
fn probe(session: &mut RefreshSession, db: usize, round: u64) -> ContentSummary {
    let fresh = session.dict_mut().intern(&format!("drift-{db}-r{round}"));
    // Sorted: which term the odd rounds skip must not depend on hash order.
    let mut old_terms: Vec<u32> = session.summary(db).iter().map(|(t, _)| t).collect();
    old_terms.sort_unstable();
    let mut docs = vec![Document::from_tokens(0, vec![fresh, fresh])];
    for (i, &t) in old_terms.iter().enumerate().skip(round as usize % 2) {
        docs.push(Document::from_tokens(1 + i as u32, vec![t, fresh]));
    }
    let mut summary = ContentSummary::from_sample(docs.iter(), 1000.0 + 37.0 * round as f64);
    if db.is_multiple_of(2) {
        summary.set_gamma(-1.5 - 0.1 * round as f64);
    }
    summary
}

fn temp_chain(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dbsel-chain-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn assert_catalogs_bit_identical(a: &Catalog, b: &Catalog) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.names(), b.names());
    assert_eq!(a.mcw().to_bits(), b.mcw().to_bits());
    assert_eq!(a.min_word_count().to_bits(), b.min_word_count().to_bits());
    for db in 0..a.len() {
        assert_eq!(a.gamma(db).to_bits(), b.gamma(db).to_bits());
        assert_eq!(a.unshrunk(db), b.unshrunk(db));
    }
    assert_eq!(a.shrunk_summaries(), b.shrunk_summaries());
    assert_eq!(a.posting_index(), b.posting_index());
}

/// The patches of refresh round `round` (1-based), touching `budget`
/// databases round-robin; every round interns new terms.
fn round_patches(session: &mut RefreshSession, round: u64, budget: usize) -> Vec<DbPatch> {
    let n = session.len();
    let picks = (0..budget).map(|i| ((round as usize - 1) * budget + i) % n);
    let mut patches: Vec<DbPatch> = Vec::new();
    for db in picks {
        let summary = probe(session, db, round);
        patches.push(session.apply_probe(db, summary));
    }
    patches.sort_by_key(|p| p.db);
    patches
}

/// Start a chain in `dir` from a fresh fit of the fixture and append
/// `rounds` refresh rounds, returning the session and its writer.
fn start_chain(dir: &Path, rounds: u64, budget: usize) -> (RefreshSession, ChainWriter) {
    let stored = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
    let mut session = RefreshSession::new(stored);
    let mut writer = ChainWriter::create(dir, &session.freeze_full()).unwrap();
    for round in 1..=rounds {
        let patches = round_patches(&mut session, round, budget);
        writer.append_round(session.dict(), patches).unwrap();
    }
    (session, writer)
}

/// Resume the chain in `dir` at its tip, as `dbselect refresh` does.
fn resume_chain(dir: &Path) -> (RefreshSession, ChainWriter) {
    let chain = delta::load_chain(dir).unwrap();
    let writer = ChainWriter::resume(dir, &chain).unwrap();
    (RefreshSession::resume(chain), writer)
}

/// Build a 3-round chain in `dir`, touching `budget` databases per round
/// round-robin, and return the session (whose state is the post-refresh
/// reference).
fn build_chain(dir: &Path, budget: usize) -> RefreshSession {
    let (session, writer) = start_chain(dir, 3, budget);
    assert_eq!(writer.generation(), 3);
    session
}

fn assert_patches_bit_identical(a: &[DbPatch], b: &[DbPatch]) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.db, b.db);
        assert_eq!(a.gamma.to_bits(), b.gamma.to_bits());
        assert_eq!(bits(&a.lambdas.0), bits(&b.lambdas.0), "λ_df of #{}", a.db);
        assert_eq!(bits(&a.lambdas.1), bits(&b.lambdas.1), "λ_tf of #{}", a.db);
        let (a, b) = (&a.unshrunk, &b.unshrunk);
        assert_eq!(a.db_size().to_bits(), b.db_size().to_bits());
        assert_eq!(a.word_count().to_bits(), b.word_count().to_bits());
        assert_eq!(a.sample_size(), b.sample_size());
        assert_eq!(a.terms(), b.terms());
        let raw = |s: &dbselect_core::frozen::FrozenSummary| {
            let column = s.raw_column().iter();
            column
                .map(|(df, tf)| (df.to_bits(), tf.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(raw(a), raw(b));
        let sample_df = |s: &dbselect_core::frozen::FrozenSummary| {
            (0..s.len()).map(|i| s.sample_df_at(i)).collect::<Vec<_>>()
        };
        assert_eq!(sample_df(a), sample_df(b));
    }
}

/// The files of a chain directory, sorted by name.
fn chain_files(dir: &Path) -> Vec<String> {
    let names = std::fs::read_dir(dir).unwrap();
    let mut names: Vec<String> = names
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// A session resumed from a base-only chain written at a fresh
/// fit is that fit's session — the same freeze, and the same patches
/// from the same probes, bit for bit.
#[test]
fn resuming_a_base_only_chain_equals_the_fresh_session() {
    let dir = temp_chain("resume-base");
    let (mut fresh, _) = start_chain(&dir, 0, 2);
    let (mut resumed, writer) = resume_chain(&dir);
    assert_eq!(writer.generation(), 0);
    assert_eq!(resumed.names(), fresh.names());
    assert_eq!(
        resumed.freeze_full().value_digest(),
        fresh.freeze_full().value_digest()
    );
    for round in 1..=4 {
        let a = round_patches(&mut fresh, round, 2);
        let b = round_patches(&mut resumed, round, 2);
        assert_patches_bit_identical(&a, &b);
        assert_eq!(resumed.dict().len(), fresh.dict().len());
    }
    assert_eq!(
        resumed.freeze_full().value_digest(),
        fresh.freeze_full().value_digest()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming after `k` deltas and appending one more round writes
/// the very files one session writing `k + 1` rounds writes.
#[test]
fn a_round_appended_after_resuming_is_byte_identical_to_one_session() {
    for k in [0u64, 1, 3] {
        let reference = temp_chain(&format!("one-session-{k}"));
        start_chain(&reference, k + 1, 2);
        let dir = temp_chain(&format!("resumed-{k}"));
        start_chain(&dir, k, 2);
        let (mut session, mut writer) = resume_chain(&dir);
        assert_eq!(writer.generation(), k);
        let patches = round_patches(&mut session, k + 1, 2);
        assert_eq!(writer.append_round(session.dict(), patches).unwrap(), k + 1);

        let files = chain_files(&dir);
        assert_eq!(files, chain_files(&reference), "k = {k}");
        assert_eq!(files.len() as u64, k + 2, "base + {} deltas", k + 1);
        for name in &files {
            let (ours, theirs) = (dir.join(name), reference.join(name));
            let same = std::fs::read(ours).unwrap() == std::fs::read(theirs).unwrap();
            assert!(same, "k = {k}: {name} differs");
        }
        // The resumed session's state is the one-session reference too.
        let replayed = delta::load_chain(&reference).unwrap().snapshot;
        assert_eq!(
            session.freeze_full().value_digest(),
            replayed.value_digest()
        );
        std::fs::remove_dir_all(&reference).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Two writers resumed at the same tip: the first publishes the next
/// delta; the second fails with `AlreadyExists`, replaces nothing and
/// leaves no temporary file behind.
#[test]
fn a_second_writer_at_the_same_tip_cannot_replace_the_first_delta() {
    let dir = temp_chain("two-writers");
    start_chain(&dir, 1, 1);
    let (mut first, mut first_writer) = resume_chain(&dir);
    let (mut second, mut second_writer) = resume_chain(&dir);
    let patches = round_patches(&mut first, 2, 1);
    assert_eq!(first_writer.append_round(first.dict(), patches).unwrap(), 2);
    let published = std::fs::read(dir.join(delta::delta_file_name(2))).unwrap();

    let patches = round_patches(&mut second, 3, 1);
    let err = second_writer
        .append_round(second.dict(), patches)
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    assert!(err.to_string().contains("delta-000002.snap"), "{err}");
    assert_eq!(second_writer.generation(), 1);
    let now = std::fs::read(dir.join(delta::delta_file_name(2))).unwrap();
    assert!(now == published, "the first writer's delta was replaced");
    let expected = [delta::BASE_FILE, "delta-000001.snap", "delta-000002.snap"];
    assert_eq!(chain_files(&dir), expected);
    assert_eq!(delta::load_chain(&dir).unwrap().generation, 2);

    // A base is never replaced either, and a writer resumed at a tip the
    // directory no longer ends in is refused.
    let stored = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
    let err = ChainWriter::create(&dir, &ServingSnapshot::from_stored(&stored)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    let other = temp_chain("two-writers-other");
    start_chain(&other, 2, 2);
    let chain = delta::load_chain(&other).unwrap();
    let err = ChainWriter::resume(&dir, &chain).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&other).ok();
}

#[test]
fn chain_replay_is_bit_identical_to_full_freeze() {
    let dir = temp_chain("replay");
    let session = build_chain(&dir, 2);
    let replayed = delta::load_chain(&dir).unwrap();
    assert_eq!(replayed.generation, 3);

    let reference = session.freeze_full();
    assert_catalogs_bit_identical(&replayed.snapshot.catalog, &reference.catalog);
    assert_eq!(replayed.snapshot.categories, reference.categories);
    assert_eq!(replayed.snapshot.dict.len(), reference.dict.len());
    for id in 0..reference.dict.len() as u32 {
        assert_eq!(replayed.snapshot.dict.term(id), reference.dict.term(id));
    }
    for (a, b) in replayed.snapshot.lm_global.iter().zip(&reference.lm_global) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }
    // The v3 dominance invariant holds on the chained load: per-term
    // maxima still dominate every posting after in-place row updates.
    let index = replayed.snapshot.catalog.posting_index();
    for &term in index.terms() {
        let p = replayed.snapshot.catalog.postings(term).unwrap();
        for (j, &db) in p.dbs.iter().enumerate() {
            let s = replayed.snapshot.catalog.unshrunk(db as usize);
            assert!(p.bound.max_p_df >= p.p_df[j]);
            assert!(p.bound.max_p_tf >= p.p_tf[j]);
            assert!(p.bound.max_df >= p.p_df[j] * s.db_size());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deltas_write_only_touched_databases() {
    let dir = temp_chain("size");
    build_chain(&dir, 1);
    let base = std::fs::metadata(dir.join(delta::BASE_FILE)).unwrap().len();
    for generation in 1..=3u64 {
        let delta = std::fs::metadata(dir.join(delta::delta_file_name(generation)))
            .unwrap()
            .len();
        // One touched database out of six: the round's bytes are a small
        // fraction of the full snapshot, not another copy of it.
        assert!(
            delta * 2 < base,
            "delta {generation} is {delta} bytes vs base {base}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_pins_each_refreshed_database_to_its_base_sample() {
    // Three one-database rounds: databases 0..3 are re-probed once each.
    // Their leaf remainders keep subtracting the sample the base pinned —
    // a basis of their own, recorded at their first patch — while 3..6
    // still subtract their own sample; every generation mixes over the
    // base's one set of category columns.
    let dir = temp_chain("bases");
    let session = build_chain(&dir, 1);
    let base = ServingSnapshot::load(dir.join(delta::BASE_FILE)).unwrap();
    let replayed = delta::load_chain(&dir).unwrap().snapshot.catalog;
    let (before, after) = (base.catalog.shrunk_summaries(), replayed.shrunk_summaries());
    assert_eq!(before.categories(), after.categories());
    for db in 0..6 {
        assert!(before.basis(db).is_none());
        match after.basis(db) {
            Some(basis) => {
                assert!(db < 3, "db {db}");
                assert_eq!(basis.terms(), base.catalog.unshrunk(db).terms());
                assert_eq!(basis.raw(), base.catalog.unshrunk(db).raw_column());
            }
            None => assert!(db >= 3, "db {db}"),
        }
    }
    assert_catalogs_bit_identical(&replayed, &session.freeze_full().catalog);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_served_replays_chain_directories() {
    let dir = temp_chain("loadany");
    let session = build_chain(&dir, 2);
    let served = delta::load_served(&dir).unwrap();
    assert_catalogs_bit_identical(&served.snapshot.catalog, &session.freeze_full().catalog);
    let checksum = served.checksum;
    let replayed = delta::load_chain(&dir).unwrap();
    assert_eq!(checksum, replayed.checksum);
    assert_eq!(delta::chain_tip_generation(&dir).unwrap(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replaced_base_is_rejected_with_chain_position() {
    let dir = temp_chain("rebase");
    build_chain(&dir, 2);
    // Replace the base with a *valid* snapshot of a different store —
    // every byte of the new base checks out on its own; only the chain
    // linkage can catch the swap.
    let mut other = fixture_store();
    other.databases.pop();
    let other = StoredCatalog::freeze(other, CategoryWeighting::BySize);
    ServingSnapshot::from_stored(&other)
        .save(dir.join(delta::BASE_FILE))
        .unwrap();
    let err = delta::load_chain(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("chain delta 1"), "missing position: {msg}");
    assert!(msg.contains("parent checksum"), "missing cause: {msg}");
    assert!(msg.contains("delta-000001.snap"), "missing path: {msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chain_errors_carry_path_and_generation_context() {
    let dir = temp_chain("context");
    build_chain(&dir, 2);

    // A corrupt mid-chain delta names itself, not the base.
    let victim = dir.join(delta::delta_file_name(2));
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();
    let err = delta::load_chain(&dir).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("chain delta 2"), "{msg}");
    assert!(msg.contains("delta-000002.snap"), "{msg}");

    // A gap in the numbering is its own, position-naming error.
    std::fs::rename(&victim, dir.join(delta::delta_file_name(9))).unwrap();
    let err = delta::load_chain(&dir).unwrap_err();
    assert!(err.to_string().contains("gap in delta chain"), "{err}");

    // A missing base is NotFound and names the directory member.
    let nochain = temp_chain("nochain");
    std::fs::create_dir_all(&nochain).unwrap();
    let err = delta::load_chain(&nochain).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(err.to_string().contains("base.snap"), "{err}");

    // Plain-file loads carry the path too.
    let missing = nochain.join("nope.snap");
    let err = delta::load_served(&missing).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(err.to_string().contains("nope.snap"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&nochain).ok();
}

/// Trust boundary: a delta whose re-probed summary claims a word in more
/// sample documents than the sample holds is refused at load — `sample_df`
/// keys the serving moment table — naming the chain member and database.
#[test]
fn delta_with_sample_df_beyond_sample_size_is_rejected() {
    let dir = temp_chain("sampledf");
    let stored = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
    let mut session = RefreshSession::new(stored);
    let mut writer = ChainWriter::create(&dir, &session.freeze_full()).unwrap();
    let mut words = std::collections::HashMap::new();
    words.insert(
        0u32,
        dbselect_core::summary::WordStats {
            sample_df: 7,
            df: 70.0,
            tf: 90.0,
        },
    );
    let patch = session.apply_probe(4, ContentSummary::new(300.0, 3, words));
    writer.append_round(session.dict(), vec![patch]).unwrap();
    let err = delta::load_chain(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("delta-000001.snap"), "{msg}");
    assert!(msg.contains("database #4"), "{msg}");
    assert!(msg.contains("sample_df"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The loader refuses a non-finite size or estimate, so the delta writer
/// refuses one too — naming the database, before anything lands on disk —
/// rather than append a round that breaks the whole chain.
#[test]
fn non_finite_patches_are_refused_before_writing() {
    let dir = temp_chain("nonfinite");
    let mut store = fixture_store();
    store.databases.truncate(2);
    let stored = StoredCatalog::freeze(store, CategoryWeighting::BySize);
    let mut session = RefreshSession::new(stored);
    let mut writer = ChainWriter::create(&dir, &session.freeze_full()).unwrap();
    let words = session.summary(0).iter().map(|(t, w)| (t, *w)).collect();
    let sample_size = session.summary(0).sample_size();
    let summary = ContentSummary::new(f64::INFINITY, sample_size, words);
    let patch = session.apply_probe(0, summary);
    let err = writer
        .append_round(session.dict(), vec![patch])
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("database #0"), "{err}");
    // Neither the delta nor a temporary file is left in the directory.
    assert_eq!(chain_files(&dir), [delta::BASE_FILE]);
    let chain = delta::load_chain(&dir).unwrap();
    assert_eq!(chain.generation, 0);
    assert_eq!(writer.generation(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A γ the loader would refuse (NaN) is refused before the delta is
/// written, naming the database: the chain keeps loading at its old tip.
#[test]
fn a_nan_gamma_is_refused_before_appending() {
    let dir = temp_chain("nan-gamma");
    let stored = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
    let mut session = RefreshSession::new(stored);
    let mut writer = ChainWriter::create(&dir, &session.freeze_full()).unwrap();
    let summary = probe(&mut session, 1, 1);
    let patch = session.apply_probe(1, summary);
    writer.append_round(session.dict(), vec![patch]).unwrap();

    let mut summary = probe(&mut session, 3, 2);
    summary.set_gamma(f64::NAN);
    let patch = session.apply_probe(3, summary);
    assert!(patch.gamma.is_nan());
    let err = writer
        .append_round(session.dict(), vec![patch])
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("database #3: NaN gamma"), "{err}");
    let expected = [delta::BASE_FILE.to_string(), delta::delta_file_name(1)];
    assert_eq!(chain_files(&dir), expected);
    assert_eq!(delta::load_chain(&dir).unwrap().generation, 1);
    assert_eq!(writer.generation(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A replay records, per database, the last generation that patched it
/// (0 for databases no delta touched); a single snapshot file is all
/// base, and a chain that fails to load yields no record at all.
#[test]
fn patched_at_is_the_last_generation_that_patched_each_database() {
    let dir = temp_chain("patched-at");
    let stored = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
    let mut session = RefreshSession::new(stored);
    let mut writer = ChainWriter::create(&dir, &session.freeze_full()).unwrap();
    assert_eq!(delta::load_chain(&dir).unwrap().patched_at, [0; 6]);
    let rounds: [&[usize]; 4] = [&[0, 2], &[2], &[0, 4], &[2]];
    for (round, dbs) in (1u64..).zip(rounds) {
        let patches = dbs
            .iter()
            .map(|&db| {
                let summary = probe(&mut session, db, round);
                session.apply_probe(db, summary)
            })
            .collect();
        assert_eq!(writer.append_round(session.dict(), patches).unwrap(), round);
    }
    let chain = delta::load_chain(&dir).unwrap();
    assert_eq!(chain.generation, 4);
    assert_eq!(chain.patched_at, [3, 0, 4, 0, 3, 0]);
    assert_eq!(
        delta::load_served(&dir).unwrap().patched_at,
        chain.patched_at
    );

    let base = delta::load_served(dir.join(delta::BASE_FILE)).unwrap();
    assert_eq!((base.generation, base.patched_at), (0, vec![0; 6]));

    let last = dir.join(delta::delta_file_name(4));
    let bytes = std::fs::read(&last).unwrap();
    std::fs::write(&last, &bytes[..bytes.len() - 1]).unwrap();
    let err = delta::load_chain(&dir).unwrap_err();
    assert!(err.to_string().contains("chain delta 4"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// The single-byte-mutation fuzz, extended to chains: flipping any
    /// byte of any chain member (base or any delta) makes the chain load
    /// fail — never a panic, never a silently different catalog.
    #[test]
    fn any_single_byte_mutation_in_any_chain_member_is_rejected(
        member in 0usize..4,
        position in 0usize..100_000,
        xor in 1u8..=255,
    ) {
        let dir = temp_chain("fuzz");
        build_chain(&dir, 2);
        let victim = if member == 0 {
            dir.join(delta::BASE_FILE)
        } else {
            dir.join(delta::delta_file_name(member as u64))
        };
        let mut bytes = std::fs::read(&victim).unwrap();
        let position = position % bytes.len();
        bytes[position] ^= xor;
        std::fs::write(&victim, &bytes).unwrap();
        prop_assert!(delta::load_chain(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn untouched_databases_never_change_under_refresh() {
    // The pinned-epoch guarantee that makes deltas sound: applying a
    // probe to one database leaves every other database's frozen columns
    // bit-identical.
    let stored = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
    let mut session = RefreshSession::new(stored);
    let before = session.freeze_full();
    let summary = probe(&mut session, 2, 1);
    session.apply_probe(2, summary);
    let after = session.freeze_full();
    for db in 0..before.catalog.len() {
        if db == 2 {
            assert_ne!(before.catalog.unshrunk(db), after.catalog.unshrunk(db));
            continue;
        }
        assert_eq!(before.catalog.unshrunk(db), after.catalog.unshrunk(db));
        let words = 0..session.dict().len() as u32;
        for t in words.chain([u32::MAX - 1]) {
            let (b, a) = (before.catalog.shrunk(db), after.catalog.shrunk(db));
            assert_eq!(b.p_df(t).to_bits(), a.p_df(t).to_bits());
            assert_eq!(b.p_tf(t).to_bits(), a.p_tf(t).to_bits());
        }
        assert_eq!(
            before.catalog.gamma(db).to_bits(),
            after.catalog.gamma(db).to_bits()
        );
    }
}

/// Golden values: the bits of every served value (see
/// `ServingSnapshot::value_digest`), recorded from the v3 freeze before
/// shrunk summaries were served in factored form: a full freeze, the
/// session's freeze at generation 0 and after three refresh rounds, and
/// the replay of the base plus three deltas.
#[test]
fn frozen_and_chained_values_match_their_recorded_digests() {
    let stored = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
    let from_stored = ServingSnapshot::from_stored(&stored).value_digest();
    let at_zero = RefreshSession::new(stored).freeze_full().value_digest();

    let dir = temp_chain("value-golden");
    let session = build_chain(&dir, 2);
    let after_three = session.freeze_full().value_digest();
    let replayed = delta::load_chain(&dir).unwrap().snapshot.value_digest();
    std::fs::remove_dir_all(&dir).ok();

    const BASE: u64 = 0x793d_9344_0a22_0347;
    const AFTER_THREE: u64 = 0x373b_fb76_ab06_44e5;
    let digests = [from_stored, at_zero, after_three, replayed];
    assert_eq!(
        digests,
        [BASE, BASE, AFTER_THREE, AFTER_THREE],
        "{digests:#x?}"
    );
}

#[test]
fn session_freeze_at_generation_zero_matches_from_stored() {
    // `dbselect freeze` output can seed a chain: the session's reference
    // freeze with no probes applied is the stock snapshot, bit for bit.
    let stored = StoredCatalog::freeze(fixture_store(), CategoryWeighting::BySize);
    let from_stored = ServingSnapshot::from_stored(&stored);
    let session = RefreshSession::new(stored);
    assert_catalogs_bit_identical(&session.freeze_full().catalog, &from_stored.catalog);
}
