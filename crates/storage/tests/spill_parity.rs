//! Tiered-storage acceptance suite (the PR-8 spill contract):
//!
//! * a budget-constrained [`SegmentedRepository`] — sealed segments
//!   spilled to disk, paged back through a bounded cache — answers every
//!   scoped query path **bit-identically** to a single [`Repository`] fed
//!   the same batches, with `seal_now()` forced at proptest-chosen points;
//! * after a maintenance round the decoded sealed-row gauge sits at or
//!   under `memory_budget_rows`, and anything past the budget really went
//!   to disk (`spills >= 1`);
//! * the raw-splice export (spilled bytes re-framed without a typed
//!   decode) equals the typed re-encode path byte-for-byte and imports
//!   into an identical repository;
//! * truncating, bit-flipping, deleting, or swapping in another valid
//!   spill file makes the `try_*` query twins and `try_export` return a
//!   [`SpillError`] — never a panic, never silently wrong rows — while
//!   metadata-only paths (`counts`, `run_ids`) keep answering without
//!   touching disk;
//! * the segment spill framing itself is pinned by a checked-in golden
//!   fixture, so the canonical encoding cannot drift unnoticed.

use proptest::prelude::*;

use std::path::PathBuf;

use vita_geometry::{Aabb, Point};
use vita_indoor::{BuildingId, DeviceId, FloorId, Loc, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;
use vita_storage::{
    decode_segment, encode_segment, ProductBatch, ProductSink, Repository, RunScope, SegmentConfig,
    SegmentSection, SegmentedRepository, SpillConfig, SpillError,
};

const OBJECTS: u32 = 24;
const DEVICES: u32 = 5;
const RUNS: u32 = 3;
const T_MAX: u64 = 10_000;

fn sample_strategy() -> impl Strategy<Value = TrajectorySample> {
    (
        0u32..OBJECTS,
        0u32..2,
        -40.0f64..40.0,
        -40.0f64..40.0,
        0u64..T_MAX,
    )
        .prop_map(|(o, f, x, y, t)| {
            TrajectorySample::new(
                ObjectId(o),
                BuildingId(0),
                FloorId(f),
                Point::new(x, y),
                Timestamp(t),
            )
        })
}

fn rssi_strategy() -> impl Strategy<Value = RssiMeasurement> {
    (0u32..OBJECTS, 0u32..DEVICES, -100.0f64..-20.0, 0u64..T_MAX).prop_map(|(o, d, r, t)| {
        RssiMeasurement {
            object: ObjectId(o),
            device: DeviceId(d),
            rssi: r,
            t: Timestamp(t),
        }
    })
}

fn fix_strategy() -> impl Strategy<Value = Fix> {
    (0u32..OBJECTS, -40.0f64..40.0, -40.0f64..40.0, 0u64..T_MAX).prop_map(|(o, x, y, t)| Fix {
        object: ObjectId(o),
        loc: Loc::point(BuildingId(0), FloorId(0), Point::new(x, y)),
        t: Timestamp(t),
    })
}

fn proximity_strategy() -> impl Strategy<Value = ProximityRecord> {
    (0u32..OBJECTS, 0u32..DEVICES, 0u64..T_MAX, 0u64..2_000).prop_map(|(o, d, ts, dur)| {
        ProximityRecord {
            object: ObjectId(o),
            device: DeviceId(d),
            ts: Timestamp(ts),
            te: Timestamp(ts + dur),
        }
    })
}

/// A unique spill parent dir per test; each repository instance adds its
/// own `vita-{pid}-{n}` subdir underneath, removed on drop.
fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vita-spill-suite-{tag}-{}", std::process::id()))
}

/// A deliberately tiny memory budget so modest proptest corpora overflow
/// it, with a two-slot page-in cache to force eviction churn.
fn tiny_spill(tag: &str, budget: usize) -> SpillConfig {
    SpillConfig {
        dir: spill_dir(tag),
        memory_budget_rows: budget,
        cache_segments: 2,
    }
}

/// Feed identical batches to the all-resident single repository and the
/// budget-constrained spilled one, rotating the run tag per chunk and
/// forcing a seal/spill round every `seal_every` chunks.
fn fill2<T: Clone>(
    rows: &[T],
    batch: usize,
    seal_every: usize,
    wrap: impl Fn(Vec<T>) -> ProductBatch,
    single: &Repository,
    spilled: &SegmentedRepository,
) {
    for (i, chunk) in rows.chunks(batch.max(1)).enumerate() {
        let run = RunId((i as u32) % RUNS);
        single.accept_run(run, wrap(chunk.to_vec()));
        spilled.accept_run(run, wrap(chunk.to_vec()));
        if (i + 1) % seal_every.max(1) == 0 {
            spilled.seal_now();
        }
    }
    spilled.seal_now();
}

/// Scopes every parity check runs under: all runs merged plus each run in
/// isolation.
fn scopes() -> Vec<RunScope> {
    let mut v = vec![RunScope::All];
    v.extend((0..RUNS).map(|r| RunScope::from(RunId(r))));
    v
}

/// After a maintenance round the decoded sealed-row gauge must fit the
/// budget, and a corpus larger than the budget must really have spilled.
fn assert_budget_held(spilled: &SegmentedRepository, budget: usize, total_rows: usize) {
    let stats = spilled.stats();
    assert!(
        stats.resident_rows <= budget,
        "decoded sealed rows {} exceed budget {budget}: {stats:?}",
        stats.resident_rows
    );
    if total_rows > budget {
        assert!(
            stats.spills >= 1 && stats.spilled_rows > 0,
            "corpus of {total_rows} rows never spilled past budget {budget}: {stats:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every trajectory query path — scan, time window, snapshot, trace —
    /// is bit-identical to the all-resident single repository, across all
    /// scopes, while segments spill and page back in under a tiny budget.
    #[test]
    fn trajectory_paths_agree_exactly_under_spill(
        rows in proptest::collection::vec(sample_strategy(), 1..250),
        batch in 1usize..40,
        seal_every in 1usize..6,
        budget in 8usize..64,
        from in 0u64..T_MAX,
        width in 0u64..T_MAX,
        at in 0u64..T_MAX,
    ) {
        let single = Repository::new();
        let spilled = SegmentedRepository::with_spill(
            SegmentConfig { seal_rows: 16, ..SegmentConfig::default() },
            tiny_spill("traj", budget),
        );
        fill2(&rows, batch, seal_every, ProductBatch::Trajectories, &single, &spilled);
        assert_budget_held(&spilled, budget, rows.len());

        for scope in scopes() {
            prop_assert_eq!(single.counts(scope), spilled.counts(scope));

            let a: Vec<TrajectorySample> = match scope.run() {
                None => single.trajectories.read().scan().copied().collect(),
                Some(r) => single.trajectories.read().scan_run(r).into_iter().copied().collect(),
            };
            prop_assert_eq!(a, spilled.trajectories_scan(scope));

            for (lo, hi) in [(from, from + width), (from, from), (0, T_MAX + 1)] {
                let a: Vec<TrajectorySample> = single.trajectories.read()
                    .time_window(scope, Timestamp(lo), Timestamp(hi))
                    .into_iter().copied().collect();
                prop_assert_eq!(
                    a,
                    spilled.trajectories_time_window(scope, Timestamp(lo), Timestamp(hi))
                );
            }

            let a: Vec<TrajectorySample> = single.trajectories.read()
                .snapshot_at(scope, Timestamp(at)).into_iter().copied().collect();
            prop_assert_eq!(a, spilled.trajectories_snapshot_at(scope, Timestamp(at)));
            for o in 0..OBJECTS {
                let a: Vec<TrajectorySample> = single.trajectories.read()
                    .object_trace(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(a, spilled.object_trace(scope, ObjectId(o)));
            }
        }
        prop_assert_eq!(single.run_ids(), spilled.run_ids());
        if rows.len() > budget {
            prop_assert!(spilled.stats().page_ins >= 1, "{:?}", spilled.stats());
        }

        // Queries paged segments back in; the next maintenance round must
        // bring the gauge back under the budget without changing answers.
        let before = spilled.trajectories_scan(RunScope::All);
        spilled.seal_now();
        assert_budget_held(&spilled, budget, rows.len());
        prop_assert_eq!(before, spilled.trajectories_scan(RunScope::All));
    }

    /// Spatial paths page spilled segments in through the floor-pruned
    /// keep-predicate: range queries exact, kNN distance multisets
    /// bit-identical.
    #[test]
    fn spatial_paths_agree_under_spill(
        rows in proptest::collection::vec(sample_strategy(), 1..150),
        seal_every in 1usize..6,
        budget in 8usize..48,
        x0 in -40.0f64..40.0, y0 in -40.0f64..40.0,
        w in 1.0f64..50.0, h in 1.0f64..50.0,
        k in 1usize..12,
    ) {
        let single = Repository::new();
        let spilled = SegmentedRepository::with_spill(
            SegmentConfig { seal_rows: 16, ..SegmentConfig::default() },
            tiny_spill("spatial", budget),
        );
        fill2(&rows, 16, seal_every, ProductBatch::Trajectories, &single, &spilled);
        assert_budget_held(&spilled, budget, rows.len());

        let q = Aabb::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let p = Point::new(x0, y0);
        for scope in scopes() {
            for floor in [FloorId(0), FloorId(1), FloorId(7)] {
                let a: Vec<TrajectorySample> = single.trajectories.read()
                    .range_query(scope, floor, &q).into_iter().copied().collect();
                prop_assert_eq!(a, spilled.trajectories_range_query(scope, floor, &q));
            }

            let a: Vec<u64> = single.trajectories.read().knn(scope, FloorId(0), p, k)
                .iter().map(|(_, d)| d.to_bits()).collect();
            let b: Vec<u64> = spilled.trajectories_knn(scope, FloorId(0), p, k)
                .iter().map(|(_, d)| d.to_bits()).collect();
            prop_assert_eq!(a, b);
        }
    }

    /// RSSI, fix, and proximity paths under spill: exact on every scope,
    /// object, and device.
    #[test]
    fn measurement_paths_agree_exactly_under_spill(
        rssi in proptest::collection::vec(rssi_strategy(), 1..150),
        fixes in proptest::collection::vec(fix_strategy(), 1..150),
        prox in proptest::collection::vec(proximity_strategy(), 1..150),
        batch in 1usize..40,
        seal_every in 1usize..6,
        budget in 8usize..64,
        from in 0u64..T_MAX,
        width in 0u64..T_MAX,
    ) {
        let single = Repository::new();
        let spilled = SegmentedRepository::with_spill(
            SegmentConfig { seal_rows: 16, ..SegmentConfig::default() },
            tiny_spill("meas", budget),
        );
        fill2(&rssi, batch, seal_every, ProductBatch::Rssi, &single, &spilled);
        fill2(&fixes, batch, seal_every, ProductBatch::Fixes, &single, &spilled);
        fill2(&prox, batch, seal_every, ProductBatch::Proximity, &single, &spilled);
        assert_budget_held(&spilled, budget, rssi.len() + fixes.len() + prox.len());

        let (lo, hi) = (Timestamp(from), Timestamp(from + width));
        for scope in scopes() {
            prop_assert_eq!(single.counts(scope), spilled.counts(scope));

            let a: Vec<RssiMeasurement> = match scope.run() {
                None => single.rssi.read().scan().copied().collect(),
                Some(r) => single.rssi.read().scan_run(r).into_iter().copied().collect(),
            };
            prop_assert_eq!(a, spilled.rssi_scan(scope));
            let a: Vec<RssiMeasurement> = single.rssi.read()
                .time_window(scope, lo, hi).into_iter().copied().collect();
            prop_assert_eq!(a, spilled.rssi_time_window(scope, lo, hi));
            let a: Vec<Fix> = single.fixes.read()
                .time_window(scope, lo, hi).into_iter().copied().collect();
            prop_assert_eq!(a, spilled.fixes_time_window(scope, lo, hi));
            let a: Vec<ProximityRecord> = single.proximity.read()
                .overlapping(scope, lo, hi).into_iter().copied().collect();
            prop_assert_eq!(a, spilled.proximity_overlapping(scope, lo, hi));

            for o in 0..OBJECTS {
                let a: Vec<RssiMeasurement> = single.rssi.read()
                    .of_object(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(a, spilled.rssi_of_object(scope, ObjectId(o)));
                let af: Vec<Fix> = single.fixes.read()
                    .of_object(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(af, spilled.fixes_of_object(scope, ObjectId(o)));
                let ap: Vec<ProximityRecord> = single.proximity.read()
                    .of_object(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(ap, spilled.proximity_of_object(scope, ObjectId(o)));
            }
            for d in 0..DEVICES {
                let a: Vec<RssiMeasurement> = single.rssi.read()
                    .of_device(scope, DeviceId(d)).into_iter().copied().collect();
                prop_assert_eq!(a, spilled.rssi_of_device(scope, DeviceId(d)));
                let ap: Vec<ProximityRecord> = single.proximity.read()
                    .of_device(scope, DeviceId(d)).into_iter().copied().collect();
                prop_assert_eq!(ap, spilled.proximity_of_device(scope, DeviceId(d)));
            }
        }
    }

    /// Export out of a spilled repository splices raw bytes from the spill
    /// files: it must equal the typed re-encode path byte-for-byte and
    /// import into a repository that scans identically per run.
    #[test]
    fn spilled_export_splices_raw_bytes_identically(
        rows in proptest::collection::vec(sample_strategy(), 1..120),
        batch in 1usize..30,
        seal_every in 1usize..6,
        budget in 8usize..48,
    ) {
        let single = Repository::new();
        let spilled = SegmentedRepository::with_spill(
            SegmentConfig { seal_rows: 16, ..SegmentConfig::default() },
            tiny_spill("export", budget),
        );
        fill2(&rows, batch, seal_every, ProductBatch::Trajectories, &single, &spilled);

        let spliced = spilled.export();
        let reencoded = spilled.export_reencode();
        prop_assert_eq!(&spliced.trajectories, &reencoded.trajectories);
        prop_assert_eq!(&spliced.rssi, &reencoded.rssi);
        prop_assert_eq!(&spliced.fixes, &reencoded.fixes);
        prop_assert_eq!(&spliced.proximity, &reencoded.proximity);

        let from_spilled = Repository::import(&spliced).unwrap();
        for r in 0..RUNS {
            let a: Vec<TrajectorySample> = from_spilled.trajectories.read()
                .scan_run(RunId(r)).into_iter().copied().collect();
            let b: Vec<TrajectorySample> = single.trajectories.read()
                .scan_run(RunId(r)).into_iter().copied().collect();
            prop_assert_eq!(a, b);
        }
    }
}

// ----------------------------------------------------------- corruption fuzz

/// Build a repository holding exactly one sealed, spilled trajectory
/// segment of `n` rows in `run` (budget 0 spills everything; a lone
/// segment cannot be compacted away), and return it with the on-disk path
/// of its spill file.
fn one_spilled_segment(
    tag: &str,
    run: RunId,
    n: u32,
) -> (SegmentedRepository, PathBuf, Vec<TrajectorySample>) {
    let parent = spill_dir(tag);
    let _ = std::fs::remove_dir_all(&parent);
    let repo = SegmentedRepository::with_spill(
        SegmentConfig {
            seal_rows: 64,
            ..SegmentConfig::default()
        },
        SpillConfig {
            dir: parent.clone(),
            memory_budget_rows: 0,
            cache_segments: 2,
        },
    );
    let rows: Vec<TrajectorySample> = (0..n)
        .map(|i| {
            TrajectorySample::new(
                ObjectId(i % 4),
                BuildingId(0),
                FloorId(0),
                Point::new(i as f64, 1.0),
                Timestamp(i as u64 * 10),
            )
        })
        .collect();
    repo.accept_run(run, ProductBatch::Trajectories(rows.clone()));
    repo.seal_now();
    let stats = repo.stats();
    assert_eq!(stats.spilled_segments, 1, "{stats:?}");
    assert_eq!(stats.spilled_rows, n as usize, "{stats:?}");

    let mut files = Vec::new();
    for entry in std::fs::read_dir(&parent).unwrap() {
        let sub = entry.unwrap().path();
        for f in std::fs::read_dir(&sub).unwrap() {
            let p = f.unwrap().path();
            if p.extension().is_some_and(|e| e == "vita") {
                files.push(p);
            }
        }
    }
    assert_eq!(files.len(), 1, "expected one spill file, got {files:?}");
    (repo, files.remove(0), rows)
}

/// Metadata-only paths never touch disk: they must keep answering even
/// when every spilled byte is gone or corrupt.
fn assert_planning_survives(repo: &SegmentedRepository) {
    let c = repo.counts(RunScope::All);
    assert_eq!(c.trajectories, 32);
    assert_eq!(repo.run_ids(), vec![RunId(0)]);
    assert_eq!(repo.stats().spilled_rows, 32);
}

/// The [`SpillError`] a damaged spill file must surface as.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Io,
    Codec,
    WrongSegment,
}

/// Every row-materialising `try_*` path over the damaged segment must
/// surface an error of the `expect`ed kind — never panic, never fabricate
/// rows.
fn assert_queries_error(repo: &SegmentedRepository, expect: Expect) {
    let window = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 2.0));
    let results: Vec<Result<usize, SpillError>> = vec![
        repo.try_trajectories_scan(RunScope::All).map(|v| v.len()),
        repo.try_trajectories_time_window(RunScope::All, Timestamp(0), Timestamp(1_000))
            .map(|v| v.len()),
        repo.try_trajectories_snapshot_at(RunScope::All, Timestamp(500))
            .map(|v| v.len()),
        repo.try_object_trace(RunScope::All, ObjectId(1))
            .map(|v| v.len()),
        repo.try_trajectories_range_query(RunScope::All, FloorId(0), &window)
            .map(|v| v.len()),
        repo.try_trajectories_knn(RunScope::All, FloorId(0), Point::new(3.0, 1.0), 4)
            .map(|v| v.len()),
        repo.try_export().map(|e| e.trajectories.len()),
    ];
    for (i, r) in results.into_iter().enumerate() {
        match (expect, r) {
            (Expect::Io, Err(SpillError::Io(_)))
            | (Expect::Codec, Err(SpillError::Codec(_)))
            | (Expect::WrongSegment, Err(SpillError::WrongSegment { .. })) => {}
            (_, other) => panic!("path {i}: expected {expect:?} error, got {other:?}"),
        }
    }
}

#[test]
fn truncated_spill_file_errors_and_never_panics() {
    let (repo, file, _) = one_spilled_segment("trunc", RunId(0), 32);
    let bytes = std::fs::read(&file).unwrap();
    std::fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();
    assert_queries_error(&repo, Expect::Codec);
    assert_planning_survives(&repo);
}

#[test]
fn bit_flipped_spill_file_errors_and_never_panics() {
    let (repo, file, _) = one_spilled_segment("flip", RunId(0), 32);
    let mut bytes = std::fs::read(&file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&file, &bytes).unwrap();
    assert_queries_error(&repo, Expect::Codec);
    assert_planning_survives(&repo);
}

#[test]
fn missing_spill_file_errors_and_never_panics() {
    let (repo, file, _) = one_spilled_segment("gone", RunId(0), 32);
    std::fs::remove_file(&file).unwrap();
    assert_queries_error(&repo, Expect::Io);
    assert_planning_survives(&repo);
}

/// A spill file replaced by another repository's perfectly valid one
/// (run 1, 100 rows) passes every codec check; page-in and export must
/// still refuse it, because it contradicts the segment's planning meta.
#[test]
fn swapped_spill_file_errors_and_never_panics() {
    let (repo, file, _) = one_spilled_segment("swap", RunId(0), 32);
    let (donor, donor_file, _) = one_spilled_segment("swap-donor", RunId(1), 100);
    std::fs::copy(&donor_file, &file).unwrap();
    drop(donor);
    assert_queries_error(&repo, Expect::WrongSegment);
    assert_planning_survives(&repo);
}

/// An intact spill file pages back to exactly the ingested rows — the
/// positive control for the corruption tests above, driven through the
/// same `try_*` twins.
#[test]
fn intact_spill_file_pages_back_exactly() {
    let (repo, _, rows) = one_spilled_segment("intact", RunId(0), 32);
    assert_eq!(repo.try_trajectories_scan(RunScope::All).unwrap(), rows);
    assert!(repo.stats().page_ins >= 1);
}

// ----------------------------------------------------------- golden fixture

/// The segment rows the golden fixture encodes, spelled out literally.
fn golden_sections() -> Vec<SegmentSection<TrajectorySample>> {
    let s = |o: u32, f: u32, x: f64, y: f64, t: u64| {
        TrajectorySample::new(
            ObjectId(o),
            BuildingId(0),
            FloorId(f),
            Point::new(x, y),
            Timestamp(t),
        )
    };
    vec![
        SegmentSection {
            run: RunId(0),
            rows: vec![
                s(1, 0, 1.5, 2.5, 100),
                s(2, 0, -4.25, 9.75, 250),
                s(1, 1, 0.0, 0.5, 300),
            ],
            seqs: vec![0, 2, 4],
        },
        SegmentSection {
            run: RunId(3),
            rows: vec![s(7, 1, 12.0, -3.5, 50), s(9, 0, 6.25, 6.25, 975)],
            seqs: vec![1, 3],
        },
    ]
}

/// The spill framing is pinned by a checked-in fixture: today's encoder
/// must reproduce the golden bytes exactly (the format is canonical), and
/// the golden bytes must decode to the literal rows. Spill directories are
/// per repository instance and removed on drop, so no spill file outlives
/// the build that wrote it; the fixture pins the canonical framing — a
/// change to it is deliberate and regenerates the fixture — not
/// readability across builds.
#[test]
fn segment_framing_matches_golden_fixture() {
    let golden = bytes::Bytes::from_static(include_bytes!("fixtures/segment_v2_trajectories.bin"));
    let sections = golden_sections();
    let borrowed: Vec<(RunId, &[TrajectorySample], &[u64])> = sections
        .iter()
        .map(|s| (s.run, s.rows.as_slice(), s.seqs.as_slice()))
        .collect();
    assert_eq!(
        encode_segment(&borrowed),
        golden,
        "segment framing drifted from the checked-in fixture"
    );
    assert_eq!(
        decode_segment::<TrajectorySample>(golden).unwrap(),
        sections
    );
}
