//! Tiered-storage acceptance suite (the PR-8 spill contract):
//!
//! * a budget-constrained [`SegmentedRepository`] — sealed segments
//!   spilled to disk, paged back through a bounded cache — answers every
//!   scoped query path **bit-identically** to a single [`Repository`] fed
//!   the same batches, with `seal_now()` forced at proptest-chosen points;
//! * after a maintenance round the decoded sealed-row gauge sits at or
//!   under `memory_budget_rows`, and anything past the budget really went
//!   to disk (`spills >= 1`);
//! * the export of a spilled repository, which reads every spilled
//!   segment back, equals the single [`Repository`]'s export of the same
//!   batches byte-for-byte and imports into an identical repository;
//! * truncating, bit-flipping, deleting, or swapping in another valid
//!   spill file makes every query of all four table handles, and
//!   `export`, return a [`SpillError`] — never a panic, never silently
//!   wrong rows — while metadata-only paths (`counts`, `run_ids`) keep
//!   answering without touching disk, and [`AnyRepository`] turns the
//!   error into its documented panic;
//! * a run-scoped query reads only its run's section of a spilled
//!   segment, so damage confined to one run's section fails exactly the
//!   queries (and the export) that read that run;
//! * the segment spill framing itself is pinned by a checked-in golden
//!   fixture, so the canonical encoding cannot drift unnoticed.

#![expect(clippy::disallowed_methods, reason = "test code")]

mod common;

use common::SpillParent;
use proptest::prelude::*;

use std::path::PathBuf;

use vita_geometry::{Aabb, Point};
use vita_indoor::{BuildingId, DeviceId, FloorId, Loc, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;
use vita_storage::{
    decode_segment, encode_segment, AnyRepository, ProductBatch, ProductSink, Repository, RunScope,
    SegmentConfig, SegmentSection, SegmentedRepository, SpillConfig, SpillError,
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

/// A unique spill parent dir per test, removed when the guard drops; each
/// repository instance adds its own `vita-{pid}-{n}` subdir underneath,
/// removed on the repository's drop.
fn spill_parent(tag: &str) -> SpillParent {
    SpillParent::new(&format!("vita-spill-suite-{tag}"))
}

/// A deliberately tiny memory budget so modest proptest corpora overflow
/// it, with a two-slot page-in cache to force eviction churn.
fn tiny_spill(parent: &SpillParent, budget: usize) -> SpillConfig {
    SpillConfig {
        dir: parent.0.clone(),
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
        let parent = spill_parent("traj");
        let single = Repository::new();
        let spilled = SegmentedRepository::with_spill(
            SegmentConfig { seal_rows: 16, ..SegmentConfig::default() },
            tiny_spill(&parent, budget),
        );
        fill2(&rows, batch, seal_every, ProductBatch::Trajectories, &single, &spilled);
        assert_budget_held(&spilled, budget, rows.len());

        for scope in scopes() {
            prop_assert_eq!(single.counts(scope), spilled.counts(scope));

            let a: Vec<TrajectorySample> = single.trajectories.read().scan(scope).into_iter().copied().collect();
            prop_assert_eq!(a, spilled.trajectories().scan(scope).unwrap());

            for (lo, hi) in [(from, from + width), (from, from), (0, T_MAX + 1)] {
                let a: Vec<TrajectorySample> = single.trajectories.read()
                    .time_window(scope, Timestamp(lo), Timestamp(hi))
                    .into_iter().copied().collect();
                prop_assert_eq!(
                    a,
                    spilled.trajectories().time_window(scope, Timestamp(lo), Timestamp(hi)).unwrap()
                );
            }

            let a: Vec<TrajectorySample> = single.trajectories.read()
                .snapshot_at(scope, Timestamp(at)).into_iter().copied().collect();
            prop_assert_eq!(a, spilled.trajectories().snapshot_at(scope, Timestamp(at)).unwrap());
            for o in 0..OBJECTS {
                let a: Vec<TrajectorySample> = single.trajectories.read()
                    .object_trace(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(a, spilled.trajectories().of_object(scope, ObjectId(o)).unwrap());
            }
        }
        prop_assert_eq!(single.run_ids(), spilled.run_ids());
        if rows.len() > budget {
            prop_assert!(spilled.stats().page_ins >= 1, "{:?}", spilled.stats());
        }

        // Queries paged segments back in; the next maintenance round must
        // bring the gauge back under the budget without changing answers.
        let before = spilled.trajectories().scan(RunScope::All).unwrap();
        spilled.seal_now();
        assert_budget_held(&spilled, budget, rows.len());
        prop_assert_eq!(before, spilled.trajectories().scan(RunScope::All).unwrap());
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
        let parent = spill_parent("spatial");
        let single = Repository::new();
        let spilled = SegmentedRepository::with_spill(
            SegmentConfig { seal_rows: 16, ..SegmentConfig::default() },
            tiny_spill(&parent, budget),
        );
        fill2(&rows, 16, seal_every, ProductBatch::Trajectories, &single, &spilled);
        assert_budget_held(&spilled, budget, rows.len());

        let q = Aabb::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let p = Point::new(x0, y0);
        for scope in scopes() {
            for floor in [FloorId(0), FloorId(1), FloorId(7)] {
                let a: Vec<TrajectorySample> = single.trajectories.read()
                    .range_query(scope, floor, &q).into_iter().copied().collect();
                prop_assert_eq!(a, spilled.trajectories().range_query(scope, floor, &q).unwrap());
            }

            let a: Vec<u64> = single.trajectories.read().knn(scope, FloorId(0), p, k)
                .iter().map(|(_, d)| d.to_bits()).collect();
            let b: Vec<u64> = spilled.trajectories().knn(scope, FloorId(0), p, k).unwrap()
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
        let parent = spill_parent("meas");
        let single = Repository::new();
        let spilled = SegmentedRepository::with_spill(
            SegmentConfig { seal_rows: 16, ..SegmentConfig::default() },
            tiny_spill(&parent, budget),
        );
        fill2(&rssi, batch, seal_every, ProductBatch::Rssi, &single, &spilled);
        fill2(&fixes, batch, seal_every, ProductBatch::Fixes, &single, &spilled);
        fill2(&prox, batch, seal_every, ProductBatch::Proximity, &single, &spilled);
        assert_budget_held(&spilled, budget, rssi.len() + fixes.len() + prox.len());

        let (lo, hi) = (Timestamp(from), Timestamp(from + width));
        for scope in scopes() {
            prop_assert_eq!(single.counts(scope), spilled.counts(scope));

            let a: Vec<RssiMeasurement> = single.rssi.read().scan(scope).into_iter().copied().collect();
            prop_assert_eq!(a, spilled.rssi().scan(scope).unwrap());
            let a: Vec<RssiMeasurement> = single.rssi.read()
                .time_window(scope, lo, hi).into_iter().copied().collect();
            prop_assert_eq!(a, spilled.rssi().time_window(scope, lo, hi).unwrap());
            let a: Vec<Fix> = single.fixes.read()
                .time_window(scope, lo, hi).into_iter().copied().collect();
            prop_assert_eq!(a, spilled.fixes().time_window(scope, lo, hi).unwrap());
            let a: Vec<ProximityRecord> = single.proximity.read()
                .overlapping(scope, lo, hi).into_iter().copied().collect();
            prop_assert_eq!(a, spilled.proximity().overlapping(scope, lo, hi).unwrap());

            for o in 0..OBJECTS {
                let a: Vec<RssiMeasurement> = single.rssi.read()
                    .of_object(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(a, spilled.rssi().of_object(scope, ObjectId(o)).unwrap());
                let af: Vec<Fix> = single.fixes.read()
                    .of_object(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(af, spilled.fixes().of_object(scope, ObjectId(o)).unwrap());
                let ap: Vec<ProximityRecord> = single.proximity.read()
                    .of_object(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(ap, spilled.proximity().of_object(scope, ObjectId(o)).unwrap());
            }
            for d in 0..DEVICES {
                let a: Vec<RssiMeasurement> = single.rssi.read()
                    .of_device(scope, DeviceId(d)).into_iter().copied().collect();
                prop_assert_eq!(a, spilled.rssi().of_device(scope, DeviceId(d)).unwrap());
                let ap: Vec<ProximityRecord> = single.proximity.read()
                    .of_device(scope, DeviceId(d)).into_iter().copied().collect();
                prop_assert_eq!(ap, spilled.proximity().of_device(scope, DeviceId(d)).unwrap());
            }
        }
    }

    /// Export out of a spilled repository reads every spilled segment
    /// back from its file: it must equal the single repository's export of
    /// the same batches byte-for-byte and import into a repository that
    /// scans identically per run.
    #[test]
    fn spilled_export_matches_the_reference_export(
        rows in proptest::collection::vec(sample_strategy(), 1..120),
        batch in 1usize..30,
        seal_every in 1usize..6,
        budget in 8usize..48,
    ) {
        let parent = spill_parent("export");
        let single = Repository::new();
        let spilled = SegmentedRepository::with_spill(
            SegmentConfig { seal_rows: 16, ..SegmentConfig::default() },
            tiny_spill(&parent, budget),
        );
        fill2(&rows, batch, seal_every, ProductBatch::Trajectories, &single, &spilled);

        let exported = spilled.export().unwrap();
        let reference = single.export();
        prop_assert_eq!(&exported.trajectories, &reference.trajectories);
        prop_assert_eq!(&exported.rssi, &reference.rssi);
        prop_assert_eq!(&exported.fixes, &reference.fixes);
        prop_assert_eq!(&exported.proximity, &reference.proximity);

        let from_spilled = Repository::new();
        exported.ingest_into(&from_spilled).unwrap();
        for r in 0..RUNS {
            let a: Vec<TrajectorySample> = from_spilled.trajectories.read()
                .scan(RunId(r).into()).into_iter().copied().collect();
            let b: Vec<TrajectorySample> = single.trajectories.read()
                .scan(RunId(r).into()).into_iter().copied().collect();
            prop_assert_eq!(a, b);
        }
    }
}

// ----------------------------------------------------------- corruption fuzz

/// Rows per table in the damaged repositories.
const DAMAGED_ROWS: u32 = 32;

/// `n` rows of each table, all at floor 0 or no floor, one every 10 ms.
fn trajectory_rows(n: u32) -> Vec<TrajectorySample> {
    (0..n)
        .map(|i| {
            TrajectorySample::new(
                ObjectId(i % 4),
                BuildingId(0),
                FloorId(0),
                Point::new(i as f64, 1.0),
                Timestamp(i as u64 * 10),
            )
        })
        .collect()
}

fn rssi_rows(n: u32) -> Vec<RssiMeasurement> {
    (0..n)
        .map(|i| RssiMeasurement {
            object: ObjectId(i % 4),
            device: DeviceId(i % 3),
            rssi: -50.0 - f64::from(i),
            t: Timestamp(i as u64 * 10),
        })
        .collect()
}

fn fix_rows(n: u32) -> Vec<Fix> {
    (0..n)
        .map(|i| Fix {
            object: ObjectId(i % 4),
            loc: Loc::point(BuildingId(0), FloorId(0), Point::new(i as f64, 1.0)),
            t: Timestamp(i as u64 * 10),
        })
        .collect()
}

fn proximity_rows(n: u32) -> Vec<ProximityRecord> {
    (0..n)
        .map(|i| ProximityRecord {
            object: ObjectId(i % 4),
            device: DeviceId(i % 3),
            ts: Timestamp(i as u64 * 10),
            te: Timestamp(i as u64 * 10 + 5),
        })
        .collect()
}

/// Build a repository holding exactly one sealed, spilled segment of `n`
/// rows in `run` per table (budget 0 spills everything; a lone segment
/// cannot be compacted away), and return it with the on-disk paths of
/// its four spill files in table order: trajectories, RSSI, fixes,
/// proximity.
fn one_spilled_segment_per_table(
    parent: &SpillParent,
    run: RunId,
    n: u32,
) -> (SegmentedRepository, Vec<PathBuf>) {
    let parent = &parent.0;
    let _ = std::fs::remove_dir_all(parent);
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
    repo.accept_run(run, ProductBatch::Trajectories(trajectory_rows(n)));
    repo.accept_run(run, ProductBatch::Rssi(rssi_rows(n)));
    repo.accept_run(run, ProductBatch::Fixes(fix_rows(n)));
    repo.accept_run(run, ProductBatch::Proximity(proximity_rows(n)));
    repo.seal_now();
    let stats = repo.stats();
    assert_eq!(stats.spilled_segments, 4, "{stats:?}");
    assert_eq!(stats.spilled_rows, 4 * n as usize, "{stats:?}");

    let mut files = Vec::new();
    for entry in std::fs::read_dir(parent).unwrap() {
        let sub = entry.unwrap().path();
        for f in std::fs::read_dir(&sub).unwrap() {
            let p = f.unwrap().path();
            if p.extension().is_some_and(|e| e == "vita") {
                files.push(p);
            }
        }
    }
    assert_eq!(
        files.len(),
        4,
        "expected one spill file per table, got {files:?}"
    );
    // Byte 5 of a segment file is its record-type tag (1 = trajectory …
    // 4 = proximity) with the segment flag 0x80 set.
    files.sort_by_key(|p| std::fs::read(p).unwrap()[5] & 0x7f);
    (repo, files)
}

/// Metadata-only paths never touch disk: they must keep answering even
/// when every spilled byte is gone or corrupt.
fn assert_planning_survives(repo: &SegmentedRepository) {
    let n = DAMAGED_ROWS as usize;
    let c = repo.counts(RunScope::All);
    assert_eq!((c.trajectories, c.rssi, c.fixes, c.proximity), (n, n, n, n));
    assert_eq!(repo.run_ids(), vec![RunId(0)]);
    assert_eq!(repo.stats().spilled_rows, 4 * n);
}

/// The [`SpillError`] a damaged spill file must surface as.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Io,
    Codec,
    WrongSegment,
}

/// Every query of every table handle, and export, must surface an error
/// of the `expect`ed kind from its table's damaged segment — never panic,
/// never fabricate rows. Every plan below touches the segment (the time
/// bounds overlap the rows; trajectory and fix rows are all on floor 0)
/// except a spatial query on RSSI or proximity: those rows carry no
/// point, so each sealed section's floor set is empty and the plan
/// prunes the segment from meta, answering no rows without a page-in.
fn assert_queries_error(repo: &SegmentedRepository, expect: Expect) {
    let (all, from, to) = (RunScope::All, Timestamp(0), Timestamp(1_000));
    let window = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 2.0));
    let p = Point::new(3.0, 1.0);
    macro_rules! spatial_queries {
        ($table:ident) => {{
            let t = repo.$table();
            [
                (
                    "range_query",
                    t.range_query(all, FloorId(0), &window).map(|v| v.len()),
                ),
                ("knn", t.knn(all, FloorId(0), p, 4).map(|v| v.len())),
            ]
            .map(|(query, result)| (format!("{}.{query}", stringify!($table)), result))
        }};
    }
    macro_rules! every_other_query {
        ($table:ident) => {{
            let t = repo.$table();
            [
                ("scan", t.scan(all).map(|v| v.len())),
                ("time_window", t.time_window(all, from, to).map(|v| v.len())),
                ("of_object", t.of_object(all, ObjectId(1)).map(|v| v.len())),
                ("of_device", t.of_device(all, DeviceId(1)).map(|v| v.len())),
                (
                    "snapshot_at",
                    t.snapshot_at(all, Timestamp(500)).map(|v| v.len()),
                ),
            ]
            .map(|(query, result)| (format!("{}.{query}", stringify!($table)), result))
        }};
    }
    let page_ins = repo.stats().page_ins;
    for (path, r) in [spatial_queries!(rssi), spatial_queries!(proximity)]
        .into_iter()
        .flatten()
    {
        assert!(matches!(r, Ok(0)), "{path}: expected no rows, got {r:?}");
    }
    assert_eq!(repo.stats().page_ins, page_ins, "a pruned plan paged in");
    let results = [
        every_other_query!(trajectories),
        every_other_query!(rssi),
        every_other_query!(fixes),
        every_other_query!(proximity),
    ]
    .into_iter()
    .flatten()
    .chain(spatial_queries!(trajectories))
    .chain(spatial_queries!(fixes))
    .chain([
        (
            "proximity.overlapping".to_string(),
            repo.proximity().overlapping(all, from, to).map(|v| v.len()),
        ),
        (
            "export".to_string(),
            repo.export().map(|e| e.trajectories.len()),
        ),
    ]);
    for (path, r) in results {
        match (expect, r) {
            (Expect::Io, Err(SpillError::Io(_)))
            | (Expect::Codec, Err(SpillError::Codec(_)))
            | (Expect::WrongSegment, Err(SpillError::WrongSegment { .. })) => {}
            (_, other) => panic!("{path}: expected {expect:?} error, got {other:?}"),
        }
    }
}

#[test]
fn truncated_spill_file_errors_and_never_panics() {
    let parent = spill_parent("trunc");
    let (repo, files) = one_spilled_segment_per_table(&parent, RunId(0), DAMAGED_ROWS);
    for file in &files {
        let bytes = std::fs::read(file).unwrap();
        std::fs::write(file, &bytes[..bytes.len() / 2]).unwrap();
    }
    assert_queries_error(&repo, Expect::Codec);
    assert_planning_survives(&repo);
}

#[test]
fn bit_flipped_spill_file_errors_and_never_panics() {
    let parent = spill_parent("flip");
    let (repo, files) = one_spilled_segment_per_table(&parent, RunId(0), DAMAGED_ROWS);
    for file in &files {
        let mut bytes = std::fs::read(file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(file, &bytes).unwrap();
    }
    assert_queries_error(&repo, Expect::Codec);
    assert_planning_survives(&repo);
}

#[test]
fn missing_spill_file_errors_and_never_panics() {
    let parent = spill_parent("gone");
    let (repo, files) = one_spilled_segment_per_table(&parent, RunId(0), DAMAGED_ROWS);
    for file in &files {
        std::fs::remove_file(file).unwrap();
    }
    assert_queries_error(&repo, Expect::Io);
    assert_planning_survives(&repo);
}

/// Spill files replaced by another repository's perfectly valid ones of
/// the same tables (run 1, 100 rows) pass every codec check; page-in and
/// export must still refuse them, because they contradict the segments'
/// planning meta.
#[test]
fn swapped_spill_file_errors_and_never_panics() {
    let parent = spill_parent("swap");
    let (repo, files) = one_spilled_segment_per_table(&parent, RunId(0), DAMAGED_ROWS);
    let donor_parent = spill_parent("swap-donor");
    let (donor, donor_files) = one_spilled_segment_per_table(&donor_parent, RunId(1), 100);
    for (from, to) in donor_files.iter().zip(&files) {
        std::fs::copy(from, to).unwrap();
    }
    drop(donor);
    assert_queries_error(&repo, Expect::WrongSegment);
    assert_planning_survives(&repo);
}

/// Intact spill files page back to exactly the ingested rows — the
/// positive control for the corruption tests above, driven through the
/// same table handles.
#[test]
fn intact_spill_file_pages_back_exactly() {
    let n = DAMAGED_ROWS;
    let parent = spill_parent("intact");
    let (repo, _) = one_spilled_segment_per_table(&parent, RunId(0), n);
    let all = RunScope::All;
    assert_eq!(repo.trajectories().scan(all).unwrap(), trajectory_rows(n));
    assert_eq!(repo.rssi().scan(all).unwrap(), rssi_rows(n));
    assert_eq!(repo.fixes().scan(all).unwrap(), fix_rows(n));
    assert_eq!(repo.proximity().scan(all).unwrap(), proximity_rows(n));
    assert!(repo.stats().page_ins >= 4);
}

/// [`AnyRepository`] keeps its infallible signatures: a spill file it
/// cannot read back is the documented panic, not wrong rows.
#[test]
#[should_panic(expected = "spilled segment unreadable")]
fn any_repository_panics_on_an_unreadable_spill_file() {
    let parent = spill_parent("panic");
    let (repo, files) = one_spilled_segment_per_table(&parent, RunId(0), DAMAGED_ROWS);
    std::fs::remove_file(&files[0]).unwrap();
    let rows = AnyRepository::Segmented(repo).trajectories(RunScope::All);
    unreachable!("{} rows from a missing spill file", rows.len());
}

// ------------------------------------------------- section-granular page-in

/// Rows per run in the three-run segments: runs differ in size, so a
/// page-in's row count names the sections it read.
const RUN_ROWS: [u32; 3] = [16, 24, 32];

/// Fixed row widths of the four tables' segment files, in table order —
/// trajectory/fix 37 bytes, RSSI/proximity 24 — each followed by an
/// 8-byte seq per row.
const ROW_WIDTH: [u64; 4] = [37, 24, 37, 24];

/// Feed `sink` the three-run corpus: run `r` holds `RUN_ROWS[r]` rows of
/// each table, shifted by run so no two runs answer alike.
fn feed_three_runs(sink: &impl ProductSink) {
    for (r, &n) in RUN_ROWS.iter().enumerate() {
        let (run, shift) = (RunId(r as u32), r as u32);
        let at = |i: u32, y: f64| {
            Loc::point(
                BuildingId(0),
                FloorId(0),
                Point::new(f64::from(i + 100 * shift), y),
            )
        };
        let t = |i: u32| Timestamp(u64::from(i) * 10);
        let rows = 0..n;
        sink.accept_run(
            run,
            ProductBatch::Trajectories(
                rows.clone()
                    .map(|i| TrajectorySample {
                        object: ObjectId((i + shift) % 4),
                        loc: at(i, 1.0),
                        t: t(i),
                    })
                    .collect(),
            ),
        );
        sink.accept_run(
            run,
            ProductBatch::Rssi(
                rows.clone()
                    .map(|i| RssiMeasurement {
                        object: ObjectId(i % 4),
                        device: DeviceId(i % 3),
                        rssi: -50.0 - f64::from(i + 100 * shift),
                        t: t(i),
                    })
                    .collect(),
            ),
        );
        sink.accept_run(
            run,
            ProductBatch::Fixes(
                rows.clone()
                    .map(|i| Fix {
                        object: ObjectId(i % 4),
                        loc: at(i, 2.0),
                        t: t(i),
                    })
                    .collect(),
            ),
        );
        sink.accept_run(
            run,
            ProductBatch::Proximity(
                rows.map(|i| ProximityRecord {
                    object: ObjectId(i % 4),
                    device: DeviceId((i + shift) % 3),
                    ts: t(i),
                    te: Timestamp(u64::from(i) * 10 + 5),
                })
                .collect(),
            ),
        );
    }
}

/// A repository spilling under `parent` at `budget` rows that seals only
/// on `seal_now`, so each table's batches seal into one segment with one
/// section per run.
fn sectioned_repo(parent: &SpillParent, budget: usize) -> SegmentedRepository {
    SegmentedRepository::with_spill(
        SegmentConfig {
            seal_rows: 1_000,
            ..SegmentConfig::default()
        },
        SpillConfig {
            dir: parent.0.clone(),
            memory_budget_rows: budget,
            cache_segments: 2,
        },
    )
}

/// The segment files under `parent`, in table order: trajectories, RSSI,
/// fixes, proximity.
fn spill_files(parent: &SpillParent) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(&parent.0)
        .unwrap()
        .flat_map(|sub| std::fs::read_dir(sub.unwrap().path()).unwrap())
        .map(|f| f.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "vita"))
        .collect();
    assert_eq!(files.len(), 4, "one spill file per table: {files:?}");
    files.sort_by_key(|p| std::fs::read(p).unwrap()[5] & 0x7f);
    files
}

/// The three-run corpus with, per table, one sealed and spilled segment
/// (budget 0 spills everything), and its four spill files.
fn three_run_spilled_segment(parent: &SpillParent) -> (SegmentedRepository, Vec<PathBuf>) {
    let repo = sectioned_repo(parent, 0);
    feed_three_runs(&repo);
    repo.seal_now();
    let stats = repo.stats();
    let total: u32 = RUN_ROWS.iter().sum();
    assert_eq!(stats.spilled_segments, 4, "{stats:?}");
    assert_eq!(stats.spilled_rows, 4 * total as usize, "{stats:?}");
    (repo, spill_files(parent))
}

/// The same corpus, all-resident: a budget nothing reaches.
fn three_run_resident(parent: &SpillParent) -> SegmentedRepository {
    let repo = sectioned_repo(parent, usize::MAX);
    feed_three_runs(&repo);
    repo.seal_now();
    assert_eq!(repo.stats().spilled_segments, 0);
    repo
}

/// Byte range `[start, end)` of run `r`'s section in the segment file of
/// table `table` (0 = trajectories … 3 = proximity): the fixed 10-byte
/// header, then per section a 12-byte run/count header, its rows and
/// their seqs.
fn section_extent(table: usize, r: usize) -> (usize, usize) {
    let len = |n: u32| (12 + u64::from(n) * (ROW_WIDTH[table] + 8)) as usize;
    let start = 10 + RUN_ROWS[..r].iter().map(|&n| len(n)).sum::<usize>();
    (start, start + len(RUN_ROWS[r]))
}

type Answer = Result<String, SpillError>;

/// One query of one table handle, named; every one of them reads every
/// run's section of the corpus above (all rows sit at floor 0 where they
/// have a point, and every window overlaps every run's time bounds). The
/// answer is its `Debug` text, so kNN distances compare bit for bit.
type Query = (&'static str, fn(&SegmentedRepository, RunScope) -> Answer);

fn queries() -> Vec<Query> {
    fn show<T: std::fmt::Debug>(r: Result<T, SpillError>) -> Answer {
        r.map(|v| format!("{v:?}"))
    }
    vec![
        ("trajectories.scan", |r, s| show(r.trajectories().scan(s))),
        ("trajectories.time_window", |r, s| {
            show(
                r.trajectories()
                    .time_window(s, Timestamp(50), Timestamp(120)),
            )
        }),
        ("trajectories.of_object", |r, s| {
            show(r.trajectories().of_object(s, ObjectId(1)))
        }),
        ("trajectories.snapshot_at", |r, s| {
            show(r.trajectories().snapshot_at(s, Timestamp(100)))
        }),
        ("trajectories.range_query", |r, s| {
            let window = Aabb::new(Point::new(5.0, 0.0), Point::new(220.0, 2.0));
            show(r.trajectories().range_query(s, FloorId(0), &window))
        }),
        ("trajectories.knn", |r, s| {
            show(
                r.trajectories()
                    .knn(s, FloorId(0), Point::new(110.0, 1.5), 5),
            )
        }),
        ("rssi.of_device", |r, s| {
            show(r.rssi().of_device(s, DeviceId(1)))
        }),
        ("rssi.time_window", |r, s| {
            show(r.rssi().time_window(s, Timestamp(0), Timestamp(1_000)))
        }),
        ("fixes.knn", |r, s| {
            show(r.fixes().knn(s, FloorId(0), Point::new(7.0, 2.0), 3))
        }),
        ("fixes.snapshot_at", |r, s| {
            show(r.fixes().snapshot_at(s, Timestamp(60)))
        }),
        ("proximity.overlapping", |r, s| {
            show(r.proximity().overlapping(s, Timestamp(40), Timestamp(90)))
        }),
        ("proximity.of_object", |r, s| {
            show(r.proximity().of_object(s, ObjectId(2)))
        }),
    ]
}

fn run_scope(r: usize) -> RunScope {
    RunScope::from(RunId(r as u32))
}

/// A run-scoped query of every kind reads exactly its run's section of
/// the spilled segment: one page-in, and exactly that section's rows
/// decoded, with the answer bit-identical to the all-resident engine's.
/// `seal_now` empties the caches (budget 0) before each query, so each
/// one misses.
#[test]
fn run_scoped_query_of_each_kind_pages_in_only_its_section() {
    let parent = spill_parent("sections");
    let (repo, _) = three_run_spilled_segment(&parent);
    let resident = three_run_resident(&parent);
    for (name, query) in queries() {
        for (r, &rows) in RUN_ROWS.iter().enumerate() {
            repo.seal_now();
            assert_eq!(repo.stats().resident_rows, 0, "cache not emptied");
            let before = repo.stats();
            let answer = query(&repo, run_scope(r));
            let after = repo.stats();
            assert_eq!(
                answer.unwrap(),
                query(&resident, run_scope(r)).unwrap(),
                "{name} on run {r}"
            );
            assert_eq!(after.page_ins, before.page_ins + 1, "{name} on run {r}");
            assert_eq!(
                after.paged_in_rows,
                before.paged_in_rows + u64::from(rows),
                "{name} on run {r} decoded other runs' rows"
            );
        }
    }
}

/// Damage inside run 2's section of every spill file: runs 0 and 1 still
/// answer exactly, while every query that reads run 2 — scoped to it, or
/// to all runs — and the export fail with a codec error.
fn assert_only_run_2_fails(repo: &SegmentedRepository, resident: &SegmentedRepository) {
    for (name, query) in queries() {
        for r in [0, 1] {
            assert_eq!(
                query(repo, run_scope(r)).unwrap(),
                query(resident, run_scope(r)).unwrap(),
                "{name} on run {r}"
            );
        }
        for scope in [run_scope(2), RunScope::All] {
            let answer = query(repo, scope);
            assert!(
                matches!(answer, Err(SpillError::Codec(_))),
                "{name} under {scope:?}: {answer:?}"
            );
        }
    }
    let export = repo.export();
    assert!(
        matches!(export, Err(SpillError::Codec(_))),
        "export: {:?}",
        export.map(|e| e.trajectories.len())
    );
}

#[test]
fn bit_flip_in_one_run_section_fails_only_that_run() {
    let parent = spill_parent("flip-run2");
    let (repo, files) = three_run_spilled_segment(&parent);
    let resident = three_run_resident(&parent);
    for (table, file) in files.iter().enumerate() {
        let mut bytes = std::fs::read(file).unwrap();
        let (start, end) = section_extent(table, 2);
        // Past the section's run/count header: in its rows.
        bytes[start + 12 + (end - start - 12) / 2] ^= 0x40;
        std::fs::write(file, &bytes).unwrap();
    }
    assert_only_run_2_fails(&repo, &resident);
}

#[test]
fn truncation_inside_one_run_section_fails_only_that_run() {
    let parent = spill_parent("trunc-run2");
    let (repo, files) = three_run_spilled_segment(&parent);
    let resident = three_run_resident(&parent);
    for (table, file) in files.iter().enumerate() {
        let bytes = std::fs::read(file).unwrap();
        let (start, end) = section_extent(table, 2);
        assert_eq!(end + 8, bytes.len(), "run 2 is the last section");
        std::fs::write(file, &bytes[..start + (end - start) / 2]).unwrap();
    }
    assert_only_run_2_fails(&repo, &resident);
}

/// Spill files swapped for another repository's valid three-run segment
/// files of the same tables, with other row counts, or deleted: every
/// scope fails with a typed error, never a panic and never rows — a
/// `WrongSegment` where a section header disagrees with the meta, `Io`
/// where the file is gone.
#[test]
fn swapped_or_missing_three_run_file_fails_every_scope() {
    let parent = spill_parent("swap-runs");
    let (repo, files) = three_run_spilled_segment(&parent);
    // The donor's runs hold 40 and 60 rows where ours hold 16 and 24, so
    // its run 0 header disagrees on the row count and our run 1 and 2
    // extents land inside its rows.
    let donor_parent = spill_parent("swap-runs-donor");
    let donor = sectioned_repo(&donor_parent, 0);
    for r in 0..3 {
        let n = 40 + 20 * r;
        donor.accept_run(RunId(r), ProductBatch::Trajectories(trajectory_rows(n)));
        donor.accept_run(RunId(r), ProductBatch::Rssi(rssi_rows(n)));
        donor.accept_run(RunId(r), ProductBatch::Fixes(fix_rows(n)));
        donor.accept_run(RunId(r), ProductBatch::Proximity(proximity_rows(n)));
    }
    donor.seal_now();
    let donor_files = spill_files(&donor_parent);
    for (from, to) in donor_files.iter().zip(&files) {
        std::fs::copy(from, to).unwrap();
    }
    drop(donor);
    let scopes = [run_scope(0), run_scope(1), run_scope(2), RunScope::All];
    for (name, query) in queries() {
        for scope in scopes {
            let answer = query(&repo, scope);
            assert!(
                matches!(answer, Err(SpillError::WrongSegment { .. })),
                "{name} under {scope:?}: {answer:?}"
            );
        }
    }
    assert!(matches!(
        repo.export(),
        Err(SpillError::WrongSegment { .. })
    ));
    for file in &files {
        std::fs::remove_file(file).unwrap();
    }
    for (name, query) in queries() {
        for scope in scopes {
            let answer = query(&repo, scope);
            assert!(
                matches!(answer, Err(SpillError::Io(_))),
                "{name} under {scope:?}: {answer:?}"
            );
        }
    }
    assert!(matches!(repo.export(), Err(SpillError::Io(_))));
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
        decode_segment::<TrajectorySample>(&golden).unwrap(),
        sections
    );
}
