//! Cross-backend parity: a [`SegmentedRepository`] fed the same batches as
//! a single [`Repository`] must agree on every query path of all four
//! tables — with `seal_now()`
//! forced at proptest-chosen points, so answers are checked across the
//! whole segment lifecycle (unsealed minis, sealed segments, compacted
//! segments, and mixtures).
//!
//! Under deterministic sequential ingestion the segmented backend's
//! per-row sequence numbers reconstruct the single repository's arrival
//! order exactly, so almost every comparison here is **exact**, including
//! tie order inside time windows and scans. The one exception is
//! kNN, whose `AnyRepository` contract leaves the order of equal-distance
//! rows open: there the distance list is compared bit-for-bit.

use proptest::prelude::*;

use vita_geometry::{Aabb, Point};
use vita_indoor::{BuildingId, DeviceId, FloorId, Loc, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;
use vita_storage::{ProductBatch, ProductSink, Repository, RunScope, SegmentedRepository};

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

/// Feed identical batches to both backends, rotating the run tag per
/// chunk and forcing a segmented seal/compaction round every `seal_every`
/// chunks so the query checks hit every segment-lifecycle state.
fn fill<T: Clone>(
    rows: &[T],
    batch: usize,
    seal_every: usize,
    wrap: impl Fn(Vec<T>) -> ProductBatch,
    single: &Repository,
    segmented: &SegmentedRepository,
) {
    for (i, chunk) in rows.chunks(batch.max(1)).enumerate() {
        let run = RunId((i as u32) % RUNS);
        single.accept_run(run, wrap(chunk.to_vec()));
        segmented.accept_run(run, wrap(chunk.to_vec()));
        if (i + 1) % seal_every.max(1) == 0 {
            segmented.seal_now();
        }
    }
}

/// Scopes every parity check runs under: all runs merged plus each run in
/// isolation.
fn scopes() -> Vec<RunScope> {
    let mut v = vec![RunScope::All];
    v.extend((0..RUNS).map(|r| RunScope::from(RunId(r))));
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trajectory_paths_agree_exactly(
        rows in proptest::collection::vec(sample_strategy(), 1..250),
        batch in 1usize..40,
        seal_every in 1usize..6,
        from in 0u64..T_MAX,
        width in 0u64..T_MAX,
        at in 0u64..T_MAX,
    ) {
        let single = Repository::new();
        let segmented = SegmentedRepository::new();
        fill(&rows, batch, seal_every, ProductBatch::Trajectories, &single, &segmented);

        for scope in scopes() {
            prop_assert_eq!(single.counts(scope), segmented.counts(scope));

            // Scan: exact, including arrival order, on every scope.
            let a: Vec<TrajectorySample> = single.trajectories.read().scan(scope).into_iter().copied().collect();
            prop_assert_eq!(a, segmented.trajectories().scan(scope).unwrap());

            // Half-open time window: exact, tie order included.
            for (lo, hi) in [(from, from + width), (from, from), (0, T_MAX + 1)] {
                let a: Vec<TrajectorySample> = single.trajectories.read()
                    .time_window(scope, Timestamp(lo), Timestamp(hi))
                    .into_iter().copied().collect();
                prop_assert_eq!(
                    a,
                    segmented.trajectories().time_window(scope, Timestamp(lo), Timestamp(hi)).unwrap()
                );
            }

            // Snapshot and traces: exact.
            let a: Vec<TrajectorySample> = single.trajectories.read()
                .snapshot_at(scope, Timestamp(at)).into_iter().copied().collect();
            prop_assert_eq!(a, segmented.trajectories().snapshot_at(scope, Timestamp(at)).unwrap());
            for o in 0..OBJECTS {
                let a: Vec<TrajectorySample> = single.trajectories.read()
                    .object_trace(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(a, segmented.trajectories().of_object(scope, ObjectId(o)).unwrap());
            }
        }
        prop_assert_eq!(single.run_ids(), segmented.run_ids());

        // A full maintenance round after the checks must change nothing.
        let before = segmented.trajectories().scan(RunScope::All).unwrap();
        segmented.seal_now();
        segmented.seal_now();
        prop_assert_eq!(before, segmented.trajectories().scan(RunScope::All).unwrap());
        prop_assert_eq!(segmented.stats().unsealed_segments, 0);
    }

    #[test]
    fn spatial_paths_agree(
        rows in proptest::collection::vec(sample_strategy(), 1..150),
        seal_every in 1usize..6,
        x0 in -40.0f64..40.0, y0 in -40.0f64..40.0,
        w in 1.0f64..50.0, h in 1.0f64..50.0,
        k in 1usize..12,
    ) {
        let single = Repository::new();
        let segmented = SegmentedRepository::new();
        fill(&rows, 16, seal_every, ProductBatch::Trajectories, &single, &segmented);

        let q = Aabb::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let p = Point::new(x0, y0);
        for scope in scopes() {
            // Range query: exact, insertion order, on every scope and floor.
            for floor in [FloorId(0), FloorId(1), FloorId(7)] {
                let a: Vec<TrajectorySample> = single.trajectories.read()
                    .range_query(scope, floor, &q).into_iter().copied().collect();
                prop_assert_eq!(a, segmented.trajectories().range_query(scope, floor, &q).unwrap());
            }

            // kNN: distance multiset bit-identical across both.
            let a: Vec<u64> = single.trajectories.read().knn(scope, FloorId(0), p, k)
                .iter().map(|(_, d)| d.to_bits()).collect();
            let c: Vec<u64> = segmented.trajectories().knn(scope, FloorId(0), p, k).unwrap()
                .iter().map(|(_, d)| d.to_bits()).collect();
            prop_assert_eq!(&a, &c);
        }
    }

    #[test]
    fn rssi_and_fix_paths_agree_exactly(
        rssi in proptest::collection::vec(rssi_strategy(), 1..250),
        fixes in proptest::collection::vec(fix_strategy(), 1..250),
        batch in 1usize..40,
        seal_every in 1usize..6,
        from in 0u64..T_MAX,
        width in 0u64..T_MAX,
    ) {
        let single = Repository::new();
        let segmented = SegmentedRepository::new();
        fill(&rssi, batch, seal_every, ProductBatch::Rssi, &single, &segmented);
        fill(&fixes, batch, seal_every, ProductBatch::Fixes, &single, &segmented);

        let (lo, hi) = (Timestamp(from), Timestamp(from + width));
        for scope in scopes() {
            prop_assert_eq!(single.counts(scope), segmented.counts(scope));

            let a: Vec<RssiMeasurement> = single.rssi.read()
                .time_window(scope, lo, hi).into_iter().copied().collect();
            prop_assert_eq!(a, segmented.rssi().time_window(scope, lo, hi).unwrap());
            let a: Vec<Fix> = single.fixes.read()
                .time_window(scope, lo, hi).into_iter().copied().collect();
            prop_assert_eq!(a, segmented.fixes().time_window(scope, lo, hi).unwrap());

            for o in 0..OBJECTS {
                let a: Vec<RssiMeasurement> = single.rssi.read()
                    .of_object(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(a, segmented.rssi().of_object(scope, ObjectId(o)).unwrap());
                let af: Vec<Fix> = single.fixes.read()
                    .of_object(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(af, segmented.fixes().of_object(scope, ObjectId(o)).unwrap());
            }
            for d in 0..DEVICES {
                let a: Vec<RssiMeasurement> = single.rssi.read()
                    .of_device(scope, DeviceId(d)).into_iter().copied().collect();
                prop_assert_eq!(a, segmented.rssi().of_device(scope, DeviceId(d)).unwrap());
            }
        }
    }

    #[test]
    fn proximity_paths_agree_exactly(
        rows in proptest::collection::vec(proximity_strategy(), 1..250),
        batch in 1usize..40,
        seal_every in 1usize..6,
        from in 0u64..T_MAX,
        width in 0u64..T_MAX,
    ) {
        let single = Repository::new();
        let segmented = SegmentedRepository::new();
        fill(&rows, batch, seal_every, ProductBatch::Proximity, &single, &segmented);

        let (lo, hi) = (Timestamp(from), Timestamp(from + width));
        for scope in scopes() {
            prop_assert_eq!(single.counts(scope), segmented.counts(scope));

            let a: Vec<ProximityRecord> = single.proximity.read()
                .overlapping(scope, lo, hi).into_iter().copied().collect();
            prop_assert_eq!(a, segmented.proximity().overlapping(scope, lo, hi).unwrap());

            for o in 0..OBJECTS {
                let a: Vec<ProximityRecord> = single.proximity.read()
                    .of_object(scope, ObjectId(o)).into_iter().copied().collect();
                prop_assert_eq!(a, segmented.proximity().of_object(scope, ObjectId(o)).unwrap());
            }
            for d in 0..DEVICES {
                let a: Vec<ProximityRecord> = single.proximity.read()
                    .of_device(scope, DeviceId(d)).into_iter().copied().collect();
                prop_assert_eq!(a, segmented.proximity().of_device(scope, DeviceId(d)).unwrap());
            }
        }
    }

    #[test]
    fn export_import_round_trips_across_backends(
        rows in proptest::collection::vec(sample_strategy(), 1..120),
        batch in 1usize..30,
        seal_every in 1usize..6,
    ) {
        let single = Repository::new();
        let segmented = SegmentedRepository::new();
        fill(&rows, batch, seal_every, ProductBatch::Trajectories, &single, &segmented);

        // Segmented export decodes into an identical single repository, and
        // a single export rebuilds an identical segmented repository. Exports
        // are per-run sections, so import replays rows grouped by run: each
        // run scope round-trips exactly, and the merged scan comes back as
        // the run-grouped concatenation (in run-id order) on every backend.
        let from_seg = Repository::import(&segmented.export().unwrap()).unwrap();
        let from_single = SegmentedRepository::import(&single.export()).unwrap();
        for scope in scopes() {
            let want = match scope.run() {
                Some(_) => segmented.trajectories().scan(scope).unwrap(),
                None => segmented
                    .run_ids()
                    .into_iter()
                    .flat_map(|r| segmented.trajectories().scan(r.into()).unwrap())
                    .collect(),
            };
            let a: Vec<TrajectorySample> = from_seg.trajectories.read().scan(scope).into_iter().copied().collect();
            prop_assert_eq!(a, want.clone());
            prop_assert_eq!(from_single.trajectories().scan(scope).unwrap(), want);
        }
    }
}
