//! Concurrent-ingestion stress: many producer threads drive identical
//! batch streams into a single [`Repository`] and a
//! [`SegmentedRepository`] while reader threads hammer the read paths.
//! Afterwards both backends must hold bit-identical row sets, and every
//! object's trace must be in time order on each.
//!
//! This also exercises the read-path locking fix end to end (the readers
//! run `range_query` / `knn` through a table **read** lock, concurrently
//! with ingestion) and the segmented backend's snapshot path: its readers
//! pin snapshots while producers publish, and the producers' appends seal
//! and compact underneath them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vita_geometry::{Aabb, Point};
use vita_indoor::{BuildingId, DeviceId, FloorId, Loc, ObjectId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;
use vita_storage::{
    ProductBatch, ProductSink, Repository, RunScope, SegmentConfig, SegmentedRepository,
};

const PRODUCERS: u32 = 8;
const OBJECTS_PER_PRODUCER: u32 = 3;
const BATCHES_PER_OBJECT: u64 = 15;
const ROWS_PER_BATCH: u64 = 20;

fn sample(o: u32, t: u64) -> TrajectorySample {
    TrajectorySample::new(
        ObjectId(o),
        BuildingId(0),
        FloorId(0),
        Point::new((t % 97) as f64, (o % 13) as f64),
        Timestamp(t),
    )
}

/// The deterministic batch stream of one object: time-ordered within and
/// across batches, as the pipeline contract requires of each producer.
fn object_batches(
    o: u32,
) -> Vec<(
    Vec<TrajectorySample>,
    Vec<RssiMeasurement>,
    Fix,
    ProximityRecord,
)> {
    (0..BATCHES_PER_OBJECT)
        .map(|b| {
            let t0 = b * ROWS_PER_BATCH * 10;
            let samples: Vec<TrajectorySample> = (0..ROWS_PER_BATCH)
                .map(|i| sample(o, t0 + i * 10))
                .collect();
            let rssi: Vec<RssiMeasurement> = (0..ROWS_PER_BATCH)
                .map(|i| RssiMeasurement {
                    object: ObjectId(o),
                    device: DeviceId(o % 4),
                    rssi: -40.0 - (t0 + i) as f64 / 1000.0,
                    t: Timestamp(t0 + i * 10),
                })
                .collect();
            let fix = Fix {
                object: ObjectId(o),
                loc: Loc::point(BuildingId(0), FloorId(0), Point::new(b as f64, o as f64)),
                t: Timestamp(t0),
            };
            let prox = ProximityRecord {
                object: ObjectId(o),
                device: DeviceId(o % 4),
                ts: Timestamp(t0),
                te: Timestamp(t0 + 40),
            };
            (samples, rssi, fix, prox)
        })
        .collect()
}

#[test]
fn concurrent_producers_yield_identical_backends() {
    let single = Arc::new(Repository::new());
    // Aggressive seal/compaction thresholds so the stress run churns
    // through many seal and compaction rounds while readers hold pins.
    let segmented = Arc::new(SegmentedRepository::with_config(SegmentConfig {
        seal_rows: 64,
        seal_segments: 4,
        compact_segments: 3,
    }));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Readers: spatial + window queries under read locks, concurrent
        // with ingestion. Results vary with timing; the point is that they
        // are *possible* through `&Repository` reads and never deadlock.
        let mut readers = Vec::new();
        for _ in 0..2 {
            let single = Arc::clone(&single);
            let segmented = Arc::clone(&segmented);
            let done = Arc::clone(&done);
            readers.push(scope.spawn(move || {
                let q = Aabb::new(Point::new(0.0, 0.0), Point::new(50.0, 8.0));
                let mut seen = 0usize;
                while !done.load(Ordering::Relaxed) {
                    seen += single
                        .trajectories
                        .read()
                        .range_query(RunScope::All, FloorId(0), &q)
                        .len();
                    seen += single
                        .trajectories
                        .read()
                        .knn(RunScope::All, FloorId(0), Point::new(10.0, 3.0), 5)
                        .len();
                    seen += single
                        .rssi
                        .read()
                        .time_window(RunScope::All, Timestamp(0), Timestamp(1_000))
                        .len();
                    seen += segmented
                        .trajectories()
                        .range_query(RunScope::All, FloorId(0), &q)
                        .unwrap()
                        .len();
                    seen += segmented
                        .trajectories()
                        .knn(RunScope::All, FloorId(0), Point::new(10.0, 3.0), 5)
                        .unwrap()
                        .len();
                    seen += segmented
                        .rssi()
                        .time_window(RunScope::All, Timestamp(0), Timestamp(1_000))
                        .unwrap()
                        .len();
                }
                seen
            }));
        }

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let single = Arc::clone(&single);
                let segmented = Arc::clone(&segmented);
                scope.spawn(move || {
                    for k in 0..OBJECTS_PER_PRODUCER {
                        let o = p * OBJECTS_PER_PRODUCER + k;
                        for (samples, rssi, fix, prox) in object_batches(o) {
                            single.accept(ProductBatch::Trajectories(samples.clone()));
                            segmented.accept(ProductBatch::Trajectories(samples));
                            single.accept(ProductBatch::Rssi(rssi.clone()));
                            segmented.accept(ProductBatch::Rssi(rssi));
                            single.accept(ProductBatch::Fixes(vec![fix]));
                            segmented.accept(ProductBatch::Fixes(vec![fix]));
                            single.accept(ProductBatch::Proximity(vec![prox]));
                            segmented.accept(ProductBatch::Proximity(vec![prox]));
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().is_ok());
        }
    });

    // Totals match on both backends.
    let objects = PRODUCERS * OBJECTS_PER_PRODUCER;
    let rows = (objects as usize) * (BATCHES_PER_OBJECT * ROWS_PER_BATCH) as usize;
    assert_eq!(single.counts(RunScope::All).trajectories, rows);
    assert_eq!(
        single.counts(RunScope::All),
        segmented.counts(RunScope::All)
    );
    // The aggressive thresholds must have exercised sealing for real.
    let stats = segmented.stats();
    assert!(stats.seals > 0, "appends never sealed: {stats:?}");

    // Per-object time order is preserved on both backends, and each
    // object's rows match bit-identically (one producer per object ⇒
    // arrival order is deterministic per object even under concurrency).
    for o in 0..objects {
        let a: Vec<TrajectorySample> = single
            .trajectories
            .read()
            .object_trace(RunScope::All, ObjectId(o))
            .into_iter()
            .copied()
            .collect();
        assert!(!a.is_empty());
        assert!(
            a.windows(2).all(|w| w[0].t <= w[1].t),
            "object {o} trace out of order"
        );
        let c = segmented
            .trajectories()
            .of_object(RunScope::All, ObjectId(o))
            .unwrap();
        assert_eq!(a, c, "object {o} trace differs on segmented backend");

        let ra: Vec<RssiMeasurement> = single
            .rssi
            .read()
            .of_object(RunScope::All, ObjectId(o))
            .into_iter()
            .copied()
            .collect();
        assert_eq!(
            ra,
            segmented
                .rssi()
                .of_object(RunScope::All, ObjectId(o))
                .unwrap()
        );
        let fa: Vec<Fix> = single
            .fixes
            .read()
            .of_object(RunScope::All, ObjectId(o))
            .into_iter()
            .copied()
            .collect();
        assert_eq!(
            fa,
            segmented
                .fixes()
                .of_object(RunScope::All, ObjectId(o))
                .unwrap()
        );
        let pa: Vec<ProximityRecord> = single
            .proximity
            .read()
            .of_object(RunScope::All, ObjectId(o))
            .into_iter()
            .copied()
            .collect();
        assert_eq!(
            pa,
            segmented
                .proximity()
                .of_object(RunScope::All, ObjectId(o))
                .unwrap()
        );
    }

    // Full row sets match bit-identically for all four tables (sorted on a
    // full key — global arrival order is scheduler-dependent by contract).
    let key = |s: &TrajectorySample| {
        let p = s.point();
        (s.t.0, s.object.0, p.x.to_bits(), p.y.to_bits())
    };
    let mut a: Vec<TrajectorySample> = single
        .trajectories
        .read()
        .scan(RunScope::All)
        .into_iter()
        .copied()
        .collect();
    let mut c = segmented.trajectories().scan(RunScope::All).unwrap();
    a.sort_by_key(key);
    c.sort_by_key(key);
    assert_eq!(a, c);

    let mut ra: Vec<RssiMeasurement> = single
        .rssi
        .read()
        .scan(RunScope::All)
        .into_iter()
        .copied()
        .collect();
    let rkey = |m: &RssiMeasurement| (m.t.0, m.object.0, m.device.0, m.rssi.to_bits());
    let mut rc = segmented.rssi().scan(RunScope::All).unwrap();
    ra.sort_by_key(rkey);
    rc.sort_by_key(rkey);
    assert_eq!(ra, rc);

    let mut fa: Vec<Fix> = single
        .fixes
        .read()
        .scan(RunScope::All)
        .into_iter()
        .copied()
        .collect();
    let fkey = |f: &Fix| (f.t.0, f.object.0);
    let mut fc = segmented.fixes().scan(RunScope::All).unwrap();
    fa.sort_by_key(fkey);
    fc.sort_by_key(fkey);
    assert_eq!(fa, fc);

    let mut pa: Vec<ProximityRecord> = single
        .proximity
        .read()
        .scan(RunScope::All)
        .into_iter()
        .copied()
        .collect();
    let pkey = |r: &ProximityRecord| (r.ts.0, r.te.0, r.object.0, r.device.0);
    let mut pc = segmented.proximity().scan(RunScope::All).unwrap();
    pa.sort_by_key(pkey);
    pc.sort_by_key(pkey);
    assert_eq!(pa, pc);
    // A final forced maintenance round must not change any answer.
    segmented.seal_now();
    segmented.seal_now();
    let mut pd = segmented.proximity().scan(RunScope::All).unwrap();
    pd.sort_by_key(pkey);
    assert_eq!(pa, pd);
    assert_eq!(segmented.stats().unsealed_segments, 0);
}
