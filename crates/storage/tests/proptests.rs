//! Property-based tests for storage: the reference table's queries (the
//! single backend, and the oracle of every cross-backend parity suite)
//! must return exactly what a brute-force reading of their contracts
//! returns, order included; stream utilities must preserve structural
//! invariants, and codecs must round-trip anything.

use proptest::prelude::*;

use vita_geometry::{Aabb, Point};
use vita_indoor::{BuildingId, DeviceId, FloorId, ObjectId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_rssi::RssiMeasurement;
use vita_storage::{
    decode_runs, downsample, encode_runs, merge_by_time, record_rate, RssiTable, RunId, RunScope,
    Timed, TrajectoryTable, TumblingWindow, WireRecord,
};

/// `rows` encoded as one run's table file and decoded back.
fn round_trip<R: WireRecord>(rows: &[R]) -> Vec<R> {
    let encoded = encode_runs(&[(RunId::DEFAULT, rows)]);
    let sections = decode_runs::<R>(&encoded).unwrap();
    sections.into_iter().flat_map(|(_, rows)| rows).collect()
}

fn sample_strategy() -> impl Strategy<Value = TrajectorySample> {
    (
        0u32..20,
        0u32..3,
        -50.0f64..50.0,
        -50.0f64..50.0,
        0u64..1_000_000,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn time_window_matches_brute_force(
        samples in proptest::collection::vec(sample_strategy(), 0..200),
        from in 0u64..1_000_000,
        width in 1u64..500_000,
    ) {
        let mut table = TrajectoryTable::new();
        table.append_batch_run(RunId::DEFAULT, samples.iter().copied());
        let to = from + width;
        let got: Vec<TrajectorySample> = table
            .time_window(RunScope::All, Timestamp(from), Timestamp(to))
            .into_iter()
            .copied()
            .collect();
        // Half-open, time-ordered, ties in arrival order (a stable sort).
        let mut want: Vec<TrajectorySample> =
            samples.iter().filter(|s| s.t.0 >= from && s.t.0 < to).copied().collect();
        want.sort_by_key(|s| s.t);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn object_trace_matches_brute_force(
        samples in proptest::collection::vec(sample_strategy(), 0..200),
        o in 0u32..20,
    ) {
        let mut table = TrajectoryTable::new();
        table.append_batch_run(RunId::DEFAULT, samples.iter().copied());
        let got: Vec<TrajectorySample> =
            table.object_trace(RunScope::All, ObjectId(o)).into_iter().copied().collect();
        // Time-ordered, ties in arrival order.
        let mut want: Vec<TrajectorySample> =
            samples.iter().filter(|s| s.object == ObjectId(o)).copied().collect();
        want.sort_by_key(|s| s.t);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn range_query_matches_brute_force(
        samples in proptest::collection::vec(sample_strategy(), 0..150),
        x0 in -50.0f64..50.0, y0 in -50.0f64..50.0,
        w in 1.0f64..60.0, h in 1.0f64..60.0,
    ) {
        let mut table = TrajectoryTable::new();
        table.append_batch_run(RunId::DEFAULT, samples.iter().copied());
        let q = Aabb::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let got: Vec<TrajectorySample> =
            table.range_query(RunScope::All, FloorId(0), &q).into_iter().copied().collect();
        // Insertion order.
        let want: Vec<TrajectorySample> = samples
            .iter()
            .filter(|s| {
                s.loc.floor == FloorId(0)
                    && s.loc.as_point().map(|p| q.contains_point(p)).unwrap_or(false)
            })
            .copied()
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn snapshot_has_at_most_one_row_per_object(
        samples in proptest::collection::vec(sample_strategy(), 0..200),
        at in 0u64..1_000_000,
    ) {
        let mut table = TrajectoryTable::new();
        table.append_batch_run(RunId::DEFAULT, samples.iter().copied());
        let snap = table.snapshot_at(RunScope::All, Timestamp(at));
        let mut objs: Vec<ObjectId> = snap.iter().map(|s| s.object).collect();
        objs.sort_unstable();
        let before_dedup = objs.len();
        objs.dedup();
        prop_assert_eq!(objs.len(), before_dedup);
        for s in &snap {
            prop_assert!(s.t.0 <= at);
        }
        // Each object's row is its latest at or before `at` (inclusive);
        // among rows sharing that time the last-arrived wins. Output is
        // sorted by object.
        let mut want: Vec<TrajectorySample> = Vec::new();
        for o in objs {
            let latest = samples
                .iter()
                .filter(|s| s.object == o && s.t.0 <= at)
                .fold(None, |best: Option<&TrajectorySample>, s| match best {
                    Some(b) if b.t > s.t => Some(b),
                    _ => Some(s),
                });
            want.extend(latest.copied());
        }
        let got: Vec<TrajectorySample> = snap.into_iter().copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn tumbling_windows_cover_all_records_in_order(
        mut samples in proptest::collection::vec(sample_strategy(), 1..150),
        width in 1u64..100_000,
    ) {
        samples.sort_by_key(|s| s.t);
        let windows = TumblingWindow::new(width).split(&samples);
        let total: usize = windows.iter().map(|(_, w)| w.len()).sum();
        prop_assert_eq!(total, samples.len());
        for (start, w) in &windows {
            for s in *w {
                prop_assert!(s.time().0 >= start.0);
                prop_assert!(s.time().0 < start.0 + width.max(1));
            }
        }
        // Window starts strictly increasing.
        for pair in windows.windows(2) {
            prop_assert!(pair[0].0 < pair[1].0);
        }
    }

    #[test]
    fn downsample_spacing_respected(
        mut samples in proptest::collection::vec(sample_strategy(), 0..150),
        period in 1u64..50_000,
    ) {
        samples.sort_by_key(|s| s.t);
        let down = downsample(&samples, period);
        prop_assert!(down.len() <= samples.len());
        for w in down.windows(2) {
            // Consecutive kept records fall in different periods.
            prop_assert!(w[1].t.0 / period.max(1) > w[0].t.0 / period.max(1));
        }
        // Rate never increases.
        prop_assert!(record_rate(&down) <= record_rate(&samples) + 1e-9);
    }

    #[test]
    fn merge_preserves_order_and_count(
        mut a in proptest::collection::vec(sample_strategy(), 0..80),
        mut b in proptest::collection::vec(sample_strategy(), 0..80),
    ) {
        a.sort_by_key(|s| s.t);
        b.sort_by_key(|s| s.t);
        let merged = merge_by_time(&[&a, &b]);
        prop_assert_eq!(merged.len(), a.len() + b.len());
        for w in merged.windows(2) {
            prop_assert!(w[0].t <= w[1].t);
        }
    }

    #[test]
    fn rssi_codec_round_trips(
        rows in proptest::collection::vec(
            (0u32..100, 0u32..20, -120.0f64..0.0, 0u64..10_000_000),
            0..80,
        ),
    ) {
        let ms: Vec<RssiMeasurement> = rows
            .iter()
            .map(|(o, d, r, t)| RssiMeasurement {
                object: ObjectId(*o),
                device: DeviceId(*d),
                rssi: *r,
                t: Timestamp(*t),
            })
            .collect();
        let decoded = round_trip(&ms);
        prop_assert_eq!(decoded, ms);
    }

    #[test]
    fn proximity_codec_round_trips(
        rows in proptest::collection::vec(
            (0u32..100, 0u32..20, 0u64..1_000_000, 0u64..1_000_000),
            0..80,
        ),
    ) {
        let rs: Vec<vita_positioning::ProximityRecord> = rows
            .iter()
            .map(|(o, d, t1, t2)| vita_positioning::ProximityRecord {
                object: ObjectId(*o),
                device: DeviceId(*d),
                ts: Timestamp(*t1.min(t2)),
                te: Timestamp(*t1.max(t2)),
            })
            .collect();
        let decoded = round_trip(&rs);
        prop_assert_eq!(decoded, rs);
    }

    #[test]
    fn rssi_table_device_and_object_indexes_consistent(
        rows in proptest::collection::vec(
            (0u32..10, 0u32..5, 0u64..100_000),
            0..120,
        ),
    ) {
        let mut table = RssiTable::new();
        for (o, d, t) in &rows {
            table.insert(RssiMeasurement {
                object: ObjectId(*o),
                device: DeviceId(*d),
                rssi: -50.0,
                t: Timestamp(*t),
            });
        }
        let by_obj: usize = (0..10).map(|o| table.of_object(RunScope::All, ObjectId(o)).len()).sum();
        let by_dev: usize = (0..5).map(|d| table.of_device(RunScope::All, DeviceId(d)).len()).sum();
        prop_assert_eq!(by_obj, rows.len());
        prop_assert_eq!(by_dev, rows.len());
        for o in 0..10 {
            let got = table.of_object(RunScope::All, ObjectId(o));
            prop_assert!(got.windows(2).all(|w| w[0].t <= w[1].t));
        }
    }
}
