//! Wire-format robustness suite (the PR-5 codec acceptance tests):
//!
//! * arbitrary multi-run row sets round-trip bit-identically through the
//!   v2 encoder/decoder, and re-encoding the decode reproduces the exact
//!   input bytes (the format is canonical);
//! * v1 files — hand-encoded here byte-for-byte, plus checked-in golden
//!   fixtures under `tests/fixtures/` — decode through the same readers
//!   with every row in run 0, pinning backward compatibility in CI;
//! * random truncation and byte corruption of valid files return a
//!   [`CodecError`] — never a panic, never silently wrong data (v2 files
//!   carry a trailing checksum, so payload corruption cannot slip
//!   through).

use proptest::prelude::*;

use bytes::Bytes;
use vita_geometry::Point;
use vita_indoor::{BuildingId, DeviceId, FloorId, Loc, ObjectId, PartitionId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;
use vita_storage::{decode_runs, encode_runs, CodecError};

// ---------------------------------------------------------------- strategies

fn loc_strategy() -> impl Strategy<Value = Loc> {
    (
        0u32..3,
        0u32..4,
        0u32..2,
        0u32..50,
        -100.0f64..100.0,
        -100.0f64..100.0,
    )
        .prop_map(|(b, f, kind, pid, x, y)| {
            if kind == 0 {
                Loc::point(BuildingId(b), FloorId(f), Point::new(x, y))
            } else {
                Loc::partition(BuildingId(b), FloorId(f), PartitionId(pid))
            }
        })
}

fn sample_strategy() -> impl Strategy<Value = TrajectorySample> {
    (0u32..64, loc_strategy(), 0u64..1 << 40).prop_map(|(o, loc, t)| TrajectorySample {
        object: ObjectId(o),
        loc,
        t: Timestamp(t),
    })
}

fn rssi_strategy() -> impl Strategy<Value = RssiMeasurement> {
    (0u32..64, 0u32..16, -120.0f64..0.0, 0u64..1 << 40).prop_map(|(o, d, r, t)| RssiMeasurement {
        object: ObjectId(o),
        device: DeviceId(d),
        rssi: r,
        t: Timestamp(t),
    })
}

fn fix_strategy() -> impl Strategy<Value = Fix> {
    (0u32..64, loc_strategy(), 0u64..1 << 40).prop_map(|(o, loc, t)| Fix {
        object: ObjectId(o),
        loc,
        t: Timestamp(t),
    })
}

fn prox_strategy() -> impl Strategy<Value = ProximityRecord> {
    (0u32..64, 0u32..16, 0u64..1 << 40, 0u64..10_000).prop_map(|(o, d, ts, dur)| ProximityRecord {
        object: ObjectId(o),
        device: DeviceId(d),
        ts: Timestamp(ts),
        te: Timestamp(ts + dur),
    })
}

/// Strictly ascending run ids from per-section gaps.
fn section_runs(gaps: &[u32]) -> Vec<RunId> {
    let mut next = 0u32;
    gaps.iter()
        .map(|&g| {
            let run = next + g;
            next = run + 1;
            RunId(run)
        })
        .collect()
}

fn borrow<T>(sections: &[(RunId, Vec<T>)]) -> Vec<(RunId, &[T])> {
    sections.iter().map(|(r, v)| (*r, v.as_slice())).collect()
}

fn nonempty<T: Clone>(sections: &[(RunId, Vec<T>)]) -> Vec<(RunId, Vec<T>)> {
    sections
        .iter()
        .filter(|(_, rows)| !rows.is_empty())
        .cloned()
        .collect()
}

// ------------------------------------------------------------ v1 hand-encoder

/// The v1 writer, byte-for-byte (it no longer exists in the codec): magic,
/// version 1, tag, row count, rows — no sections, no checksum.
fn encode_v1(tag: u8, rows: &[Vec<u8>]) -> Bytes {
    let mut out = Vec::new();
    out.extend_from_slice(b"VITA");
    out.push(1);
    out.push(tag);
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    for r in rows {
        out.extend_from_slice(r);
    }
    Bytes::from(out)
}

fn loc_bytes(loc: &Loc) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    out.extend_from_slice(&loc.building.0.to_le_bytes());
    out.extend_from_slice(&loc.floor.0.to_le_bytes());
    match loc.kind {
        vita_indoor::LocKind::Point(p) => {
            out.push(0);
            out.extend_from_slice(&p.x.to_le_bytes());
            out.extend_from_slice(&p.y.to_le_bytes());
        }
        vita_indoor::LocKind::Partition(pid) => {
            out.push(1);
            out.extend_from_slice(&pid.0.to_le_bytes());
            out.extend_from_slice(&[0u8; 12]);
        }
    }
    out
}

fn sample_bytes(s: &TrajectorySample) -> Vec<u8> {
    let mut out = s.object.0.to_le_bytes().to_vec();
    out.extend_from_slice(&loc_bytes(&s.loc));
    out.extend_from_slice(&s.t.0.to_le_bytes());
    out
}

fn rssi_bytes(m: &RssiMeasurement) -> Vec<u8> {
    let mut out = m.object.0.to_le_bytes().to_vec();
    out.extend_from_slice(&m.device.0.to_le_bytes());
    out.extend_from_slice(&m.rssi.to_le_bytes());
    out.extend_from_slice(&m.t.0.to_le_bytes());
    out
}

// ------------------------------------------------------------------- proptest

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// v2 multi-run sections round-trip bit-identically, for all four
    /// record types, and re-encoding the decode reproduces the input
    /// bytes exactly (canonical format).
    #[test]
    fn multi_run_round_trip_is_bit_identical(
        gaps in proptest::collection::vec(0u32..5, 1..5),
        t_rows in proptest::collection::vec(proptest::collection::vec(sample_strategy(), 0..40), 4..5),
        r_rows in proptest::collection::vec(proptest::collection::vec(rssi_strategy(), 0..40), 4..5),
        f_rows in proptest::collection::vec(proptest::collection::vec(fix_strategy(), 0..40), 4..5),
        p_rows in proptest::collection::vec(proptest::collection::vec(prox_strategy(), 0..40), 4..5),
    ) {
        let runs = section_runs(&gaps);

        let sections: Vec<(RunId, Vec<TrajectorySample>)> =
            runs.iter().zip(t_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_runs(&borrow(&sections));
        let decoded = decode_runs::<TrajectorySample>(&encoded).unwrap();
        prop_assert_eq!(&decoded, &nonempty(&sections));
        prop_assert_eq!(encode_runs(&borrow(&decoded)), encoded);

        let sections: Vec<(RunId, Vec<RssiMeasurement>)> =
            runs.iter().zip(r_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_runs(&borrow(&sections));
        let decoded = decode_runs::<RssiMeasurement>(&encoded).unwrap();
        prop_assert_eq!(&decoded, &nonempty(&sections));
        prop_assert_eq!(encode_runs(&borrow(&decoded)), encoded);

        let sections: Vec<(RunId, Vec<Fix>)> =
            runs.iter().zip(f_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_runs(&borrow(&sections));
        let decoded = decode_runs::<Fix>(&encoded).unwrap();
        prop_assert_eq!(&decoded, &nonempty(&sections));
        prop_assert_eq!(encode_runs(&borrow(&decoded)), encoded);

        let sections: Vec<(RunId, Vec<ProximityRecord>)> =
            runs.iter().zip(p_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_runs(&borrow(&sections));
        let decoded = decode_runs::<ProximityRecord>(&encoded).unwrap();
        prop_assert_eq!(&decoded, &nonempty(&sections));
        prop_assert_eq!(encode_runs(&borrow(&decoded)), encoded);
    }

    /// Arbitrary v1 files (hand-encoded byte-for-byte) decode through the
    /// current reader with every row in run 0.
    #[test]
    fn v1_reader_decodes_arbitrary_rows_into_run_zero(
        samples in proptest::collection::vec(sample_strategy(), 0..60),
        ms in proptest::collection::vec(rssi_strategy(), 0..60),
    ) {
        let rows: Vec<Vec<u8>> = samples.iter().map(sample_bytes).collect();
        let decoded = decode_runs::<TrajectorySample>(&encode_v1(1, &rows)).unwrap();
        if samples.is_empty() {
            prop_assert!(decoded.is_empty());
        } else {
            prop_assert_eq!(decoded, vec![(RunId::DEFAULT, samples)]);
        }

        let rows: Vec<Vec<u8>> = ms.iter().map(rssi_bytes).collect();
        let decoded = decode_runs::<RssiMeasurement>(&encode_v1(2, &rows)).unwrap();
        if ms.is_empty() {
            prop_assert!(decoded.is_empty());
        } else {
            prop_assert_eq!(decoded, vec![(RunId::DEFAULT, ms)]);
        }
    }

    /// Any truncation of a valid file decodes to an error — never a panic,
    /// never a partial row set.
    #[test]
    fn truncation_always_errors(
        gaps in proptest::collection::vec(0u32..3, 1..4),
        t_rows in proptest::collection::vec(proptest::collection::vec(sample_strategy(), 0..20), 3..4),
        cut in 0.0f64..1.0,
    ) {
        let runs = section_runs(&gaps);
        let sections: Vec<(RunId, Vec<TrajectorySample>)> =
            runs.iter().zip(t_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_runs(&borrow(&sections));
        let keep = ((encoded.len() as f64) * cut) as usize; // < len
        let truncated = encoded.slice(0..keep);
        prop_assert!(decode_runs::<TrajectorySample>(&truncated).is_err());
    }

    /// Any single-byte corruption of a valid v2 file decodes to an error —
    /// the checksum catches payload damage that still parses structurally.
    #[test]
    fn byte_corruption_always_errors(
        gaps in proptest::collection::vec(0u32..3, 1..4),
        t_rows in proptest::collection::vec(proptest::collection::vec(sample_strategy(), 0..20), 3..4),
        pos in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let runs = section_runs(&gaps);
        let sections: Vec<(RunId, Vec<TrajectorySample>)> =
            runs.iter().zip(t_rows).map(|(&r, v)| (r, v)).collect();
        let encoded = encode_runs(&borrow(&sections));
        let mut bytes = encoded.as_ref().to_vec();
        let idx = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[idx] ^= flip;
        let corrupt = Bytes::from(bytes);
        match decode_runs::<TrajectorySample>(&corrupt) {
            Err(_) => {}
            Ok(rows) => prop_assert!(false, "corruption at byte {idx} decoded to {rows:?}"),
        }
    }
}

// ------------------------------------------------------------ golden fixtures

/// The checked-in v1 fixtures (written by the legacy exporter's format,
/// byte-for-byte) must decode on the current reader, forever: this is the
/// CI tripwire for wire-format compatibility. Expected contents are
/// spelled out literally — regenerating the fixtures with different data
/// fails loudly.
#[test]
fn v1_golden_fixtures_decode_into_run_zero() {
    let sections = decode_runs::<TrajectorySample>(&Bytes::from_static(include_bytes!(
        "fixtures/v1_trajectories.bin"
    )))
    .unwrap();
    assert_eq!(
        sections,
        vec![(
            RunId::DEFAULT,
            vec![
                TrajectorySample {
                    object: ObjectId(1),
                    loc: Loc::point(BuildingId(0), FloorId(0), Point::new(1.5, 2.5)),
                    t: Timestamp(1000),
                },
                TrajectorySample {
                    object: ObjectId(2),
                    loc: Loc::partition(BuildingId(0), FloorId(1), PartitionId(7)),
                    t: Timestamp(2000),
                },
                TrajectorySample {
                    object: ObjectId(3),
                    loc: Loc::point(BuildingId(1), FloorId(2), Point::new(-4.25, 9.75)),
                    t: Timestamp(3000),
                },
            ]
        )]
    );

    let sections =
        decode_runs::<RssiMeasurement>(&Bytes::from_static(include_bytes!("fixtures/v1_rssi.bin")))
            .unwrap();
    assert_eq!(
        sections,
        vec![(
            RunId::DEFAULT,
            vec![
                RssiMeasurement {
                    object: ObjectId(0),
                    device: DeviceId(3),
                    rssi: -62.25,
                    t: Timestamp(500),
                },
                RssiMeasurement {
                    object: ObjectId(9),
                    device: DeviceId(0),
                    rssi: -40.0,
                    t: Timestamp(999),
                },
            ]
        )]
    );

    let sections =
        decode_runs::<Fix>(&Bytes::from_static(include_bytes!("fixtures/v1_fixes.bin"))).unwrap();
    assert_eq!(
        sections,
        vec![(
            RunId::DEFAULT,
            vec![
                Fix {
                    object: ObjectId(4),
                    loc: Loc::point(BuildingId(0), FloorId(2), Point::new(-3.25, 8.0)),
                    t: Timestamp(12345),
                },
                Fix {
                    object: ObjectId(5),
                    loc: Loc::partition(BuildingId(1), FloorId(0), PartitionId(2)),
                    t: Timestamp(777),
                },
            ]
        )]
    );

    let sections = decode_runs::<ProximityRecord>(&Bytes::from_static(include_bytes!(
        "fixtures/v1_proximity.bin"
    )))
    .unwrap();
    assert_eq!(
        sections,
        vec![(
            RunId::DEFAULT,
            vec![
                ProximityRecord {
                    object: ObjectId(5),
                    device: DeviceId(6),
                    ts: Timestamp(100),
                    te: Timestamp(5000),
                },
                ProximityRecord {
                    object: ObjectId(8),
                    device: DeviceId(1),
                    ts: Timestamp(0),
                    te: Timestamp(42),
                },
            ]
        )]
    );
}

/// Corrupting a golden fixture's loc-kind byte trips `BadLocKind` — the
/// v1 path has no checksum, so the typed per-row validation is what
/// stands between a corrupt file and garbage data.
#[test]
fn v1_fixture_with_corrupt_loc_kind_fails_loudly() {
    let mut bytes = include_bytes!("fixtures/v1_trajectories.bin").to_vec();
    // First row's kind byte: header (14) + object (4) + building (4) + floor (4).
    bytes[26] = 7;
    assert_eq!(
        decode_runs::<TrajectorySample>(&Bytes::from(bytes)).unwrap_err(),
        CodecError::BadLocKind(7)
    );
}
