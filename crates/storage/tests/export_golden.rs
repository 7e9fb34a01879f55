//! The saved bytes, pinned across commits. Every parity suite compares two
//! export paths of the same build, so a change that moved the v2 table
//! encoding on every path at once would pass them all; this suite fails
//! it. One deterministic batch sequence (four tables, three runs, values
//! built from integers only, so no libm call can move them) goes to the
//! reference [`Repository`] and to two [`SegmentedRepository`]s: one
//! all-resident, whose small seal and compaction triggers leave unsealed
//! heads, sealed and compacted segments side by side, and one under a tiny
//! spill budget. The three exports must be byte-equal, and each table
//! file's length and trailing FNV-1a checksum must equal the constants
//! below.

mod common;

use common::SpillParent;
use vita_geometry::Point;
use vita_indoor::{BuildingId, DeviceId, FloorId, Loc, ObjectId, PartitionId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;
use vita_storage::{
    ProductBatch, ProductSink, Repository, RepositoryExport, SegmentConfig, SegmentedRepository,
    SpillConfig,
};

const BATCHES: usize = 48;
const CONFIG: SegmentConfig = SegmentConfig {
    seal_rows: 96,
    seal_segments: 5,
    compact_segments: 2,
};

/// `(length, trailing checksum)` of each table file, in
/// [`RepositoryExport::FILE_NAMES`] order.
const GOLDEN: [(usize, u64); 4] = [
    (26_287, 0x96bb_ddd5_2c61_1aca),
    (34_086, 0xcf74_fb4e_445c_7cb1),
    (12_745, 0x5d1b_9414_4c87_a22a),
    (5_334, 0x9a75_d3ea_fcb0_0733),
];

/// A point or, every fifth row, a partition location.
fn loc(b: usize, k: usize) -> Loc {
    let (building, floor) = (BuildingId(0), FloorId((k % 2) as u32));
    if k % 5 == 4 {
        Loc::partition(building, floor, PartitionId(((b + k) % 7) as u32))
    } else {
        let x = ((b * 13 + k * 7) % 101) as f64;
        let y = ((b * 5 + k * 3) % 67) as f64 - 20.0;
        Loc::point(building, floor, Point::new(x, y))
    }
}

/// Batch `b` of the sequence: its run, and one batch per table. Rows are
/// time-ordered within a batch; batches overlap in time and share
/// timestamps, so sealing reorders rows and ties fall back to arrival.
fn batches(b: usize) -> (RunId, [ProductBatch; 4]) {
    let run = RunId((b % 3) as u32);
    let n = 4 + (b * 11) % 23;
    let t = |k: usize| Timestamp(((b * 389) % 2_000 + k * 10) as u64);
    let object = |k: usize| ObjectId(((b + k) % 9) as u32);
    let trajectories = (0..n)
        .map(|k| TrajectorySample {
            object: object(k),
            loc: loc(b, k),
            t: t(k),
        })
        .collect();
    let rssi = (0..2 * n)
        .map(|k| RssiMeasurement {
            object: object(k / 2),
            device: DeviceId((k % 4) as u32),
            rssi: -(((b * 3 + k) % 240) as f64) / 4.0 - 20.0,
            t: t(k / 2),
        })
        .collect();
    let fixes = (0..n / 2)
        .map(|k| Fix {
            object: object(2 * k),
            loc: loc(b + 1, 2 * k),
            t: t(2 * k),
        })
        .collect();
    let proximity = (0..n / 3)
        .map(|k| ProximityRecord {
            object: object(3 * k),
            device: DeviceId((k % 4) as u32),
            ts: t(3 * k),
            te: Timestamp(t(3 * k).0 + (k % 5) as u64 * 100),
        })
        .collect();
    (
        run,
        [
            ProductBatch::Trajectories(trajectories),
            ProductBatch::Rssi(rssi),
            ProductBatch::Fixes(fixes),
            ProductBatch::Proximity(proximity),
        ],
    )
}

fn fill(sink: &impl ProductSink) {
    for b in 0..BATCHES {
        let (run, tables) = batches(b);
        for batch in tables {
            sink.accept_run(run, batch);
        }
    }
}

fn tables(export: &RepositoryExport) -> [&[u8]; 4] {
    [
        &export.trajectories,
        &export.rssi,
        &export.fixes,
        &export.proximity,
    ]
}

#[test]
fn every_backend_exports_the_golden_bytes() {
    let parent = SpillParent::new("vita-golden-export");
    let reference = Repository::new();
    fill(&reference);
    // A budget no corpus reaches keeps this one all-resident even when
    // `VITA_SPILL_*` is set.
    let resident = SegmentedRepository::with_spill(
        CONFIG,
        SpillConfig {
            dir: parent.0.clone(),
            memory_budget_rows: usize::MAX,
            cache_segments: 2,
        },
    );
    fill(&resident);
    let spilled = SegmentedRepository::with_spill(
        CONFIG,
        SpillConfig {
            dir: parent.0.clone(),
            memory_budget_rows: 150,
            cache_segments: 2,
        },
    );
    fill(&spilled);

    let stats = resident.stats();
    assert!(stats.unsealed_segments > 0, "{stats:?}");
    assert!(stats.sealed_segments > 1, "{stats:?}");
    assert!(stats.compactions > 0, "{stats:?}");
    assert_eq!(stats.spilled_rows, 0, "{stats:?}");
    let stats = spilled.stats();
    assert!(stats.spilled_segments > 0, "{stats:?}");

    let want = reference.export();
    for (name, export) in [
        ("resident", resident.export().unwrap()),
        ("spilled", spilled.export().unwrap()),
    ] {
        for ((file, got), want) in RepositoryExport::FILE_NAMES
            .iter()
            .zip(tables(&export))
            .zip(tables(&want))
        {
            assert!(got == want, "{name} {file} differs from the reference");
        }
    }
    let pinned: Vec<(usize, u64)> = tables(&want)
        .iter()
        .map(|file| {
            let mut trailer = [0u8; 8];
            trailer.copy_from_slice(&file[file.len() - 8..]);
            (file.len(), u64::from_le_bytes(trailer))
        })
        .collect();
    assert_eq!(pinned, GOLDEN, "the v2 table encoding moved");
}
