//! One append sequence, one segment history: the segmented engine seals,
//! compacts and spills inside the calls that trigger it, so two
//! repositories fed the same batches (and the same queries) must agree on
//! every [`SegmentStats`] field — counters and segment inventory — after
//! every single append, not just once they are quiesced.
//!
//! The sequence mixes trajectory and RSSI batches across three runs. Most
//! batches are small, so the unsealed-segment count trips `seal_segments`;
//! every 31st is large enough to trip `seal_rows` on its own. A small
//! `compact_segments` makes the sealed segments fold while the sequence
//! runs. It is played twice: all-resident, and under a spill budget far
//! below the corpus with a query every few appends, which pages spilled
//! segments back in and feeds the eviction order.

mod common;

use common::SpillParent;
use vita_geometry::Point;
use vita_indoor::{BuildingId, DeviceId, FloorId, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_rssi::RssiMeasurement;
use vita_storage::{
    ProductBatch, ProductSink, RunScope, SegmentConfig, SegmentStats, SegmentedRepository,
    SpillConfig,
};

const APPENDS: usize = 360;
const CONFIG: SegmentConfig = SegmentConfig {
    seal_rows: 256,
    seal_segments: 6,
    compact_segments: 3,
};

/// Append `i` of the sequence: its run and its batch.
fn append(i: usize) -> (RunId, ProductBatch) {
    let run = RunId((i % 3) as u32);
    let rows = if i % 31 == 4 { 300 } else { 5 + (i * 7) % 31 };
    let t0 = (i * 64) as u64;
    let batch = if i.is_multiple_of(2) {
        ProductBatch::Trajectories(
            (0..rows)
                .map(|k| {
                    TrajectorySample::new(
                        ObjectId(((i + k) % 20) as u32),
                        BuildingId(0),
                        FloorId((k % 2) as u32),
                        Point::new((k % 37) as f64, ((i + k) % 23) as f64),
                        Timestamp(t0 + k as u64 % 97),
                    )
                })
                .collect(),
        )
    } else {
        ProductBatch::Rssi(
            (0..rows)
                .map(|k| RssiMeasurement {
                    object: ObjectId(((i + k) % 20) as u32),
                    device: DeviceId((k % 6) as u32),
                    rssi: -40.0 - (k % 50) as f64,
                    t: Timestamp(t0 + k as u64 % 97),
                })
                .collect(),
        )
    };
    (run, batch)
}

/// A query reaching back into the sealed (and, with a spill tier,
/// spilled) prefix of the sequence: each run's trajectory window, and one
/// object's RSSI rows.
fn query(repo: &SegmentedRepository, i: usize) -> usize {
    let run = RunScope::from(RunId((i % 3) as u32));
    let from = Timestamp((i as u64 * 64) / 3);
    let window = repo
        .trajectories()
        .time_window(run, from, Timestamp(from.0 + 2_000))
        .unwrap();
    let rows = repo
        .rssi()
        .of_object(RunScope::All, ObjectId((i % 20) as u32))
        .unwrap();
    window.len() + rows.len()
}

/// Feed the sequence to both repositories in lockstep, asserting equal
/// stats after every append and after `seal_now`; returns the stats
/// right after the last append.
fn lockstep(a: &SegmentedRepository, b: &SegmentedRepository, query_every: usize) -> SegmentStats {
    for i in 0..APPENDS {
        for repo in [a, b] {
            let (run, batch) = append(i);
            repo.accept_run(run, batch);
        }
        assert_eq!(a.stats(), b.stats(), "diverged after append {i}");
        if query_every > 0 && i % query_every == query_every - 1 {
            assert_eq!(query(a, i), query(b, i), "answers differ at append {i}");
            assert_eq!(a.stats(), b.stats(), "diverged after the query at {i}");
        }
    }
    let last = a.stats();
    a.seal_now();
    b.seal_now();
    assert_eq!(a.stats(), b.stats(), "diverged after seal_now");
    assert_eq!(a.counts(RunScope::All), b.counts(RunScope::All));
    last
}

#[test]
fn same_appends_give_the_same_segment_history() {
    let (a, b) = (
        SegmentedRepository::with_config(CONFIG),
        SegmentedRepository::with_config(CONFIG),
    );
    let last = lockstep(&a, &b, 0);
    // Both triggers fired inline: nothing waits on another thread.
    assert!(last.seals > 0, "{last:?}");
    assert!(last.compactions > 0, "{last:?}");
}

#[test]
fn same_appends_and_queries_give_the_same_spill_history() {
    let parent = SpillParent::new("vita-history");
    let spill = || {
        SegmentedRepository::with_spill(
            CONFIG,
            SpillConfig {
                dir: parent.0.clone(),
                memory_budget_rows: 600,
                cache_segments: 2,
            },
        )
    };
    let (a, b) = (spill(), spill());
    let last = lockstep(&a, &b, 4);
    assert!(last.seals > 0, "{last:?}");
    assert!(last.compactions > 0, "{last:?}");
    assert!(last.spills > 0 && last.page_ins > 0, "{last:?}");
}
