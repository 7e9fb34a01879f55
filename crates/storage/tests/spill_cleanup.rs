//! `SegmentedRepository` Drop must remove its per-instance spill
//! subdirectory (ISSUE 9 satellite) — including after queries paged
//! spilled segments back in, which re-reads files the compactor may
//! have already consumed and re-populates the page-in cache. Until now
//! this was only asserted implicitly (parity suites removing the parent
//! themselves); this pins it: the parent directory two repositories
//! share is empty once both drop, and each instance only ever touched
//! its own `vita-{pid}-{n}` subdir.

#![expect(clippy::disallowed_methods, reason = "test code")]

mod common;

use common::SpillParent;
use vita_geometry::Point;
use vita_indoor::{BuildingId, FloorId, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_storage::{
    ProductBatch, ProductSink, RunScope, SegmentConfig, SegmentedRepository, SpillConfig,
};

const TOTAL_ROWS: usize = 4_096;
const BATCH: usize = 128;
const BUDGET: usize = 512;

fn subdirs(parent: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(parent)
        .expect("read spill parent dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn drop_removes_per_instance_spill_subdir_after_page_ins() {
    let guard = SpillParent::new("vita-cleanup");
    let parent = guard.0.clone();
    std::fs::create_dir_all(&parent).expect("create parent dir");

    let build = || {
        SegmentedRepository::with_spill(
            SegmentConfig {
                seal_rows: BUDGET,
                ..SegmentConfig::default()
            },
            SpillConfig {
                dir: parent.clone(),
                memory_budget_rows: BUDGET,
                cache_segments: 2,
            },
        )
    };
    // Two instances sharing the configured dir: each must spill into its
    // own subdir and remove exactly that on drop.
    let repo = build();
    let other = build();
    assert_eq!(subdirs(&parent).len(), 2, "one subdir per live instance");
    let prefix = format!("vita-{}-", std::process::id());
    assert!(
        subdirs(&parent).iter().all(|d| d.starts_with(&prefix)),
        "{:?}",
        subdirs(&parent)
    );

    for b in 0..TOTAL_ROWS / BATCH {
        let rows: Vec<TrajectorySample> = (0..BATCH)
            .map(|i| {
                let row = b * BATCH + i;
                TrajectorySample::new(
                    ObjectId((row % 50) as u32),
                    BuildingId(0),
                    FloorId(0),
                    Point::new((row % 300) as f64 / 10.0, (row % 120) as f64 / 10.0),
                    Timestamp(row as u64),
                )
            })
            .collect();
        repo.accept_run(RunId(0), ProductBatch::Trajectories(rows));
    }
    repo.seal_now();
    assert!(repo.stats().spills > 0, "{:?}", repo.stats());

    // Page spilled segments back in: a full scan touches every sealed
    // segment, and cold time windows walk the spilled prefix through the
    // clock cache.
    assert_eq!(
        repo.trajectories().scan(RunScope::All).unwrap().len(),
        TOTAL_ROWS
    );
    for seg in 0..TOTAL_ROWS / BUDGET {
        let from = (seg * BUDGET) as u64;
        let n = repo
            .trajectories()
            .time_window(RunScope::All, Timestamp(from), Timestamp(from + 64))
            .unwrap()
            .len();
        assert_eq!(n, 64);
    }
    let stats = repo.stats();
    assert!(
        stats.page_ins > 0,
        "queries never paged anything in: {stats:?}"
    );

    // Drop with pages still cached and spill files live on disk: the
    // instance's subdir goes away; the sibling's stays untouched.
    drop(repo);
    assert_eq!(subdirs(&parent).len(), 1, "dropped instance must clean up");
    drop(other);
    assert_eq!(
        subdirs(&parent),
        Vec::<String>::new(),
        "shared parent must be empty after both drop"
    );
}
