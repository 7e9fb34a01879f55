//! Spill writer backpressure regression (ISSUE 9 satellite): ingesting a
//! corpus far past a tiny memory budget must stall the writer at least
//! once (`writer_stalls > 0` — appends wait for the spiller instead of
//! letting decoded sealed rows grow unboundedly), must actually evict to
//! disk, and must lose nothing: post-run counts match an all-resident
//! control fed the identical batches.

#![expect(clippy::disallowed_methods, reason = "test code")]

use vita_geometry::Point;
use vita_indoor::{BuildingId, FloorId, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_storage::{
    ProductBatch, ProductSink, RunScope, SegmentConfig, SegmentedRepository, SpillConfig,
};

const TOTAL_ROWS: usize = 16_384;
/// Batches are smaller than the seal threshold, so several appends land
/// between two seals; the queries between them are what can push the
/// gauge to the high-water mark (same geometry as E17).
const BATCH: usize = 128;
const SEAL_ROWS: usize = 512;
const BUDGET: usize = 512;
const RUNS: u32 = 3;
/// Every few batches, page the newest *sealed* segment back in. Past
/// the first seal the budget is full, so every later seal output is
/// spilled directly — never published resident — which means pure
/// ingest never stalls; only a page-in can push the decoded gauge a
/// full seal past the budget, which is exactly the high-water mark the
/// next append stalls on.
const QUERY_EVERY: usize = 2;

fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vita-backpressure-{tag}-{}", std::process::id()))
}

fn batch_at(b: usize) -> Vec<TrajectorySample> {
    (0..BATCH)
        .map(|i| {
            let row = b * BATCH + i;
            TrajectorySample::new(
                ObjectId((row % 100) as u32),
                BuildingId(0),
                FloorId((row % 2) as u32),
                Point::new((row % 420) as f64 / 10.0, (row % 160) as f64 / 10.0),
                Timestamp(row as u64),
            )
        })
        .collect()
}

fn ingest(repo: &SegmentedRepository) {
    for b in 0..TOTAL_ROWS / BATCH {
        repo.accept_run(
            RunId((b as u32) % RUNS),
            ProductBatch::Trajectories(batch_at(b)),
        );
        let sealed_hi = ((b + 1) * BATCH / SEAL_ROWS * SEAL_ROWS) as u64;
        if (b + 1) % QUERY_EVERY == 0 && sealed_hi >= 2 * SEAL_ROWS as u64 {
            let _ = repo
                .trajectories()
                .time_window(
                    RunScope::All,
                    Timestamp(sealed_hi - SEAL_ROWS as u64),
                    Timestamp(sealed_hi),
                )
                .unwrap()
                .len();
        }
    }
    repo.seal_now();
}

#[test]
fn tiny_budget_ingest_stalls_writer_and_loses_nothing() {
    let config = SegmentConfig {
        seal_rows: SEAL_ROWS,
        ..SegmentConfig::default()
    };
    // Control: same segment geometry, but a budget the whole corpus fits
    // under — the spiller never runs, so this is the all-resident row set.
    // (Built via `with_spill` so a VITA_SPILL_DIR in the environment
    // can't silently attach a real spill tier to the control.)
    let control = SegmentedRepository::with_spill(
        config,
        SpillConfig {
            dir: spill_dir("control"),
            memory_budget_rows: TOTAL_ROWS * 2,
            cache_segments: 2,
        },
    );
    ingest(&control);
    let control_stats = control.stats();
    assert_eq!(control_stats.spills, 0, "control must stay resident");
    assert_eq!(control_stats.writer_stalls, 0, "{control_stats:?}");

    let spilled = SegmentedRepository::with_spill(
        config,
        SpillConfig {
            dir: spill_dir("tiny"),
            memory_budget_rows: BUDGET,
            cache_segments: 2,
        },
    );
    ingest(&spilled);
    let stats = spilled.stats();

    // The regression under test: a 32× budget corpus must hit the
    // backpressure path, not just the spiller.
    assert!(stats.writer_stalls > 0, "writer never stalled: {stats:?}");
    assert!(stats.spills > 0 && stats.spilled_rows > 0, "{stats:?}");
    assert!(
        stats.resident_rows <= BUDGET,
        "post-maintenance gauge over budget: {stats:?}"
    );

    // Nothing lost crossing the spill tier: per-run and total counts
    // match the all-resident control exactly.
    assert_eq!(spilled.run_ids(), control.run_ids());
    for run in control.run_ids() {
        assert_eq!(
            spilled.counts(run.into()),
            control.counts(run.into()),
            "per-run counts diverge at {run:?}"
        );
    }
    assert_eq!(spilled.counts(RunScope::All), control.counts(RunScope::All));
    assert_eq!(spilled.counts(RunScope::All).trajectories, TOTAL_ROWS);

    // Paged-back rows are the control's rows, not just the same counts.
    assert_eq!(
        spilled.trajectories().scan(RunScope::All).unwrap(),
        control.trajectories().scan(RunScope::All).unwrap()
    );

    drop(spilled);
    drop(control);
    for tag in ["control", "tiny"] {
        let _ = std::fs::remove_dir_all(spill_dir(tag));
    }
}
