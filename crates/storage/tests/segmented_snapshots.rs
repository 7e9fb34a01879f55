//! Snapshot semantics of the segmented backend under racing writers:
//! every query a reader issues answers from one pinned snapshot, so while
//! producers append, and their appends seal and compact, each reader must
//! observe
//!
//! * **prefix consistency** — an object's trace is always exactly a
//!   prefix of the deterministic stream its producer appends (whole
//!   batches only: publication is per-accept, never mid-batch), and
//! * **per-thread monotonicity** — successive pins never go back in time:
//!   row counts and trace lengths never shrink within one thread.
//!
//! Sealing is tuned aggressively so seals and compactions land *during*
//! the assertions, not after them.

#![expect(clippy::disallowed_methods, reason = "test code")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vita_geometry::Point;
use vita_indoor::{BuildingId, FloorId, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_storage::{ProductBatch, ProductSink, RunScope, SegmentConfig, SegmentedRepository};

const PRODUCERS: u32 = 4;
const OBJECTS_PER_PRODUCER: u32 = 2;
const BATCHES_PER_OBJECT: u64 = 40;
const ROWS_PER_BATCH: u64 = 25;

fn sample(o: u32, t: u64) -> TrajectorySample {
    TrajectorySample::new(
        ObjectId(o),
        BuildingId(0),
        FloorId(0),
        Point::new((t % 89) as f64, (o % 11) as f64),
        Timestamp(t),
    )
}

/// The full deterministic stream of one object, in the order its producer
/// appends it (time-ordered within and across batches).
fn full_stream(o: u32) -> Vec<TrajectorySample> {
    (0..BATCHES_PER_OBJECT * ROWS_PER_BATCH)
        .map(|i| sample(o, i * 10))
        .collect()
}

#[test]
fn pinned_snapshots_are_prefix_consistent_and_monotone() {
    let repo = Arc::new(SegmentedRepository::with_config(SegmentConfig {
        seal_rows: 128,
        seal_segments: 4,
        compact_segments: 3,
    }));
    let done = Arc::new(AtomicBool::new(false));
    let objects = PRODUCERS * OBJECTS_PER_PRODUCER;

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..3 {
            let repo = Arc::clone(&repo);
            let done = Arc::clone(&done);
            readers.push(scope.spawn(move || {
                let expected: Vec<Vec<TrajectorySample>> = (0..objects).map(full_stream).collect();
                let mut last_count = 0usize;
                let mut last_trace_len = vec![0usize; objects as usize];
                let mut rounds = 0usize;
                while !done.load(Ordering::Relaxed) || rounds == 0 {
                    // Counts never go backwards within a thread.
                    let count = repo.counts(RunScope::All).trajectories;
                    assert!(
                        count >= last_count,
                        "count regressed: {count} < {last_count}"
                    );
                    last_count = count;

                    for o in 0..objects {
                        let trace = repo
                            .trajectories()
                            .of_object(RunScope::All, ObjectId(o))
                            .unwrap();
                        let want = &expected[o as usize];
                        // Whole batches only, never a torn one.
                        assert_eq!(
                            trace.len() % ROWS_PER_BATCH as usize,
                            0,
                            "object {o}: torn batch visible ({} rows)",
                            trace.len()
                        );
                        // Exactly a prefix of the deterministic stream —
                        // time-ordered for free.
                        assert_eq!(
                            trace,
                            want[..trace.len()],
                            "object {o}: trace is not a prefix"
                        );
                        // Trace lengths never go backwards either.
                        assert!(
                            trace.len() >= last_trace_len[o as usize],
                            "object {o}: trace shrank"
                        );
                        last_trace_len[o as usize] = trace.len();
                    }

                    // Run-scoped counts partition the total on one pin...
                    // modulo racing appends between the two queries, scoped
                    // counts can only lag the merged one, never exceed it.
                    let all = repo.counts(RunScope::All).trajectories;
                    let scoped: usize = (0..PRODUCERS)
                        .map(|r| repo.counts(RunId(r).into()).trajectories)
                        .sum();
                    assert!(scoped >= all, "scoped sum {scoped} lost rows vs {all}");
                    rounds += 1;
                }
                rounds
            }));
        }

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let repo = Arc::clone(&repo);
                scope.spawn(move || {
                    for b in 0..BATCHES_PER_OBJECT {
                        for k in 0..OBJECTS_PER_PRODUCER {
                            let o = p * OBJECTS_PER_PRODUCER + k;
                            let t0 = b * ROWS_PER_BATCH * 10;
                            let batch: Vec<TrajectorySample> = (0..ROWS_PER_BATCH)
                                .map(|i| sample(o, t0 + i * 10))
                                .collect();
                            repo.accept_run(RunId(p), ProductBatch::Trajectories(batch));
                        }
                        // Pace the ingest so the readers run between the
                        // producers' seals and compactions, not just after
                        // the last one.
                        std::thread::sleep(std::time::Duration::from_micros(300));
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            let rounds = r.join().unwrap();
            assert!(rounds > 0);
        }
    });

    // Final state: complete streams, appends actually sealed.
    let rows = (objects as u64 * BATCHES_PER_OBJECT * ROWS_PER_BATCH) as usize;
    assert_eq!(repo.counts(RunScope::All).trajectories, rows);
    for o in 0..objects {
        assert_eq!(
            repo.trajectories()
                .of_object(RunScope::All, ObjectId(o))
                .unwrap(),
            full_stream(o)
        );
    }
    let stats = repo.stats();
    assert!(stats.seals > 0, "appends never sealed: {stats:?}");
    repo.seal_now();
    repo.seal_now();
    assert_eq!(repo.stats().unsealed_segments, 0);
    assert_eq!(repo.counts(RunScope::All).trajectories, rows);
}
