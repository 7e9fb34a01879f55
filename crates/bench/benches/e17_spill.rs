//! E17 — tiered-storage micro-costs: query latency when segments must be
//! paged in from disk vs served resident, and whole-repository export via
//! raw byte splice vs typed re-encode. The spilled repository keeps a
//! two-segment clock cache against a corpus of many segments, so cold
//! windows miss the cache on nearly every iteration; the resident twin
//! holds the identical rows decoded. Compare the groups pairwise — the
//! gap is the page-in tax the memory budget buys.

use criterion::{criterion_group, criterion_main, Criterion};
use vita_geometry::Point;
use vita_indoor::{BuildingId, FloorId, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_storage::{
    ProductBatch, ProductSink, RunScope, SegmentConfig, SegmentedRepository, SpillConfig,
};

const TOTAL_ROWS: usize = 64_000;
const SEAL_ROWS: usize = 4_000;
const BATCH: usize = 1_000;

fn make_batch(b: usize) -> Vec<TrajectorySample> {
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

fn fill(repo: &SegmentedRepository) {
    for b in 0..TOTAL_ROWS / BATCH {
        repo.accept_run(
            RunId((b % 3) as u32),
            ProductBatch::Trajectories(make_batch(b)),
        );
    }
    repo.seal_now();
    repo.seal_now();
}

/// The shared spill parent `StorageBackend::from_str` uses: each
/// repository spills into its own subdirectory and removes it on drop.
fn spill_dir() -> std::path::PathBuf {
    std::env::temp_dir().join("vita-spill")
}

fn spilled() -> SegmentedRepository {
    let repo = SegmentedRepository::with_spill(
        SegmentConfig {
            seal_rows: SEAL_ROWS,
            ..SegmentConfig::default()
        },
        SpillConfig {
            dir: spill_dir(),
            memory_budget_rows: SEAL_ROWS * 2,
            cache_segments: 2,
        },
    );
    fill(&repo);
    assert!(repo.stats().spilled_rows > 0);
    repo
}

fn resident() -> SegmentedRepository {
    let repo = SegmentedRepository::with_spill(
        SegmentConfig {
            seal_rows: SEAL_ROWS,
            ..SegmentConfig::default()
        },
        SpillConfig {
            dir: spill_dir(),
            memory_budget_rows: usize::MAX,
            cache_segments: 2,
        },
    );
    fill(&repo);
    assert_eq!(repo.stats().spilled_rows, 0);
    repo
}

fn bench_page_in(c: &mut Criterion) {
    let cold = spilled();
    let warm = resident();
    // Rotating cold windows so successive iterations touch different
    // segments and the two-slot cache keeps missing.
    let windows: Vec<(Timestamp, Timestamp)> = (0..8)
        .map(|i| {
            let from = (i * TOTAL_ROWS / 8) as u64;
            (Timestamp(from), Timestamp(from + SEAL_ROWS as u64))
        })
        .collect();

    let mut g = c.benchmark_group("e17/time_window_cold");
    g.sample_size(20);
    for (name, repo) in [("spilled", &cold), ("resident", &warm)] {
        let mut i = 0usize;
        g.bench_function(name, |b| {
            b.iter(|| {
                let (from, to) = windows[i % windows.len()];
                i += 1;
                repo.trajectories()
                    .time_window(RunScope::All, from, to)
                    .unwrap()
                    .len()
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("e17/counts_metadata_only");
    g.sample_size(20);
    for (name, repo) in [("spilled", &cold), ("resident", &warm)] {
        g.bench_function(name, |b| {
            b.iter(|| repo.counts(RunScope::All).trajectories);
        });
    }
    g.finish();
}

fn bench_export(c: &mut Criterion) {
    let cold = spilled();
    let mut g = c.benchmark_group("e17/export");
    g.sample_size(10);
    g.bench_function("raw_splice", |b| {
        b.iter(|| cold.export().unwrap().trajectories.len());
    });
    g.bench_function("typed_reencode", |b| {
        b.iter(|| cold.export_reencode().unwrap().trajectories.len());
    });
    g.finish();
}

criterion_group!(benches, bench_page_in, bench_export);
criterion_main!(benches);
