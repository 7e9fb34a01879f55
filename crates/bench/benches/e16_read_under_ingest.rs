//! E16 — read latency under live ingestion, micro-bench form: one
//! `QueryService::execute` over a pre-populated multi-run segmented
//! repository while a writer thread keeps appending batches. Every query
//! answers from an epoch-pinned snapshot and never blocks on the writer.
//! The macro companion (offered-rate step with `run_many` ingesting through
//! the whole pipeline) is experiment E16 in
//! `cargo run --release -p vita-bench --bin experiments`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use vita_geometry::Point;
use vita_indoor::{BuildingId, FloorId, ObjectId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_serve::{QueryRequest, QueryService, WorkloadSpec};
use vita_storage::{AnyRepository, ProductBatch, ProductSink, RunId, RunScope, StorageBackend};

const OBJECTS: u32 = 48;
const PRELOAD_PER_OBJECT: u64 = 256;
const T_MAX: u64 = PRELOAD_PER_OBJECT * 10;
const INGEST_BATCH: u64 = 64;

fn rows(o: u32, t0: u64, n: u64) -> Vec<TrajectorySample> {
    (0..n)
        .map(|i| {
            TrajectorySample::new(
                ObjectId(o),
                BuildingId(0),
                FloorId(o % 2),
                Point::new(((t0 + i * 10) % 400) as f64 / 10.0, (o % 160) as f64 / 10.0),
                Timestamp(t0 + i * 10),
            )
        })
        .collect()
}

fn populated() -> Arc<AnyRepository> {
    let repo = AnyRepository::new(StorageBackend::segmented());
    for o in 0..OBJECTS {
        repo.accept_run(
            RunId(0),
            ProductBatch::Trajectories(rows(o, 0, PRELOAD_PER_OBJECT)),
        );
    }
    Arc::new(repo)
}

fn bench_read_under_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("e16/read_under_ingest");
    g.sample_size(20);
    let repo = populated();
    let service = QueryService::new(Arc::clone(&repo));
    let spec = WorkloadSpec {
        scopes: vec![RunScope::All, RunId(0).into(), RunId(1).into()],
        objects: OBJECTS,
        floors: 2,
        t_max: T_MAX,
        window: T_MAX / 8,
        ..Default::default()
    };

    // A writer hammering appends for the whole measurement: paced just
    // enough that the repository grows steadily instead of exploding.
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let repo = Arc::clone(&repo);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut t0 = T_MAX;
            let mut o = 0u32;
            while !done.load(Ordering::Relaxed) {
                repo.accept_run(
                    RunId(1),
                    ProductBatch::Trajectories(rows(o, t0, INGEST_BATCH)),
                );
                o = (o + 1) % OBJECTS;
                if o == 0 {
                    t0 += INGEST_BATCH * 10;
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        })
    };

    g.bench_function("mixed_workload/segmented", |b| {
        let mut rng = spec.rng();
        b.iter(|| service.execute(&spec.sample(&mut rng)).len());
    });
    g.bench_function("time_window_all/segmented", |b| {
        let req = QueryRequest::TimeWindow {
            scope: RunScope::All,
            from: Timestamp(T_MAX / 4),
            to: Timestamp(T_MAX / 2),
        };
        b.iter(|| service.execute(&req).len());
    });

    done.store(true, Ordering::Relaxed);
    writer.join().expect("ingest thread");
    g.finish();
}

criterion_group!(benches, bench_read_under_ingest);
criterion_main!(benches);
