//! E15 — query serving micro-bench: one `QueryService::execute` over a
//! pre-populated multi-run segmented repository, for the default query
//! mix and for the two extreme requests (cheap `Counts` vs scan-heavy
//! `TimeWindow`). Pure read path: ingestion happens once at setup, so the
//! measurement isolates dispatch + repository query cost. The ramped-load
//! companion (offered-rate steps under live ingestion) is experiment E15
//! in `cargo run --release -p vita-bench --bin experiments`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use vita_geometry::Point;
use vita_indoor::{BuildingId, FloorId, ObjectId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_serve::{QueryRequest, QueryService, WorkloadSpec};
use vita_storage::{AnyRepository, ProductBatch, ProductSink, RunId, RunScope, StorageBackend};

const RUNS: u32 = 3;
const OBJECTS: u32 = 64;
const SAMPLES_PER_OBJECT: u64 = 512;
const T_MAX: u64 = SAMPLES_PER_OBJECT * 10;

/// A multi-run segmented repository with `RUNS × OBJECTS ×
/// SAMPLES_PER_OBJECT` trajectory rows, time-ordered per object.
fn populated() -> Arc<AnyRepository> {
    let repo = AnyRepository::new(StorageBackend::segmented());
    for run in 0..RUNS {
        for o in 0..OBJECTS {
            let rows = (0..SAMPLES_PER_OBJECT)
                .map(|i| {
                    TrajectorySample::new(
                        ObjectId(o),
                        BuildingId(0),
                        FloorId(o % 2),
                        Point::new((i % 400) as f64 / 10.0, (o % 160) as f64 / 10.0),
                        Timestamp(i * 10),
                    )
                })
                .collect();
            repo.accept_run(RunId(run), ProductBatch::Trajectories(rows));
        }
    }
    // Measure the steady state: everything sealed, nothing left in the
    // unsealed tail.
    if let Some(s) = repo.as_segmented() {
        s.seal_now();
        s.seal_now();
    }
    Arc::new(repo)
}

fn bench_serving(c: &mut Criterion) {
    let mut g = c.benchmark_group("e15/query_serving");
    g.sample_size(20);
    let service = QueryService::new(populated());
    let spec = WorkloadSpec {
        scopes: vec![RunScope::All, RunId(0).into(), RunId(1).into()],
        objects: OBJECTS,
        floors: 2,
        t_max: T_MAX,
        window: T_MAX / 8,
        ..Default::default()
    };

    g.bench_function("mixed_workload/segmented", |b| {
        let mut rng = spec.rng();
        b.iter(|| service.execute(&spec.sample(&mut rng)).len());
    });
    g.bench_function("counts_all/segmented", |b| {
        let req = QueryRequest::Counts {
            scope: RunScope::All,
        };
        b.iter(|| service.execute(&req).len());
    });
    g.bench_function("time_window_all/segmented", |b| {
        let req = QueryRequest::TimeWindow {
            scope: RunScope::All,
            from: Timestamp(T_MAX / 4),
            to: Timestamp(T_MAX / 2),
        };
        b.iter(|| service.execute(&req).len());
    });
    g.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
