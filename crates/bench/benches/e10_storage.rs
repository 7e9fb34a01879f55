//! E10 — Storage: insert throughput and query latency (time window, object
//! trace, snapshot, spatial kNN) vs table size on the indexed engine, the
//! segmented trajectory table, plus codec throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vita_geometry::Point;
use vita_indoor::{BuildingId, FloorId, ObjectId, RunId, Timestamp};
use vita_mobility::TrajectorySample;
use vita_storage::{
    decode_runs, encode_runs, ProductBatch, ProductSink, RunScope, SegmentedRepository,
};

/// Rows per `accept_run` batch: the pipeline's hundreds-to-thousands.
const BATCH: usize = 1_000;

fn make_samples(n: usize) -> Vec<TrajectorySample> {
    (0..n)
        .map(|i| {
            TrajectorySample::new(
                ObjectId((i % 100) as u32),
                BuildingId(0),
                FloorId(0),
                Point::new((i % 420) as f64 / 10.0, (i % 160) as f64 / 10.0),
                Timestamp(i as u64 * 7),
            )
        })
        .collect()
}

/// `samples` ingested as `accept_run` batches, then sealed.
fn ingest(samples: &[TrajectorySample]) -> SegmentedRepository {
    let repo = SegmentedRepository::new();
    for batch in samples.chunks(BATCH) {
        repo.accept_run(RunId::DEFAULT, ProductBatch::Trajectories(batch.to_vec()));
    }
    repo.seal_now();
    repo
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10/insert");
    g.sample_size(10);
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let samples = make_samples(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ingest(&samples));
        });
    }
    g.finish();
}

fn bench_queries(c: &mut Criterion) {
    let repo = ingest(&make_samples(200_000));
    // Every query runs untimed in the shim's warm-up iterations first, so
    // the object and spatial indexes they read are built before timing.
    let mut g = c.benchmark_group("e10/query");
    g.sample_size(20);
    g.bench_function("time_window_1pct", |b| {
        b.iter(|| {
            repo.trajectories()
                .time_window(RunScope::All, Timestamp(100_000), Timestamp(114_000))
                .unwrap()
        });
    });
    g.bench_function("object_trace", |b| {
        b.iter(|| {
            repo.trajectories()
                .of_object(RunScope::All, ObjectId(42))
                .unwrap()
        });
    });
    g.bench_function("snapshot", |b| {
        b.iter(|| {
            repo.trajectories()
                .snapshot_at(RunScope::All, Timestamp(700_000))
                .unwrap()
        });
    });
    g.finish();

    let mut g = c.benchmark_group("e10/knn");
    g.sample_size(20);
    g.bench_function("knn10", |b| {
        b.iter(|| {
            repo.trajectories()
                .knn(RunScope::All, FloorId(0), Point::new(20.0, 8.0), 10)
                .unwrap()
                .len()
        });
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let samples = make_samples(100_000);
    let sections = [(RunId::DEFAULT, samples.as_slice())];
    let encoded = encode_runs(&sections);
    let mut g = c.benchmark_group("e10/codec");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_100k", |b| {
        b.iter(|| encode_runs(&sections));
    });
    g.bench_function("decode_100k", |b| {
        b.iter(|| decode_runs::<TrajectorySample>(&encoded).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench_insert, bench_queries, bench_codec);
criterion_main!(benches);
