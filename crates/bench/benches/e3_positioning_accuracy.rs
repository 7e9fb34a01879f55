//! E3 — Positioning method runtime on the shared workload (the accuracy
//! table itself is printed by `cargo run --release -p vita-bench --bin
//! experiments e3`).

use criterion::{criterion_group, criterion_main, Criterion};
use vita_bench::standard_workload;
use vita_indoor::FloorId;
use vita_positioning::{
    build_radio_map, default_conversion, knn_fingerprint, naive_bayes_fingerprint,
    proximity_records, trilaterate, FingerprintConfig, ProximityConfig, SurveyConfig,
    TrilaterationConfig,
};
use vita_rssi::PathLossModel;

fn bench_methods(c: &mut Criterion) {
    let w = standard_workload(30, 12, 60, 2.0);
    let mut g = c.benchmark_group("e3/method_runtime");
    g.sample_size(10);

    let conv = default_conversion(PathLossModel::default());
    g.bench_function("trilateration", |b| {
        b.iter(|| trilaterate(&w.devices, &w.rssi, &TrilaterationConfig::default(), &conv));
    });

    let map = build_radio_map(&w.env, &w.devices, FloorId(0), &SurveyConfig::default());
    g.bench_function("fingerprint_knn_online", |b| {
        b.iter(|| knn_fingerprint(&map, &w.rssi, &FingerprintConfig::default()));
    });
    g.bench_function("fingerprint_bayes_online", |b| {
        b.iter(|| naive_bayes_fingerprint(&map, &w.rssi, &FingerprintConfig::default()));
    });
    g.bench_function("fingerprint_offline_survey", |b| {
        b.iter(|| build_radio_map(&w.env, &w.devices, FloorId(0), &SurveyConfig::default()));
    });
    g.bench_function("proximity", |b| {
        b.iter(|| proximity_records(&w.devices, &w.rssi, &ProximityConfig::default()));
    });
    g.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
