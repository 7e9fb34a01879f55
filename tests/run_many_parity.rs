//! Multi-scenario concurrency parity (the PR-4 acceptance test): four
//! scenarios scheduled concurrently through one `Vita` by
//! [`Vita::run_many`] must leave, **per run**, fix / proximity / RSSI /
//! trajectory row sets bit-identical to running each scenario alone with
//! [`Vita::run_streaming_as`] at the same run id — on both the single and
//! the segmented storage backend.
//!
//! This holds because every run's RNG streams are derived from
//! `(base seed, run id)` (`derive_run_seed`) and every product is derived
//! per trajectory chunk, so nothing depends on how the shared stage-worker
//! pool interleaves the runs.

use vita_core::prelude::*;

fn toolkit() -> Vita {
    let text = vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(2)));
    let mut vita = Vita::from_dbi_text(&text, &BuildParams::default()).unwrap();
    let placed = vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::WiFi),
        FloorId(0),
        DeploymentModel::Coverage,
        10,
    );
    assert_eq!(placed, 10);
    vita
}

fn mobility(objects: usize, seed: u64) -> MobilityConfig {
    MobilityConfig {
        object_count: objects,
        duration: Timestamp(40_000),
        lifespan: LifespanConfig {
            min: Timestamp(30_000),
            max: Timestamp(40_000),
        },
        seed,
        ..Default::default()
    }
}

/// Four scenarios: same environment and devices, different seeds, object
/// counts and positioning methods (all three method families are legal on
/// Wi-Fi, paper §5) — filling both the fix and the proximity table.
fn scenarios(backend: StorageBackend) -> Vec<ScenarioConfig> {
    let options = StreamOptions {
        workers: 4,
        backend,
        ..Default::default()
    };
    let rssi = RssiConfig {
        duration: Timestamp(40_000),
        ..Default::default()
    };
    vec![
        ScenarioConfig {
            mobility: mobility(10, 0xA11CE),
            rssi,
            method: MethodConfig::Trilateration {
                config: TrilaterationConfig::default(),
                conversion_model: PathLossModel::default(),
            },
            options: options.clone(),
        },
        ScenarioConfig {
            mobility: mobility(7, 0xB0B),
            rssi,
            method: MethodConfig::Trilateration {
                config: TrilaterationConfig::default(),
                conversion_model: PathLossModel::default(),
            },
            options: options.clone(),
        },
        ScenarioConfig {
            mobility: mobility(8, 0xCAFE),
            rssi,
            method: MethodConfig::Proximity(ProximityConfig::default()),
            options: options.clone(),
        },
        ScenarioConfig {
            mobility: mobility(6, 0xD00D),
            rssi,
            method: MethodConfig::FingerprintingBayes {
                survey: SurveyConfig::default(),
                online: FingerprintConfig::default(),
                floor: FloorId(0),
            },
            options,
        },
    ]
}

fn sorted_fixes(mut fixes: Vec<vita_positioning::Fix>) -> Vec<vita_positioning::Fix> {
    fixes.sort_by(|a, b| {
        (a.t, a.object).cmp(&(b.t, b.object)).then_with(|| {
            match (a.loc.as_point(), b.loc.as_point()) {
                (Some(p), Some(q)) => {
                    (p.x.to_bits(), p.y.to_bits()).cmp(&(q.x.to_bits(), q.y.to_bits()))
                }
                _ => std::cmp::Ordering::Equal,
            }
        })
    });
    fixes
}

fn sorted_prox(
    mut rows: Vec<vita_positioning::ProximityRecord>,
) -> Vec<vita_positioning::ProximityRecord> {
    rows.sort_by_key(|r| (r.ts, r.object, r.device, r.te));
    rows
}

fn sorted_rssi(mut rows: Vec<vita_rssi::RssiMeasurement>) -> Vec<vita_rssi::RssiMeasurement> {
    rows.sort_by_key(|m| (m.t, m.object, m.device, m.rssi.to_bits()));
    rows
}

fn sorted_samples(
    mut rows: Vec<vita_mobility::TrajectorySample>,
) -> Vec<vita_mobility::TrajectorySample> {
    rows.sort_by_key(|s| {
        let p = s.point();
        (s.t, s.object, p.x.to_bits(), p.y.to_bits())
    });
    rows
}

fn concurrent_matches_sequential_on(backend: StorageBackend) {
    let scenarios = scenarios(backend);

    // Concurrent: all four runs through one toolkit / one repository.
    let mut concurrent = toolkit();
    let reports = concurrent.run_many(&scenarios).unwrap();
    assert_eq!(reports.len(), 4);
    let repo = concurrent.repository();
    assert_eq!(
        repo.run_ids(),
        (0..4).map(|i| RunId(i as u32)).collect::<Vec<_>>()
    );

    let mut total = TableCounts::default();
    for (i, scenario) in scenarios.iter().enumerate() {
        let run = RunId(i as u32);
        assert_eq!(reports[i].run, run);

        // Solo: a fresh, identically-built toolkit running only this
        // scenario under the same run id.
        let mut alone = toolkit();
        let solo_report = alone.run_streaming_as(run, scenario).unwrap();
        assert_eq!(solo_report.stats.samples, reports[i].stats.samples);
        assert_eq!(solo_report.rssi_rows, reports[i].rssi_rows);
        assert_eq!(solo_report.positioning_rows, reports[i].positioning_rows);

        // Row sets, bit-identical per product.
        assert_eq!(
            sorted_samples(repo.trajectories(run.into())),
            sorted_samples(alone.repository().trajectories(RunScope::All)),
            "run {i}: trajectory rows differ"
        );
        assert_eq!(
            sorted_rssi(repo.rssi(run.into())),
            sorted_rssi(alone.repository().rssi(RunScope::All)),
            "run {i}: rssi rows differ"
        );
        assert_eq!(
            sorted_fixes(repo.fixes(run.into())),
            sorted_fixes(alone.repository().fixes(RunScope::All)),
            "run {i}: fix rows differ"
        );
        assert_eq!(
            sorted_prox(repo.proximity(run.into())),
            sorted_prox(alone.repository().proximity(RunScope::All)),
            "run {i}: proximity rows differ"
        );

        total = total + repo.counts(run.into());
    }
    // Per-run counts partition the shared repository exactly.
    assert_eq!(repo.counts(RunScope::All), total);
    // Something non-trivial actually landed in both positioning tables.
    assert!(total.fixes > 0, "no fixes stored");
    assert!(total.proximity > 0, "no proximity records stored");
}

#[test]
fn run_many_matches_sequential_on_single_backend() {
    concurrent_matches_sequential_on(StorageBackend::Single);
}

#[test]
fn run_many_matches_sequential_on_segmented_backend() {
    concurrent_matches_sequential_on(StorageBackend::segmented());
}

#[test]
fn run_streaming_is_run_zero_of_run_many() {
    // One-scenario run_many and plain run_streaming are the same run
    // (RunId::DEFAULT) with the same derived seeds: bit-identical outputs.
    let scenario = scenarios(StorageBackend::Single).remove(0);
    let mut many = toolkit();
    many.run_many(std::slice::from_ref(&scenario)).unwrap();
    let mut solo = toolkit();
    solo.run_streaming(&scenario).unwrap();
    assert_eq!(
        sorted_fixes(many.repository().fixes(RunScope::All)),
        sorted_fixes(solo.repository().fixes(RunScope::All))
    );
    assert_eq!(
        many.repository().counts(RunScope::All),
        solo.repository().counts(RunScope::All)
    );
    assert_eq!(many.repository().run_ids(), vec![RunId::DEFAULT]);
}
