//! Cross-backend parity, pipeline level (mirrors `streaming_parity.rs`):
//! for a fixed seed, [`Vita::run_streaming`] must leave identical counts
//! and bit-identical fix / proximity sets behind whether it ingests into
//! the single [`vita_storage::Repository`] or a
//! [`vita_storage::SegmentedRepository`] — at ≥ 4 concurrent stage
//! workers, where the per-table lock of the single backend is actually
//! contended and the segmented backend's writers seal and compact as
//! they append.

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

fn scenario(method: MethodConfig, backend: StorageBackend) -> ScenarioConfig {
    ScenarioConfig {
        mobility: MobilityConfig {
            object_count: 14,
            duration: Timestamp(60_000),
            lifespan: LifespanConfig {
                min: Timestamp(40_000),
                max: Timestamp(60_000),
            },
            seed: 0x5EED3,
            ..Default::default()
        },
        rssi: RssiConfig {
            duration: Timestamp(60_000),
            ..Default::default()
        },
        method,
        options: StreamOptions {
            workers: 4,
            backend,
            ..Default::default()
        },
    }
}

/// Run the streaming pipeline into the given backend and return the vita.
fn run(method: MethodConfig, backend: StorageBackend) -> Vita {
    let mut vita = toolkit();
    vita.run_streaming(&scenario(method, backend)).unwrap();
    vita
}

fn sorted_fixes(vita: &Vita) -> Vec<vita_positioning::Fix> {
    let mut fixes = vita.repository().fixes(RunScope::All);
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

#[test]
fn segmented_matches_single_for_trilateration() {
    let method = || MethodConfig::Trilateration {
        config: TrilaterationConfig::default(),
        conversion_model: PathLossModel::default(),
    };
    let single = run(method(), StorageBackend::Single);
    let segmented = run(method(), StorageBackend::segmented());

    assert_eq!(
        segmented.repository().counts(RunScope::All),
        single.repository().counts(RunScope::All)
    );
    let a = sorted_fixes(&single);
    assert!(!a.is_empty());
    assert_eq!(
        sorted_fixes(&segmented),
        a,
        "fix sets differ across backends"
    );
}

#[test]
fn segmented_matches_single_for_proximity() {
    let method = || MethodConfig::Proximity(ProximityConfig::default());
    let single = run(method(), StorageBackend::Single);
    let segmented = run(method(), StorageBackend::segmented());

    assert_eq!(
        segmented.repository().counts(RunScope::All),
        single.repository().counts(RunScope::All)
    );
    let collect = |v: &Vita| {
        let mut r = v.repository().proximity(RunScope::All);
        r.sort_by_key(|r| (r.ts, r.object, r.device, r.te));
        r
    };
    let a = collect(&single);
    assert!(!a.is_empty());
    assert_eq!(
        collect(&segmented),
        a,
        "proximity sets differ across backends"
    );
}

#[test]
fn segmented_matches_single_for_probabilistic_fingerprinting() {
    let method = || MethodConfig::FingerprintingBayes {
        survey: SurveyConfig::default(),
        online: FingerprintConfig::default(),
        floor: FloorId(0),
    };
    let single = run(method(), StorageBackend::Single);
    let segmented = run(method(), StorageBackend::segmented());
    assert_eq!(
        segmented.repository().counts(RunScope::All),
        single.repository().counts(RunScope::All)
    );
    assert_eq!(sorted_fixes(&segmented), sorted_fixes(&single));
}

#[test]
fn switching_backends_repartitions_existing_rows() {
    let method = MethodConfig::Trilateration {
        config: TrilaterationConfig::default(),
        conversion_model: PathLossModel::default(),
    };
    let mut vita = run(method, StorageBackend::Single);
    let counts = vita.repository().counts(RunScope::All);
    let fixes = sorted_fixes(&vita);

    vita.migrate_backend(StorageBackend::segmented());
    assert_eq!(vita.repository().backend(), StorageBackend::segmented());
    assert_eq!(vita.repository().counts(RunScope::All), counts);
    assert_eq!(sorted_fixes(&vita), fixes);

    // And back again.
    vita.migrate_backend(StorageBackend::Single);
    assert_eq!(vita.repository().counts(RunScope::All), counts);
    assert_eq!(sorted_fixes(&vita), fixes);
}
