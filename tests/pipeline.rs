//! Integration test F2: the full system architecture of paper Fig. 2,
//! exercised across crates — Interface (DBI Processor + Configuration
//! Loader) → Producer (three layers) → Storage.

use vita_core::prelude::*;
use vita_core::{load_method, load_mobility, load_rssi, Properties};

fn office_text(floors: usize) -> String {
    vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(floors)))
}

#[test]
fn all_controllers_cooperate_end_to_end() {
    // Interface: DBI Processor.
    let mut vita = Vita::from_dbi_text(&office_text(2), &BuildParams::default()).unwrap();
    let summary = vita.env().summary();
    assert_eq!(summary.floors, 2);
    assert!(summary.partitions > 20);
    assert_eq!(summary.stairs, 1);

    // Interface: Configuration Loader (properties text → typed configs).
    let props = Properties::parse(
        "\
objects.count = 15
objects.lifespan_min_s = 60
objects.lifespan_max_s = 60
trajectory.hz = 2
run.duration_s = 60
run.seed = 7
positioning.method = trilateration
positioning.hz = 1
",
    )
    .unwrap();
    let mobility = load_mobility(&props).unwrap();
    let rssi_cfg = load_rssi(&props).unwrap();
    let method = load_method(&props).unwrap();

    // Producer: Infrastructure Layer (devices).
    let placed = vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::WiFi),
        FloorId(0),
        DeploymentModel::Coverage,
        10,
    );
    assert_eq!(placed, 10);

    // Producer: Moving Object Layer.
    let stats = vita.generate_objects(&mobility).unwrap().stats;
    assert_eq!(stats.objects, 15);
    assert!(
        stats.samples >= 15 * 60 * 2,
        "2 Hz × 60 s × 15 objects lower bound"
    );

    // Producer: Positioning Layer.
    let rssi_len = vita.generate_rssi(&rssi_cfg).unwrap().len();
    assert!(rssi_len > 1000);
    let data = vita.run_positioning(&method).unwrap();
    assert!(!data.is_empty());

    // Storage: all four repositories consistent.
    let c = vita.repository().counts(RunScope::All);
    assert_eq!(c.trajectories, stats.samples);
    assert_eq!(c.rssi, rssi_len);
    assert_eq!(c.fixes, data.len());
    assert_eq!(c.proximity, 0);

    // Storage round-trip (export/import).
    let export = vita.repository().export();
    let restored = vita_storage::Repository::new();
    export.ingest_into(&restored).unwrap();
    assert_eq!(
        restored.counts(RunScope::All),
        vita.repository().counts(RunScope::All)
    );
}

#[test]
fn pipeline_is_deterministic_across_runs() {
    let run = || {
        let mut vita = Vita::from_dbi_text(&office_text(1), &BuildParams::default()).unwrap();
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        let mobility = MobilityConfig {
            object_count: 10,
            duration: Timestamp(45_000),
            lifespan: LifespanConfig {
                min: Timestamp(45_000),
                max: Timestamp(45_000),
            },
            seed: 1234,
            ..Default::default()
        };
        vita.generate_objects(&mobility).unwrap();
        vita.generate_rssi(&RssiConfig {
            duration: Timestamp(45_000),
            ..Default::default()
        })
        .unwrap();
        let data = vita
            .run_positioning(&MethodConfig::Trilateration {
                config: TrilaterationConfig::default(),
                conversion_model: PathLossModel::default(),
            })
            .unwrap();
        let fixes = match data {
            PositioningData::Deterministic(f) => f,
            _ => unreachable!(),
        };
        (vita.repository().counts(RunScope::All), fixes)
    };
    let (counts_a, fixes_a) = run();
    let (counts_b, fixes_b) = run();
    assert_eq!(counts_a, counts_b);
    assert_eq!(fixes_a.len(), fixes_b.len());
    for (a, b) in fixes_a.iter().zip(&fixes_b) {
        assert_eq!(a.object, b.object);
        assert_eq!(a.t, b.t);
        assert!(a
            .loc
            .as_point()
            .unwrap()
            .approx_eq(b.loc.as_point().unwrap()));
    }
}

#[test]
fn all_three_buildings_flow_through_the_pipeline() {
    let params = SynthParams::with_floors(2);
    for (name, model) in [
        ("office", vita_dbi::office(&params)),
        ("mall", vita_dbi::mall(&params)),
        ("clinic", vita_dbi::clinic(&params)),
    ] {
        let text = vita_dbi::write_step(&model);
        let mut vita = Vita::from_dbi_text(&text, &BuildParams::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::Rfid),
            FloorId(0),
            DeploymentModel::CheckPoint,
            8,
        );
        let mobility = MobilityConfig {
            object_count: 8,
            duration: Timestamp(30_000),
            lifespan: LifespanConfig {
                min: Timestamp(30_000),
                max: Timestamp(30_000),
            },
            seed: 5,
            ..Default::default()
        };
        vita.generate_objects(&mobility)
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        vita.generate_rssi(&RssiConfig {
            duration: Timestamp(30_000),
            ..Default::default()
        })
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let data = vita
            .run_positioning(&MethodConfig::Proximity(ProximityConfig::default()))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!data.is_empty(), "{name}: no proximity data");
    }
}

#[test]
fn renderers_cover_every_floor_of_every_building() {
    let params = SynthParams::with_floors(2);
    for model in [
        vita_dbi::office(&params),
        vita_dbi::mall(&params),
        vita_dbi::clinic(&params),
    ] {
        let text = vita_dbi::write_step(&model);
        let vita = Vita::from_dbi_text(&text, &BuildParams::default()).unwrap();
        for fi in 0..vita.env().floors().len() {
            let floor = FloorId(fi as u32);
            let ascii = vita_core::ascii_floor(vita.env(), floor, 80, &Overlay::default());
            assert!(ascii.contains('#'));
            let svg = vita_core::svg_floor(vita.env(), floor, 8.0, &Overlay::default());
            assert!(svg.contains("<polygon"));
        }
    }
}

#[test]
fn environment_customization_affects_generation() {
    // Deploying a large obstacle across the corridor forces walls into the
    // RSSI path: measurements through it get weaker.
    let text = office_text(1);
    let build = BuildParams::default();

    let run_rssi = |with_obstacle: bool| -> f64 {
        let mut vita = Vita::from_dbi_text(&text, &build).unwrap();
        if with_obstacle {
            vita.env_mut().deploy_obstacle(
                FloorId(0),
                vita_geometry::Polygon::rect(18.0, 6.5, 22.0, 9.5),
                10.0,
            );
        }
        vita.deploy_devices(
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        let mobility = MobilityConfig {
            object_count: 10,
            duration: Timestamp(30_000),
            lifespan: LifespanConfig {
                min: Timestamp(30_000),
                max: Timestamp(30_000),
            },
            seed: 9,
            ..Default::default()
        };
        vita.generate_objects(&mobility).unwrap();
        let rssi = vita
            .generate_rssi(&RssiConfig {
                duration: Timestamp(30_000),
                path_loss: PathLossModel {
                    fluctuation: NoiseModel::None,
                    ..Default::default()
                },
                ..Default::default()
            })
            .unwrap();
        rssi.all().iter().map(|m| m.rssi).sum::<f64>() / rssi.len() as f64
    };

    let clear = run_rssi(false);
    let blocked = run_rssi(true);
    assert!(
        blocked < clear,
        "obstacle should lower mean RSSI: clear {clear:.2}, blocked {blocked:.2}"
    );
}
