//! Method accuracy study (a preview of experiment E3): generate one shared
//! workload, run all four positioning pipelines over the same raw RSSI
//! data, and print the error statistics side by side.
//!
//! The expected shape: fingerprinting (which learned the
//! wall-attenuated signal landscape during its site survey) beats naive
//! trilateration in the wall-heavy office; proximity error is bounded by
//! device spacing.
//!
//! Run with: `cargo run --release --example accuracy_study`

#![expect(clippy::print_stdout, reason = "examples narrate to stdout by design")]

use vita_core::prelude::*;
use vita_positioning::{evaluate_fixes, evaluate_prob_fixes, evaluate_proximity};

fn main() {
    let text = vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(1)));
    let mut vita = Vita::from_dbi_text(&text, &BuildParams::default()).expect("DBI");
    vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::WiFi),
        FloorId(0),
        DeploymentModel::Coverage,
        14,
    );

    let mobility = MobilityConfig {
        object_count: 20,
        duration: Timestamp(180_000),
        lifespan: LifespanConfig {
            min: Timestamp(180_000),
            max: Timestamp(180_000),
        },
        trajectory_hz: Hz(2.0),
        seed: 99,
        ..Default::default()
    };
    vita.generate_objects(&mobility).expect("objects");
    vita.generate_rssi(&RssiConfig {
        duration: Timestamp(180_000),
        ..Default::default()
    })
    .expect("rssi");
    println!(
        "workload: {} objects, {} trajectory samples, {} RSSI measurements, 14 Wi-Fi APs\n",
        20,
        vita.generation().unwrap().stats.samples,
        vita.rssi().unwrap().len()
    );

    let methods: Vec<(&str, MethodConfig)> = vec![
        (
            "trilateration",
            MethodConfig::Trilateration {
                config: TrilaterationConfig::default(),
                conversion_model: PathLossModel::default(),
            },
        ),
        (
            "fingerprint-knn",
            MethodConfig::FingerprintingKnn {
                survey: SurveyConfig::default(),
                online: FingerprintConfig::default(),
                floor: FloorId(0),
            },
        ),
        (
            "fingerprint-bayes",
            MethodConfig::FingerprintingBayes {
                survey: SurveyConfig::default(),
                online: FingerprintConfig::default(),
                floor: FloorId(0),
            },
        ),
        (
            "proximity",
            MethodConfig::Proximity(ProximityConfig::default()),
        ),
    ];

    println!(
        "{:<18} error statistics (vs preserved ground truth)",
        "method"
    );
    println!("{:-<18} {:-<60}", "", "");
    for (name, method) in methods {
        let data = vita.run_positioning(&method).expect(name);
        let truth = &vita.generation().unwrap().trajectories;
        let stats = match &data {
            PositioningData::Deterministic(f) => evaluate_fixes(f, truth),
            PositioningData::Probabilistic(p) => evaluate_prob_fixes(p, truth),
            PositioningData::Proximity(r) => evaluate_proximity(r, vita.devices(), truth),
        };
        println!("{name:<18} {stats}");
    }
}
