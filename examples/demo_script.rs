//! The six-step demonstration script of paper §5 (experiment D5), run over
//! all three building archetypes with the paper's device/method combos:
//!
//! * clinic  + **RFID + proximity**
//! * mall    + **Bluetooth + trilateration**
//! * office  + **Wi-Fi + fingerprinting** (both kNN and Naive Bayes)
//!
//! Each run follows the paper's common path: 1. import DBI → 2. view/modify
//! environment → 3. configure/generate devices → 4. configure/generate
//! moving objects → 5. configure/generate raw RSSI → 6. choose a positioning
//! method and generate positioning data. Configuration happens through
//! properties text, exactly like the paper's "generated properties file".
//!
//! Run with: `cargo run --example demo_script`

#![expect(clippy::print_stdout, reason = "examples narrate to stdout by design")]

use vita_core::prelude::*;
use vita_core::{load_method, load_mobility, load_rssi, Properties};
use vita_positioning::{evaluate_fixes, evaluate_prob_fixes, evaluate_proximity};

struct Combo {
    building: &'static str,
    device: DeviceType,
    deployment: DeploymentModel,
    method_props: &'static str,
}

fn main() {
    let combos = [
        Combo {
            building: "clinic",
            device: DeviceType::Rfid,
            deployment: DeploymentModel::CheckPoint,
            method_props: "positioning.method = proximity\n",
        },
        Combo {
            building: "mall",
            device: DeviceType::Bluetooth,
            deployment: DeploymentModel::Coverage,
            method_props: "positioning.method = trilateration\npositioning.hz = 1\n",
        },
        Combo {
            building: "office",
            device: DeviceType::WiFi,
            deployment: DeploymentModel::Coverage,
            method_props:
                "positioning.method = fingerprint-knn\nfingerprint.k = 3\npositioning.hz = 1\n",
        },
        Combo {
            building: "office",
            device: DeviceType::WiFi,
            deployment: DeploymentModel::Coverage,
            method_props: "positioning.method = fingerprint-bayes\npositioning.hz = 1\n",
        },
    ];

    // Shared generation configuration, through the Configuration Loader.
    let shared_props = Properties::parse(
        "\
objects.count = 25
objects.lifespan_min_s = 90
objects.lifespan_max_s = 90
trajectory.hz = 2
run.duration_s = 90
run.seed = 1453
rssi.noise = gaussian
rssi.noise_sigma = 2.0
",
    )
    .expect("shared properties");

    for combo in &combos {
        println!("══════════════════════════════════════════════════════════");
        println!(
            "step 1 ▸ import DBI: {} | combo: {} + {}",
            combo.building,
            combo.device.name(),
            Properties::parse(combo.method_props)
                .unwrap()
                .str_or("positioning.method", "?")
        );
        let model = match combo.building {
            "clinic" => vita_dbi::clinic(&SynthParams::with_floors(2)),
            "mall" => vita_dbi::mall(&SynthParams::with_floors(2)),
            _ => vita_dbi::office(&SynthParams::with_floors(2)),
        };
        let text = vita_dbi::write_step(&model);
        let mut vita = Vita::from_dbi_text(&text, &BuildParams::default()).expect("DBI");

        println!("step 2 ▸ environment: {}", vita.env().summary());
        // Customize: drop an obstacle into the largest ground-floor room.
        vita.env_mut().deploy_obstacle(
            FloorId(0),
            vita_geometry::Polygon::rect(1.0, 1.0, 2.0, 2.0),
            6.0,
        );

        let n = vita.deploy_devices(
            DeviceSpec::default_for(combo.device),
            FloorId(0),
            combo.deployment,
            12,
        );
        println!(
            "step 3 ▸ devices: {n} × {} ({:?})",
            combo.device.name(),
            combo.deployment
        );

        let mobility = load_mobility(&shared_props).expect("mobility config");
        let gen = vita.generate_objects(&mobility).expect("generation");
        println!(
            "step 4 ▸ objects: {} objects, {} trajectory samples",
            gen.stats.objects, gen.stats.samples
        );

        let rssi_cfg = load_rssi(&shared_props).expect("rssi config");
        let rssi = vita.generate_rssi(&rssi_cfg).expect("rssi");
        println!("step 5 ▸ raw RSSI: {} measurements", rssi.len());

        let method =
            load_method(&Properties::parse(combo.method_props).unwrap()).expect("method config");
        let data = vita.run_positioning(&method).expect("positioning");
        println!(
            "step 6 ▸ positioning data: {} records ({})",
            data.len(),
            data.kind()
        );

        let truth = &vita.generation().unwrap().trajectories;
        match &data {
            PositioningData::Deterministic(fixes) => {
                println!("         accuracy: {}", evaluate_fixes(fixes, truth));
            }
            PositioningData::Probabilistic(pfs) => {
                println!("         accuracy: {}", evaluate_prob_fixes(pfs, truth));
            }
            PositioningData::Proximity(recs) => {
                println!(
                    "         accuracy: {}",
                    evaluate_proximity(recs, vita.devices(), truth)
                );
            }
        }
    }
    println!("══════════════════════════════════════════════════════════");
    println!("demo script complete: 4 combos × 6 steps");
}
