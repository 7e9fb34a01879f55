//! Quickstart (experiment F1): one full pass through the three-layer
//! pipeline of paper Fig. 1, printing the five data products' counts.
//!
//! ```text
//! DBI file ─▶ Infrastructure Layer ─▶ environment + device data
//!                    │
//!                    ▼
//!           Moving Object Layer  ─▶ raw trajectory data
//!                    │
//!                    ▼
//!           Positioning Layer    ─▶ raw RSSI data ─▶ positioning data
//! ```
//!
//! Run with: `cargo run --example quickstart`

#![expect(clippy::print_stdout, reason = "examples narrate to stdout by design")]

use vita_core::prelude::*;

fn main() {
    // ── Interface: DBI Processor ────────────────────────────────────────
    // A synthetic office building, written to real STEP text and parsed
    // back through the full DBI pipeline (parser → decoder → repair).
    let dbi_text = vita_dbi::write_step(&vita_dbi::office(&SynthParams::with_floors(2)));
    let mut vita =
        Vita::from_dbi_text(&dbi_text, &BuildParams::default()).expect("DBI processing failed");
    println!("── Infrastructure Layer ──────────────────────────────");
    println!("host environment : {}", vita.env().summary());
    for w in &vita.warnings {
        println!("  warning: {w}");
    }

    // ── Infrastructure Layer: positioning devices ───────────────────────
    let placed = vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::WiFi),
        FloorId(0),
        DeploymentModel::Coverage,
        10,
    ) + vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::WiFi),
        FloorId(1),
        DeploymentModel::CheckPoint,
        10,
    );
    println!("device data      : {placed} Wi-Fi devices (coverage on F0, check-point on F1)");

    // ── Moving Object Layer ─────────────────────────────────────────────
    let mobility = MobilityConfig {
        object_count: 40,
        duration: Timestamp(120_000), // 2 minutes
        lifespan: LifespanConfig {
            min: Timestamp(60_000),
            max: Timestamp(120_000),
        },
        trajectory_hz: Hz(2.0), // fine-grained ground truth
        seed: 2016,
        ..Default::default()
    };
    let gen = vita.generate_objects(&mobility).expect("generation failed");
    println!("── Moving Object Layer ───────────────────────────────");
    println!(
        "raw trajectories : {} objects, {} samples, {:.0} m walked",
        gen.stats.objects, gen.stats.samples, gen.stats.total_walked_m
    );

    // ── Positioning Layer: raw RSSI ─────────────────────────────────────
    let rssi_cfg = RssiConfig {
        duration: Timestamp(120_000),
        ..Default::default()
    };
    let rssi = vita
        .generate_rssi(&rssi_cfg)
        .expect("RSSI generation failed");
    println!("── Positioning Layer ─────────────────────────────────");
    println!("raw RSSI data    : {} measurements", rssi.len());

    // ── Positioning Layer: positioning data (trilateration) ─────────────
    let method = MethodConfig::Trilateration {
        config: TrilaterationConfig::default(),
        conversion_model: PathLossModel::default(),
    };
    let data = vita.run_positioning(&method).expect("positioning failed");
    println!("positioning data : {} fixes ({})", data.len(), data.kind());

    // ── Ground-truth evaluation (the toolkit's second purpose, §1) ───────
    if let PositioningData::Deterministic(fixes) = &data {
        let truth = &vita.generation().unwrap().trajectories;
        let stats = vita_positioning::evaluate_fixes(fixes, truth);
        println!("accuracy vs truth: {stats}");
    }

    // ── Storage ──────────────────────────────────────────────────────────
    let c = vita.repository().counts(RunScope::All);
    println!("── Storage ───────────────────────────────────────────");
    println!(
        "repositories     : trajectories={} rssi={} fixes={} proximity={}",
        c.trajectories, c.rssi, c.fixes, c.proximity
    );
}
