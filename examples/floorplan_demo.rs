//! Floor-plan demo (experiments F3 + F4): regenerates the content of paper
//! Fig. 3 — a two-floor real-world-style building where
//!
//! * the **ground floor** carries devices deployed with the **coverage**
//!   model (wall-adjacent, maximally spread), and
//! * the **first floor** carries devices deployed with the **check-point**
//!   model (at room entrances / hotspots),
//!
//! with moving objects initialized by the **crowd-outliers** distribution
//! (crowds as circles, outliers as squares in the SVG — Fig. 3(b)).
//!
//! ASCII renderings go to stdout; SVG files are written next to the target
//! directory. Pass `--mall` or `--clinic` to switch buildings, `--svg-only`
//! to skip the ASCII art.
//!
//! Run with: `cargo run --example floorplan_demo`

#![expect(clippy::print_stdout, reason = "examples narrate to stdout by design")]
#![expect(
    clippy::disallowed_methods,
    reason = "example code: writes its SVGs under target/floorplans"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use vita_core::prelude::*;
use vita_core::{ascii_floor, svg_floor, Overlay};
use vita_mobility::initial_positions;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (name, model) = if args.iter().any(|a| a == "--mall") {
        ("mall", vita_dbi::mall(&SynthParams::with_floors(2)))
    } else if args.iter().any(|a| a == "--clinic") {
        ("clinic", vita_dbi::clinic(&SynthParams::with_floors(2)))
    } else {
        ("office", vita_dbi::office(&SynthParams::with_floors(2)))
    };
    let svg_only = args.iter().any(|a| a == "--svg-only");

    let text = vita_dbi::write_step(&model);
    let mut vita = Vita::from_dbi_text(&text, &BuildParams::default()).expect("DBI");
    println!(
        "building: {} — {}",
        vita.env().building_name,
        vita.env().summary()
    );

    // Ground floor: coverage model (Fig. 3(a)).
    vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::WiFi),
        FloorId(0),
        DeploymentModel::Coverage,
        10,
    );
    // First floor: check-point model (Fig. 3(b)).
    vita.deploy_devices(
        DeviceSpec::default_for(DeviceType::Bluetooth),
        FloorId(1),
        DeploymentModel::CheckPoint,
        10,
    );

    // Crowd-outliers objects, as in Fig. 3(b).
    let mut rng = StdRng::seed_from_u64(1453);
    let placement = initial_positions(
        vita.env(),
        InitialDistribution::CrowdOutliers {
            crowds: 3,
            crowd_fraction: 0.8,
            crowd_radius: 4.0,
        },
        120,
        &mut rng,
    );

    let out_dir = std::path::Path::new("target/floorplans");
    std::fs::create_dir_all(out_dir).expect("create output dir");

    for floor_ix in 0..vita.env().floors().len() {
        let floor = FloorId(floor_ix as u32);
        let overlay = Overlay {
            devices: vita.devices().on_floor(floor).map(|d| d.position).collect(),
            objects: placement
                .placements
                .iter()
                .filter(|p| p.floor == floor)
                .map(|p| (p.point, p.crowd))
                .collect(),
            trajectories: vec![],
        };
        let model_name = if floor_ix == 0 {
            "coverage"
        } else {
            "check-point"
        };
        if !svg_only {
            println!(
                "\n── floor {floor_ix} ({model_name} deployment) ─ devices:@ crowds:0-9 outliers:x\n"
            );
            print!("{}", ascii_floor(vita.env(), floor, 110, &overlay));
        }
        let svg = svg_floor(vita.env(), floor, 12.0, &overlay);
        let path = out_dir.join(format!("{name}_floor{floor_ix}.svg"));
        std::fs::write(&path, svg).expect("write svg");
        println!("wrote {}", path.display());
    }

    println!(
        "\ncrowd centers: {}",
        placement
            .crowd_centers
            .iter()
            .map(|(f, p)| format!("F{}:{}", f.0, p))
            .collect::<Vec<_>>()
            .join("  ")
    );
}
