//! The per-device wall index the RSSI generator counts crossings with,
//! against brute force on the E11 office: both floors, each deployed
//! access point as origin, probed densely and at the points where an
//! angular or distance cut-off would go wrong first.

use vita_dbi::{office, SynthParams};
use vita_devices::{deploy, DeploymentModel, DeviceRegistry, DeviceSpec, DeviceType};
use vita_geometry::{count_crossings, Point, Segment, SightIndex};
use vita_indoor::{build_environment, BuildParams, FloorId};

/// Probe points for one origin on a floor with `walls`.
fn probes(origin: Point, walls: &[Segment]) -> Vec<Point> {
    let mut points = vec![origin];
    for w in walls {
        // Endpoints, midpoint, and points on the wall's line inside and
        // beyond it (collinear with the wall).
        for t in [-1.0, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0] {
            points.push(w.at(t));
        }
        // Just beyond the wall, on the ray from the origin through its
        // midpoint and through each endpoint.
        for p in [w.midpoint(), w.a, w.b] {
            let d = origin.to(p);
            if let Some(u) = d.normalized() {
                points.push(p + u * 0.05);
                points.push(p + u * 0.6);
            }
        }
    }
    // Directions at every 1/128 of the pseudo-angle's quarter turn, which
    // include every bin boundary of an index with up to 512 bins (the axes
    // and diagonals among them), out to beyond detection range.
    for k in 0..128 {
        let r = f64::from(k) / 128.0;
        for (dx, dy) in [(1.0 - r, r), (-r, 1.0 - r), (r - 1.0, -r), (r, r - 1.0)] {
            for step in 1..=16 {
                let s = f64::from(step) * 2.5;
                points.push(Point::new(origin.x + dx * s, origin.y + dy * s));
            }
        }
    }
    // A dense sweep of the floor's extent.
    let (lo, hi) = walls.iter().flat_map(|w| [w.a, w.b]).fold(
        (
            Point::new(f64::MAX, f64::MAX),
            Point::new(f64::MIN, f64::MIN),
        ),
        |(lo, hi), p| {
            (
                Point::new(lo.x.min(p.x), lo.y.min(p.y)),
                Point::new(hi.x.max(p.x), hi.y.max(p.y)),
            )
        },
    );
    let step = 0.25;
    let (nx, ny) = (
        ((hi.x - lo.x) / step) as usize,
        ((hi.y - lo.y) / step) as usize,
    );
    for i in 0..=nx {
        for j in 0..=ny {
            points.push(Point::new(lo.x + i as f64 * step, lo.y + j as f64 * step));
        }
    }
    points
}

#[test]
fn index_matches_brute_force_on_the_e11_office() {
    let model = office(&SynthParams::with_floors(2));
    let env = build_environment(&model, &BuildParams::default())
        .unwrap()
        .env;
    let mut reg = DeviceRegistry::new();
    for floor in [FloorId(0), FloorId(1)] {
        let spec = DeviceSpec::default_for(DeviceType::WiFi);
        deploy(&env, &mut reg, spec, floor, DeploymentModel::Coverage, 10);
    }
    assert_eq!(reg.len(), 20);
    let mut crossed = 0usize;
    for device in reg.devices() {
        let walls = env.walls_with_obstacles(device.floor);
        let index = SightIndex::new(device.position, &walls);
        for p in probes(device.position, &walls) {
            let expected = count_crossings(device.position, p, &walls);
            assert_eq!(
                index.count_crossings(p, device.position.dist(p)),
                expected,
                "device {:?} at {:?}, point {p:?}",
                device.id,
                device.position
            );
            crossed += expected;
        }
    }
    assert!(crossed > 0, "no probe crosses a wall");
}
