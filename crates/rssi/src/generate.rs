//! Raw RSSI measurement generation (paper §2, Positioning Layer input).
//!
//! For every device, at that device's detection frequency (or a global
//! override), the generator measures every object that is on the device's
//! floor and within detection range, applying the path-loss model with the
//! wall/obstacle crossing count between device and object. Devices that
//! share a sampling grid are measured together, one interpolated position
//! per grid instant, and each counts crossings through its own
//! [`SightIndex`], so a trajectory's measurements come out in
//! `(t, device)` order per grid.
//!
//! Fluctuation noise is drawn from a generator **derived per measurement**
//! from `(seed, device, object, t)`, so a measurement's value does not
//! depend on the order measurements are produced in. This is what lets the
//! streaming pipeline generate RSSI per trajectory chunk
//! ([`RssiGenerator::measure_trajectory`]) and still emit bit-identical
//! values to the whole-store sweep ([`generate_rssi`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use vita_devices::{Device, DeviceRegistry};
use vita_geometry::SightIndex;
use vita_indoor::{DeviceId, Hz, IndoorEnvironment, ObjectId, Timestamp};
use vita_mobility::{Trajectory, TrajectoryStore};

use crate::model::PathLossModel;
use crate::store::{RssiMeasurement, RssiStore};

/// Configuration of the RSSI Measurement Controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RssiConfig {
    pub path_loss: PathLossModel,
    /// Override measurement frequency for all devices; `None` uses each
    /// device's own detection frequency.
    pub sampling_hz: Option<Hz>,
    /// Generation period end (measurements are taken in `[0, duration]`).
    pub duration: Timestamp,
    /// RNG seed (independent of the trajectory seed).
    pub seed: u64,
}

impl Default for RssiConfig {
    fn default() -> Self {
        RssiConfig {
            path_loss: PathLossModel::default(),
            sampling_hz: None,
            duration: Timestamp(10 * 60 * 1000),
            seed: 0x55AA,
        }
    }
}

/// Generate the raw RSSI data for all devices against all trajectories.
/// Whole-store wrapper over [`RssiGenerator::measure_trajectory`].
pub fn generate_rssi(
    env: &IndoorEnvironment,
    devices: &DeviceRegistry,
    trajectories: &TrajectoryStore,
    cfg: &RssiConfig,
) -> RssiStore {
    let generator = RssiGenerator::new(env, devices, cfg);
    let mut measurements: Vec<RssiMeasurement> = Vec::new();
    for (oid, tr) in trajectories.iter() {
        measurements.append(&mut generator.measure_trajectory(*oid, tr));
    }
    RssiStore::new(measurements)
}

/// The RSSI Measurement Controller, set up once per run: each device gets a
/// [`SightIndex`] over its floor's walls (including user obstacles), and the
/// devices are grouped by sampling grid, so per-chunk generation does no
/// repeated geometry work and interpolates each instant once.
pub struct RssiGenerator<'a> {
    cfg: RssiConfig,
    grids: Vec<Grid<'a>>,
}

/// The devices that sample on one grid (period in milliseconds, anchored at
/// `t = 0`), in registry order, each with its wall index.
struct Grid<'a> {
    period: u64,
    devices: Vec<(&'a Device, SightIndex)>,
}

impl<'a> RssiGenerator<'a> {
    pub fn new(env: &IndoorEnvironment, devices: &'a DeviceRegistry, cfg: &RssiConfig) -> Self {
        let mut grids: Vec<Grid<'a>> = Vec::new();
        for device in devices.devices() {
            let hz = cfg.sampling_hz.unwrap_or(device.spec.detection_hz);
            let period = hz.period_ms();
            if period == u64::MAX {
                continue;
            }
            let sight = SightIndex::new(device.position, &env.walls_with_obstacles(device.floor));
            match grids.iter_mut().find(|g| g.period == period) {
                Some(grid) => grid.devices.push((device, sight)),
                None => grids.push(Grid {
                    period,
                    devices: vec![(device, sight)],
                }),
            }
        }
        RssiGenerator { cfg: *cfg, grids }
    }

    /// Measure one object's trajectory against every device. Each device
    /// samples on its own grid anchored at `t = 0` (detection frequency or
    /// the global override), restricted to `[0, duration]` — exactly the
    /// instants the whole-store sweep would evaluate for this object, so
    /// the union over all objects reproduces [`generate_rssi`] exactly.
    /// Each grid is walked once, interpolating the object's position once
    /// per instant for all of the grid's devices, so measurements come out
    /// in `(t, device)` order per grid: already sorted for
    /// [`RssiStore::new`]'s canonical `(t, object, device)` order when all
    /// devices share one grid, one sorted run per grid otherwise.
    pub fn measure_trajectory(&self, object: ObjectId, tr: &Trajectory) -> Vec<RssiMeasurement> {
        let mut out = Vec::new();
        let (Some(start), Some(end)) = (tr.start_time(), tr.end_time()) else {
            return out;
        };
        let t_end = end.min(self.cfg.duration);
        for grid in &self.grids {
            // First grid instant at or after the object's birth.
            let mut t = Timestamp(start.0.div_ceil(grid.period) * grid.period);
            while t <= t_end {
                if let Some((floor, pos)) = tr.position_at(t) {
                    for (device, sight) in &grid.devices {
                        if device.floor != floor {
                            continue;
                        }
                        let dist = device.position.dist(pos);
                        if dist > device.spec.detection_range {
                            continue;
                        }
                        let crossings = sight.count_crossings(pos, dist);
                        let mut rng = measurement_rng(self.cfg.seed, device.id, object, t);
                        let rssi = self.cfg.path_loss.measure(
                            dist,
                            device.spec.rssi_at_1m,
                            crossings,
                            0.0,
                            &mut rng,
                        );
                        out.push(RssiMeasurement {
                            object,
                            device: device.id,
                            rssi,
                            t,
                        });
                    }
                }
                t = t.advance(grid.period);
            }
        }
        out
    }
}

/// Noise generator for one measurement, derived from the full measurement
/// identity so values are independent of generation order.
fn measurement_rng(seed: u64, device: DeviceId, object: ObjectId, t: Timestamp) -> StdRng {
    let mut z = seed ^ 0xA076_1D64_78BD_642F;
    for v in [device.0 as u64, object.0 as u64, t.0] {
        z = (z ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 29;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 32;
    }
    StdRng::seed_from_u64(z)
}

/// Per-device measurement counts, used for deployment diagnostics.
pub fn measurements_per_device(
    store: &RssiStore,
    devices: &DeviceRegistry,
) -> Vec<(DeviceId, usize)> {
    let mut counts = vec![0usize; devices.len()];
    for m in store.all() {
        counts[m.device.index()] += 1;
    }
    devices
        .devices()
        .iter()
        .map(|d| (d.id, counts[d.id.index()]))
        .collect()
}

/// Per-object measurement counts.
pub fn measurements_per_object(store: &RssiStore) -> Vec<(ObjectId, usize)> {
    let mut map: std::collections::BTreeMap<ObjectId, usize> = std::collections::BTreeMap::new();
    for m in store.all() {
        *map.entry(m.object).or_default() += 1;
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NoiseModel;
    use vita_dbi::{office, SynthParams};
    use vita_devices::{deploy, DeploymentModel, DeviceSpec, DeviceType};
    use vita_geometry::{count_crossings, Polygon};
    use vita_indoor::{build_environment, BuildParams, FloorId};
    use vita_mobility::{generate, ArrivalProcess, LifespanConfig, MobilityConfig};

    use vita_indoor::Hz as HzT;

    fn setup() -> (IndoorEnvironment, DeviceRegistry, TrajectoryStore) {
        let model = office(&SynthParams::with_floors(1));
        let env = build_environment(&model, &BuildParams::default())
            .unwrap()
            .env;
        let mut reg = DeviceRegistry::new();
        deploy(
            &env,
            &mut reg,
            DeviceSpec::default_for(DeviceType::WiFi),
            FloorId(0),
            DeploymentModel::Coverage,
            8,
        );
        let cfg = MobilityConfig {
            object_count: 8,
            duration: Timestamp(60_000),
            lifespan: LifespanConfig {
                min: Timestamp(60_000),
                max: Timestamp(60_000),
            },
            trajectory_hz: HzT(2.0),
            seed: 5,
            ..Default::default()
        };
        let res = generate(&env, &cfg).unwrap();
        (env, reg, res.trajectories)
    }

    #[test]
    fn generates_measurements_within_range_only() {
        let (env, reg, trs) = setup();
        let cfg = RssiConfig {
            duration: Timestamp(60_000),
            ..Default::default()
        };
        let store = generate_rssi(&env, &reg, &trs, &cfg);
        assert!(!store.is_empty(), "no measurements generated");
        for m in store.all() {
            let dev = reg.get(m.device).unwrap();
            let tr = trs.get(m.object).unwrap();
            let (floor, pos) = tr.position_at(m.t).unwrap();
            assert_eq!(floor, dev.floor);
            assert!(dev.position.dist(pos) <= dev.spec.detection_range + 1e-9);
        }
    }

    #[test]
    fn stronger_rssi_when_closer() {
        let (env, reg, trs) = setup();
        let cfg = RssiConfig {
            path_loss: PathLossModel {
                fluctuation: NoiseModel::None,
                ..Default::default()
            },
            duration: Timestamp(60_000),
            ..Default::default()
        };
        let store = generate_rssi(&env, &reg, &trs, &cfg);
        // Group measurements by (device, wall-crossing count) and check the
        // distance-rssi anticorrelation on clear-path pairs.
        let mut clear: Vec<(f64, f64)> = Vec::new(); // (dist, rssi)
        for m in store.all().iter().take(4000) {
            let dev = reg.get(m.device).unwrap();
            let (_, pos) = trs.get(m.object).unwrap().position_at(m.t).unwrap();
            let walls = env.walls_with_obstacles(dev.floor);
            if count_crossings(dev.position, pos, &walls) == 0 {
                clear.push((dev.position.dist(pos), m.rssi));
            }
        }
        assert!(clear.len() > 10);
        // Pairwise monotonicity on a sample.
        let mut violations = 0;
        let mut checks = 0;
        for i in (0..clear.len()).step_by(7) {
            for j in (0..clear.len()).step_by(11) {
                let (d1, r1) = clear[i];
                let (d2, r2) = clear[j];
                if d1 + 0.5 < d2 {
                    checks += 1;
                    if r1 < r2 {
                        violations += 1;
                    }
                }
            }
        }
        assert!(checks > 0);
        assert_eq!(violations, 0, "noiseless RSSI not monotone in distance");
    }

    #[test]
    fn sampling_override_changes_measurement_count() {
        let (env, reg, trs) = setup();
        let slow = RssiConfig {
            sampling_hz: Some(HzT(0.5)),
            duration: Timestamp(60_000),
            path_loss: PathLossModel {
                fluctuation: NoiseModel::None,
                ..Default::default()
            },
            ..Default::default()
        };
        let fast = RssiConfig {
            sampling_hz: Some(HzT(4.0)),
            ..slow
        };
        let n_slow = generate_rssi(&env, &reg, &trs, &slow).len();
        let n_fast = generate_rssi(&env, &reg, &trs, &fast).len();
        assert!(n_fast > 4 * n_slow, "fast {n_fast} vs slow {n_slow}");
    }

    #[test]
    fn generation_is_deterministic() {
        let (env, reg, trs) = setup();
        let cfg = RssiConfig {
            duration: Timestamp(30_000),
            ..Default::default()
        };
        let a = generate_rssi(&env, &reg, &trs, &cfg);
        let b = generate_rssi(&env, &reg, &trs, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.all().iter().zip(b.all()) {
            assert_eq!(x.object, y.object);
            assert_eq!(x.device, y.device);
            assert_eq!(x.t, y.t);
            assert!((x.rssi - y.rssi).abs() < 1e-12);
        }
    }

    #[test]
    fn per_trajectory_chunks_reproduce_whole_store_sweep() {
        // The streaming pipeline measures one trajectory at a time; the
        // union must equal generate_rssi bit-for-bit (per-measurement
        // derived noise makes values order-independent).
        let (env, reg, trs) = setup();
        let cfg = RssiConfig {
            duration: Timestamp(45_000),
            ..Default::default()
        };
        let whole = generate_rssi(&env, &reg, &trs, &cfg);
        let generator = RssiGenerator::new(&env, &reg, &cfg);
        let mut union: Vec<RssiMeasurement> = Vec::new();
        for (oid, tr) in trs.iter() {
            union.extend(generator.measure_trajectory(*oid, tr));
        }
        let union = RssiStore::new(union);
        assert_eq!(union.len(), whole.len());
        for (a, b) in union.all().iter().zip(whole.all()) {
            assert_eq!(a.object, b.object);
            assert_eq!(a.device, b.device);
            assert_eq!(a.t, b.t);
            assert_eq!(a.rssi.to_bits(), b.rssi.to_bits(), "noise differs");
        }
    }

    /// Two floors with Wi-Fi (1 Hz), Bluetooth (2 Hz) and RFID (4 Hz)
    /// devices on each, an obstacle on a sight-line of the first access
    /// point, and objects arriving and leaving mid-run.
    fn mixed_setup() -> (IndoorEnvironment, DeviceRegistry, TrajectoryStore) {
        let model = office(&SynthParams::with_floors(2));
        let mut env = build_environment(&model, &BuildParams::default())
            .unwrap()
            .env;
        let mut reg = DeviceRegistry::new();
        for floor in [FloorId(0), FloorId(1)] {
            for (ty, n) in [
                (DeviceType::WiFi, 4),
                (DeviceType::Bluetooth, 4),
                (DeviceType::Rfid, 8),
            ] {
                let spec = DeviceSpec::default_for(ty);
                deploy(&env, &mut reg, spec, floor, DeploymentModel::Coverage, n);
            }
        }
        let cfg = MobilityConfig {
            object_count: 16,
            duration: Timestamp(90_000),
            lifespan: LifespanConfig {
                min: Timestamp(20_000),
                max: Timestamp(60_000),
            },
            arrivals: ArrivalProcess::Poisson { rate_per_min: 12.0 },
            trajectory_hz: HzT(2.0),
            seed: 11,
            ..Default::default()
        };
        let trs = generate(&env, &cfg).unwrap().trajectories;
        // The obstacle straddles the sight-line from the first access point
        // to the first object it sees from more than 3 m away.
        let ap = reg.devices()[0].position;
        let seen = trs
            .iter()
            .flat_map(|(_, tr)| (0..90).filter_map(|s| tr.position_at(Timestamp(s * 1000))))
            .find(|&(floor, p)| floor == FloorId(0) && (3.0..25.0).contains(&ap.dist(p)))
            .unwrap();
        let mid = ap.midpoint(seen.1);
        let obstacle = Polygon::rect(mid.x - 0.3, mid.y - 0.3, mid.x + 0.3, mid.y + 0.3);
        env.deploy_obstacle(FloorId(0), obstacle, 3.0);
        (env, reg, trs)
    }

    /// The reference: a per-device loop with one `position_at` and one
    /// brute-force crossing count per device per instant.
    fn per_device_loop(
        env: &IndoorEnvironment,
        devices: &DeviceRegistry,
        cfg: &RssiConfig,
        object: ObjectId,
        tr: &Trajectory,
    ) -> Vec<RssiMeasurement> {
        let mut out = Vec::new();
        let (Some(start), Some(end)) = (tr.start_time(), tr.end_time()) else {
            return out;
        };
        let t_end = end.min(cfg.duration);
        for device in devices.devices() {
            let period = cfg
                .sampling_hz
                .unwrap_or(device.spec.detection_hz)
                .period_ms();
            if period == u64::MAX {
                continue;
            }
            let walls = env.walls_with_obstacles(device.floor);
            let mut t = Timestamp(start.0.div_ceil(period) * period);
            while t <= t_end {
                if let Some((floor, pos)) = tr.position_at(t) {
                    let dist = device.position.dist(pos);
                    if floor == device.floor && dist <= device.spec.detection_range {
                        let crossings = count_crossings(device.position, pos, &walls);
                        let mut rng = measurement_rng(cfg.seed, device.id, object, t);
                        let rssi = cfg.path_loss.measure(
                            dist,
                            device.spec.rssi_at_1m,
                            crossings,
                            0.0,
                            &mut rng,
                        );
                        out.push(RssiMeasurement {
                            object,
                            device: device.id,
                            rssi,
                            t,
                        });
                    }
                }
                t = t.advance(period);
            }
        }
        out
    }

    #[test]
    fn grid_walk_reproduces_the_per_device_loop_bit_for_bit() {
        let (env, reg, trs) = mixed_setup();
        assert!(
            trs.iter()
                .any(|(_, tr)| tr.start_time() > Some(Timestamp(0))),
            "no object is born mid-run"
        );
        assert!(
            trs.iter()
                .any(|(_, tr)| tr.end_time() < Some(Timestamp(80_000))),
            "no object leaves mid-run"
        );
        for sampling_hz in [None, Some(HzT(3.0))] {
            let cfg = RssiConfig {
                sampling_hz,
                duration: Timestamp(90_000),
                ..Default::default()
            };
            let generator = RssiGenerator::new(&env, &reg, &cfg);
            let (mut grid, mut reference) = (Vec::new(), Vec::new());
            for (oid, tr) in trs.iter() {
                grid.extend(generator.measure_trajectory(*oid, tr));
                reference.extend(per_device_loop(&env, &reg, &cfg, *oid, tr));
            }
            let (grid, reference) = (RssiStore::new(grid), RssiStore::new(reference));
            assert_eq!(grid.len(), reference.len(), "{sampling_hz:?}");
            for (a, b) in grid.all().iter().zip(reference.all()) {
                assert_eq!((a.t, a.object, a.device), (b.t, b.object, b.device));
                assert_eq!(a.rssi.to_bits(), b.rssi.to_bits(), "{a:?} vs {b:?}");
            }
            // The setup reaches what it is meant to: every device type and
            // both floors measure, and the obstacle is on some sight-line.
            let measured = |pred: &dyn Fn(&vita_devices::Device) -> bool| {
                grid.all().iter().any(|m| pred(reg.get(m.device).unwrap()))
            };
            for ty in DeviceType::ALL {
                assert!(measured(&|d| d.spec.device_type == ty), "{ty:?}");
            }
            assert!(measured(&|d| d.floor == FloorId(1)));
            let obstacle_edges: Vec<_> = env.obstacles()[0].polygon.edges().collect();
            assert!(grid.all().iter().any(|m| {
                let d = reg.get(m.device).unwrap();
                let (_, pos) = trs.get(m.object).unwrap().position_at(m.t).unwrap();
                d.floor == FloorId(0) && count_crossings(d.position, pos, &obstacle_edges) > 0
            }));
        }
    }

    #[test]
    fn empty_trajectory_yields_no_measurements() {
        let (env, reg, _) = setup();
        let generator = RssiGenerator::new(&env, &reg, &RssiConfig::default());
        let empty = vita_mobility::Trajectory::default();
        assert!(generator.measure_trajectory(ObjectId(0), &empty).is_empty());
    }

    #[test]
    fn per_device_and_per_object_counts_sum_to_total() {
        let (env, reg, trs) = setup();
        let cfg = RssiConfig {
            duration: Timestamp(30_000),
            ..Default::default()
        };
        let store = generate_rssi(&env, &reg, &trs, &cfg);
        let dsum: usize = measurements_per_device(&store, &reg)
            .iter()
            .map(|(_, c)| c)
            .sum();
        let osum: usize = measurements_per_object(&store).iter().map(|(_, c)| c).sum();
        assert_eq!(dsum, store.len());
        assert_eq!(osum, store.len());
    }

    #[test]
    fn no_devices_no_measurements() {
        let (env, _, trs) = setup();
        let empty = DeviceRegistry::new();
        let store = generate_rssi(&env, &empty, &trs, &RssiConfig::default());
        assert_eq!(store.len(), 0);
    }
}
